#include "helpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace perfbench {
namespace {

TEST(NuRandTest, StaysInRange) {
  NuRand draw(1023, 5, 3004, 42);
  for (int n = 0; n < 100000; ++n) {
    const uint64_t v = draw.Next();
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 3004u);
  }
}

TEST(NuRandTest, IsSkewedTowardsAFewValues) {
  // With A about a third of the range, the hottest tenth of the values
  // draws clearly more than a tenth of the mass, unlike a uniform draw.
  constexpr uint64_t kRange = 3000;
  NuRand draw(1023, 0, kRange - 1, 7);
  std::vector<uint64_t> counts(kRange, 0);
  constexpr int kDraws = 300000;
  for (int n = 0; n < kDraws; ++n) ++counts[draw.Next()];
  std::sort(counts.begin(), counts.end(), std::greater<>());
  uint64_t hottest_tenth = 0;
  for (uint64_t i = 0; i < kRange / 10; ++i) hottest_tenth += counts[i];
  EXPECT_GT(static_cast<double>(hottest_tenth) / kDraws, 0.2);
}

TEST(NuRandTest, SameSeedSameSequence) {
  NuRand a(7, 0, 31, 99);
  NuRand b(7, 0, 31, 99);
  for (int n = 0; n < 1000; ++n) ASSERT_EQ(a.Next(), b.Next());
}

TEST(PercentileRuleTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);   // median has 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);  // median has 10 beyond
  EXPECT_EQ(HighestSupportedPercentile(99), 50.0);  // p90 has 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
}

TEST(PercentileRuleTest, SummaryUsesNearestRank) {
  std::vector<double> samples;
  for (int v = 1000; v >= 1; --v) samples.push_back(v);
  const Distribution d = Summarize(samples);
  EXPECT_EQ(d.count, 1000u);
  EXPECT_EQ(d.p50, 500.0);
  EXPECT_EQ(d.tail_percentile, 99.0);
  EXPECT_EQ(d.tail_value, 990.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(IngestLineTest, CsvRoundTripsThroughTheProtocolParser) {
  const std::string csv =
      "object_id,property,source_id,value\n"
      "o1,city,s1,\"Paris, \"\"Left\"\" Bank\"\r\n"
      "o2,note,s2,tab\there back\\slash \x01 end\n";
  auto parsed = crh::ParseJsonObject(IngestLine(17, -3, csv), size_t{1} << 20);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed->GetString("cmd"), "ingest");
  EXPECT_EQ(*parsed->GetUint("seq"), 17u);
  EXPECT_EQ(*parsed->GetInt("window_start"), -3);
  EXPECT_EQ(*parsed->GetString("csv"), csv);
}

TEST(ReadinessLineTest, ParsesTheDaemonsLine) {
  std::string path;
  EXPECT_TRUE(ParseReadinessLine("crh_serve: listening on d.sock", &path));
  EXPECT_EQ(path, "d.sock");
  EXPECT_TRUE(ParseReadinessLine("crh_serve: listening on /tmp/a b.sock\r\n", &path));
  EXPECT_EQ(path, "/tmp/a b.sock");
  EXPECT_FALSE(ParseReadinessLine("crh_serve: listening on ", &path));
  EXPECT_FALSE(ParseReadinessLine("crh_serve: drained cleanly", &path));
  EXPECT_FALSE(ParseReadinessLine("", &path));
}

TEST(StripEpochTest, RemovesOnlyTheEpochField) {
  EXPECT_EQ(StripEpoch("{\"ok\":true,\"epoch\":1234,\"value\":1.5}"),
            "{\"ok\":true,\"value\":1.5}");
  EXPECT_EQ(StripEpoch("{\"ok\":true,\"value\":null}"), "{\"ok\":true,\"value\":null}");
}

}  // namespace
}  // namespace perfbench
