/// \file claim_index_test.cc
/// The ClaimIndex must be an exact sparse view of the dense observation
/// tables: same claims, same per-entry iteration order as a dense K-scan.

#include "data/claim_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/noise.h"
#include "stream/chunks.h"

namespace crh {
namespace {

/// Claim-for-claim equality across every lane, plus the incrementally
/// maintained max_span_size.
void ExpectIndexesIdentical(const ClaimIndex& want, const ClaimIndex& got) {
  ASSERT_EQ(want.num_objects(), got.num_objects());
  ASSERT_EQ(want.num_properties(), got.num_properties());
  ASSERT_EQ(want.num_claims(), got.num_claims());
  EXPECT_EQ(want.max_span_size(), got.max_span_size());
  for (size_t e = 0; e < want.num_entries(); ++e) {
    const ClaimSpan want_span = want.entry(e);
    const ClaimSpan got_span = got.entry(e);
    ASSERT_EQ(want_span.size, got_span.size) << "entry " << e;
    for (size_t c = 0; c < want_span.size; ++c) {
      EXPECT_EQ(want_span.sources[c], got_span.sources[c]) << "entry " << e;
      EXPECT_EQ(want_span.labels[c], got_span.labels[c]) << "entry " << e;
      // The numeric lane is NaN for non-continuous claims, so compare bits
      // via the is-NaN predicate rather than operator==.
      if (std::isnan(want_span.numeric[c])) {
        EXPECT_TRUE(std::isnan(got_span.numeric[c])) << "entry " << e;
      } else {
        EXPECT_EQ(want_span.numeric[c], got_span.numeric[c]) << "entry " << e;
      }
    }
  }
}

Dataset MakeSparseDataset(size_t num_objects, double missing_rate, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddContinuous("x", 0.0).ok());
  EXPECT_TRUE(schema.AddCategorical("y").ok());
  std::vector<std::string> objects;
  for (size_t i = 0; i < num_objects; ++i) objects.push_back("o" + std::to_string(i));
  Dataset data(std::move(schema), std::move(objects), {});
  for (const char* label : {"a", "b", "c"}) data.mutable_dict(1).GetOrAdd(label);
  Rng rng(seed);
  ValueTable truth(num_objects, 2);
  for (size_t i = 0; i < num_objects; ++i) {
    truth.Set(i, 0, Value::Continuous(std::round(rng.Uniform(0, 50))));
    truth.Set(i, 1, Value::Categorical(static_cast<CategoryId>(rng.UniformInt(0, 2))));
  }
  data.set_ground_truth(std::move(truth));
  NoiseOptions noise;
  noise.gammas = {0.1, 0.7, 1.3, 1.9, 0.4};
  noise.missing_rate = missing_rate;
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(data, noise);
  EXPECT_TRUE(noisy.ok());
  return std::move(noisy).ValueOrDie();
}

TEST(ClaimIndexTest, MatchesDenseScanClaimForClaim) {
  const Dataset data = MakeSparseDataset(60, 0.6, 11);
  const ClaimIndex index = ClaimIndex::Build(data);
  ASSERT_EQ(index.num_objects(), data.num_objects());
  ASSERT_EQ(index.num_properties(), data.num_properties());

  size_t total = 0;
  for (size_t i = 0; i < data.num_objects(); ++i) {
    for (size_t m = 0; m < data.num_properties(); ++m) {
      // The dense reference: scan sources in ascending order.
      std::vector<uint32_t> want_sources;
      std::vector<Value> want_values;
      for (size_t k = 0; k < data.num_sources(); ++k) {
        const Value& v = data.observations(k).Get(i, m);
        if (v.is_missing()) continue;
        want_sources.push_back(static_cast<uint32_t>(k));
        want_values.push_back(v);
      }
      const ClaimSpan span = index.entry(i, m);
      ASSERT_EQ(span.size, want_sources.size()) << "entry (" << i << ", " << m << ")";
      for (size_t c = 0; c < span.size; ++c) {
        EXPECT_EQ(span.sources[c], want_sources[c]);
        if (want_values[c].is_continuous()) {
          EXPECT_EQ(span.numeric[c], want_values[c].continuous());
        } else {
          EXPECT_EQ(span.labels[c], want_values[c].category());
        }
      }
      total += span.size;
    }
  }
  EXPECT_EQ(index.num_claims(), total);
  EXPECT_EQ(index.num_claims(), data.num_observations());
}

TEST(ClaimIndexTest, FlatAndTwoDimensionalAddressingAgree) {
  const Dataset data = MakeSparseDataset(20, 0.5, 3);
  const ClaimIndex index = ClaimIndex::Build(data);
  const size_t m_props = data.num_properties();
  for (size_t i = 0; i < data.num_objects(); ++i) {
    for (size_t m = 0; m < m_props; ++m) {
      const ClaimSpan by_pair = index.entry(i, m);
      const ClaimSpan by_id = index.entry(i * m_props + m);
      EXPECT_EQ(by_pair.sources, by_id.sources);
      EXPECT_EQ(by_pair.numeric, by_id.numeric);
      EXPECT_EQ(by_pair.labels, by_id.labels);
      EXPECT_EQ(by_pair.size, by_id.size);
    }
  }
}

TEST(ClaimIndexTest, FullyMissingEntriesHaveEmptySpans) {
  Dataset data = MakeSparseDataset(15, 0.0, 7);
  // Blank every source's claims on object 4 across all properties.
  for (size_t k = 0; k < data.num_sources(); ++k) {
    for (size_t m = 0; m < data.num_properties(); ++m) {
      data.mutable_observations(k).Set(4, m, Value::Missing());
    }
  }
  const ClaimIndex index = ClaimIndex::Build(data);
  for (size_t m = 0; m < data.num_properties(); ++m) {
    EXPECT_TRUE(index.entry(4, m).empty());
  }
  EXPECT_EQ(index.num_claims(), data.num_observations());
}

TEST(ClaimIndexTest, AppendedChunksMatchFullRebuild) {
  // Stream the dataset through SplitByWindow and accumulate with Append;
  // the result must be claim-for-claim identical to Build over the parent.
  Dataset data = MakeSparseDataset(40, 0.5, 13);
  std::vector<int64_t> timestamps(data.num_objects());
  for (size_t i = 0; i < timestamps.size(); ++i) {
    timestamps[i] = static_cast<int64_t>(i % 4);
  }
  ASSERT_TRUE(data.set_timestamps(std::move(timestamps)).ok());
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());
  ASSERT_EQ(chunks->size(), 4u);

  ClaimIndex incremental =
      ClaimIndex::CreateEmpty(data.num_objects(), data.num_properties());
  EXPECT_EQ(incremental.num_claims(), 0u);
  EXPECT_EQ(incremental.max_span_size(), 0u);
  for (const DataChunk& chunk : *chunks) {
    incremental.Append(chunk.data, chunk.parent_object);
  }
  ExpectIndexesIdentical(ClaimIndex::Build(data), incremental);

  // A stream with repeated claims: chunks 1 and 3 arrive again, carrying
  // every other cell with a new value, some where the source claimed
  // before and some where it was silent. Each repeated (entry, source)
  // claim replaces the earlier one, so the appended index must equal
  // Build over the latest claims.
  Dataset latest = data;
  std::vector<DataChunk> stream = *chunks;
  for (const size_t c : {size_t{1}, size_t{3}}) {
    DataChunk revised = (*chunks)[c];
    for (size_t k = 0; k < revised.data.num_sources(); ++k) {
      for (size_t i = 0; i < revised.data.num_objects(); ++i) {
        for (size_t m = 0; m < revised.data.num_properties(); ++m) {
          revised.data.mutable_observations(k).Clear(i, m);
          if ((k + i + m) % 2 != 0) continue;
          const Value v = m == 0 ? Value::Continuous(100.0 + static_cast<double>(k * 7 + i))
                                 : Value::Categorical(static_cast<CategoryId>((k + i) % 3));
          revised.data.SetObservation(k, i, m, v);
          latest.SetObservation(k, revised.parent_object[i], m, v);
        }
      }
    }
    stream.push_back(std::move(revised));
  }
  ClaimIndex latest_wins =
      ClaimIndex::CreateEmpty(data.num_objects(), data.num_properties());
  for (const DataChunk& chunk : stream) {
    latest_wins.Append(chunk.data, chunk.parent_object);
  }
  ExpectIndexesIdentical(ClaimIndex::Build(latest), latest_wins);
}

TEST(ClaimIndexTest, AppendKeepsCapacityWithinTwiceTheClaims) {
  // A long stream of small chunks, every fifth one repeating an earlier
  // object: the claim arrays grow only when full, so their capacity stays
  // within 2x the claims they hold after every append.
  constexpr size_t kAppends = 250;
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x", 0.0).ok());
  const std::vector<std::string> sources = {"s0", "s1", "s2", "s3"};
  ClaimIndex index = ClaimIndex::CreateEmpty(kAppends, 1);
  for (size_t t = 0; t < kAppends; ++t) {
    const size_t object = t % 5 == 4 ? t / 2 : t;
    Dataset chunk(schema, {"o" + std::to_string(object)}, sources);
    for (size_t k = 0; k < sources.size(); ++k) {
      chunk.SetObservation(k, 0, 0, Value::Continuous(static_cast<double>(t + k)));
    }
    index.Append(chunk, {object});
    ASSERT_LE(index.claim_capacity(), 2 * index.num_claims()) << "after append " << t;
  }
  EXPECT_LT(index.num_claims(), kAppends * sources.size());
}

TEST(ClaimIndexTest, AppendMergesInterleavedSourcesWithinEntry) {
  // Two chunks claim the SAME parent entries from interleaved source ids
  // (chunk A: sources 0, 2, 4; chunk B: sources 1, 3), so Append must
  // splice new claims into the middle of existing spans to preserve the
  // ascending-by-source order a rebuild produces.
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x", 0.0).ok());
  ASSERT_TRUE(schema.AddCategorical("y").ok());
  const std::vector<std::string> sources = {"s0", "s1", "s2", "s3", "s4"};
  Dataset parent(schema, {"o0", "o1", "o2"}, sources);
  for (const char* label : {"a", "b"}) parent.mutable_dict(1).GetOrAdd(label);

  Dataset chunk_a(schema, {"o0", "o2"}, sources);
  for (const char* label : {"a", "b"}) chunk_a.mutable_dict(1).GetOrAdd(label);
  Dataset chunk_b(schema, {"o1", "o0"}, sources);
  for (const char* label : {"a", "b"}) chunk_b.mutable_dict(1).GetOrAdd(label);

  const auto claim = [&](Dataset& chunk, size_t parent_i, size_t chunk_i, size_t k) {
    const Value v =
        Value::Continuous(10.0 * static_cast<double>(parent_i) + static_cast<double>(k));
    chunk.SetObservation(k, chunk_i, 0, v);
    chunk.SetObservation(k, chunk_i, 1, Value::Categorical(static_cast<CategoryId>(k % 2)));
    parent.SetObservation(k, parent_i, 0, v);
    parent.SetObservation(k, parent_i, 1, Value::Categorical(static_cast<CategoryId>(k % 2)));
  };
  for (const size_t k : {0u, 2u, 4u}) {
    claim(chunk_a, /*parent_i=*/0, /*chunk_i=*/0, k);
    claim(chunk_a, /*parent_i=*/2, /*chunk_i=*/1, k);
  }
  for (const size_t k : {1u, 3u}) {
    claim(chunk_b, /*parent_i=*/1, /*chunk_i=*/0, k);
    claim(chunk_b, /*parent_i=*/0, /*chunk_i=*/1, k);
  }

  ClaimIndex incremental = ClaimIndex::CreateEmpty(3, 2);
  incremental.Append(chunk_a, {0, 2});
  incremental.Append(chunk_b, {1, 0});
  ExpectIndexesIdentical(ClaimIndex::Build(parent), incremental);

  // Entry (o0, x) got claims from both chunks: sources must read 0..4.
  const ClaimSpan span = incremental.entry(0, 0);
  ASSERT_EQ(span.size, 5u);
  for (size_t c = 0; c < span.size; ++c) {
    EXPECT_EQ(span.sources[c], static_cast<uint32_t>(c));
    EXPECT_EQ(span.numeric[c], static_cast<double>(c));
  }
  EXPECT_EQ(incremental.max_span_size(), 5u);
}

TEST(ClaimIndexTest, LanesUnboxTheTaggedValues) {
  const Dataset data = MakeSparseDataset(30, 0.4, 17);
  const ClaimIndex index = ClaimIndex::Build(data);
  for (size_t i = 0; i < data.num_objects(); ++i) {
    // Property 0 is continuous: numeric lane carries the value, label lane
    // is invalid. Property 1 is categorical: the reverse.
    const ClaimSpan cont = index.entry(i, 0);
    for (size_t c = 0; c < cont.size; ++c) {
      EXPECT_EQ(cont.numeric[c], data.observations(cont.sources[c]).Get(i, 0).continuous());
      EXPECT_EQ(cont.labels[c], kInvalidCategory);
    }
    const ClaimSpan cat = index.entry(i, 1);
    for (size_t c = 0; c < cat.size; ++c) {
      EXPECT_TRUE(std::isnan(cat.numeric[c]));
      EXPECT_EQ(cat.labels[c], data.observations(cat.sources[c]).Get(i, 1).category());
    }
  }
}

TEST(ClaimIndexTest, DatasetWithoutSourcesYieldsEmptyIndex) {
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  const Dataset data(schema, {"o0", "o1"}, {});
  const ClaimIndex index = ClaimIndex::Build(data);
  EXPECT_EQ(index.num_claims(), 0u);
  EXPECT_EQ(index.num_entries(), 2u);
  EXPECT_TRUE(index.entry(0, 0).empty());
  EXPECT_TRUE(index.entry(1, 0).empty());
}

}  // namespace
}  // namespace crh
