#include "tools/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/fault_injection.h"
#include "data/csv.h"
#include "datagen/noise.h"
#include "datagen/uci_like.h"
#include "common/rng.h"

namespace crh::cli {
namespace {

// ---------------------------------------------------------------------------
// Argument parsing
// ---------------------------------------------------------------------------

TEST(CliParseTest, RequiredFlags) {
  EXPECT_FALSE(ParseCliArgs({}).ok());
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--input", "a.csv"}).ok());
  auto ok = ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv"});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->schema_spec, "x:continuous");
  EXPECT_EQ(ok->input_path, "a.csv");
  EXPECT_EQ(ok->algorithm, "crh");
}

TEST(CliParseTest, AllFlags) {
  auto options = ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv", "--truth",
                               "t.csv", "--output", "o.csv", "--algorithm", "ICRH",
                               "--weights", "sum", "--window", "3", "--decay", "0.2",
                               "--reducers", "7"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->truth_path, "t.csv");
  EXPECT_EQ(options->output_path, "o.csv");
  EXPECT_EQ(options->algorithm, "icrh");  // lowercased
  EXPECT_EQ(options->weights, "sum");
  EXPECT_EQ(options->window, 3);
  EXPECT_DOUBLE_EQ(options->decay, 0.2);
  EXPECT_EQ(options->reducers, 7);
}

TEST(CliParseTest, RejectsBadValues) {
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a", "--weights",
                             "median"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a", "--window", "0"})
                   .ok());
  EXPECT_FALSE(
      ParseCliArgs({"--schema", "x:continuous", "--input", "a", "--decay", "1.5"}).ok());
  // Non-numbers are rejected, not read as 0.
  EXPECT_FALSE(
      ParseCliArgs({"--schema", "x:continuous", "--input", "a", "--decay", "abc"}).ok());
  EXPECT_FALSE(
      ParseCliArgs({"--schema", "x:continuous", "--input", "a", "--window", "2x"}).ok());
  EXPECT_FALSE(
      ParseCliArgs({"--schema", "x:continuous", "--input", "a", "--reducers", ""}).ok());
  EXPECT_FALSE(ParseCliArgs({"--bogus"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--schema"}).ok());  // missing value
}

TEST(CliParseTest, NumericFlagsAreParsedStrictly) {
  // The one parser behind every numeric flag of crh_cli and crh_serve.
  constexpr int64_t kNoMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(*ParseNumericFlag<int64_t>("--threads", "0", 0, 1024), 0);
  EXPECT_EQ(*ParseNumericFlag<int64_t>("--window", "42", 1, kNoMax), 42);
  EXPECT_DOUBLE_EQ(*ParseNumericFlag("--decay", "0.25", 0.0, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(*ParseNumericFlag("--decay", "1e-3", 0.0, 1.0), 1e-3);
  // crh_serve --threads abc used to mean every hardware thread.
  for (const char* bad : {"abc", "", "4x", " 4", "4 ", "+4", "4.0", "0x10"}) {
    EXPECT_FALSE(ParseNumericFlag<int64_t>("--threads", bad, 0, 1024).ok()) << bad;
  }
  // --decay abc used to mean decay 0 in both binaries.
  for (const char* bad : {"abc", "", "0.5x", "nan", "inf", "1.5", "-0.1", "1e999"}) {
    EXPECT_FALSE(ParseNumericFlag("--decay", bad, 0.0, 1.0).ok()) << bad;
  }
  // crh_serve --checkpoint-every 0 used to be coerced to 1.
  EXPECT_FALSE(ParseNumericFlag<int64_t>("--checkpoint-every", "0", 1, kNoMax).ok());
  EXPECT_FALSE(
      ParseNumericFlag<int64_t>("--window", "99999999999999999999", 1, kNoMax).ok());
  const Status range = ParseNumericFlag<int64_t>("--threads", "-1", 0, 1024).status();
  EXPECT_EQ(range.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(range.message().find("--threads"), std::string::npos);
}

TEST(CliParseTest, TruthModeFlag) {
  auto defaulted = ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                                 "--algorithm", "icrh"});
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(defaulted->truth_mode, TruthMode::kPatchwork);
  auto consistent = ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                                  "--algorithm", "icrh", "--truth-mode", "consistent"});
  ASSERT_TRUE(consistent.ok());
  EXPECT_EQ(consistent->truth_mode, TruthMode::kConsistent);
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                             "--algorithm", "icrh", "--truth-mode", "full"}).ok());
  // The truth mode is an icrh flag.
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                             "--truth-mode", "consistent"}).ok());
}

TEST(CliParseTest, CheckpointFlags) {
  auto options = ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                               "--algorithm", "icrh", "--checkpoint-dir", "/tmp/ckpt",
                               "--checkpoint-every", "3", "--resume", "--quarantine"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->checkpoint_dir, "/tmp/ckpt");
  EXPECT_EQ(options->checkpoint_every, 3);
  EXPECT_TRUE(options->resume);
  EXPECT_TRUE(options->quarantine);
}

TEST(CliParseTest, CheckpointFlagValidation) {
  // --resume needs somewhere to resume from.
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                             "--algorithm", "icrh", "--resume"}).ok());
  // checkpoint-every must be positive.
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                             "--algorithm", "icrh", "--checkpoint-dir", "d",
                             "--checkpoint-every", "0"}).ok());
  // The robustness flags are icrh-only.
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                             "--checkpoint-dir", "d"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--schema", "x:continuous", "--input", "a.csv",
                             "--quarantine"}).ok());
}

// ---------------------------------------------------------------------------
// Schema spec parsing
// ---------------------------------------------------------------------------

TEST(SchemaSpecTest, ParsesAllTypes) {
  auto schema = ParseSchemaSpec("temp:continuous:0.5,cond:categorical,name:text");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_properties(), 3u);
  EXPECT_TRUE(schema->is_continuous(0));
  EXPECT_DOUBLE_EQ(schema->property(0).rounding_unit, 0.5);
  EXPECT_TRUE(schema->is_categorical(1));
  EXPECT_EQ(schema->property(2).type, PropertyType::kText);
}

TEST(SchemaSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseSchemaSpec("").ok());
  EXPECT_FALSE(ParseSchemaSpec("justaname").ok());
  EXPECT_FALSE(ParseSchemaSpec("x:integer").ok());
  EXPECT_FALSE(ParseSchemaSpec("x:categorical:2").ok());   // unit on categorical
  EXPECT_FALSE(ParseSchemaSpec("x:text:1").ok());          // unit on text
  EXPECT_FALSE(ParseSchemaSpec(":continuous").ok());       // empty name
  EXPECT_FALSE(ParseSchemaSpec("x:continuous,x:text").ok());  // duplicate
  // A unit must be one whole number in [0, max double]; anything else is an
  // error naming the property, not a silent unit of 0.
  for (const char* unit : {"abc", "1x", " 1", "+1", "-1", "0x10", "nan", "inf", "1e400"}) {
    auto schema = ParseSchemaSpec(std::string("temp:continuous:") + unit);
    ASSERT_FALSE(schema.ok()) << unit;
    EXPECT_NE(schema.status().message().find("unit of 'temp'"), std::string::npos) << unit;
  }
}

TEST(SchemaSpecTest, RoundTripsPrintedUnits) {
  // perfbench and crh_serve clients print units with %.17g. Each must parse
  // back to the identical double, and to what std::atof made of it, so the
  // checkpoint fingerprint (which hashes the unit) does not change.
  for (const double unit : {0.0, 0.1, 0.01, 1e-05, 0.5, 1.0 / 3.0, 10000.0, 1e300}) {
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", unit);
    auto schema = ParseSchemaSpec(std::string("temp:continuous:") + text + ",cond:categorical");
    ASSERT_TRUE(schema.ok()) << text << ": " << schema.status().ToString();
    EXPECT_EQ(schema->property(0).rounding_unit, unit) << text;
    EXPECT_EQ(schema->property(0).rounding_unit, std::atof(text)) << text;
  }
}

// ---------------------------------------------------------------------------
// End to end through temporary CSV files
// ---------------------------------------------------------------------------

class CliEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs every discovered test as its own process, in parallel, so
    // the fixture files must be unique per test or concurrent tests clobber
    // each other's CSVs mid-read.
    const std::string unique =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    obs_path_ = testing::TempDir() + "/cli_obs_" + unique + ".csv";
    truth_path_ = testing::TempDir() + "/cli_truth_" + unique + ".csv";
    out_path_ = testing::TempDir() + "/cli_out_" + unique + ".csv";

    // Small Adult-style simulation, exported through the library's own CSV
    // writer with object ids carrying a _t<day> suffix for icrh.
    UciLikeOptions uci;
    uci.num_records = 120;
    Dataset truth_data = MakeAdultGroundTruth(uci);
    NoiseOptions noise;
    noise.gammas = {0.1, 0.7, 1.4, 2.0};
    auto noisy = MakeNoisyDataset(truth_data, noise);
    ASSERT_TRUE(noisy.ok());

    // Rebuild with timestamped object names.
    schema_spec_ = "";
    for (size_t m = 0; m < noisy->num_properties(); ++m) {
      const Property& property = noisy->schema().property(m);
      if (m > 0) schema_spec_ += ",";
      schema_spec_ += property.name + ":" +
                      (property.type == PropertyType::kContinuous ? "continuous"
                                                                  : "categorical");
    }
    std::vector<std::string> objects, sources;
    for (size_t i = 0; i < noisy->num_objects(); ++i) {
      objects.push_back("rec" + std::to_string(i) + "_t" + std::to_string(i % 5));
    }
    for (size_t k = 0; k < noisy->num_sources(); ++k) {
      sources.push_back(noisy->source_id(k));
    }
    Dataset renamed(noisy->schema(), objects, sources);
    for (size_t m = 0; m < noisy->num_properties(); ++m) {
      renamed.mutable_dict(m) = noisy->dict(m);
    }
    for (size_t k = 0; k < noisy->num_sources(); ++k) {
      for (size_t i = 0; i < noisy->num_objects(); ++i) {
        for (size_t m = 0; m < noisy->num_properties(); ++m) {
          renamed.SetObservation(k, i, m, noisy->observations(k).Get(i, m));
        }
      }
    }
    renamed.set_ground_truth(noisy->ground_truth());
    ASSERT_TRUE(WriteObservationsCsv(renamed, obs_path_).ok());
    ASSERT_TRUE(WriteGroundTruthCsv(renamed, truth_path_).ok());
  }

  void TearDown() override {
    std::remove(obs_path_.c_str());
    std::remove(truth_path_.c_str());
    std::remove(out_path_.c_str());
  }

  std::string obs_path_, truth_path_, out_path_, schema_spec_;
};

TEST_F(CliEndToEnd, CrhWithMetricsAndOutput) {
  CliOptions options;
  options.schema_spec = schema_spec_;
  options.input_path = obs_path_;
  options.truth_path = truth_path_;
  options.output_path = out_path_;
  std::ostringstream out;
  ASSERT_TRUE(RunCli(options, out).ok()) << out.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("source scores"), std::string::npos);
  EXPECT_NE(text.find("error rate"), std::string::npos);
  EXPECT_NE(text.find("MNAD"), std::string::npos);
  EXPECT_NE(text.find("wrote fused truths"), std::string::npos);
  // The output file must be readable and cover every entry.
  std::ifstream fused(out_path_);
  ASSERT_TRUE(fused.good());
  size_t lines = 0;
  std::string line;
  while (std::getline(fused, line)) ++lines;
  EXPECT_EQ(lines, 1u + 120u * 14u);  // header + N*M
}

TEST_F(CliEndToEnd, EveryAlgorithmRuns) {
  for (const char* algorithm :
       {"crh", "icrh", "parallel", "catd", "dep-aware", "mean", "median", "voting", "gtm",
        "investment", "pooledinvestment", "2-estimates", "3-estimates", "truthfinder",
        "accusim"}) {
    CliOptions options;
    options.schema_spec = schema_spec_;
    options.input_path = obs_path_;
    options.truth_path = truth_path_;
    options.algorithm = algorithm;
    std::ostringstream out;
    EXPECT_TRUE(RunCli(options, out).ok()) << algorithm << ": " << out.str();
  }
}

TEST_F(CliEndToEnd, UnknownAlgorithmFails) {
  CliOptions options;
  options.schema_spec = schema_spec_;
  options.input_path = obs_path_;
  options.algorithm = "magic";
  std::ostringstream out;
  EXPECT_FALSE(RunCli(options, out).ok());
}

TEST_F(CliEndToEnd, MissingInputFileFails) {
  CliOptions options;
  options.schema_spec = schema_spec_;
  options.input_path = "/nonexistent/claims.csv";
  std::ostringstream out;
  EXPECT_EQ(RunCli(options, out).code(), StatusCode::kIOError);
}

TEST_F(CliEndToEnd, IcrhRequiresTimestampSuffix) {
  // Rewrite the observations with ids lacking _t suffixes.
  const std::string bad_path = testing::TempDir() + "/cli_bad_obs.csv";
  std::ifstream in(obs_path_);
  std::ofstream bad(bad_path);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (!first) {
      const size_t pos = line.find("_t");
      if (pos != std::string::npos) {
        const size_t comma = line.find(',', pos);
        line = line.substr(0, pos) + line.substr(comma);
      }
    }
    bad << line << "\n";
    first = false;
  }
  bad.close();
  CliOptions options;
  options.schema_spec = schema_spec_;
  options.input_path = bad_path;
  options.algorithm = "icrh";
  std::ostringstream out;
  EXPECT_FALSE(RunCli(options, out).ok());
  std::remove(bad_path.c_str());
}

TEST_F(CliEndToEnd, IcrhRejectsMalformedTimestampSuffix) {
  // "rec7_t2" becomes "rec7_tx2" (not a number) or "rec7_t999...92" (past
  // int64): either is an error naming the object, not a silent timestamp 0.
  for (const std::string insert : {"x", "99999999999999999999"}) {
    const std::string bad_path = testing::TempDir() + "/cli_bad_suffix.csv";
    std::ifstream in(obs_path_);
    std::ofstream bad(bad_path);
    std::string line;
    std::getline(in, line);
    bad << line << "\n";
    while (std::getline(in, line)) bad << line.insert(line.find("_t") + 2, insert) << "\n";
    bad.close();
    CliOptions options;
    options.schema_spec = schema_spec_;
    options.input_path = bad_path;
    options.algorithm = "icrh";
    std::ostringstream out;
    const Status status = RunCli(options, out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << insert;
    EXPECT_NE(status.message().find("timestamp suffix of object id 'rec"), std::string::npos)
        << status.ToString();
    std::remove(bad_path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Crash recovery through the CLI
// ---------------------------------------------------------------------------

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST_F(CliEndToEnd, IcrhKillAndResumeWritesIdenticalOutput) {
  const std::string ckpt_dir = testing::TempDir() + "/cli_ckpt_kill_resume";
  std::filesystem::remove_all(ckpt_dir);
  FailPoints::Instance().ClearAll();

  CliOptions options;
  options.schema_spec = schema_spec_;
  options.input_path = obs_path_;
  options.output_path = out_path_;
  options.algorithm = "icrh";

  // Uninterrupted run, no checkpointing: the reference fused output.
  std::ostringstream baseline_out;
  ASSERT_TRUE(RunCli(options, baseline_out).ok()) << baseline_out.str();
  const std::string baseline_csv = ReadWholeFile(out_path_);

  // Crash after two of the five chunks.
  options.checkpoint_dir = ckpt_dir;
  FailPoints::Instance().FailOnHit("stream.process_chunk", 3);
  std::ostringstream crashed_out;
  EXPECT_FALSE(RunCli(options, crashed_out).ok());
  FailPoints::Instance().ClearAll();

  // Resume: same fused CSV, byte for byte, plus the resume note.
  std::remove(out_path_.c_str());
  options.resume = true;
  std::ostringstream resumed_out;
  ASSERT_TRUE(RunCli(options, resumed_out).ok()) << resumed_out.str();
  EXPECT_EQ(ReadWholeFile(out_path_), baseline_csv);
  EXPECT_NE(resumed_out.str().find("resumed from checkpoint: 2 chunk(s) restored"),
            std::string::npos)
      << resumed_out.str();
  EXPECT_NE(resumed_out.str().find("checkpoint(s) to " + ckpt_dir), std::string::npos);
  std::filesystem::remove_all(ckpt_dir);
}

TEST_F(CliEndToEnd, IcrhQuarantineReportsCounts) {
  // The strict CSV reader already rejects non-finite numbers and interns
  // every label, so a CSV-fed stream is clean: the note must report zero.
  CliOptions options;
  options.schema_spec = schema_spec_;
  options.input_path = obs_path_;
  options.algorithm = "icrh";
  options.quarantine = true;
  std::ostringstream out;
  ASSERT_TRUE(RunCli(options, out).ok()) << out.str();
  EXPECT_NE(out.str().find("quarantined 0 malformed claim(s)"), std::string::npos)
      << out.str();
}

TEST_F(CliEndToEnd, CsvRetryAbsorbsTransientReadFailure) {
  // The claims CSV load is wrapped in RetryWithBackoff: one transient
  // open failure must not fail the run.
  FailPoints::Instance().ClearAll();
  FailPoints::Instance().FailNext("csv.open_read", 1);
  CliOptions options;
  options.schema_spec = schema_spec_;
  options.input_path = obs_path_;
  std::ostringstream out;
  EXPECT_TRUE(RunCli(options, out).ok()) << out.str();
  FailPoints::Instance().ClearAll();
}

}  // namespace
}  // namespace crh::cli
