/// \file truth_mode_test.cc
/// The two truth modes of the streaming drivers (TruthMode,
/// stream/incremental_crh.h).
///
/// The invariant under test: for ANY chunk-arrival order and ANY thread
/// count, kConsistent's final truth table is bit-identical to an
/// independent reference — one ComputeTruthsGivenWeights pass over
/// ClaimIndex::Build of every claim, at the stream's final weights — and
/// source weights, accumulators and history are byte-identical between the
/// two modes (the truth mode never perturbs the weight path).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/claim_index.h"
#include "datagen/noise.h"
#include "stream/checkpoint.h"
#include "stream/chunks.h"
#include "stream/incremental_crh.h"
#include "stream/stream_engine.h"

namespace crh {
namespace {

bool BitIdentical(const Value& a, const Value& b) {
  if (a.is_continuous() != b.is_continuous() || a.is_categorical() != b.is_categorical()) {
    return false;
  }
  if (a.is_continuous()) {
    const double da = a.continuous();
    const double db = b.continuous();
    uint64_t bits_a = 0;
    uint64_t bits_b = 0;
    std::memcpy(&bits_a, &da, sizeof(bits_a));
    std::memcpy(&bits_b, &db, sizeof(bits_b));
    return bits_a == bits_b;
  }
  if (a.is_categorical()) return a.category() == b.category();
  return true;
}

void ExpectTablesBitIdentical(const ValueTable& want, const ValueTable& got,
                              const std::string& label) {
  ASSERT_EQ(want.num_objects(), got.num_objects()) << label;
  ASSERT_EQ(want.num_properties(), got.num_properties()) << label;
  for (size_t i = 0; i < want.num_objects(); ++i) {
    for (size_t m = 0; m < want.num_properties(); ++m) {
      EXPECT_TRUE(BitIdentical(want.Get(i, m), got.Get(i, m)))
          << label << ": entry (" << i << ", " << m << ")";
    }
  }
}

/// A sparse multi-source stream whose chunk-arrival order follows \p perm:
/// object i lands in the time window perm[i % perm.size()], so different
/// permutations deliver the same object partition in a different order.
/// Every claim on x of each object i with i % 7 == 3 reads -0.0, so the
/// truth tables carry negative zeros whose sign a bitwise compare sees.
Dataset MakeStream(size_t num_objects, const std::vector<int64_t>& perm, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddContinuous("x", 0.0).ok());
  EXPECT_TRUE(schema.AddCategorical("y").ok());
  std::vector<std::string> objects;
  for (size_t i = 0; i < num_objects; ++i) objects.push_back("o" + std::to_string(i));
  Dataset truth_data(std::move(schema), std::move(objects), {});
  for (const char* label : {"a", "b", "c"}) truth_data.mutable_dict(1).GetOrAdd(label);
  Rng rng(seed);
  ValueTable truth(num_objects, 2);
  for (size_t i = 0; i < num_objects; ++i) {
    truth.Set(i, 0, Value::Continuous(std::round(rng.Uniform(0, 40))));
    truth.Set(i, 1, Value::Categorical(static_cast<CategoryId>(rng.UniformInt(0, 2))));
  }
  truth_data.set_ground_truth(std::move(truth));
  NoiseOptions noise;
  noise.gammas = {0.1, 0.5, 0.9, 1.4, 1.9, 0.3};
  noise.missing_rate = 0.45;
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(truth_data, noise);
  EXPECT_TRUE(noisy.ok());
  Dataset data = std::move(noisy).ValueOrDie();
  for (size_t k = 0; k < data.num_sources(); ++k) {
    for (size_t i = 3; i < num_objects; i += 7) {
      if (!data.observations(k).Get(i, 0).is_missing()) {
        data.SetObservation(k, i, 0, Value::Continuous(-0.0));
      }
    }
  }
  std::vector<int64_t> timestamps(num_objects);
  for (size_t i = 0; i < num_objects; ++i) timestamps[i] = perm[i % perm.size()];
  EXPECT_TRUE(data.set_timestamps(std::move(timestamps)).ok());
  return data;
}

Result<IncrementalCrhResult> RunWithMode(const Dataset& data, TruthMode mode, int threads) {
  IncrementalCrhOptions options;
  options.window_size = 1;
  options.truth_mode = mode;
  options.base.num_threads = threads;
  return RunIncrementalCrhResilient(data, options, StreamResilienceOptions{});
}

/// The independent reference: Eq 3 over a fresh index of every claim of
/// \p data at \p weights, with the default solver options.
ValueTable OneFullPass(const Dataset& data, const std::vector<double>& weights) {
  return ComputeTruthsGivenWeights(data, ClaimIndex::Build(data), weights, CrhOptions{});
}

TEST(TruthModeTest, ConsistentEqualsOneFullPassAcrossChunkOrdersAndThreads) {
  const std::vector<std::vector<int64_t>> orders = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}};
  for (const auto& perm : orders) {
    const Dataset data = MakeStream(48, perm, 29);
    auto patchwork = RunWithMode(data, TruthMode::kPatchwork, 1);
    ASSERT_TRUE(patchwork.ok());
    for (const int threads : {1, 4}) {
      const std::string label = "consistent@" + std::to_string(threads);
      auto consistent = RunWithMode(data, TruthMode::kConsistent, threads);
      ASSERT_TRUE(consistent.ok()) << label << ": " << consistent.status().message();
      const ValueTable reference = OneFullPass(data, consistent->source_weights);
      ExpectTablesBitIdentical(reference, consistent->truths, label);
      bool negative_zero = false;
      for (size_t i = 0; i < reference.num_objects(); ++i) {
        const Value& v = reference.Get(i, 0);
        negative_zero |=
            v.is_continuous() && v.continuous() == 0.0 && std::signbit(v.continuous());
      }
      EXPECT_TRUE(negative_zero) << label << ": the stream must exercise -0.0 truths";

      // The weight path is shared with patchwork mode: byte-identical even
      // though patchwork's truth table means something else.
      EXPECT_EQ(patchwork->source_weights, consistent->source_weights) << label;
      EXPECT_EQ(patchwork->accumulated_deviations, consistent->accumulated_deviations)
          << label;
      EXPECT_EQ(patchwork->weight_history, consistent->weight_history) << label;
    }
  }
}

TEST(TruthModeTest, ResumeRebuildsTheCumulativeIndex) {
  // Chunks c0, c1, then c0 again with every value revised, checkpointed
  // after each. A resumed engine replays the same three chunks into its
  // claim index without re-solving and must land on byte-identical state;
  // the next chunk then solves over the rebuilt index, so a replay that
  // indexed the claims differently would show in its truths.
  const Dataset data = MakeStream(32, {0, 1, 2}, 31);
  auto split = SplitByWindow(data, 1);
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split->size(), 3u);
  DataChunk revised = (*split)[0];
  Dataset latest = data;
  for (size_t k = 0; k < revised.data.num_sources(); ++k) {
    for (size_t i = 0; i < revised.data.num_objects(); ++i) {
      const Value x = revised.data.observations(k).Get(i, 0);
      if (!x.is_missing()) {
        const Value next = Value::Continuous(x.continuous() + 1.5);
        revised.data.SetObservation(k, i, 0, next);
        latest.SetObservation(k, revised.parent_object[i], 0, next);
      }
      const Value y = revised.data.observations(k).Get(i, 1);
      if (!y.is_missing()) {
        const Value next = Value::Categorical(static_cast<CategoryId>((y.category() + 1) % 3));
        revised.data.SetObservation(k, i, 1, next);
        latest.SetObservation(k, revised.parent_object[i], 1, next);
      }
    }
  }
  const std::vector<const DataChunk*> stream = {&(*split)[0], &(*split)[1], &revised};
  const DataChunk& next_chunk = (*split)[2];

  const std::string dir = testing::TempDir() + "crh_truth_mode_resume";
  std::filesystem::remove_all(dir);
  IncrementalCrhOptions options;
  options.window_size = 1;
  options.truth_mode = TruthMode::kConsistent;
  StreamResilienceOptions resilience;
  resilience.checkpoint_dir = dir;
  resilience.checkpoint_every = 1;

  ValueTable truths_before;
  std::vector<double> weights_before;
  {
    auto first = StreamEngine::Open(data, options, resilience);
    ASSERT_TRUE(first.ok());
    for (const DataChunk* chunk : stream) {
      ASSERT_TRUE((*first)->ApplyChunk(*chunk, /*force_checkpoint=*/false).ok());
    }
    EXPECT_EQ((*first)->checkpoints_written(), 3u);
    truths_before = (*first)->truths();
    weights_before = (*first)->source_weights();
  }

  resilience.resume = true;
  auto resumed = StreamEngine::Open(data, options, resilience);
  ASSERT_TRUE(resumed.ok());
  ASSERT_EQ((*resumed)->chunks_resumed(), 3u);
  for (const DataChunk* chunk : stream) {
    ASSERT_TRUE((*resumed)->ApplyChunk(*chunk, /*force_checkpoint=*/false).ok());
  }
  ExpectTablesBitIdentical(truths_before, (*resumed)->truths(), "after replay");
  EXPECT_EQ(weights_before, (*resumed)->source_weights());

  auto uninterrupted = StreamEngine::Open(data, options, StreamResilienceOptions{});
  ASSERT_TRUE(uninterrupted.ok());
  for (const DataChunk* chunk : stream) {
    ASSERT_TRUE((*uninterrupted)->ApplyChunk(*chunk, /*force_checkpoint=*/false).ok());
  }
  ASSERT_TRUE((*uninterrupted)->ApplyChunk(next_chunk, /*force_checkpoint=*/false).ok());
  ASSERT_TRUE((*resumed)->ApplyChunk(next_chunk, /*force_checkpoint=*/false).ok());
  ExpectTablesBitIdentical((*uninterrupted)->truths(), (*resumed)->truths(), "next chunk");
  EXPECT_EQ((*uninterrupted)->source_weights(), (*resumed)->source_weights());
  // The revised claims replaced c0's: the truths are one pass over the
  // latest claims.
  ExpectTablesBitIdentical(OneFullPass(latest, (*resumed)->source_weights()),
                           (*resumed)->truths(), "latest claims");
  std::filesystem::remove_all(dir);
}

TEST(TruthModeTest, SupervisionIsRejectedInConsistentMode) {
  const Dataset data = MakeStream(16, {0, 1}, 37);
  ValueTable clamp(data.num_objects(), data.num_properties());
  IncrementalCrhOptions options;
  options.window_size = 1;
  options.truth_mode = TruthMode::kConsistent;
  options.base.supervision = &clamp;
  auto result = RunIncrementalCrhResilient(data, options, StreamResilienceOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace crh
