/// \file bench_extensions.cc
/// Benchmarks for the framework extensions beyond the paper's evaluation
/// (each motivated by the paper itself — see DESIGN.md, "Extensions"):
///
///  1. CATD confidence weighting on long-tail data (paper reference [23]);
///  2. dependence-aware CRH under copier amplification (the paper's stated
///     future work, Dong et al. 2009);
///  3. fine-grained per-type weights when source-weight consistency is
///     violated (Section 2.5);
///  4. text properties with edit-distance losses (Section 2.4).

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/rng.h"
#include "core/catd.h"
#include "core/dependence.h"
#include "datagen/noise.h"
#include "losses/text_distance.h"

using namespace crh;
using namespace crh::bench;

namespace {

void ReportRow(const char* label, const Dataset& data, const ValueTable& truths) {
  auto eval = Evaluate(data, truths);
  if (!eval.ok()) return;
  std::printf("  %-38s err=%.4f  mnad=%s\n", label, eval->error_rate,
              eval->continuous_evaluated > 0
                  ? (std::to_string(eval->mnad).substr(0, 6)).c_str()
                  : "NA");
}

/// Long-tail: 2 head sources claim everything; 280 tail sources claim only
/// ~8 entries each (the long-tail regime of the CATD paper). By chance a
/// few tails are perfect on their handful of claims; point-estimate
/// weights over-trust them, confidence intervals do not.
Dataset MakeLongTail(uint64_t seed) {
  Schema schema;
  (void)schema.AddCategorical("y");
  const size_t n = 1500;
  const int num_tails = 280;
  std::vector<std::string> objects;
  for (size_t i = 0; i < n; ++i) objects.push_back("o" + std::to_string(i));
  std::vector<std::string> sources = {"head_good", "head_ok"};
  for (int t = 0; t < num_tails; ++t) sources.push_back("tail_" + std::to_string(t));
  Dataset data(schema, objects, sources);
  for (const char* l : {"a", "b", "c", "d"}) data.mutable_dict(0).GetOrAdd(l);
  Rng rng(seed);
  ValueTable truth(n, 1);
  const auto claim = [&](double acc, CategoryId t) {
    if (rng.Bernoulli(acc)) return Value::Categorical(t);
    CategoryId alt = static_cast<CategoryId>(rng.UniformInt(0, 2));
    if (alt >= t) ++alt;
    return Value::Categorical(alt);
  };
  for (size_t i = 0; i < n; ++i) {
    const CategoryId t = static_cast<CategoryId>(rng.UniformInt(0, 3));
    truth.Set(i, 0, Value::Categorical(t));
    data.SetObservation(0, i, 0, claim(0.9, t));
    data.SetObservation(1, i, 0, claim(0.62, t));
  }
  for (int t = 0; t < num_tails; ++t) {
    const double acc = rng.Uniform(0.35, 0.75);
    for (int c = 0; c < 8; ++c) {
      const size_t i = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      data.SetObservation(2 + static_cast<size_t>(t), i, 0,
                          claim(acc, truth.Get(i, 0).category()));
    }
  }
  data.set_ground_truth(std::move(truth));
  return data;
}

}  // namespace

int main() {
  const uint64_t seed = static_cast<uint64_t>(EnvInt("CRH_SEED", 7));

  std::printf("=== Extension benchmarks ===\n");

  {
    std::printf("\n-- 1. long-tail sources: CRH vs CATD --\n");
    Dataset data = MakeLongTail(seed);
    auto crh = RunCrh(data);
    CrhOptions uncapped;
    uncapped.weight_scheme.epsilon_ratio = 1e-8;  // the paper's raw -log weights
    auto crh_uncapped = RunCrh(data, uncapped);
    auto catd = RunCatd(data);
    if (crh_uncapped.ok()) {
      ReportRow("CRH, uncapped weights (paper)", data, crh_uncapped->truths);
    }
    if (crh.ok()) ReportRow("CRH, capped weights (this library)", data, crh->truths);
    if (catd.ok()) ReportRow("CATD (chi-squared confidence)", data, catd->truths);
    std::printf("  (a lucky 8-claim tail source gets the same weight as a 1500-claim\n"
                "   head under point estimates; the chi-squared numerator prevents it)\n");
  }

  {
    std::printf("\n-- 2. copier amplification: CRH vs dependence-aware CRH --\n");
    // 4 honest sources, 1 mediocre original, 2 verbatim copiers.
    Schema schema;
    (void)schema.AddCategorical("y");
    const size_t n = 2000;
    std::vector<std::string> objects;
    for (size_t i = 0; i < n; ++i) objects.push_back("o" + std::to_string(i));
    Dataset data(schema, objects,
                 {"good0", "good1", "good2", "good3", "original", "copier0", "copier1"});
    for (const char* l : {"a", "b", "c", "d", "e", "f"}) data.mutable_dict(0).GetOrAdd(l);
    Rng rng(seed + 1);
    ValueTable truth(n, 1);
    const auto noisy_claim = [&](double acc, CategoryId t) {
      if (rng.Bernoulli(acc)) return t;
      CategoryId alt = static_cast<CategoryId>(rng.UniformInt(0, 4));
      if (alt >= t) ++alt;
      return alt;
    };
    for (size_t i = 0; i < n; ++i) {
      const CategoryId t = static_cast<CategoryId>(rng.UniformInt(0, 5));
      truth.Set(i, 0, Value::Categorical(t));
      for (size_t g = 0; g < 4; ++g) {
        data.SetObservation(g, i, 0, Value::Categorical(noisy_claim(0.85, t)));
      }
      const CategoryId original = noisy_claim(0.55, t);
      data.SetObservation(4, i, 0, Value::Categorical(original));
      for (size_t cidx = 0; cidx < 2; ++cidx) {
        data.SetObservation(5 + cidx, i, 0,
                            Value::Categorical(rng.Bernoulli(0.95) ? original
                                                                   : noisy_claim(0.55, t)));
      }
    }
    data.set_ground_truth(std::move(truth));
    CrhOptions options;
    options.weight_scheme.kind = WeightSchemeKind::kLogSum;
    auto plain = RunCrh(data, options);
    auto aware = RunDependenceAwareCrh(data, options);
    if (plain.ok()) ReportRow("CRH (copies count as confirmation)", data, plain->truths);
    if (aware.ok()) {
      ReportRow("dependence-aware CRH", data, aware->truths);
      std::printf("  detected copier discounts:");
      for (size_t k = 0; k < data.num_sources(); ++k) {
        std::printf(" %.2f", aware->dependence.independence[k]);
      }
      std::printf("\n");
    }
  }

  {
    std::printf("\n-- 3. weight-consistency violation: global vs per-type weights --\n");
    Schema schema;
    (void)schema.AddContinuous("x");
    (void)schema.AddCategorical("y");
    const size_t n = 2000;
    std::vector<std::string> objects;
    for (size_t i = 0; i < n; ++i) objects.push_back("o" + std::to_string(i));
    Dataset data(schema, objects, {"split", "med1", "med2", "med3"});
    for (const char* l : {"a", "b", "c", "d"}) data.mutable_dict(1).GetOrAdd(l);
    Rng rng(seed + 2);
    ValueTable truth(n, 2);
    const auto cat_claim = [&](double acc, CategoryId t) {
      if (rng.Bernoulli(acc)) return t;
      CategoryId alt = static_cast<CategoryId>(rng.UniformInt(0, 2));
      if (alt >= t) ++alt;
      return alt;
    };
    for (size_t i = 0; i < n; ++i) {
      const double x = std::round(rng.Uniform(0, 100));
      const CategoryId y = static_cast<CategoryId>(rng.UniformInt(0, 3));
      truth.Set(i, 0, Value::Continuous(x));
      truth.Set(i, 1, Value::Categorical(y));
      data.SetObservation(0, i, 0, Value::Continuous(x + rng.Gaussian(0, 0.5)));
      data.SetObservation(0, i, 1, Value::Categorical(cat_claim(0.15, y)));
      for (size_t k = 1; k < 4; ++k) {
        data.SetObservation(k, i, 0, Value::Continuous(x + rng.Gaussian(0, 6.0)));
        data.SetObservation(k, i, 1, Value::Categorical(cat_claim(0.65, y)));
      }
    }
    data.set_ground_truth(std::move(truth));
    CrhOptions global;
    global.weight_scheme.kind = WeightSchemeKind::kLogSum;
    CrhOptions per_type = global;
    per_type.weight_granularity = WeightGranularity::kPerType;
    auto a = RunCrh(data, global);
    auto b = RunCrh(data, per_type);
    if (a.ok()) ReportRow("global weights (paper assumption)", data, a->truths);
    if (b.ok()) ReportRow("per-type weights (Section 2.5)", data, b->truths);
  }

  {
    std::printf("\n-- 4. text properties: edit-distance loss vs 0-1 treatment --\n");
    // Four sources with the SAME exact-match accuracy but different typo
    // severity: two make single-character slips, two mangle the string.
    // The 0-1 treatment cannot tell them apart; the edit-distance loss can,
    // and the medoid prefers near-miss claims when nobody is exact.
    const size_t n = 2000;
    Rng rng(seed + 3);
    const std::vector<std::string> stems = {"north bakery", "grand hotel", "river diner",
                                            "central pharmacy", "harbor cafe"};
    std::vector<std::string> names(n);
    for (size_t i = 0; i < n; ++i) {
      names[i] = stems[static_cast<size_t>(rng.UniformInt(0, 4))] + " " +
                 std::to_string(rng.UniformInt(1, 99));
    }
    const auto corrupt = [&](std::string label, int edits) {
      for (int e = 0; e < edits && !label.empty(); ++e) {
        const size_t pos =
            static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(label.size()) - 1));
        label[pos] = static_cast<char>('a' + rng.UniformInt(0, 25));
      }
      return label;
    };
    const int severity[4] = {1, 1, 5, 7};
    const auto build = [&](bool as_text, uint64_t claim_seed) {
      Schema schema;
      if (as_text) {
        (void)schema.AddText("name");
      } else {
        (void)schema.AddCategorical("name");
      }
      std::vector<std::string> objects;
      for (size_t i = 0; i < n; ++i) objects.push_back("o" + std::to_string(i));
      Dataset data(schema, objects, {"light1", "light2", "heavy1", "heavy2"});
      ValueTable truth(n, 1);
      Rng claims(claim_seed);
      rng = Rng(claim_seed + 17);  // corrupt() positions
      for (size_t i = 0; i < n; ++i) {
        truth.Set(i, 0, data.InternCategorical(0, names[i]));
        for (size_t k = 0; k < 4; ++k) {
          std::string label = names[i];
          if (claims.Bernoulli(0.5)) label = corrupt(label, severity[k]);
          data.SetObservation(k, i, 0, data.InternCategorical(0, label));
        }
      }
      data.set_ground_truth(std::move(truth));
      return data;
    };
    Dataset text_data = build(true, seed + 40);
    Dataset cat_data = build(false, seed + 40);
    CrhOptions options;
    options.weight_scheme.kind = WeightSchemeKind::kLogSum;  // no collapse
    auto text_result = RunCrh(text_data, options);
    auto cat_result = RunCrh(cat_data, options);
    // Exact-match error undersells the text loss (a one-character miss
    // counts as fully wrong), so also report how *close* the fused names
    // are to the truth.
    const auto mean_edit = [&](const Dataset& data, const ValueTable& truths) {
      double total = 0;
      size_t count = 0;
      EditDistanceScratch edit;
      for (size_t i = 0; i < n; ++i) {
        const Value& est = truths.Get(i, 0);
        if (est.is_missing()) continue;
        const std::string& fused = data.dict(0).label(est.category());
        edit.Reserve(std::max(fused.size(), names[i].size()));
        total += NormalizedEditDistanceSpan(fused, names[i], edit);
        ++count;
      }
      return total / static_cast<double>(count);
    };
    if (text_result.ok()) {
      ReportRow("kText + normalized edit distance", text_data, text_result->truths);
      std::printf("    mean edit distance of fused names: %.4f\n",
                  mean_edit(text_data, text_result->truths));
    }
    if (cat_result.ok()) {
      ReportRow("kCategorical + 0-1 loss", cat_data, cat_result->truths);
      std::printf("    mean edit distance of fused names: %.4f\n",
                  mean_edit(cat_data, cat_result->truths));
    }
  }
  return 0;
}
