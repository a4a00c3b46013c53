#include "data/stats.h"

namespace crh {

EntryStats ComputeEntryStats(const Dataset& data) {
  const size_t n = data.num_objects();
  const size_t m_props = data.num_properties();
  const size_t k_sources = data.num_sources();

  EntryStats stats;
  stats.num_properties = m_props;
  stats.scale.assign(n * m_props, 1.0);
  stats.count.assign(n * m_props, 0);

  for (size_t i = 0; i < n; ++i) {
    for (size_t m = 0; m < m_props; ++m) {
      const size_t idx = i * m_props + m;
      int count = 0;
      double sum = 0.0, sum_sq = 0.0;
      const bool continuous = data.schema().is_continuous(m);
      for (size_t k = 0; k < k_sources; ++k) {
        const Value& v = data.observations(k).Get(i, m);
        if (v.is_missing()) continue;
        ++count;
        if (continuous) {
          sum += v.continuous();
          sum_sq += v.continuous() * v.continuous();
        }
      }
      stats.count[idx] = count;
      if (continuous) {
        // 0 marks "no dispersion available".
        stats.scale[idx] = ClaimDispersion(static_cast<size_t>(count), sum, sum_sq);
      }
    }
  }

  // Degenerate continuous entries — a single claim, or all sources in
  // perfect agreement — have no per-entry dispersion. Normalizing them by
  // 1.0 would let one raw-unit glitch (say, a lone fnlwgt claim off by 1e5)
  // dominate every aggregate, so fall back to the property's typical claim
  // dispersion; only when the whole property is degenerate use 1.0.
  for (size_t m = 0; m < m_props; ++m) {
    if (!data.schema().is_continuous(m)) continue;
    double total = 0.0;
    size_t valid = 0;
    for (size_t i = 0; i < n; ++i) {
      const double sd = stats.scale[i * m_props + m];
      if (sd > 1e-12) {
        total += sd;
        ++valid;
      }
    }
    const double fallback = valid > 0 ? total / static_cast<double>(valid) : 1.0;
    for (size_t i = 0; i < n; ++i) {
      double& sd = stats.scale[i * m_props + m];
      if (sd <= 1e-12) sd = fallback;
    }
  }
  return stats;
}

}  // namespace crh
