#include "losses/text_distance.h"

#include <algorithm>

#include "common/check.h"

namespace crh {

CRH_HOT size_t LevenshteinDistanceSpan(const std::string& a, const std::string& b,
                                       EditDistanceScratch& scratch) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  // Two-row dynamic program, O(|a| * |b|) time; the shorter string goes in
  // the inner dimension so the rows are O(min(|a|, |b|)).
  const std::string& outer = a.size() >= b.size() ? a : b;
  const std::string& inner = a.size() >= b.size() ? b : a;
  CRH_DCHECK_GE(scratch.capacity, inner.size() + 1);
  size_t* prev = scratch.prev;
  size_t* curr = scratch.curr;
  for (size_t j = 0; j <= inner.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= outer.size(); ++i) {
    curr[0] = i;
    for (size_t j = 1; j <= inner.size(); ++j) {
      const size_t substitute = prev[j - 1] + (outer[i - 1] == inner[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, substitute});
    }
    std::swap(prev, curr);
  }
  return prev[inner.size()];
}

CRH_HOT double NormalizedEditDistanceSpan(const std::string& a, const std::string& b,
                                          EditDistanceScratch& scratch) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 0.0;
  return static_cast<double>(LevenshteinDistanceSpan(a, b, scratch)) /
         static_cast<double>(longest);
}

}  // namespace crh
