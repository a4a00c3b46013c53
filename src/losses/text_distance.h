#ifndef CRH_LOSSES_TEXT_DISTANCE_H_
#define CRH_LOSSES_TEXT_DISTANCE_H_

/// \file text_distance.h
/// Edit-distance losses for text properties.
///
/// Section 2.4 of the paper notes that the framework "can take any loss
/// function that is selected based on data types and distributions", naming
/// edit distance for text data. A text property stores interned strings;
/// its loss is the Levenshtein distance normalized by the longer string's
/// length, so values lie in [0, 1] like the 0-1 loss. The induced truth
/// update (Eq 3) is the weighted medoid: the claimed string minimizing the
/// weighted total edit distance to all claims (see losses/resolvers.h).

#include <cstddef>
#include <string>

#include "common/arena.h"
#include "common/hot.h"

namespace crh {

/// Caller-owned rows for the two-row Levenshtein dynamic program, carved
/// out of a bump arena (common/arena.h). Size once (outside any hot loop)
/// to the longest label that can appear, then reuse across claims: the
/// distances below never allocate. Standalone callers Reserve();
/// the solver CarveFrom()s its shared workspace arena.
struct EditDistanceScratch {
  /// Standalone sizing for strings up to \p max_len characters. Cold path.
  void Reserve(size_t max_len) {
    owned_.Reserve(BytesNeeded(max_len));
    CarveFrom(owned_, max_len);
  }

  /// Carves the rows from \p arena (needs BytesNeeded(max_len) headroom
  /// reserved). Cold path; invalidated by the arena's next Reserve/Reset.
  void CarveFrom(Arena& arena, size_t max_len) {
    prev = arena.Carve<size_t>(max_len + 1);
    curr = arena.Carve<size_t>(max_len + 1);
    capacity = max_len + 1;
  }

  /// Worst-case arena bytes CarveFrom(_, max_len) consumes.
  static constexpr size_t BytesNeeded(size_t max_len) {
    return 2 * Arena::BytesFor<size_t>(max_len + 1);
  }

  size_t* prev = nullptr;
  size_t* curr = nullptr;
  size_t capacity = 0;  // row length (longest string + 1)

 private:
  Arena owned_;  // backs the rows only in Reserve() mode
};

/// Levenshtein (unit-cost insert/delete/substitute) distance over
/// caller-owned scratch rows; allocation-free. Precondition (checked):
/// \p scratch was Reserve()d to at least min(|a|, |b|).
CRH_HOT size_t LevenshteinDistanceSpan(const std::string& a, const std::string& b,
                                       EditDistanceScratch& scratch);

/// LevenshteinDistanceSpan normalized by the longer string's length: the
/// text loss. 0 for equal strings, 1 for completely disjoint ones; two
/// empty strings have distance 0.
CRH_HOT double NormalizedEditDistanceSpan(const std::string& a, const std::string& b,
                                          EditDistanceScratch& scratch);

}  // namespace crh

#endif  // CRH_LOSSES_TEXT_DISTANCE_H_
