#ifndef CRH_DATA_CLAIM_INDEX_H_
#define CRH_DATA_CLAIM_INDEX_H_

/// \file claim_index.h
/// Claim-major inverted index over a multi-source dataset.
///
/// The complexity claim of the paper (Section 2.5) is that one CRH
/// iteration is linear in the number of *observed* claims, yet the Dataset
/// container stores K dense N x M tables — so any per-entry computation
/// that walks the tables scans all K sources even when most cells are
/// missing. The ClaimIndex is the sparse view that restores the paper's
/// bound: a CSR-style index that stores, per (object, property) entry, the
/// compact list of (source, value) claims.
///
/// Layout (classic compressed-sparse-row over entry id e = i * M + m),
/// structure-of-arrays so the solver kernels stream each lane they need:
///
///   offsets_[e] .. offsets_[e+1]   the claim range of entry e
///   sources_[c]                    claiming source of claim c (ascending
///                                  per entry, so iteration order matches
///                                  a dense K-scan exactly)
///   numeric_[c]                    the claim as a double (continuous
///                                  claims only; NaN otherwise)
///   labels_[c]                     the claim as a CategoryId (categorical
///                                  and text claims; kInvalidCategory
///                                  otherwise)
///
/// Each claim is stored once, unboxed: the truth and deviation kernels read
/// one contiguous double (or int32) array per entry instead of gathering
/// through the 16-byte tagged Value, which keeps their inner loops
/// branchless and auto-vectorizable (see docs/PERFORMANCE.md,
/// "Structure-of-arrays claim lanes"). A property's type says which lane
/// holds its claims.
///
/// Build cost is two dense passes (one count, one fill) — paid once per
/// solver run instead of once per entry per iteration. All accessors are
/// const, so concurrent readers need no synchronization. The index is a
/// snapshot: observations recorded on the Dataset after Build are not
/// reflected. For streaming callers, CreateEmpty + Append grow one
/// cumulative index chunk by chunk instead of rebuilding from scratch
/// (amortized span extension; see Append).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/value.h"
#include "data/dataset.h"

namespace crh {

/// Borrowed view of one entry's claims; valid while the index lives and
/// until the next Append. `numeric` holds continuous claims and `labels`
/// categorical and text claims (see file comment).
struct ClaimSpan {
  const uint32_t* sources = nullptr;
  const double* numeric = nullptr;
  const CategoryId* labels = nullptr;
  size_t size = 0;

  bool empty() const { return size == 0; }
};

/// Claim-major index over one Dataset (or a stream of chunks sharing one
/// entry grid). Cheap to move. Immutable through the const accessors;
/// Append is the only mutator and invalidates outstanding ClaimSpans.
class ClaimIndex {
 public:
  ClaimIndex() = default;

  /// Builds the index from the dataset's observation tables.
  static ClaimIndex Build(const Dataset& data);

  /// An empty index over a fixed N x M entry grid, ready for Append. The
  /// streaming (I-CRH) drivers use this to accumulate chunk claims in the
  /// parent dataset's entry space.
  static ClaimIndex CreateEmpty(size_t num_objects, size_t num_properties);

  /// Appends every claim of \p chunk, mapping chunk object i to parent
  /// object parent_object[i] (stream/chunks.h invariant: the chunk shares
  /// the parent's schema, sources and dictionaries; no two chunk objects
  /// map to one parent object). Existing entry spans are extended in place
  /// with the merged-by-source order a full rebuild would produce. A claim
  /// on an (entry, source) pair the index already holds replaces the
  /// earlier claim: the latest claim wins, read as the source revising its
  /// report. So an appended index is claim-for-claim identical to Build
  /// over the dataset that holds each source's latest claim on each entry
  /// (asserted in claim_index_test.cc), and it never holds more than
  /// K * N * M claims however long the stream runs.
  ///
  /// Cost: O(num_entries + claims_so_far + chunk claims) moves per call —
  /// the CSR offset table is rebuilt and shifted spans slide right — with
  /// geometric array growth when the arrays are full, versus the
  /// O(K * N * M) dense rescan of a full rebuild.
  void Append(const Dataset& chunk, const std::vector<size_t>& parent_object);

  size_t num_objects() const { return num_objects_; }
  size_t num_properties() const { return num_properties_; }
  /// Number of (object, property) entries (N * M).
  size_t num_entries() const { return num_objects_ * num_properties_; }
  /// Total non-missing claims across all sources and entries.
  size_t num_claims() const { return sources_.size(); }
  /// Claims the lanes can hold before Append must grow them.
  size_t claim_capacity() const { return sources_.capacity(); }
  /// Largest claim count any entry has (0 for an empty index). Maintained
  /// incrementally so scratch sizing is O(1), not an index scan.
  size_t max_span_size() const { return max_span_size_; }

  /// The claims on entry id e = i * num_properties + m.
  ClaimSpan entry(size_t e) const {
    CRH_DCHECK_LT(e + 1, offsets_.size());
    const size_t begin = offsets_[e];
    return {sources_.data() + begin, numeric_.data() + begin, labels_.data() + begin,
            offsets_[e + 1] - begin};
  }

  /// The claims on entry (object i, property m).
  ClaimSpan entry(size_t i, size_t m) const {
    CRH_DCHECK_LT(i, num_objects_);
    CRH_DCHECK_LT(m, num_properties_);
    return entry(i * num_properties_ + m);
  }

 private:
  size_t num_objects_ = 0;
  size_t num_properties_ = 0;
  size_t max_span_size_ = 0;
  std::vector<size_t> offsets_;     // num_entries() + 1
  std::vector<uint32_t> sources_;   // ascending within each entry
  std::vector<double> numeric_;     // unboxed continuous lane (NaN elsewhere)
  std::vector<CategoryId> labels_;  // unboxed label lane (kInvalidCategory elsewhere)
};

}  // namespace crh

#endif  // CRH_DATA_CLAIM_INDEX_H_
