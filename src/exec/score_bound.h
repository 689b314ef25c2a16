#ifndef TIX_EXEC_SCORE_BOUND_H_
#define TIX_EXEC_SCORE_BOUND_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "algebra/scoring.h"
#include "exec/occurrence_stream.h"
#include "index/inverted_index.h"

/// \file
/// Score upper bounds for top-K threshold pushdown (Block-Max-WAND
/// adapted to ancestor scoring). In the TermJoin merge every occurrence
/// in a document accumulates into each of its ancestors, so the count
/// vector of *any* element of document d is dominated component-wise by
/// d's total per-phrase counts. For a monotone simple scorer this makes
/// Score(per-doc counts) a safe upper bound on every element score the
/// document can produce — the quantity the merge compares against the
/// running top-K floor to skip documents, and whole skip-block windows,
/// without decoding their postings.

namespace tix::exec {

/// Monotonically increasing score floor shared by the partitions of a
/// parallel top-K TermJoin. Any partition's local heap floor is globally
/// valid (k elements scoring >= f anywhere already exclude anything
/// scoring < f from the global top-K), so partitions publish their local
/// floors and prune against the max. Relaxed atomics suffice: a stale
/// read only makes pruning conservative, never wrong.
class TopKFloor {
 public:
  double Load() const { return floor_.load(std::memory_order_relaxed); }

  /// Raises the floor to `value` if higher; returns true when this call
  /// actually raised it.
  bool Raise(double value) {
    double current = floor_.load(std::memory_order_relaxed);
    while (value > current) {
      if (floor_.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

 private:
  std::atomic<double> floor_{-std::numeric_limits<double>::infinity()};
};

/// Count upper bounds for the phrases of one IR predicate, answered from
/// the posting lists' metadata (doc offsets and block-max bounds). A
/// multi-term phrase is bounded by the scarcest of its member terms
/// (every phrase match consumes one posting of each term). Missing terms
/// bound the phrase at zero; lists without metadata degrade to
/// "unknown" (UINT32_MAX) over one-document windows, so hand-built
/// lists stay correct and simply never prune.
class ScoreBoundOracle {
 public:
  /// `phrase_lists` as LookupPhraseLists returns them.
  explicit ScoreBoundOracle(PhraseLists phrase_lists)
      : phrase_lists_(std::move(phrase_lists)) {}

  size_t num_phrases() const { return phrase_lists_.size(); }

  /// Exact per-phrase total counts for one document (the tightest bound
  /// available). O(terms * log n).
  void DocBoundCounts(storage::DocId doc, std::vector<uint32_t>* counts) const;

  /// Per-phrase count upper bounds valid for *every* document in
  /// [`from`, *window_end), where the window is the intersection of the
  /// current skip blocks of all involved lists. *window_end > from
  /// always, UINT32_MAX when every list is in its last block (or done).
  void WindowBoundCounts(storage::DocId from, std::vector<uint32_t>* counts,
                         storage::DocId* window_end) const;

  /// Smallest doc id >= `from` holding a posting of any involved term —
  /// a superset of the documents the merge would visit, so leaping to it
  /// never skips a candidate. UINT32_MAX when all lists are exhausted.
  storage::DocId NextCandidateDoc(storage::DocId from) const;

 private:
  /// phrase_lists_[p] holds one entry per term of phrase p; nullptr
  /// marks a term absent from the index.
  PhraseLists phrase_lists_;
};

}  // namespace tix::exec

#endif  // TIX_EXEC_SCORE_BOUND_H_
