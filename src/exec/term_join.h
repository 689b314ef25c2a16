#ifndef TIX_EXEC_TERM_JOIN_H_
#define TIX_EXEC_TERM_JOIN_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "algebra/scoring.h"
#include "algebra/threshold.h"
#include "common/deadline.h"
#include "common/obs.h"
#include "common/result.h"
#include "exec/occurrence_stream.h"
#include "exec/score_bound.h"
#include "exec/scored_element.h"
#include "exec/threshold_operator.h"
#include "index/inverted_index.h"
#include "storage/database.h"

/// \file
/// The TermJoin access method (Fig. 11): one merge pass over per-phrase
/// occurrence streams, maintaining the stack of ancestors of the current
/// occurrence. When an element is popped, occurrence counts (and, for
/// complex scoring, the occurrence list and child statistics — the
/// paper's `if(!s)` bookkeeping) for its whole subtree are complete, so
/// it is scored and emitted. Every element containing at least one query
/// phrase in its subtree is emitted exactly once.
///
/// The *Enhanced* variant (Sec. 6.1) answers parent and child-count
/// questions from the database's in-memory parent index instead of
/// navigating stored records, eliminating all record fetches.

namespace tix::exec {

struct TermJoinOptions {
  /// Use the parent/child-count index instead of record navigation.
  bool enhanced = false;
  /// Restrict the merge to documents in [range.begin, range.end). The
  /// stack empties at every document boundary (Fig. 11), so a doc-range
  /// slice of the merge produces exactly the slice of the full output —
  /// the property doc-partitioned ParallelTermJoin builds on.
  DocRange range;
  /// Threshold pushdown: when set with `top_k` and the scorer is simple
  /// and monotone, the join runs in early-terminating top-K mode — it
  /// keeps the running top-K heap itself and uses block-max score
  /// bounds to skip documents (and whole skip-block windows) that
  /// cannot beat the heap floor. The emitted set is then exactly the
  /// elements ApplyThreshold would keep, in descending score order.
  /// Ignored (full output, unchanged order) when the scorer is complex
  /// or non-monotone, or when top_k is unset.
  std::optional<algebra::ThresholdSpec> threshold;
  /// Optional floor shared between the partitions of a parallel top-K
  /// join; must outlive the join. Only read/raised in pushdown mode.
  TopKFloor* shared_floor = nullptr;
  /// Optional query deadline (must outlive the join). The merge polls it
  /// every few thousand occurrences and aborts with DeadlineExceeded —
  /// the mechanism behind the server's per-query timeout.
  const Deadline* deadline = nullptr;
  /// Invoked at the same stride as the deadline poll while pushdown is
  /// active. A shard session uses it to gossip the top-K floor with its
  /// coordinator mid-merge (docs/SHARDING.md); a non-OK return aborts
  /// the join with that status. Ignored outside pushdown mode.
  std::function<Status()> floor_poll;
};

/// True when `options` + `scorer` activate the early-terminating top-K
/// mode (the planner and ParallelTermJoin consult the same rule).
bool TermJoinCanPushThreshold(const TermJoinOptions& options,
                              const algebra::Scorer& scorer);

struct TermJoinStats {
  uint64_t occurrences = 0;
  uint64_t stack_pushes = 0;
  uint64_t max_stack_depth = 0;
  uint64_t outputs = 0;
  /// Node-record fetches attributable to this run. Counted through a
  /// join-local obs::MetricsContext, so the figure is exact even when
  /// other queries (or sibling partitions) run concurrently.
  uint64_t record_fetches = 0;
  /// Inverted-index lookups issued when opening the streams.
  uint64_t index_lookups = 0;
  // Top-K pushdown instrumentation (all zero outside pushdown mode).
  /// Documents whose exact score bound could not beat the floor.
  uint64_t docs_pruned = 0;
  /// Skip-block windows leapt on their block-max bound alone.
  uint64_t blocks_skipped = 0;
  /// Postings bypassed without entering the merge.
  uint64_t postings_pruned = 0;
  /// Times the top-K score floor rose.
  uint64_t floor_updates = 0;
  // Lazy-decode instrumentation (zero when every list is decoded).
  /// Posting blocks varint-decoded on behalf of this run's streams.
  uint64_t blocks_decoded = 0;
  /// Decoded-block cache hits (block needed, decode avoided).
  uint64_t block_cache_hits = 0;
};

class TermJoin {
 public:
  /// `scorer->is_complex()` selects simple vs complex bookkeeping (the
  /// `s` parameter of Fig. 11). All pointers must outlive the join.
  TermJoin(storage::Database* db, const index::InvertedIndex* index,
           const algebra::IrPredicate* predicate,
           const algebra::Scorer* scorer, TermJoinOptions options = {});

  /// Runs the merge to completion. Output is in pop (post-) order, or
  /// in descending score order in pushdown mode; every element has
  /// `counts` filled per phrase and a final score. A join runs once; a
  /// second call fails with Internal.
  Result<std::vector<ScoredElement>> Run();

  const TermJoinStats& stats() const { return stats_; }

 private:
  struct StackEntry {
    storage::NodeId node = storage::kInvalidNodeId;
    storage::DocId doc = 0;
    uint32_t start = 0;
    uint32_t end = 0;
    uint16_t level = 0;
    std::vector<uint32_t> counts;
    // Complex-scoring state (the paper's BufferAndList):
    std::vector<algebra::TermOccurrence> occurrences;
    uint32_t relevant_children = 0;
    storage::NodeId last_marked_text_child = storage::kInvalidNodeId;
  };

  /// Pops the top entry, merges its state into the new top, scores it
  /// and appends it to output_ (or the top-K heap in pushdown mode).
  Status PopAndEmit();

  /// Pushes the ancestors of `text_node` that are not yet on the stack.
  Status PushAncestors(storage::NodeId text_node);

  /// Merges the opened streams to exhaustion, filling output_.
  Status Merge();

  // --- Top-K pushdown helpers (active only when pushdown_). -----------
  /// True when an element bounded by `bound` can no longer enter the
  /// result: below-or-at min_score, or strictly below the local heap
  /// floor / the shared floor (strict, because a tied score can still
  /// win on document order).
  bool CannotBeat(double bound) const;
  /// Score upper bound for any element of `doc` (exact per-doc counts).
  double DocBound(storage::DocId doc);
  /// Tracks the heap floor after a Push; publishes rises to the shared
  /// floor.
  void NoteFloor();
  /// From candidate doc `first`, skips every document whose bound cannot
  /// beat the floor, leaping whole block windows when their block-max
  /// bound is uncompetitive. Repositions the streams and returns true
  /// when anything was skipped (the caller re-peeks). Also refreshes
  /// current_doc_bound_ for the document the merge lands on.
  bool SkipUncompetitiveDocs(storage::DocId first);
  /// Moves every stream to the first occurrence with doc >= `doc`,
  /// charging the bypassed postings to the prune counters.
  void SeekStreamsTo(storage::DocId doc);

  storage::Database* db_;
  const index::InvertedIndex* index_;
  const algebra::IrPredicate* predicate_;
  const algebra::Scorer* scorer_;
  TermJoinOptions options_;
  bool complex_ = false;
  size_t num_phrases_ = 0;

  std::vector<StackEntry> stack_;
  std::vector<std::unique_ptr<OccurrenceStream>> streams_;
  std::vector<ScoredElement> output_;
  bool ran_ = false;
  /// Early-terminating top-K mode (see TermJoinOptions::threshold).
  bool pushdown_ = false;
  /// In pushdown mode, emitted elements go through this heap instead of
  /// output_; Finish() order (descending score) reaches output_ only
  /// when the input is exhausted.
  std::optional<ThresholdOperator> topk_;
  std::optional<ScoreBoundOracle> oracle_;
  std::vector<uint32_t> bound_counts_;  // scratch for the oracle
  /// Score upper bound of the document currently being merged; lets the
  /// merge abandon the rest of a document when the floor overtakes it.
  double current_doc_bound_ = 0.0;
  /// Occurrences left before the next options_.deadline poll (polling
  /// steady_clock per posting would dominate the merge).
  uint32_t deadline_countdown_ = 0;
  /// Last floor value accounted in stats_.floor_updates.
  double last_floor_ = 0.0;
  /// Charged for all storage/index work of Run. Parented to the context
  /// current when Run starts so per-query totals still roll up.
  obs::MetricsContext metrics_;
  TermJoinStats stats_;
};

}  // namespace tix::exec

#endif  // TIX_EXEC_TERM_JOIN_H_
