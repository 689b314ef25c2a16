#ifndef TIX_EXEC_PARALLEL_TERM_JOIN_H_
#define TIX_EXEC_PARALLEL_TERM_JOIN_H_

#include <vector>

#include "algebra/scoring.h"
#include "common/result.h"
#include "exec/term_join.h"

/// \file
/// Doc-partitioned parallel TermJoin. The TermJoin merge (Fig. 11) keeps
/// a stack of ancestors of the current occurrence; because no element
/// spans two documents, the stack is empty at every document boundary.
/// The merge over documents [0, N) is therefore exactly the
/// concatenation of independent merges over any partition of [0, N)
/// into contiguous doc ranges — same pops, same pop order, same scores.
/// ParallelTermJoin exploits this: it slices the corpus into contiguous
/// doc-id partitions balanced by posting volume, runs one serial
/// TermJoin per partition on a ThreadPool, and concatenates the
/// per-partition outputs (already in global doc order).

namespace tix::exec {

struct ParallelTermJoinOptions {
  /// Options forwarded to every per-partition TermJoin (`join.range` is
  /// overwritten with the partition's range, planned inside the caller's
  /// `join.range`; when the threshold pushes down, partitions share
  /// `join.shared_floor` if the caller provided one — the hook a shard
  /// session uses to prune against the fleet-global floor — and
  /// otherwise a run-local floor).
  TermJoinOptions join;
  /// Worker threads. 0 preserves today's serial behavior exactly: one
  /// TermJoin over the full corpus on the calling thread.
  size_t num_threads = 0;
  /// Number of doc partitions; 0 means one per thread (or 1 when
  /// serial). More partitions than threads is fine (they queue).
  size_t num_partitions = 0;
};

/// Plans contiguous, disjoint doc-id ranges that cover
/// [within.begin, min(num_docs, within.end)) and never split a document,
/// balanced by the predicate's posting volume per document (computed
/// from the posting lists' doc offsets in O(df), not a posting scan).
/// Returns at most `target_partitions` non-empty ranges — fewer when
/// there are fewer documents. The default `within` covers the whole
/// corpus. Fails as LookupPhraseLists does.
Result<std::vector<DocRange>> PlanDocPartitions(
    const index::InvertedIndex& index, const algebra::IrPredicate& predicate,
    storage::DocId num_docs, size_t target_partitions, DocRange within = {});

class ParallelTermJoin {
 public:
  /// Same contract as TermJoin: all pointers must outlive the join.
  ParallelTermJoin(storage::Database* db, const index::InvertedIndex* index,
                   const algebra::IrPredicate* predicate,
                   const algebra::Scorer* scorer,
                   ParallelTermJoinOptions options = {});

  /// Runs every partition to completion and returns the concatenated
  /// output, byte-identical to serial TermJoin::Run(). In top-K pushdown
  /// mode (see TermJoinOptions::threshold) the partitions prune against
  /// a shared atomic floor and their partial top-Ks are merged through a
  /// final ThresholdOperator — the result is the exact serial top-K, in
  /// descending score order, independent of the partition count.
  Result<std::vector<ScoredElement>> Run();

  /// Merged statistics: sums over partitions, except max_stack_depth
  /// (max). record_fetches is the sum of the partitions' context-local
  /// counts — exact even when other queries run concurrently, because
  /// each partition charges its own obs::MetricsContext rather than
  /// diffing the process-global counter.
  const TermJoinStats& stats() const { return stats_; }

  /// Partition plan used by the last Run() (empty for the serial path).
  const std::vector<DocRange>& partitions() const { return partitions_; }

  /// Per-partition statistics from the last Run(), parallel to
  /// partitions() (empty for the serial path). Feeds the per-partition
  /// children of the EXPLAIN ANALYZE tree.
  const std::vector<TermJoinStats>& partition_stats() const {
    return partition_stats_;
  }

 private:
  storage::Database* db_;
  const index::InvertedIndex* index_;
  const algebra::IrPredicate* predicate_;
  const algebra::Scorer* scorer_;
  ParallelTermJoinOptions options_;
  std::vector<DocRange> partitions_;
  std::vector<TermJoinStats> partition_stats_;
  TermJoinStats stats_;
};

}  // namespace tix::exec

#endif  // TIX_EXEC_PARALLEL_TERM_JOIN_H_
