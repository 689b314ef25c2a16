#ifndef TIX_QUERY_ENGINE_H_
#define TIX_QUERY_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/scoring.h"
#include "common/deadline.h"
#include "common/obs.h"
#include "common/result.h"
#include "exec/parallel_term_join.h"
#include "index/block_cache.h"
#include "index/inverted_index.h"
#include "index/segmented_index.h"
#include "query/ast.h"
#include "storage/database.h"

/// \file
/// Query engine: compiles a parsed TIX query into the physical pipeline
/// of Sec. 5 — one structural matcher (path steps as document-scoped
/// semi-joins on the resident node columns) for the boolean part,
/// Enhanced TermJoin (ancestors and child counts from the same columns,
/// no record fetches) for score generation, the stack-based Pick over
/// each anchor's run of the scored elements, and the Threshold operator
/// for final filtering — and runs it.

namespace tix::query {

struct QueryResultItem {
  storage::NodeId node = storage::kInvalidNodeId;
  double score = 0.0;
};

/// One joined pair (join queries only): combined = ScoreBar(similarity,
/// best IR component score of the left binding), or the similarity when
/// the query has no SCORE clause.
struct QueryPairResult {
  storage::NodeId left = storage::kInvalidNodeId;
  storage::NodeId right = storage::kInvalidNodeId;
  double similarity = 0.0;
  double combined = 0.0;
};

struct QueryStats {
  /// Elements matched by the structural (anchor) part.
  uint64_t anchors = 0;
  /// Elements scored by TermJoin within scope.
  uint64_t scored_elements = 0;
  /// Elements surviving Pick.
  uint64_t picked = 0;
  uint64_t returned = 0;
};

struct QueryOutput {
  std::vector<QueryResultItem> results;
  /// Populated by join queries, parallel to `results` (results[i].node ==
  /// pairs[i].left, results[i].score == pairs[i].combined).
  std::vector<QueryPairResult> pairs;
  QueryStats stats;
  /// EXPLAIN ANALYZE tree, present when EngineOptions::collect_metrics
  /// is set: per-operator wall time, cardinalities and storage counters
  /// (render with obs::RenderText / obs::RenderJson).
  std::optional<obs::OperatorMetrics> plan;
};

/// Execution knobs; none changes an answer (scoring always runs the
/// Enhanced TermJoin).
struct EngineOptions {
  /// Worker threads for score generation (doc-partitioned parallel
  /// TermJoin). 0 = serial, preserving the single-threaded behavior.
  size_t num_threads = 0;
  /// Collect the per-operator EXPLAIN ANALYZE tree into
  /// QueryOutput::plan. Off by default: results and QueryStats are
  /// identical either way; only the plan tree (and its small timing
  /// overhead) is gated.
  bool collect_metrics = false;
  /// Push an eligible top-K threshold into the Enhanced TermJoin (block-
  /// max bounds + early termination), falling back to materialize-then-
  /// threshold whenever pushdown could change results: complex or non-
  /// monotone scorers, min_score without top_k, Pick between TermJoin
  /// and Threshold, multi-step paths, named targets or target predicates
  /// (whose Scope filters elements after scoring). Results are identical
  /// either way; only work saved differs. Disable to force the post-pass
  /// (the CLI's --no-pushdown, equivalence tests, benches).
  bool threshold_pushdown = true;
  /// Capacity of the process-wide decoded-posting-block cache (the CLI's
  /// --block-cache-mb). 0 disables caching: every block access on a
  /// compressed list decodes. Applied at engine construction; the cache
  /// is shared by every engine in the process, so the last-constructed
  /// engine's setting wins.
  size_t block_cache_bytes = index::kDefaultBlockCacheBytes;
  /// Query deadline, polled between pipeline stages and path steps and
  /// inside the TermJoin merge loop; execution aborts with
  /// Status::DeadlineExceeded once past it. Default-constructed =
  /// unlimited. The server sets this per query from its timeout knob
  /// (docs/SERVING.md); granularity is a stage boundary or ~4k merged
  /// postings, not an exact instant.
  Deadline deadline;
  /// Cross-process top-K floor (docs/SHARDING.md): when set, an eligible
  /// pushdown join prunes against this floor instead of a run-local one
  /// and publishes local rises into it. A shard session points every
  /// partition at the fleet-global floor. Must outlive the query.
  exec::TopKFloor* shared_topk_floor = nullptr;
  /// Invoked from the merge loop every few thousand postings while
  /// pushdown is active; a shard session uses it to gossip the floor
  /// with its coordinator. A non-OK return aborts the query.
  std::function<Status()> topk_floor_poll;
};

class QueryEngine {
 public:
  QueryEngine(storage::Database* db, const index::InvertedIndex* index,
              EngineOptions options = {})
      : db_(db), index_(index), options_(options) {
    index::DecodedBlockCache::Instance().Configure(options_.block_cache_bytes);
  }

  /// Snapshot mode: executes against a pinned segmented-index snapshot.
  /// The engine holds the shared_ptr, so the snapshot (and every segment
  /// it references) outlives the query even while ingestion and
  /// compaction publish newer generations. Score generation runs one
  /// TermJoin per segment (exec::SegmentedTermJoin), IDF is computed
  /// over the snapshot's live documents, and document names resolve to
  /// live documents only.
  QueryEngine(storage::Database* db,
              std::shared_ptr<const index::IndexSnapshot> snapshot,
              EngineOptions options = {})
      : db_(db),
        index_(nullptr),
        snapshot_(std::move(snapshot)),
        options_(options) {
    index::DecodedBlockCache::Instance().Configure(options_.block_cache_bytes);
  }

  /// Parses and executes.
  Result<QueryOutput> ExecuteText(std::string_view text);

  Result<QueryOutput> Execute(const Query& query);

  /// Renders results as the paper's <result><score>…</score>…</result>
  /// elements (Figure 10's RETURN shape). At most `limit` results.
  Result<std::string> RenderXml(const QueryOutput& output,
                                size_t limit = 10) const;

 private:
  /// `plan` is the EXPLAIN tree to append operator nodes to; nullptr
  /// disables collection (every OperatorSpan becomes a no-op).
  Result<QueryOutput> ExecuteSelect(const Query& query,
                                    obs::OperatorMetrics* plan);
  Result<QueryOutput> ExecuteJoin(const Query& query,
                                  obs::OperatorMetrics* plan);
  Result<std::unique_ptr<algebra::Scorer>> MakeScorerForClause(
      const ScoreClause& clause, const algebra::IrPredicate& predicate) const;
  /// IDF from the snapshot's live documents (snapshot mode) or the
  /// monolithic index.
  double TermIdf(std::string_view term) const;
  /// Document-name lookup. In snapshot mode only live documents resolve
  /// (first live match in doc order, matching the monolithic engine's
  /// first-match rule over a database of the same live docs); deleted or
  /// not-yet-ingested documents are NotFound.
  Result<storage::DocumentInfo> ResolveDocument(const std::string& name) const;
  /// Runs the Enhanced scoring join over `range` — ParallelTermJoin, or
  /// SegmentedTermJoin in snapshot mode — under a TermJoin span of
  /// `plan`, pushing the `pushdown` top-K into it when set.
  Result<std::vector<exec::ScoredElement>> RunScoringJoin(
      const algebra::IrPredicate& predicate, const algebra::Scorer& scorer,
      exec::DocRange range, const algebra::ThresholdSpec* pushdown,
      obs::OperatorMetrics* plan);

  storage::Database* db_;
  const index::InvertedIndex* index_;
  std::shared_ptr<const index::IndexSnapshot> snapshot_;
  EngineOptions options_;
};

}  // namespace tix::query

#endif  // TIX_QUERY_ENGINE_H_
