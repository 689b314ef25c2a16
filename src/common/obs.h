#ifndef TIX_COMMON_OBS_H_
#define TIX_COMMON_OBS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"

/// \file
/// Per-query observability: counter contexts, operator metric trees and
/// the EXPLAIN ANALYZE renderers.
///
/// The storage and index layers report work (record fetches, blob
/// reads, posting lookups) through `Count()`, which charges the
/// *current* thread-local `MetricsContext`. Operators install a context
/// with `ScopedMetrics` around the code that does the work, so two
/// queries running concurrently each see exactly their own costs —
/// unlike the old scheme of diffing a process-global counter, which
/// cross-contaminates the moment executions overlap.
///
/// Contexts chain: `MetricsContext::Add` also charges the parent, so a
/// per-operator context rolls its numbers up into the per-query context
/// without any post-processing. Counting is wait-free (relaxed atomics)
/// and a handful of instructions when no context is installed, so the
/// hooks stay in release builds.

namespace tix::obs {

/// Work counters charged by the storage/index layers (first four), the
/// top-K threshold-pushdown fast path (next three) and the lazy-decode
/// posting-block machinery (last four).
enum class Counter : int {
  kRecordFetches = 0,  ///< NodeStore::Get calls (paper's "records fetched").
  kBlobReads = 1,      ///< TextStore::Read calls.
  kTextBytesRead = 2,  ///< Bytes returned by TextStore::Read.
  kIndexLookups = 3,   ///< InvertedIndex::Lookup / LookupId calls.
  kTopkBlocksSkipped = 4,   ///< Skip-block windows leapt via block-max bounds.
  kTopkPostingsPruned = 5,  ///< Postings bypassed without being merged.
  kTopkFloorUpdates = 6,    ///< Times the top-K score floor rose.
  /// Posting-block window loads by BlockCursor (cache hits + decodes).
  kIndexBlocksScanned = 7,
  /// Blocks varint-decoded (cache misses). Always <= blocks scanned;
  /// with pushdown on, the gap is decode work the pruning saved.
  kIndexBlocksDecoded = 8,
  kIndexBlockCacheHits = 9,       ///< Decoded-block cache hits.
  kIndexBlockCacheEvictions = 10,  ///< Entries evicted to stay in budget.
  /// Server result-cache outcomes (charged by server::ResultCache to the
  /// session's context, so server totals roll up through the same tree).
  kResultCacheHits = 11,
  kResultCacheMisses = 12,
  /// Entries dropped because their stamped index generation no longer
  /// matches the live one (stale results from before an ingest, delete
  /// or compaction). Counted as misses too.
  kResultCacheGenEvictions = 13,
  /// Occurrences merged by TermJoin (postings actually consumed after
  /// pruning). The work metric benches compare across shard counts and
  /// gossip settings; exported in STATS so external processes can read
  /// it without EXPLAIN.
  kTermJoinOccurrences = 14,
  /// Posting lists scrubbed on their first lookup after a trust-mode
  /// open (InvertedIndex::Lookup): at most once per list per open.
  kIndexListsScrubbed = 15,
};

inline constexpr int kNumCounters = 16;

/// Stable snake_case name used in EXPLAIN output and the JSON schema.
const char* CounterName(Counter counter);

/// A set of per-query (or per-operator) work counters. Thread-safe:
/// partitions of a parallel operator may charge one context
/// concurrently. Optionally chained to a parent so operator-local
/// contexts roll up into the query context.
class MetricsContext {
 public:
  explicit MetricsContext(MetricsContext* parent = nullptr)
      : parent_(parent) {
    for (auto& counter : counters_) {
      counter.store(0, std::memory_order_relaxed);
    }
  }
  TIX_DISALLOW_COPY_AND_ASSIGN(MetricsContext);

  /// Charges `n` units to this context and every ancestor.
  void Add(Counter counter, uint64_t n) {
    for (MetricsContext* context = this; context != nullptr;
         context = context->parent_) {
      context->counters_[static_cast<int>(counter)].fetch_add(
          n, std::memory_order_relaxed);
    }
  }

  uint64_t value(Counter counter) const {
    return counters_[static_cast<int>(counter)].load(
        std::memory_order_relaxed);
  }

  MetricsContext* parent() const { return parent_; }
  void set_parent(MetricsContext* parent) { parent_ = parent; }

 private:
  std::array<std::atomic<uint64_t>, kNumCounters> counters_;
  MetricsContext* parent_;
};

/// The context charged by `Count()` on this thread; nullptr when no
/// query is collecting metrics.
MetricsContext* CurrentMetrics();

/// Installs `context` as the thread's current metrics context for the
/// enclosing scope and restores the previous one on destruction.
/// Parallel operators construct one inside each worker task to hand the
/// ambient query context across the thread boundary.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsContext* context);
  ~ScopedMetrics();
  TIX_DISALLOW_COPY_AND_ASSIGN(ScopedMetrics);

 private:
  MetricsContext* previous_;
};

/// Charges `n` units to the thread's current context (no-op without one).
void Count(Counter counter, uint64_t n = 1);

/// One node of the EXPLAIN ANALYZE tree: an operator (or query phase)
/// with wall time, cardinality and the storage counters it incurred.
/// Built single-threaded by the query engine; `OperatorSpan` fills in
/// the measured fields.
struct OperatorMetrics {
  std::string name;    ///< Operator name, e.g. "TermJoin".
  std::string detail;  ///< Free-form annotation, e.g. "threads=4".
  double seconds = 0;  ///< Wall time inside the span.
  uint64_t rows = 0;   ///< Output cardinality (operator-defined).
  /// Nonzero counters, in (stable name, value) form. Extra operator
  /// counters (e.g. "heap_evictions") append after the storage set.
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<OperatorMetrics> children;

  /// Sets (or overwrites) a named counter.
  void SetCounter(const std::string& counter_name, uint64_t value);
  /// Returns the counter value, or 0 when absent.
  uint64_t GetCounter(const std::string& counter_name) const;
  /// Appends a child node and returns a reference to it. The reference
  /// is invalidated by further AddChild calls unless `children` was
  /// reserved; OperatorSpan holds the parent, not the child, to stay
  /// safe.
  OperatorMetrics& AddChild(OperatorMetrics child);
};

/// RAII measurement of one operator execution. Creates a child
/// MetricsContext parented to the current one, installs it, and times
/// the scope; on destruction (or Finish()) appends an OperatorMetrics
/// node carrying the elapsed seconds and every nonzero counter to the
/// parent node. A null parent disables the span entirely — operators
/// can create spans unconditionally and pay nothing when metrics are
/// off.
class OperatorSpan {
 public:
  /// `parent` is the tree node to append to (nullptr = disabled).
  OperatorSpan(OperatorMetrics* parent, std::string name,
               std::string detail = "");
  ~OperatorSpan();
  TIX_DISALLOW_COPY_AND_ASSIGN(OperatorSpan);

  bool enabled() const { return parent_ != nullptr; }

  /// Sets the output cardinality reported for this operator.
  void set_rows(uint64_t rows) { node_.rows = rows; }
  /// Adds an operator-specific counter (beyond the storage set).
  void SetCounter(const std::string& counter_name, uint64_t value);
  /// The context charged while this span is installed (null if
  /// disabled). Handy for reading partial values mid-flight.
  MetricsContext* context() { return context_.get(); }
  /// The in-flight node (null if disabled), e.g. to attach custom
  /// children before Finish() moves it into the parent.
  OperatorMetrics* mutable_node() {
    return parent_ == nullptr ? nullptr : &node_;
  }

  /// Stops the clock, materialises counters and appends the node to the
  /// parent. Returns the appended node (valid until the parent grows),
  /// or nullptr when disabled. Called implicitly by the destructor.
  OperatorMetrics* Finish();

 private:
  OperatorMetrics* parent_;
  OperatorMetrics node_;
  std::unique_ptr<MetricsContext> context_;
  std::unique_ptr<ScopedMetrics> installed_;
  std::chrono::steady_clock::time_point start_;
  bool finished_ = false;
};

/// Renders the tree as indented text (the `--explain` output).
std::string RenderText(const OperatorMetrics& root);

/// Renders the tree as JSON (the `--stats-json` output). Schema (see
/// docs/OBSERVABILITY.md): every node is an object with "name",
/// "detail", "seconds", "rows", "counters" (object of
/// counter-name -> integer) and "children" (array of nodes).
std::string RenderJson(const OperatorMetrics& root);

}  // namespace tix::obs

#endif  // TIX_COMMON_OBS_H_
