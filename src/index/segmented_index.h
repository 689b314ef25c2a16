#ifndef TIX_INDEX_SEGMENTED_INDEX_H_
#define TIX_INDEX_SEGMENTED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "index/manifest.h"
#include "index/segment.h"
#include "storage/database.h"

/// \file
/// LSM-style segmented inverted index: a manifest of immutable sealed
/// segments (each a block-format InvertedIndex over a disjoint doc-id
/// slice) plus an in-memory write buffer that seals into a new segment
/// at a size threshold. Deletes are doc-id tombstones filtered at query
/// and applied (dropped) at compaction.
///
/// Readers never lock against writers: every mutation builds a fresh
/// immutable IndexSnapshot and publishes it with a shared_ptr swap, so a
/// query that pinned a snapshot keeps a consistent view for its whole
/// run while ingestion, sealing and compaction proceed. Compaction runs
/// on a background ThreadPool and replaces small segments with one
/// merged segment; pinned readers keep the replaced segments alive.

namespace tix::index {

/// Immutable view of the index at one generation: the ordered segment
/// list (sealed segments plus, when non-empty, the write-buffer image as
/// the last entry) and the tombstone set. Collection-level statistics
/// (live doc count, IDF) are answered over live documents only, so a
/// snapshot query scores exactly like a bulk-built index over the same
/// live docs.
class IndexSnapshot {
 public:
  uint64_t generation() const { return generation_; }
  size_t num_segments() const { return segments_.size(); }
  const Segment& segment(size_t i) const { return *segments_[i]; }
  const std::vector<storage::DocId>& tombstones() const { return tombstones_; }

  /// Whether `doc` carries an unapplied tombstone (it may still have
  /// postings in some segment that queries must filter).
  bool IsDeleted(storage::DocId doc) const;
  /// Number of unapplied tombstones in [begin, end).
  size_t DeletedInRange(storage::DocId begin, storage::DocId end) const;
  /// Whether `doc` was ingested and never deleted. Unlike IsDeleted this
  /// also covers docs whose postings a compaction already dropped — the
  /// check document-name resolution needs.
  bool IsLiveDocument(storage::DocId doc) const;

  /// Documents visible to queries (ingested minus tombstoned).
  uint64_t live_documents() const { return live_documents_; }
  /// Total postings across segments (tombstoned docs included until
  /// compaction drops them).
  uint64_t total_postings() const { return total_postings_; }

  /// Live document frequency of `term`: per-segment df minus tombstoned
  /// docs that contain the term (exact, via DocPostingCount on the
  /// list's doc offsets — no block decode). Looks the term up through
  /// each segment's gate, so it fails with Corruption on a corrupt list.
  Result<uint64_t> LiveDocumentFrequency(std::string_view term) const;
  /// log((live + 1) / (live_df + 1)) + 1 — byte-identical to
  /// InvertedIndex::InverseDocumentFrequency over a bulk-built index of
  /// the same live documents.
  Result<double> InverseDocumentFrequency(std::string_view term) const;

 private:
  friend class SegmentedIndex;
  uint64_t generation_ = 0;
  std::vector<std::shared_ptr<const Segment>> segments_;
  std::vector<storage::DocId> tombstones_;  // unapplied, sorted ascending
  std::vector<storage::DocId> deleted_;     // all-time, sorted ascending
  storage::DocId end_doc_ = 0;              // docs [0, end_doc_) accounted
  uint64_t live_documents_ = 0;
  uint64_t total_postings_ = 0;
};

struct SegmentedIndexOptions {
  /// Seal the write buffer once it holds this many documents...
  uint64_t seal_doc_count = 64;
  /// ...or this many postings, whichever comes first.
  uint64_t seal_posting_count = 1u << 18;
  /// Background compaction triggers when the sealed-segment count
  /// reaches this.
  size_t compact_min_segments = 4;
  /// Per-segment load options (tests use decode_postings).
  IndexLoadOptions load;
};

/// Aggregate view for stats/monitoring (tix_cli stats, server StatsJson).
struct SegmentedIndexStats {
  uint64_t generation = 0;
  uint64_t num_segments = 0;  ///< Sealed segments (buffer excluded).
  uint64_t buffered_docs = 0;
  uint64_t live_documents = 0;
  uint64_t tombstones = 0;     ///< Unapplied (still shadowing postings).
  uint64_t deleted_docs = 0;   ///< All-time deletions.
  uint64_t total_postings = 0;
  uint64_t compactions = 0;
  /// Sealed-segment format mix (how far a v3->v4 rollover has
  /// progressed; buffer excluded, legacy v1/v2 count as their
  /// transcoded-to format, v4).
  uint64_t segments_v3 = 0;
  uint64_t segments_v4 = 0;
};

/// The mutable coordinator: owns the manifest, the sealed segments, the
/// write buffer, and the published snapshot. All mutators are
/// thread-safe against each other and against Acquire(); Compact() does
/// its heavy merge outside the lock so queries and ingestion are never
/// stalled behind it.
class SegmentedIndex {
 public:
  TIX_DISALLOW_COPY_AND_ASSIGN(SegmentedIndex);

  /// Opens the segmented index in `dir`:
  ///  - with a manifest: loads every referenced segment;
  ///  - no manifest but a monolithic `index.tix`: adopts it in place as
  ///    segment 0 (no bytes rewritten; the manifest is first persisted
  ///    on the first mutation);
  ///  - neither: starts empty.
  static Result<std::unique_ptr<SegmentedIndex>> Open(
      const std::string& dir, SegmentedIndexOptions options = {});

  /// Re-buffers database documents beyond the manifest's high-water mark
  /// (docs that were ingested but not sealed before a crash, or sealed
  /// after `db` was last saved). No-op when coverage matches.
  Status Recover(storage::Database* db);

  /// Pins the current snapshot. Cheap (one mutex hop + shared_ptr copy);
  /// the snapshot stays valid for the caller's lifetime regardless of
  /// concurrent mutations.
  std::shared_ptr<const IndexSnapshot> Acquire() const;

  /// Adds document `doc_id` (already stored in `db`) to the write
  /// buffer and publishes a new snapshot. Documents must be ingested in
  /// doc-id order with no gaps. Seals the buffer when it crosses the
  /// configured thresholds.
  Status Ingest(storage::Database* db, storage::DocId doc_id);

  /// Tombstones `doc_id` and publishes a new snapshot. Idempotent: a
  /// second delete of the same doc is an OK no-op (and does not bump the
  /// generation). NotFound for doc ids never ingested.
  Status Delete(storage::DocId doc_id);

  /// Force-seals the write buffer into a segment file (no-op when the
  /// buffer is empty). Makes all buffered documents durable.
  Status Seal(storage::Database* db);

  /// Merges all sealed segments into one, dropping tombstoned docs, and
  /// publishes the result. Runs the merge outside the state lock;
  /// ingestion, deletes and queries proceed concurrently. Serialized
  /// against itself. No-op (OK) when there is nothing to compact.
  Status Compact();

  /// Schedules Compact() on `pool` when the sealed-segment count has
  /// reached compact_min_segments and no compaction is in flight.
  /// Returns true when a task was scheduled.
  bool MaybeScheduleCompaction(ThreadPool* pool);

  /// Current published generation.
  uint64_t generation() const;

  SegmentedIndexStats Stats() const;
  /// Copy of the current manifest including unsealed-buffer coverage —
  /// what verify/stats tooling iterates.
  Manifest ManifestView() const;

  const std::string& dir() const { return dir_; }
  const SegmentedIndexOptions& options() const { return options_; }

 private:
  SegmentedIndex(std::string dir, SegmentedIndexOptions options)
      : dir_(std::move(dir)), options_(options) {}

  /// Rebuilds the buffer image over [buffer_begin_, buffer_end_) and
  /// publishes a fresh snapshot. Caller holds mu_.
  Status RebuildBufferLocked(storage::Database* db);
  /// Seals the buffer; caller holds mu_.
  Status SealLocked(storage::Database* db);
  /// Recomputes snapshot_ from current state; caller holds mu_.
  void PublishLocked();

  const std::string dir_;
  const SegmentedIndexOptions options_;

  mutable std::mutex mu_;  // guards everything below
  Manifest manifest_;
  /// Loaded sealed segments, parallel to manifest_.segments.
  std::vector<std::shared_ptr<const Segment>> sealed_;
  /// Write buffer: doc range [buffer_begin_, buffer_end_) and its
  /// queryable image (decoded representation; null when empty). The
  /// image is immutable — every mutation builds a replacement.
  storage::DocId buffer_begin_ = 0;
  storage::DocId buffer_end_ = 0;
  std::shared_ptr<const Segment> buffer_image_;
  std::shared_ptr<const IndexSnapshot> snapshot_;
  uint64_t generation_ = 0;
  uint64_t compactions_ = 0;
  bool manifest_dirty_ = false;  ///< Adopted/empty open, nothing persisted yet.

  std::mutex compact_mu_;  // serializes compactions
  std::atomic<bool> compact_scheduled_{false};
};

}  // namespace tix::index

#endif  // TIX_INDEX_SEGMENTED_INDEX_H_
