#include "index/segmented_index.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/block_codec.h"
#include "common/logging.h"
#include "storage/mapped_file.h"

namespace tix::index {

bool IndexSnapshot::IsDeleted(storage::DocId doc) const {
  return std::binary_search(tombstones_.begin(), tombstones_.end(), doc);
}

size_t IndexSnapshot::DeletedInRange(storage::DocId begin,
                                     storage::DocId end) const {
  const auto lo =
      std::lower_bound(tombstones_.begin(), tombstones_.end(), begin);
  const auto hi = std::lower_bound(lo, tombstones_.end(), end);
  return static_cast<size_t>(hi - lo);
}

bool IndexSnapshot::IsLiveDocument(storage::DocId doc) const {
  return doc < end_doc_ &&
         !std::binary_search(deleted_.begin(), deleted_.end(), doc);
}

Result<uint64_t> IndexSnapshot::LiveDocumentFrequency(
    std::string_view term) const {
  uint64_t df = 0;
  for (const std::shared_ptr<const Segment>& segment : segments_) {
    TIX_ASSIGN_OR_RETURN(const PostingList* list,
                         segment->index().Lookup(term));
    if (list == nullptr || list->empty()) continue;
    df += list->doc_frequency;
    // Subtract tombstoned docs that contain the term: exact via the
    // per-doc posting counts (doc offsets only, no block decode).
    const SegmentInfo& info = segment->info();
    auto lo = std::lower_bound(tombstones_.begin(), tombstones_.end(),
                               info.min_doc);
    for (; lo != tombstones_.end() && *lo <= info.max_doc; ++lo) {
      if (list->DocPostingCount(*lo) > 0) --df;
    }
  }
  return df;
}

Result<double> IndexSnapshot::InverseDocumentFrequency(
    std::string_view term) const {
  TIX_ASSIGN_OR_RETURN(const uint64_t df, LiveDocumentFrequency(term));
  return std::log(static_cast<double>(live_documents_ + 1) /
                  static_cast<double>(df + 1)) +
         1.0;
}

Result<std::unique_ptr<SegmentedIndex>> SegmentedIndex::Open(
    const std::string& dir, SegmentedIndexOptions options) {
  std::unique_ptr<SegmentedIndex> out(new SegmentedIndex(dir, options));
  Result<Manifest> manifest = LoadManifest(dir);
  if (manifest.ok()) {
    out->manifest_ = std::move(manifest).value();
    for (const SegmentInfo& info : out->manifest_.segments) {
      TIX_ASSIGN_OR_RETURN(
          std::shared_ptr<const Segment> segment,
          Segment::Load(dir + "/" + info.file, info, options.load));
      out->sealed_.push_back(std::move(segment));
    }
  } else if (manifest.status().code() == StatusCode::kNotFound) {
    // No manifest. Adopt a monolithic index.tix in place as segment 0
    // when present (its file is referenced verbatim — no bytes are
    // rewritten until the first mutation persists a manifest).
    Result<InvertedIndex> legacy =
        InvertedIndex::LoadFromFile(dir + "/index.tix", options.load);
    if (legacy.ok()) {
      InvertedIndex index = std::move(legacy).value();
      const IndexStats& stats = index.stats();
      if (stats.num_documents > 0) {
        SegmentInfo info;
        info.id = 0;
        info.file = "index.tix";
        info.min_doc = 0;
        info.max_doc = static_cast<storage::DocId>(stats.num_documents - 1);
        info.num_docs = stats.num_documents;
        info.num_postings = stats.num_postings;
        out->manifest_.segments.push_back(info);
        // next_doc comes from `info`, not `stats`: `stats` is a
        // reference into `index`, dead once the segment takes it.
        out->manifest_.next_doc = info.max_doc + 1;
        out->sealed_.push_back(
            std::make_shared<const Segment>(info, std::move(index)));
      }
      out->manifest_.next_segment_id = 1;
      out->manifest_dirty_ = true;
    } else if (legacy.status().code() == StatusCode::kIOError ||
               legacy.status().code() == StatusCode::kNotFound) {
      // Neither manifest nor index.tix: start empty.
      out->manifest_.next_segment_id = 1;
      out->manifest_dirty_ = true;
    } else {
      return legacy.status();  // corrupt index.tix must not be masked
    }
  } else {
    return manifest.status();
  }
  out->generation_ = out->manifest_.generation;
  out->buffer_begin_ = out->manifest_.next_doc;
  out->buffer_end_ = out->manifest_.next_doc;
  std::lock_guard<std::mutex> lock(out->mu_);
  out->PublishLocked();
  return out;
}

Status SegmentedIndex::Recover(storage::Database* db) {
  std::lock_guard<std::mutex> lock(mu_);
  const storage::DocId num_docs =
      static_cast<storage::DocId>(db->documents().size());
  if (num_docs < manifest_.next_doc) {
    return Status::Corruption(
        "database holds " + std::to_string(num_docs) +
        " documents but the index manifest covers doc ids up to " +
        std::to_string(manifest_.next_doc));
  }
  if (num_docs == buffer_end_) return Status::OK();
  buffer_end_ = num_docs;
  // Tombstones for docs the database never persisted can no longer
  // match anything; drop them so live-doc accounting stays exact.
  const auto beyond = [num_docs](storage::DocId doc) {
    return doc >= num_docs;
  };
  manifest_.tombstones.erase(
      std::remove_if(manifest_.tombstones.begin(), manifest_.tombstones.end(),
                     beyond),
      manifest_.tombstones.end());
  manifest_.deleted.erase(std::remove_if(manifest_.deleted.begin(),
                                         manifest_.deleted.end(), beyond),
                          manifest_.deleted.end());
  TIX_RETURN_IF_ERROR(RebuildBufferLocked(db));
  ++generation_;
  PublishLocked();
  return Status::OK();
}

std::shared_ptr<const IndexSnapshot> SegmentedIndex::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

Status SegmentedIndex::Ingest(storage::Database* db, storage::DocId doc_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (doc_id != buffer_end_) {
    return Status::InvalidArgument(
        "documents must be ingested in doc-id order: expected " +
        std::to_string(buffer_end_) + ", got " + std::to_string(doc_id));
  }
  if (doc_id >= db->documents().size()) {
    return Status::InvalidArgument("doc " + std::to_string(doc_id) +
                                   " is not in the database");
  }
  buffer_end_ = doc_id + 1;
  TIX_RETURN_IF_ERROR(RebuildBufferLocked(db));
  const uint64_t buffered_docs = buffer_end_ - buffer_begin_;
  const uint64_t buffered_postings =
      buffer_image_ == nullptr ? 0 : buffer_image_->info().num_postings;
  if (buffered_docs >= options_.seal_doc_count ||
      buffered_postings >= options_.seal_posting_count) {
    TIX_RETURN_IF_ERROR(SealLocked(db));
  }
  ++generation_;
  PublishLocked();
  return Status::OK();
}

Status SegmentedIndex::Delete(storage::DocId doc_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (doc_id >= buffer_end_) {
    return Status::NotFound("doc " + std::to_string(doc_id) +
                            " was never ingested");
  }
  auto deleted_it = std::lower_bound(manifest_.deleted.begin(),
                                     manifest_.deleted.end(), doc_id);
  if (deleted_it != manifest_.deleted.end() && *deleted_it == doc_id) {
    return Status::OK();  // idempotent; generation unchanged
  }
  manifest_.deleted.insert(deleted_it, doc_id);
  auto it = std::lower_bound(manifest_.tombstones.begin(),
                             manifest_.tombstones.end(), doc_id);
  manifest_.tombstones.insert(it, doc_id);
  ++generation_;
  manifest_.generation = generation_;
  TIX_RETURN_IF_ERROR(SaveManifest(manifest_, dir_));
  manifest_dirty_ = false;
  PublishLocked();
  return Status::OK();
}

Status SegmentedIndex::Seal(storage::Database* db) {
  std::lock_guard<std::mutex> lock(mu_);
  if (buffer_end_ == buffer_begin_) {
    if (manifest_dirty_) {
      // Nothing buffered, but the manifest (adopted or empty) was never
      // persisted; write it so the directory becomes manifest-based.
      manifest_.generation = generation_;
      TIX_RETURN_IF_ERROR(SaveManifest(manifest_, dir_));
      manifest_dirty_ = false;
    }
    return Status::OK();
  }
  TIX_RETURN_IF_ERROR(SealLocked(db));
  ++generation_;
  PublishLocked();
  return Status::OK();
}

Status SegmentedIndex::SealLocked(storage::Database* db) {
  // Durability order: documents first, then the segment file, then the
  // manifest. The manifest's next_doc asserts that every covered doc is
  // in the database, so the database must be durable before a manifest
  // that covers the sealed docs can exist — otherwise a crash here
  // would make Recover() report corruption on restart. (Save() is
  // internally serialized against concurrent readers by the buffer
  // pool; callers already hold mu_, serializing it against other
  // mutators.)
  TIX_RETURN_IF_ERROR(db->Save());
  // Build the segment in the sealed (block-compressed) representation
  // and persist it before the manifest references it: a crash in
  // between leaves an orphan file and a consistent old manifest.
  TIX_ASSIGN_OR_RETURN(
      InvertedIndex index,
      InvertedIndex::BuildForDocRange(db, buffer_begin_, buffer_end_));
  SegmentInfo info;
  info.id = manifest_.next_segment_id;
  info.file = SegmentFileName(info.id);
  info.min_doc = buffer_begin_;
  info.max_doc = buffer_end_ - 1;
  info.num_docs = buffer_end_ - buffer_begin_;
  info.num_postings = index.stats().num_postings;
  TIX_RETURN_IF_ERROR(index.SaveToFile(dir_ + "/" + info.file));

  manifest_.next_segment_id = info.id + 1;
  manifest_.next_doc = buffer_end_;
  manifest_.segments.push_back(info);
  manifest_.generation = generation_ + 1;
  const Status saved = SaveManifest(manifest_, dir_);
  if (!saved.ok()) {
    // Roll the in-memory manifest back so state matches disk.
    manifest_.segments.pop_back();
    manifest_.next_segment_id = info.id;
    manifest_.next_doc = buffer_begin_;
    return saved;
  }
  manifest_dirty_ = false;
  sealed_.push_back(std::make_shared<const Segment>(info, std::move(index)));
  buffer_begin_ = buffer_end_;
  buffer_image_ = nullptr;
  return Status::OK();
}

Status SegmentedIndex::RebuildBufferLocked(storage::Database* db) {
  if (buffer_end_ == buffer_begin_) {
    buffer_image_ = nullptr;
    return Status::OK();
  }
  // The buffer image stays in the decoded representation: it is rebuilt
  // on every ingest, so block-compressing it would only churn the
  // decoded-block cache with short-lived cache ids.
  TIX_ASSIGN_OR_RETURN(
      InvertedIndex index,
      InvertedIndex::BuildForDocRange(db, buffer_begin_, buffer_end_, false));
  SegmentInfo info;
  info.id = UINT64_MAX;  // not a sealed segment; never persisted
  info.min_doc = buffer_begin_;
  info.max_doc = buffer_end_ - 1;
  info.num_docs = buffer_end_ - buffer_begin_;
  info.num_postings = index.stats().num_postings;
  buffer_image_ = std::make_shared<const Segment>(info, std::move(index));
  return Status::OK();
}

void SegmentedIndex::PublishLocked() {
  auto snapshot = std::make_shared<IndexSnapshot>();
  snapshot->generation_ = generation_;
  snapshot->segments_ = sealed_;
  if (buffer_image_ != nullptr) snapshot->segments_.push_back(buffer_image_);
  snapshot->tombstones_ = manifest_.tombstones;
  snapshot->deleted_ = manifest_.deleted;
  snapshot->end_doc_ = buffer_end_;
  uint64_t total_postings =
      buffer_image_ == nullptr ? 0 : buffer_image_->info().num_postings;
  for (const std::shared_ptr<const Segment>& segment : sealed_) {
    total_postings += segment->info().num_postings;
  }
  // Live docs: everything accounted minus everything ever deleted
  // (applied deletions already shrank the segments' num_docs; unapplied
  // tombstones still shadow postings — either way the doc is not live).
  const auto deleted_end = std::lower_bound(
      manifest_.deleted.begin(), manifest_.deleted.end(), buffer_end_);
  snapshot->live_documents_ =
      buffer_end_ -
      static_cast<uint64_t>(deleted_end - manifest_.deleted.begin());
  snapshot->total_postings_ = total_postings;
  snapshot_ = std::move(snapshot);
}

Status SegmentedIndex::Compact() {
  std::lock_guard<std::mutex> compact_lock(compact_mu_);

  // Capture the inputs: the current sealed segments and the tombstones
  // that fall inside their ranges. Seals that land after this point are
  // appended behind the captured prefix and are untouched by the swap.
  std::vector<std::shared_ptr<const Segment>> inputs;
  std::vector<storage::DocId> applied;
  {
    std::lock_guard<std::mutex> lock(mu_);
    inputs = sealed_;
    for (const storage::DocId doc : manifest_.tombstones) {
      for (const std::shared_ptr<const Segment>& segment : inputs) {
        if (segment->Contains(doc)) {
          applied.push_back(doc);
          break;
        }
      }
    }
    if (inputs.size() <= 1 && applied.empty()) return Status::OK();
  }

  // Heavy merge, no locks held: decode every input list, drop
  // tombstoned docs, and concatenate per term. Input segments cover
  // disjoint ascending doc ranges, so per-term concatenation in segment
  // order is already (doc, word_pos)-sorted.
  std::unordered_map<std::string, size_t> term_slot;
  std::vector<std::pair<std::string, PostingList>> merged;
  std::unordered_set<storage::NodeId> text_nodes;
  uint64_t merged_docs = 0;
  for (const std::shared_ptr<const Segment>& segment : inputs) {
    const SegmentInfo& info = segment->info();
    std::vector<storage::DocId> segment_tombs;
    for (const storage::DocId doc : applied) {
      if (doc >= info.min_doc && doc <= info.max_doc)
        segment_tombs.push_back(doc);
    }
    merged_docs += info.num_docs - segment_tombs.size();
    const InvertedIndex& index = segment->index();
    const text::TermDictionary& dictionary = index.dictionary();
    for (text::TermId id = 0; id < dictionary.size(); ++id) {
      // Validated in the same pass, so a corrupt trust-mode list fails
      // the compaction; no metadata is derived for a segment about to
      // be replaced. Then drop the tombstoned docs.
      TIX_ASSIGN_OR_RETURN(std::vector<Posting> postings,
                           index.DecodeList(id));
      std::erase_if(postings, [&segment_tombs](const Posting& posting) {
        return std::binary_search(segment_tombs.begin(), segment_tombs.end(),
                                  posting.doc_id);
      });
      if (postings.empty()) continue;
      for (const Posting& posting : postings) {
        text_nodes.insert(posting.node_id);
      }
      const std::string& term = dictionary.TermOf(id);
      auto [it, inserted] = term_slot.emplace(term, merged.size());
      if (inserted) merged.emplace_back(term, PostingList{});
      std::vector<Posting>& dst = merged[it->second].second.postings;
      dst.insert(dst.end(), postings.begin(), postings.end());
    }
  }

  std::shared_ptr<const Segment> output;
  if (merged_docs > 0) {
    TIX_ASSIGN_OR_RETURN(
        InvertedIndex index,
        InvertedIndex::FromPostings(
            inputs.front()->index().tokenizer_options(), std::move(merged),
            merged_docs, text_nodes.size()));
    SegmentInfo info;
    {
      std::lock_guard<std::mutex> lock(mu_);
      info.id = manifest_.next_segment_id++;
    }
    info.file = SegmentFileName(info.id);
    info.min_doc = inputs.front()->info().min_doc;
    info.max_doc = inputs.back()->info().max_doc;
    info.num_docs = merged_docs;
    info.num_postings = index.stats().num_postings;
    TIX_RETURN_IF_ERROR(index.SaveToFile(dir_ + "/" + info.file));
    output = std::make_shared<const Segment>(info, std::move(index));
  }

  // Install: swap the captured prefix for the merged segment, drop the
  // applied tombstones, persist, publish. Readers holding the old
  // snapshot keep the input segments alive until they finish.
  std::vector<std::string> obsolete_files;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TIX_CHECK_GE(sealed_.size(), inputs.size());
    for (const std::shared_ptr<const Segment>& segment : inputs) {
      if (segment->info().file == "index.tix") {
        // Never unlink the adopted monolithic file: legacy tooling (and
        // a mid-migration rollback) may still expect it.
        continue;
      }
      if (segment->index().mapping() != nullptr) {
        // The segment serves postings straight from an mmap of its
        // file. Pinned snapshots still hold the segment (and therefore
        // the mapping), so defer the unlink: the file is removed by the
        // destructor of the last MappedFile reference, exactly when the
        // final snapshot unpins it.
        segment->index().mapping()->set_unlink_on_close();
      } else {
        // Owned bytes (sealed this process lifetime, or mmap fallback):
        // nothing reads the file anymore, unlink it eagerly.
        obsolete_files.push_back(dir_ + "/" + segment->info().file);
      }
    }
    std::vector<std::shared_ptr<const Segment>> new_sealed;
    std::vector<SegmentInfo> new_infos;
    if (output != nullptr) {
      new_sealed.push_back(output);
      new_infos.push_back(output->info());
    }
    for (size_t i = inputs.size(); i < sealed_.size(); ++i) {
      new_sealed.push_back(sealed_[i]);
      new_infos.push_back(manifest_.segments[i]);
    }
    Manifest new_manifest = manifest_;
    new_manifest.segments = std::move(new_infos);
    new_manifest.tombstones.erase(
        std::remove_if(new_manifest.tombstones.begin(),
                       new_manifest.tombstones.end(),
                       [&applied](storage::DocId doc) {
                         return std::binary_search(applied.begin(),
                                                   applied.end(), doc);
                       }),
        new_manifest.tombstones.end());
    new_manifest.generation = generation_ + 1;
    TIX_RETURN_IF_ERROR(SaveManifest(new_manifest, dir_));
    manifest_ = std::move(new_manifest);
    manifest_dirty_ = false;
    sealed_ = std::move(new_sealed);
    ++generation_;
    ++compactions_;
    PublishLocked();
  }
  for (const std::string& path : obsolete_files) {
    std::remove(path.c_str());
  }
  return Status::OK();
}

bool SegmentedIndex::MaybeScheduleCompaction(ThreadPool* pool) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sealed_.size() < options_.compact_min_segments) return false;
  }
  bool expected = false;
  if (!compact_scheduled_.compare_exchange_strong(expected, true)) {
    return false;
  }
  pool->Submit([this] {
    const Status status = Compact();
    compact_scheduled_.store(false);
    if (!status.ok()) {
      TIX_LOG(Warning) << "background compaction failed: "
                       << status.ToString();
    }
  });
  return true;
}

uint64_t SegmentedIndex::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

SegmentedIndexStats SegmentedIndex::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SegmentedIndexStats stats;
  stats.generation = generation_;
  stats.num_segments = sealed_.size();
  stats.buffered_docs = buffer_end_ - buffer_begin_;
  stats.live_documents = snapshot_ == nullptr ? 0 : snapshot_->live_documents();
  stats.tombstones = manifest_.tombstones.size();
  stats.deleted_docs = manifest_.deleted.size();
  stats.total_postings =
      snapshot_ == nullptr ? 0 : snapshot_->total_postings();
  stats.compactions = compactions_;
  for (const std::shared_ptr<const Segment>& segment : sealed_) {
    if (segment->index().tail_format() == codec::TailFormat::kV3) {
      ++stats.segments_v3;
    } else {
      ++stats.segments_v4;
    }
  }
  return stats;
}

Manifest SegmentedIndex::ManifestView() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_;
}

}  // namespace tix::index
