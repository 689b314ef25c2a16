#include "index/inverted_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>

#include "common/block_codec.h"
#include "common/logging.h"
#include "common/obs.h"
#include "common/varint.h"
#include "index/block_cache.h"
#include "storage/file_manager.h"
#include "storage/mapped_file.h"

namespace tix::index {

// The block codec moves flat uint32 triples; Posting must be exactly
// that so blocks decode straight into Posting storage.
static_assert(sizeof(Posting) == 3 * sizeof(uint32_t));
static_assert(std::is_standard_layout_v<Posting>);
static_assert(offsetof(Posting, doc_id) == 0);
static_assert(offsetof(Posting, node_id) == sizeof(uint32_t));
static_assert(offsetof(Posting, word_pos) == 2 * sizeof(uint32_t));

namespace {
// Version 1: flat posting lists, no skip metadata in the header.
constexpr uint64_t kIndexMagicV1 = 0x5449581049445801ULL;  // "TIX\x10IDX\x01"
// Version 2: header carries the skip-block interval; flat delta-coded
// postings, skip blocks rebuilt at load.
constexpr uint64_t kIndexMagicV2 = 0x5449581049445802ULL;  // "TIX\x10IDX\x02"
// Version 3: block-compressed posting lists (see the format comment in
// inverted_index.h). The skip interval in the header is now physical
// block geometry, so it must match kSkipInterval.
constexpr uint64_t kIndexMagicV3 = 0x5449581049445803ULL;  // "TIX\x10IDX\x03"
// Version 4: identical layout to version 3 except block tails use the
// StreamVByte-style control/data split (codec::TailFormat::kV4).
constexpr uint64_t kIndexMagicV4 = 0x5449581049445804ULL;  // "TIX\x10IDX\x04"

const uint32_t* AsTriples(const Posting* postings) {
  return reinterpret_cast<const uint32_t*>(postings);
}
uint32_t* AsTriples(Posting* postings) {
  return reinterpret_cast<uint32_t*>(postings);
}

using DocOffsets = std::vector<std::pair<storage::DocId, uint32_t>>;

/// Completes metadata from a list's doc boundaries: block-max bounds and
/// the list max. A document's *total* count is charged to every block
/// its postings touch, so a block's bound stays valid for documents
/// whose postings straddle block boundaries.
std::unique_ptr<const PostingMetadata> MakeMetadata(DocOffsets doc_offsets,
                                                    uint32_t num_postings) {
  auto metadata = std::make_unique<PostingMetadata>();
  metadata->block_max.assign(
      (num_postings + kSkipInterval - 1) / kSkipInterval, 0);
  for (size_t d = 0; d < doc_offsets.size(); ++d) {
    const uint32_t begin = doc_offsets[d].second;
    const uint32_t end = d + 1 < doc_offsets.size()
                             ? doc_offsets[d + 1].second
                             : num_postings;
    const uint32_t count = end - begin;
    metadata->max_doc_count = std::max(metadata->max_doc_count, count);
    for (size_t b = begin / kSkipInterval; b <= (end - 1) / kSkipInterval;
         ++b) {
      metadata->block_max[b] = std::max(metadata->block_max[b], count);
    }
  }
  metadata->doc_offsets = std::move(doc_offsets);
  return metadata;
}

/// The one posting validator, behind Scrub() and DebugCheckSorted():
/// visits every posting of `list` in order — decoding a compressed list
/// block by block — and checks block framing, that postings ascend
/// strictly by (doc_id, word_pos) with node ids non-decreasing inside a
/// document, and that the doc/node frequencies match. `visit(posting,
/// index, new_doc)` sees each posting, its index and whether it starts
/// a document.
template <typename Visit>
Status ForEachValidated(const PostingList& list, Visit visit) {
  uint32_t docs_seen = 0;
  uint32_t nodes_seen = 0;
  Posting prev{};
  bool has_prev = false;
  auto check = [&](const Posting& posting, uint32_t index) -> Status {
    const bool new_doc = !has_prev || posting.doc_id != prev.doc_id;
    if (new_doc) ++docs_seen;
    if (new_doc || posting.node_id != prev.node_id) ++nodes_seen;
    if (has_prev) {
      if (posting.doc_id < prev.doc_id) {
        return Status::Corruption("posting list: doc ids out of order");
      }
      if (posting.doc_id == prev.doc_id) {
        if (posting.word_pos <= prev.word_pos) {
          return Status::Corruption(
              "posting list: word positions not strictly ascending");
        }
        if (posting.node_id < prev.node_id) {
          return Status::Corruption(
              "posting list: node ids out of order within a document");
        }
      }
    }
    prev = posting;
    has_prev = true;
    visit(posting, index, new_doc);
    return Status::OK();
  };
  if (!list.is_compressed()) {
    for (uint32_t i = 0; i < list.postings.size(); ++i) {
      TIX_RETURN_IF_ERROR(check(list.postings[i], i));
    }
  } else {
    if (list.skips.size() != list.num_blocks()) {
      return Status::Corruption(
          "posting list: block directory size mismatch");
    }
    Posting buffer[kSkipInterval];
    for (uint32_t b = 0; b < list.num_blocks(); ++b) {
      if (list.skips[b].offset != b * kSkipInterval) {
        return Status::Corruption("posting list: skip offsets not aligned");
      }
      TIX_RETURN_IF_ERROR(list.DecodeBlock(b, buffer));
      const uint32_t count = list.BlockPostingCount(b);
      for (uint32_t i = 0; i < count; ++i) {
        TIX_RETURN_IF_ERROR(check(buffer[i], b * kSkipInterval + i));
      }
    }
  }
  if (docs_seen != list.doc_frequency) {
    return Status::Corruption("posting list: doc_frequency mismatch");
  }
  if (nodes_seen != list.node_frequency) {
    return Status::Corruption("posting list: node_frequency mismatch");
  }
  return Status::OK();
}

/// Doc-offset entry of the first document >= `doc`.
DocOffsets::const_iterator DocEntryAtOrAfter(const PostingMetadata& metadata,
                                             storage::DocId doc) {
  return std::lower_bound(
      metadata.doc_offsets.begin(), metadata.doc_offsets.end(), doc,
      [](const std::pair<storage::DocId, uint32_t>& entry,
         storage::DocId target) { return entry.first < target; });
}

/// First-touch scrubs serialize on one of these stripes, keyed by the
/// list's address: concurrent first lookups of one list scrub it once,
/// while distinct lists mostly scrub in parallel.
std::mutex& ScrubMutex(const PostingList* list) {
  static std::array<std::mutex, 64> stripes;
  return stripes[(reinterpret_cast<uintptr_t>(list) / sizeof(PostingList)) %
                 stripes.size()];
}

}  // namespace

void PostingList::BuildSkips() {
  if (is_compressed()) {
    // Compressed metadata is authoritative: it was derived (and
    // validated) when the list was compressed or scrubbed, and cannot
    // be rebuilt from the (empty) decoded vector.
    return;
  }
  skips.clear();
  derived.Publish(nullptr);
  if (postings.empty()) return;
  skips.reserve(postings.size() / kSkipInterval + 1);
  DocOffsets doc_offsets;
  storage::DocId prev_doc = postings[0].doc_id + 1;  // != first doc
  for (uint32_t i = 0; i < postings.size(); ++i) {
    const Posting& posting = postings[i];
    if (i % kSkipInterval == 0) {
      skips.push_back(SkipEntry{posting.doc_id, posting.word_pos, i});
    }
    if (posting.doc_id != prev_doc) {
      doc_offsets.emplace_back(posting.doc_id, i);
      prev_doc = posting.doc_id;
    }
  }
  derived.Publish(MakeMetadata(std::move(doc_offsets),
                               static_cast<uint32_t>(postings.size())));
}

void PostingList::Compress() {
  if (is_compressed()) return;
  tail_format = codec::TailFormat::kV4;
  if (postings.empty()) {
    num_encoded = 0;
    blocks.clear();
    return;  // an empty list has no representation to convert
  }
  BuildSkips();
  blocks.clear();
  for (size_t b = 0; b < skips.size(); ++b) {
    const size_t begin = b * kSkipInterval;
    const size_t count = std::min<size_t>(kSkipInterval,
                                          postings.size() - begin);
    skips[b].first_node = postings[begin].node_id;
    skips[b].byte_offset = static_cast<uint32_t>(blocks.size());
    codec::EncodeBlockTail(tail_format, AsTriples(postings.data() + begin),
                           count, &blocks);
    skips[b].byte_length =
        static_cast<uint32_t>(blocks.size()) - skips[b].byte_offset;
  }
  blocks.shrink_to_fit();
  num_encoded = static_cast<uint32_t>(postings.size());
  cache_id = DecodedBlockCache::NextListId();
  postings.clear();
  postings.shrink_to_fit();
}

Status PostingList::DecodeBlock(uint32_t block, Posting* out) const {
  if (block >= skips.size()) {
    return Status::Corruption("posting block index out of range");
  }
  const SkipEntry& head = skips[block];
  const std::string_view bytes = block_bytes();
  const size_t begin = head.byte_offset;
  const size_t end = begin + head.byte_length;
  if (end > bytes.size()) {
    return Status::Corruption("posting block: byte range out of bounds");
  }
  out[0] = Posting{head.doc_id, head.first_node, head.word_pos};
  return codec::DecodeBlockTail(tail_format,
                                bytes.substr(begin, head.byte_length),
                                BlockPostingCount(block), AsTriples(out));
}

Status PostingList::Scrub() const {
  DocOffsets doc_offsets;
  doc_offsets.reserve(doc_frequency);
  TIX_RETURN_IF_ERROR(ForEachValidated(
      *this, [&doc_offsets](const Posting& posting, uint32_t index,
                            bool new_doc) {
        if (new_doc) doc_offsets.emplace_back(posting.doc_id, index);
      }));
  derived.Publish(
      MakeMetadata(std::move(doc_offsets), static_cast<uint32_t>(size())));
  return Status::OK();
}

std::vector<Posting> PostingList::DecodeAll() const {
  if (!is_compressed()) return postings;
  std::vector<Posting> out(num_encoded);
  for (uint32_t b = 0; b < num_blocks(); ++b) {
    const Status status =
        DecodeBlock(b, out.data() + size_t{b} * kSkipInterval);
    TIX_CHECK(status.ok()) << status.ToString();
  }
  return out;
}

size_t PostingList::PostingBytes() const {
  if (!is_compressed()) return postings.capacity() * sizeof(Posting);
  // Mapped bytes are file-backed, not heap-resident; IndexResidency
  // reports them separately as mapped_bytes.
  return is_mapped() ? 0 : blocks.capacity();
}

size_t PostingList::LowerBoundDoc(storage::DocId doc) const {
  if (doc == 0 || empty()) return 0;
  if (const PostingMetadata* metadata = this->metadata()) {
    const auto it = DocEntryAtOrAfter(*metadata, doc);
    return it == metadata->doc_offsets.end() ? size() : it->second;
  }
  // A compressed list always has metadata once it passed the gate
  // (InvertedIndex::Lookup); reaching here without is a caller bug.
  TIX_CHECK(!is_compressed()) << "compressed posting list read unscrubbed";
  // Acceleration structures not built (hand-assembled decoded list):
  // binary search the postings directly.
  const auto it = std::lower_bound(
      postings.begin(), postings.end(), doc,
      [](const Posting& posting, storage::DocId target) {
        return posting.doc_id < target;
      });
  return static_cast<size_t>(it - postings.begin());
}

uint32_t PostingList::DocPostingCount(storage::DocId doc) const {
  if (empty() || doc == UINT32_MAX) return 0;
  if (const PostingMetadata* metadata = this->metadata()) {
    const auto it = DocEntryAtOrAfter(*metadata, doc);
    if (it == metadata->doc_offsets.end() || it->first != doc) return 0;
    const uint32_t next = std::next(it) != metadata->doc_offsets.end()
                              ? std::next(it)->second
                              : static_cast<uint32_t>(size());
    return next - it->second;
  }
  const size_t lo = LowerBoundDoc(doc);
  if (lo >= postings.size() || postings[lo].doc_id != doc) return 0;
  return static_cast<uint32_t>(LowerBoundDoc(doc + 1) - lo);
}

storage::DocId PostingList::FirstDocAtOrAfter(storage::DocId doc) const {
  if (empty()) return UINT32_MAX;
  if (const PostingMetadata* metadata = this->metadata()) {
    const auto it = DocEntryAtOrAfter(*metadata, doc);
    return it == metadata->doc_offsets.end() ? UINT32_MAX : it->first;
  }
  const size_t pos = LowerBoundDoc(doc);
  return pos < postings.size() ? postings[pos].doc_id : UINT32_MAX;
}

PostingList::BlockBound PostingList::BlockBoundAt(storage::DocId from) const {
  if (empty()) return BlockBound{0, UINT32_MAX};
  const PostingMetadata* metadata = this->metadata();
  if (metadata == nullptr) {
    // No metadata: an unbounded estimate over a one-document window
    // keeps callers correct without pretending to know anything.
    return BlockBound{UINT32_MAX,
                      from == UINT32_MAX ? UINT32_MAX : from + 1};
  }
  const size_t pos = LowerBoundDoc(from);
  if (pos >= size()) return BlockBound{0, UINT32_MAX};
  const size_t block = pos / kSkipInterval;
  BlockBound bound;
  bound.max_doc_count = metadata->block_max[block];
  if (block + 1 < skips.size()) {
    // The next block's first doc may equal `from` when one document
    // straddles the boundary; clamp so the window always advances.
    bound.window_end = std::max(skips[block + 1].doc_id, from + 1);
  }
  return bound;
}

size_t PostingList::SkipForward(size_t from, storage::DocId doc,
                                uint32_t word_pos) const {
  if (skips.empty()) return from;
  const auto before_target = [doc, word_pos](const SkipEntry& entry) {
    return entry.doc_id < doc ||
           (entry.doc_id == doc && entry.word_pos < word_pos);
  };
  // Last skip entry whose block start is strictly before the target: all
  // postings before that block start are before the target too.
  const auto it =
      std::partition_point(skips.begin(), skips.end(), before_target);
  if (it == skips.begin()) return from;
  const size_t block_start = std::prev(it)->offset;
  return std::max(from, block_start);
}

Status PostingList::DebugCheckSorted() const {
  return ForEachValidated(*this, [](const Posting&, uint32_t, bool) {});
}

Result<InvertedIndex> InvertedIndex::Build(storage::Database* db,
                                           bool compress) {
  return BuildForDocRange(db, 0,
                          static_cast<storage::DocId>(db->documents().size()),
                          compress);
}

Result<InvertedIndex> InvertedIndex::BuildForDocRange(
    storage::Database* db, storage::DocId doc_begin, storage::DocId doc_end,
    bool compress) {
  const auto& documents = db->documents();
  if (doc_begin > doc_end || doc_end > documents.size()) {
    return Status::InvalidArgument("BuildForDocRange: bad doc range");
  }
  InvertedIndex out;
  out.tokenizer_options_ = db->tokenizer().options();
  out.stats_.num_documents = doc_end - doc_begin;
  if (doc_begin == doc_end) return out;
  const text::Tokenizer& tokenizer = db->tokenizer();

  // Track last (doc, node) seen per term to maintain frequencies without
  // extra passes. Postings arrive naturally sorted because node ids are
  // in document order and positions ascend within a text node.
  std::vector<storage::NodeId> last_node_of_term;
  std::vector<storage::DocId> last_doc_of_term;

  // Documents occupy contiguous, ascending node-id ranges in ingestion
  // order, so a doc range is one contiguous node scan.
  const storage::NodeId node_begin = documents[doc_begin].root;
  const storage::NodeId node_end =
      documents[doc_end - 1].root +
      static_cast<storage::NodeId>(documents[doc_end - 1].node_count);
  for (storage::NodeId id = node_begin; id < node_end; ++id) {
    TIX_ASSIGN_OR_RETURN(const storage::NodeRecord record, db->GetNode(id));
    if (!record.is_text() || record.blob_length == 0) continue;
    ++out.stats_.num_text_nodes;
    TIX_ASSIGN_OR_RETURN(const std::string data, db->TextOf(record));
    for (const text::Token& token : tokenizer.Tokenize(data)) {
      const text::TermId term = out.dictionary_.Intern(token.term);
      if (term >= out.lists_.size()) {
        out.lists_.resize(term + 1);
        last_node_of_term.resize(term + 1, storage::kInvalidNodeId);
        last_doc_of_term.resize(term + 1, UINT32_MAX);
      }
      PostingList& list = out.lists_[term];
      list.postings.push_back(
          Posting{record.doc_id, id, record.start + token.position});
      if (last_node_of_term[term] != id) {
        last_node_of_term[term] = id;
        ++list.node_frequency;
      }
      if (last_doc_of_term[term] != record.doc_id) {
        last_doc_of_term[term] = record.doc_id;
        ++list.doc_frequency;
      }
      ++out.stats_.num_postings;
    }
  }
  out.stats_.num_terms = out.lists_.size();
  for (PostingList& list : out.lists_) {
    TIX_RETURN_IF_ERROR(list.DebugCheckSorted());
    if (compress) {
      list.Compress();
    } else {
      list.BuildSkips();
    }
  }
  db->node_store().ResetCounters();
  return out;
}

Result<InvertedIndex> InvertedIndex::FromPostings(
    text::TokenizerOptions tokenizer_options,
    std::vector<std::pair<std::string, PostingList>> lists,
    uint64_t num_documents, uint64_t num_text_nodes) {
  InvertedIndex out;
  out.tokenizer_options_ = tokenizer_options;
  out.stats_.num_documents = num_documents;
  out.stats_.num_text_nodes = num_text_nodes;
  for (auto& [term, list] : lists) {
    const text::TermId id = out.dictionary_.Intern(term);
    if (id >= out.lists_.size()) out.lists_.resize(id + 1);
    PostingList& dst = out.lists_[id];
    if (!dst.postings.empty()) {
      return Status::InvalidArgument("FromPostings: duplicate term " + term);
    }
    dst.postings = std::move(list.postings);
    // Recompute collection statistics from scratch: the caller merged
    // and filtered postings, so any carried-over frequencies are stale.
    dst.doc_frequency = 0;
    dst.node_frequency = 0;
    storage::DocId last_doc = UINT32_MAX;
    storage::NodeId last_node = storage::kInvalidNodeId;
    for (const Posting& posting : dst.postings) {
      if (posting.doc_id != last_doc) {
        last_doc = posting.doc_id;
        ++dst.doc_frequency;
      }
      if (posting.node_id != last_node) {
        last_node = posting.node_id;
        ++dst.node_frequency;
      }
      ++out.stats_.num_postings;
    }
    TIX_RETURN_IF_ERROR(dst.DebugCheckSorted());
    dst.Compress();
  }
  out.stats_.num_terms = out.lists_.size();
  return out;
}

text::TermId InvertedIndex::FindId(std::string_view term) const {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  obs::Count(obs::Counter::kIndexLookups);
  const text::Tokenizer tokenizer(tokenizer_options_);
  return dictionary_.Lookup(tokenizer.Normalize(term));
}

Result<const PostingList*> InvertedIndex::Admit(text::TermId id) const {
  const PostingList& list = lists_[id];
  if (!list.is_compressed() || list.metadata() != nullptr) return &list;
  std::lock_guard<std::mutex> lock(ScrubMutex(&list));
  if (list.metadata() == nullptr) {
    const Status status = list.Scrub();
    if (!status.ok()) return ListCorruption(id, status);
    obs::Count(obs::Counter::kIndexListsScrubbed);
  }
  return &list;
}

Status InvertedIndex::ListCorruption(text::TermId id,
                                     const Status& status) const {
  return Status::Corruption("index list " + std::to_string(id) + " ('" +
                            dictionary_.TermOf(id) + "'): " + status.message());
}

Result<const PostingList*> InvertedIndex::Lookup(std::string_view term) const {
  const text::TermId id = FindId(term);
  if (id == text::kInvalidTermId) return nullptr;
  return Admit(id);
}

Result<const PostingList*> InvertedIndex::LookupId(text::TermId id) const {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  obs::Count(obs::Counter::kIndexLookups);
  if (id >= lists_.size()) return nullptr;
  return Admit(id);
}

Result<std::vector<Posting>> InvertedIndex::DecodeList(text::TermId id) const {
  std::vector<Posting> postings;
  if (id >= lists_.size()) return postings;
  postings.reserve(lists_[id].size());
  const Status status = ForEachValidated(
      lists_[id], [&postings](const Posting& posting, uint32_t, bool) {
        postings.push_back(posting);
      });
  if (!status.ok()) return ListCorruption(id, status);
  return postings;
}

uint64_t InvertedIndex::TermFrequency(std::string_view term) const {
  const text::TermId id = FindId(term);
  return id == text::kInvalidTermId ? 0 : lists_[id].size();
}

double InvertedIndex::InverseDocumentFrequency(std::string_view term) const {
  const text::TermId id = FindId(term);
  const uint64_t df =
      id == text::kInvalidTermId ? 0 : lists_[id].doc_frequency;
  return std::log(static_cast<double>(stats_.num_documents + 1) /
                  static_cast<double>(df + 1)) +
         1.0;
}

std::vector<std::string> InvertedIndex::TermsWithFrequencyBetween(
    uint64_t lo, uint64_t hi) const {
  std::vector<std::pair<uint64_t, text::TermId>> matches;
  for (text::TermId id = 0; id < lists_.size(); ++id) {
    const uint64_t count = lists_[id].size();
    if (count >= lo && count <= hi) matches.emplace_back(count, id);
  }
  std::sort(matches.begin(), matches.end());
  std::vector<std::string> terms;
  terms.reserve(matches.size());
  for (const auto& [count, id] : matches) {
    terms.push_back(dictionary_.TermOf(id));
  }
  return terms;
}

IndexResidency InvertedIndex::MemoryUsage() const {
  IndexResidency out;
  for (const PostingList& list : lists_) {
    out.postings_bytes += list.PostingBytes();
    out.skip_bytes += list.skips.capacity() * sizeof(SkipEntry);
    if (const PostingMetadata* metadata = list.metadata()) {
      out.metadata_bytes +=
          sizeof(PostingMetadata) +
          metadata->doc_offsets.capacity() * sizeof(metadata->doc_offsets[0]) +
          metadata->block_max.capacity() * sizeof(uint32_t);
      ++out.lists_with_metadata;
    }
    out.num_postings += list.size();
    if (list.is_compressed()) {
      ++out.compressed_lists;
      if (list.is_mapped()) {
        out.mapped_bytes += list.mapped_blocks.size();
        ++out.mapped_lists;
      }
    } else if (!list.postings.empty()) {
      ++out.decoded_lists;
    }
  }
  return out;
}

Status InvertedIndex::SaveToFile(const std::string& path,
                                 int target_version) const {
  if (target_version != 0 && target_version != 3 && target_version != 4) {
    return Status::InvalidArgument("SaveToFile: unsupported target version " +
                                   std::to_string(target_version));
  }
  const codec::TailFormat target =
      target_version == 0 ? tail_format_
      : target_version == 3 ? codec::TailFormat::kV3
                            : codec::TailFormat::kV4;
  std::string blob;
  PutVarint64(&blob, target == codec::TailFormat::kV3 ? kIndexMagicV3
                                                      : kIndexMagicV4);
  PutVarint64(&blob, kSkipInterval);
  // Tokenizer options (must match at load).
  blob.push_back(tokenizer_options_.lowercase ? 1 : 0);
  blob.push_back(tokenizer_options_.remove_stopwords ? 1 : 0);
  blob.push_back(tokenizer_options_.stem ? 1 : 0);
  PutVarint64(&blob, tokenizer_options_.min_token_length);

  const std::string dict = dictionary_.Serialize();
  PutVarint64(&blob, dict.size());
  blob += dict;

  PutVarint64(&blob, lists_.size());
  std::string tail;  // scratch for encoding decoded lists
  for (const PostingList& list : lists_) {
    PutVarint64(&blob, list.size());
    PutVarint64(&blob, list.doc_frequency);
    PutVarint64(&blob, list.node_frequency);
    if (list.is_compressed() && list.tail_format == target) {
      // The in-memory block encoding *is* the wire encoding: copy the
      // tails verbatim (from the owned buffer or the mapping alike).
      const std::string_view bytes = list.block_bytes();
      for (const SkipEntry& head : list.skips) {
        PutVarint32(&blob, head.doc_id);
        PutVarint32(&blob, head.first_node);
        PutVarint32(&blob, head.word_pos);
        PutVarint64(&blob, head.byte_length);
        blob.append(bytes.substr(head.byte_offset, head.byte_length));
      }
    } else if (list.is_compressed()) {
      // Resident tails are in the other format: transcode one block at a
      // time through a stack window (never the whole list).
      Posting window[kSkipInterval];
      for (uint32_t b = 0; b < list.num_blocks(); ++b) {
        TIX_RETURN_IF_ERROR(list.DecodeBlock(b, window));
        const uint32_t count = list.BlockPostingCount(b);
        const Posting& head = window[0];
        PutVarint32(&blob, head.doc_id);
        PutVarint32(&blob, head.node_id);
        PutVarint32(&blob, head.word_pos);
        tail.clear();
        codec::EncodeBlockTail(target, AsTriples(window), count, &tail);
        PutVarint64(&blob, tail.size());
        blob += tail;
      }
    } else {
      for (size_t begin = 0; begin < list.postings.size();
           begin += kSkipInterval) {
        const size_t count =
            std::min<size_t>(kSkipInterval, list.postings.size() - begin);
        const Posting& head = list.postings[begin];
        PutVarint32(&blob, head.doc_id);
        PutVarint32(&blob, head.node_id);
        PutVarint32(&blob, head.word_pos);
        tail.clear();
        codec::EncodeBlockTail(target,
                               AsTriples(list.postings.data() + begin),
                               count, &tail);
        PutVarint64(&blob, tail.size());
        blob += tail;
      }
    }
  }
  PutVarint64(&blob, stats_.num_documents);
  PutVarint64(&blob, stats_.num_text_nodes);

  // Write-then-rename so a crash mid-save never leaves a half-written
  // index at the published path.
  return storage::AtomicWriteFile(path, blob);
}

Result<InvertedIndex> InvertedIndex::LoadFromFile(const std::string& path,
                                                  IndexLoadOptions options) {
  // Map the file and sniff the version first: a block-format index (v3
  // or v4) is served straight from the mapping, so open never read()s
  // the posting bytes at all. Legacy formats, decoded loads, and mmap
  // failures fall back to one exactly-sized read into an owned buffer
  // (never the old stream-into-ostringstream double buffer, which
  // peaked at 2x the file size).
  std::shared_ptr<storage::MappedFile> mapping;
  if (!options.decode_postings && options.prefer_mmap) {
    Result<std::shared_ptr<storage::MappedFile>> mapped =
        storage::MappedFile::Open(path);
    if (mapped.ok()) {
      std::string_view sniff = (*mapped)->data();
      const Result<uint64_t> sniffed_magic = GetVarint64(&sniff);
      if (sniffed_magic.ok() && (*sniffed_magic == kIndexMagicV3 ||
                                 *sniffed_magic == kIndexMagicV4)) {
        mapping = std::move(*mapped);
      }
    }
  }
  std::string owned;
  if (mapping == nullptr) {
    TIX_ASSIGN_OR_RETURN(owned, storage::ReadFileToString(path));
  }
  std::string_view blob =
      mapping == nullptr ? std::string_view(owned) : mapping->data();

  InvertedIndex out;
  TIX_ASSIGN_OR_RETURN(const uint64_t magic, GetVarint64(&blob));
  if (magic != kIndexMagicV4 && magic != kIndexMagicV3 &&
      magic != kIndexMagicV2 && magic != kIndexMagicV1) {
    return Status::Corruption("bad index magic");
  }
  const bool block_format = magic == kIndexMagicV3 || magic == kIndexMagicV4;
  out.format_version_ = magic == kIndexMagicV4   ? 4
                        : magic == kIndexMagicV3 ? 3
                        : magic == kIndexMagicV2 ? 2
                                                 : 1;
  // Legacy flat formats are transcoded into v4 blocks below; a v3 file
  // keeps its tails verbatim so SaveToFile round-trips byte-identically.
  out.tail_format_ = magic == kIndexMagicV3 ? codec::TailFormat::kV3
                                            : codec::TailFormat::kV4;
  if (magic != kIndexMagicV1) {
    TIX_ASSIGN_OR_RETURN(const uint64_t skip_interval, GetVarint64(&blob));
    if (skip_interval == 0) {
      return Status::Corruption("index header: zero skip interval");
    }
    if (block_format && skip_interval != kSkipInterval) {
      // In versions 3/4 the interval is the physical block geometry, not
      // a derived-data hint; SaveToFile only ever writes kSkipInterval.
      return Status::Corruption("index header: unsupported skip interval " +
                                std::to_string(skip_interval));
    }
  }
  if (blob.size() < 3) return Status::Corruption("index truncated");
  out.tokenizer_options_.lowercase = blob[0] != 0;
  out.tokenizer_options_.remove_stopwords = blob[1] != 0;
  out.tokenizer_options_.stem = blob[2] != 0;
  blob.remove_prefix(3);
  TIX_ASSIGN_OR_RETURN(const uint64_t min_len, GetVarint64(&blob));
  out.tokenizer_options_.min_token_length = min_len;

  TIX_ASSIGN_OR_RETURN(const uint64_t dict_size, GetVarint64(&blob));
  if (blob.size() < dict_size) return Status::Corruption("index truncated");
  TIX_ASSIGN_OR_RETURN(
      out.dictionary_,
      text::TermDictionary::Deserialize(blob.substr(0, dict_size)));
  blob.remove_prefix(dict_size);

  TIX_ASSIGN_OR_RETURN(const uint64_t num_lists, GetVarint64(&blob));
  // Sanity bounds before any allocation: each list costs at least one
  // byte (its count varint), and each posting at least one byte (block
  // heads cost more). A corrupt count would otherwise turn resize() /
  // reserve() into a multi-gigabyte bad_alloc.
  if (num_lists > blob.size()) {
    return Status::Corruption("index header: list count " +
                              std::to_string(num_lists) +
                              " exceeds remaining blob size");
  }
  if (num_lists != out.dictionary_.size()) {
    return Status::Corruption("index header: list count " +
                              std::to_string(num_lists) +
                              " does not match dictionary size " +
                              std::to_string(out.dictionary_.size()));
  }
  out.lists_.resize(num_lists);
  for (uint64_t i = 0; i < num_lists; ++i) {
    PostingList& list = out.lists_[i];
    TIX_ASSIGN_OR_RETURN(const uint64_t count, GetVarint64(&blob));
    TIX_ASSIGN_OR_RETURN(const uint64_t df, GetVarint64(&blob));
    TIX_ASSIGN_OR_RETURN(const uint64_t nf, GetVarint64(&blob));
    if (count > blob.size() || count > UINT32_MAX) {
      return Status::Corruption("index list " + std::to_string(i) +
                                ": posting count " + std::to_string(count) +
                                " exceeds remaining blob size");
    }
    if (df > count || nf > count || df > nf) {
      return Status::Corruption("index list " + std::to_string(i) +
                                ": implausible frequencies");
    }
    list.doc_frequency = static_cast<uint32_t>(df);
    list.node_frequency = static_cast<uint32_t>(nf);
    list.tail_format = out.tail_format_;
    if (block_format) {
      // Versions 3/4: the in-memory block encoding is the wire encoding.
      // Mapped open records views into the file (byte offsets relative
      // to this list's own region, skipping over the interleaved head
      // varints); the copy fallback appends the tails into an owned
      // buffer. Neither materializes a posting.
      const uint32_t nblocks =
          count == 0
              ? 0
              : static_cast<uint32_t>((count + kSkipInterval - 1) /
                                      kSkipInterval);
      list.skips.reserve(nblocks);
      const char* const list_base = blob.data();
      for (uint32_t b = 0; b < nblocks; ++b) {
        TIX_ASSIGN_OR_RETURN(const uint32_t first_doc, GetVarint32(&blob));
        TIX_ASSIGN_OR_RETURN(const uint32_t first_node, GetVarint32(&blob));
        TIX_ASSIGN_OR_RETURN(const uint32_t first_pos, GetVarint32(&blob));
        TIX_ASSIGN_OR_RETURN(const uint64_t tail_bytes, GetVarint64(&blob));
        if (tail_bytes > blob.size()) {
          return Status::Corruption("index list " + std::to_string(i) +
                                    ": block tail exceeds blob size");
        }
        const size_t tail_offset =
            mapping != nullptr
                ? static_cast<size_t>(blob.data() - list_base)
                : list.blocks.size();
        if (tail_offset > UINT32_MAX || tail_bytes > UINT32_MAX) {
          return Status::Corruption("index list " + std::to_string(i) +
                                    ": byte region exceeds 4 GiB");
        }
        list.skips.push_back(SkipEntry{first_doc, first_pos,
                                       b * kSkipInterval, first_node,
                                       static_cast<uint32_t>(tail_offset),
                                       static_cast<uint32_t>(tail_bytes)});
        if (mapping == nullptr) list.blocks.append(blob.data(), tail_bytes);
        blob.remove_prefix(tail_bytes);
      }
      if (mapping != nullptr) {
        list.mapped_blocks = std::string_view(
            list_base, static_cast<size_t>(blob.data() - list_base));
      } else {
        // Incremental append grows capacity geometrically (up to ~2x
        // the final size); drop the slack — these bytes stay resident
        // for the index's whole lifetime and are what MemoryUsage()
        // reports.
        list.blocks.shrink_to_fit();
      }
      list.num_encoded = static_cast<uint32_t>(count);
    } else if (!options.decode_postings) {
      // Versions 1/2 store flat delta-coded postings; transcode through
      // a one-block window so even legacy loads never materialize the
      // whole vector.
      Posting window[kSkipInterval];
      size_t fill = 0;
      uint32_t block_base = 0;
      uint32_t prev_doc = 0;
      uint32_t prev_node = 0;
      uint32_t prev_pos = 0;
      for (uint64_t j = 0; j < count; ++j) {
        TIX_ASSIGN_OR_RETURN(const uint32_t doc_delta, GetVarint32(&blob));
        if (doc_delta != 0) {
          prev_node = 0;
          prev_pos = 0;
        }
        TIX_ASSIGN_OR_RETURN(const uint32_t node_delta, GetVarint32(&blob));
        TIX_ASSIGN_OR_RETURN(const uint32_t pos_delta, GetVarint32(&blob));
        prev_doc += doc_delta;
        prev_node += node_delta;
        prev_pos += pos_delta;
        window[fill++] = Posting{prev_doc, prev_node, prev_pos};
        if (fill == kSkipInterval || j + 1 == count) {
          SkipEntry entry{window[0].doc_id, window[0].word_pos, block_base,
                          window[0].node_id,
                          static_cast<uint32_t>(list.blocks.size())};
          codec::EncodeBlockTail(codec::TailFormat::kV4, AsTriples(window),
                                 fill, &list.blocks);
          entry.byte_length =
              static_cast<uint32_t>(list.blocks.size()) - entry.byte_offset;
          list.skips.push_back(entry);
          block_base += static_cast<uint32_t>(fill);
          fill = 0;
        }
      }
      list.blocks.shrink_to_fit();  // same slack-drop as the v3 path
      list.num_encoded = static_cast<uint32_t>(count);
    } else {
      list.postings.reserve(count);
      uint32_t prev_doc = 0;
      uint32_t prev_node = 0;
      uint32_t prev_pos = 0;
      for (uint64_t j = 0; j < count; ++j) {
        TIX_ASSIGN_OR_RETURN(const uint32_t doc_delta, GetVarint32(&blob));
        if (doc_delta != 0) {
          prev_node = 0;
          prev_pos = 0;
        }
        TIX_ASSIGN_OR_RETURN(const uint32_t node_delta, GetVarint32(&blob));
        TIX_ASSIGN_OR_RETURN(const uint32_t pos_delta, GetVarint32(&blob));
        Posting posting;
        posting.doc_id = prev_doc + doc_delta;
        posting.node_id = prev_node + node_delta;
        posting.word_pos = prev_pos + pos_delta;
        list.postings.push_back(posting);
        prev_doc = posting.doc_id;
        prev_node = posting.node_id;
        prev_pos = posting.word_pos;
      }
    }
    out.stats_.num_postings += count;
  }
  out.stats_.num_terms = num_lists;
  TIX_ASSIGN_OR_RETURN(out.stats_.num_documents, GetVarint64(&blob));
  TIX_ASSIGN_OR_RETURN(out.stats_.num_text_nodes, GetVarint64(&blob));
  if (!blob.empty()) {
    return Status::Corruption("index blob has " +
                              std::to_string(blob.size()) +
                              " trailing bytes");
  }
  // Legacy formats always take the scrub: the transcode above decoded
  // every posting anyway, so validation is nearly free there. Only a
  // v3/v4 open has an O(bytes) scrub worth deferring to each list's
  // first lookup (trust mode; see InvertedIndex::Lookup).
  const bool verify = options.verify_on_open || options.decode_postings ||
                      out.format_version_ < 3;
  for (PostingList& list : out.lists_) {
    if (!list.postings.empty()) {
      // Legacy decoded load.
      TIX_RETURN_IF_ERROR(list.DebugCheckSorted());
      list.BuildSkips();
      continue;
    }
    if (!list.is_compressed()) continue;  // empty list
    list.cache_id = DecodedBlockCache::NextListId();
    if (verify) TIX_RETURN_IF_ERROR(list.Scrub());
    if (options.decode_postings) {
      // Validated above; now expand to the legacy representation and
      // drop the compressed one.
      list.postings = list.DecodeAll();
      list.blocks.clear();
      list.blocks.shrink_to_fit();
      list.mapped_blocks = std::string_view();
      list.num_encoded = 0;
      // 0 is the "never cached" sentinel: NextListId() never mints it
      // and the DecodedBlockCache rejects it, so a decoded-then-reused
      // list can never alias another list's cached blocks.
      list.cache_id = 0;
      TIX_RETURN_IF_ERROR(list.DebugCheckSorted());
      list.BuildSkips();
    }
  }
  if (mapping != nullptr) out.mapping_ = std::move(mapping);
  return out;
}

}  // namespace tix::index
