#ifndef TIX_INDEX_INVERTED_INDEX_H_
#define TIX_INDEX_INVERTED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/block_codec.h"
#include "common/macros.h"
#include "common/result.h"
#include "storage/database.h"
#include "text/term_dictionary.h"

/// \file
/// The inverted index of Sec. 5.1: term -> postings of
/// (doc, text node, word offset), sorted in document order. Word offsets
/// live in the same coordinate space as node intervals, which is what
/// lets TermJoin merge postings against the structure and lets
/// PhraseFinder verify adjacency without touching the stored text.
///
/// On-disk format (versions 3 and 4, see kIndexMagic / kIndexMagicV4):
///   varint magic
///   varint skip_interval          -- physical block geometry (must equal
///                                    kSkipInterval for versions 3/4)
///   byte lowercase, byte remove_stopwords, byte stem
///   varint min_token_length
///   varint dict_size, dict bytes
///   varint num_lists, then per list:
///     varint num_postings, varint doc_frequency, varint node_frequency
///     per 128-posting block:
///       varint first_doc, varint first_node, varint first_pos
///       varint tail_bytes, then the block tail: successors delta coded
///       as (doc_delta, node_delta, pos_delta) — LEB128 varints in
///       version 3, a StreamVByte-style control/data split in version 4;
///       see common/block_codec.h
///   varint num_documents, varint num_text_nodes
/// The two block formats differ only in tail bytes; everything else is
/// byte-identical. Block-format lists stay compressed in memory — and,
/// because the in-memory tail encoding is byte-identical to the on-disk
/// one, LoadFromFile mmaps the file read-only and serves posting blocks
/// straight from the mapping (no copy, no posting materialization; see
/// storage/mapped_file.h). The streaming validation pass that derives
/// `doc_offsets` / block-max metadata is optional
/// (IndexLoadOptions::verify_on_open); skipping it makes open O(lists)
/// instead of O(bytes). Versions 1 and 2 (flat delta-coded postings,
/// derived skips) are still read: their postings are transcoded into
/// owned v4 blocks through a 128-posting window, so even legacy loads
/// never hold a full decoded vector.

namespace tix::storage {
class MappedFile;
}  // namespace tix::storage

namespace tix::index {

/// One occurrence of a term.
struct Posting {
  storage::DocId doc_id = 0;
  /// Text node containing the occurrence.
  storage::NodeId node_id = storage::kInvalidNodeId;
  /// Absolute word position: text_node.start + position-in-node.
  uint32_t word_pos = 0;

  friend bool operator==(const Posting&, const Posting&) = default;
};

/// Ordering key used throughout the merge algorithms.
inline bool PostingLess(const Posting& a, const Posting& b) {
  if (a.doc_id != b.doc_id) return a.doc_id < b.doc_id;
  return a.word_pos < b.word_pos;
}

/// Every kSkipInterval postings, one skip entry records the first
/// (doc, word_pos) of the block so merges can leap whole blocks.
constexpr uint32_t kSkipInterval = 128;

struct SkipEntry {
  storage::DocId doc_id = 0;
  uint32_t word_pos = 0;
  /// Index of the block's first posting in `postings`.
  uint32_t offset = 0;
  /// Block-max score metadata: the largest *total* per-document posting
  /// count, over all documents with at least one posting in this block.
  /// A document's count is its count in the whole list, not just the
  /// slice inside the block, so the value upper-bounds the term's
  /// contribution to any element of any document the block touches —
  /// exactly what a top-K merge needs to discard the block against a
  /// score floor without decoding it.
  uint32_t max_doc_count = 0;
  /// Block-compressed lists only: node id of the block's first posting.
  /// The head triple (doc_id, first_node, word_pos) lives here — not in
  /// the byte stream — so seeks read it without any decode. Zero on
  /// decoded lists.
  storage::NodeId first_node = 0;
  /// Block-compressed lists only: byte offset of the block's tail in
  /// PostingList::block_bytes(). Offsets are relative to the list's own
  /// byte region, never to the containing file.
  uint32_t byte_offset = 0;
  /// Block-compressed lists only: length of the block's tail in bytes.
  /// Owned `blocks` strings pack tails back to back, but a list mapped
  /// straight from a v3 file keeps the on-disk layout, where the next
  /// block's head varints sit between the tails — so the tail length
  /// must be stored explicitly instead of derived from the next offset.
  uint32_t byte_length = 0;
};

/// All occurrences of one term plus its collection statistics.
///
/// A list lives in one of two representations:
///  - *decoded*: `postings` holds every occurrence (hand-built lists in
///    tests/benches, and the legacy load mode). `skips`/`doc_offsets`
///    are optional acceleration structures derived by BuildSkips();
///    every accessor degrades to a plain binary/linear search when they
///    are absent, so hand-built lists need no extra setup.
///  - *block-compressed* (Compress(), or any LoadFromFile): `postings`
///    is empty and the occurrences live delta+varint coded in `blocks`,
///    one tail per kSkipInterval-aligned block, with each block's first
///    posting and byte offset in its SkipEntry. Readers touch postings
///    only through BlockCursor (or DecodeAll), which decodes one block
///    at a time; the seek paths (LowerBoundDoc / SkipForward /
///    BlockBoundAt / DocPostingCount / FirstDocAtOrAfter) run entirely
///    on skip metadata and never decode.
struct PostingList {
  /// Decoded representation; empty once compressed.
  std::vector<Posting> postings;
  /// Number of distinct documents containing the term.
  uint32_t doc_frequency = 0;
  /// Number of distinct text nodes containing the term.
  uint32_t node_frequency = 0;

  /// Block-compressed representation: concatenated block tails (see
  /// common/block_codec.h). Meaningful only when `is_compressed()` and
  /// the list owns its bytes; a mapped list leaves this empty and reads
  /// through `mapped_blocks` instead.
  std::string blocks;
  /// Non-owning view of the list's byte region inside a MappedFile (the
  /// InvertedIndex holds the mapping reference; views stay valid for the
  /// index's lifetime). The region is the on-disk list layout, so block
  /// tails are addressed by SkipEntry::{byte_offset, byte_length} and
  /// the interleaved head varints are simply skipped over. Empty data()
  /// means the list owns its bytes in `blocks`.
  std::string_view mapped_blocks;
  /// Posting count of the compressed representation.
  uint32_t num_encoded = 0;
  /// Process-unique identity in the DecodedBlockCache (0 = never
  /// cached). Minted by Compress()/FinishCompressed(), never reused.
  uint64_t cache_id = 0;
  /// Wire encoding of the block tails: kV4 for lists compressed in
  /// memory, whatever the loader found otherwise (meaningless on decoded
  /// lists). DecodeBlock dispatches on it, so a process can serve v3 and
  /// v4 lists side by side (e.g. a legacy v3 segment beside new ones).
  codec::TailFormat tail_format = codec::TailFormat::kV4;

  /// Block-level skip entries: one per kSkipInterval postings. Required
  /// (and always present) on compressed lists, where they double as the
  /// block directory.
  std::vector<SkipEntry> skips;
  /// (doc_id, offset of the doc's first posting), one entry per distinct
  /// document — makes doc-range partitioning an O(log n) slice.
  std::vector<std::pair<storage::DocId, uint32_t>> doc_offsets;
  /// List-level bound: the largest per-document posting count anywhere
  /// in the list (0 when empty or when BuildSkips has not run).
  uint32_t max_doc_count = 0;

  bool is_compressed() const { return postings.empty() && num_encoded > 0; }
  /// True when the compressed bytes live in a memory-mapped file rather
  /// than an owned buffer.
  bool is_mapped() const { return mapped_blocks.data() != nullptr; }
  /// The compressed byte region, wherever it lives. All block decoding
  /// goes through this accessor so owned and mapped lists share one
  /// code path.
  std::string_view block_bytes() const {
    return is_mapped() ? mapped_blocks : std::string_view(blocks);
  }
  size_t size() const {
    return postings.empty() ? num_encoded : postings.size();
  }
  bool empty() const { return size() == 0; }

  /// Number of skip blocks in the compressed representation.
  uint32_t num_blocks() const {
    return (num_encoded + kSkipInterval - 1) / kSkipInterval;
  }
  /// Postings in block `block` (the last block may be short).
  uint32_t BlockPostingCount(uint32_t block) const {
    const uint32_t begin = block * kSkipInterval;
    return num_encoded - begin < kSkipInterval ? num_encoded - begin
                                               : kSkipInterval;
  }

  /// (Re)derives `skips` and `doc_offsets` from `postings`. No-op on a
  /// compressed list (its metadata was derived when it was compressed
  /// and must not be rebuilt from the empty vector).
  void BuildSkips();

  /// Converts a decoded list to the block-compressed representation:
  /// derives skip metadata, encodes the blocks as v4 tails, then frees
  /// `postings`. The list must satisfy DebugCheckSorted().
  void Compress();

  /// Finishes a list whose compressed fields (`blocks`, `num_encoded`,
  /// per-block SkipEntry head/byte_offset, frequencies) were populated
  /// externally (the loader): one streaming decode pass validates block
  /// framing and posting order, and derives `doc_offsets` plus block-max
  /// metadata. Returns Corruption on any violation.
  Status FinishCompressed();

  /// Decodes block `block` into `out` (capacity >= BlockPostingCount).
  /// Cannot fail on a list validated by FinishCompressed()/Compress();
  /// returns Corruption on inconsistent framing otherwise.
  Status DecodeBlock(uint32_t block, Posting* out) const;

  /// Materializes every posting (tests, legacy load mode). Identity on
  /// a decoded list. Aborts on an unvalidated corrupt list.
  std::vector<Posting> DecodeAll() const;

  /// Bytes resident for this list's postings: the decoded vector, or
  /// the compressed block bytes. Skip/doc-offset metadata is reported
  /// separately by InvertedIndex::MemoryUsage().
  size_t PostingBytes() const;

  /// Index of the first posting with doc_id >= doc. Uses `doc_offsets`
  /// when built; on a compressed list without them (trust-mode open)
  /// the skip directory narrows the target to one block, which is
  /// decoded on the spot; else binary-searches the postings directly.
  size_t LowerBoundDoc(storage::DocId doc) const;

  /// First index >= `from` whose posting is at or beyond
  /// (doc, word_pos), jumping over whole skip blocks. The returned index
  /// is a *lower bound for the jump*: postings[result-1] (if any and
  /// >= from) is strictly before the target, but the caller must still
  /// step/verify from `result` (blocks are only block-aligned).
  size_t SkipForward(size_t from, storage::DocId doc,
                     uint32_t word_pos) const;

  /// Exact number of postings for `doc`. O(log n) via doc_offsets (or a
  /// direct binary search when they are absent).
  uint32_t DocPostingCount(storage::DocId doc) const;

  /// Smallest doc id >= `doc` with at least one posting, or UINT32_MAX
  /// when none. Pure metadata on lists with doc_offsets — never decodes
  /// a block (the top-K oracle's candidate hop). Trust-mode lists
  /// decode at most two blocks.
  storage::DocId FirstDocAtOrAfter(storage::DocId doc) const;

  /// Upper bound on the per-document posting count for every document in
  /// [`from`, returned `window_end`), derived from the skip block that
  /// covers the first posting at or after `from`.
  struct BlockBound {
    /// Safe upper bound on any document's total count in the window.
    uint32_t max_doc_count = 0;
    /// First doc id past the window; UINT32_MAX when the window extends
    /// to the end of the list (or the list is exhausted at `from`).
    storage::DocId window_end = UINT32_MAX;
  };

  /// Without skip metadata (hand-built list) the bound degrades to
  /// {UINT32_MAX, from + 1}: never wrong, never useful — callers fall
  /// back to exact per-doc counts.
  BlockBound BlockBoundAt(storage::DocId from) const;

  /// Validates the invariants every merge relies on: postings strictly
  /// ascending by (doc_id, word_pos), node ids non-decreasing within a
  /// document, and doc/node frequencies consistent with the postings.
  /// Works on either representation (a compressed list is stream-decoded
  /// block by block). Returns Corruption on violation so a bad on-disk
  /// index fails loudly instead of silently mis-merging.
  Status DebugCheckSorted() const;
};

struct IndexStats {
  uint64_t num_terms = 0;
  uint64_t num_postings = 0;
  uint64_t num_documents = 0;
  uint64_t num_text_nodes = 0;
};

/// Resident-memory breakdown of an index (tix_cli stats, bench_index).
struct IndexResidency {
  /// Posting storage: decoded vectors plus *owned* compressed block
  /// bytes. Mapped block bytes are excluded — they are file-backed
  /// pages the OS can drop, not heap — and reported in `mapped_bytes`.
  uint64_t postings_bytes = 0;
  /// Skip entries (block directory + block-max metadata).
  uint64_t skip_bytes = 0;
  /// Per-document boundary offsets.
  uint64_t doc_offset_bytes = 0;
  /// Block bytes served from a read-only mmap (see storage/mapped_file.h).
  uint64_t mapped_bytes = 0;
  uint64_t num_postings = 0;
  uint64_t compressed_lists = 0;
  uint64_t mapped_lists = 0;   ///< Compressed lists backed by a mapping.
  uint64_t decoded_lists = 0;  ///< Non-empty lists in decoded form.

  uint64_t total_bytes() const {
    return postings_bytes + skip_bytes + doc_offset_bytes;
  }
  /// The headline compression figure: posting-storage bytes per posting
  /// (metadata excluded — it is identical in both representations).
  double posting_bytes_per_posting() const {
    return num_postings == 0
               ? 0.0
               : static_cast<double>(postings_bytes) /
                     static_cast<double>(num_postings);
  }
};

struct IndexLoadOptions {
  /// Decode every list into the legacy std::vector<Posting>
  /// representation instead of keeping blocks compressed. The
  /// equivalence baseline in tests; production loads leave this off.
  /// Implies a full validation pass and disables mmap (decoded lists
  /// own their postings outright).
  bool decode_postings = false;
  /// Run the streaming scrub (FinishCompressed) on every list at open:
  /// validates block framing and posting order and derives doc_offsets
  /// plus block-max metadata — an O(bytes) decode of the whole index.
  /// When off ("trust mode": tixd restart of an index it just sealed),
  /// open cost is O(lists): headers and the block directory are parsed,
  /// blocks are mapped but never decoded, doc_offsets stay empty (seek
  /// paths lazily decode single blocks instead) and block-max bounds
  /// degrade to the never-prune sentinel UINT32_MAX, so query results
  /// are byte-identical either way. `tix_cli verify` forces this on.
  bool verify_on_open = true;
  /// Map v3 files read-only and decode in place instead of copying the
  /// block bytes into owned buffers. Benches turn this off to measure
  /// the copy-load baseline; mmap failure falls back to copying
  /// automatically.
  bool prefer_mmap = true;
};

/// Memory-resident inverted index with on-disk persistence (delta +
/// varint coded), in the tradition of IR engines: the dictionary and
/// postings are loaded once and shared read-only by all queries.
/// Lookup paths are const and safe to call from concurrent query
/// threads; the instrumentation counter is atomic.
class InvertedIndex {
 public:
  InvertedIndex() = default;
  TIX_DISALLOW_COPY_AND_ASSIGN(InvertedIndex);
  InvertedIndex(InvertedIndex&& other) noexcept { *this = std::move(other); }
  /// Move leaves `other` in the documented valid-empty state: no terms,
  /// zeroed statistics and counters, default tokenizer options — i.e.
  /// indistinguishable from a freshly constructed index, so reusing a
  /// moved-from instance (Lookup misses, stats all zero, re-Build) is
  /// well defined.
  InvertedIndex& operator=(InvertedIndex&& other) noexcept {
    if (this != &other) {
      dictionary_ = std::move(other.dictionary_);
      lists_ = std::move(other.lists_);
      mapping_ = std::move(other.mapping_);
      stats_ = other.stats_;
      tokenizer_options_ = other.tokenizer_options_;
      format_version_ = other.format_version_;
      tail_format_ = other.tail_format_;
      lookups_.store(other.lookups_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      // Moved-from containers are only "valid but unspecified"; reset
      // everything explicitly so the source is truly empty.
      other.dictionary_ = text::TermDictionary();
      other.lists_.clear();
      other.mapping_.reset();
      other.stats_ = IndexStats();
      other.tokenizer_options_ = text::TokenizerOptions();
      other.format_version_ = kCurrentFormatVersion;
      other.tail_format_ = codec::TailFormat::kV4;
      other.lookups_.store(0, std::memory_order_relaxed);
    }
    return *this;
  }

  /// Newest on-disk format version written by SaveToFile.
  static constexpr int kCurrentFormatVersion = 4;

  /// Builds the index with one scan of the database's text nodes, using
  /// the database's tokenizer so index terms match load-time numbering.
  /// Lists are block-compressed by default; `compress = false` keeps the
  /// decoded vectors (the equivalence baseline in tests).
  static Result<InvertedIndex> Build(storage::Database* db,
                                     bool compress = true);

  /// Builds an index covering only documents [doc_begin, doc_end).
  /// Documents are appended to the node store in doc-id order, so the
  /// range maps to one contiguous node scan. This is how the segmented
  /// index seals its write buffer: each sealed segment is a full
  /// InvertedIndex over a disjoint slice of the doc-id space.
  /// stats().num_documents counts the documents in the range (including
  /// ones with no indexable text).
  static Result<InvertedIndex> BuildForDocRange(
      storage::Database* db, storage::DocId doc_begin, storage::DocId doc_end,
      bool compress = true);

  /// Assembles an index from externally merged posting lists (segment
  /// compaction). Each entry is (term, decoded PostingList); postings
  /// must be strictly ascending by (doc, word_pos). Doc/node frequencies
  /// are recomputed here, every list is validated and block-compressed,
  /// and `num_documents` / `num_text_nodes` become the index statistics.
  static Result<InvertedIndex> FromPostings(
      text::TokenizerOptions tokenizer_options,
      std::vector<std::pair<std::string, PostingList>> lists,
      uint64_t num_documents, uint64_t num_text_nodes);

  /// Postings for a term (already normalized by the caller or not — the
  /// lookup normalizes with the same tokenizer options used at build).
  /// nullptr when the term does not occur.
  const PostingList* Lookup(std::string_view term) const;

  const PostingList* LookupId(text::TermId id) const;

  /// Total occurrences of the term; 0 when absent.
  uint64_t TermFrequency(std::string_view term) const;

  /// Inverse document frequency: log((N + 1) / (df + 1)) + 1.
  double InverseDocumentFrequency(std::string_view term) const;

  const text::TermDictionary& dictionary() const { return dictionary_; }
  const IndexStats& stats() const { return stats_; }
  const text::TokenizerOptions& tokenizer_options() const {
    return tokenizer_options_;
  }

  /// Terms whose total occurrence count lies in [lo, hi], sorted by
  /// count. Used by the experiment harnesses to select query terms of a
  /// target frequency, as the paper does.
  std::vector<std::string> TermsWithFrequencyBetween(uint64_t lo,
                                                     uint64_t hi) const;

  /// Number of index lookups performed (instrumentation).
  uint64_t lookups() const { return lookups_.load(std::memory_order_relaxed); }
  void ResetCounters() { lookups_.store(0, std::memory_order_relaxed); }

  /// Resident bytes, posting counts and representation mix, summed over
  /// every list (capacity-based for vectors).
  IndexResidency MemoryUsage() const;

  /// On-disk format version this index was loaded from
  /// (kCurrentFormatVersion for a freshly built one).
  int format_version() const { return format_version_; }

  /// Block-tail encoding of this index's compressed lists (the format
  /// SaveToFile writes verbatim when no target is forced).
  codec::TailFormat tail_format() const { return tail_format_; }

  /// Writes the index. `target_version` 0 writes the resident block
  /// format verbatim (zero-transcode copy); 3 or 4 forces that tail
  /// format, transcoding each block through a decode/re-encode pass if
  /// the resident format differs. Other values are an invalid-argument
  /// error.
  Status SaveToFile(const std::string& path, int target_version = 0) const;
  static Result<InvertedIndex> LoadFromFile(const std::string& path,
                                            IndexLoadOptions options = {});

  /// The read-only mapping backing this index's posting blocks, or null
  /// when every list owns its bytes (built in memory, legacy transcode,
  /// or mmap fallback). Compaction uses this to defer unlinking a
  /// replaced segment file until the last pinned snapshot drops the
  /// final reference (MappedFile::set_unlink_on_close).
  const std::shared_ptr<storage::MappedFile>& mapping() const {
    return mapping_;
  }

 private:
  text::TermDictionary dictionary_;
  std::vector<PostingList> lists_;  // indexed by TermId
  std::shared_ptr<storage::MappedFile> mapping_;
  IndexStats stats_;
  text::TokenizerOptions tokenizer_options_;
  int format_version_ = kCurrentFormatVersion;
  codec::TailFormat tail_format_ = codec::TailFormat::kV4;
  /// Atomic: concurrent TermJoin partitions look terms up through const
  /// methods; a plain mutable counter would race.
  mutable std::atomic<uint64_t> lookups_{0};
};

}  // namespace tix::index

#endif  // TIX_INDEX_INVERTED_INDEX_H_
