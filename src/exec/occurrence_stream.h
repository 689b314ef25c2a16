#ifndef TIX_EXEC_OCCURRENCE_STREAM_H_
#define TIX_EXEC_OCCURRENCE_STREAM_H_

#include <memory>
#include <optional>
#include <vector>

#include "algebra/scoring.h"
#include "common/result.h"
#include "index/block_cursor.h"
#include "index/inverted_index.h"

/// \file
/// Occurrence streams: cursors producing (doc, text node, word position)
/// triples in document order, one stream per query phrase. Single terms
/// read a posting list directly; multi-term phrases are verified on the
/// fly by the PhraseFinder merge (Sec. 5.1.2), so TermJoin is oblivious
/// to whether a "term" is a phrase.
///
/// Every stream can be restricted to a half-open document range — the
/// slicing primitive of doc-partitioned parallel TermJoin. Positioning
/// uses the posting lists' per-document boundary offsets (O(log n))
/// rather than a scan.
///
/// Streams read postings through index::BlockCursor, so block-compressed
/// lists decode lazily: a seek (SkipToDoc, SkipForward) moves on skip
/// metadata alone and only the landing block is ever decoded.

namespace tix::exec {

/// Half-open document-id range [begin, end). The default spans every
/// document, so unrestricted callers are unaffected.
struct DocRange {
  storage::DocId begin = 0;
  storage::DocId end = UINT32_MAX;

  bool IsAll() const { return begin == 0 && end == UINT32_MAX; }
  bool Contains(storage::DocId doc) const { return doc >= begin && doc < end; }

  friend bool operator==(const DocRange&, const DocRange&) = default;
};

/// One phrase occurrence (position of the phrase's first term).
struct Occurrence {
  storage::DocId doc = 0;
  storage::NodeId text_node = storage::kInvalidNodeId;
  uint32_t word_pos = 0;
};

/// Pull cursor over occurrences in (doc, word_pos) order.
class OccurrenceStream {
 public:
  virtual ~OccurrenceStream() = default;

  /// Current occurrence; nullopt when exhausted.
  virtual std::optional<Occurrence> Peek() const = 0;
  virtual void Advance() = 0;

  /// Repositions the stream at the first occurrence with doc >= `doc`,
  /// returning how many postings were bypassed without being consumed
  /// (the top-K pushdown's "postings pruned"). The base implementation
  /// steps; concrete streams override with an O(log n) doc-offset jump.
  virtual uint64_t SkipToDoc(storage::DocId doc);

  /// Drains the rest of the stream (testing / materializing callers).
  std::vector<Occurrence> DrainAll();
};

/// Stream over a single term's posting list. An absent term yields an
/// empty stream.
class TermOccurrenceStream : public OccurrenceStream {
 public:
  /// `list` may be nullptr (unknown term); the stream is then empty.
  /// `range` restricts the stream to documents in [range.begin,
  /// range.end); the start position is found via the list's doc-offset
  /// table.
  explicit TermOccurrenceStream(const index::PostingList* list,
                                DocRange range = {})
      : list_(list), cursor_(list), range_(range) {
    if (list_ != nullptr && range_.begin != 0) {
      pos_ = list_->LowerBoundDoc(range_.begin);
    }
  }

  std::optional<Occurrence> Peek() const override;
  void Advance() override;
  uint64_t SkipToDoc(storage::DocId doc) override;

 private:
  const index::PostingList* list_;
  /// Mutable: Peek is logically const but may decode the block under
  /// the cursor position.
  mutable index::BlockCursor cursor_;
  DocRange range_;
  size_t pos_ = 0;
};

/// The PhraseFinder access method (Sec. 5.1.2): merges the posting lists
/// of the phrase's terms, emitting an occurrence exactly when term i
/// appears at offset first+i of the same text node, for all i. The
/// verification happens inside the merge — no text access, no
/// materialized intersection.
class PhraseFinderStream : public OccurrenceStream {
 public:
  /// `lists[i]` is the posting list of the phrase's i-th term; any
  /// nullptr makes the stream empty. With `galloping`, cursor advances
  /// use exponential (galloping) search instead of linear stepping —
  /// profitable when term frequencies are very unbalanced (an extension
  /// benchmarked in bench_micro; the paper's merge is linear). Cursor
  /// advances first leap over whole skip blocks when the lists carry
  /// them (see index::PostingList::SkipForward). `range` restricts
  /// matching to documents in [range.begin, range.end).
  explicit PhraseFinderStream(std::vector<const index::PostingList*> lists,
                              bool galloping = false, DocRange range = {});

  std::optional<Occurrence> Peek() const override;
  void Advance() override;
  /// Leaps the anchor term's cursor; the bypassed anchor postings are
  /// the pruned count (secondary cursors catch up lazily inside the
  /// merge, as always).
  uint64_t SkipToDoc(storage::DocId doc) override;

  /// Number of posting entries examined (instrumentation for the
  /// Table 5 ablation).
  uint64_t postings_scanned() const { return postings_scanned_; }

 private:
  void FindNextMatch();
  /// Advances cursor `i` to the first posting at or beyond
  /// (doc, target_pos); returns false when the list is exhausted.
  bool AdvanceCursor(size_t i, storage::DocId doc, uint32_t target_pos);

  std::vector<const index::PostingList*> lists_;
  /// One cursor per term. Distinct cursor objects even when two phrase
  /// terms share a posting list, so each pins its own decoded block.
  std::vector<index::BlockCursor> cursors_;
  std::vector<size_t> positions_;
  std::optional<Occurrence> current_;
  bool exhausted_ = false;
  bool galloping_ = false;
  DocRange range_;
  uint64_t postings_scanned_ = 0;
};

/// Posting lists per phrase of a predicate: lists[p][t] is term t of
/// phrase p, nullptr when the term does not occur in the index.
using PhraseLists = std::vector<std::vector<const index::PostingList*>>;

/// Looks every term of `predicate` up through the index's gate
/// (InvertedIndex::Lookup). Fails with Corruption when a list fails its
/// first-touch scrub.
Result<PhraseLists> LookupPhraseLists(const index::InvertedIndex& index,
                                      const algebra::IrPredicate& predicate);

/// Builds one occurrence stream per phrase of `predicate`, looking terms
/// up in `index`. Missing terms produce empty streams (score 0, as the
/// algebra prescribes for absent phrases). `range` restricts every
/// stream to the given document range. Fails as LookupPhraseLists does.
Result<std::vector<std::unique_ptr<OccurrenceStream>>> MakeOccurrenceStreams(
    const index::InvertedIndex& index, const algebra::IrPredicate& predicate,
    DocRange range = {});

}  // namespace tix::exec

#endif  // TIX_EXEC_OCCURRENCE_STREAM_H_
