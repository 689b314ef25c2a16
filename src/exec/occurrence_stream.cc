#include "exec/occurrence_stream.h"

#include <algorithm>

namespace tix::exec {

uint64_t OccurrenceStream::SkipToDoc(storage::DocId doc) {
  uint64_t skipped = 0;
  while (const std::optional<Occurrence> occurrence = Peek()) {
    if (occurrence->doc >= doc) break;
    Advance();
    ++skipped;
  }
  return skipped;
}

std::vector<Occurrence> OccurrenceStream::DrainAll() {
  std::vector<Occurrence> out;
  while (auto occurrence = Peek()) {
    out.push_back(*occurrence);
    Advance();
  }
  return out;
}

std::optional<Occurrence> TermOccurrenceStream::Peek() const {
  if (list_ == nullptr || pos_ >= cursor_.size()) return std::nullopt;
  const index::Posting& posting = cursor_.Get(pos_);
  if (posting.doc_id >= range_.end) return std::nullopt;
  return Occurrence{posting.doc_id, posting.node_id, posting.word_pos};
}

void TermOccurrenceStream::Advance() {
  if (list_ != nullptr && pos_ < cursor_.size()) ++pos_;
}

uint64_t TermOccurrenceStream::SkipToDoc(storage::DocId doc) {
  if (list_ == nullptr) return 0;
  const size_t target = list_->LowerBoundDoc(doc);
  if (target <= pos_) return 0;
  const uint64_t skipped = target - pos_;
  pos_ = target;
  return skipped;
}

PhraseFinderStream::PhraseFinderStream(
    std::vector<const index::PostingList*> lists, bool galloping,
    DocRange range)
    : lists_(std::move(lists)),
      positions_(lists_.size(), 0),
      galloping_(galloping),
      range_(range) {
  cursors_.reserve(lists_.size());
  for (const index::PostingList* list : lists_) {
    cursors_.emplace_back(list);
  }
  for (const index::PostingList* list : lists_) {
    if (list == nullptr || list->empty()) {
      exhausted_ = true;
      break;
    }
  }
  if (lists_.empty()) exhausted_ = true;
  if (!exhausted_ && range_.begin != 0) {
    for (size_t i = 0; i < lists_.size(); ++i) {
      positions_[i] = lists_[i]->LowerBoundDoc(range_.begin);
    }
  }
  if (!exhausted_) FindNextMatch();
}

std::optional<Occurrence> PhraseFinderStream::Peek() const {
  return current_;
}

void PhraseFinderStream::Advance() {
  if (exhausted_) {
    current_.reset();
    return;
  }
  ++positions_[0];
  FindNextMatch();
}

uint64_t PhraseFinderStream::SkipToDoc(storage::DocId doc) {
  if (exhausted_) return 0;
  if (current_.has_value() && current_->doc >= doc) return 0;
  const size_t target = lists_[0]->LowerBoundDoc(doc);
  uint64_t skipped = 0;
  if (target > positions_[0]) {
    skipped = target - positions_[0];
    positions_[0] = target;
  }
  FindNextMatch();
  return skipped;
}

bool PhraseFinderStream::AdvanceCursor(size_t i, storage::DocId doc,
                                       uint32_t target_pos) {
  index::BlockCursor& postings = cursors_[i];
  const size_t n = postings.size();
  size_t& cursor = positions_[i];
  auto before_target = [&](const index::Posting& posting) {
    return posting.doc_id < doc ||
           (posting.doc_id == doc && posting.word_pos < target_pos);
  };
  // Leap whole skip blocks first: O(log #blocks) on skip metadata alone
  // — no block is decoded — to land within kSkipInterval postings of
  // the target, regardless of the gap.
  cursor = lists_[i]->SkipForward(cursor, doc, target_pos);
  if (!galloping_) {
    while (cursor < n && before_target(postings.Get(cursor))) {
      ++cursor;
      ++postings_scanned_;
    }
    return cursor < n;
  }
  // Galloping: double the step until we overshoot, then binary search in
  // the bracketed range. O(log gap) instead of O(gap).
  if (cursor >= n || !before_target(postings.Get(cursor))) {
    return cursor < n;
  }
  size_t step = 1;
  size_t low = cursor;
  size_t high = cursor + step;
  while (high < n && before_target(postings.Get(high))) {
    low = high;
    step *= 2;
    high = cursor + step;
    ++postings_scanned_;
  }
  high = std::min(high, n);
  // Invariant: postings[low] is before target, postings[high] (if any)
  // is not. Binary search in (low, high].
  while (low + 1 < high) {
    const size_t mid = low + (high - low) / 2;
    ++postings_scanned_;
    if (before_target(postings.Get(mid))) {
      low = mid;
    } else {
      high = mid;
    }
  }
  cursor = high;
  return cursor < n;
}

void PhraseFinderStream::FindNextMatch() {
  current_.reset();
  index::BlockCursor& first = cursors_[0];
  while (positions_[0] < first.size()) {
    // By value: each secondary term reads through its own cursor, but a
    // copy keeps the anchor immune to any future sharing of cursors.
    const index::Posting anchor = first.Get(positions_[0]);
    if (anchor.doc_id >= range_.end) break;
    ++postings_scanned_;
    bool match = true;
    for (size_t i = 1; i < lists_.size(); ++i) {
      const uint32_t target_pos = anchor.word_pos + static_cast<uint32_t>(i);
      if (!AdvanceCursor(i, anchor.doc_id, target_pos)) {
        // This term can never match again: the whole stream is done.
        exhausted_ = true;
        return;
      }
      const index::Posting& candidate = cursors_[i].Get(positions_[i]);
      if (candidate.doc_id != anchor.doc_id ||
          candidate.word_pos != target_pos ||
          candidate.node_id != anchor.node_id) {
        match = false;
        break;
      }
    }
    if (match) {
      current_ = Occurrence{anchor.doc_id, anchor.node_id, anchor.word_pos};
      return;
    }
    ++positions_[0];
  }
  exhausted_ = true;
}

Result<PhraseLists> LookupPhraseLists(const index::InvertedIndex& index,
                                      const algebra::IrPredicate& predicate) {
  PhraseLists phrase_lists;
  phrase_lists.reserve(predicate.phrases.size());
  for (const algebra::WeightedPhrase& phrase : predicate.phrases) {
    std::vector<const index::PostingList*> lists;
    lists.reserve(phrase.terms.size());
    for (const std::string& term : phrase.terms) {
      TIX_ASSIGN_OR_RETURN(const index::PostingList* list, index.Lookup(term));
      lists.push_back(list);
    }
    phrase_lists.push_back(std::move(lists));
  }
  return phrase_lists;
}

Result<std::vector<std::unique_ptr<OccurrenceStream>>> MakeOccurrenceStreams(
    const index::InvertedIndex& index, const algebra::IrPredicate& predicate,
    DocRange range) {
  TIX_ASSIGN_OR_RETURN(PhraseLists phrase_lists,
                       LookupPhraseLists(index, predicate));
  std::vector<std::unique_ptr<OccurrenceStream>> streams;
  streams.reserve(phrase_lists.size());
  for (std::vector<const index::PostingList*>& lists : phrase_lists) {
    if (lists.size() == 1) {
      streams.push_back(
          std::make_unique<TermOccurrenceStream>(lists[0], range));
    } else {
      streams.push_back(std::make_unique<PhraseFinderStream>(
          std::move(lists), /*galloping=*/false, range));
    }
  }
  return streams;
}

}  // namespace tix::exec
