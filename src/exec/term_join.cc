#include "exec/term_join.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace tix::exec {

namespace {
/// Occurrences merged between deadline polls. A poll is one
/// steady_clock read (~20ns); at this stride the overhead is noise even
/// on million-posting merges, while an expired deadline still fires
/// within a few thousand postings (well under a millisecond of work).
constexpr uint32_t kDeadlinePollStride = 4096;
}  // namespace

bool TermJoinCanPushThreshold(const TermJoinOptions& options,
                              const algebra::Scorer& scorer) {
  return options.threshold.has_value() &&
         options.threshold->top_k.has_value() && !scorer.is_complex() &&
         scorer.is_monotone();
}

TermJoin::TermJoin(storage::Database* db, const index::InvertedIndex* index,
                   const algebra::IrPredicate* predicate,
                   const algebra::Scorer* scorer, TermJoinOptions options)
    : db_(db),
      index_(index),
      predicate_(predicate),
      scorer_(scorer),
      options_(options),
      complex_(scorer->is_complex()),
      num_phrases_(predicate->num_phrases()),
      pushdown_(TermJoinCanPushThreshold(options, *scorer)) {}

Status TermJoin::PopAndEmit() {
  StackEntry popped = std::move(stack_.back());
  stack_.pop_back();

  // Merge subtree state into the parent (the new top).
  if (!stack_.empty()) {
    StackEntry& top = stack_.back();
    for (size_t i = 0; i < num_phrases_; ++i) top.counts[i] += popped.counts[i];
    if (complex_) {
      top.occurrences.insert(top.occurrences.end(),
                             popped.occurrences.begin(),
                             popped.occurrences.end());
      // The popped element is a direct child of the new top (stack
      // entries form an ancestor chain); it is relevant by construction.
      ++top.relevant_children;
    }
  }

  bool any = false;
  for (uint32_t c : popped.counts) {
    if (c > 0) {
      any = true;
      break;
    }
  }
  if (!any) return Status::OK();

  ScoredElement element;
  element.node = popped.node;
  element.doc = popped.doc;
  element.start = popped.start;
  element.end = popped.end;
  element.level = popped.level;
  element.counts = popped.counts;
  if (!complex_) {
    element.score = scorer_->Score(popped.counts);
  } else {
    uint32_t total_children;
    if (options_.enhanced) {
      total_children = db_->ChildCountFromIndex(popped.node);
    } else {
      // Plain TermJoin navigates the stored records to count children —
      // the data accesses Enhanced TermJoin eliminates.
      TIX_ASSIGN_OR_RETURN(total_children,
                           db_->CountChildrenByNavigation(popped.node));
    }
    algebra::ScoreContext context;
    context.counts = popped.counts;
    context.occurrences = popped.occurrences;
    context.total_children = total_children;
    context.relevant_children = popped.relevant_children;
    context.element_start = popped.start;
    context.element_end = popped.end;
    element.score = scorer_->ScoreComplex(context);
  }
  if (pushdown_) {
    // The running heap absorbs the element; survivors surface in
    // Finish() order once the input is exhausted.
    topk_->Push(std::move(element));
    NoteFloor();
  } else {
    output_.push_back(std::move(element));
  }
  ++stats_.outputs;
  return Status::OK();
}

Status TermJoin::PushAncestors(storage::NodeId text_node) {
  // Walk upward from the text node's parent until we meet the stack top
  // (which, after the pop phase, is an ancestor of the occurrence) or
  // the document root. Collect the not-yet-stacked ancestors.
  struct PendingEntry {
    storage::NodeId node;
    storage::DocId doc;
    uint32_t start;
    uint32_t end;
    uint16_t level;
  };
  std::vector<PendingEntry> pending;

  // A corrupt index can hand us any node id; the in-memory arrays are
  // sized to the node count, so check before indexing them. The walk is
  // likewise capped: a parent chain longer than the node count is a
  // cycle from corrupt records.
  if (text_node >= db_->num_nodes()) {
    return Status::Corruption("index posting references nonexistent node " +
                              std::to_string(text_node));
  }
  if (options_.enhanced) {
    // The enhanced variant answers every navigation question from the
    // in-memory index: no record access at all.
    storage::NodeId current = db_->ParentFromIndex(text_node);
    while (current != storage::kInvalidNodeId &&
           (stack_.empty() || stack_.back().node != current)) {
      if (current >= db_->num_nodes() || pending.size() > db_->num_nodes()) {
        return Status::Corruption("parent chain corrupt at node " +
                                  std::to_string(text_node));
      }
      pending.push_back(PendingEntry{current, db_->DocFromIndex(current),
                                     db_->StartFromIndex(current),
                                     db_->EndFromIndex(current),
                                     db_->LevelFromIndex(current)});
      current = db_->ParentFromIndex(current);
    }
  } else {
    TIX_ASSIGN_OR_RETURN(storage::NodeRecord record, db_->GetNode(text_node));
    storage::NodeId current = record.parent;
    while (current != storage::kInvalidNodeId &&
           (stack_.empty() || stack_.back().node != current)) {
      if (pending.size() > db_->num_nodes()) {
        return Status::Corruption("parent chain cycle at node " +
                                  std::to_string(text_node));
      }
      TIX_ASSIGN_OR_RETURN(record, db_->GetNode(current));
      pending.push_back(PendingEntry{current, record.doc_id, record.start,
                                     record.end, record.level});
      current = record.parent;
    }
  }

  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    StackEntry entry;
    entry.node = it->node;
    entry.doc = it->doc;
    entry.start = it->start;
    entry.end = it->end;
    entry.level = it->level;
    entry.counts.assign(num_phrases_, 0);
    stack_.push_back(std::move(entry));
    ++stats_.stack_pushes;
  }
  stats_.max_stack_depth =
      std::max(stats_.max_stack_depth, static_cast<uint64_t>(stack_.size()));
  return Status::OK();
}

bool TermJoin::CannotBeat(double bound) const {
  const algebra::ThresholdSpec& spec = *options_.threshold;
  // The operator keeps only score > min_score, so a bound at or below
  // min_score is out.
  if (spec.min_score.has_value() && !(bound > *spec.min_score)) return true;
  // Against either floor the comparison is strict: an element tied with
  // the heap minimum can still displace it on document order.
  const std::optional<double> local = topk_->HeapFloor();
  if (local.has_value() && bound < *local) return true;
  return options_.shared_floor != nullptr &&
         bound < options_.shared_floor->Load();
}

double TermJoin::DocBound(storage::DocId doc) {
  oracle_->DocBoundCounts(doc, &bound_counts_);
  return scorer_->Score(bound_counts_);
}

void TermJoin::NoteFloor() {
  const std::optional<double> floor = topk_->HeapFloor();
  if (!floor.has_value() || *floor <= last_floor_) return;
  last_floor_ = *floor;
  ++stats_.floor_updates;
  obs::Count(obs::Counter::kTopkFloorUpdates);
  if (options_.shared_floor != nullptr) options_.shared_floor->Raise(*floor);
}

bool TermJoin::SkipUncompetitiveDocs(storage::DocId first) {
  storage::DocId doc = first;
  const storage::DocId range_end = options_.range.end;
  bool moved = false;
  while (doc < range_end) {
    current_doc_bound_ = DocBound(doc);
    if (!CannotBeat(current_doc_bound_)) break;
    moved = true;
    ++stats_.docs_pruned;
    ++doc;
    // Leap whole skip-block windows whose optimistic block-max bound is
    // already uncompetitive — the Block-Max-WAND move, without touching
    // a single posting inside the window.
    while (doc < range_end) {
      storage::DocId window_end = 0;
      oracle_->WindowBoundCounts(doc, &bound_counts_, &window_end);
      if (!CannotBeat(scorer_->Score(bound_counts_))) break;
      ++stats_.blocks_skipped;
      obs::Count(obs::Counter::kTopkBlocksSkipped);
      doc = window_end;
    }
    if (doc >= range_end) break;
    // Land on a document that actually has a posting; empty stretches
    // carry no candidates.
    doc = oracle_->NextCandidateDoc(doc);
  }
  if (moved) SeekStreamsTo(std::min(doc, range_end));
  return moved;
}

void TermJoin::SeekStreamsTo(storage::DocId doc) {
  for (const std::unique_ptr<OccurrenceStream>& stream : streams_) {
    const uint64_t skipped = stream->SkipToDoc(doc);
    if (skipped > 0) {
      stats_.postings_pruned += skipped;
      obs::Count(obs::Counter::kTopkPostingsPruned, skipped);
    }
  }
}

Status TermJoin::Merge() {
  const bool wants_poll =
      options_.deadline != nullptr ||
      (pushdown_ && options_.floor_poll != nullptr);
  for (;;) {
    if (wants_poll && deadline_countdown_-- == 0) {
      deadline_countdown_ = kDeadlinePollStride;
      if (options_.deadline != nullptr && options_.deadline->Expired()) {
        return Status::DeadlineExceeded("TermJoin: query deadline exceeded");
      }
      if (pushdown_ && options_.floor_poll != nullptr) {
        // Cross-process floor gossip: let the embedder exchange the
        // shared floor with remote shards at the same (amortised)
        // stride as the deadline poll.
        TIX_RETURN_IF_ERROR(options_.floor_poll());
      }
    }
    // t-min: the stream with the smallest (doc, word_pos) head.
    int min_stream = -1;
    Occurrence min_occurrence;
    for (size_t i = 0; i < streams_.size(); ++i) {
      const std::optional<Occurrence> head = streams_[i]->Peek();
      if (!head.has_value()) continue;
      if (min_stream < 0 || head->doc < min_occurrence.doc ||
          (head->doc == min_occurrence.doc &&
           head->word_pos < min_occurrence.word_pos)) {
        min_stream = static_cast<int>(i);
        min_occurrence = *head;
      }
    }
    if (min_stream < 0) break;  // inputs exhausted

    if (pushdown_ && (stack_.empty() ||
                      stack_.back().doc != min_occurrence.doc)) {
      // Document boundary. Flush the finished document first (its pops
      // may raise the floor), then decide whether the next candidate
      // documents are worth merging at all.
      while (!stack_.empty()) {
        TIX_RETURN_IF_ERROR(PopAndEmit());
      }
      if (SkipUncompetitiveDocs(min_occurrence.doc)) continue;  // re-peek
    }

    streams_[static_cast<size_t>(min_stream)]->Advance();
    ++stats_.occurrences;

    // Pop everything that does not contain the occurrence.
    while (!stack_.empty() &&
           !(stack_.back().doc == min_occurrence.doc &&
             stack_.back().end > min_occurrence.word_pos)) {
      TIX_RETURN_IF_ERROR(PopAndEmit());
    }

    if (pushdown_ && CannotBeat(current_doc_bound_)) {
      // Residual-bound cutoff: the floor rose (typically via another
      // partition's shared-floor updates) past everything this document
      // can still produce. Drop the partial stack — every entry is
      // bounded by current_doc_bound_ — and leap to the next document.
      stack_.clear();
      SeekStreamsTo(min_occurrence.doc + 1);
      ++stats_.docs_pruned;
      continue;
    }

    TIX_RETURN_IF_ERROR(PushAncestors(min_occurrence.text_node));
    if (stack_.empty()) {
      // Only possible when the index claims a text occurrence outside
      // any element — corrupt data, not a programming error.
      return Status::Corruption("text occurrence with no enclosing element");
    }

    StackEntry& top = stack_.back();
    ++top.counts[static_cast<size_t>(min_stream)];
    if (complex_) {
      top.occurrences.push_back(algebra::TermOccurrence{
          static_cast<uint32_t>(min_stream), min_occurrence.word_pos,
          min_occurrence.text_node});
      if (top.last_marked_text_child != min_occurrence.text_node) {
        top.last_marked_text_child = min_occurrence.text_node;
        ++top.relevant_children;
      }
    }
  }

  // Flush the stack.
  while (!stack_.empty()) {
    TIX_RETURN_IF_ERROR(PopAndEmit());
  }
  if (pushdown_) {
    // Release the surviving top-K, in Finish() order (descending score)
    // — exactly what the post-pass Threshold would return.
    output_ = topk_->Finish();
  }
  obs::Count(obs::Counter::kTermJoinOccurrences, stats_.occurrences);
  stats_.record_fetches = metrics_.value(obs::Counter::kRecordFetches);
  stats_.index_lookups = metrics_.value(obs::Counter::kIndexLookups);
  stats_.blocks_decoded = metrics_.value(obs::Counter::kIndexBlocksDecoded);
  stats_.block_cache_hits =
      metrics_.value(obs::Counter::kIndexBlockCacheHits);
  return Status::OK();
}

Result<std::vector<ScoredElement>> TermJoin::Run() {
  if (ran_) return Status::Internal("TermJoin run twice");
  if (options_.deadline != nullptr && options_.deadline->Expired()) {
    return Status::DeadlineExceeded("TermJoin: query deadline exceeded");
  }
  ran_ = true;
  // Every record fetch and index lookup of the join happens below
  // (stream opening, PushAncestors and the child-count navigation in
  // PopAndEmit), so the join-local context charges exactly this join's
  // work.
  metrics_.set_parent(obs::CurrentMetrics());
  const obs::ScopedMetrics scope(&metrics_);
  TIX_ASSIGN_OR_RETURN(
      streams_, MakeOccurrenceStreams(*index_, *predicate_, options_.range));
  if (pushdown_) {
    topk_.emplace(*options_.threshold);
    TIX_ASSIGN_OR_RETURN(PhraseLists lists,
                         LookupPhraseLists(*index_, *predicate_));
    oracle_.emplace(std::move(lists));
    current_doc_bound_ = std::numeric_limits<double>::infinity();
    last_floor_ = -std::numeric_limits<double>::infinity();
  }
  TIX_RETURN_IF_ERROR(Merge());
  return std::move(output_);
}

}  // namespace tix::exec
