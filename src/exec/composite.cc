#include "exec/composite.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/obs.h"
#include "exec/occurrence_stream.h"

namespace tix::exec {

namespace {

/// One grouped ancestor for a single phrase.
struct GroupEntry {
  storage::NodeId node = storage::kInvalidNodeId;
  storage::DocId doc = 0;
  uint32_t start = 0;
  uint32_t end = 0;
  uint16_t level = 0;
  uint32_t count = 0;
  std::vector<algebra::TermOccurrence> occurrences;
};

/// One entry of the combined (unioned) result.
struct MergedEntry {
  storage::NodeId node = storage::kInvalidNodeId;
  storage::DocId doc = 0;
  uint32_t start = 0;
  uint32_t end = 0;
  uint16_t level = 0;
  std::vector<uint32_t> counts;
  std::vector<algebra::TermOccurrence> occurrences;
};

MergedEntry ToMerged(const GroupEntry& group, size_t phrase_index,
                     size_t num_phrases, bool complex) {
  MergedEntry merged;
  merged.node = group.node;
  merged.doc = group.doc;
  merged.start = group.start;
  merged.end = group.end;
  merged.level = group.level;
  merged.counts.assign(num_phrases, 0);
  merged.counts[phrase_index] = group.count;
  if (complex) merged.occurrences = group.occurrences;
  return merged;
}

/// Scores merged entries, either simply or with the generic complex
/// scoring path: child counting by navigation plus membership tests
/// against the result set / the occurrence-bearing text nodes.
Result<std::vector<ScoredElement>> ScoreMerged(
    storage::Database* db, const algebra::Scorer& scorer,
    std::vector<MergedEntry>& merged,
    const std::unordered_set<storage::NodeId>& occurrence_text_nodes) {
  const bool complex = scorer.is_complex();
  std::unordered_set<storage::NodeId> result_nodes;
  if (complex) {
    result_nodes.reserve(merged.size());
    for (const MergedEntry& entry : merged) result_nodes.insert(entry.node);
  }
  std::vector<ScoredElement> out;
  out.reserve(merged.size());
  for (MergedEntry& entry : merged) {
    ScoredElement element;
    element.node = entry.node;
    element.doc = entry.doc;
    element.start = entry.start;
    element.end = entry.end;
    element.level = entry.level;
    element.counts = entry.counts;
    if (!complex) {
      element.score = scorer.Score(entry.counts);
    } else {
      std::sort(entry.occurrences.begin(), entry.occurrences.end(),
                [](const algebra::TermOccurrence& a,
                   const algebra::TermOccurrence& b) {
                  return a.word_pos < b.word_pos;
                });
      TIX_ASSIGN_OR_RETURN(const std::vector<storage::NodeId> children,
                           db->ChildrenOf(entry.node));
      uint32_t relevant = 0;
      for (storage::NodeId child : children) {
        if (result_nodes.count(child) > 0 ||
            occurrence_text_nodes.count(child) > 0) {
          ++relevant;
        }
      }
      algebra::ScoreContext context;
      context.counts = entry.counts;
      context.occurrences = entry.occurrences;
      context.total_children = static_cast<uint32_t>(children.size());
      context.relevant_children = relevant;
      context.element_start = entry.start;
      context.element_end = entry.end;
      element.score = scorer.ScoreComplex(context);
    }
    out.push_back(std::move(element));
  }
  std::sort(out.begin(), out.end(),
            [](const ScoredElement& a, const ScoredElement& b) {
              return a.node < b.node;
            });
  return out;
}

}  // namespace

Comp1::Comp1(storage::Database* db, const index::InvertedIndex* index,
             const algebra::IrPredicate* predicate,
             const algebra::Scorer* scorer)
    : db_(db), index_(index), predicate_(predicate), scorer_(scorer) {}

Result<std::vector<ScoredElement>> Comp1::Run() {
  // Count this run's own storage work (rolled up into any enclosing
  // query context) instead of diffing the cross-query global counter.
  obs::MetricsContext local(obs::CurrentMetrics());
  const obs::ScopedMetrics scope(&local);
  const bool complex = scorer_->is_complex();
  const size_t num_phrases = predicate_->num_phrases();
  TIX_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<OccurrenceStream>> streams,
                       MakeOccurrenceStreams(*index_, *predicate_));
  std::unordered_set<storage::NodeId> occurrence_text_nodes;

  // σ_Pi + γ_i per phrase: expand occurrences to (ancestor, occurrence)
  // pairs via record navigation, sort by node id, group.
  std::vector<std::vector<GroupEntry>> per_phrase(num_phrases);
  for (size_t i = 0; i < num_phrases; ++i) {
    struct Pair {
      storage::NodeId node;
      storage::DocId doc;
      uint32_t start;
      uint32_t end;
      uint16_t level;
      algebra::TermOccurrence occurrence;
    };
    std::vector<Pair> pairs;
    OccurrenceStream& stream = *streams[i];
    while (auto occurrence = stream.Peek()) {
      stream.Advance();
      ++stats_.occurrences;
      if (complex) occurrence_text_nodes.insert(occurrence->text_node);
      TIX_ASSIGN_OR_RETURN(storage::NodeRecord record,
                           db_->GetNode(occurrence->text_node));
      storage::NodeId current = record.parent;
      while (current != storage::kInvalidNodeId) {
        TIX_ASSIGN_OR_RETURN(record, db_->GetNode(current));
        pairs.push_back(Pair{current, record.doc_id, record.start, record.end,
                             record.level,
                             algebra::TermOccurrence{
                                 static_cast<uint32_t>(i),
                                 occurrence->word_pos, occurrence->text_node}});
        current = record.parent;
      }
    }
    // Sort operator (by grouping key, then document order within group).
    std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
      if (a.node != b.node) return a.node < b.node;
      return a.occurrence.word_pos < b.occurrence.word_pos;
    });
    // Group operator.
    std::vector<GroupEntry>& groups = per_phrase[i];
    for (const Pair& pair : pairs) {
      if (groups.empty() || groups.back().node != pair.node) {
        GroupEntry group;
        group.node = pair.node;
        group.doc = pair.doc;
        group.start = pair.start;
        group.end = pair.end;
        group.level = pair.level;
        groups.push_back(std::move(group));
      }
      ++groups.back().count;
      if (complex) groups.back().occurrences.push_back(pair.occurrence);
    }
  }

  // Generic scored set union (Example 5.2): pairwise witness matching.
  std::vector<MergedEntry> merged;
  if (num_phrases > 0) {
    for (const GroupEntry& group : per_phrase[0]) {
      merged.push_back(ToMerged(group, 0, num_phrases, complex));
    }
  }
  for (size_t i = 1; i < num_phrases; ++i) {
    const std::vector<GroupEntry>& groups = per_phrase[i];
    std::vector<bool> matched(groups.size(), false);
    for (MergedEntry& entry : merged) {
      for (size_t j = 0; j < groups.size(); ++j) {
        ++stats_.union_comparisons;
        if (groups[j].node == entry.node) {
          entry.counts[i] += groups[j].count;
          if (complex) {
            entry.occurrences.insert(entry.occurrences.end(),
                                     groups[j].occurrences.begin(),
                                     groups[j].occurrences.end());
          }
          matched[j] = true;
          break;
        }
      }
    }
    for (size_t j = 0; j < groups.size(); ++j) {
      if (!matched[j]) {
        merged.push_back(ToMerged(groups[j], i, num_phrases, complex));
      }
    }
  }

  TIX_ASSIGN_OR_RETURN(
      std::vector<ScoredElement> out,
      ScoreMerged(db_, *scorer_, merged, occurrence_text_nodes));
  stats_.outputs = out.size();
  stats_.record_fetches = local.value(obs::Counter::kRecordFetches);
  return out;
}

Comp2::Comp2(storage::Database* db, const index::InvertedIndex* index,
             const algebra::IrPredicate* predicate,
             const algebra::Scorer* scorer)
    : db_(db), index_(index), predicate_(predicate), scorer_(scorer) {}

Result<std::vector<ScoredElement>> Comp2::Run() {
  obs::MetricsContext local(obs::CurrentMetrics());
  const obs::ScopedMetrics scope(&local);
  const bool complex = scorer_->is_complex();
  const size_t num_phrases = predicate_->num_phrases();
  TIX_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<OccurrenceStream>> streams,
                       MakeOccurrenceStreams(*index_, *predicate_));
  std::unordered_set<storage::NodeId> occurrence_text_nodes;

  // Per phrase: stack-based ancestor structural join between the full
  // element-table scan (sorted by start, which is node-id order) and the
  // occurrence stream.
  std::vector<std::vector<GroupEntry>> per_phrase(num_phrases);
  const uint64_t num_nodes = db_->num_nodes();
  for (size_t i = 0; i < num_phrases; ++i) {
    OccurrenceStream& stream = *streams[i];
    std::vector<GroupEntry> stack;
    std::vector<GroupEntry>& out_groups = per_phrase[i];

    auto pop_one = [&]() {
      GroupEntry popped = std::move(stack.back());
      stack.pop_back();
      if (!stack.empty() && popped.count > 0) {
        stack.back().count += popped.count;
        if (complex) {
          stack.back().occurrences.insert(stack.back().occurrences.end(),
                                          popped.occurrences.begin(),
                                          popped.occurrences.end());
        }
      }
      if (popped.count > 0) out_groups.push_back(std::move(popped));
    };

    for (storage::NodeId id = 0; id < num_nodes; ++id) {
      TIX_ASSIGN_OR_RETURN(const storage::NodeRecord record, db_->GetNode(id));
      ++stats_.scanned_records;
      if (!record.is_element()) continue;
      // Consume occurrences preceding this element.
      while (auto occurrence = stream.Peek()) {
        if (occurrence->doc > record.doc_id ||
            (occurrence->doc == record.doc_id &&
             occurrence->word_pos >= record.start)) {
          break;
        }
        stream.Advance();
        ++stats_.occurrences;
        while (!stack.empty() && !(stack.back().doc == occurrence->doc &&
                                   stack.back().end > occurrence->word_pos)) {
          pop_one();
        }
        if (!stack.empty()) {
          ++stack.back().count;
          if (complex) {
            occurrence_text_nodes.insert(occurrence->text_node);
            stack.back().occurrences.push_back(algebra::TermOccurrence{
                static_cast<uint32_t>(i), occurrence->word_pos,
                occurrence->text_node});
          }
        }
      }
      // Push the element after evicting entries that do not contain it.
      while (!stack.empty() && !(stack.back().doc == record.doc_id &&
                                 stack.back().end > record.start)) {
        pop_one();
      }
      GroupEntry entry;
      entry.node = id;
      entry.doc = record.doc_id;
      entry.start = record.start;
      entry.end = record.end;
      entry.level = record.level;
      stack.push_back(std::move(entry));
    }
    // Trailing occurrences (inside the last elements).
    while (auto occurrence = stream.Peek()) {
      stream.Advance();
      ++stats_.occurrences;
      while (!stack.empty() && !(stack.back().doc == occurrence->doc &&
                                 stack.back().end > occurrence->word_pos)) {
        pop_one();
      }
      if (!stack.empty()) {
        ++stack.back().count;
        if (complex) {
          occurrence_text_nodes.insert(occurrence->text_node);
          stack.back().occurrences.push_back(algebra::TermOccurrence{
              static_cast<uint32_t>(i), occurrence->word_pos,
              occurrence->text_node});
        }
      }
    }
    while (!stack.empty()) pop_one();
    std::sort(out_groups.begin(), out_groups.end(),
              [](const GroupEntry& a, const GroupEntry& b) {
                return a.node < b.node;
              });
  }

  // Sorted merge union across phrases (inputs grouped + sorted by node).
  std::vector<MergedEntry> merged;
  if (num_phrases > 0) {
    for (const GroupEntry& group : per_phrase[0]) {
      merged.push_back(ToMerged(group, 0, num_phrases, complex));
    }
  }
  for (size_t i = 1; i < num_phrases; ++i) {
    const std::vector<GroupEntry>& groups = per_phrase[i];
    std::vector<MergedEntry> next;
    next.reserve(merged.size() + groups.size());
    size_t a = 0;
    size_t b = 0;
    while (a < merged.size() || b < groups.size()) {
      if (b >= groups.size() ||
          (a < merged.size() && merged[a].node < groups[b].node)) {
        next.push_back(std::move(merged[a++]));
      } else if (a >= merged.size() || groups[b].node < merged[a].node) {
        next.push_back(ToMerged(groups[b++], i, num_phrases, complex));
      } else {
        MergedEntry entry = std::move(merged[a++]);
        entry.counts[i] += groups[b].count;
        if (complex) {
          entry.occurrences.insert(entry.occurrences.end(),
                                   groups[b].occurrences.begin(),
                                   groups[b].occurrences.end());
        }
        ++b;
        next.push_back(std::move(entry));
      }
    }
    merged = std::move(next);
  }

  TIX_ASSIGN_OR_RETURN(
      std::vector<ScoredElement> out,
      ScoreMerged(db_, *scorer_, merged, occurrence_text_nodes));
  stats_.outputs = out.size();
  stats_.record_fetches = local.value(obs::Counter::kRecordFetches);
  return out;
}

}  // namespace tix::exec
