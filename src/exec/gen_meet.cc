#include "exec/gen_meet.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/obs.h"
#include "exec/occurrence_stream.h"

namespace tix::exec {

namespace {

struct GroupState {
  storage::DocId doc = 0;
  uint32_t start = 0;
  uint32_t end = 0;
  uint16_t level = 0;
  storage::NodeId parent = storage::kInvalidNodeId;
  std::vector<uint32_t> counts;
  std::vector<algebra::TermOccurrence> occurrences;
  uint32_t relevant_text_children = 0;
};

}  // namespace

GeneralizedMeet::GeneralizedMeet(storage::Database* db,
                                 const index::InvertedIndex* index,
                                 const algebra::IrPredicate* predicate,
                                 const algebra::Scorer* scorer)
    : db_(db), index_(index), predicate_(predicate), scorer_(scorer) {}

Result<std::vector<ScoredElement>> GeneralizedMeet::Run() {
  obs::MetricsContext local(obs::CurrentMetrics());
  const obs::ScopedMetrics scope(&local);
  const bool complex = scorer_->is_complex();
  const size_t num_phrases = predicate_->num_phrases();
  TIX_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<OccurrenceStream>> streams,
                       MakeOccurrenceStreams(*index_, *predicate_));

  // Node id -> accumulated group. (The meet algorithm groups "based on
  // node id" [22]; a hash map realizes that grouping.)
  std::unordered_map<storage::NodeId, GroupState> groups;
  // (parent, text node) pairs already counted as a relevant text child.
  // Streams are processed one after another (per [22]), so the in-order
  // dedup trick TermJoin uses does not apply here.
  std::unordered_set<uint64_t> marked_text_children;

  for (size_t stream_index = 0; stream_index < streams.size();
       ++stream_index) {
    OccurrenceStream& stream = *streams[stream_index];
    while (auto occurrence = stream.Peek()) {
      stream.Advance();
      ++stats_.occurrences;
      // Recursively obtain the ancestors of the text node, updating the
      // per-ancestor accumulation at every step.
      TIX_ASSIGN_OR_RETURN(storage::NodeRecord record,
                           db_->GetNode(occurrence->text_node));
      storage::NodeId current = record.parent;
      bool direct_parent = true;
      while (current != storage::kInvalidNodeId) {
        ++stats_.chain_steps;
        TIX_ASSIGN_OR_RETURN(record, db_->GetNode(current));
        GroupState& group = groups[current];
        if (group.counts.empty()) {
          group.doc = record.doc_id;
          group.start = record.start;
          group.end = record.end;
          group.level = record.level;
          group.parent = record.parent;
          group.counts.assign(num_phrases, 0);
        }
        ++group.counts[stream_index];
        if (complex) {
          group.occurrences.push_back(algebra::TermOccurrence{
              static_cast<uint32_t>(stream_index), occurrence->word_pos,
              occurrence->text_node});
          if (direct_parent) {
            const uint64_t key = (static_cast<uint64_t>(current) << 32) |
                                 occurrence->text_node;
            if (marked_text_children.insert(key).second) {
              ++group.relevant_text_children;
            }
          }
        }
        current = record.parent;
        direct_parent = false;
      }
    }
  }

  // Relevant element children: a child element is relevant iff it is
  // itself a group (its subtree holds an occurrence).
  std::unordered_map<storage::NodeId, uint32_t> relevant_element_children;
  if (complex) {
    for (const auto& [node, group] : groups) {
      if (group.parent != storage::kInvalidNodeId &&
          groups.count(group.parent) > 0) {
        ++relevant_element_children[group.parent];
      }
    }
  }

  std::vector<ScoredElement> out;
  out.reserve(groups.size());
  for (auto& [node, group] : groups) {
    ScoredElement element;
    element.node = node;
    element.doc = group.doc;
    element.start = group.start;
    element.end = group.end;
    element.level = group.level;
    element.counts = group.counts;
    if (!complex) {
      element.score = scorer_->Score(group.counts);
    } else {
      std::sort(group.occurrences.begin(), group.occurrences.end(),
                [](const algebra::TermOccurrence& a,
                   const algebra::TermOccurrence& b) {
                  return a.word_pos < b.word_pos;
                });
      TIX_ASSIGN_OR_RETURN(const uint32_t total_children,
                           db_->CountChildrenByNavigation(node));
      algebra::ScoreContext context;
      context.counts = group.counts;
      context.occurrences = group.occurrences;
      context.total_children = total_children;
      auto it = relevant_element_children.find(node);
      context.relevant_children =
          group.relevant_text_children +
          (it == relevant_element_children.end() ? 0 : it->second);
      context.element_start = group.start;
      context.element_end = group.end;
      element.score = scorer_->ScoreComplex(context);
    }
    out.push_back(std::move(element));
    ++stats_.outputs;
  }
  std::sort(out.begin(), out.end(),
            [](const ScoredElement& a, const ScoredElement& b) {
              return a.node < b.node;
            });
  stats_.record_fetches = local.value(obs::Counter::kRecordFetches);
  return out;
}

}  // namespace tix::exec
