#include "exec/structural_join.h"

#include <algorithm>

namespace tix::exec {

namespace {

bool Contains(const ScoredElement& ancestor, const ScoredElement& descendant) {
  return ancestor.doc == descendant.doc && ancestor.start < descendant.start &&
         descendant.end < ancestor.end;
}

bool ContainsOrSelf(const ScoredElement& ancestor,
                    const ScoredElement& descendant) {
  return ancestor.doc == descendant.doc &&
         ancestor.start <= descendant.start && descendant.end <= ancestor.end;
}

}  // namespace

std::vector<std::pair<ScoredElement, ScoredElement>> StackTreeAncPairs(
    const std::vector<ScoredElement>& ancestors,
    const std::vector<ScoredElement>& descendants) {
  std::vector<std::pair<ScoredElement, ScoredElement>> out;
  std::vector<ScoredElement> stack;
  size_t a = 0;
  for (const ScoredElement& descendant : descendants) {
    // Open every candidate ancestor starting before this descendant.
    while (a < ancestors.size() &&
           (ancestors[a].doc < descendant.doc ||
            (ancestors[a].doc == descendant.doc &&
             ancestors[a].start < descendant.start))) {
      while (!stack.empty() && !Contains(stack.back(), ancestors[a])) {
        stack.pop_back();
      }
      stack.push_back(ancestors[a]);
      ++a;
    }
    // Close ancestors that end before this descendant.
    while (!stack.empty() && !Contains(stack.back(), descendant)) {
      stack.pop_back();
    }
    // Every remaining stack entry contains the descendant (nesting).
    for (const ScoredElement& ancestor : stack) {
      out.emplace_back(ancestor, descendant);
    }
  }
  return out;
}

std::vector<ScoredElement> SemiJoinAncestors(
    const std::vector<ScoredElement>& candidates,
    const std::vector<ScoredElement>& descendants) {
  // One merge pass: for each candidate, probe whether any descendant
  // falls in its interval. Descendants sorted by (doc, start) lets a
  // binary search decide containment per candidate in O(log n).
  std::vector<ScoredElement> out;
  for (const ScoredElement& candidate : candidates) {
    // First descendant with (doc, start) > (candidate.doc, candidate.start).
    auto it = std::upper_bound(
        descendants.begin(), descendants.end(), candidate,
        [](const ScoredElement& probe, const ScoredElement& d) {
          if (probe.doc != d.doc) return probe.doc < d.doc;
          return probe.start < d.start;
        });
    if (it != descendants.end() && it->doc == candidate.doc &&
        it->start > candidate.start && it->end < candidate.end) {
      out.push_back(candidate);
    }
  }
  return out;
}

std::vector<ScoredElement> SemiJoinDescendants(
    const std::vector<ScoredElement>& candidates,
    const std::vector<ScoredElement>& ancestors, bool or_self) {
  std::vector<ScoredElement> out;
  std::vector<ScoredElement> stack;
  size_t a = 0;
  for (const ScoredElement& candidate : candidates) {
    while (a < ancestors.size() &&
           (ancestors[a].doc < candidate.doc ||
            (ancestors[a].doc == candidate.doc &&
             (ancestors[a].start < candidate.start ||
              (or_self && ancestors[a].start == candidate.start &&
               ancestors[a].end >= candidate.end))))) {
      while (!stack.empty() && !ContainsOrSelf(stack.back(), ancestors[a])) {
        stack.pop_back();
      }
      stack.push_back(ancestors[a]);
      ++a;
    }
    while (!stack.empty() && !(or_self ? ContainsOrSelf(stack.back(), candidate)
                                       : Contains(stack.back(), candidate))) {
      stack.pop_back();
    }
    if (!stack.empty()) out.push_back(candidate);
  }
  return out;
}

ScoredElement ResidentElement(const storage::Database& db,
                              storage::NodeId id) {
  ScoredElement element;
  element.node = id;
  element.doc = db.DocFromIndex(id);
  element.start = db.StartFromIndex(id);
  element.end = db.EndFromIndex(id);
  element.level = db.LevelFromIndex(id);
  return element;
}

Result<std::vector<ScoredElement>> TagScan(storage::Database* db,
                                           std::string_view tag,
                                           storage::NodeId begin,
                                           storage::NodeId end) {
  std::vector<ScoredElement> out;
  const storage::TagId tag_id = db->LookupTag(tag);
  if (tag_id == text::kInvalidTermId) return out;
  const std::vector<storage::NodeId>* nodes = db->ElementsWithTag(tag_id);
  if (nodes == nullptr) return out;
  const auto first = std::lower_bound(nodes->begin(), nodes->end(), begin);
  const auto last = std::lower_bound(first, nodes->end(), end);
  for (auto it = first; it != last; ++it) {
    out.push_back(ResidentElement(*db, *it));
  }
  return out;
}

}  // namespace tix::exec
