#include "exec/score_bound.h"

#include <algorithm>

namespace tix::exec {

void ScoreBoundOracle::DocBoundCounts(storage::DocId doc,
                                      std::vector<uint32_t>* counts) const {
  counts->assign(phrase_lists_.size(), 0);
  for (size_t p = 0; p < phrase_lists_.size(); ++p) {
    uint32_t bound = UINT32_MAX;
    for (const index::PostingList* list : phrase_lists_[p]) {
      if (list == nullptr) {
        bound = 0;
        break;
      }
      bound = std::min(bound, list->DocPostingCount(doc));
      if (bound == 0) break;
    }
    (*counts)[p] = bound;
  }
}

void ScoreBoundOracle::WindowBoundCounts(storage::DocId from,
                                         std::vector<uint32_t>* counts,
                                         storage::DocId* window_end) const {
  counts->assign(phrase_lists_.size(), 0);
  *window_end = UINT32_MAX;
  for (size_t p = 0; p < phrase_lists_.size(); ++p) {
    uint32_t bound = UINT32_MAX;
    for (const index::PostingList* list : phrase_lists_[p]) {
      if (list == nullptr || list->empty()) {
        bound = 0;
        break;
      }
      const index::PostingList::BlockBound block = list->BlockBoundAt(from);
      bound = std::min(bound, block.max_doc_count);
      *window_end = std::min(*window_end, block.window_end);
      if (bound == 0) break;
    }
    (*counts)[p] = bound;
  }
  // The window must always advance; a clamped straddle case (see
  // BlockBoundAt) can already produce from + 1, never less.
  *window_end = std::max(*window_end, from + 1);
}

storage::DocId ScoreBoundOracle::NextCandidateDoc(storage::DocId from) const {
  storage::DocId best = UINT32_MAX;
  for (const std::vector<const index::PostingList*>& lists : phrase_lists_) {
    for (const index::PostingList* list : lists) {
      if (list == nullptr || list->empty()) continue;
      // Doc offsets only — no posting block is decoded.
      const storage::DocId next = list->FirstDocAtOrAfter(from);
      if (next != UINT32_MAX) best = std::min(best, next);
    }
  }
  return best;
}

}  // namespace tix::exec
