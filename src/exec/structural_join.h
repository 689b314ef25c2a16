#ifndef TIX_EXEC_STRUCTURAL_JOIN_H_
#define TIX_EXEC_STRUCTURAL_JOIN_H_

#include <vector>

#include "common/result.h"
#include "exec/scored_element.h"
#include "storage/database.h"

/// \file
/// Stack-based structural (containment) joins — the primitive the paper
/// builds on ([2], [6], [9]). Inputs are element lists in document
/// order; one merge pass with a stack of open ancestors produces joins
/// or semijoins without any per-pair containment probing.

namespace tix::exec {

/// (ancestor, descendant) pairs; both inputs must be sorted in document
/// order (doc, start). Output is sorted by descendant.
std::vector<std::pair<ScoredElement, ScoredElement>> StackTreeAncPairs(
    const std::vector<ScoredElement>& ancestors,
    const std::vector<ScoredElement>& descendants);

/// Distinct elements of `candidates` that contain at least one element
/// of `descendants` (ancestor semijoin). Inputs sorted in document
/// order; output preserves candidate order and scores.
std::vector<ScoredElement> SemiJoinAncestors(
    const std::vector<ScoredElement>& candidates,
    const std::vector<ScoredElement>& descendants);

/// Distinct elements of `candidates` contained in (or equal to, when
/// `or_self`) at least one element of `ancestors`. Inputs sorted in
/// document order; output preserves candidate order and scores.
std::vector<ScoredElement> SemiJoinDescendants(
    const std::vector<ScoredElement>& candidates,
    const std::vector<ScoredElement>& ancestors, bool or_self = false);

/// The unscored element for node `id`, read from the resident columns.
ScoredElement ResidentElement(const storage::Database& db, storage::NodeId id);

/// Elements with a given tag and node ids in [begin, end) as a
/// document-order stream of (unscored) elements — the index-scan input
/// of structural joins. Reads no records.
Result<std::vector<ScoredElement>> TagScan(
    storage::Database* db, std::string_view tag, storage::NodeId begin = 0,
    storage::NodeId end = storage::kInvalidNodeId);

}  // namespace tix::exec

#endif  // TIX_EXEC_STRUCTURAL_JOIN_H_
