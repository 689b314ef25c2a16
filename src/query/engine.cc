#include "query/engine.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "algebra/pick.h"
#include "algebra/scoring.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "exec/parallel_term_join.h"
#include "exec/pick_operator.h"
#include "exec/segment_merge.h"
#include "exec/structural_join.h"
#include "exec/term_join.h"
#include "exec/threshold_operator.h"
#include "query/parser.h"
#include "query/similarity_join.h"
#include "xml/serializer.h"

namespace tix::query {

namespace {

using Elements = std::vector<exec::ScoredElement>;

/// DeadlineExceeded naming `stage` once `deadline` has passed; OK
/// otherwise. Polled between pipeline stages and path steps (TermJoin
/// additionally polls mid-merge).
Status CheckDeadline(const Deadline& deadline, const char* stage) {
  if (!deadline.Expired()) return Status::OK();
  return Status::DeadlineExceeded(
      StrFormat("query deadline exceeded (at %s)", stage));
}

/// The engine's one structural matcher: each path step is a semi-join on
/// the resident node columns, cut to the query's node range (one
/// document's [root, root + node_count), or every live document). Work
/// is O(steps x candidates) with no embeddings; only `*` steps (the
/// element test) and predicates read records.
class StepMatcher {
 public:
  /// `doc` null: every document, of which `live` (when set) names the
  /// live ones.
  StepMatcher(storage::Database* db, const storage::DocumentInfo* doc,
              const index::IndexSnapshot* live, const Deadline& deadline)
      : db_(db),
        begin_(doc != nullptr ? doc->root : 0),
        end_(static_cast<storage::NodeId>(
            doc != nullptr ? doc->root + doc->node_count : db->num_nodes())),
        live_(doc != nullptr ? nullptr : live),
        deadline_(deadline) {}

  bool Live(storage::DocId doc) const {
    return live_ == nullptr || live_->IsLiveDocument(doc);
  }

  /// Distinct bindings of the last of steps [0, count) in document order;
  /// the first step matches anywhere in range, whatever its axis.
  Result<Elements> Match(const std::vector<PathStep>& steps, size_t count) {
    Elements bound;
    for (size_t i = 0; i < count; ++i) {
      TIX_ASSIGN_OR_RETURN(bound, Step(steps[i], i == 0 ? nullptr : &bound));
    }
    return bound;
  }

  /// Elements bound to `step` under `context` (nullptr: anywhere in
  /// range), in document order. Candidates are `pool` (scored elements)
  /// when given, else the tag index, else for `*` every node in range or
  /// in the context subtrees. `or_self` admits a context element itself.
  Result<Elements> Step(const PathStep& step, const Elements* context,
                        bool or_self = false, const Elements* pool = nullptr) {
    TIX_RETURN_IF_ERROR(CheckDeadline(deadline_, "path step"));
    if (std::ranges::any_of(step.predicates, [](const StepPredicate& p) {
          return !p.attribute.empty() && !p.value.has_value();
        })) {
      return Status::NotImplemented(
          "attribute existence tests are not supported");
    }
    Elements candidates;
    if (context != nullptr && context->empty()) return candidates;
    if (pool != nullptr) {
      const std::vector<storage::NodeId>* tagged = Tagged(step.name);
      for (const exec::ScoredElement& element : *pool) {
        if (step.name == "*" ||
            (tagged && std::ranges::binary_search(*tagged, element.node))) {
          candidates.push_back(element);
        }
      }
    } else if (step.name != "*") {
      TIX_ASSIGN_OR_RETURN(candidates,
                           exec::TagScan(db_, step.name, begin_, end_));
    } else {
      storage::NodeId id = begin_;  // nested context subtrees scan once
      for (size_t a = 0; a == 0 || (context && a < context->size()); ++a) {
        const exec::ScoredElement* top = context ? &(*context)[a] : nullptr;
        if (top != nullptr) id = std::max(id, top->node + (or_self ? 0 : 1));
        for (; id < end_ && (top == nullptr ||
                             (db_->DocFromIndex(id) == top->doc &&
                              db_->StartFromIndex(id) < top->end));
             ++id) {
          TIX_ASSIGN_OR_RETURN(const storage::NodeRecord record,
                               db_->GetNode(id));
          if (record.is_element()) {
            candidates.push_back(exec::ResidentElement(*db_, id));
          }
        }
      }
    }
    if (context != nullptr && step.descendant) {
      candidates = exec::SemiJoinDescendants(candidates, *context, or_self);
    }
    Elements out;
    for (exec::ScoredElement& candidate : candidates) {
      const storage::NodeId parent = db_->ParentFromIndex(candidate.node);
      if (!Live(candidate.doc) ||
          (context != nullptr && !step.descendant &&
           !std::ranges::binary_search(*context, parent, {},
                                       &exec::ScoredElement::node))) {
        continue;
      }
      bool holds = true;
      for (size_t i = 0; holds && i < step.predicates.size(); ++i) {
        TIX_ASSIGN_OR_RETURN(holds, Holds(candidate.node, step.predicates[i]));
      }
      if (holds) out.push_back(std::move(candidate));
    }
    return out;
  }

 private:
  const std::vector<storage::NodeId>* Tagged(std::string_view name) const {
    const storage::TagId tag = db_->LookupTag(name);
    return tag == text::kInvalidTermId ? nullptr : db_->ElementsWithTag(tag);
  }

  /// Whether `predicate` holds at `node`: a chain of children named by its
  /// path (tag index + parent column) reaches a node whose attribute, or
  /// trimmed alltext, equals the value (a bare path needs only the chain).
  Result<bool> Holds(storage::NodeId node, const StepPredicate& predicate,
                     size_t depth = 0) {
    if (depth < predicate.path.size()) {
      const std::vector<storage::NodeId>* tagged =
          Tagged(predicate.path[depth]);
      if (tagged == nullptr) return false;
      const exec::ScoredElement self = exec::ResidentElement(*db_, node);
      for (auto it = std::upper_bound(tagged->begin(), tagged->end(), node);
           it != tagged->end() && db_->DocFromIndex(*it) == self.doc &&
           db_->StartFromIndex(*it) < self.end;
           ++it) {
        if (db_->ParentFromIndex(*it) != node) continue;
        TIX_ASSIGN_OR_RETURN(const bool holds,
                             Holds(*it, predicate, depth + 1));
        if (holds) return true;
      }
      return false;
    }
    if (!predicate.value.has_value()) return true;
    if (predicate.attribute.empty()) {
      TIX_ASSIGN_OR_RETURN(const std::string text, db_->AllTextOf(node));
      return Trim(text) == *predicate.value;
    }
    TIX_ASSIGN_OR_RETURN(const storage::NodeRecord record, db_->GetNode(node));
    TIX_ASSIGN_OR_RETURN(const storage::AttributeList attributes,
                         db_->AttributesOf(record));
    return std::ranges::any_of(attributes, [&](const xml::XmlAttribute& a) {
      return a.name == predicate.attribute && a.value == *predicate.value;
    });
  }

  storage::Database* db_;
  const storage::NodeId begin_;
  const storage::NodeId end_;
  const index::IndexSnapshot* live_;
  const Deadline& deadline_;
};

/// The run of `sorted` (document order) in `anchor`'s subtree, or-self:
/// elements of its document starting in [anchor.start, anchor.end).
std::span<const exec::ScoredElement> SubtreeRun(
    const Elements& sorted, const exec::ScoredElement& anchor) {
  const auto key = [](const exec::ScoredElement& e) {
    return std::pair(e.doc, e.start);
  };
  return {std::ranges::lower_bound(sorted, key(anchor), {}, key),
          std::ranges::lower_bound(sorted, std::pair(anchor.doc, anchor.end),
                                   {}, key)};
}

/// Copies a join's merged and per-partition statistics onto its EXPLAIN
/// span (no-op when the span is disabled). Works for any join exposing
/// the ParallelTermJoin interface — SegmentedTermJoin mirrors it.
template <typename Join>
void AttachTermJoinStats(obs::OperatorSpan* span, const Join& join) {
  obs::OperatorMetrics* node = span->mutable_node();
  if (node == nullptr) return;
  const exec::TermJoinStats& stats = join.stats();
  node->SetCounter("occurrences", stats.occurrences);
  node->SetCounter("stack_pushes", stats.stack_pushes);
  node->SetCounter("max_stack_depth", stats.max_stack_depth);
  // blocks skipped / postings pruned / floor updates reach the span
  // through its metrics context (obs::Count); only docs_pruned has no
  // enum counter and rides on the stats struct.
  if (stats.docs_pruned > 0) {
    node->SetCounter("topk_docs_pruned", stats.docs_pruned);
  }
  const std::vector<exec::DocRange>& partitions = join.partitions();
  const std::vector<exec::TermJoinStats>& partition_stats =
      join.partition_stats();
  for (size_t i = 0;
       i < partition_stats.size() && i < partitions.size(); ++i) {
    const exec::TermJoinStats& part = partition_stats[i];
    obs::OperatorMetrics child;
    child.name = "TermJoin";
    child.detail = StrFormat("partition %zu: docs [%u, %u)", i,
                             partitions[i].begin, partitions[i].end);
    child.rows = part.outputs;
    child.SetCounter("occurrences", part.occurrences);
    child.SetCounter("stack_pushes", part.stack_pushes);
    if (part.docs_pruned > 0) {
      child.SetCounter("topk_docs_pruned", part.docs_pruned);
    }
    for (const auto& [counter, value] :
         {std::pair(obs::Counter::kRecordFetches, part.record_fetches),
          std::pair(obs::Counter::kTopkBlocksSkipped, part.blocks_skipped),
          std::pair(obs::Counter::kTopkPostingsPruned, part.postings_pruned),
          std::pair(obs::Counter::kIndexBlocksDecoded, part.blocks_decoded),
          std::pair(obs::Counter::kIndexBlockCacheHits,
                    part.block_cache_hits)}) {
      if (value > 0) child.SetCounter(obs::CounterName(counter), value);
    }
    node->AddChild(std::move(child));
  }
}

}  // namespace

Result<QueryOutput> QueryEngine::ExecuteText(std::string_view text) {
  TIX_ASSIGN_OR_RETURN(const Query query, ParseQuery(text));
  return Execute(query);
}

Result<double> QueryEngine::TermIdf(std::string_view term) const {
  if (snapshot_ != nullptr) return snapshot_->InverseDocumentFrequency(term);
  return index_->InverseDocumentFrequency(term);
}

Result<storage::DocumentInfo> QueryEngine::ResolveDocument(
    const std::string& name) const {
  if (snapshot_ == nullptr) return db_->GetDocumentByName(name);
  for (const storage::DocumentInfo& info : db_->documents()) {
    if (info.name == name && snapshot_->IsLiveDocument(info.doc_id)) {
      return info;
    }
  }
  return Status::NotFound("no document named '" + name + "'");
}

Result<std::vector<exec::ScoredElement>> QueryEngine::RunScoringJoin(
    const algebra::IrPredicate& predicate, const algebra::Scorer& scorer,
    exec::DocRange range, const algebra::ThresholdSpec* pushdown,
    obs::OperatorMetrics* plan) {
  std::string detail =
      options_.num_threads > 0 ? StrFormat("threads=%zu", options_.num_threads)
                               : "";
  exec::ParallelTermJoinOptions join_options;
  join_options.join.enhanced = true;  // resident columns, no record fetches
  join_options.join.deadline = &options_.deadline;
  join_options.join.range = range;
  join_options.num_threads = options_.num_threads;
  if (pushdown != nullptr) {
    detail += StrFormat("%stopk-pushdown(k=%zu)", detail.empty() ? "" : ", ",
                        *pushdown->top_k);
    join_options.join.threshold = *pushdown;
    // Cross-process floor sharing (a shard session sets these).
    join_options.join.shared_floor = options_.shared_topk_floor;
    join_options.join.floor_poll = options_.topk_floor_poll;
  }
  obs::OperatorSpan span(
      plan, options_.num_threads > 0 ? "ParallelTermJoin" : "TermJoin",
      std::move(detail));
  std::vector<exec::ScoredElement> scored;
  if (snapshot_ != nullptr) {
    exec::SegmentedTermJoin join(db_, snapshot_.get(), &predicate, &scorer,
                                 join_options);
    TIX_ASSIGN_OR_RETURN(scored, join.Run());
    span.set_rows(scored.size());
    AttachTermJoinStats(&span, join);
  } else {
    exec::ParallelTermJoin join(db_, index_, &predicate, &scorer,
                                join_options);
    TIX_ASSIGN_OR_RETURN(scored, join.Run());
    span.set_rows(scored.size());
    AttachTermJoinStats(&span, join);
  }
  return scored;
}

Result<std::unique_ptr<algebra::Scorer>> QueryEngine::MakeScorerForClause(
    const ScoreClause& clause, const algebra::IrPredicate& predicate) const {
  auto phrase_idf = [&]() -> Result<std::vector<double>> {
    std::vector<double> idf;
    for (const algebra::WeightedPhrase& phrase : predicate.phrases) {
      double value = 0.0;
      for (const std::string& term : phrase.terms) {
        TIX_ASSIGN_OR_RETURN(const double term_idf, TermIdf(term));
        value = std::max(value, term_idf);
      }
      idf.push_back(value);
    }
    return idf;
  };
  std::unique_ptr<algebra::Scorer> scorer;
  if (clause.scorer == "complexfoo") {
    scorer = std::make_unique<algebra::ComplexProximityScorer>(
        predicate.Weights());
  } else if (clause.scorer == "tfidf") {
    TIX_ASSIGN_OR_RETURN(std::vector<double> idf, phrase_idf());
    scorer = std::make_unique<algebra::TfIdfScorer>(predicate.Weights(),
                                                    std::move(idf));
  } else if (clause.scorer == "bm25") {
    uint64_t total_words = 0;
    for (const storage::DocumentInfo& info : db_->documents()) {
      total_words += info.word_count;
    }
    const double average_span =
        db_->num_nodes() == 0 ? 1.0
                              : static_cast<double>(total_words) /
                                    static_cast<double>(db_->num_nodes());
    TIX_ASSIGN_OR_RETURN(std::vector<double> idf, phrase_idf());
    scorer = std::make_unique<algebra::LengthNormalizedScorer>(
        predicate.Weights(), std::move(idf), average_span);
  } else {
    scorer =
        std::make_unique<algebra::WeightedCountScorer>(predicate.Weights());
  }
  return scorer;
}

Result<QueryOutput> QueryEngine::Execute(const Query& query) {
  if (!options_.collect_metrics) {
    // No plan tree: every OperatorSpan below is a disabled no-op and no
    // metrics context is installed, so the hot path only pays the null
    // thread-local check inside obs::Count.
    if (query.simjoin.has_value()) return ExecuteJoin(query, nullptr);
    return ExecuteSelect(query, nullptr);
  }
  obs::OperatorMetrics root;
  root.name = "Query";
  root.detail = query.simjoin.has_value() ? "similarity join" : "select";
  obs::MetricsContext query_metrics;
  WallTimer timer;
  Result<QueryOutput> result = [&]() -> Result<QueryOutput> {
    // Installing the query context here makes every storage access of
    // this query — including ones outside any operator span — charge
    // the query, and only this query.
    const obs::ScopedMetrics scope(&query_metrics);
    return query.simjoin.has_value() ? ExecuteJoin(query, &root)
                                     : ExecuteSelect(query, &root);
  }();
  if (!result.ok()) return result;
  root.seconds = timer.ElapsedSeconds();
  root.rows = result.value().stats.returned;
  for (int i = 0; i < obs::kNumCounters; ++i) {
    const obs::Counter counter = static_cast<obs::Counter>(i);
    const uint64_t value = query_metrics.value(counter);
    if (value != 0) root.SetCounter(obs::CounterName(counter), value);
  }
  result.value().plan = std::move(root);
  return result;
}

Result<QueryOutput> QueryEngine::ExecuteSelect(const Query& query,
                                               obs::OperatorMetrics* plan) {
  QueryOutput output;
  // document("*") targets every live document — the corpus-wide mode a
  // scatter-gather shard executes (docs/SHARDING.md). The matcher's node
  // range and the TermJoin doc range widen to "any live document".
  const bool all_documents = query.path.document == "*";
  storage::DocumentInfo doc;
  if (!all_documents) {
    TIX_ASSIGN_OR_RETURN(doc, ResolveDocument(query.path.document));
  }
  StepMatcher matcher(db_, all_documents ? nullptr : &doc, snapshot_.get(),
                      options_.deadline);

  const std::vector<PathStep>& steps = query.path.steps;
  const PathStep& target_step = steps.back();

  algebra::ThresholdSpec threshold_spec;
  if (query.threshold.has_value()) {
    threshold_spec.min_score = query.threshold->min_score;
    threshold_spec.top_k = query.threshold->top_k;
  }
  bool pushed_down = false;

  // ---- Anchors: the structural part (every step but the last). -------
  std::vector<exec::ScoredElement> anchors;
  {
    obs::OperatorSpan span(plan, "StructuralMatch",
                           steps.size() == 1 ? "document root"
                                             : "anchor pattern");
    if (steps.size() > 1) {
      TIX_ASSIGN_OR_RETURN(anchors, matcher.Match(steps, steps.size() - 1));
    } else if (!all_documents) {
      anchors.push_back(exec::ResidentElement(*db_, doc.root));
    } else {
      for (const storage::DocumentInfo& info : db_->documents()) {
        if (matcher.Live(info.doc_id)) {
          anchors.push_back(exec::ResidentElement(*db_, info.root));
        }
      }
    }
    output.stats.anchors = anchors.size();
    span.set_rows(anchors.size());
    if (anchors.empty()) return output;
  }

  // ---- Score generation (TermJoin) or pure structural matching. ------
  std::vector<exec::ScoredElement> scored;
  std::unique_ptr<algebra::Scorer> scorer;
  if (query.score.has_value()) {
    const ScoreClause& clause = *query.score;
    algebra::IrPredicate predicate =
        algebra::IrPredicate::FooStyle(clause.primary, clause.desirable);
    TIX_ASSIGN_OR_RETURN(scorer, MakeScorerForClause(clause, predicate));

    // Threshold pushdown eligibility. Every condition guards a way the
    // downstream pipeline could still drop or reorder scored elements,
    // which would make an early top-K wrong:
    //  - top_k must be set (min_score alone cannot terminate a merge);
    //  - the scorer must be simple and monotone, or count bounds are
    //    not score bounds;
    //  - no Pick (it filters between TermJoin and Threshold);
    //  - a single-step `*` descendant path without predicates, so Scope
    //    (anchored at the document root) keeps every scored element of
    //    the join's doc range.
    const bool pushdown =
        options_.threshold_pushdown && threshold_spec.top_k.has_value() &&
        !query.pick.has_value() && steps.size() == 1 &&
        target_step.name == "*" && target_step.descendant &&
        target_step.predicates.empty() && !scorer->is_complex() &&
        scorer->is_monotone();
    pushed_down = pushdown;

    // Only the query's document can survive Scope.
    TIX_ASSIGN_OR_RETURN(
        std::vector<exec::ScoredElement> all_scored,
        RunScoringJoin(predicate, *scorer,
                       all_documents
                           ? exec::DocRange{}
                           : exec::DocRange{doc.doc_id, doc.doc_id + 1},
                       pushdown ? &threshold_spec : nullptr, plan));
    std::sort(all_scored.begin(), all_scored.end(), exec::DocumentOrderLess);

    // Scope: the target step over the scored elements, relative to the
    // anchors; `*` targets use descendant-or-self (the paper's ad* edge).
    obs::OperatorSpan span(plan, "Scope",
                           "anchor semi-join + target filters");
    TIX_ASSIGN_OR_RETURN(scored, matcher.Step(target_step, &anchors,
                                              target_step.name == "*",
                                              &all_scored));
    span.set_rows(scored.size());
  } else {
    // Boolean query: the target is one more step from the anchors. A
    // one-step path matches anywhere in scope, the root included.
    obs::OperatorSpan span(plan, "StructuralMatch", "target step");
    TIX_ASSIGN_OR_RETURN(scored, steps.size() == 1
                                     ? matcher.Match(steps, 1)
                                     : matcher.Step(target_step, &anchors));
    span.set_rows(scored.size());
  }
  output.stats.scored_elements = scored.size();

  // ---- Pick: granularity selection per anchor. ------------------------
  TIX_RETURN_IF_ERROR(CheckDeadline(options_.deadline, "Pick"));
  if (query.pick.has_value() && !scored.empty()) {
    obs::OperatorSpan span(plan, "Pick", query.pick->criterion);
    std::unique_ptr<algebra::PickCriterion> criterion;
    if (query.pick->criterion == "parity") {
      criterion = std::make_unique<algebra::LevelParityPickCriterion>(
          query.pick->threshold, query.pick->fraction);
    } else if (query.pick->criterion == "topfraction") {
      // Sec. 5.3: derive the relevance threshold from the score
      // distribution of this query's components; the first PICK
      // parameter is the top fraction, not an absolute score.
      std::vector<double> scores(scored.size());
      std::ranges::transform(scored, scores.begin(),
                             &exec::ScoredElement::score);
      criterion = std::make_unique<algebra::QuantilePickCriterion>(
          algebra::ScoreHistogram(scores), query.pick->threshold,
          query.pick->fraction);
    } else {
      criterion = std::make_unique<algebra::PickFooCriterion>(
          query.pick->threshold, query.pick->fraction);
    }

    // `scored` is in document order: an anchor's own entry and its
    // descendants are one run of it (nested anchors' runs overlap).
    std::unordered_set<storage::NodeId> picked_set;
    std::vector<exec::PickEntry> entries;
    std::vector<const exec::ScoredElement*> stack;
    for (const exec::ScoredElement& anchor : anchors) {
      const auto run = SubtreeRun(scored, anchor);
      // Root entry: the anchor itself (score 0 unless scored).
      const exec::ScoredElement& root =
          !run.empty() && run.front().node == anchor.node ? run.front()
                                                          : anchor;
      entries.assign(1, exec::PickEntry{root.node, 0, root.score});
      stack.assign(1, &root);
      for (const exec::ScoredElement& element : run) {
        if (!(element.start > anchor.start && element.end < anchor.end)) {
          continue;
        }
        while (!(element.start > stack.back()->start &&
                 element.end < stack.back()->end)) {
          stack.pop_back();
        }
        entries.push_back(exec::PickEntry{
            element.node, static_cast<uint16_t>(stack.size()),
            element.score});
        stack.push_back(&element);
      }
      exec::PickOperator pick(criterion.get());
      TIX_ASSIGN_OR_RETURN(const std::vector<storage::NodeId> picked,
                           pick.Run(entries));
      picked_set.insert(picked.begin(), picked.end());
    }
    std::erase_if(scored, [&](const exec::ScoredElement& element) {
      return picked_set.count(element.node) == 0;
    });
    output.stats.picked = scored.size();
    span.set_rows(scored.size());
  }

  // ---- Threshold / top-K. ---------------------------------------------
  // In pushdown mode the heavy lifting already happened inside TermJoin
  // and `scored` holds (at most) the top-K; re-applying the operator to
  // the survivors is idempotent and keeps one code path.
  {
    std::string detail;
    if (threshold_spec.min_score.has_value()) {
      detail += "min_score=" + FormatDouble(*threshold_spec.min_score, 2);
    }
    if (threshold_spec.top_k.has_value()) {
      if (!detail.empty()) detail += ", ";
      detail += StrFormat("top_k=%zu", *threshold_spec.top_k);
    }
    if (detail.empty()) detail = "pass-through";
    if (pushed_down) detail += ", pushed down";
    obs::OperatorSpan span(plan, "Threshold", std::move(detail));
    exec::ThresholdOperator threshold(threshold_spec);
    for (exec::ScoredElement& element : scored) {
      threshold.Push(std::move(element));
    }
    for (const exec::ScoredElement& element : threshold.Finish()) {
      output.results.push_back(QueryResultItem{element.node, element.score});
    }
    span.set_rows(output.results.size());
    span.SetCounter("pushed", threshold.pushed());
    span.SetCounter("dropped_by_score", threshold.dropped_by_score());
    span.SetCounter("dropped_by_heap", threshold.dropped_by_heap());
  }
  output.stats.returned = output.results.size();
  return output;
}

Result<QueryOutput> QueryEngine::ExecuteJoin(const Query& query,
                                             obs::OperatorMetrics* plan) {
  QueryOutput output;
  const SimJoinClause& simjoin = *query.simjoin;

  // Bindings of each FOR variable: the last step of its path (no ad*
  // target in join queries; the variable IS the last step).
  auto bindings = [&](const PathExpr& path)
      -> Result<std::vector<storage::NodeId>> {
    TIX_ASSIGN_OR_RETURN(const storage::DocumentInfo doc,
                         ResolveDocument(path.document));
    TIX_ASSIGN_OR_RETURN(const Elements elements,
                         StepMatcher(db_, &doc, nullptr, options_.deadline)
                             .Match(path.steps, path.steps.size()));
    std::vector<storage::NodeId> nodes(elements.size());
    std::ranges::transform(elements, nodes.begin(), &exec::ScoredElement::node);
    return nodes;
  };
  std::vector<storage::NodeId> left_anchors;
  std::vector<storage::NodeId> right_anchors;
  {
    obs::OperatorSpan span(plan, "StructuralMatch", "join bindings");
    TIX_ASSIGN_OR_RETURN(left_anchors, bindings(query.path));
    TIX_ASSIGN_OR_RETURN(right_anchors, bindings(*query.path2));
    output.stats.anchors = left_anchors.size() + right_anchors.size();
    span.set_rows(output.stats.anchors);
  }
  if (left_anchors.empty() || right_anchors.empty()) return output;
  TIX_RETURN_IF_ERROR(CheckDeadline(options_.deadline, "SimilarityJoin"));

  // Similarity join on the designated descendant elements.
  obs::OperatorSpan simjoin_span(
      plan, "SimilarityJoin",
      simjoin.left_tag + " ~ " + simjoin.right_tag);
  TIX_ASSIGN_OR_RETURN(
      const std::vector<storage::NodeId> left_keys,
      FirstDescendantWithTag(db_, left_anchors, simjoin.left_tag));
  TIX_ASSIGN_OR_RETURN(
      const std::vector<storage::NodeId> right_keys,
      FirstDescendantWithTag(db_, right_anchors, simjoin.right_tag));
  // Keep only anchors that have the key element, remembering the anchor
  // each key belongs to.
  std::unordered_map<storage::NodeId, storage::NodeId> key_to_anchor;
  std::vector<storage::NodeId> left_present;
  std::vector<storage::NodeId> right_present;
  for (size_t i = 0; i < left_keys.size(); ++i) {
    if (left_keys[i] == storage::kInvalidNodeId) continue;
    key_to_anchor[left_keys[i]] = left_anchors[i];
    left_present.push_back(left_keys[i]);
  }
  for (size_t i = 0; i < right_keys.size(); ++i) {
    if (right_keys[i] == storage::kInvalidNodeId) continue;
    key_to_anchor[right_keys[i]] = right_anchors[i];
    right_present.push_back(right_keys[i]);
  }
  SimilarityJoinOptions join_options;
  join_options.min_similarity = simjoin.min_similarity;
  TIX_ASSIGN_OR_RETURN(
      const std::vector<SimilarityPair> sim_pairs,
      SimilarityJoin(db_, left_present, right_present, join_options));
  simjoin_span.set_rows(sim_pairs.size());
  simjoin_span.Finish();

  // Best IR component score per left anchor (Query 3's $d/@score).
  std::unordered_map<storage::NodeId, double> ir_score;
  if (query.score.has_value()) {
    algebra::IrPredicate predicate = algebra::IrPredicate::FooStyle(
        query.score->primary, query.score->desirable);
    TIX_ASSIGN_OR_RETURN(const std::unique_ptr<algebra::Scorer> scorer,
                         MakeScorerForClause(*query.score, predicate));
    // Only the left path's document holds left anchors.
    const storage::DocId left_doc = db_->DocFromIndex(left_anchors.front());
    TIX_ASSIGN_OR_RETURN(
        std::vector<exec::ScoredElement> scored,
        RunScoringJoin(predicate, *scorer,
                       exec::DocRange{left_doc, left_doc + 1}, nullptr, plan));
    std::sort(scored.begin(), scored.end(), exec::DocumentOrderLess);
    output.stats.scored_elements = scored.size();
    for (const storage::NodeId anchor : left_anchors) {
      const exec::ScoredElement bound = exec::ResidentElement(*db_, anchor);
      double& best = ir_score[anchor];  // 0 when nothing in it scored
      for (const exec::ScoredElement& element : SubtreeRun(scored, bound)) {
        if (element.end <= bound.end) best = std::max(best, element.score);
      }
    }
  }

  // Combine, threshold, sort.
  obs::OperatorSpan combine_span(plan, "Threshold", "combine + threshold");
  std::vector<QueryPairResult> pairs;
  for (const SimilarityPair& pair : sim_pairs) {
    QueryPairResult result;
    result.left = key_to_anchor[pair.left];
    result.right = key_to_anchor[pair.right];
    result.similarity = pair.similarity;
    if (query.score.has_value()) {
      result.combined =
          algebra::ScoreBar(pair.similarity, ir_score[result.left]);
      if (result.combined == 0.0) continue;  // ScoreBar gates on relevance
    } else {
      result.combined = pair.similarity;
    }
    pairs.push_back(result);
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const QueryPairResult& a, const QueryPairResult& b) {
              if (a.combined != b.combined) return a.combined > b.combined;
              if (a.left != b.left) return a.left < b.left;
              return a.right < b.right;
            });
  if (query.threshold.has_value()) {
    if (query.threshold->min_score.has_value()) {
      std::erase_if(pairs, [&](const QueryPairResult& pair) {
        return !(pair.combined > *query.threshold->min_score);
      });
    }
    if (query.threshold->top_k.has_value() &&
        pairs.size() > *query.threshold->top_k) {
      pairs.resize(*query.threshold->top_k);
    }
  }
  for (const QueryPairResult& pair : pairs) {
    output.results.push_back(QueryResultItem{pair.left, pair.combined});
  }
  output.pairs = std::move(pairs);
  output.stats.returned = output.results.size();
  combine_span.set_rows(output.results.size());
  return output;
}

Result<std::string> QueryEngine::RenderXml(const QueryOutput& output,
                                           size_t limit) const {
  std::string xml;
  const size_t n = std::min(limit, output.results.size());
  for (size_t i = 0; i < n; ++i) {
    const QueryResultItem& item = output.results[i];
    TIX_ASSIGN_OR_RETURN(const std::unique_ptr<xml::XmlNode> subtree,
                         db_->ReconstructSubtree(item.node));
    xml += "<result>\n  <score>";
    xml += FormatDouble(item.score, 2);
    xml += "</score>\n  ";
    xml += xml::SerializeNode(*subtree);
    xml += "\n</result>\n";
  }
  return xml;
}

}  // namespace tix::query
