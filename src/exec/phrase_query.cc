#include "exec/phrase_query.h"

#include <algorithm>

#include "common/logging.h"
#include "common/obs.h"
#include "exec/occurrence_stream.h"
#include "index/block_cursor.h"
#include "text/tokenizer.h"

namespace tix::exec {

PhraseFinderQuery::PhraseFinderQuery(storage::Database* db,
                                     const index::InvertedIndex* index,
                                     std::vector<std::string> terms,
                                     DocRange range)
    : db_(db), index_(index), terms_(std::move(terms)), range_(range) {}

Result<std::vector<PhraseResult>> PhraseFinderQuery::Run() {
  std::vector<const index::PostingList*> lists;
  lists.reserve(terms_.size());
  for (const std::string& term : terms_) {
    TIX_ASSIGN_OR_RETURN(const index::PostingList* list, index_->Lookup(term));
    lists.push_back(list);
  }
  PhraseFinderStream stream(std::move(lists), /*galloping=*/false, range_);

  std::vector<PhraseResult> out;
  while (auto occurrence = stream.Peek()) {
    stream.Advance();
    if (!out.empty() && out.back().text_node == occurrence->text_node) {
      ++out.back().count;
    } else {
      out.push_back(PhraseResult{occurrence->text_node, occurrence->doc, 1});
    }
  }
  stats_.postings_scanned = stream.postings_scanned();
  stats_.outputs = out.size();
  return out;
}

Comp3::Comp3(storage::Database* db, const index::InvertedIndex* index,
             std::vector<std::string> terms)
    : db_(db), index_(index), terms_(std::move(terms)) {}

Result<std::vector<PhraseResult>> Comp3::Run() {
  // Per-run context: exact under concurrent queries, unlike the old
  // global-counter delta.
  obs::MetricsContext local(obs::CurrentMetrics());
  const obs::ScopedMetrics scope(&local);
  // Step 1: index access per term, materializing the distinct text-node
  // id list of each.
  std::vector<std::vector<storage::NodeId>> node_lists(terms_.size());
  for (size_t i = 0; i < terms_.size(); ++i) {
    TIX_ASSIGN_OR_RETURN(const index::PostingList* list,
                         index_->Lookup(terms_[i]));
    if (list == nullptr) return std::vector<PhraseResult>{};
    std::vector<storage::NodeId>& nodes = node_lists[i];
    index::BlockCursor cursor(list);
    for (size_t j = 0; j < cursor.size(); ++j) {
      const index::Posting& posting = cursor.Get(j);
      ++stats_.postings_scanned;
      if (nodes.empty() || nodes.back() != posting.node_id) {
        nodes.push_back(posting.node_id);
      }
    }
  }

  // Step 2: intersect the node-id lists (k-way sorted merge).
  std::vector<storage::NodeId> candidates = node_lists[0];
  for (size_t i = 1; i < terms_.size() && !candidates.empty(); ++i) {
    std::vector<storage::NodeId> next;
    std::set_intersection(candidates.begin(), candidates.end(),
                          node_lists[i].begin(), node_lists[i].end(),
                          std::back_inserter(next));
    candidates = std::move(next);
  }
  stats_.candidates = candidates.size();

  // Step 3: filter — fetch each candidate's stored text and check that
  // the terms occur at consecutive offsets in phrase order.
  std::vector<std::string> normalized;
  normalized.reserve(terms_.size());
  for (const std::string& term : terms_) {
    normalized.push_back(db_->tokenizer().Normalize(term));
  }
  std::vector<PhraseResult> out;
  for (storage::NodeId candidate : candidates) {
    TIX_ASSIGN_OR_RETURN(const storage::NodeRecord record,
                         db_->GetNode(candidate));
    TIX_ASSIGN_OR_RETURN(const std::string data, db_->TextOf(record));
    stats_.text_bytes_fetched += data.size();
    const std::vector<text::Token> tokens = db_->tokenizer().Tokenize(data);
    std::vector<const std::string*> by_pos(record.num_words, nullptr);
    for (const text::Token& token : tokens) {
      if (token.position < by_pos.size()) by_pos[token.position] = &token.term;
    }
    uint32_t count = 0;
    if (by_pos.size() >= normalized.size()) {
      for (size_t p = 0; p + normalized.size() <= by_pos.size(); ++p) {
        bool match = true;
        for (size_t k = 0; k < normalized.size(); ++k) {
          if (by_pos[p + k] == nullptr || *by_pos[p + k] != normalized[k]) {
            match = false;
            break;
          }
        }
        if (match) ++count;
      }
    }
    if (count > 0) {
      out.push_back(PhraseResult{candidate, record.doc_id, count});
    }
  }
  stats_.outputs = out.size();
  stats_.record_fetches = local.value(obs::Counter::kRecordFetches);
  return out;
}

}  // namespace tix::exec
