#include "common/obs.h"

#include <cinttypes>
#include <cstdio>

namespace tix::obs {
namespace {

thread_local MetricsContext* tls_current = nullptr;

void AppendEscaped(std::string* out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          *out += buffer;
        } else {
          *out += c;
        }
    }
  }
}

void AppendNumber(std::string* out, uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  *out += buffer;
}

void RenderTextNode(const OperatorMetrics& node, const std::string& prefix,
                    bool last, bool root, std::string* out) {
  if (!root) {
    *out += prefix;
    *out += last ? "`-- " : "|-- ";
  }
  *out += node.name;
  if (!node.detail.empty()) {
    *out += " (";
    *out += node.detail;
    *out += ")";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "  [%.3f ms, rows=%" PRIu64 "]",
                node.seconds * 1e3, node.rows);
  *out += buffer;
  *out += '\n';
  const std::string child_prefix =
      root ? "" : prefix + (last ? "    " : "|   ");
  if (!node.counters.empty()) {
    *out += child_prefix;
    *out += node.children.empty() ? "    " : "|   ";
    *out += "  ";
    bool first = true;
    for (const auto& [name, value] : node.counters) {
      if (!first) *out += ", ";
      first = false;
      *out += name;
      *out += "=";
      AppendNumber(out, value);
    }
    *out += '\n';
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    RenderTextNode(node.children[i], child_prefix,
                   i + 1 == node.children.size(), false, out);
  }
}

void RenderJsonNode(const OperatorMetrics& node, int indent,
                    std::string* out) {
  const std::string pad(indent, ' ');
  const std::string pad2(indent + 2, ' ');
  *out += "{\n";
  *out += pad2 + "\"name\": \"";
  AppendEscaped(out, node.name);
  *out += "\",\n";
  *out += pad2 + "\"detail\": \"";
  AppendEscaped(out, node.detail);
  *out += "\",\n";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", node.seconds);
  *out += pad2 + "\"seconds\": ";
  *out += buffer;
  *out += ",\n";
  *out += pad2 + "\"rows\": ";
  AppendNumber(out, node.rows);
  *out += ",\n";
  *out += pad2 + "\"counters\": {";
  for (size_t i = 0; i < node.counters.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += "\"";
    AppendEscaped(out, node.counters[i].first);
    *out += "\": ";
    AppendNumber(out, node.counters[i].second);
  }
  *out += "},\n";
  *out += pad2 + "\"children\": [";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) *out += ", ";
    RenderJsonNode(node.children[i], indent + 2, out);
  }
  *out += "]\n";
  *out += pad + "}";
}

}  // namespace

const char* CounterName(Counter counter) {
  switch (counter) {
    case Counter::kRecordFetches:
      return "record_fetches";
    case Counter::kBlobReads:
      return "blob_reads";
    case Counter::kTextBytesRead:
      return "text_bytes_read";
    case Counter::kIndexLookups:
      return "index_lookups";
    case Counter::kTopkBlocksSkipped:
      return "topk_blocks_skipped";
    case Counter::kTopkPostingsPruned:
      return "topk_postings_pruned";
    case Counter::kTopkFloorUpdates:
      return "topk_floor_updates";
    case Counter::kIndexBlocksScanned:
      return "index_blocks_scanned";
    case Counter::kIndexBlocksDecoded:
      return "index_blocks_decoded";
    case Counter::kIndexBlockCacheHits:
      return "index_block_cache_hits";
    case Counter::kIndexBlockCacheEvictions:
      return "index_block_cache_evictions";
    case Counter::kResultCacheHits:
      return "result_cache_hits";
    case Counter::kResultCacheMisses:
      return "result_cache_misses";
    case Counter::kResultCacheGenEvictions:
      return "result_cache_gen_evictions";
    case Counter::kTermJoinOccurrences:
      return "term_join_occurrences";
    case Counter::kIndexListsScrubbed:
      return "index_lists_scrubbed";
  }
  return "unknown";
}

MetricsContext* CurrentMetrics() { return tls_current; }

ScopedMetrics::ScopedMetrics(MetricsContext* context)
    : previous_(tls_current) {
  tls_current = context;
}

ScopedMetrics::~ScopedMetrics() { tls_current = previous_; }

void Count(Counter counter, uint64_t n) {
  MetricsContext* context = tls_current;
  if (context != nullptr) context->Add(counter, n);
}

void OperatorMetrics::SetCounter(const std::string& counter_name,
                                 uint64_t value) {
  for (auto& entry : counters) {
    if (entry.first == counter_name) {
      entry.second = value;
      return;
    }
  }
  counters.emplace_back(counter_name, value);
}

uint64_t OperatorMetrics::GetCounter(const std::string& counter_name) const {
  for (const auto& entry : counters) {
    if (entry.first == counter_name) return entry.second;
  }
  return 0;
}

OperatorMetrics& OperatorMetrics::AddChild(OperatorMetrics child) {
  children.push_back(std::move(child));
  return children.back();
}

OperatorSpan::OperatorSpan(OperatorMetrics* parent, std::string name,
                           std::string detail)
    : parent_(parent), start_(std::chrono::steady_clock::now()) {
  if (parent_ == nullptr) return;
  node_.name = std::move(name);
  node_.detail = std::move(detail);
  context_ = std::make_unique<MetricsContext>(CurrentMetrics());
  installed_ = std::make_unique<ScopedMetrics>(context_.get());
}

OperatorSpan::~OperatorSpan() { Finish(); }

void OperatorSpan::SetCounter(const std::string& counter_name,
                              uint64_t value) {
  if (parent_ != nullptr) node_.SetCounter(counter_name, value);
}

OperatorMetrics* OperatorSpan::Finish() {
  if (parent_ == nullptr || finished_) return nullptr;
  finished_ = true;
  node_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  // Storage counters first, in enum order, then any operator-specific
  // counters already present via SetCounter.
  std::vector<std::pair<std::string, uint64_t>> ordered;
  for (int i = 0; i < kNumCounters; ++i) {
    const Counter counter = static_cast<Counter>(i);
    const uint64_t value = context_->value(counter);
    if (value != 0) ordered.emplace_back(CounterName(counter), value);
  }
  for (auto& entry : node_.counters) {
    ordered.push_back(std::move(entry));
  }
  node_.counters = std::move(ordered);
  installed_.reset();  // Restore the previous thread-local context.
  return &parent_->AddChild(std::move(node_));
}

std::string RenderText(const OperatorMetrics& root) {
  std::string out;
  RenderTextNode(root, "", true, true, &out);
  return out;
}

std::string RenderJson(const OperatorMetrics& root) {
  std::string out;
  RenderJsonNode(root, 0, &out);
  out += '\n';
  return out;
}

}  // namespace tix::obs
