// tixbench — the TIX serving benchmark (see README.md in this directory).
//
//   tixbench --data=DIR --prepare
//   tixbench --data=DIR --workload=scoped|corpus|churn --seed=N
//            --seconds=S --trace=0|1
//
// --prepare builds the shared inputs once: the 3000-article base corpus
// and the donor articles the churn writer ingests. A run serves the base
// corpus from an in-process live-mode TixServer opened the way tixd opens
// one (Database::Open, trust-mode SegmentedIndex::Open, Recover, Start),
// drives it over loopback TCP with server::Client, checks the answers,
// and prints the result as one JSON line (the last line of stdout). The
// provenance block is the line before it.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench/bench_corpus.h"
#include "common/obs.h"
#include "common/string_util.h"
#include "index/block_cache.h"
#include "index/inverted_index.h"
#include "index/segmented_index.h"
#include "load.h"
#include "query/engine.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/server.h"
#include "stats.h"
#include "storage/database.h"
#include "storage/page.h"
#include "trace.h"
#include "workload/corpus.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace tixbench {
namespace {

namespace fs = std::filesystem;
using tix::Result;
using tix::Status;
using tix::StrFormat;

// ---- Fixed inputs -----------------------------------------------------

constexpr uint64_t kArticles = 3000;
constexpr uint64_t kCorpusSeed = 42;
constexpr uint64_t kDonorSeed = 4242;
constexpr uint64_t kDonorArticles = 2000;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 15;
/// Stop-and-reopen cycles after the timed phases; index.reopen_ms is
/// their median.
constexpr int kReopens = 15;
/// Served responses compared against the oracle per run.
constexpr size_t kOracleSample = 24;
/// Untimed closed-loop warm-up before the timed phases.
constexpr double kWarmupSeconds = 1.0;
/// Length of the closed-loop phase, as a share of --seconds; the open
/// loop takes the rest.
constexpr double kClosedShare = 0.2;
/// Length of the traced phase, as a share of --seconds.
constexpr double kTraceShare = 0.2;
/// The traced layers' self times must sum to their round trips within
/// this share, or the traced run fails.
constexpr double kSelfSumTolerance = 0.10;
/// Requests still unsent this long after their phase ends are failures.
constexpr double kDrainSeconds = 2.0;
constexpr uint64_t kIoTimeoutMs = 60000;
/// Result rows rendered per response (tixd's --limit default).
constexpr size_t kRenderLimit = 10;

struct WorkloadSpec {
  const char* name;
  size_t pool_pages;
  /// Query connections, in the closed and the open loop alike.
  size_t connections;
  /// Open-loop Poisson rate, spread over the connections.
  double open_rate;
  /// Churn writer: INGEST rate over the whole timed window (0 = none).
  double writer_rate;
  /// Query mix: "scoped" or "corpus".
  const char* mix;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"scoped", 4096, 4, 15.0, 0.0, "scoped"},
    {"corpus", 1024, 4, 6.0, 0.0, "corpus"},
    {"churn", 4096, 3, 15.0, 10.0, "scoped"},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// ---- Queries ----------------------------------------------------------

/// Planted terms the scoped mix scores (frequencies 500–3000).
std::vector<std::string> ScopedTerms() {
  std::vector<std::string> terms;
  for (int i = 0; i < 7; ++i) terms.push_back(tix::bench::Table4Term(i));
  for (const uint64_t f : {500, 1000, 2000, 3000}) {
    terms.push_back(tix::bench::Table1Term(1, f));
    terms.push_back(tix::bench::Table1Term(2, f));
  }
  return terms;
}

/// Marks where a scoped template takes its article number.
constexpr char kArticleSlot[] = "{N}";

/// The mix as query templates, each drawn once per block. Scoped: every
/// planted term against `//article//*` and `//article//sec` of a random
/// article. Corpus: 8 pushdown `//*` two-term queries across the
/// 20..10 000 frequency sweep, 4 multi-step `//article//sec` and 4 PICK
/// queries on mid-frequency terms.
std::vector<std::string> MixTemplates(const std::string& mix) {
  using tix::bench::Table1Term;
  std::vector<std::string> templates;
  if (mix == "scoped") {
    for (const std::string& term : ScopedTerms()) {
      for (const char* target : {"*", "sec"}) {
        templates.push_back(StrFormat(
            "FOR $a IN document(\"article%s.xml\")//article//%s "
            "SCORE $a USING foo({\"%s\"}) THRESHOLD STOP AFTER 5 RETURN $a",
            kArticleSlot, target, term.c_str()));
      }
    }
    return templates;
  }
  const std::pair<uint64_t, uint64_t> kPushdownPairs[] = {
      {20, 10000}, {100, 7000}, {200, 5500}, {300, 3000},
      {500, 2000}, {1000, 1000}, {3000, 200}, {10000, 20}};
  for (const auto& [f1, f2] : kPushdownPairs) {
    templates.push_back(StrFormat(
        "FOR $a IN document(\"*\")//* SCORE $a USING foo({\"%s\"}, {\"%s\"}) "
        "THRESHOLD STOP AFTER 10 RETURN $a",
        Table1Term(1, f1).c_str(), Table1Term(2, f2).c_str()));
  }
  const uint64_t kMid[] = {500, 1000, 2000, 3000};
  for (int i = 0; i < 4; ++i) {
    templates.push_back(StrFormat(
        "FOR $a IN document(\"*\")//article//sec SCORE $a USING "
        "foo({\"%s\"}, {\"%s\"}) THRESHOLD STOP AFTER 10 RETURN $a",
        Table1Term(1, kMid[i]).c_str(), Table1Term(2, kMid[3 - i]).c_str()));
  }
  for (const uint64_t f : kMid) {
    templates.push_back(StrFormat(
        "FOR $a IN document(\"*\")//article//* SCORE $a USING foo({\"%s\"}) "
        "PICK $a USING pickfoo(0.8, 0.5) THRESHOLD STOP AFTER 10 RETURN $a",
        Table1Term(2, f).c_str()));
  }
  return templates;
}

/// Query texts in balanced blocks: each block holds every template once,
/// in a seeded order, so every run serves the same population of queries
/// and the seed varies only the order, the articles and the arrivals.
class QueryStream {
 public:
  QueryStream(const std::string& mix, std::mt19937_64 rng)
      : templates_(MixTemplates(mix)), rng_(rng) {}

  std::string Next() {
    if (next_ == order_.size()) {
      order_.resize(templates_.size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_() % i]);
      }
      next_ = 0;
    }
    std::string text = templates_[order_[next_++]];
    if (const size_t slot = text.find(kArticleSlot);
        slot != std::string::npos) {
      text.replace(slot, sizeof(kArticleSlot) - 1,
                   std::to_string(rng_() % kArticles));
    }
    return text;
  }

 private:
  std::vector<std::string> templates_;
  std::mt19937_64 rng_;
  std::vector<size_t> order_;
  size_t next_ = 0;
};

/// Independent, reproducible stream for (seed, purpose, lane).
std::mt19937_64 Stream(uint64_t seed, uint64_t purpose, uint64_t lane) {
  std::seed_seq seq{seed, purpose, lane};
  return std::mt19937_64(seq);
}

// ---- Inputs -----------------------------------------------------------

std::string BaseDir(const std::string& data) { return data + "/base"; }
std::string DonorPath(const std::string& data) { return data + "/donor.bin"; }

Status WriteDonorFile(const std::string& data) {
  const std::string db_dir = data + "/donor-db";
  fs::remove_all(db_dir);
  tix::storage::DatabaseOptions db_options;
  db_options.buffer_pool_pages = 1024;
  TIX_ASSIGN_OR_RETURN(auto db,
                       tix::storage::Database::Create(db_dir, db_options));
  tix::workload::CorpusOptions options;
  options.num_articles = kDonorArticles;
  options.seed = kDonorSeed;
  TIX_ASSIGN_OR_RETURN(const tix::workload::GeneratedCorpus corpus,
                       tix::workload::GenerateCorpus(db.get(), options));
  std::string blob;
  for (const tix::storage::DocId doc : corpus.article_docs) {
    const tix::storage::DocumentInfo& info = db->documents()[doc];
    TIX_ASSIGN_OR_RETURN(auto root, db->ReconstructSubtree(info.root));
    const std::string xml = tix::xml::SerializeNode(*root);
    const uint32_t size = static_cast<uint32_t>(xml.size());
    blob.append(reinterpret_cast<const char*>(&size), sizeof size);
    blob += xml;
  }
  db.reset();
  fs::remove_all(db_dir);
  const std::string tmp = DonorPath(data) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out.good()) return Status::IOError("cannot write " + tmp);
  }
  fs::rename(tmp, DonorPath(data));
  return Status::OK();
}

Result<std::vector<std::string>> ReadDonorFile(const std::string& data) {
  std::ifstream in(DonorPath(data), std::ios::binary);
  if (!in) return Status::IOError("missing " + DonorPath(data));
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::vector<std::string> docs;
  size_t at = 0;
  while (at + sizeof(uint32_t) <= blob.size()) {
    uint32_t size = 0;
    std::memcpy(&size, blob.data() + at, sizeof size);
    at += sizeof size;
    if (size > blob.size() - at) return Status::Corruption("donor file");
    docs.push_back(blob.substr(at, size));
    at += size;
  }
  if (docs.size() != kDonorArticles) return Status::Corruption("donor file");
  return docs;
}

Status Prepare(const std::string& data) {
  fs::create_directories(data);
  {
    TIX_ASSIGN_OR_RETURN(tix::bench::BenchEnv env,
                         tix::bench::GetOrBuildBenchEnv(BaseDir(data),
                                                        kArticles,
                                                        kCorpusSeed));
  }
  if (!ReadDonorFile(data).ok()) TIX_RETURN_IF_ERROR(WriteDonorFile(data));
  return Status::OK();
}

// ---- The served stack -------------------------------------------------

struct SetupTimes {
  Nanos db_open = 0, index_open = 0, recover = 0, start = 0;
  Nanos Total() const { return db_open + index_open + recover + start; }
};

/// Database, live index and server, destroyed in reverse order.
struct Served {
  std::unique_ptr<tix::storage::Database> db;
  std::unique_ptr<tix::index::SegmentedIndex> index;
  std::unique_ptr<tix::server::TixServer> server;
};

tix::server::ServerOptions ServingOptions() {
  tix::server::ServerOptions options;  // tixd's defaults...
  options.result_cache_bytes = 0;      // ...with the result cache off
  options.render_limit = kRenderLimit;
  return options;
}

Result<tix::server::Client> Connect(uint16_t port) {
  tix::server::ClientOptions options;
  options.io_timeout_ms = kIoTimeoutMs;
  return tix::server::Client::Connect("127.0.0.1", port, options);
}

/// Opens `dir` the way tixd does and serves it; `times` gets each step.
/// With a tracer, each step is also recorded as a span.
Result<std::unique_ptr<Served>> OpenServed(const std::string& dir,
                                           size_t pool_pages,
                                           SetupTimes* times,
                                           Tracer* tracer) {
  SteadyClock clock;
  auto served = std::make_unique<Served>();
  const uint64_t request = tracer != nullptr ? tracer->NewRequest() : 0;
  auto step = [&](const char* name, Nanos* out, auto&& body) -> Status {
    const Nanos t0 = clock.Now();
    const Status status = body();
    const Nanos t1 = clock.Now();
    *out = t1 - t0;
    if (tracer != nullptr) tracer->Record(0, request, name, t0, t1);
    return status;
  };
  TIX_RETURN_IF_ERROR(step("storage.db_open", &times->db_open, [&] {
    tix::storage::DatabaseOptions options;
    options.buffer_pool_pages = pool_pages;
    auto db = tix::storage::Database::Open(dir, options);
    if (!db.ok()) return db.status();
    served->db = std::move(db).value();
    return Status::OK();
  }));
  TIX_RETURN_IF_ERROR(step("index.open", &times->index_open, [&] {
    tix::index::SegmentedIndexOptions options;
    options.load.verify_on_open = false;  // tixd's trust-mode open
    auto index = tix::index::SegmentedIndex::Open(dir, options);
    if (!index.ok()) return index.status();
    served->index = std::move(index).value();
    return Status::OK();
  }));
  TIX_RETURN_IF_ERROR(step("index.recover", &times->recover, [&] {
    return served->index->Recover(served->db.get());
  }));
  TIX_RETURN_IF_ERROR(step("server.start", &times->start, [&] {
    served->server = std::make_unique<tix::server::TixServer>(
        served->db.get(), served->index.get(), ServingOptions());
    TIX_RETURN_IF_ERROR(served->server->Start());
    TIX_ASSIGN_OR_RETURN(auto client, Connect(served->server->port()));
    return client.Ping();
  }));
  return served;
}

// ---- Counters ---------------------------------------------------------

struct Counters {
  tix::server::ServerStats server;
  uint64_t work[tix::obs::kNumCounters] = {};
  tix::storage::BufferPoolStats pool;
  tix::index::BlockCacheStats blocks;
  tix::index::SegmentedIndexStats index;
  uint64_t next_segment_id = 0;
};

/// Read while no request is in flight (between phases).
Counters Snapshot(Served* served) {
  Counters c;
  c.server = served->server->Stats();
  for (int i = 0; i < tix::obs::kNumCounters; ++i) {
    c.work[i] = served->server->WorkCounter(static_cast<tix::obs::Counter>(i));
  }
  c.pool = served->db->buffer_pool().stats();
  c.blocks = tix::index::DecodedBlockCache::Instance().Stats();
  c.index = served->index->Stats();
  c.next_segment_id = served->index->ManifestView().next_segment_id;
  return c;
}

uint64_t WorkDelta(const Counters& a, const Counters& b,
                   tix::obs::Counter counter) {
  const int i = static_cast<int>(counter);
  return b.work[i] - a.work[i];
}

double ResidentMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double DirectoryMb(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return static_cast<double>(bytes) / (1 << 20);
}

// ---- Oracle -----------------------------------------------------------

/// The response a server renders for `output` (server.cc ExecuteQuery),
/// minus the "scored" work count, which pushdown legitimately changes.
std::string ComparableResponse(const std::string& response) {
  const size_t line_end = response.find('\n');
  const size_t scored = response.find(", scored ");
  if (line_end == std::string::npos || scored == std::string::npos ||
      scored > line_end) {
    return response;
  }
  return response.substr(0, scored) + response.substr(line_end);
}

Result<std::string> OracleResponse(tix::query::QueryEngine* engine,
                                   const std::string& text) {
  TIX_ASSIGN_OR_RETURN(const tix::query::QueryOutput output,
                       engine->ExecuteText(text));
  TIX_ASSIGN_OR_RETURN(const std::string body,
                       engine->RenderXml(output, kRenderLimit));
  return StrFormat("%zu results (anchors %llu, scored %llu)\n",
                   output.results.size(),
                   (unsigned long long)output.stats.anchors,
                   (unsigned long long)output.stats.scored_elements) +
         body;
}

struct ServedResponse {
  std::string query;
  std::string response;
};

/// Re-answers every sample in-process from a verifying open with
/// pushdown off and returns the number of mismatches. `live` selects the
/// segmented index (the churned directory) over the monolithic index.tix.
Result<uint64_t> RunOracle(const std::string& dir, size_t pool_pages,
                           bool live,
                           const std::vector<ServedResponse>& samples) {
  tix::storage::DatabaseOptions db_options;
  db_options.buffer_pool_pages = pool_pages;
  TIX_ASSIGN_OR_RETURN(auto db, tix::storage::Database::Open(dir, db_options));
  tix::query::EngineOptions options;
  options.threshold_pushdown = false;
  std::optional<tix::index::InvertedIndex> monolithic;
  std::unique_ptr<tix::index::SegmentedIndex> segmented;
  if (live) {
    tix::index::SegmentedIndexOptions seg_options;
    seg_options.load.verify_on_open = true;
    TIX_ASSIGN_OR_RETURN(segmented,
                         tix::index::SegmentedIndex::Open(dir, seg_options));
    TIX_RETURN_IF_ERROR(segmented->Recover(db.get()));
  } else {
    TIX_ASSIGN_OR_RETURN(tix::index::InvertedIndex index,
                         tix::index::InvertedIndex::LoadFromFile(
                             dir + "/index.tix"));
    monolithic.emplace(std::move(index));
  }
  tix::query::QueryEngine engine =
      live ? tix::query::QueryEngine(db.get(), segmented->Acquire(), options)
           : tix::query::QueryEngine(db.get(), &*monolithic, options);
  uint64_t mismatches = 0;
  for (const ServedResponse& sample : samples) {
    const Result<std::string> expected = OracleResponse(&engine, sample.query);
    if (!expected.ok() || ComparableResponse(expected.value()) !=
                              ComparableResponse(sample.response)) {
      ++mismatches;
      std::fprintf(stderr, "oracle mismatch: %s\n", sample.query.c_str());
    }
  }
  return mismatches;
}

// ---- Trace replay -----------------------------------------------------

/// Maps an EXPLAIN operator to its layer span name ("" = not a layer).
const char* LayerOf(const std::string& op) {
  if (op == "StructuralMatch") return "algebra.match";
  if (op == "TermJoin" || op == "ParallelTermJoin") return "exec.termjoin";
  if (op == "Scope") return "exec.scope";
  if (op == "Pick") return "exec.pick";
  if (op == "Threshold") return "exec.threshold";
  return "";
}

/// Records the plan's operators as children of `execute_id`, laid end to
/// end from `start` in execution order (EXPLAIN keeps durations, not
/// start times).
void RecordPlan(Tracer* tracer, uint64_t execute_id, uint64_t request,
                const tix::obs::OperatorMetrics& plan, Nanos start) {
  Nanos at = start;
  for (const tix::obs::OperatorMetrics& child : plan.children) {
    const Nanos length = static_cast<Nanos>(child.seconds * 1e9);
    const char* layer = LayerOf(child.name);
    if (*layer != '\0') {
      tracer->Record(execute_id, request, layer, at, at + length);
    }
    at += length;
  }
}

/// Parses the EXPLAIN text tree (obs::RenderText) appended to a response
/// into operator nodes: root plus its direct children, with seconds, rows
/// and counters.
tix::obs::OperatorMetrics ParseExplain(const std::string& response) {
  tix::obs::OperatorMetrics root;
  tix::obs::OperatorMetrics* last = nullptr;
  size_t at = response.find("\nQuery");
  if (at == std::string::npos) return root;
  ++at;
  while (at < response.size()) {
    size_t end = response.find('\n', at);
    if (end == std::string::npos) end = response.size();
    const std::string line = response.substr(at, end - at);
    at = end + 1;
    const size_t bracket = line.find("  [");
    if (bracket == std::string::npos || line.find(" ms, rows=", bracket) ==
                                            std::string::npos) {
      // A counter line: "name=value, name=value" under the last node.
      if (last == nullptr) continue;
      size_t pos = line.find_first_not_of(" |`");
      while (pos != std::string::npos && pos < line.size()) {
        const size_t eq = line.find('=', pos);
        if (eq == std::string::npos) break;
        const size_t comma = line.find(", ", eq);
        last->SetCounter(line.substr(pos, eq - pos),
                         std::strtoull(line.c_str() + eq + 1, nullptr, 10));
        pos = comma == std::string::npos ? std::string::npos : comma + 2;
      }
      continue;
    }
    size_t name_at = 0;
    if (const size_t marker = line.find("-- "); marker != std::string::npos &&
                                                marker < bracket) {
      name_at = marker + 3;
    }
    size_t name_end = line.find(" (", name_at);
    if (name_end == std::string::npos || name_end > bracket) name_end = bracket;
    tix::obs::OperatorMetrics node;
    node.name = line.substr(name_at, name_end - name_at);
    node.detail = name_end < bracket
                      ? line.substr(name_end + 2, bracket - name_end - 3)
                      : "";
    node.seconds = std::strtod(line.c_str() + bracket + 3, nullptr) / 1e3;
    node.rows = std::strtoull(
        line.c_str() + line.find("rows=", bracket) + 5, nullptr, 10);
    if (name_at == 0) {
      root = std::move(node);
      last = &root;
    } else if (name_at == 4) {
      root.children.push_back(std::move(node));
      last = &root.children.back();
    } else {
      last = nullptr;  // deeper nodes (TermJoin partitions) are not layers
    }
  }
  return root;
}

/// Per traced query, from its plan: what the plan-derived layer metrics
/// need.
struct PlanFacts {
  uint64_t match_fetches = 0;
  uint64_t scored = 0;
  uint64_t returned = 0;
  bool pushdown = false;
};

PlanFacts FactsOf(const tix::obs::OperatorMetrics& plan) {
  PlanFacts facts;
  facts.returned = plan.rows;
  for (const tix::obs::OperatorMetrics& child : plan.children) {
    if (child.name == "StructuralMatch") {
      facts.match_fetches += child.GetCounter("record_fetches");
    } else if (std::strcmp(LayerOf(child.name), "exec.termjoin") == 0) {
      facts.scored += child.rows;
      facts.pushdown |= child.detail.find("topk-pushdown") != std::string::npos;
    }
  }
  return facts;
}

// ---- The run ----------------------------------------------------------

struct RunOptions {
  std::string data;
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

/// Failed and attempted operations of one run, by kind.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failures;
  void Add(const char* kind, uint64_t attempted_ops, uint64_t failed_ops) {
    attempted += attempted_ops;
    failed += failed_ops;
    if (failed_ops > 0) failures[kind] += failed_ops;
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string JsonNumber(double value) { return StrFormat("%.17g", value); }

class Run {
 public:
  explicit Run(RunOptions options)
      : o_(std::move(options)), spec_(*o_.spec) {}

  Status Execute();

 private:
  Status PrepareDirectory();
  Status SetUp();
  void TimedPhases();
  void TracedPhase(std::vector<tix::server::Client>* clients);
  /// Runs the churn writer's open loop from `start` for `seconds` on its
  /// own connection; `measured` phases feed the ingest metrics.
  std::thread StartWriter(Nanos start, double seconds, bool traced,
                          bool measured);
  Status ForceSeal();
  Status Restart();
  Status CheckDurability();
  Status CheckOracle();
  Status Report();

  /// Sends one query on `client`; failed requests are logged once.
  bool SendQuery(tix::server::Client* client, const std::string& text,
                 std::string* response = nullptr);
  /// One writer request: INGEST the next donor article, and after every
  /// fourth, DELETE an earlier one. `acked` gets the INGEST ack time.
  bool SendIngest(tix::server::Client* client, bool traced, Nanos* acked);

  RunOptions o_;
  const WorkloadSpec& spec_;
  std::string dir_;
  bool owns_dir_ = false;
  std::unique_ptr<Served> served_;
  std::vector<std::string> donor_;
  SteadyClock clock_;
  Tracer tracer_;
  Tally tally_;

  // Measurements.
  std::vector<double> setup_s_;
  double reopen_s_ = 0;
  ClosedLoopResult closed_;
  OpenLoopResult open_;
  OpenLoopResult traced_;  ///< The traced phase (trace=1).
  std::vector<double> ingest_ms_;
  std::vector<double> writer_lateness_ms_;
  Counters before_, after_, final_;
  double rss_mb_ = 0;
  double disk_mb_ = 0;
  uint64_t nodes_ = 0, postings_ = 0;
  uint64_t segments_max_ = 0;  ///< Written by the writer thread only.
  std::vector<ServedResponse> samples_;
  std::mutex samples_mu_;

  // Writer state (churn).
  std::mutex writer_mu_;
  std::vector<std::string> live_ingested_, deleted_;
  uint64_t deletes_attempted_ = 0, deletes_failed_ = 0;
  std::mt19937_64 delete_rng_;
  size_t donor_offset_ = 0;
  size_t ingests_sent_ = 0;

  // Trace (trace=1).
  std::set<uint64_t> traced_queries_;
  std::vector<PlanFacts> plan_facts_;
  std::vector<double> traced_roundtrip_ms_;
  std::mutex trace_mu_;
};

bool Run::SendQuery(tix::server::Client* client, const std::string& text,
                    std::string* response) {
  Result<std::string> result = client->Query(text);
  if (!result.ok()) {
    static std::atomic<int> logged{0};
    if (logged.fetch_add(1) < 5) {
      std::fprintf(stderr, "query failed: %s: %s\n",
                   result.status().ToString().c_str(), text.c_str());
    }
    return false;
  }
  if (response != nullptr) *response = std::move(result).value();
  return true;
}

Status Run::PrepareDirectory() {
  dir_ = BaseDir(o_.data);
  if (spec_.writer_rate <= 0) return Status::OK();
  // The live index adopts index.tix in place and writes a manifest, so
  // a writing workload serves its own copy of the base corpus.
  TIX_ASSIGN_OR_RETURN(donor_, ReadDonorFile(o_.data));
  dir_ = o_.data + "/run-" + spec_.name;
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  for (const auto& entry : fs::directory_iterator(BaseDir(o_.data))) {
    if (entry.is_regular_file()) {
      fs::copy_file(entry.path(), dir_ + "/" + entry.path().filename().string());
    }
  }
  owns_dir_ = true;
  return Status::OK();
}

Status Run::SetUp() {
  for (int i = 0; i < kSetups; ++i) {
    served_.reset();
    SetupTimes times;
    TIX_ASSIGN_OR_RETURN(served_, OpenServed(dir_, spec_.pool_pages, &times,
                                             o_.trace ? &tracer_ : nullptr));
    setup_s_.push_back(static_cast<double>(times.Total()) / 1e9);
  }
  nodes_ = served_->db->num_nodes();
  postings_ = served_->index->Stats().total_postings;
  return Status::OK();
}

bool Run::SendIngest(tix::server::Client* client, bool traced,
                     Nanos* acked) {
  const size_t i = ingests_sent_++;  // the writer is one thread
  const std::string name = StrFormat("ingest%zu.xml", i);
  const std::string& xml = donor_[(donor_offset_ + i) % donor_.size()];
  const Nanos t0 = clock_.Now();
  const Result<uint64_t> ingested = client->Ingest(name, xml);
  *acked = clock_.Now();
  if (traced) {
    // The server parses the document inside the round trip; replay the
    // parse here and place it at the round trip's start.
    const uint64_t request = tracer_.NewRequest();
    const uint64_t root =
        tracer_.Record(0, request, "server.roundtrip", t0, *acked);
    const Nanos p0 = clock_.Now();
    const bool parsed = tix::xml::ParseXml(xml, name).ok();
    const Nanos p1 = clock_.Now();
    if (parsed) tracer_.Record(root, request, "xml.parse", t0, t0 + (p1 - p0));
  }
  if (!ingested.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 ingested.status().ToString().c_str());
    return false;
  }
  const uint64_t segments = served_->index->Stats().num_segments;
  segments_max_ = std::max(segments_max_, segments);
  std::string victim;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    live_ingested_.push_back(name);
    if ((i + 1) % 4 != 0) return true;
    const std::optional<size_t> pick =
        DeleteVictim(live_ingested_.size(), delete_rng_());
    if (!pick.has_value()) return true;
    victim = live_ingested_[*pick];
    live_ingested_.erase(live_ingested_.begin() + static_cast<long>(*pick));
    ++deletes_attempted_;
  }
  const Status deleted = client->Delete(victim);
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (!deleted.ok()) {
    ++deletes_failed_;
    live_ingested_.push_back(victim);
    std::fprintf(stderr, "delete failed: %s\n", deleted.ToString().c_str());
    return true;  // the ingest itself succeeded
  }
  deleted_.push_back(victim);
  return true;
}

std::thread Run::StartWriter(Nanos start, double seconds, bool traced,
                             bool measured) {
  if (spec_.writer_rate <= 0) return std::thread();
  return std::thread([=, this] {
    Result<tix::server::Client> client = Connect(served_->server->port());
    if (!client.ok()) {
      std::lock_guard<std::mutex> lock(writer_mu_);
      tally_.Add("connect", 1, 1);
      return;
    }
    // Evenly spaced, so every run seals and compacts at the same points.
    const std::vector<Nanos> offsets = EvenSchedule(spec_.writer_rate, seconds);
    std::vector<Nanos> acks(offsets.size(), 0);
    const OpenLoopResult result = RunOpenLoop(
        &clock_, start, offsets, 1,
        start + static_cast<Nanos>((seconds + kDrainSeconds) * 1e9),
        [&](size_t, size_t i) {
          return SendIngest(&client.value(), traced, &acks[i]);
        });
    std::lock_guard<std::mutex> lock(writer_mu_);
    if (measured) {
      for (size_t i = 0; i < result.records.size(); ++i) {
        if (result.records[i].ok) {
          ingest_ms_.push_back(NanosToMs(acks[i] - result.records[i].due));
        }
      }
      writer_lateness_ms_ = result.GeneratorLatenessMs();
    }
    tally_.Add("ingest", result.Sent(), result.Failed());
    tally_.Add("unsent", result.Unsent(), result.Unsent());
  });
}

void Run::TimedPhases() {
  const double closed_seconds = o_.seconds * kClosedShare;
  const double open_seconds = o_.seconds - closed_seconds;
  const uint16_t port = served_->server->port();
  std::vector<tix::server::Client> clients;
  for (size_t c = 0; c < spec_.connections; ++c) {
    Result<tix::server::Client> client = Connect(port);
    if (!client.ok()) {
      tally_.Add("connect", 1, 1);
      return;
    }
    clients.push_back(std::move(client).value());
  }
  if (spec_.writer_rate > 0) {
    delete_rng_ = Stream(o_.seed, 3, 0);
    donor_offset_ = Stream(o_.seed, 4, 0)() % donor_.size();
  }
  // Closed-loop connections share one stream, so the queries a phase
  // serves are balanced across the mix whatever the seed.
  QueryStream closed_queries(spec_.mix, Stream(o_.seed, 0, 0));
  std::mutex closed_mu;
  auto closed_loop = [&](size_t connections, double seconds) {
    return RunClosedLoop(
        &clock_, connections,
        clock_.Now() + static_cast<Nanos>(seconds * 1e9),
        [&](size_t c, uint64_t) {
          std::unique_lock<std::mutex> lock(closed_mu);
          const std::string text = closed_queries.Next();
          lock.unlock();
          return SendQuery(&clients[c], text);
        });
  };

  // Warm-up, untimed: the buffer pool and block cache fill first.
  const ClosedLoopResult warmup =
      closed_loop(spec_.connections, kWarmupSeconds);
  tally_.Add("query", warmup.completed + warmup.failed, warmup.failed);
  before_ = Snapshot(served_.get());

  // Open loop: latency at the fixed rate, timed from each due time, with
  // the churn writer running alongside at its own fixed rate.
  QueryStream open_queries(spec_.mix, Stream(o_.seed, 1, 0));
  const std::vector<Nanos> offsets =
      PoissonSchedule(spec_.open_rate, open_seconds, Stream(o_.seed, 1, 1)());
  std::vector<std::string> queries;
  for (size_t i = 0; i < offsets.size(); ++i) {
    queries.push_back(open_queries.Next());
  }
  // A seeded sample of served responses goes to the oracle (the churned
  // state is sampled after recovery instead).
  std::set<size_t> sampled;
  if (spec_.writer_rate <= 0) {
    std::mt19937_64 sample_rng = Stream(o_.seed, 5, 0);
    while (sampled.size() < std::min(kOracleSample, offsets.size())) {
      sampled.insert(sample_rng() % offsets.size());
    }
  }
  const Nanos open_start = clock_.Now();
  std::thread writer = StartWriter(open_start, open_seconds,
                                   /*traced=*/false, /*measured=*/true);
  open_ = RunOpenLoop(
      &clock_, open_start, offsets, spec_.connections,
      open_start + static_cast<Nanos>((open_seconds + kDrainSeconds) * 1e9),
      [&](size_t c, size_t i) {
        std::string response;
        const bool ok = SendQuery(&clients[c], queries[i], &response);
        if (ok && sampled.count(i) > 0) {
          std::lock_guard<std::mutex> lock(samples_mu_);
          samples_.push_back(ServedResponse{queries[i], std::move(response)});
        }
        return ok;
      });
  if (writer.joinable()) writer.join();
  tally_.Add("query", open_.Sent(), open_.Failed());
  tally_.Add("unsent", open_.Unsent(), open_.Unsent());

  // Closed loop: throughput (over the churned state, writer paused).
  closed_ = closed_loop(spec_.connections, closed_seconds);
  tally_.Add("query", closed_.completed + closed_.failed, closed_.failed);

  // Counters and memory cover the timed phases only.
  after_ = Snapshot(served_.get());
  rss_mb_ = ResidentMb();
  if (o_.trace) TracedPhase(&clients);
  final_ = Snapshot(served_.get());
}

void Run::TracedPhase(std::vector<tix::server::Client>* clients) {
  // The traced phase repeats the open loop at its full rate. A seeded
  // half of its requests are traced: sent as QUERY_EXPLAIN, whose plan
  // times the server's execution and operators inside the round trip.
  const double seconds = o_.seconds * kTraceShare;
  QueryStream stream(spec_.mix, Stream(o_.seed, 6, 0));
  const std::vector<Nanos> offsets =
      PoissonSchedule(spec_.open_rate, seconds, Stream(o_.seed, 6, 1)());
  std::vector<std::string> queries;
  std::vector<bool> sampled;
  std::mt19937_64 sample_rng = Stream(o_.seed, 6, 2);
  for (size_t i = 0; i < offsets.size(); ++i) {
    queries.push_back(stream.Next());
    sampled.push_back(sample_rng() % 2 == 0);
  }
  struct Traced {
    uint64_t request, root;
    Nanos start;
    size_t query;
    tix::obs::OperatorMetrics plan;
  };
  std::vector<Traced> traced;
  const Nanos start = clock_.Now();
  std::thread writer = StartWriter(start, seconds, /*traced=*/true,
                                   /*measured=*/false);
  traced_ = RunOpenLoop(
      &clock_, start, offsets, spec_.connections,
      start + static_cast<Nanos>((seconds + kDrainSeconds) * 1e9),
      [&](size_t c, size_t i) {
        tix::server::Client& client = (*clients)[c];
        if (!sampled[i]) return SendQuery(&client, queries[i]);
        const uint64_t request = tracer_.NewRequest();
        const Nanos t0 = clock_.Now();
        const Result<std::string> response = client.QueryExplain(queries[i]);
        const Nanos t1 = clock_.Now();
        if (!response.ok()) return false;
        const uint64_t root =
            tracer_.Record(0, request, "server.roundtrip", t0, t1);
        std::lock_guard<std::mutex> lock(trace_mu_);
        traced.push_back(
            Traced{request, root, t0, i, ParseExplain(response.value())});
        traced_roundtrip_ms_.push_back(NanosToMs(t1 - t0));
        return true;
      });
  if (writer.joinable()) writer.join();
  tally_.Add("query", traced_.Sent(), traced_.Failed());
  tally_.Add("unsent", traced_.Unsent(), traced_.Unsent());

  // Parse and render are not in the plan: time them by replaying each
  // traced request in-process, now that no request or write is in
  // flight, and place the layers end to end from the round trip's start.
  for (const Traced& t : traced) {
    const std::string& text = queries[t.query];
    const Nanos p0 = clock_.Now();
    const Result<tix::query::Query> parsed = tix::query::ParseQuery(text);
    const Nanos p1 = clock_.Now();
    if (!parsed.ok()) continue;
    tix::query::QueryEngine engine(served_->db.get(),
                                   served_->index->Acquire());
    const Result<tix::query::QueryOutput> output =
        engine.Execute(parsed.value());
    if (!output.ok()) continue;
    const Nanos r0 = clock_.Now();
    const bool rendered = engine.RenderXml(output.value(), kRenderLimit).ok();
    const Nanos r1 = clock_.Now();
    if (!rendered) continue;
    Nanos at = t.start;
    tracer_.Record(t.root, t.request, "query.parse", at, at + (p1 - p0));
    at += p1 - p0;
    const Nanos execute = static_cast<Nanos>(t.plan.seconds * 1e9);
    const uint64_t id =
        tracer_.Record(t.root, t.request, "query.execute", at, at + execute);
    RecordPlan(&tracer_, id, t.request, t.plan, at);
    at += execute;
    tracer_.Record(t.root, t.request, "query.render", at, at + (r1 - r0));
    traced_queries_.insert(t.request);
    plan_facts_.push_back(FactsOf(t.plan));
  }
}

/// Force-seals the write buffer (the COMPACT frame), so a clean shutdown
/// loses no acknowledged ingest (docs/SERVING.md, "Durability").
Status Run::ForceSeal() {
  if (spec_.writer_rate <= 0) return Status::OK();
  TIX_ASSIGN_OR_RETURN(auto client, Connect(served_->server->port()));
  const Status compacted = client.Compact();
  tally_.Add("compact", 1, compacted.ok() ? 0 : 1);
  return Status::OK();
}

/// Median time to open and Recover `dir`, over kReopens cycles.
Result<double> TimeReopens(const std::string& dir, size_t pool_pages) {
  std::vector<double> seconds;
  for (int i = 0; i < kReopens; ++i) {
    SetupTimes times;
    TIX_ASSIGN_OR_RETURN(auto served,
                         OpenServed(dir, pool_pages, &times, nullptr));
    seconds.push_back(
        static_cast<double>(times.db_open + times.index_open + times.recover) /
        1e9);
  }
  return Median(seconds);
}

Status Run::Restart() {
  served_.reset();
  // A restart is a new process: time the reopens in a child, whose heap
  // and caches are as fresh as a restarted tixd's.
  const std::string command = StrFormat(
      "'%s' --reopen='%s' --pool-pages=%zu",
      fs::read_symlink("/proc/self/exe").c_str(), dir_.c_str(),
      spec_.pool_pages);
  std::FILE* child = ::popen(command.c_str(), "r");
  if (child == nullptr) return Status::IOError("cannot start " + command);
  char line[64] = {0};
  const bool read = std::fgets(line, sizeof line, child) != nullptr;
  const int exit_code = ::pclose(child);
  if (!read || exit_code != 0) return Status::Internal("reopen child failed");
  reopen_s_ = std::strtod(line, nullptr);
  SetupTimes times;
  TIX_ASSIGN_OR_RETURN(served_,
                       OpenServed(dir_, spec_.pool_pages, &times, nullptr));
  return Status::OK();
}

/// After a restart, every acknowledged ingest that was not deleted must
/// resolve by name and every deleted one must be gone.
Status Run::CheckDurability() {
  TIX_ASSIGN_OR_RETURN(auto client, Connect(served_->server->port()));
  uint64_t failed = 0;
  auto probe = [&](const std::string& name) {
    return client.Query(StrFormat(
        "FOR $a IN document(\"%s\")//* SCORE $a USING foo({\"%s\"}) "
        "THRESHOLD STOP AFTER 1 RETURN $a",
        name.c_str(), tix::bench::Table4Term(0).c_str()));
  };
  for (const std::string& name : live_ingested_) {
    if (!probe(name).ok()) {
      ++failed;
      std::fprintf(stderr, "durability: %s lost\n", name.c_str());
    }
  }
  for (const std::string& name : deleted_) {
    const Result<std::string> result = probe(name);
    if (result.ok() || !result.status().IsNotFound()) {
      ++failed;
      std::fprintf(stderr, "durability: deleted %s still resolves\n",
                   name.c_str());
    }
  }
  tally_.Add("durability", live_ingested_.size() + deleted_.size(), failed);
  // The churned state's oracle sample is served now, after recovery: the
  // answers during churn were against snapshots that no longer exist.
  QueryStream sample_queries(spec_.mix, Stream(o_.seed, 5, 0));
  for (size_t i = 0; i < kOracleSample; ++i) {
    const std::string text = sample_queries.Next();
    std::string response;
    if (!SendQuery(&client, text, &response)) {
      tally_.Add("query", 1, 1);
      continue;
    }
    samples_.push_back(ServedResponse{text, std::move(response)});
  }
  return Status::OK();
}

Status Run::CheckOracle() {
  served_.reset();  // the oracle opens the directory on its own
  TIX_ASSIGN_OR_RETURN(const uint64_t mismatches,
                       RunOracle(dir_, spec_.pool_pages,
                                 spec_.writer_rate > 0, samples_));
  tally_.Add("oracle", samples_.size(), mismatches);
  return Status::OK();
}

Status Run::Execute() {
  TIX_RETURN_IF_ERROR(PrepareDirectory());
  TIX_RETURN_IF_ERROR(SetUp());
  TimedPhases();
  TIX_RETURN_IF_ERROR(ForceSeal());
  TIX_RETURN_IF_ERROR(Restart());
  disk_mb_ = DirectoryMb(dir_);
  if (spec_.writer_rate > 0) TIX_RETURN_IF_ERROR(CheckDurability());
  TIX_RETURN_IF_ERROR(CheckOracle());
  if (owns_dir_) fs::remove_all(dir_);
  return Report();
}

Status Run::Report() {
  {
    const std::vector<double> latencies = open_.LatenciesMs();
    std::fprintf(stderr,
                 "[tixbench] %s: closed %llu ok in %.2fs (%.1f q/s, mean "
                 "%.2f ms); open %zu scheduled, %zu failed, %zu unsent, mean "
                 "%.2f ms; %zu ingests, mean %.2f ms\n",
                 spec_.name, (unsigned long long)closed_.completed,
                 closed_.seconds, closed_.Throughput(),
                 Mean(closed_.latencies_ms), open_.records.size(),
                 open_.Failed(), open_.Unsent(), Mean(latencies),
                 ingest_ms_.size(), Mean(ingest_ms_));
  }
  std::vector<Metric> metrics;
  auto required = [](const char* what, std::vector<double> samples,
                     double p) -> Result<double> {
    const std::optional<double> value = Percentile(std::move(samples), p);
    if (!value.has_value()) {
      return Status::OutOfRange(StrFormat(
          "%s: too few samples for p%.0f (need %zu beyond it)", what,
          p * 100, kMinSamplesBeyond));
    }
    return *value;
  };
  if (!o_.trace) {
    TIX_ASSIGN_OR_RETURN(const double p50,
                         required("query latency", open_.LatenciesMs(), 0.5));
    metrics = {
        {"setup_s", Median(setup_s_), "s"},
        {"query_qps", closed_.Throughput(), "q/s"},
        {"query_p50_ms", p50, "ms"},
        {"rss_mb", rss_mb_, "MB"},
    };
  } else {
    // Self time per layer over the traced queries (means per query).
    const std::vector<Span> spans = tracer_.spans();
    const std::unordered_map<uint64_t, Nanos> self = SelfTimes(spans);
    std::map<std::string, double> query_self_ms;
    std::map<std::string, std::vector<double>> setup_ms;
    double ingest_parse_ms = 0, roundtrip_ms = 0, self_sum_ms = 0;
    uint64_t traced_ingests = 0;
    for (const Span& span : spans) {
      const double ms = NanosToMs(self.at(span.id));
      if (traced_queries_.count(span.request) > 0) {
        query_self_ms[span.name] += ms;
        self_sum_ms += ms;
        if (span.parent == 0) roundtrip_ms += NanosToMs(span.end - span.start);
      } else if (span.name == "xml.parse") {
        ingest_parse_ms += ms;
        ++traced_ingests;
      } else if (span.parent == 0 && span.name != "server.roundtrip") {
        setup_ms[span.name].push_back(ms);  // a set-up step
      }
    }
    const double traced = static_cast<double>(traced_queries_.size());
    auto per_traced = [&](const char* name) {
      return traced > 0 ? query_self_ms[name] / traced : 0.0;
    };
    PlanFacts facts;
    uint64_t pushdowns = 0;
    for (const PlanFacts& f : plan_facts_) {
      facts.match_fetches += f.match_fetches;
      facts.scored += f.scored;
      facts.returned += f.returned;
      pushdowns += f.pushdown ? 1 : 0;
    }
    // Counts over the untraced phases, per query served in them.
    const Counters& a = before_;
    const Counters& b = after_;
    const double queries =
        std::max<double>(1.0, static_cast<double>(b.server.queries -
                                                  a.server.queries));
    auto per_query = [&](tix::obs::Counter counter) {
      return static_cast<double>(WorkDelta(a, b, counter)) / queries;
    };
    auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    const double occurrences = static_cast<double>(
        WorkDelta(a, b, tix::obs::Counter::kTermJoinOccurrences));
    const double pruned = static_cast<double>(
        WorkDelta(a, b, tix::obs::Counter::kTopkPostingsPruned));
    const double block_hits =
        static_cast<double>(b.blocks.hits - a.blocks.hits);
    const double block_misses =
        static_cast<double>(b.blocks.misses - a.blocks.misses);
    const double pool_hits = static_cast<double>(b.pool.hits - a.pool.hits);
    const double pool_misses =
        static_cast<double>(b.pool.misses - a.pool.misses);
    double ingest_p50 = 0, ingest_p90 = 0;
    if (!ingest_ms_.empty()) {
      TIX_ASSIGN_OR_RETURN(ingest_p50,
                           required("ingest latency", ingest_ms_, 0.5));
      TIX_ASSIGN_OR_RETURN(ingest_p90,
                           required("ingest latency", ingest_ms_, 0.9));
    }
    // The tail of the untraced open loop: reported here, ungated, because
    // its run-to-run spread on a shared host exceeds any allowed bound.
    TIX_ASSIGN_OR_RETURN(const double p90,
                         required("query latency", open_.LatenciesMs(), 0.9));
    std::vector<double> lateness = open_.GeneratorLatenessMs();
    lateness.insert(lateness.end(), writer_lateness_ms_.begin(),
                    writer_lateness_ms_.end());
    TIX_ASSIGN_OR_RETURN(const double late_p90,
                         required("generator lateness", lateness, 0.9));
    // The layers must account for their round trips; a traced run that
    // traced nothing fails here too.
    const double self_sum_ratio = ratio(self_sum_ms, roundtrip_ms);
    const bool split_ok =
        std::abs(self_sum_ratio - 1.0) <= kSelfSumTolerance;
    if (!split_ok) {
      std::fprintf(stderr, "trace: layer self times sum to %.3f of the round "
                   "trips\n", self_sum_ratio);
    }
    tally_.Add("trace", 1, split_ok ? 0 : 1);
    const double compactions = static_cast<double>(
        final_.index.compactions - before_.index.compactions);
    metrics = {
        {"query_p90_ms", p90, "ms"},
        {"server.self_ms", per_traced("server.roundtrip"), "ms"},
        {"server.start_ms", Median(setup_ms["server.start"]), "ms"},
        {"server.admission_rejects",
         static_cast<double>(b.server.queries_rejected -
                             a.server.queries_rejected),
         "count"},
        {"query.parse_ms", per_traced("query.parse"), "ms"},
        {"query.execute_ms", per_traced("query.execute"), "ms"},
        {"query.render_ms", per_traced("query.render"), "ms"},
        {"algebra.match_ms", per_traced("algebra.match"), "ms"},
        {"algebra.match_fetches",
         ratio(static_cast<double>(facts.match_fetches), traced), "count"},
        {"exec.termjoin_ms", per_traced("exec.termjoin"), "ms"},
        {"exec.scope_ms", per_traced("exec.scope"), "ms"},
        {"exec.pick_ms", per_traced("exec.pick"), "ms"},
        {"exec.threshold_ms", per_traced("exec.threshold"), "ms"},
        {"exec.scored_per_result",
         ratio(static_cast<double>(facts.scored),
               static_cast<double>(facts.returned)),
         "ratio"},
        {"exec.occurrences", occurrences / queries, "count"},
        {"exec.topk_prune_ratio", ratio(pruned, pruned + occurrences),
         "ratio"},
        {"exec.pushdown_share", ratio(static_cast<double>(pushdowns), traced),
         "ratio"},
        {"index.blocks_scanned",
         per_query(tix::obs::Counter::kIndexBlocksScanned), "count"},
        {"index.blocks_decoded",
         per_query(tix::obs::Counter::kIndexBlocksDecoded), "count"},
        {"index.block_cache_hit_rate",
         ratio(block_hits, block_hits + block_misses), "ratio"},
        {"index.open_ms", Median(setup_ms["index.open"]), "ms"},
        {"index.recover_ms", Median(setup_ms["index.recover"]), "ms"},
        {"index.reopen_ms", reopen_s_ * 1e3, "ms"},
        {"index.seals",
         static_cast<double>(final_.next_segment_id -
                             before_.next_segment_id) -
             compactions,
         "count"},
        {"index.compactions", compactions, "count"},
        {"index.segments_max", static_cast<double>(segments_max_), "count"},
        {"index.ingest_p50_ms", ingest_p50, "ms"},
        {"index.ingest_p90_ms", ingest_p90, "ms"},
        {"storage.db_open_ms", Median(setup_ms["storage.db_open"]), "ms"},
        {"storage.record_fetches",
         per_query(tix::obs::Counter::kRecordFetches), "count"},
        {"storage.pool_hit_rate", ratio(pool_hits, pool_hits + pool_misses),
         "ratio"},
        {"storage.pool_misses", pool_misses / queries, "count"},
        {"storage.checksum_mb",
         pool_misses * tix::storage::kPageSize / (1 << 20) / queries, "MB"},
        {"storage.disk_mb", disk_mb_, "MB"},
        {"xml.parse_ms",
         ratio(ingest_parse_ms, static_cast<double>(traced_ingests)), "ms"},
        {"gen.late_p90_ms", late_p90, "ms"},
        {"trace.queries", traced, "count"},
        {"trace.roundtrip_ms", Mean(traced_roundtrip_ms_), "ms"},
        {"trace.self_sum_ratio", self_sum_ratio, "ratio"},
        {"trace.overhead_ratio",
         ratio(Mean(traced_.ServiceTimesMs()), Mean(open_.ServiceTimesMs())) -
             1.0,
         "ratio"},
    };
  }

  // Provenance: what every number above was measured on.
  std::string provenance = StrFormat(
      "{\"provenance\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"nproc\":%ld,\"articles\":%llu,\"corpus_seed\":%llu,"
      "\"nodes\":%llu,\"postings\":%llu,\"pool_pages\":%zu,"
      "\"connections\":%zu,\"closed_share\":%s,\"open_rate\":%s,"
      "\"writer_rate\":%s,"
      "\"mix\":\"%s\"",
      spec_.name, (unsigned long long)o_.seed, JsonNumber(o_.seconds).c_str(),
      o_.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
      (unsigned long long)kArticles, (unsigned long long)kCorpusSeed,
      (unsigned long long)nodes_, (unsigned long long)postings_,
      spec_.pool_pages, spec_.connections, JsonNumber(kClosedShare).c_str(),
      JsonNumber(spec_.open_rate).c_str(),
      JsonNumber(spec_.writer_rate).c_str(), spec_.mix);
  // Mix shares by query shape (path, plus PICK when present).
  std::map<std::string, int> shapes;
  const std::vector<std::string> templates = MixTemplates(spec_.mix);
  for (const std::string& text : templates) {
    const size_t from = text.find("IN ") + 3;
    std::string shape = text.substr(from, text.find(" SCORE") - from);
    if (text.find(" PICK ") != std::string::npos) shape += " PICK";
    ++shapes[shape];
  }
  provenance += StrFormat(",\"mix_templates\":%zu,\"mix_shares\":{",
                          templates.size());
  const char* sep = "";
  for (const auto& [shape, count] : shapes) {
    std::string key;
    for (const char c : shape) key += c == '"' ? std::string("\\\"") : std::string(1, c);
    provenance += StrFormat("%s\"%s\":%s", sep, key.c_str(),
                            JsonNumber(static_cast<double>(count) /
                                       static_cast<double>(templates.size()))
                                .c_str());
    sep = ",";
  }
  provenance += "}";
  provenance += ",\"file_mb\":{";
  sep = "";
  for (const char* file : {"nodes.tix", "text.tix", "index.tix"}) {
    const fs::path path = fs::path(BaseDir(o_.data)) / file;
    std::error_code error;
    const auto size = fs::file_size(path, error);
    provenance += StrFormat("%s\"%s\":%s", sep, file,
                            JsonNumber(error ? 0.0 : size / 1048576.0).c_str());
    sep = ",";
  }
  provenance += "},\"failures\":{";
  sep = "";
  for (const auto& [kind, count] : tally_.failures) {
    provenance += StrFormat("%s\"%s\":%llu", sep, kind.c_str(),
                            (unsigned long long)count);
    sep = ",";
  }
  provenance += StrFormat("},\"error_ratio\":%s}}",
                          JsonNumber(static_cast<double>(tally_.failed) /
                                     std::max<uint64_t>(1, tally_.attempted))
                              .c_str());
  std::printf("%s\n", provenance.c_str());

  std::string out = StrFormat(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
      tally_.failed == 0 ? "true" : "false",
      (unsigned long long)tally_.attempted, (unsigned long long)tally_.failed);
  sep = "";
  for (const Metric& metric : metrics) {
    out += StrFormat("%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}", sep,
                     metric.name.c_str(), JsonNumber(metric.value).c_str(),
                     metric.unit);
    sep = ",";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return Status::OK();
}

int Usage() {
  std::fprintf(stderr,
               "usage: tixbench --data=DIR --prepare\n"
               "       tixbench --data=DIR --workload=NAME --seed=N "
               "--seconds=S --trace=0|1\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool prepare = false;
  std::string workload, reopen;
  uint64_t pool_pages = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--data") {
      options.data = value;
    } else if (key == "--reopen") {
      reopen = value;
    } else if (key == "--pool-pages") {
      pool_pages = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--prepare") {
      prepare = true;
    } else if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return Usage();
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return Usage();
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return Usage();
  }
  if (!reopen.empty()) {
    const Result<double> seconds = TimeReopens(reopen, pool_pages);
    if (!seconds.ok()) {
      std::fprintf(stderr, "reopen: %s\n", seconds.status().ToString().c_str());
      return 1;
    }
    std::printf("%.9f\n", seconds.value());
    return 0;
  }
  if (options.data.empty()) return Usage();
  if (prepare) {
    const Status status = Prepare(options.data);
    if (!status.ok()) {
      std::fprintf(stderr, "prepare: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  options.spec = FindWorkload(workload);
  if (options.spec == nullptr || options.seconds <= 0) return Usage();
  Run run(options);
  const Status status = run.Execute();
  if (!status.ok()) {
    std::fprintf(stderr, "tixbench: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tixbench

int main(int argc, char** argv) { return tixbench::Main(argc, argv); }
