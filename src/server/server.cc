#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/block_codec.h"
#include "common/string_util.h"
#include "exec/score_bound.h"
#include "index/block_cache.h"
#include "query/parser.h"
#include "server/protocol.h"
#include "xml/parser.h"

namespace tix::server {

namespace {

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

void AppendJsonField(std::string* out, const char* key, uint64_t value,
                     bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += StrFormat("\"%s\":%llu", key, (unsigned long long)value);
}

}  // namespace

/// Blocks (bounded) for one of `max_inflight` execution slots. The
/// waiter count is the admission queue: at most `admission_queue`
/// queries may be parked here, each for at most `admission_wait_ms`.
class TixServer::AdmissionSlot {
 public:
  AdmissionSlot(TixServer* server) : server_(server) {
    const ServerOptions& opt = server_->options_;
    std::unique_lock<std::mutex> lock(server_->admission_mu_);
    if (server_->inflight_ < opt.max_inflight) {
      ++server_->inflight_;
      held_ = true;
      return;
    }
    if (server_->waiters_ >= opt.admission_queue) {
      status_ = Status::ResourceExhausted(
          "server overloaded: admission queue full");
      return;
    }
    ++server_->waiters_;
    const bool got = server_->admission_cv_.wait_for(
        lock, std::chrono::milliseconds(opt.admission_wait_ms), [this] {
          return server_->inflight_ < server_->options_.max_inflight ||
                 server_->stopping_.load(std::memory_order_acquire);
        });
    --server_->waiters_;
    if (!got || server_->stopping_.load(std::memory_order_acquire)) {
      status_ = Status::ResourceExhausted(
          "server overloaded: timed out waiting for an execution slot");
      return;
    }
    ++server_->inflight_;
    held_ = true;
  }

  ~AdmissionSlot() {
    if (!held_) return;
    {
      std::lock_guard<std::mutex> lock(server_->admission_mu_);
      --server_->inflight_;
    }
    server_->admission_cv_.notify_one();
  }

  bool ok() const { return held_; }
  const Status& status() const { return status_; }

 private:
  TixServer* const server_;
  bool held_ = false;
  Status status_ = Status::OK();
};

TixServer::TixServer(storage::Database* db, const index::InvertedIndex* index,
                     ServerOptions options)
    : db_(db), index_(index), segmented_(nullptr), options_(std::move(options)) {
  result_cache_ = std::make_unique<ResultCache>(options_.result_cache_bytes);
}

TixServer::TixServer(storage::Database* db, index::SegmentedIndex* segmented,
                     ServerOptions options)
    : db_(db),
      index_(nullptr),
      segmented_(segmented),
      options_(std::move(options)) {
  result_cache_ = std::make_unique<ResultCache>(options_.result_cache_bytes);
}

TixServer::TixServer(ShardFleetOptions fleet, ServerOptions options)
    : db_(nullptr),
      index_(nullptr),
      segmented_(nullptr),
      fleet_(std::make_unique<ShardFleet>(std::move(fleet))),
      options_(std::move(options)) {
  // The cache object must exist (Stats() reads it) but stays cold: the
  // coordinator cannot observe shard index generations, so serving a
  // cached response could silently span an ingest on some shard.
  result_cache_ = std::make_unique<ResultCache>(0);
}

TixServer::~TixServer() { Stop(); }

Status TixServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::Internal("server already running");
  }
  stopping_.store(false, std::memory_order_release);
  shutdown_requested_ = false;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const Status status =
        Status::IOError(std::string("bind: ") + std::strerror(errno));
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) < 0) {
    const Status status =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  const size_t threads =
      options_.session_threads == 0 ? 1 : options_.session_threads;
  pool_ = std::make_unique<ThreadPool>(threads);
  if (segmented_ != nullptr) {
    maintenance_pool_ = std::make_unique<ThreadPool>(1);
  }
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TixServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  admission_cv_.notify_all();

  // Wake the accept loop, then every session blocked in ReadFrame. The
  // fds stay open (sessions own the close); shutdown() just makes their
  // next read return 0 so the loops fall out cleanly.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const int fd : session_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (pool_ != nullptr) pool_->Shutdown();
  pool_.reset();
  // After the session pool: sessions are the only compaction schedulers,
  // so no new work can arrive; drain what is in flight.
  if (maintenance_pool_ != nullptr) maintenance_pool_->Shutdown();
  maintenance_pool_.reset();
  CloseFd(listen_fd_);
  listen_fd_ = -1;

  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    // Keep shutdown_requested_ as-is: WaitForShutdownRequest reports
    // whether a *client* asked, and !running() also releases waiters.
  }
  shutdown_cv_.notify_all();
}

void TixServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (or fatally broken): stop
    }
    if (stopping_.load(std::memory_order_acquire)) {
      CloseFd(fd);
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    const size_t max_sessions = options_.max_sessions == 0
                                    ? options_.session_threads
                                    : options_.max_sessions;
    if (active_sessions_.load(std::memory_order_acquire) >= max_sessions) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      WriteFrame(fd, FrameType::kError,
                 EncodeError(Status::ResourceExhausted(
                     "server busy: session limit reached")))
          .ok();  // best effort; the close is the real answer
      CloseFd(fd);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    active_sessions_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      session_fds_.insert(fd);
    }
    // The pool has exactly max-session workers, so a session task never
    // waits behind another session (admission above bounds acceptance).
    pool_->Submit([this, fd] { RunSession(fd); });
  }
}

void TixServer::RunSession(int fd) {
  // Everything this session charges (storage fetches, cache hits...)
  // rolls up into the server root for STATS, while staying per-session
  // exact for this session's EXPLAIN output.
  obs::MetricsContext session_metrics(&root_metrics_);
  obs::ScopedMetrics install(&session_metrics);

  while (!stopping_.load(std::memory_order_acquire)) {
    Result<Frame> frame = ReadFrame(fd);
    if (!frame.ok()) break;  // clean close, truncation or hostile frame
    Status handled = Status::OK();
    switch (frame->type) {
      case FrameType::kQuery:
        handled = HandleQuery(fd, frame->payload, /*explain=*/false);
        break;
      case FrameType::kQueryExplain:
        handled = HandleQuery(fd, frame->payload, /*explain=*/true);
        break;
      case FrameType::kStats:
        handled = WriteFrame(fd, FrameType::kStatsJson, StatsJson());
        break;
      case FrameType::kPing:
        handled = WriteFrame(fd, FrameType::kPong, "");
        break;
      case FrameType::kIngest:
        handled = HandleIngest(fd, frame->payload);
        break;
      case FrameType::kDelete:
        handled = HandleDelete(fd, frame->payload);
        break;
      case FrameType::kCompact:
        handled = HandleCompact(fd);
        break;
      case FrameType::kQueryShard:
        handled = HandleShardQuery(fd, frame->payload);
        break;
      case FrameType::kShutdown: {
        handled = WriteFrame(fd, FrameType::kPong, "");
        // Stop() joins the pool, so it cannot run here on a pool
        // thread; wake WaitForShutdownRequest (the daemon main thread)
        // and let it drive the stop.
        {
          std::lock_guard<std::mutex> lock(shutdown_mu_);
          shutdown_requested_ = true;
        }
        shutdown_cv_.notify_all();
        break;
      }
      default:
        handled = WriteFrame(
            fd, FrameType::kError,
            EncodeError(Status::InvalidArgument("unexpected frame type")));
        break;
    }
    if (!handled.ok()) break;  // socket gone; no way to report further
  }

  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    session_fds_.erase(fd);
  }
  CloseFd(fd);
  active_sessions_.fetch_sub(1, std::memory_order_relaxed);
}

Status TixServer::HandleQuery(int fd, const std::string& text, bool explain) {
  if (fleet_ != nullptr) return HandleCoordinatorQuery(fd, text, explain);
  queries_.fetch_add(1, std::memory_order_relaxed);
  const std::string key = NormalizeQueryText(text);

  // Live mode pins the snapshot *before* the cache lookup so the
  // generation the cache is consulted at is exactly the one this query
  // would execute at — a hit is provably current, and the entry a miss
  // later inserts carries the generation of the snapshot it reflects.
  std::shared_ptr<const index::IndexSnapshot> snapshot;
  uint64_t generation = 0;
  if (segmented_ != nullptr) {
    snapshot = segmented_->Acquire();
    generation = snapshot->generation();
  }

  // Fast path: serve straight from the result cache — no admission
  // needed, a cache hit does no engine work. EXPLAIN always executes
  // (its payload embeds per-run metrics, which are meaningless cached).
  if (!explain) {
    if (const auto cached = result_cache_->Lookup(key, generation);
        cached != nullptr) {
      queries_ok_.fetch_add(1, std::memory_order_relaxed);
      return WriteFrame(fd, FrameType::kResult, *cached);
    }
  }

  AdmissionSlot slot(this);
  if (!slot.ok()) {
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    return WriteFrame(fd, FrameType::kError, EncodeError(slot.status()));
  }
  // The timeout clock starts at admission: queue wait is billed
  // separately (admission_wait_ms), execution gets the full budget.
  Deadline deadline;
  if (options_.query_timeout_ms > 0) {
    deadline =
        Deadline::FromNow(std::chrono::milliseconds(options_.query_timeout_ms));
  }
  if (options_.test_query_hook) options_.test_query_hook(key);

  Result<std::string> rendered =
      ExecuteQuery(text, explain, deadline, snapshot);
  if (!rendered.ok()) {
    if (rendered.status().IsDeadlineExceeded()) {
      queries_timeout_.fetch_add(1, std::memory_order_relaxed);
    } else {
      queries_error_.fetch_add(1, std::memory_order_relaxed);
    }
    return WriteFrame(fd, FrameType::kError, EncodeError(rendered.status()));
  }
  queries_ok_.fetch_add(1, std::memory_order_relaxed);
  if (!explain) {
    result_cache_->Insert(
        key, generation,
        std::make_shared<const std::string>(rendered.value()));
  }
  return WriteFrame(fd, FrameType::kResult, rendered.value());
}

Result<std::string> TixServer::ExecuteQuery(
    const std::string& text, bool explain, const Deadline& deadline,
    std::shared_ptr<const index::IndexSnapshot> snapshot) {
  query::EngineOptions engine_options = options_.engine;
  engine_options.collect_metrics = explain;
  engine_options.deadline = deadline;
  // The database stays readable for the whole execution: ingestion
  // (which reallocates storage) queues behind this shared hold. The
  // *index* view needs no lock — the pinned snapshot is immutable.
  std::shared_lock<std::shared_mutex> db_lock(db_mu_);
  // Engines are cheap to construct: the database, index and decoded-
  // block cache behind them are the long-lived shared state.
  query::QueryEngine engine =
      snapshot != nullptr
          ? query::QueryEngine(db_, std::move(snapshot), engine_options)
          : query::QueryEngine(db_, index_, engine_options);
  TIX_ASSIGN_OR_RETURN(query::QueryOutput output, engine.ExecuteText(text));
  TIX_ASSIGN_OR_RETURN(std::string body,
                       engine.RenderXml(output, options_.render_limit));
  std::string response = StrFormat(
      "%zu results (anchors %llu, scored %llu)\n", output.results.size(),
      (unsigned long long)output.stats.anchors,
      (unsigned long long)output.stats.scored_elements);
  response += body;
  if (explain && output.plan.has_value()) {
    response += "\n";
    response += obs::RenderText(*output.plan);
  }
  return response;
}

Status TixServer::HandleCoordinatorQuery(int fd, const std::string& text,
                                         bool explain) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (explain) {
    queries_error_.fetch_add(1, std::memory_order_relaxed);
    return WriteFrame(fd, FrameType::kError,
                      EncodeError(Status::NotImplemented(
                          "EXPLAIN is not supported in coordinator mode "
                          "(ask the shards directly)")));
  }
  // Admission control still applies: each admitted query occupies one
  // fan-out (N shard connections + N legs of work downstream).
  AdmissionSlot slot(this);
  if (!slot.ok()) {
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    return WriteFrame(fd, FrameType::kError, EncodeError(slot.status()));
  }
  Deadline deadline;
  if (options_.query_timeout_ms > 0) {
    deadline =
        Deadline::FromNow(std::chrono::milliseconds(options_.query_timeout_ms));
  }
  if (options_.test_query_hook) {
    options_.test_query_hook(NormalizeQueryText(text));
  }
  Result<std::string> rendered = fleet_->Execute(text, deadline);
  if (!rendered.ok()) {
    if (rendered.status().IsDeadlineExceeded()) {
      queries_timeout_.fetch_add(1, std::memory_order_relaxed);
    } else {
      queries_error_.fetch_add(1, std::memory_order_relaxed);
    }
    return WriteFrame(fd, FrameType::kError, EncodeError(rendered.status()));
  }
  queries_ok_.fetch_add(1, std::memory_order_relaxed);
  return WriteFrame(fd, FrameType::kResult, rendered.value());
}

Status TixServer::HandleShardQuery(int fd, const std::string& payload) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (fleet_ != nullptr) {
    queries_error_.fetch_add(1, std::memory_order_relaxed);
    return WriteFrame(fd, FrameType::kError,
                      EncodeError(Status::InvalidArgument(
                          "coordinators do not nest: kQueryShard must "
                          "target a shard tixd")));
  }
  Result<ShardQueryRequest> request = DecodeShardQuery(payload);
  if (!request.ok()) {
    queries_error_.fetch_add(1, std::memory_order_relaxed);
    return WriteFrame(fd, FrameType::kError, EncodeError(request.status()));
  }
  // Pin the snapshot first for the same reason HandleQuery does; there
  // is no cache lookup here (the coordinator bypasses result caching).
  std::shared_ptr<const index::IndexSnapshot> snapshot;
  if (segmented_ != nullptr) snapshot = segmented_->Acquire();

  AdmissionSlot slot(this);
  if (!slot.ok()) {
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    return WriteFrame(fd, FrameType::kError, EncodeError(slot.status()));
  }
  // The effective budget is the tighter of the server's own timeout and
  // the coordinator's forwarded remaining budget (satellite: per-query
  // deadline propagation over the wire).
  uint64_t budget_ms = options_.query_timeout_ms;
  if (request->deadline_ms > 0 &&
      (budget_ms == 0 || request->deadline_ms < budget_ms)) {
    budget_ms = request->deadline_ms;
  }
  Deadline deadline;
  if (budget_ms > 0) {
    deadline = Deadline::FromNow(std::chrono::milliseconds(budget_ms));
  }
  if (options_.test_query_hook) {
    options_.test_query_hook(NormalizeQueryText(request->query));
  }

  Result<std::string> partial =
      ExecuteShardQuery(fd, request.value(), deadline, std::move(snapshot));
  if (!partial.ok()) {
    if (partial.status().IsDeadlineExceeded()) {
      queries_timeout_.fetch_add(1, std::memory_order_relaxed);
    } else {
      queries_error_.fetch_add(1, std::memory_order_relaxed);
    }
    return WriteFrame(fd, FrameType::kError, EncodeError(partial.status()));
  }
  queries_ok_.fetch_add(1, std::memory_order_relaxed);
  return WriteFrame(fd, FrameType::kPartialResult, partial.value());
}

Result<std::string> TixServer::ExecuteShardQuery(
    int fd, const ShardQueryRequest& request, const Deadline& deadline,
    std::shared_ptr<const index::IndexSnapshot> snapshot) {
  query::EngineOptions engine_options = options_.engine;
  engine_options.collect_metrics = false;
  engine_options.deadline = deadline;

  // Heap-floor gossip: every pushdown partition prunes against one
  // query-local floor, and the merge-loop poll exchanges it with the
  // coordinator — send ours, raise by the fleet-global reply. The
  // mutex serializes partitions of a parallel join onto the one socket
  // (the frame protocol is strict request/response per exchange).
  exec::TopKFloor floor;
  std::mutex gossip_mu;
  if (request.floor_gossip) {
    engine_options.shared_topk_floor = &floor;
    engine_options.topk_floor_poll = [this, fd, &floor,
                                      &gossip_mu]() -> Status {
      std::lock_guard<std::mutex> lock(gossip_mu);
      TIX_RETURN_IF_ERROR(
          WriteFrame(fd, FrameType::kFloor, EncodeFloor(floor.Load())));
      TIX_ASSIGN_OR_RETURN(const Frame reply, ReadFrame(fd));
      if (reply.type != FrameType::kFloor) {
        return Status::Corruption("expected a FLOOR reply mid-query");
      }
      TIX_ASSIGN_OR_RETURN(const double global, DecodeFloor(reply.payload));
      floor.Raise(global);
      return Status::OK();
    };
  }

  std::shared_lock<std::shared_mutex> db_lock(db_mu_);
  query::QueryEngine engine =
      snapshot != nullptr
          ? query::QueryEngine(db_, std::move(snapshot), engine_options)
          : query::QueryEngine(db_, index_, engine_options);
  TIX_ASSIGN_OR_RETURN(const query::Query parsed,
                       query::ParseQuery(request.query));
  if (parsed.simjoin.has_value()) {
    return Status::NotImplemented("similarity joins cannot be sharded");
  }
  const bool ranked =
      parsed.threshold.has_value() && parsed.threshold->top_k.has_value();
  TIX_ASSIGN_OR_RETURN(query::QueryOutput output, engine.Execute(parsed));

  ShardPartialResult partial;
  partial.anchors = output.stats.anchors;
  partial.scored = output.stats.scored_elements;
  partial.total_count = output.results.size();
  // Ranked queries ship every local result (<= k): the merge needs all
  // of them for the exact global count. Unranked queries can have huge
  // result sets, but the coordinator only renders render_limit and
  // counts via total_count — a prefix suffices (the global top of the
  // final order restricted to this shard is a prefix of its order).
  const size_t entry_count =
      ranked ? output.results.size()
             : std::min<size_t>(output.results.size(), request.render_limit);
  const size_t fragment_count =
      std::min<size_t>(entry_count, request.render_limit);
  const uint32_t shard_count =
      options_.shard_count == 0 ? 1 : options_.shard_count;
  partial.entries.reserve(entry_count);
  for (size_t i = 0; i < entry_count; ++i) {
    const query::QueryResultItem& item = output.results[i];
    TIX_ASSIGN_OR_RETURN(const storage::NodeRecord record,
                         db_->GetNode(item.node));
    ShardResultEntry entry;
    entry.node = static_cast<uint64_t>(item.node);
    // Global doc-id namespacing (docs/SHARDING.md): interval labels
    // (start, end, level) stay shard-local — they only ever compare
    // within one document — but doc ids must order globally.
    entry.doc = record.doc_id * shard_count + options_.shard_id;
    entry.start = record.start;
    entry.end = record.end;
    entry.level = record.level;
    entry.score = item.score;
    partial.entries.push_back(entry);
  }
  partial.fragments.reserve(fragment_count);
  for (size_t i = 0; i < fragment_count; ++i) {
    // Render per-element blocks: the coordinator stitches them in
    // merged order, and each block is byte-identical to what a single
    // node would render for the same element.
    query::QueryOutput single;
    single.results.push_back(output.results[i]);
    TIX_ASSIGN_OR_RETURN(std::string fragment, engine.RenderXml(single, 1));
    partial.fragments.push_back(std::move(fragment));
  }
  return EncodeShardPartial(partial);
}

Status TixServer::HandleIngest(int fd, const std::string& payload) {
  if (fleet_ != nullptr) {
    return WriteFrame(fd, FrameType::kError,
                      EncodeError(Status::InvalidArgument(
                          "coordinator mode: ingest on the shards directly")));
  }
  if (segmented_ == nullptr) {
    return WriteFrame(fd, FrameType::kError,
                      EncodeError(Status::InvalidArgument(
                          "server is read-only (no live index)")));
  }
  if (payload.size() < 4) {
    return WriteFrame(
        fd, FrameType::kError,
        EncodeError(Status::InvalidArgument("malformed ingest payload")));
  }
  const uint32_t name_length = static_cast<uint32_t>(
      static_cast<uint8_t>(payload[0]) |
      (static_cast<uint8_t>(payload[1]) << 8) |
      (static_cast<uint8_t>(payload[2]) << 16) |
      (static_cast<uint8_t>(payload[3]) << 24));
  if (static_cast<uint64_t>(name_length) + 4 > payload.size()) {
    return WriteFrame(fd, FrameType::kError,
                      EncodeError(Status::InvalidArgument(
                          "ingest name length exceeds payload")));
  }
  std::string name = payload.substr(4, name_length);
  const std::string_view xml_text(payload.data() + 4 + name_length,
                                  payload.size() - 4 - name_length);
  // Parse outside the exclusive lock — it is the expensive part and
  // touches nothing shared.
  Result<xml::XmlDocument> document = xml::ParseXml(xml_text, name);
  if (!document.ok()) {
    return WriteFrame(fd, FrameType::kError, EncodeError(document.status()));
  }
  storage::DocId doc_id = 0;
  Status ingest_status = Status::OK();
  {
    std::unique_lock<std::shared_mutex> db_lock(db_mu_);
    Result<storage::DocId> added = db_->AddDocument(document.value());
    if (!added.ok()) {
      ingest_status = added.status();
    } else {
      doc_id = added.value();
      ingest_status = segmented_->Ingest(db_, doc_id);
    }
  }
  if (!ingest_status.ok()) {
    return WriteFrame(fd, FrameType::kError, EncodeError(ingest_status));
  }
  ingests_.fetch_add(1, std::memory_order_relaxed);
  segmented_->MaybeScheduleCompaction(maintenance_pool_.get());
  return WriteFrame(fd, FrameType::kResult, std::to_string(doc_id));
}

Status TixServer::HandleDelete(int fd, const std::string& payload) {
  if (fleet_ != nullptr) {
    return WriteFrame(fd, FrameType::kError,
                      EncodeError(Status::InvalidArgument(
                          "coordinator mode: delete on the shards directly")));
  }
  if (segmented_ == nullptr) {
    return WriteFrame(fd, FrameType::kError,
                      EncodeError(Status::InvalidArgument(
                          "server is read-only (no live index)")));
  }
  if (payload.empty()) {
    return WriteFrame(
        fd, FrameType::kError,
        EncodeError(Status::InvalidArgument("delete needs a document name")));
  }
  // Resolve name -> newest live doc id under the shared lock (the
  // documents vector must not reallocate mid-scan), then tombstone.
  Status status = Status::OK();
  bool found = false;
  {
    std::shared_lock<std::shared_mutex> db_lock(db_mu_);
    const auto snapshot = segmented_->Acquire();
    const auto& documents = db_->documents();
    for (size_t i = documents.size(); i-- > 0;) {
      if (documents[i].name == payload &&
          snapshot->IsLiveDocument(documents[i].doc_id)) {
        status = segmented_->Delete(documents[i].doc_id);
        found = true;
        break;
      }
    }
  }
  if (!found) {
    status = Status::NotFound("no live document named \"" + payload + "\"");
  }
  if (!status.ok()) {
    return WriteFrame(fd, FrameType::kError, EncodeError(status));
  }
  deletes_.fetch_add(1, std::memory_order_relaxed);
  return WriteFrame(fd, FrameType::kResult, "");
}

Status TixServer::HandleCompact(int fd) {
  if (fleet_ != nullptr) {
    return WriteFrame(fd, FrameType::kError,
                      EncodeError(Status::InvalidArgument(
                          "coordinator mode: compact on the shards directly")));
  }
  if (segmented_ == nullptr) {
    return WriteFrame(fd, FrameType::kError,
                      EncodeError(Status::InvalidArgument(
                          "server is read-only (no live index)")));
  }
  // Seal reads the database (building the segment from stored docs);
  // shared suffices — concurrent queries read the same structures, and
  // ingestion's exclusive hold is what we must not overlap with.
  Status status;
  {
    std::shared_lock<std::shared_mutex> db_lock(db_mu_);
    status = segmented_->Seal(db_);
  }
  // The merge itself reads only sealed segment data; no db lock. Runs
  // synchronously so the client observes the compacted state on return.
  if (status.ok()) status = segmented_->Compact();
  if (!status.ok()) {
    return WriteFrame(fd, FrameType::kError, EncodeError(status));
  }
  return WriteFrame(fd, FrameType::kResult, "");
}

ServerStats TixServer::Stats() const {
  ServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.queries_ok = queries_ok_.load(std::memory_order_relaxed);
  stats.queries_error = queries_error_.load(std::memory_order_relaxed);
  stats.queries_rejected = queries_rejected_.load(std::memory_order_relaxed);
  stats.queries_timeout = queries_timeout_.load(std::memory_order_relaxed);
  stats.result_cache_hits = result_cache_->Stats().hits;
  stats.ingests = ingests_.load(std::memory_order_relaxed);
  stats.deletes = deletes_.load(std::memory_order_relaxed);
  stats.active_sessions = active_sessions_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    stats.inflight = inflight_;
  }
  return stats;
}

std::string TixServer::StatsJson() const {
  const ServerStats server = Stats();
  const ResultCacheStats cache = result_cache_->Stats();
  const index::BlockCacheStats blocks =
      index::DecodedBlockCache::Instance().Stats();

  std::string out = "{\"server\":{";
  bool first = true;
  AppendJsonField(&out, "connections_accepted", server.connections_accepted,
                  &first);
  AppendJsonField(&out, "connections_rejected", server.connections_rejected,
                  &first);
  AppendJsonField(&out, "queries", server.queries, &first);
  AppendJsonField(&out, "queries_ok", server.queries_ok, &first);
  AppendJsonField(&out, "queries_error", server.queries_error, &first);
  AppendJsonField(&out, "queries_rejected", server.queries_rejected, &first);
  AppendJsonField(&out, "queries_timeout", server.queries_timeout, &first);
  AppendJsonField(&out, "ingests", server.ingests, &first);
  AppendJsonField(&out, "deletes", server.deletes, &first);
  AppendJsonField(&out, "active_sessions", server.active_sessions, &first);
  AppendJsonField(&out, "inflight", server.inflight, &first);
  out += "}";
  if (segmented_ != nullptr) {
    const index::SegmentedIndexStats seg = segmented_->Stats();
    out += ",\"index\":{";
    first = true;
    AppendJsonField(&out, "generation", seg.generation, &first);
    AppendJsonField(&out, "segments", seg.num_segments, &first);
    AppendJsonField(&out, "buffered_docs", seg.buffered_docs, &first);
    AppendJsonField(&out, "live_documents", seg.live_documents, &first);
    AppendJsonField(&out, "tombstones", seg.tombstones, &first);
    AppendJsonField(&out, "deleted_docs", seg.deleted_docs, &first);
    AppendJsonField(&out, "total_postings", seg.total_postings, &first);
    AppendJsonField(&out, "compactions", seg.compactions, &first);
    AppendJsonField(&out, "segments_v3", seg.segments_v3, &first);
    AppendJsonField(&out, "segments_v4", seg.segments_v4, &first);
    out += "}";
  }
  // The decode kernel is a string, so it can't go through the numeric
  // AppendJsonField helper; the name comes from a fixed internal set
  // ("scalar"/"simd"), no escaping needed.
  out += ",\"decode_kernel\":\"";
  out += codec::DecodeKernelName(codec::ActiveDecodeKernel());
  out += "\"";
  if (fleet_ != nullptr) {
    const ShardFleetStats fleet = fleet_->Stats();
    out += ",\"fleet\":{";
    first = true;
    AppendJsonField(&out, "shards", fleet_->num_shards(), &first);
    AppendJsonField(&out, "fanouts", fleet.fanouts, &first);
    AppendJsonField(&out, "shard_errors", fleet.shard_errors, &first);
    AppendJsonField(&out, "floor_exchanges", fleet.floor_exchanges, &first);
    AppendJsonField(&out, "dials", fleet.dials, &first);
    out += "}";
  }
  out += ",\"result_cache\":{";
  first = true;
  AppendJsonField(&out, "hits", cache.hits, &first);
  AppendJsonField(&out, "misses", cache.misses, &first);
  AppendJsonField(&out, "inserts", cache.inserts, &first);
  AppendJsonField(&out, "evictions", cache.evictions, &first);
  AppendJsonField(&out, "gen_evictions", cache.gen_evictions, &first);
  AppendJsonField(&out, "entries", cache.entries, &first);
  AppendJsonField(&out, "bytes", cache.bytes, &first);
  AppendJsonField(&out, "capacity_bytes", cache.capacity_bytes, &first);
  out += "},\"block_cache\":{";
  first = true;
  AppendJsonField(&out, "hits", blocks.hits, &first);
  AppendJsonField(&out, "misses", blocks.misses, &first);
  AppendJsonField(&out, "entries", blocks.entries, &first);
  AppendJsonField(&out, "bytes", blocks.bytes, &first);
  AppendJsonField(&out, "capacity_bytes", blocks.capacity_bytes, &first);
  out += "},\"work\":{";
  first = true;
  for (int i = 0; i < obs::kNumCounters; ++i) {
    const auto counter = static_cast<obs::Counter>(i);
    AppendJsonField(&out, obs::CounterName(counter),
                    root_metrics_.value(counter), &first);
  }
  out += "}}";
  return out;
}

bool TixServer::WaitForShutdownRequest() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_requested_ || !running_.load(std::memory_order_acquire);
  });
  return shutdown_requested_;
}

}  // namespace tix::server
