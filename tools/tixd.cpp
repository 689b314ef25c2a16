// tixd — the resident TIX query daemon (docs/SERVING.md).
//
//   tixd --db=DIR [--port=N] [--host=ADDR]
//        [--sessions=N] [--inflight=N] [--admission-queue=N]
//        [--admission-wait-ms=N] [--timeout-ms=N]
//        [--result-cache-mb=N] [--block-cache-mb=N]
//        [--threads=N] [--no-pushdown] [--limit=N]
//        [--shard-id=N --shard-count=N]
//   tixd --coordinator --shards=HOST:PORT,... [--port=N] [--host=ADDR]
//        [--io-timeout-ms=N] [--no-gossip] [--limit=N] [...]
//
// Opens the database and index once, then serves queries over the
// length-prefixed TCP protocol until SIGINT/SIGTERM or a client
// SHUTDOWN frame. Compare with `tix_cli query`, which pays the full
// open+load on every invocation: bench/bench_serve.cpp measures the
// difference.
//
// The index is served in segmented (live) mode: an existing manifest
// is loaded as-is, a monolithic index.tix is adopted in place as the
// first segment, and an empty directory starts empty. Clients may
// INGEST, DELETE and COMPACT while queries run — each query executes
// against a pinned snapshot (docs/SERVING.md).
//
// On successful startup the daemon prints exactly one line
//
//   READY port=<port> pid=<pid>
//
// to stdout and flushes it, so wrappers (bench_serve --tixd=..., shell
// scripts) can parse the chosen ephemeral port.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <unistd.h>

#include "flag_parse.h"
#include "index/block_cache.h"
#include "index/segmented_index.h"
#include "server/server.h"
#include "storage/database.h"

namespace {

// Self-pipe wakeup for SIGINT/SIGTERM: the handler writes one byte; the
// main thread waits in a blocking read between Start() and Stop(). No
// async-signal-unsafe calls in the handler.
int g_signal_pipe[2] = {-1, -1};

void HandleStopSignal(int) {
  const char byte = 1;
  // Best effort; a full pipe already means a wakeup is pending.
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int Usage() {
  std::fprintf(stderr,
               "usage: tixd --db=DIR [--port=N] [--host=ADDR]\n"
               "            [--sessions=N] [--inflight=N]\n"
               "            [--admission-queue=N] [--admission-wait-ms=N]\n"
               "            [--timeout-ms=N] [--result-cache-mb=N]\n"
               "            [--block-cache-mb=N] [--threads=N]\n"
               "            [--no-pushdown] [--limit=N]\n"
               "            [--shard-id=N --shard-count=N]\n"
               "       tixd --coordinator --shards=HOST:PORT,...\n"
               "            [--port=N] [--host=ADDR] [--io-timeout-ms=N]\n"
               "            [--no-gossip] [--limit=N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using tix::tools::MatchFlag;
  using tix::tools::ParseMiBFlag;
  using tix::tools::ParsePortFlag;
  using tix::tools::ParseSizeFlag;
  using tix::tools::ParseUint64Flag;

  std::string db_dir;
  std::string shard_list;
  bool coordinator = false;
  uint64_t shard_id = 0;
  uint64_t shard_count = 1;
  tix::server::ServerOptions options;
  tix::server::ShardFleetOptions fleet_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string_view value;
    if (MatchFlag(arg, "db", &value)) {
      db_dir = std::string(value);
    } else if (MatchFlag(arg, "host", &value)) {
      options.host = std::string(value);
    } else if (MatchFlag(arg, "shards", &value)) {
      shard_list = std::string(value);
    } else if (ParsePortFlag(arg, "port", &options.port) ||
               ParseSizeFlag(arg, "sessions", &options.session_threads) ||
               ParseSizeFlag(arg, "inflight", &options.max_inflight) ||
               ParseSizeFlag(arg, "admission-queue",
                             &options.admission_queue) ||
               ParseUint64Flag(arg, "admission-wait-ms",
                               &options.admission_wait_ms) ||
               ParseUint64Flag(arg, "timeout-ms", &options.query_timeout_ms) ||
               ParseMiBFlag(arg, "result-cache-mb",
                            &options.result_cache_bytes) ||
               ParseMiBFlag(arg, "block-cache-mb",
                            &options.engine.block_cache_bytes) ||
               ParseSizeFlag(arg, "threads", &options.engine.num_threads) ||
               ParseSizeFlag(arg, "limit", &options.render_limit) ||
               ParseUint64Flag(arg, "shard-id", &shard_id) ||
               ParseUint64Flag(arg, "shard-count", &shard_count) ||
               ParseUint64Flag(arg, "io-timeout-ms",
                               &fleet_options.io_timeout_ms)) {
      // Parsed (or died with a message naming the bad flag).
    } else if (arg == "--no-pushdown") {
      options.engine.threshold_pushdown = false;
    } else if (arg == "--coordinator") {
      coordinator = true;
    } else if (arg == "--no-gossip") {
      fleet_options.floor_gossip = false;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (coordinator ? (shard_list.empty() || !db_dir.empty())
                  : (db_dir.empty() || !shard_list.empty())) {
    return Usage();
  }
  if (shard_id >= shard_count || shard_count > 0xffffffffull) {
    std::fprintf(stderr, "error: need --shard-id < --shard-count\n");
    return Usage();
  }
  options.shard_id = static_cast<uint32_t>(shard_id);
  options.shard_count = static_cast<uint32_t>(shard_count);

  // Shard-mode state (unused by the coordinator, which holds no data).
  std::unique_ptr<tix::storage::Database> db;
  std::unique_ptr<tix::index::SegmentedIndex> segmented;
  if (coordinator) {
    auto shards = tix::server::ParseShardList(shard_list);
    if (!shards.ok()) {
      std::fprintf(stderr, "error: %s\n", shards.status().ToString().c_str());
      return 1;
    }
    fleet_options.shards = std::move(shards.value());
    fleet_options.render_limit = options.render_limit;
  } else {
    auto opened = tix::storage::Database::Open(db_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    db = std::move(opened.value());
    // Trust-mode open: the O(bytes) scrub moves from open to each
    // posting list's first lookup, so restart latency is independent of
    // index size while every list a query reads is still validated (a
    // corrupt one fails that query with Corruption). `tix_cli verify`
    // remains the whole-index scrub.
    tix::index::SegmentedIndexOptions segmented_options;
    segmented_options.load.verify_on_open = false;
    auto seg = tix::index::SegmentedIndex::Open(db_dir, segmented_options);
    if (!seg.ok()) {
      std::fprintf(stderr, "error: %s\n", seg.status().ToString().c_str());
      return 1;
    }
    segmented = std::move(seg.value());
    // Re-buffer documents that were ingested but not sealed before the
    // previous process exited.
    const tix::Status recovered = segmented->Recover(db.get());
    if (!recovered.ok()) {
      std::fprintf(stderr, "error: %s\n", recovered.ToString().c_str());
      return 1;
    }
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "error: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  // No SIGPIPE handling here: the server library writes with
  // MSG_NOSIGNAL and treats EPIPE as a clean session end, so a dying
  // client cannot kill the daemon regardless of the embedder's signal
  // disposition.

  std::optional<tix::server::TixServer> server_holder;
  if (coordinator) {
    server_holder.emplace(std::move(fleet_options), options);
  } else {
    server_holder.emplace(db.get(), segmented.get(), options);
  }
  tix::server::TixServer& server = *server_holder;
  const tix::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("READY port=%u pid=%d\n", server.port(),
              static_cast<int>(::getpid()));
  std::fflush(stdout);

  // Wait for either a client SHUTDOWN frame or a stop signal. The
  // signal watcher pokes the server's shutdown handshake so one wait
  // covers both; Stop() runs here on the main thread (it joins the
  // session pool, so it must not run on a session thread).
  std::thread signal_watcher([&server] {
    char byte;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    server.Stop();
  });
  const bool client_requested = server.WaitForShutdownRequest();
  if (client_requested) server.Stop();
  // Unblock the watcher if it is still waiting on the pipe.
  HandleStopSignal(0);
  signal_watcher.join();

  std::fprintf(stderr, "tixd: stopped (%s)\n",
               client_requested ? "client shutdown request" : "signal");
  return 0;
}
