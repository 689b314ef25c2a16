// Resident-server tests: wire protocol framing, query-text
// normalization, the result cache (unit + concurrent), and the
// end-to-end TixServer — byte-identical results vs the direct engine
// and vs serial runs, cache hit/miss equivalence, admission control,
// per-query timeouts and graceful shutdown. The whole file runs under
// TSan via scripts/check_sanitizers.sh; the concurrency tests here are
// the data-race check for the shared-everything serving path.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "index/inverted_index.h"
#include "query/engine.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "xml/parser.h"

namespace tix::server {
namespace {

using ::tix::testing::ExpectOk;
using ::tix::testing::MakeTestDatabase;
using ::tix::testing::TempDir;
using ::tix::testing::Unwrap;

// ---------------------------------------------------------------------------
// Protocol framing

class SocketPair {
 public:
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0); }
  ~SocketPair() {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  int a() const { return fds_[0]; }
  int b() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

TEST(ProtocolTest, FrameRoundTrip) {
  SocketPair pair;
  ExpectOk(WriteFrame(pair.a(), FrameType::kQuery, "FOR $a ..."));
  const Frame frame = Unwrap(ReadFrame(pair.b()));
  EXPECT_EQ(frame.type, FrameType::kQuery);
  EXPECT_EQ(frame.payload, "FOR $a ...");
}

TEST(ProtocolTest, EmptyPayloadRoundTrip) {
  SocketPair pair;
  ExpectOk(WriteFrame(pair.a(), FrameType::kPing, ""));
  const Frame frame = Unwrap(ReadFrame(pair.b()));
  EXPECT_EQ(frame.type, FrameType::kPing);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(ProtocolTest, OversizeFrameRejectedOnWrite) {
  SocketPair pair;
  const std::string huge(kMaxFrameBytes, 'x');
  EXPECT_TRUE(
      WriteFrame(pair.a(), FrameType::kQuery, huge).IsInvalidArgument());
}

TEST(ProtocolTest, OversizeLengthRejectedOnRead) {
  SocketPair pair;
  // Hand-build a header whose length field exceeds the limit.
  const uint32_t length = kMaxFrameBytes + 1;
  char header[4] = {static_cast<char>(length & 0xff),
                    static_cast<char>((length >> 8) & 0xff),
                    static_cast<char>((length >> 16) & 0xff),
                    static_cast<char>((length >> 24) & 0xff)};
  ASSERT_EQ(::write(pair.a(), header, sizeof header), 4);
  EXPECT_TRUE(ReadFrame(pair.b()).status().IsCorruption());
}

TEST(ProtocolTest, CleanCloseBetweenFramesVsTruncation) {
  {
    SocketPair pair;
    ::shutdown(pair.a(), SHUT_WR);
    const Status status = ReadFrame(pair.b()).status();
    EXPECT_TRUE(status.IsIOError());
    EXPECT_EQ(status.message(), "connection closed");
  }
  {
    SocketPair pair;
    // Two header bytes, then EOF: a truncated frame, not a clean close.
    ASSERT_EQ(::write(pair.a(), "\x08\x00", 2), 2);
    ::shutdown(pair.a(), SHUT_WR);
    const Status status = ReadFrame(pair.b()).status();
    EXPECT_TRUE(status.IsIOError());
    EXPECT_NE(status.message(), "connection closed");
  }
}

TEST(ProtocolTest, ErrorPayloadRoundTrip) {
  const Status original = Status::ResourceExhausted("queue full");
  const Status decoded = DecodeError(EncodeError(original));
  EXPECT_TRUE(decoded.IsResourceExhausted());
  EXPECT_EQ(decoded.message(), "queue full");
}

// ---------------------------------------------------------------------------
// Query-text normalization

TEST(NormalizeQueryTest, CollapsesWhitespaceAndKeywordCase) {
  const std::string canonical = NormalizeQueryText(
      R"(FOR $a IN document("a.xml")//article//* SCORE $a USING foo({"xhot"}) RETURN $a)");
  EXPECT_EQ(NormalizeQueryText("for   $a   in\n\tdocument(\"a.xml\")//article//*\n"
                               "score $a using foo({\"xhot\"}) return $a"),
            canonical);
  // Comments vanish too.
  EXPECT_EQ(NormalizeQueryText("FOR $a IN document(\"a.xml\")//article//* # hi\n"
                               "SCORE $a USING foo({\"xhot\"}) RETURN $a"),
            canonical);
}

TEST(NormalizeQueryTest, PreservesCaseSensitiveParts) {
  // Tag names, document names and string literals must NOT fold case.
  const std::string upper =
      NormalizeQueryText(R"(FOR $a IN document("A.xml")//Article RETURN $a)");
  const std::string lower =
      NormalizeQueryText(R"(FOR $a IN document("a.xml")//article RETURN $a)");
  EXPECT_NE(upper, lower);
  EXPECT_NE(NormalizeQueryText(R"(FOR $a IN document("a.xml")//p SCORE $a USING foo({"Xhot"}) RETURN $a)"),
            NormalizeQueryText(R"(FOR $a IN document("a.xml")//p SCORE $a USING foo({"xhot"}) RETURN $a)"));
}

TEST(NormalizeQueryTest, UnlexableTextFallsBackToRaw) {
  EXPECT_EQ(NormalizeQueryText("FOR $a \x01 nope"), "FOR $a \x01 nope");
}

// ---------------------------------------------------------------------------
// Result cache (unit)

TEST(ResultCacheTest, HitMissAndPromotion) {
  ResultCache cache(1 << 20);
  EXPECT_EQ(cache.Lookup("q1", 0), nullptr);
  cache.Insert("q1", 0, std::make_shared<const std::string>("r1"));
  const auto hit = cache.Lookup("q1", 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "r1");
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, EvictsLruUnderTinyBudget) {
  // Budget fits roughly two entries; the least recently used goes first.
  ResultCache cache(2 * (2 + 64 + 96));
  cache.Insert("a", 0, std::make_shared<const std::string>(std::string(64, 'a')));
  cache.Insert("b", 0, std::make_shared<const std::string>(std::string(64, 'b')));
  ASSERT_NE(cache.Lookup("a", 0), nullptr);  // promote "a"; "b" is now LRU
  cache.Insert("c", 0, std::make_shared<const std::string>(std::string(64, 'c')));
  EXPECT_NE(cache.Lookup("a", 0), nullptr);
  EXPECT_EQ(cache.Lookup("b", 0), nullptr);
  EXPECT_NE(cache.Lookup("c", 0), nullptr);
  EXPECT_GE(cache.Stats().evictions, 1u);
  EXPECT_LE(cache.Stats().bytes, cache.capacity_bytes());
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.Insert("q", 0, std::make_shared<const std::string>("r"));
  EXPECT_EQ(cache.Lookup("q", 0), nullptr);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(ResultCacheTest, OversizePayloadNotAdmitted) {
  ResultCache cache(128);
  cache.Insert("q", 0, std::make_shared<const std::string>(std::string(256, 'x')));
  EXPECT_EQ(cache.Lookup("q", 0), nullptr);
  EXPECT_EQ(cache.Stats().bytes, 0u);
}

TEST(ResultCacheTest, ReplaceInPlaceKeepsOneEntry) {
  ResultCache cache(1 << 20);
  cache.Insert("q", 0, std::make_shared<const std::string>("old"));
  cache.Insert("q", 0, std::make_shared<const std::string>("new"));
  const auto hit = cache.Lookup("q", 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "new");
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(ResultCacheTest, ConcurrentHammer) {
  // Readers and writers race over a small key space with a budget that
  // forces constant eviction; correctness here is "no torn payloads, no
  // crashes" — and TSan turns any race into a failure.
  ResultCache cache(4 * (1 + 32 + 96));
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < 500; ++i) {
        const std::string key(1, static_cast<char>('a' + (t + i) % 6));
        if (const auto hit = cache.Lookup(key, 0); hit != nullptr) {
          // A cached payload is always the key repeated 32 times.
          EXPECT_EQ(*hit, std::string(32, key[0]));
        } else {
          cache.Insert(key, 0,
                       std::make_shared<const std::string>(
                           std::string(32, key[0])));
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.Stats().bytes, cache.capacity_bytes());
}

// ---------------------------------------------------------------------------
// End-to-end server

/// Builds one small seeded corpus + index and keeps them open for every
/// server constructed by a test (servers share them by design).
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase(dir_.path(), 256);
    workload::CorpusOptions options;
    options.num_articles = 20;
    options.seed = 7;
    options.planted_terms = {{"xhot", 200}, {"xwarm", 40}, {"xcold", 5}};
    Unwrap(workload::GenerateCorpus(db_.get(), options));
    index_ = std::make_unique<index::InvertedIndex>(
        Unwrap(index::InvertedIndex::Build(db_.get())));
  }

  /// The canonical queries used across the equivalence tests.
  std::vector<std::string> Queries() const {
    return {
        R"(FOR $a IN document("article0.xml")//article//*
           SCORE $a USING foo({"xhot"}) THRESHOLD STOP AFTER 5 RETURN $a)",
        R"(FOR $a IN document("article1.xml")//article//*
           SCORE $a USING foo({"xwarm", "xhot"}) THRESHOLD STOP AFTER 3 RETURN $a)",
        R"(FOR $a IN document("article2.xml")//article//sec
           SCORE $a USING foo({"xcold"}) RETURN $a)",
        R"(FOR $a IN document("article3.xml")//article//p
           SCORE $a USING foo({"xhot", "xcold"}) THRESHOLD score > 0.1 RETURN $a)",
    };
  }

  /// What the server should answer for `text`: the same header +
  /// RenderXml the direct engine produces.
  std::string DirectAnswer(const std::string& text, size_t limit = 10) {
    query::QueryEngine engine(db_.get(), index_.get());
    const query::QueryOutput output = Unwrap(engine.ExecuteText(text));
    std::string expected = StrFormat(
        "%zu results (anchors %llu, scored %llu)\n", output.results.size(),
        (unsigned long long)output.stats.anchors,
        (unsigned long long)output.stats.scored_elements);
    expected += Unwrap(engine.RenderXml(output, limit));
    return expected;
  }

  std::unique_ptr<TixServer> StartServer(ServerOptions options = {}) {
    auto server =
        std::make_unique<TixServer>(db_.get(), index_.get(), options);
    ExpectOk(server->Start());
    return server;
  }

  Client ConnectTo(const TixServer& server) {
    return Unwrap(Client::Connect("127.0.0.1", server.port()));
  }

  TempDir dir_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<index::InvertedIndex> index_;
};

TEST_F(ServerTest, PingAndStats) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  ExpectOk(client.Ping());
  const std::string json = Unwrap(client.Stats());
  for (const char* key :
       {"\"server\":", "\"result_cache\":", "\"block_cache\":", "\"work\":",
        "\"queries\":", "\"hits\":", "\"connections_accepted\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST_F(ServerTest, QueryMatchesDirectEngineByteForByte) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  for (const std::string& query : Queries()) {
    EXPECT_EQ(Unwrap(client.Query(query)), DirectAnswer(query)) << query;
  }
}

TEST_F(ServerTest, CacheHitIsByteIdenticalToMiss) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  for (const std::string& query : Queries()) {
    const std::string miss = Unwrap(client.Query(query));
    const std::string hit = Unwrap(client.Query(query));
    EXPECT_EQ(miss, hit);
  }
  const ResultCacheStats stats = server->result_cache().Stats();
  EXPECT_EQ(stats.misses, Queries().size());
  EXPECT_EQ(stats.hits, Queries().size());
}

TEST_F(ServerTest, NormalizationCollapsesSpellingsToOneEntry) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  const std::string spelled_one =
      R"(FOR $a IN document("article0.xml")//article//*
         SCORE $a USING foo({"xhot"}) THRESHOLD STOP AFTER 5 RETURN $a)";
  const std::string spelled_two =
      "for $a in document(\"article0.xml\")//article//* "
      "score $a using foo({\"xhot\"}) threshold stop after 5 return $a";
  const std::string first = Unwrap(client.Query(spelled_one));
  const std::string second = Unwrap(client.Query(spelled_two));
  EXPECT_EQ(first, second);
  const ResultCacheStats stats = server->result_cache().Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(ServerTest, ParseErrorsComeBackAsStatus) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  const Status status = client.Query("THIS IS NOT A QUERY").status();
  EXPECT_FALSE(status.ok());
  // The session survives an error and keeps serving.
  ExpectOk(client.Ping());
  EXPECT_EQ(server->Stats().queries_error, 1u);
}

TEST_F(ServerTest, ExplainBypassesCacheAndCarriesPlan) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  const std::string query = Queries()[0];
  const std::string explained = Unwrap(client.QueryExplain(query));
  EXPECT_NE(explained.find("TermJoin"), std::string::npos) << explained;
  // EXPLAIN neither populated nor consulted the cache.
  EXPECT_EQ(server->result_cache().Stats().entries, 0u);
  const std::string plain = Unwrap(client.Query(query));
  EXPECT_EQ(plain, DirectAnswer(query));
}

TEST_F(ServerTest, ConcurrentDistinctQueriesMatchSerialRuns) {
  // Serial ground truth first (direct engine), then N sessions run the
  // same queries concurrently against one server with caching off (so
  // every execution is a real one). Byte-identical responses required.
  const std::vector<std::string> queries = Queries();
  std::vector<std::string> expected;
  expected.reserve(queries.size());
  for (const std::string& query : queries) {
    expected.push_back(DirectAnswer(query));
  }

  ServerOptions options;
  options.session_threads = 4;
  options.max_inflight = 4;
  options.result_cache_bytes = 0;
  auto server = StartServer(options);

  constexpr int kRounds = 5;
  std::vector<std::thread> sessions;
  std::atomic<int> failures{0};
  for (size_t i = 0; i < queries.size(); ++i) {
    sessions.emplace_back([&, i] {
      Client client = Unwrap(Client::Connect("127.0.0.1", server->port()));
      for (int round = 0; round < kRounds; ++round) {
        const auto response = client.Query(queries[i]);
        if (!response.ok() || response.value() != expected[i]) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& session : sessions) session.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServerTest, ConcurrentSameQueryHammerIsConsistent) {
  // Many sessions race the same query through the cache miss/insert/hit
  // path; every response must be byte-identical to the direct answer.
  const std::string query = Queries()[0];
  const std::string expected = DirectAnswer(query);
  auto server = StartServer();

  constexpr int kSessions = 8;
  constexpr int kRounds = 10;
  std::vector<std::thread> sessions;
  std::atomic<int> failures{0};
  for (int i = 0; i < kSessions; ++i) {
    sessions.emplace_back([&] {
      Client client = Unwrap(Client::Connect("127.0.0.1", server->port()));
      for (int round = 0; round < kRounds; ++round) {
        const auto response = client.Query(query);
        if (!response.ok() || response.value() != expected) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& session : sessions) session.join();
  EXPECT_EQ(failures.load(), 0);
  const ResultCacheStats stats = server->result_cache().Stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kSessions * kRounds));
  EXPECT_GE(stats.hits, static_cast<uint64_t>(kSessions * kRounds - kSessions));
}

TEST_F(ServerTest, AdmissionRejectsWhenSaturated) {
  // One execution slot, zero queue depth: while query A holds the slot
  // (blocked on a latch in the test hook), query B must be rejected
  // immediately with ResourceExhausted — fast rejection, not collapse.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool entered = false;

  ServerOptions options;
  options.session_threads = 2;
  options.max_inflight = 1;
  options.admission_queue = 0;
  options.result_cache_bytes = 0;
  options.test_query_hook = [&](const std::string&) {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  auto server = StartServer(options);

  Client blocked = ConnectTo(*server);
  std::thread holder([&] {
    // Holds the only slot until released.
    EXPECT_TRUE(blocked.Query(Queries()[0]).ok());
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  Client rejected = ConnectTo(*server);
  const Status status = rejected.Query(Queries()[1]).status();
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
  EXPECT_EQ(server->Stats().queries_rejected, 1u);
  EXPECT_EQ(server->Stats().queries_ok, 1u);
}

TEST_F(ServerTest, AdmissionQueueAdmitsAfterSlotFrees) {
  // With queue depth 1 and a generous wait, the second query parks and
  // then runs once the first releases the slot.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  int entered = 0;

  ServerOptions options;
  options.session_threads = 2;
  options.max_inflight = 1;
  options.admission_queue = 1;
  options.admission_wait_ms = 10000;
  options.result_cache_bytes = 0;
  options.test_query_hook = [&](const std::string&) {
    std::unique_lock<std::mutex> lock(mu);
    if (++entered > 1) return;  // only the first query blocks
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  auto server = StartServer(options);

  Client first = ConnectTo(*server);
  std::thread holder([&] { EXPECT_TRUE(first.Query(Queries()[0]).ok()); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= 1; });
  }

  Client second = ConnectTo(*server);
  std::thread waiter([&] {
    // Parks in the admission queue, then succeeds.
    EXPECT_TRUE(second.Query(Queries()[1]).ok());
  });
  // Give the waiter a moment to reach the queue, then open the gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
  waiter.join();
  EXPECT_EQ(server->Stats().queries_ok, 2u);
  EXPECT_EQ(server->Stats().queries_rejected, 0u);
}

TEST_F(ServerTest, QueryTimeoutFires) {
  // The deadline clock starts at admission; the hook burns the whole
  // 5 ms budget before execution begins, so the engine's first deadline
  // check trips deterministically.
  ServerOptions options;
  options.query_timeout_ms = 5;
  options.result_cache_bytes = 0;
  options.test_query_hook = [](const std::string&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  auto server = StartServer(options);
  Client client = ConnectTo(*server);
  const Status status = client.Query(Queries()[0]).status();
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_EQ(server->Stats().queries_timeout, 1u);
  // The session is still healthy after a timeout.
  ExpectOk(client.Ping());
}

TEST(DeepNestingServerTest, ManyStepQueriesAnswerWithinTimeout) {
  // 40 nested <a> elements around one text node (41 nodes): every
  // `//a` step can bind at every depth, so an 8-step path has C(40, 8)
  // (about 77 million) embeddings while the answer is 33 rows.
  TempDir dir;
  auto db = MakeTestDatabase(dir.path());
  std::string xml;
  for (int i = 0; i < 40; ++i) xml += "<a>";
  xml += "deep";
  for (int i = 0; i < 40; ++i) xml += "</a>";
  Unwrap(db->AddDocument(Unwrap(xml::ParseXml(xml, "deep.xml"))));
  const index::InvertedIndex index =
      Unwrap(index::InvertedIndex::Build(db.get()));
  ServerOptions options;
  options.query_timeout_ms = 2000;
  options.result_cache_bytes = 0;
  TixServer server(db.get(), &index, options);
  ExpectOk(server.Start());
  Client client = Unwrap(Client::Connect("127.0.0.1", server.port()));
  for (const auto& [steps, rows] : {std::pair{6, 35}, std::pair{8, 33}}) {
    std::string text = R"(FOR $a IN document("deep.xml"))";
    for (int i = 0; i < steps; ++i) text += "//a";
    text += " RETURN $a";
    const auto started = std::chrono::steady_clock::now();
    const std::string response = Unwrap(client.Query(text));
    EXPECT_LT(std::chrono::steady_clock::now() - started,
              std::chrono::milliseconds(500))
        << steps << " steps";
    EXPECT_EQ(response.rfind(std::to_string(rows) + " results", 0), 0u)
        << response.substr(0, 80);
  }
  EXPECT_EQ(server.Stats().queries_timeout, 0u);
}

TEST_F(ServerTest, SessionLimitRejectsExtraConnections) {
  ServerOptions options;
  options.session_threads = 1;
  options.max_sessions = 1;
  auto server = StartServer(options);

  Client first = ConnectTo(*server);
  ExpectOk(first.Ping());  // session fully established
  Client second = ConnectTo(*server);
  const Status status = second.Ping();
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  EXPECT_EQ(server->Stats().connections_rejected, 1u);
  // The original session keeps working.
  ExpectOk(first.Ping());
}

TEST_F(ServerTest, GracefulStopWithLiveSessions) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  ExpectOk(client.Ping());
  server->Stop();
  EXPECT_FALSE(server->running());
  // The client's next request fails cleanly rather than hanging.
  EXPECT_FALSE(client.Ping().ok());
  // And new connections are refused or immediately closed.
  auto reconnect = Client::Connect("127.0.0.1", server->port());
  if (reconnect.ok()) {
    EXPECT_FALSE(reconnect.value().Ping().ok());
  }
}

TEST_F(ServerTest, ClientShutdownRequestIsAcknowledged) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  ExpectOk(client.RequestShutdown());
  // The daemon main loop observes the request and performs the stop.
  EXPECT_TRUE(server->WaitForShutdownRequest());
  server->Stop();
  EXPECT_FALSE(server->running());
}

TEST_F(ServerTest, WorkCountersRollUpAcrossSessions) {
  ServerOptions options;
  options.result_cache_bytes = 0;
  auto server = StartServer(options);
  Client client = ConnectTo(*server);
  Unwrap(client.Query(Queries()[0]));
  Unwrap(client.Query(Queries()[1]));
  // Real executions fetch records and look up index terms; the server
  // root context must have accumulated that session work.
  EXPECT_GT(server->WorkCounter(obs::Counter::kIndexLookups), 0u);
  EXPECT_GT(server->WorkCounter(obs::Counter::kRecordFetches), 0u);
}

}  // namespace
}  // namespace tix::server
