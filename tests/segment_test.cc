// Segmented-index tests: manifest codec round-trips and corruption
// detection, segment load cross-checks, the ingest/delete/seal/compact
// equivalence fuzz (N seeded interleavings must answer byte-identically
// to a bulk-built index over the same live documents, across scorers,
// phrases, top-K depths and thread counts), snapshot pinning under
// compaction, crash recovery of unsealed documents, adoption of a
// legacy monolithic index.tix, a legacy v3 segment served beside v4
// seals, the generation-stamped result cache, the live-mode server
// (INGEST/DELETE/COMPACT frames), and the SIGPIPE-free write path. The
// concurrency tests double as the TSan cases for
// scripts/check_sanitizers.sh: queries pin snapshots while ingestion
// and compaction publish new generations.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "index/inverted_index.h"
#include "index/manifest.h"
#include "index/segment.h"
#include "index/segmented_index.h"
#include "query/engine.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "storage/database.h"
#include "tests/test_util.h"
#include "xml/parser.h"

namespace tix {
namespace {

using ::tix::testing::ExpectOk;
using ::tix::testing::MakeTestDatabase;
using ::tix::testing::TempDir;
using ::tix::testing::Unwrap;

// ---------------------------------------------------------------------------
// Manifest codec

index::Manifest SampleManifest() {
  index::Manifest manifest;
  manifest.generation = 12;
  manifest.next_segment_id = 3;
  manifest.next_doc = 20;
  manifest.segments.push_back(
      index::SegmentInfo{0, "segment-0.tix", 0, 7, 8, 400});
  manifest.segments.push_back(
      index::SegmentInfo{2, "segment-2.tix", 8, 19, 12, 777});
  manifest.tombstones = {3, 11};
  manifest.deleted = {1, 3, 11};
  return manifest;
}

TEST(ManifestTest, EncodeDecodeRoundTrip) {
  const index::Manifest original = SampleManifest();
  const index::Manifest decoded = Unwrap(index::Manifest::Decode(
      original.Encode()));
  EXPECT_EQ(decoded.generation, original.generation);
  EXPECT_EQ(decoded.next_segment_id, original.next_segment_id);
  EXPECT_EQ(decoded.next_doc, original.next_doc);
  EXPECT_EQ(decoded.segments, original.segments);
  EXPECT_EQ(decoded.tombstones, original.tombstones);
  EXPECT_EQ(decoded.deleted, original.deleted);
  ExpectOk(decoded.Validate());
}

TEST(ManifestTest, EveryFlippedByteIsRejected) {
  const std::string blob = SampleManifest().Encode();
  for (size_t i = 0; i < blob.size(); ++i) {
    std::string damaged = blob;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x40);
    const auto decoded = index::Manifest::Decode(damaged);
    // Either the CRC trips, or (if the flip landed in the CRC trailer's
    // own encoding) the framing does; silent acceptance of a different
    // manifest is the only failure.
    if (decoded.ok()) {
      EXPECT_EQ(decoded.value().Encode(), blob) << "byte " << i;
    }
  }
}

TEST(ManifestTest, ValidateRejectsOverlapAndUnsortedTombstones) {
  index::Manifest manifest = SampleManifest();
  manifest.segments[1].min_doc = 5;  // overlaps segment 0's [0,7]
  EXPECT_FALSE(manifest.Validate().ok());

  manifest = SampleManifest();
  manifest.tombstones = {11, 3};
  EXPECT_FALSE(manifest.Validate().ok());

  manifest = SampleManifest();
  manifest.tombstones = {5};  // not a subset of deleted
  EXPECT_FALSE(manifest.Validate().ok());
}

TEST(ManifestTest, SaveLoadAndAbsence) {
  TempDir dir;
  EXPECT_TRUE(index::LoadManifest(dir.path()).status().IsNotFound());
  ExpectOk(index::SaveManifest(SampleManifest(), dir.path()));
  const index::Manifest loaded = Unwrap(index::LoadManifest(dir.path()));
  EXPECT_EQ(loaded.segments, SampleManifest().segments);
}

// ---------------------------------------------------------------------------
// Fuzz scaffolding: a tiny deterministic corpus of one-article documents

/// Deterministic article: background words plus planted terms. Every
/// doc contains "xhot"; some contain the rare "xcold" and the adjacent
/// phrase "xone xtwo".
std::string MakeArticleXml(std::mt19937_64* rng) {
  static const char* kVocabulary[] = {"alpha", "beta",  "gamma", "delta",
                                      "kappa", "sigma", "omega", "lambda"};
  std::uniform_int_distribution<size_t> pick_word(
      0, sizeof(kVocabulary) / sizeof(kVocabulary[0]) - 1);
  std::uniform_int_distribution<int> coin(0, 3);
  auto words = [&](int count) {
    std::string out;
    for (int i = 0; i < count; ++i) {
      if (!out.empty()) out += ' ';
      out += kVocabulary[pick_word(*rng)];
    }
    return out;
  };
  std::string xml = "<article><title>" + words(3) + " xhot</title>";
  const int sections = 1 + coin(*rng) % 2;
  for (int s = 0; s < sections; ++s) {
    xml += "<sec><p>" + words(6);
    if (coin(*rng) == 0) xml += " xcold";
    if (coin(*rng) <= 1) xml += " xone xtwo";
    xml += " xhot " + words(4) + "</p></sec>";
  }
  xml += "</article>";
  return xml;
}

struct LiveDoc {
  std::string name;
  std::string xml;
};

/// The query set exercised by every equivalence check, parameterized by
/// a live document name: plain and phrase predicates, count-like (foo)
/// and tfidf scorers, top-K 1 / 3 / unbounded.
std::vector<std::string> EquivalenceQueries(const std::string& doc) {
  const std::string bind = "FOR $a IN document(\"" + doc + "\")//article//*";
  return {
      bind + " SCORE $a USING foo({\"xhot\"}) THRESHOLD STOP AFTER 1 "
             "RETURN $a",
      bind + " SCORE $a USING foo({\"xhot\", \"xcold\"}) THRESHOLD STOP "
             "AFTER 3 RETURN $a",
      bind + " SCORE $a USING foo({\"xhot\"}) RETURN $a",
      bind + " SCORE $a USING foo({\"xone xtwo\"}) RETURN $a",
      bind + " SCORE $a USING tfidf({\"xhot\", \"xcold\"}) THRESHOLD STOP "
             "AFTER 3 RETURN $a",
  };
}

/// Executes `text` and renders the same response the server would:
/// result count + stats header, then the result XML. Node ids differ
/// between independently built databases, so byte-comparing this
/// rendering (scores + content) is the equivalence check.
std::string RunQuery(query::QueryEngine* engine, const std::string& text) {
  const query::QueryOutput output = Unwrap(engine->ExecuteText(text));
  std::string response = StrFormat(
      "%zu results (anchors %llu, scored %llu)\n", output.results.size(),
      (unsigned long long)output.stats.anchors,
      (unsigned long long)output.stats.scored_elements);
  response += Unwrap(engine->RenderXml(output, 10));
  return response;
}

/// Asserts that the segmented index answers every equivalence query
/// byte-identically to a monolithic index bulk-built over exactly the
/// live documents, across serial and parallel execution.
void ExpectEquivalence(storage::Database* segmented_db,
                       index::SegmentedIndex* segmented,
                       const std::vector<LiveDoc>& live,
                       const std::string& scratch_dir) {
  std::filesystem::create_directories(scratch_dir);
  auto baseline_db = MakeTestDatabase(scratch_dir, 256);
  for (const LiveDoc& doc : live) {
    auto parsed = Unwrap(xml::ParseXml(doc.xml, doc.name));
    Unwrap(baseline_db->AddDocument(parsed));
  }
  auto baseline_index = Unwrap(index::InvertedIndex::Build(baseline_db.get()));
  const auto snapshot = segmented->Acquire();

  for (const size_t threads : {size_t{0}, size_t{2}, size_t{4}}) {
    query::EngineOptions options;
    options.num_threads = threads;
    query::QueryEngine segmented_engine(segmented_db, snapshot, options);
    query::QueryEngine baseline_engine(baseline_db.get(), &baseline_index,
                                       options);
    // Spot-check a few live docs, not all: the fuzz loop calls this
    // repeatedly and the query set is 5 wide x 3 thread counts deep.
    for (size_t d = 0; d < live.size(); d += (live.size() / 3) + 1) {
      for (const std::string& query : EquivalenceQueries(live[d].name)) {
        EXPECT_EQ(RunQuery(&segmented_engine, query),
                  RunQuery(&baseline_engine, query))
            << "seed-state query: " << query << " threads=" << threads;
      }
    }
  }
  // Snapshot-level collection stats must also match the bulk build.
  EXPECT_EQ(snapshot->live_documents(), live.size());
}

// ---------------------------------------------------------------------------
// The ingest/delete/seal/compact equivalence fuzz

TEST(SegmentedEquivalenceFuzz, SeededInterleavingsMatchBulkBuild) {
  for (const uint64_t seed : {11u, 23u, 47u, 81u}) {
    TempDir dir;
    std::filesystem::create_directories(dir.path() + "/seg");
    auto db = MakeTestDatabase(dir.path() + "/seg", 256);
    index::SegmentedIndexOptions options;
    options.seal_doc_count = 4;  // small, so seals happen mid-run
    options.compact_min_segments = 3;
    auto segmented = Unwrap(
        index::SegmentedIndex::Open(dir.path() + "/seg", options));

    std::mt19937_64 rng(seed);
    std::vector<std::pair<storage::DocId, LiveDoc>> live;
    int next_name = 0;
    int scratch = 0;

    for (int op = 0; op < 28; ++op) {
      const int kind = static_cast<int>(rng() % 10);
      if (kind < 5 || live.empty()) {
        // Ingest a new document (biased: the index must grow).
        LiveDoc doc;
        doc.name = "doc" + std::to_string(next_name++) + ".xml";
        doc.xml = MakeArticleXml(&rng);
        auto parsed = Unwrap(xml::ParseXml(doc.xml, doc.name));
        const storage::DocId id = Unwrap(db->AddDocument(parsed));
        ExpectOk(segmented->Ingest(db.get(), id));
        live.emplace_back(id, std::move(doc));
      } else if (kind < 7) {
        const size_t victim = rng() % live.size();
        ExpectOk(segmented->Delete(live[victim].first));
        live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
      } else if (kind < 9) {
        ExpectOk(segmented->Seal(db.get()));
      } else {
        ExpectOk(segmented->Compact());
      }
      if (op == 13) {  // mid-run check, then keep mutating
        std::vector<LiveDoc> docs;
        for (const auto& entry : live) docs.push_back(entry.second);
        ExpectEquivalence(
            db.get(), segmented.get(), docs,
            dir.path() + "/base" + std::to_string(scratch++));
      }
    }
    ExpectOk(segmented->Seal(db.get()));
    ExpectOk(segmented->Compact());
    std::vector<LiveDoc> docs;
    for (const auto& entry : live) docs.push_back(entry.second);
    ExpectEquivalence(db.get(), segmented.get(), docs,
                      dir.path() + "/base" + std::to_string(scratch++));

    // Deleted documents must not resolve, compacted away or not.
    if (!docs.empty()) {
      const auto snapshot = segmented->Acquire();
      query::QueryEngine engine(db.get(), snapshot);
      const auto missing = engine.ExecuteText(
          EquivalenceQueries("doc-that-never-existed.xml")[0]);
      EXPECT_TRUE(missing.status().IsNotFound());
    }
  }
}

TEST(SegmentedIndexTest, DeletedDocStaysDeadAcrossCompactionAndReopen) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 256);
  index::SegmentedIndexOptions options;
  options.seal_doc_count = 2;
  auto segmented =
      Unwrap(index::SegmentedIndex::Open(dir.path(), options));
  std::mt19937_64 rng(5);
  for (int i = 0; i < 4; ++i) {
    auto parsed = Unwrap(
        xml::ParseXml(MakeArticleXml(&rng), "d" + std::to_string(i)));
    ExpectOk(segmented->Ingest(db.get(), Unwrap(db->AddDocument(parsed))));
  }
  ExpectOk(db->Save());
  ExpectOk(segmented->Delete(1));
  ExpectOk(segmented->Seal(db.get()));
  ExpectOk(segmented->Compact());  // drops doc 1's postings + tombstone

  // Reopen: the all-time deleted list (not the tombstones, now applied)
  // must keep doc 1 dead even though the database still stores it.
  segmented.reset();
  db = Unwrap(storage::Database::Open(dir.path()));
  segmented = Unwrap(index::SegmentedIndex::Open(dir.path(), options));
  ExpectOk(segmented->Recover(db.get()));
  const auto snapshot = segmented->Acquire();
  EXPECT_FALSE(snapshot->IsLiveDocument(1));
  EXPECT_TRUE(snapshot->IsLiveDocument(0));
  query::QueryEngine engine(db.get(), snapshot);
  EXPECT_TRUE(engine.ExecuteText(EquivalenceQueries("d1")[2])
                  .status()
                  .IsNotFound());
  EXPECT_EQ(Unwrap(engine.ExecuteText(EquivalenceQueries("d0")[2]))
                .results.empty(),
            false);
}

// ---------------------------------------------------------------------------
// Snapshot pinning, recovery, adoption

TEST(SegmentedIndexTest, PinnedSnapshotSurvivesCompactionAndDeletes) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 256);
  index::SegmentedIndexOptions options;
  options.seal_doc_count = 2;
  auto segmented =
      Unwrap(index::SegmentedIndex::Open(dir.path(), options));
  std::mt19937_64 rng(9);
  for (int i = 0; i < 6; ++i) {
    auto parsed = Unwrap(
        xml::ParseXml(MakeArticleXml(&rng), "d" + std::to_string(i)));
    ExpectOk(segmented->Ingest(db.get(), Unwrap(db->AddDocument(parsed))));
  }

  const auto pinned = segmented->Acquire();
  query::QueryEngine pinned_engine(db.get(), pinned);
  const std::string query = EquivalenceQueries("d2")[2];
  const std::string before = RunQuery(&pinned_engine, query);

  // Mutate heavily behind the pinned snapshot.
  ExpectOk(segmented->Delete(2));
  ExpectOk(segmented->Seal(db.get()));
  ExpectOk(segmented->Compact());
  EXPECT_GT(segmented->generation(), pinned->generation());

  // The pinned view still answers identically — the compacted-away
  // segments it references are kept alive by its shared_ptrs.
  query::QueryEngine replay_engine(db.get(), pinned);
  EXPECT_EQ(RunQuery(&replay_engine, query), before);

  // A fresh snapshot sees the delete.
  query::QueryEngine fresh_engine(db.get(), segmented->Acquire());
  EXPECT_TRUE(fresh_engine.ExecuteText(query).status().IsNotFound());
}

// Compaction must not yank a memory-mapped segment file out from under
// a pinned snapshot: the unlink is deferred to the destructor of the
// last MappedFile reference (docs/INDEX.md "Mapping lifecycle"), i.e.
// the moment the final snapshot lets go. Unmapped segments (sealed this
// process lifetime) are unlinked eagerly as before.
TEST(SegmentedIndexTest, PinnedSnapshotDefersSegmentUnlinkUntilRelease) {
  TempDir dir;
  index::SegmentedIndexOptions options;
  options.seal_doc_count = 2;
  {
    auto db = MakeTestDatabase(dir.path(), 256);
    auto segmented =
        Unwrap(index::SegmentedIndex::Open(dir.path(), options));
    std::mt19937_64 rng(21);
    for (int i = 0; i < 4; ++i) {
      auto parsed = Unwrap(
          xml::ParseXml(MakeArticleXml(&rng), "d" + std::to_string(i)));
      ExpectOk(segmented->Ingest(db.get(), Unwrap(db->AddDocument(parsed))));
    }
    ExpectOk(db->Save());
    ExpectOk(segmented->Seal(db.get()));
  }  // reopen below so the segments come back mmap-backed

  auto db = Unwrap(storage::Database::Open(dir.path()));
  auto segmented = Unwrap(index::SegmentedIndex::Open(dir.path(), options));
  ExpectOk(segmented->Recover(db.get()));

  // The segment files about to be compacted away (read the manifest
  // before compaction rewrites it).
  std::vector<std::string> segment_files;
  for (const auto& info : Unwrap(index::LoadManifest(dir.path())).segments) {
    segment_files.push_back(dir.path() + "/" + info.file);
  }
  ASSERT_GE(segment_files.size(), 2u);
  for (const auto& file : segment_files) {
    ASSERT_TRUE(std::filesystem::exists(file)) << file;
  }

  auto pinned = segmented->Acquire();
  const std::string query = EquivalenceQueries("d1")[2];
  std::string before;
  {
    query::QueryEngine pinned_engine(db.get(), pinned);
    before = RunQuery(&pinned_engine, query);
  }

  ExpectOk(segmented->Compact());

  // The replaced files must still exist — the pinned snapshot serves
  // postings straight out of their mappings.
  for (const auto& file : segment_files) {
    EXPECT_TRUE(std::filesystem::exists(file)) << file;
  }
  {
    query::QueryEngine replay_engine(db.get(), pinned);
    EXPECT_EQ(RunQuery(&replay_engine, query), before);
  }

  // Releasing the last pin unmaps — and only then unlinks.
  pinned.reset();
  for (const auto& file : segment_files) {
    EXPECT_FALSE(std::filesystem::exists(file)) << file;
  }
}

TEST(SegmentedIndexTest, RecoverReBuffersUnsealedDocuments) {
  TempDir dir;
  std::vector<LiveDoc> docs;
  {
    auto db = MakeTestDatabase(dir.path(), 256);
    index::SegmentedIndexOptions options;
    options.seal_doc_count = 3;
    auto segmented =
        Unwrap(index::SegmentedIndex::Open(dir.path(), options));
    std::mt19937_64 rng(3);
    for (int i = 0; i < 7; ++i) {  // seals at 3 and 6; doc 6 stays buffered
      LiveDoc doc{"d" + std::to_string(i) + ".xml", MakeArticleXml(&rng)};
      auto parsed = Unwrap(xml::ParseXml(doc.xml, doc.name));
      ExpectOk(segmented->Ingest(db.get(), Unwrap(db->AddDocument(parsed))));
      docs.push_back(std::move(doc));
    }
    ExpectOk(db->Save());
    // Drop the index without sealing: the buffered doc is only in the
    // database + manifest high-water mark.
  }
  auto db = Unwrap(storage::Database::Open(dir.path()));
  auto segmented = Unwrap(index::SegmentedIndex::Open(dir.path()));
  ExpectOk(segmented->Recover(db.get()));
  ExpectEquivalence(db.get(), segmented.get(), docs, dir.path() + "/base");
}

TEST(SegmentedIndexTest, AdoptsMonolithicIndexInPlace) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 256);
  std::mt19937_64 rng(17);
  std::vector<LiveDoc> docs;
  for (int i = 0; i < 5; ++i) {
    LiveDoc doc{"d" + std::to_string(i) + ".xml", MakeArticleXml(&rng)};
    auto parsed = Unwrap(xml::ParseXml(doc.xml, doc.name));
    Unwrap(db->AddDocument(parsed));
    docs.push_back(std::move(doc));
  }
  ExpectOk(db->Save());
  auto monolithic = Unwrap(index::InvertedIndex::Build(db.get()));
  ExpectOk(monolithic.SaveToFile(dir.path() + "/index.tix"));

  // Open adopts index.tix as segment 0 without rewriting its bytes.
  auto segmented = Unwrap(index::SegmentedIndex::Open(dir.path()));
  ExpectOk(segmented->Recover(db.get()));
  EXPECT_EQ(segmented->Stats().num_segments, 1u);
  ExpectEquivalence(db.get(), segmented.get(), docs, dir.path() + "/base0");

  // And the adopted index keeps working as the first segment of a
  // growing, mutating index.
  LiveDoc extra{"extra.xml", MakeArticleXml(&rng)};
  auto parsed = Unwrap(xml::ParseXml(extra.xml, extra.name));
  ExpectOk(segmented->Ingest(db.get(), Unwrap(db->AddDocument(parsed))));
  docs.push_back(extra);
  ExpectOk(segmented->Delete(0));
  docs.erase(docs.begin());
  ExpectOk(segmented->Seal(db.get()));
  ExpectOk(segmented->Compact());
  ExpectEquivalence(db.get(), segmented.get(), docs, dir.path() + "/base1");
}

// Seals and compactions only write v4, so a v3 segment reaches a live
// index only as a file an older release wrote. Rewrite one sealed
// segment in the legacy format and require it to serve beside a new v4
// seal, in trust and verify opens, until compaction rewrites it.
TEST(SegmentedIndexTest, LegacyV3SegmentServesBesideV4Seals) {
  for (const bool verify : {false, true}) {
    SCOPED_TRACE(verify ? "verify open" : "trust open");
    TempDir dir;
    index::SegmentedIndexOptions options;
    options.seal_doc_count = 3;
    options.load.verify_on_open = verify;
    std::mt19937_64 rng(31);
    std::vector<LiveDoc> docs;
    auto ingest = [&](storage::Database* db,
                      index::SegmentedIndex* segmented) {
      LiveDoc doc{"d" + std::to_string(docs.size()) + ".xml",
                  MakeArticleXml(&rng)};
      auto parsed = Unwrap(xml::ParseXml(doc.xml, doc.name));
      ExpectOk(segmented->Ingest(db, Unwrap(db->AddDocument(parsed))));
      docs.push_back(std::move(doc));
    };
    {
      auto db = MakeTestDatabase(dir.path(), 256);
      auto segmented =
          Unwrap(index::SegmentedIndex::Open(dir.path(), options));
      for (int i = 0; i < 3; ++i) ingest(db.get(), segmented.get());
      ExpectOk(db->Save());
      ASSERT_EQ(segmented->Stats().segments_v4, 1u);
    }
    const index::Manifest manifest = Unwrap(index::LoadManifest(dir.path()));
    ASSERT_EQ(manifest.segments.size(), 1u);
    const std::string segment_path =
        dir.path() + "/" + manifest.segments[0].file;
    ExpectOk(Unwrap(index::InvertedIndex::LoadFromFile(segment_path))
                 .SaveToFile(segment_path, 3));

    auto db = Unwrap(storage::Database::Open(dir.path()));
    auto segmented = Unwrap(index::SegmentedIndex::Open(dir.path(), options));
    ExpectOk(segmented->Recover(db.get()));
    EXPECT_EQ(segmented->Stats().segments_v3, 1u);
    // Posting-level check first: the query spot checks below can miss a
    // single shifted word position.
    {
      const auto snapshot = segmented->Acquire();
      const index::InvertedIndex& legacy = snapshot->segment(0).index();
      ASSERT_EQ(legacy.format_version(), 3);
      const index::InvertedIndex fresh =
          Unwrap(index::InvertedIndex::BuildForDocRange(db.get(), 0, 3));
      ASSERT_EQ(legacy.stats().num_terms, fresh.stats().num_terms);
      for (text::TermId id = 0; id < fresh.stats().num_terms; ++id) {
        const std::string& term = fresh.dictionary().TermOf(id);
        const index::PostingList* list = Unwrap(legacy.Lookup(term));
        ASSERT_NE(list, nullptr) << term;
        EXPECT_EQ(list->DecodeAll(), Unwrap(fresh.LookupId(id))->DecodeAll())
            << term;
      }
    }
    for (int i = 0; i < 3; ++i) ingest(db.get(), segmented.get());
    index::SegmentedIndexStats stats = segmented->Stats();
    EXPECT_EQ(stats.segments_v3, 1u);
    EXPECT_EQ(stats.segments_v4, 1u);
    EXPECT_EQ(stats.buffered_docs, 0u);
    ExpectEquivalence(db.get(), segmented.get(), docs, dir.path() + "/base0");

    ExpectOk(segmented->Compact());
    stats = segmented->Stats();
    EXPECT_EQ(stats.segments_v3, 0u);
    EXPECT_EQ(stats.segments_v4, 1u);
    ExpectEquivalence(db.get(), segmented.get(), docs, dir.path() + "/base1");
  }
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan cases)

TEST(SegmentedIndexTest, ConcurrentQueriesDuringCompaction) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 256);
  index::SegmentedIndexOptions options;
  options.seal_doc_count = 2;
  auto segmented =
      Unwrap(index::SegmentedIndex::Open(dir.path(), options));
  std::mt19937_64 rng(21);
  for (int i = 0; i < 12; ++i) {
    auto parsed = Unwrap(
        xml::ParseXml(MakeArticleXml(&rng), "d" + std::to_string(i)));
    ExpectOk(segmented->Ingest(db.get(), Unwrap(db->AddDocument(parsed))));
  }

  // Readers hammer pinned snapshots while the writer deletes, seals and
  // compacts. No database writes happen here, so no external lock is
  // needed (the server adds one for ingestion) — this isolates the
  // snapshot machinery itself under TSan. Self-gate: zero query errors.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> query_errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      query::EngineOptions engine_options;
      engine_options.num_threads = static_cast<size_t>(t % 3);
      while (!stop.load(std::memory_order_acquire)) {
        query::QueryEngine engine(db.get(), segmented->Acquire(),
                                  engine_options);
        const auto output =
            engine.ExecuteText(EquivalenceQueries("d0")[t % 4]);
        if (!output.ok()) query_errors.fetch_add(1);
      }
    });
  }
  ThreadPool pool(1);
  for (int round = 0; round < 8; ++round) {
    ExpectOk(segmented->Delete(static_cast<storage::DocId>(round + 1)));
    ExpectOk(segmented->Seal(db.get()));
    if (!segmented->MaybeScheduleCompaction(&pool)) {
      ExpectOk(segmented->Compact());
    }
  }
  pool.Shutdown();
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(query_errors.load(), 0u);
  EXPECT_GT(segmented->Stats().compactions, 0u);
}

// ---------------------------------------------------------------------------
// Generation-stamped result cache

TEST(ResultCacheGenerationTest, StaleGenerationEvictsLazily) {
  server::ResultCache cache(1 << 20);
  cache.Insert("q", 1, std::make_shared<const std::string>("r@1"));
  ASSERT_NE(cache.Lookup("q", 1), nullptr);

  // Same key at a newer generation: the stale entry is dropped on the
  // spot and the lookup misses.
  EXPECT_EQ(cache.Lookup("q", 2), nullptr);
  server::ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.gen_evictions, 1u);
  EXPECT_EQ(stats.entries, 0u);

  // Re-inserted at the new generation it hits again...
  cache.Insert("q", 2, std::make_shared<const std::string>("r@2"));
  const auto hit = cache.Lookup("q", 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "r@2");
  // ...and an *older* generation is just as stale as a newer one (a
  // pinned snapshot must never see a younger cache entry).
  EXPECT_EQ(cache.Lookup("q", 1), nullptr);
  EXPECT_EQ(cache.Stats().gen_evictions, 2u);
}

// ---------------------------------------------------------------------------
// Live-mode server: INGEST / DELETE / COMPACT over the wire

class LiveServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase(dir_.path(), 256);
    index::SegmentedIndexOptions options;
    options.seal_doc_count = 3;
    segmented_ = Unwrap(index::SegmentedIndex::Open(dir_.path(), options));
  }

  std::unique_ptr<server::TixServer> StartServer(
      server::ServerOptions options = {}) {
    auto started = std::make_unique<server::TixServer>(
        db_.get(), segmented_.get(), options);
    ExpectOk(started->Start());
    return started;
  }

  TempDir dir_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<index::SegmentedIndex> segmented_;
  std::mt19937_64 rng_{33};
};

TEST_F(LiveServerTest, IngestQueryDeleteCompactLifecycle) {
  auto server = StartServer();
  server::Client client = Unwrap(server::Client::Connect("127.0.0.1",
                                                         server->port()));
  for (int i = 0; i < 5; ++i) {
    const uint64_t doc_id = Unwrap(client.Ingest(
        "d" + std::to_string(i) + ".xml", MakeArticleXml(&rng_)));
    EXPECT_EQ(doc_id, static_cast<uint64_t>(i));
  }
  const std::string answer =
      Unwrap(client.Query(EquivalenceQueries("d1.xml")[2]));
  EXPECT_NE(answer.find("results"), std::string::npos);

  ExpectOk(client.Delete("d1.xml"));
  EXPECT_TRUE(client.Delete("d1.xml").IsNotFound());  // already dead
  EXPECT_TRUE(
      client.Query(EquivalenceQueries("d1.xml")[2]).status().IsNotFound());

  ExpectOk(client.Compact());
  const index::SegmentedIndexStats stats = segmented_->Stats();
  EXPECT_EQ(stats.live_documents, 4u);
  EXPECT_EQ(stats.tombstones, 0u);  // applied by the compaction
  EXPECT_EQ(stats.deleted_docs, 1u);

  const std::string json = Unwrap(client.Stats());
  for (const char* key : {"\"index\":", "\"generation\":", "\"ingests\":",
                          "\"gen_evictions\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST_F(LiveServerTest, CachedResultsGoStaleOnIngest) {
  auto server = StartServer();
  server::Client client = Unwrap(server::Client::Connect("127.0.0.1",
                                                         server->port()));
  Unwrap(client.Ingest("a.xml", MakeArticleXml(&rng_)));
  const std::string query = EquivalenceQueries("a.xml")[2];
  Unwrap(client.Query(query));                       // miss + insert
  Unwrap(client.Query(query));                       // hit
  EXPECT_EQ(server->result_cache().Stats().hits, 1u);

  // Ingest bumps the generation: the cached entry must not be served.
  Unwrap(client.Ingest("b.xml", MakeArticleXml(&rng_)));
  Unwrap(client.Query(query));
  const server::ResultCacheStats stats = server->result_cache().Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_GE(stats.gen_evictions, 1u);
}

TEST_F(LiveServerTest, ConcurrentIngestDeleteAndQueries) {
  // The full serving stack under churn: sessions ingest and delete
  // while others query. Every query must succeed (against whatever
  // snapshot it pinned) — the self-gate the bench also enforces.
  server::ServerOptions options;
  options.session_threads = 6;
  options.max_inflight = 6;
  auto server = StartServer(options);

  // Seed one stable document every query thread can bind to.
  server::Client seed_client = Unwrap(server::Client::Connect(
      "127.0.0.1", server->port()));
  Unwrap(seed_client.Ingest("stable.xml", MakeArticleXml(&rng_)));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> query_errors{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      server::Client client = Unwrap(server::Client::Connect(
          "127.0.0.1", server->port()));
      int i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto result = client.Query(
            EquivalenceQueries("stable.xml")[(t + i++) % 5]);
        if (!result.ok()) query_errors.fetch_add(1);
      }
    });
  }
  {
    server::Client writer = Unwrap(server::Client::Connect(
        "127.0.0.1", server->port()));
    std::mt19937_64 writer_rng(55);
    for (int i = 0; i < 20; ++i) {
      const std::string name = "churn" + std::to_string(i) + ".xml";
      ASSERT_TRUE(writer.Ingest(name, MakeArticleXml(&writer_rng)).ok());
      if (i % 3 == 2) ExpectOk(writer.Delete(name));
      if (i % 7 == 6) ExpectOk(writer.Compact());
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(query_errors.load(), 0u);
  EXPECT_EQ(server->Stats().ingests, 21u);
}

// ---------------------------------------------------------------------------
// SIGPIPE: a peer that vanishes mid-write must not kill the process

TEST(ProtocolSigpipeTest, WriteToClosedPeerIsAnIOErrorNotDeath) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);  // peer gone; the next send raises EPIPE
  // Without MSG_NOSIGNAL this delivers SIGPIPE and the default action
  // kills the test binary (no gtest handler rescues it) — merely
  // reaching the EXPECTs below is the regression check.
  const Status status =
      server::WriteFrame(fds[0], server::FrameType::kResult,
                         std::string(1 << 16, 'x'));
  EXPECT_TRUE(status.IsIOError());
  EXPECT_EQ(status.message(), "connection closed");
  ::close(fds[0]);
}

TEST(ProtocolSigpipeTest, SessionEndsCleanlyWhenClientDiesMidResponse) {
  // End to end: a client that connects, sends a request and disappears
  // without ever reading the response must leave the server running and
  // serving others. (The socketpair test above pins the EPIPE path
  // deterministically; this one checks the full session loop survives.)
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 256);
  auto segmented = Unwrap(index::SegmentedIndex::Open(dir.path()));
  server::TixServer server(db.get(), segmented.get(), {});
  ExpectOk(server.Start());
  {
    server::Client seeder =
        Unwrap(server::Client::Connect("127.0.0.1", server.port()));
    Unwrap(seeder.Ingest("a.xml", "<a><b>alpha beta gamma</b></a>"));
  }
  {
    // Raw connection: write a query frame, then vanish before reading.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0);
    ExpectOk(server::WriteFrame(
        fd, server::FrameType::kQuery,
        "FOR $a IN document(\"a.xml\")//a//* "
        "SCORE $a USING foo({\"alpha\"}) RETURN $a"));
    ::close(fd);
  }
  // The abandoned session may race with the survivor's connect; what
  // matters is that the server (this process) is still alive and
  // answering afterwards.
  server::Client survivor =
      Unwrap(server::Client::Connect("127.0.0.1", server.port()));
  ExpectOk(survivor.Ping());
  EXPECT_TRUE(server.running());
  server.Stop();
}

}  // namespace
}  // namespace tix
