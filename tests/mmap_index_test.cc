#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/scoring.h"
#include "algebra/threshold.h"
#include "exec/parallel_term_join.h"
#include "exec/term_join.h"
#include "index/block_cache.h"
#include "common/obs.h"
#include "index/inverted_index.h"
#include "index/segmented_index.h"
#include "query/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/mapped_file.h"
#include "tests/test_util.h"
#include "workload/corpus.h"

/// \file
/// The mmap-backed open path (docs/INDEX.md "Mapping lifecycle"):
///  - a v3 or v4 open maps the file and performs zero posting-byte
///    reads, while the copy fallback reads the file exactly once (never
///    the old double-buffered 2x);
///  - trust-mode opens (verify_on_open = false) scrub each list on its
///    first lookup and then answer every seek and every query
///    byte-identically to scrubbed opens, with the same pruning
///    counters and doc partitions, serial and parallel, with and
///    without top-K pushdown — monolithic, adopted, sealed and
///    compacted; concurrent first lookups scrub a list once; a corrupt
///    block fails engine queries, server QUERYs and compaction with
///    Corruption;
///  - saving from a mapped index round-trips;
///  - truncated files fail closed even without the scrub;
///  - cache id 0 is a hard "never cached" sentinel.
/// Runs under TSan and ASan/UBSan via scripts/check_sanitizers.sh.

namespace tix::index {
namespace {

using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

struct Corpus {
  TempDir dir;
  std::unique_ptr<storage::Database> db;
};

std::unique_ptr<Corpus> MakeCorpusDb(uint64_t articles, uint64_t seed) {
  auto corpus = std::make_unique<Corpus>();
  corpus->db = MakeTestDatabase(corpus->dir.path());
  workload::CorpusOptions options;
  options.num_articles = articles;
  options.seed = seed;
  options.vocabulary_size = 400;
  options.planted_terms = {{"xq1", 9 * articles}, {"xq2", 4 * articles}};
  options.planted_phrases = {
      {"xpa", "xpb", 5 * articles, 4 * articles, 2 * articles}};
  Unwrap(workload::GenerateCorpus(corpus->db.get(), options));
  return corpus;
}

algebra::IrPredicate ThreePhrasePredicate() {
  algebra::IrPredicate predicate;
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xq1"}, 0.8});
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xq2"}, 0.6});
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xpa", "xpb"}, 0.7});
  return predicate;
}

void ExpectIdentical(const std::vector<exec::ScoredElement>& actual,
                     const std::vector<exec::ScoredElement>& expected,
                     const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].node, expected[i].node) << label << " @" << i;
    EXPECT_EQ(actual[i].doc, expected[i].doc) << label << " @" << i;
    EXPECT_EQ(actual[i].counts, expected[i].counts) << label << " @" << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << label << " @" << i;
  }
}

/// Snapshot of the process-wide open-I/O counters, for delta assertions.
struct IoSnapshot {
  uint64_t bytes_read;
  uint64_t bytes_mapped;
  uint64_t files_mapped;
  static IoSnapshot Take() {
    storage::IoCounters& counters = storage::GlobalIoCounters();
    return IoSnapshot{counters.bytes_read.load(),
                      counters.bytes_mapped.load(),
                      counters.files_mapped.load()};
  }
};

// -------------------------------------------------------- open-cost I/O

/// Saves `built` as format `version`: 4 through the default
/// SaveToFile(path), 3 through the explicit legacy target. Returns the
/// path, named after the version the file holds.
std::string SaveAsVersion(const InvertedIndex& built, const std::string& dir,
                          int version) {
  const std::string path = dir + "/v" + std::to_string(version) + ".tix";
  ExpectOk(version == 4 ? built.SaveToFile(path)
                        : built.SaveToFile(path, version));
  return path;
}

// The open-cost regression: a block-format (v3 or v4) open must not
// read the posting bytes at all — the file is mapped (O(1) syscalls per
// file), not copied (O(bytes) reads).
TEST(MmapOpenTest, BlockFormatOpenMapsInsteadOfReading) {
  auto corpus = MakeCorpusDb(/*articles=*/12, /*seed=*/41);
  InvertedIndex built = Unwrap(InvertedIndex::Build(corpus->db.get()));
  for (const int version : {4, 3}) {
    SCOPED_TRACE("v" + std::to_string(version));
    const std::string path = SaveAsVersion(built, corpus->dir.path(), version);
    const uint64_t file_size = std::filesystem::file_size(path);

    const IoSnapshot before = IoSnapshot::Take();
    InvertedIndex mapped = Unwrap(InvertedIndex::LoadFromFile(path));
    const IoSnapshot after = IoSnapshot::Take();

    EXPECT_EQ(mapped.format_version(), version);
    EXPECT_EQ(after.bytes_read - before.bytes_read, 0u)
        << "block-format open must mmap, not read";
    EXPECT_EQ(after.files_mapped - before.files_mapped, 1u);
    EXPECT_EQ(after.bytes_mapped - before.bytes_mapped, file_size);
    ASSERT_NE(mapped.mapping(), nullptr);
    for (text::TermId id = 0; id < mapped.stats().num_terms; ++id) {
      const PostingList* list = Unwrap(mapped.LookupId(id));
      if (list->empty()) continue;
      EXPECT_TRUE(list->is_mapped()) << "term " << id;
      EXPECT_TRUE(list->blocks.empty()) << "term " << id;
      ASSERT_EQ(list->DecodeAll(), Unwrap(built.LookupId(id))->DecodeAll())
          << "term " << id;
    }
    const IndexResidency residency = mapped.MemoryUsage();
    EXPECT_GT(residency.mapped_lists, 0u);
    EXPECT_GT(residency.mapped_bytes, 0u);
    EXPECT_EQ(residency.postings_bytes, 0u)
        << "mapped lists must not be charged as resident heap";
  }
}

// The double-buffer bugfix: the copy fallback performs one exactly
// sized read — peak transient memory is the file size, not 2x — and the
// loaded index matches the mapped one posting for posting.
TEST(MmapOpenTest, CopyFallbackReadsExactlyOnce) {
  auto corpus = MakeCorpusDb(/*articles=*/12, /*seed=*/41);
  InvertedIndex built = Unwrap(InvertedIndex::Build(corpus->db.get()));
  for (const int version : {4, 3}) {
    SCOPED_TRACE("v" + std::to_string(version));
    const std::string path = SaveAsVersion(built, corpus->dir.path(), version);
    const uint64_t file_size = std::filesystem::file_size(path);

    IndexLoadOptions copy_load;
    copy_load.prefer_mmap = false;
    const IoSnapshot before = IoSnapshot::Take();
    InvertedIndex copied =
        Unwrap(InvertedIndex::LoadFromFile(path, copy_load));
    const IoSnapshot after = IoSnapshot::Take();

    EXPECT_EQ(copied.format_version(), version);
    EXPECT_EQ(after.bytes_read - before.bytes_read, file_size)
        << "copy open must read the file exactly once";
    EXPECT_EQ(after.files_mapped - before.files_mapped, 0u);
    EXPECT_EQ(copied.mapping(), nullptr);

    InvertedIndex mapped = Unwrap(InvertedIndex::LoadFromFile(path));
    ASSERT_EQ(copied.stats().num_terms, mapped.stats().num_terms);
    for (text::TermId id = 0; id < copied.stats().num_terms; ++id) {
      const PostingList* own = Unwrap(copied.LookupId(id));
      const PostingList* map = Unwrap(mapped.LookupId(id));
      EXPECT_FALSE(own->is_mapped());
      ASSERT_EQ(own->DecodeAll(), map->DecodeAll()) << "term " << id;
    }
  }
}

// ------------------------------------------------- trust ≡ verify opens

/// A trust-mode list, once looked up, carries exactly the metadata a
/// verifying open derives, so every seek primitive answers the same.
void ExpectSameLists(const InvertedIndex& trusted,
                     const InvertedIndex& verified, const std::string& label) {
  ASSERT_EQ(trusted.stats().num_terms, verified.stats().num_terms) << label;
  for (text::TermId id = 0; id < trusted.stats().num_terms; ++id) {
    const PostingList* t = Unwrap(trusted.LookupId(id));
    const PostingList* v = Unwrap(verified.LookupId(id));
    const std::string where = label + " term " + std::to_string(id);
    ASSERT_EQ(t->DecodeAll(), v->DecodeAll()) << where;
    if (v->empty()) continue;
    EXPECT_GT(t->cache_id, 0u) << where;
    const PostingMetadata* tm = t->metadata();
    const PostingMetadata* vm = v->metadata();
    ASSERT_NE(tm, nullptr) << where;
    ASSERT_NE(vm, nullptr) << where;
    EXPECT_EQ(tm->doc_offsets, vm->doc_offsets) << where;
    EXPECT_EQ(tm->block_max, vm->block_max) << where;
    EXPECT_EQ(tm->max_doc_count, vm->max_doc_count) << where;
    const storage::DocId last = vm->doc_offsets.back().first;
    for (storage::DocId doc = 0; doc <= last + 2; ++doc) {
      EXPECT_EQ(t->LowerBoundDoc(doc), v->LowerBoundDoc(doc))
          << where << " doc " << doc;
      EXPECT_EQ(t->DocPostingCount(doc), v->DocPostingCount(doc))
          << where << " doc " << doc;
      EXPECT_EQ(t->FirstDocAtOrAfter(doc), v->FirstDocAtOrAfter(doc))
          << where << " doc " << doc;
      const PostingList::BlockBound tb = t->BlockBoundAt(doc);
      const PostingList::BlockBound vb = v->BlockBoundAt(doc);
      EXPECT_EQ(tb.max_doc_count, vb.max_doc_count) << where << " doc " << doc;
      EXPECT_EQ(tb.window_end, vb.window_end) << where << " doc " << doc;
    }
  }
}

void ExpectSamePruning(const exec::TermJoinStats& trusted,
                       const exec::TermJoinStats& verified,
                       const std::string& label) {
  EXPECT_EQ(trusted.blocks_skipped, verified.blocks_skipped) << label;
  EXPECT_EQ(trusted.docs_pruned, verified.docs_pruned) << label;
  EXPECT_EQ(trusted.postings_pruned, verified.postings_pruned) << label;
}

/// Runs the same scoring joins over both opens: plain, serial top-K
/// pushdown and partitioned pushdown. Answers, doc partitions and the
/// pruning counters must match. Counters are compared where they are
/// deterministic: serial joins, and partitions run on one thread (with
/// more threads the shared floor's timing varies the pruning). The
/// predicate adds the generator's most frequent background word to the
/// planted terms: its many-block list is where block-max bounds skip
/// windows. Returns the block windows the verifying open's serial joins
/// skipped, so callers can check that block-max pruning happened.
uint64_t ExpectSameJoins(storage::Database* db, const InvertedIndex& trusted,
                         const InvertedIndex& verified,
                         const std::string& label) {
  algebra::IrPredicate predicate = ThreePhrasePredicate();
  predicate.phrases.push_back(algebra::WeightedPhrase{{"w00000"}, 0.5});
  const algebra::WeightedCountScorer scorer(predicate.Weights());
  exec::TermJoin join_v(db, &verified, &predicate, &scorer);
  exec::TermJoin join_t(db, &trusted, &predicate, &scorer);
  const std::vector<exec::ScoredElement> full = Unwrap(join_v.Run());
  ExpectIdentical(Unwrap(join_t.Run()), full, label + "/full");

  uint64_t skipped = 0;
  for (const size_t top_k : {size_t{1}, size_t{4}, size_t{1000000}}) {
    algebra::ThresholdSpec spec;
    spec.top_k = top_k;
    exec::TermJoinOptions serial_options;
    serial_options.threshold = spec;
    exec::TermJoin topk_v(db, &verified, &predicate, &scorer, serial_options);
    exec::TermJoin topk_t(db, &trusted, &predicate, &scorer, serial_options);
    const std::vector<exec::ScoredElement> expected = Unwrap(topk_v.Run());
    const std::string label_k = label + "/k=" + std::to_string(top_k);
    ExpectIdentical(Unwrap(topk_t.Run()), expected, label_k);
    ExpectSamePruning(topk_t.stats(), topk_v.stats(), label_k);
    skipped += topk_v.stats().blocks_skipped;
    for (const size_t partitions : {3u, 8u}) {
      for (const size_t threads : {1u, 4u}) {
        exec::ParallelTermJoinOptions options;
        options.join.threshold = spec;
        options.num_partitions = partitions;
        options.num_threads = threads;
        exec::ParallelTermJoin parallel_v(db, &verified, &predicate, &scorer,
                                          options);
        exec::ParallelTermJoin parallel_t(db, &trusted, &predicate, &scorer,
                                          options);
        const std::string label_p = label_k + "/p" +
                                    std::to_string(partitions) + "t" +
                                    std::to_string(threads);
        ExpectIdentical(Unwrap(parallel_v.Run()), expected, label_p);
        ExpectIdentical(Unwrap(parallel_t.Run()), expected, label_p);
        EXPECT_EQ(parallel_t.partitions(), parallel_v.partitions())
            << label_p;
        if (threads == 1) {
          ExpectSamePruning(parallel_t.stats(), parallel_v.stats(), label_p);
        }
      }
    }
  }
  return skipped;
}

/// Opens the segmented index in `dir` in both modes (as tixd and as
/// `tix_cli verify` do) and compares every segment.
void ExpectSameSegments(storage::Database* db, const std::string& dir,
                        size_t expected_segments, const std::string& label) {
  SegmentedIndexOptions trust_options;
  trust_options.load.verify_on_open = false;
  auto verified = Unwrap(SegmentedIndex::Open(dir));
  auto trusted = Unwrap(SegmentedIndex::Open(dir, trust_options));
  const auto vs = verified->Acquire();
  const auto ts = trusted->Acquire();
  ASSERT_EQ(vs->num_segments(), expected_segments) << label;
  ASSERT_EQ(ts->num_segments(), expected_segments) << label;
  for (size_t s = 0; s < expected_segments; ++s) {
    const InvertedIndex& t = ts->segment(s).index();
    const InvertedIndex& v = vs->segment(s).index();
    const std::string label_s = label + "/segment" + std::to_string(s);
    EXPECT_EQ(t.MemoryUsage().lists_with_metadata, 0u) << label_s;
    ExpectSameJoins(db, t, v, label_s);
    ExpectSameLists(t, v, label_s);
  }
}

// Every seek primitive, every scoring join and every pruning counter
// must agree whether the open scrubbed every list up front or (trust
// mode) scrubs each list on its first lookup. This is the contract that
// makes tixd's O(lists) restart safe and lets its top-K pushdown prune
// as well as a verified open does. Covered: a monolithic index, an
// adopted index.tix, and reopened sealed and compacted segments.
TEST(MmapOpenTest, TrustAndVerifyOpensAnswerIdentically) {
  for (uint64_t seed : {7u, 23u, 99u}) {
    auto corpus = MakeCorpusDb(/*articles=*/10, /*seed=*/seed);
    InvertedIndex built = Unwrap(InvertedIndex::Build(corpus->db.get()));
    const std::string path = corpus->dir.path() + "/v4.tix";
    ExpectOk(built.SaveToFile(path));

    InvertedIndex verified = Unwrap(InvertedIndex::LoadFromFile(path));
    IndexLoadOptions trust_load;
    trust_load.verify_on_open = false;
    InvertedIndex trusted =
        Unwrap(InvertedIndex::LoadFromFile(path, trust_load));
    const std::string label = "seed=" + std::to_string(seed);

    // A trust-mode open derives nothing; the joins below are the first
    // touch of every list they read.
    EXPECT_EQ(trusted.MemoryUsage().lists_with_metadata, 0u) << label;
    EXPECT_GT(verified.MemoryUsage().lists_with_metadata, 0u) << label;
    EXPECT_GT(ExpectSameJoins(corpus->db.get(), trusted, verified, label), 0u)
        << label << ": block-max pruning skipped no window";
    ExpectSameLists(trusted, verified, label);
    const IndexResidency tr = trusted.MemoryUsage();
    const IndexResidency vr = verified.MemoryUsage();
    EXPECT_EQ(tr.lists_with_metadata, vr.lists_with_metadata) << label;
    EXPECT_EQ(tr.metadata_bytes, vr.metadata_bytes) << label;
  }

  // Segments: an adopted monolithic index.tix, then sealed segments and
  // their compaction, each reopened in both modes.
  auto corpus = MakeCorpusDb(/*articles=*/10, /*seed=*/7);
  storage::Database* db = corpus->db.get();
  const std::string adopt_dir = corpus->dir.path() + "/adopt";
  std::filesystem::create_directories(adopt_dir);
  ExpectOk(Unwrap(InvertedIndex::Build(db)).SaveToFile(adopt_dir +
                                                       "/index.tix"));
  ExpectSameSegments(db, adopt_dir, 1, "adopted");

  const std::string live_dir = corpus->dir.path() + "/live";
  std::filesystem::create_directories(live_dir);
  {
    SegmentedIndexOptions options;
    options.seal_doc_count = 3;
    auto live = Unwrap(SegmentedIndex::Open(live_dir, options));
    for (storage::DocId doc = 0; doc < db->documents().size(); ++doc) {
      ExpectOk(live->Ingest(db, doc));
    }
    ExpectOk(live->Seal(db));
  }
  const size_t sealed = (db->documents().size() + 2) / 3;
  ExpectSameSegments(db, live_dir, sealed, "sealed");
  {
    auto live = Unwrap(SegmentedIndex::Open(live_dir));
    ExpectOk(live->Delete(1));
    ExpectOk(live->Compact());
  }
  ExpectSameSegments(db, live_dir, 1, "compacted");
}

// Many queries may be first to touch one trust-mode list. Each list is
// scrubbed exactly once and every reader sees the same published
// metadata. Runs under TSan (scripts/check_sanitizers.sh).
TEST(MmapOpenTest, ConcurrentFirstLookupsScrubEachListOnce) {
  auto corpus = MakeCorpusDb(/*articles=*/10, /*seed=*/5);
  InvertedIndex built = Unwrap(InvertedIndex::Build(corpus->db.get()));
  const std::string path = corpus->dir.path() + "/v4.tix";
  ExpectOk(built.SaveToFile(path));
  IndexLoadOptions trust_load;
  trust_load.verify_on_open = false;
  const InvertedIndex trusted =
      Unwrap(InvertedIndex::LoadFromFile(path, trust_load));
  const text::TermId hot = trusted.dictionary().Lookup("xq1");
  ASSERT_NE(hot, text::kInvalidTermId);
  const size_t num_terms = trusted.stats().num_terms;

  constexpr size_t kThreads = 8;
  obs::MetricsContext metrics;
  std::atomic<size_t> ready{0};
  std::vector<const PostingMetadata*> hot_seen(kThreads, nullptr);
  std::vector<std::vector<const PostingMetadata*>> seen(
      kThreads, std::vector<const PostingMetadata*>(num_terms, nullptr));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const obs::ScopedMetrics scope(&metrics);
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      // All threads race on the same list first, then sweep every list
      // from a different starting point, so distinct lists are first
      // touched concurrently too.
      hot_seen[t] = Unwrap(trusted.LookupId(hot))->metadata();
      for (size_t k = 0; k < num_terms; ++k) {
        const auto id = static_cast<text::TermId>(
            (k + t * num_terms / kThreads) % num_terms);
        seen[t][id] = Unwrap(trusted.LookupId(id))->metadata();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  ASSERT_NE(hot_seen[0], nullptr);
  const InvertedIndex verified = Unwrap(InvertedIndex::LoadFromFile(path));
  const PostingMetadata* expected = Unwrap(verified.LookupId(hot))->metadata();
  EXPECT_EQ(hot_seen[0]->doc_offsets, expected->doc_offsets);
  EXPECT_EQ(hot_seen[0]->block_max, expected->block_max);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(hot_seen[t], hot_seen[0]) << "thread " << t;
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  EXPECT_EQ(metrics.value(obs::Counter::kIndexListsScrubbed),
            trusted.MemoryUsage().lists_with_metadata);
  EXPECT_EQ(trusted.MemoryUsage().lists_with_metadata,
            verified.MemoryUsage().lists_with_metadata);
}

// A corrupt block in a trust-mode index fails the queries that read its
// list with Corruption — through the engine, through a TixServer QUERY
// and through a compaction — and the process keeps serving.
TEST(MmapOpenTest, CorruptBlockFailsTrustModeQueriesWithCorruption) {
  auto corpus = MakeCorpusDb(/*articles=*/10, /*seed=*/11);
  storage::Database* db = corpus->db.get();
  ExpectOk(db->Save());
  InvertedIndex built = Unwrap(InvertedIndex::Build(db));
  const std::string clean_path = corpus->dir.path() + "/clean.tix";
  ExpectOk(built.SaveToFile(clean_path));
  std::string blob;
  {
    std::ifstream in(clean_path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }

  // Locate the tail of the "xq1" list's first block inside the file.
  IndexLoadOptions trust_load;
  trust_load.verify_on_open = false;
  size_t tail_begin = 0;
  size_t tail_end = 0;
  {
    const InvertedIndex mapped =
        Unwrap(InvertedIndex::LoadFromFile(clean_path, trust_load));
    ASSERT_NE(mapped.mapping(), nullptr);
    const text::TermId id = mapped.dictionary().Lookup("xq1");
    ASSERT_NE(id, text::kInvalidTermId);
    const PostingList& list = *Unwrap(mapped.LookupId(id));
    const size_t base = static_cast<size_t>(list.mapped_blocks.data() -
                                            mapped.mapping()->data().data());
    tail_begin = base + list.skips[0].byte_offset;
    tail_end = tail_begin + list.skips[0].byte_length;
  }
  // The first flip inside that tail that a verifying open rejects.
  const std::string path = corpus->dir.path() + "/index.tix";
  bool corrupted = false;
  for (size_t at = tail_begin; at < tail_end && !corrupted; ++at) {
    std::string damaged = blob;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x5a);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    corrupted = !InvertedIndex::LoadFromFile(path).ok();
  }
  ASSERT_TRUE(corrupted) << "no flip in the block tail was detectable";

  // Trust mode opens (O(lists), nothing decoded) and then refuses the
  // list on every lookup.
  const InvertedIndex trusted =
      Unwrap(InvertedIndex::LoadFromFile(path, trust_load));
  for (int i = 0; i < 2; ++i) {
    const Result<const PostingList*> list = trusted.Lookup("xq1");
    ASSERT_FALSE(list.ok());
    EXPECT_TRUE(list.status().IsCorruption()) << list.status().ToString();
  }
  const std::string query =
      R"(FOR $a IN document("*")//article//*
         SCORE $a USING foo({"xq1"}, {"xq2"}) THRESHOLD STOP AFTER 5
         RETURN $a)";
  {
    query::QueryEngine engine(db, &trusted);
    const Result<query::QueryOutput> output = engine.ExecuteText(query);
    ASSERT_FALSE(output.ok());
    EXPECT_TRUE(output.status().IsCorruption()) << output.status().ToString();
  }

  // tixd's stack: the corrupt file adopted by a trust-mode segmented
  // index behind a TixServer.
  SegmentedIndexOptions trust_options;
  trust_options.load.verify_on_open = false;
  {
    auto segmented = Unwrap(SegmentedIndex::Open(corpus->dir.path(),
                                                 trust_options));
    ExpectOk(segmented->Recover(db));
    server::TixServer server(db, segmented.get(), server::ServerOptions{});
    ExpectOk(server.Start());
    server::Client client =
        Unwrap(server::Client::Connect("127.0.0.1", server.port()));
    const Result<std::string> answer = client.Query(query);
    ASSERT_FALSE(answer.ok());
    EXPECT_TRUE(answer.status().IsCorruption()) << answer.status().ToString();
    // The server survives and still answers queries that avoid the
    // list; their first touches show in EXPLAIN and STATS.
    ExpectOk(client.Ping());
    const std::string plan =
        Unwrap(client.QueryExplain(R"(FOR $a IN document("*")//article//*
                                      SCORE $a USING foo({"xq2"}) RETURN $a)"));
    EXPECT_NE(plan.find("index_lists_scrubbed"), std::string::npos) << plan;
    Unwrap(client.Query(R"(FOR $a IN document("*")//article//*
                           SCORE $a USING foo({"xpa"}) RETURN $a)"));
    const std::string stats = Unwrap(client.Stats());
    EXPECT_NE(stats.find("\"index_lists_scrubbed\":"), std::string::npos);
    EXPECT_EQ(stats.find("\"index_lists_scrubbed\":0"), std::string::npos)
        << stats;
  }

  // Compaction validates every list it reads (InvertedIndex::DecodeList).
  {
    auto segmented = Unwrap(SegmentedIndex::Open(corpus->dir.path(),
                                                 trust_options));
    ExpectOk(segmented->Delete(0));
    const Status status = segmented->Compact();
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  }
}

// SaveToFile from a mapped index copies tails through the
// byte_offset/byte_length directory (tails are NOT contiguous in a
// mapped region — head varints interleave). A save → reload round trip
// proves the directory addresses exactly the right slices.
TEST(MmapOpenTest, SaveRoundTripsFromMappedIndex) {
  auto corpus = MakeCorpusDb(/*articles=*/8, /*seed=*/3);
  InvertedIndex built = Unwrap(InvertedIndex::Build(corpus->db.get()));
  const std::string path = corpus->dir.path() + "/v4.tix";
  ExpectOk(built.SaveToFile(path));

  IndexLoadOptions trust_load;
  trust_load.verify_on_open = false;
  InvertedIndex mapped = Unwrap(InvertedIndex::LoadFromFile(path, trust_load));
  ASSERT_NE(mapped.mapping(), nullptr);
  const std::string resaved = corpus->dir.path() + "/resaved.tix";
  ExpectOk(mapped.SaveToFile(resaved));

  InvertedIndex reloaded = Unwrap(InvertedIndex::LoadFromFile(resaved));
  ASSERT_EQ(reloaded.stats().num_terms, built.stats().num_terms);
  ASSERT_EQ(reloaded.stats().num_postings, built.stats().num_postings);
  for (text::TermId id = 0; id < reloaded.stats().num_terms; ++id) {
    ASSERT_EQ(Unwrap(reloaded.LookupId(id))->DecodeAll(),
              Unwrap(built.LookupId(id))->DecodeAll())
        << "term " << id;
  }
}

// ------------------------------------------------------------ fail-closed

// Trust mode skips the scrub, not the structural parse: a file
// truncated anywhere must still fail with Corruption/IOError, never
// crash or serve a partial index.
TEST(MmapOpenTest, TruncatedFilesFailClosedInTrustMode) {
  auto corpus = MakeCorpusDb(/*articles=*/6, /*seed=*/13);
  InvertedIndex built = Unwrap(InvertedIndex::Build(corpus->db.get()));
  const std::string path = corpus->dir.path() + "/v4.tix";
  ExpectOk(built.SaveToFile(path));
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(blob.size(), 64u);

  IndexLoadOptions trust_load;
  trust_load.verify_on_open = false;
  for (const size_t keep :
       {blob.size() - 1, blob.size() - 7, blob.size() / 2, blob.size() / 3,
        size_t{40}, size_t{8}, size_t{0}}) {
    const std::string mangled = corpus->dir.path() + "/truncated.tix";
    {
      std::ofstream out(mangled, std::ios::binary | std::ios::trunc);
      out.write(blob.data(), static_cast<std::streamsize>(keep));
    }
    const auto result = InvertedIndex::LoadFromFile(mangled, trust_load);
    EXPECT_FALSE(result.ok()) << "kept " << keep << " of " << blob.size();
  }
}

// --------------------------------------------------- cache id-0 sentinel

TEST(BlockCacheSentinelTest, IdZeroIsNeverMintedStoredNorServed) {
  for (int i = 0; i < 16; ++i) EXPECT_NE(DecodedBlockCache::NextListId(), 0u);

  DecodedBlockCache& cache = DecodedBlockCache::Instance();
  auto block = std::make_shared<DecodedBlock>();
  block->postings[0] = Posting{1, 2, 3};
  // Insert passes an id-0 block through without storing it...
  const DecodedBlockHandle returned = cache.Insert(0, 0, block);
  EXPECT_EQ(returned, block);
  // ...so a later id-0 lookup (any list whose id was reset) can never
  // see another list's bytes.
  EXPECT_EQ(cache.Lookup(0, 0), nullptr);
}

// The decode_postings expansion resets lists to cache_id 0; such a list
// must never alias blocks another compressed list parked in the cache.
TEST(BlockCacheSentinelTest, DecodedListsCarryTheSentinelAfterLoad) {
  auto corpus = MakeCorpusDb(/*articles=*/6, /*seed=*/29);
  InvertedIndex built = Unwrap(InvertedIndex::Build(corpus->db.get()));
  const std::string path = corpus->dir.path() + "/v4.tix";
  ExpectOk(built.SaveToFile(path));

  IndexLoadOptions decode;
  decode.decode_postings = true;
  InvertedIndex expanded = Unwrap(InvertedIndex::LoadFromFile(path, decode));
  for (text::TermId id = 0; id < expanded.stats().num_terms; ++id) {
    EXPECT_EQ(Unwrap(expanded.LookupId(id))->cache_id, 0u) << "term " << id;
  }
}

}  // namespace
}  // namespace tix::index
