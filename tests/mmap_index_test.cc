#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/scoring.h"
#include "algebra/threshold.h"
#include "exec/parallel_term_join.h"
#include "exec/term_join.h"
#include "index/block_cache.h"
#include "index/inverted_index.h"
#include "storage/mapped_file.h"
#include "tests/test_util.h"
#include "workload/corpus.h"

/// \file
/// The mmap-backed open path (docs/INDEX.md "Mapping lifecycle"):
///  - a v3 or v4 open maps the file and performs zero posting-byte
///    reads, while the copy fallback reads the file exactly once (never
///    the old double-buffered 2x);
///  - trust-mode opens (verify_on_open = false) answer every seek and
///    every query byte-identically to scrubbed opens, serial and
///    parallel, with and without top-K pushdown;
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
      const PostingList* list = mapped.LookupId(id);
      if (list->empty()) continue;
      EXPECT_TRUE(list->is_mapped()) << "term " << id;
      EXPECT_TRUE(list->blocks.empty()) << "term " << id;
      ASSERT_EQ(list->DecodeAll(), built.LookupId(id)->DecodeAll())
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
      const PostingList* own = copied.LookupId(id);
      const PostingList* map = mapped.LookupId(id);
      EXPECT_FALSE(own->is_mapped());
      ASSERT_EQ(own->DecodeAll(), map->DecodeAll()) << "term " << id;
    }
  }
}

// ------------------------------------------------- trust ≡ verify opens

// Every seek primitive and every query path must answer identically
// whether the open scrubbed (doc_offsets + exact block-max bounds) or
// trusted (lazy seeks + never-prune bounds). This is the contract that
// makes tixd's fast restart safe.
TEST(MmapOpenTest, TrustAndVerifyOpensAnswerIdentically) {
  for (uint64_t seed : {7u, 23u, 99u}) {
    auto corpus = MakeCorpusDb(/*articles=*/10, /*seed=*/seed);
    InvertedIndex built = Unwrap(InvertedIndex::Build(corpus->db.get()));
    const std::string path = corpus->dir.path() + "/v4.tix";
    ExpectOk(built.SaveToFile(path));

    InvertedIndex verified = Unwrap(InvertedIndex::LoadFromFile(path));
    IndexLoadOptions trust_load;
    trust_load.verify_on_open = false;
    InvertedIndex trusted = Unwrap(InvertedIndex::LoadFromFile(path, trust_load));
    const std::string label_base = "seed=" + std::to_string(seed);

    // The trust-mode shape: no doc_offsets, sentinel bounds.
    ASSERT_EQ(trusted.stats().num_terms, verified.stats().num_terms);
    const storage::DocId num_docs =
        static_cast<storage::DocId>(verified.stats().num_documents);
    for (text::TermId id = 0; id < trusted.stats().num_terms; ++id) {
      const PostingList* t = trusted.LookupId(id);
      const PostingList* v = verified.LookupId(id);
      EXPECT_TRUE(t->doc_offsets.empty());
      if (!t->empty()) {
        EXPECT_EQ(t->max_doc_count, UINT32_MAX);
        EXPECT_GT(t->cache_id, 0u);
      }
      ASSERT_EQ(t->DecodeAll(), v->DecodeAll())
          << label_base << " term " << id;
      for (storage::DocId doc = 0; doc <= num_docs + 1; ++doc) {
        EXPECT_EQ(t->LowerBoundDoc(doc), v->LowerBoundDoc(doc))
            << label_base << " term " << id << " doc " << doc;
        EXPECT_EQ(t->DocPostingCount(doc), v->DocPostingCount(doc))
            << label_base << " term " << id << " doc " << doc;
        EXPECT_EQ(t->FirstDocAtOrAfter(doc), v->FirstDocAtOrAfter(doc))
            << label_base << " term " << id << " doc " << doc;
        const PostingList::BlockBound tb = t->BlockBoundAt(doc);
        const PostingList::BlockBound vb = v->BlockBoundAt(doc);
        // Trust-mode bounds are never tighter than exact ones (they
        // may not prune, but must never prune wrongly); the window
        // geometry comes from the shared skip directory and matches.
        EXPECT_GE(tb.max_doc_count, vb.max_doc_count) << label_base;
        EXPECT_EQ(tb.window_end, vb.window_end) << label_base;
      }
    }

    // Query equivalence: serial, parallel, and top-K pushdown (which
    // exercises the ScoreBoundOracle against the sentinel bounds).
    const algebra::IrPredicate predicate = ThreePhrasePredicate();
    const algebra::WeightedCountScorer scorer(predicate.Weights());
    exec::TermJoin join_v(corpus->db.get(), &verified, &predicate, &scorer);
    exec::TermJoin join_t(corpus->db.get(), &trusted, &predicate, &scorer);
    const std::vector<exec::ScoredElement> full = Unwrap(join_v.Run());
    ExpectIdentical(Unwrap(join_t.Run()), full, label_base + "/full");

    for (const size_t top_k : {size_t{1}, size_t{4}, size_t{1000000}}) {
      algebra::ThresholdSpec spec;
      spec.top_k = top_k;
      exec::TermJoinOptions serial_options;
      serial_options.threshold = spec;
      exec::TermJoin topk_v(corpus->db.get(), &verified, &predicate, &scorer,
                            serial_options);
      const std::vector<exec::ScoredElement> expected = Unwrap(topk_v.Run());
      const std::string label = label_base + "/k=" + std::to_string(top_k);
      for (const size_t partitions : {1u, 3u, 8u}) {
        exec::ParallelTermJoinOptions options;
        options.join.threshold = spec;
        options.num_partitions = partitions;
        options.num_threads = 4;
        exec::ParallelTermJoin parallel(corpus->db.get(), &trusted,
                                        &predicate, &scorer, options);
        ExpectIdentical(Unwrap(parallel.Run()), expected,
                        label + "/p" + std::to_string(partitions));
      }
    }
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
    ASSERT_EQ(reloaded.LookupId(id)->DecodeAll(),
              built.LookupId(id)->DecodeAll())
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
    EXPECT_EQ(expanded.LookupId(id)->cache_id, 0u) << "term " << id;
  }
}

}  // namespace
}  // namespace tix::index
