#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/scoring.h"
#include "algebra/threshold.h"
#include "common/block_codec.h"
#include "common/obs.h"
#include "common/varint.h"
#include "exec/parallel_term_join.h"
#include "exec/phrase_query.h"
#include "exec/term_join.h"
#include "index/block_cache.h"
#include "index/block_cursor.h"
#include "index/inverted_index.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "workload/paper_example.h"

/// \file
/// Block-compressed posting lists: the codec, the decoded-block cache,
/// the lazy cursor, and — the load-bearing contract — byte-identical
/// query results between the compressed and decoded representations, at
/// every partition count and top-K setting, over seeded random corpora.
/// Plus on-disk compatibility (format versions 1/2/3/4, including
/// v3<->v4 transcode round-trips) and fuzzed corruption of both block
/// formats. Kernel-level differential fuzzing lives in codec_test.cc.
/// Runs under TSan and ASan/UBSan via scripts/check_sanitizers.sh.

namespace tix::index {
namespace {

using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

// Local copies of the on-disk magic numbers (deliberately file-local in
// inverted_index.cc): the legacy writers below must keep producing
// version 1/2 files even if the production constants ever move.
constexpr uint64_t kMagicV1 = 0x5449581049445801ULL;
constexpr uint64_t kMagicV2 = 0x5449581049445802ULL;
constexpr uint64_t kMagicV3 = 0x5449581049445803ULL;
constexpr uint64_t kMagicV4 = 0x5449581049445804ULL;

constexpr codec::TailFormat kBothFormats[] = {codec::TailFormat::kV3,
                                              codec::TailFormat::kV4};

/// Restores the process-wide cache to its default size when a test that
/// reconfigured it leaves scope.
struct CacheConfigGuard {
  ~CacheConfigGuard() {
    DecodedBlockCache::Instance().Configure(kDefaultBlockCacheBytes);
    DecodedBlockCache::Instance().Clear();
  }
};

/// A decoded list with `total` postings spread over `docs` documents:
/// positions strictly ascending within each doc, node ids non-decreasing
/// (a few postings per node), frequencies exact.
PostingList MakeSyntheticList(uint32_t total, uint32_t docs) {
  PostingList list;
  const uint32_t per_doc = (total + docs - 1) / docs;
  for (uint32_t i = 0; i < total; ++i) {
    const uint32_t doc = i / per_doc;
    const uint32_t local = i % per_doc;
    Posting posting;
    posting.doc_id = doc;
    posting.node_id = doc * 1000 + local / 5;
    posting.word_pos = local * 3 + 1;
    list.postings.push_back(posting);
  }
  uint32_t df = 0;
  uint32_t nf = 0;
  for (size_t i = 0; i < list.postings.size(); ++i) {
    const bool new_doc =
        i == 0 || list.postings[i].doc_id != list.postings[i - 1].doc_id;
    if (new_doc) ++df;
    if (new_doc || list.postings[i].node_id != list.postings[i - 1].node_id) {
      ++nf;
    }
  }
  list.doc_frequency = df;
  list.node_frequency = nf;
  return list;
}

// ---------------------------------------------------------- block codec

TEST(BlockCodecTest, RoundTripsBlocksOfEverySize) {
  for (const codec::TailFormat format : kBothFormats) {
    for (const size_t count : {size_t{1}, size_t{2}, size_t{7}, size_t{127},
                               size_t{128}}) {
      std::vector<uint32_t> triples;
      uint32_t doc = 5;
      for (size_t i = 0; i < count; ++i) {
        if (i % 3 == 0 && i > 0) doc += 2;  // several postings per doc
        triples.push_back(doc);
        triples.push_back(doc * 10 + static_cast<uint32_t>(i));
        triples.push_back(static_cast<uint32_t>(i) * 4 + 1);
      }
      std::string bytes;
      codec::EncodeBlockTail(format, triples.data(), count, &bytes);
      if (count == 1) {
        EXPECT_TRUE(bytes.empty());
      }
      std::vector<uint32_t> decoded(triples.size());
      decoded[0] = triples[0];
      decoded[1] = triples[1];
      decoded[2] = triples[2];
      ExpectOk(codec::DecodeBlockTail(format, bytes, count, decoded.data()));
      EXPECT_EQ(decoded, triples)
          << "count=" << count << " format=" << static_cast<int>(format);
    }
  }
}

TEST(BlockCodecTest, RejectsTruncatedAndOverlongTails) {
  for (const codec::TailFormat format : kBothFormats) {
    std::vector<uint32_t> triples;
    for (uint32_t i = 0; i < 16; ++i) {
      triples.push_back(i);          // one posting per doc
      triples.push_back(i * 7);      // absolute node each time
      triples.push_back(i * 31 + 1);
    }
    std::string bytes;
    codec::EncodeBlockTail(format, triples.data(), 16, &bytes);
    std::vector<uint32_t> out(triples.size());
    out[0] = triples[0];
    out[1] = triples[1];
    out[2] = triples[2];
    // Every strict prefix must fail (truncation mid-varint, mid-triple,
    // or — v4 — inside the control or data regions).
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(
          codec::DecodeBlockTail(format, std::string_view(bytes).substr(0, len),
                                 16, out.data())
              .ok())
          << "prefix " << len << " format=" << static_cast<int>(format);
    }
    // Trailing garbage must fail too: a block tail is exact.
    EXPECT_FALSE(
        codec::DecodeBlockTail(format, bytes + '\0', 16, out.data()).ok());
  }
  // A v3 varint claiming more than 32 bits must fail.
  std::vector<uint32_t> out(6);
  const std::string overflow("\xff\xff\xff\xff\xff", 5);
  EXPECT_FALSE(codec::DecodeBlockTail(codec::TailFormat::kV3, overflow, 2,
                                      out.data())
                   .ok());
}

// ------------------------------------------------- compress / DecodeAll

TEST(PostingListCompressTest, CompressPreservesEveryPosting) {
  for (const uint32_t total : {1u, 127u, 128u, 129u, 1000u}) {
    PostingList list = MakeSyntheticList(total, 9);
    ExpectOk(list.DebugCheckSorted());
    const std::vector<Posting> before = list.postings;
    list.Compress();
    EXPECT_TRUE(list.is_compressed());
    EXPECT_TRUE(list.postings.empty());
    EXPECT_EQ(list.size(), total);
    EXPECT_EQ(list.num_blocks(), (total + kSkipInterval - 1) / kSkipInterval);
    EXPECT_NE(list.cache_id, 0u);
    EXPECT_EQ(list.DecodeAll(), before);
    ExpectOk(list.DebugCheckSorted());
    // Blocks-resident bytes must undercut the 12-byte struct by a wide
    // margin on delta-friendly data (tiny lists pay the string's SSO
    // floor, so only judge real multi-block lists).
    if (total >= kSkipInterval) {
      EXPECT_LT(list.PostingBytes() * 3, size_t{12} * total);
    }
  }
}

TEST(PostingListCompressTest, SeekMetadataMatchesDecodedForm) {
  PostingList decoded = MakeSyntheticList(900, 30);
  decoded.BuildSkips();
  PostingList compressed = MakeSyntheticList(900, 30);
  compressed.Compress();
  for (uint32_t doc = 0; doc <= 31; ++doc) {
    EXPECT_EQ(compressed.LowerBoundDoc(doc), decoded.LowerBoundDoc(doc))
        << "doc " << doc;
    EXPECT_EQ(compressed.DocPostingCount(doc), decoded.DocPostingCount(doc))
        << "doc " << doc;
    EXPECT_EQ(compressed.FirstDocAtOrAfter(doc), decoded.FirstDocAtOrAfter(doc))
        << "doc " << doc;
    const auto bound_c = compressed.BlockBoundAt(doc);
    const auto bound_d = decoded.BlockBoundAt(doc);
    EXPECT_EQ(bound_c.max_doc_count, bound_d.max_doc_count) << "doc " << doc;
    EXPECT_EQ(bound_c.window_end, bound_d.window_end) << "doc " << doc;
  }
  for (const size_t from : {size_t{0}, size_t{100}, size_t{500}}) {
    EXPECT_EQ(compressed.SkipForward(from, 17, 10),
              decoded.SkipForward(from, 17, 10));
  }
}

TEST(PostingListCompressTest, DistinctListsGetDistinctCacheIds) {
  PostingList a = MakeSyntheticList(200, 4);
  PostingList b = MakeSyntheticList(200, 4);
  a.Compress();
  b.Compress();
  EXPECT_NE(a.cache_id, 0u);
  EXPECT_NE(a.cache_id, b.cache_id);
}

// -------------------------------------------------------- decoded cache

TEST(DecodedBlockCacheTest, HitsMissesAndEvictionsAreCounted) {
  CacheConfigGuard guard;
  DecodedBlockCache& cache = DecodedBlockCache::Instance();
  cache.Clear();
  cache.Configure(kDefaultBlockCacheBytes);

  PostingList list = MakeSyntheticList(1000, 10);  // 8 blocks
  list.Compress();
  const BlockCacheStats before = cache.Stats();
  {
    BlockCursor cursor(&list);
    for (size_t i = 0; i < cursor.size(); ++i) (void)cursor.Get(i);
  }
  const BlockCacheStats after_first = cache.Stats();
  EXPECT_EQ(after_first.misses - before.misses, list.num_blocks());
  EXPECT_EQ(after_first.inserts - before.inserts, list.num_blocks());
  {
    BlockCursor cursor(&list);
    for (size_t i = 0; i < cursor.size(); ++i) (void)cursor.Get(i);
  }
  const BlockCacheStats after_second = cache.Stats();
  EXPECT_EQ(after_second.hits - after_first.hits, list.num_blocks());
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GE(after_second.entries, uint64_t{list.num_blocks()});
}

TEST(DecodedBlockCacheTest, CapacityZeroDisablesResidency) {
  CacheConfigGuard guard;
  DecodedBlockCache& cache = DecodedBlockCache::Instance();
  cache.Configure(0);
  cache.Clear();

  PostingList list = MakeSyntheticList(600, 6);
  list.Compress();
  BlockCursor cursor(&list);
  std::vector<Posting> seen;
  for (size_t i = 0; i < cursor.size(); ++i) seen.push_back(cursor.Get(i));
  // Reads still work (Insert passes the block through) …
  EXPECT_EQ(seen, list.DecodeAll());
  // … but nothing stays resident and nothing ever hits.
  const BlockCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(DecodedBlockCacheTest, TinyCapacityEvictsButNeverCorruptsReads) {
  CacheConfigGuard guard;
  DecodedBlockCache& cache = DecodedBlockCache::Instance();
  cache.Clear();
  // One entry per shard at most: repeated full scans of a 24-block list
  // must evict constantly.
  cache.Configure(16 * (sizeof(DecodedBlock) + 96));

  PostingList list = MakeSyntheticList(3000, 25);  // 24 blocks
  list.Compress();
  const std::vector<Posting> expected = list.DecodeAll();
  const BlockCacheStats before = cache.Stats();
  for (int pass = 0; pass < 3; ++pass) {
    BlockCursor cursor(&list);
    for (size_t i = 0; i < cursor.size(); ++i) {
      ASSERT_EQ(cursor.Get(i), expected[i]) << "pass " << pass << " @" << i;
    }
  }
  const BlockCacheStats after = cache.Stats();
  EXPECT_GT(after.evictions, before.evictions);
  EXPECT_LE(after.bytes, cache.capacity_bytes());
}

// --------------------------------------------------------- block cursor

TEST(BlockCursorTest, DecodedListsReadWithoutTouchingTheCache) {
  CacheConfigGuard guard;
  DecodedBlockCache::Instance().Clear();
  PostingList list = MakeSyntheticList(300, 5);
  list.BuildSkips();
  const BlockCacheStats before = DecodedBlockCache::Instance().Stats();
  obs::MetricsContext metrics;
  {
    const obs::ScopedMetrics scope(&metrics);
    BlockCursor cursor(&list);
    ASSERT_EQ(cursor.size(), list.postings.size());
    for (size_t i = 0; i < cursor.size(); ++i) {
      EXPECT_EQ(cursor.Get(i), list.postings[i]);
    }
  }
  const BlockCacheStats after = DecodedBlockCache::Instance().Stats();
  EXPECT_EQ(metrics.value(obs::Counter::kIndexBlocksScanned), 0u);
  EXPECT_EQ(metrics.value(obs::Counter::kIndexBlocksDecoded), 0u);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(BlockCursorTest, DecodedBlocksNeverExceedBlocksScanned) {
  CacheConfigGuard guard;
  DecodedBlockCache::Instance().Configure(kDefaultBlockCacheBytes);
  DecodedBlockCache::Instance().Clear();
  PostingList list = MakeSyntheticList(1200, 8);
  list.Compress();
  obs::MetricsContext metrics;
  {
    const obs::ScopedMetrics scope(&metrics);
    BlockCursor cursor(&list);
    // Random-ish access pattern: forward, backward, strided.
    for (size_t i = 0; i < cursor.size(); i += 17) (void)cursor.Get(i);
    for (size_t i = cursor.size(); i-- > 0;) {
      (void)cursor.Get(i);
      if (i < 50) break;
    }
  }
  const uint64_t scanned = metrics.value(obs::Counter::kIndexBlocksScanned);
  const uint64_t decoded = metrics.value(obs::Counter::kIndexBlocksDecoded);
  const uint64_t hits = metrics.value(obs::Counter::kIndexBlockCacheHits);
  EXPECT_GT(scanned, 0u);
  EXPECT_LE(decoded, scanned);
  EXPECT_EQ(decoded + hits, scanned);  // every load is a hit or a decode
}

// ---------------------------------------------------- corpus scaffolding

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
    EXPECT_EQ(actual[i].start, expected[i].start) << label << " @" << i;
    EXPECT_EQ(actual[i].end, expected[i].end) << label << " @" << i;
    EXPECT_EQ(actual[i].counts, expected[i].counts) << label << " @" << i;
    // Exact: both representations feed the very same merge code.
    EXPECT_EQ(actual[i].score, expected[i].score) << label << " @" << i;
  }
}

// ------------------------------------------- representation equivalence

// The tentpole contract: over seeded corpora, every query path produces
// byte-identical results from the compressed representation and the
// decoded one — full TermJoin, PhraseFinder, and top-K pushdown at
// 1/2/4/8 partitions.
TEST(CompressedEquivalenceTest, TwentySeededCorpora) {
  constexpr size_t kInfinity = 1000000000;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto corpus = MakeCorpusDb(/*articles=*/10, /*seed=*/2000 + seed * 13);
    index::InvertedIndex decoded =
        Unwrap(InvertedIndex::Build(corpus->db.get(), /*compress=*/false));
    index::InvertedIndex compressed =
        Unwrap(InvertedIndex::Build(corpus->db.get()));
    const std::string label_base = "seed=" + std::to_string(seed);

    const algebra::IrPredicate predicate = ThreePhrasePredicate();
    const algebra::WeightedCountScorer scorer(predicate.Weights());

    // Full merge.
    exec::TermJoin join_d(corpus->db.get(), &decoded, &predicate, &scorer);
    exec::TermJoin join_c(corpus->db.get(), &compressed, &predicate, &scorer);
    const std::vector<exec::ScoredElement> full = Unwrap(join_d.Run());
    ExpectIdentical(Unwrap(join_c.Run()), full, label_base + "/full");

    // PhraseFinder.
    exec::PhraseFinderQuery phrase_d(corpus->db.get(), &decoded,
                                     {"xpa", "xpb"});
    exec::PhraseFinderQuery phrase_c(corpus->db.get(), &compressed,
                                     {"xpa", "xpb"});
    EXPECT_EQ(Unwrap(phrase_c.Run()), Unwrap(phrase_d.Run())) << label_base;

    // Top-K pushdown across partition counts.
    for (const size_t top_k : {size_t{1}, size_t{3}, kInfinity}) {
      algebra::ThresholdSpec spec;
      spec.top_k = top_k;
      exec::TermJoinOptions serial_options;
      serial_options.threshold = spec;
      exec::TermJoin topk_d(corpus->db.get(), &decoded, &predicate, &scorer,
                            serial_options);
      const std::vector<exec::ScoredElement> expected = Unwrap(topk_d.Run());
      const std::string label =
          label_base + "/k=" + std::to_string(top_k);
      for (const size_t partitions : {1u, 2u, 4u, 8u}) {
        exec::ParallelTermJoinOptions options;
        options.join.threshold = spec;
        options.num_partitions = partitions;
        options.num_threads = 4;
        exec::ParallelTermJoin parallel(corpus->db.get(), &compressed,
                                        &predicate, &scorer, options);
        ExpectIdentical(Unwrap(parallel.Run()), expected,
                        label + "/p" + std::to_string(partitions));
      }
    }
  }
}

// v3 and v4 are the same index in different tail encodings: over seeded
// corpora, a v3 save/load and a v3->v4 transcode round-trip must answer
// every query path byte-identically to the freshly built index — full
// TermJoin, PhraseFinder, and top-K pushdown across partition counts.
TEST(CompressedEquivalenceTest, FormatsAnswerQueriesIdentically) {
  constexpr size_t kInfinity = 1000000000;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    auto corpus = MakeCorpusDb(/*articles=*/10, /*seed=*/4000 + seed * 17);
    index::InvertedIndex built = Unwrap(InvertedIndex::Build(corpus->db.get()));
    const std::string v3_path = corpus->dir.path() + "/fmt.v3.tix";
    const std::string v4_path = corpus->dir.path() + "/fmt.v4.tix";
    ExpectOk(built.SaveToFile(v3_path, 3));
    index::InvertedIndex v3 = Unwrap(InvertedIndex::LoadFromFile(v3_path));
    ExpectOk(v3.SaveToFile(v4_path, 4));  // transcode: decode v3, encode v4
    index::InvertedIndex v4 = Unwrap(InvertedIndex::LoadFromFile(v4_path));
    ASSERT_EQ(v3.tail_format(), codec::TailFormat::kV3);
    ASSERT_EQ(v4.tail_format(), codec::TailFormat::kV4);
    const std::string label_base = "seed=" + std::to_string(seed);

    const algebra::IrPredicate predicate = ThreePhrasePredicate();
    const algebra::WeightedCountScorer scorer(predicate.Weights());

    exec::TermJoin join_b(corpus->db.get(), &built, &predicate, &scorer);
    const std::vector<exec::ScoredElement> full = Unwrap(join_b.Run());
    for (index::InvertedIndex* index : {&v3, &v4}) {
      const std::string label =
          label_base + (index == &v3 ? "/v3" : "/v4");
      exec::TermJoin join(corpus->db.get(), index, &predicate, &scorer);
      ExpectIdentical(Unwrap(join.Run()), full, label + "/full");

      exec::PhraseFinderQuery phrase_b(corpus->db.get(), &built,
                                       {"xpa", "xpb"});
      exec::PhraseFinderQuery phrase(corpus->db.get(), index, {"xpa", "xpb"});
      EXPECT_EQ(Unwrap(phrase.Run()), Unwrap(phrase_b.Run())) << label;

      for (const size_t top_k : {size_t{1}, size_t{3}, kInfinity}) {
        algebra::ThresholdSpec spec;
        spec.top_k = top_k;
        exec::TermJoinOptions serial_options;
        serial_options.threshold = spec;
        exec::TermJoin topk_b(corpus->db.get(), &built, &predicate, &scorer,
                              serial_options);
        const std::vector<exec::ScoredElement> expected =
            Unwrap(topk_b.Run());
        for (const size_t partitions : {1u, 2u, 4u}) {
          exec::ParallelTermJoinOptions options;
          options.join.threshold = spec;
          options.num_partitions = partitions;
          options.num_threads = 4;
          exec::ParallelTermJoin parallel(corpus->db.get(), index, &predicate,
                                          &scorer, options);
          ExpectIdentical(Unwrap(parallel.Run()), expected,
                          label + "/k=" + std::to_string(top_k) + "/p" +
                              std::to_string(partitions));
        }
      }
    }
  }
}

// With pushdown skipping documents, decode work must drop: the streams
// seek on metadata and only landing blocks decode. Cache disabled so
// hits cannot mask the comparison.
TEST(CompressedEquivalenceTest, PushdownDecodesNoMoreBlocksThanFullScan) {
  CacheConfigGuard guard;
  DecodedBlockCache::Instance().Configure(0);
  DecodedBlockCache::Instance().Clear();

  auto corpus = MakeCorpusDb(/*articles=*/60, /*seed=*/77);
  index::InvertedIndex compressed =
      Unwrap(InvertedIndex::Build(corpus->db.get()));
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::WeightedCountScorer scorer(predicate.Weights());

  auto run = [&](bool pushdown) {
    obs::MetricsContext metrics;
    const obs::ScopedMetrics scope(&metrics);
    exec::TermJoinOptions options;
    if (pushdown) {
      algebra::ThresholdSpec spec;
      spec.top_k = 1;
      options.threshold = spec;
    }
    exec::TermJoin join(corpus->db.get(), &compressed, &predicate, &scorer,
                        options);
    (void)Unwrap(join.Run());
    const uint64_t scanned = metrics.value(obs::Counter::kIndexBlocksScanned);
    const uint64_t decoded = metrics.value(obs::Counter::kIndexBlocksDecoded);
    EXPECT_LE(decoded, scanned);
    EXPECT_EQ(join.stats().blocks_decoded, decoded);
    return decoded;
  };

  const uint64_t full = run(/*pushdown=*/false);
  const uint64_t pruned = run(/*pushdown=*/true);
  EXPECT_GT(full, 0u);
  EXPECT_LE(pruned, full);
}

TEST(CompressedEquivalenceTest, StatsReportCacheHitsAfterWarmup) {
  CacheConfigGuard guard;
  DecodedBlockCache::Instance().Configure(kDefaultBlockCacheBytes);
  DecodedBlockCache::Instance().Clear();

  auto corpus = MakeCorpusDb(/*articles=*/20, /*seed=*/5);
  index::InvertedIndex compressed =
      Unwrap(InvertedIndex::Build(corpus->db.get()));
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::WeightedCountScorer scorer(predicate.Weights());
  auto run = [&] {
    exec::TermJoin join(corpus->db.get(), &compressed, &predicate, &scorer);
    (void)Unwrap(join.Run());
    return join.stats();
  };
  const exec::TermJoinStats cold = run();
  const exec::TermJoinStats warm = run();
  EXPECT_GT(cold.blocks_decoded, 0u);
  // The second run reads the same blocks out of the cache.
  EXPECT_GT(warm.block_cache_hits, 0u);
  EXPECT_LT(warm.blocks_decoded, cold.blocks_decoded);
}

// ------------------------------------------------------ memory residency

TEST(IndexResidencyTest, CompressionShrinksPostingBytesAtLeastThreefold) {
  auto corpus = MakeCorpusDb(/*articles=*/40, /*seed=*/11);
  index::InvertedIndex decoded =
      Unwrap(InvertedIndex::Build(corpus->db.get(), /*compress=*/false));
  index::InvertedIndex compressed =
      Unwrap(InvertedIndex::Build(corpus->db.get()));
  const IndexResidency rd = decoded.MemoryUsage();
  const IndexResidency rc = compressed.MemoryUsage();
  ASSERT_EQ(rd.num_postings, rc.num_postings);
  EXPECT_EQ(rc.decoded_lists, 0u);
  EXPECT_GT(rc.compressed_lists, 0u);
  EXPECT_GE(rd.posting_bytes_per_posting() / rc.posting_bytes_per_posting(),
            3.0)
      << "decoded " << rd.posting_bytes_per_posting() << " B/posting vs "
      << "compressed " << rc.posting_bytes_per_posting();
}

// ----------------------------------------------------- on-disk formats

/// Serializes `index` (which must be in decoded form) in on-disk format
/// version 1 or 2, byte-compatible with what old SaveToFile wrote.
std::string EncodeLegacyIndex(const InvertedIndex& index,
                              const text::TokenizerOptions& tokenizer,
                              int version) {
  std::string blob;
  PutVarint64(&blob, version == 1 ? kMagicV1 : kMagicV2);
  if (version == 2) PutVarint64(&blob, kSkipInterval);
  blob.push_back(tokenizer.lowercase ? 1 : 0);
  blob.push_back(tokenizer.remove_stopwords ? 1 : 0);
  blob.push_back(tokenizer.stem ? 1 : 0);
  PutVarint64(&blob, tokenizer.min_token_length);
  const std::string dict = index.dictionary().Serialize();
  PutVarint64(&blob, dict.size());
  blob += dict;
  PutVarint64(&blob, index.stats().num_terms);
  for (text::TermId id = 0; id < index.stats().num_terms; ++id) {
    const PostingList* list = Unwrap(index.LookupId(id));
    const std::vector<Posting> postings = list->DecodeAll();
    PutVarint64(&blob, postings.size());
    PutVarint64(&blob, list->doc_frequency);
    PutVarint64(&blob, list->node_frequency);
    uint32_t prev_doc = 0, prev_node = 0, prev_pos = 0;
    for (const Posting& posting : postings) {
      const uint32_t doc_delta = posting.doc_id - prev_doc;
      PutVarint32(&blob, doc_delta);
      if (doc_delta != 0) {
        prev_node = 0;
        prev_pos = 0;
      }
      PutVarint32(&blob, posting.node_id - prev_node);
      PutVarint32(&blob, posting.word_pos - prev_pos);
      prev_doc = posting.doc_id;
      prev_node = posting.node_id;
      prev_pos = posting.word_pos;
    }
  }
  PutVarint64(&blob, index.stats().num_documents);
  PutVarint64(&blob, index.stats().num_text_nodes);
  return blob;
}

void WriteFile(const std::string& path, const std::string& blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  ASSERT_TRUE(out.good());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class IndexFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase(dir_.path());
    ExpectOk(workload::LoadPaperExample(db_.get()));
    index_ = std::make_unique<InvertedIndex>(Unwrap(InvertedIndex::Build(
        db_.get())));
  }

  void ExpectSameIndex(const InvertedIndex& loaded,
                       const std::string& label) const {
    ASSERT_EQ(loaded.stats().num_terms, index_->stats().num_terms) << label;
    ASSERT_EQ(loaded.stats().num_postings, index_->stats().num_postings)
        << label;
    EXPECT_EQ(loaded.stats().num_documents, index_->stats().num_documents)
        << label;
    for (text::TermId id = 0; id < loaded.stats().num_terms; ++id) {
      const PostingList* got = Unwrap(loaded.LookupId(id));
      const PostingList* want = Unwrap(index_->LookupId(id));
      ASSERT_EQ(got->DecodeAll(), want->DecodeAll()) << label << " term " << id;
      EXPECT_EQ(got->doc_frequency, want->doc_frequency) << label;
      EXPECT_EQ(got->node_frequency, want->node_frequency) << label;
    }
  }

  TempDir dir_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<InvertedIndex> index_;
};

TEST_F(IndexFormatTest, BlockFormatsRoundTripStayingCompressed) {
  // Default save: a fresh build is v4, and the file leads with the v4
  // magic so old binaries reject it instead of misdecoding the tails.
  {
    const std::string path = dir_.path() + "/default.tix";
    ExpectOk(index_->SaveToFile(path));
    std::string head = ReadFile(path);
    std::string_view view = head;
    EXPECT_EQ(Unwrap(GetVarint64(&view)), kMagicV4);
  }
  for (const int version : {3, 4}) {
    const std::string path =
        dir_.path() + "/v" + std::to_string(version) + ".tix";
    ExpectOk(index_->SaveToFile(path, version));
    {
      std::string head = ReadFile(path);
      std::string_view view = head;
      EXPECT_EQ(Unwrap(GetVarint64(&view)),
                version == 3 ? kMagicV3 : kMagicV4);
    }
    InvertedIndex loaded = Unwrap(InvertedIndex::LoadFromFile(path));
    EXPECT_EQ(loaded.format_version(), version);
    EXPECT_EQ(loaded.tail_format(), version == 3 ? codec::TailFormat::kV3
                                                 : codec::TailFormat::kV4);
    // Loaded lists stay block-compressed — no materialized vectors.
    uint64_t compressed_lists = 0;
    for (text::TermId id = 0; id < loaded.stats().num_terms; ++id) {
      const PostingList* list = Unwrap(loaded.LookupId(id));
      EXPECT_TRUE(list->postings.empty());
      if (list->is_compressed()) ++compressed_lists;
    }
    EXPECT_GT(compressed_lists, 0u);
    ExpectSameIndex(loaded, "v" + std::to_string(version));
  }
}

TEST_F(IndexFormatTest, TranscodeRoundTripsAreByteStable) {
  // v4 (resident) -> v3 file -> load -> v4 file -> load: postings and
  // frequencies survive both transcodes, and saving the final load in
  // its resident format reproduces the intermediate v4 file byte for
  // byte (copy-verbatim wire == resident).
  const std::string v3_path = dir_.path() + "/t.v3.tix";
  const std::string v4_path = dir_.path() + "/t.v4.tix";
  const std::string v4_again = dir_.path() + "/t.v4b.tix";
  ExpectOk(index_->SaveToFile(v3_path, 3));
  InvertedIndex from_v3 = Unwrap(InvertedIndex::LoadFromFile(v3_path));
  ExpectSameIndex(from_v3, "v4->v3->load");
  ExpectOk(from_v3.SaveToFile(v4_path, 4));
  InvertedIndex from_v4 = Unwrap(InvertedIndex::LoadFromFile(v4_path));
  EXPECT_EQ(from_v4.format_version(), 4);
  ExpectSameIndex(from_v4, "v4->v3->v4->load");
  ExpectOk(from_v4.SaveToFile(v4_again));  // resident format: verbatim copy
  EXPECT_EQ(ReadFile(v4_again), ReadFile(v4_path));
}

TEST_F(IndexFormatTest, LegacyVersionsLoadAndQueryIdentically) {
  for (const int version : {1, 2}) {
    const std::string path =
        dir_.path() + "/v" + std::to_string(version) + ".tix";
    WriteFile(path,
              EncodeLegacyIndex(*index_, db_->tokenizer().options(), version));
    InvertedIndex loaded = Unwrap(InvertedIndex::LoadFromFile(path));
    EXPECT_EQ(loaded.format_version(), version);
    ExpectSameIndex(loaded, "v" + std::to_string(version));

    // And the same answers through a real merge.
    algebra::IrPredicate predicate;
    predicate.phrases.push_back(algebra::WeightedPhrase{{"search"}, 1.0});
    predicate.phrases.push_back(
        algebra::WeightedPhrase{{"search", "engine"}, 1.0});
    const algebra::WeightedCountScorer scorer(predicate.Weights());
    exec::TermJoin join_orig(db_.get(), index_.get(), &predicate, &scorer);
    exec::TermJoin join_loaded(db_.get(), &loaded, &predicate, &scorer);
    ExpectIdentical(Unwrap(join_loaded.Run()), Unwrap(join_orig.Run()),
                    "termjoin v" + std::to_string(version));
  }
}

TEST_F(IndexFormatTest, DecodePostingsLoadMatchesCompressedLoad) {
  const std::string path = dir_.path() + "/index.tix";
  ExpectOk(index_->SaveToFile(path));
  IndexLoadOptions decode;
  decode.decode_postings = true;
  InvertedIndex expanded = Unwrap(InvertedIndex::LoadFromFile(path, decode));
  for (text::TermId id = 0; id < expanded.stats().num_terms; ++id) {
    const PostingList* list = Unwrap(expanded.LookupId(id));
    EXPECT_FALSE(list->is_compressed());
    EXPECT_EQ(list->postings.empty(), list->size() == 0);
  }
  ExpectSameIndex(expanded, "decode_postings");
}

// --------------------------------------------------------- format fuzz

TEST_F(IndexFormatTest, TruncatedFilesFailCleanly) {
  for (const int version : {3, 4}) {
    const std::string path =
        dir_.path() + "/v" + std::to_string(version) + ".tix";
    ExpectOk(index_->SaveToFile(path, version));
    const std::string blob = ReadFile(path);
    ASSERT_GT(blob.size(), 100u);
    const std::string mangled = dir_.path() + "/mangled.tix";
    // Every prefix: truncation may land mid-varint, mid-block,
    // mid-header — or, in v4, inside a control or data region.
    for (size_t len = 0; len < blob.size(); ++len) {
      WriteFile(mangled, blob.substr(0, len));
      const auto result = InvertedIndex::LoadFromFile(mangled);
      EXPECT_FALSE(result.ok()) << "v" << version << " prefix of " << len
                                << " bytes loaded";
    }
  }
}

TEST_F(IndexFormatTest, BitFlipsNeverCrashTheLoader) {
  for (const int version : {3, 4}) {
    const std::string path =
        dir_.path() + "/v" + std::to_string(version) + ".tix";
    ExpectOk(index_->SaveToFile(path, version));
    const std::string blob = ReadFile(path);
    const std::string mangled = dir_.path() + "/mangled.tix";
    size_t rejected = 0, accepted = 0;
    for (size_t pos = 0; pos < blob.size(); pos += 3) {
      std::string copy = blob;
      copy[pos] = static_cast<char>(copy[pos] ^ (1u << (pos % 8)));
      WriteFile(mangled, copy);
      const auto result = InvertedIndex::LoadFromFile(mangled);
      if (!result.ok()) {
        ++rejected;
        continue;
      }
      ++accepted;
      // A flip that survives validation (e.g. inside the dictionary's
      // term bytes or a tokenizer flag) must still yield a queryable
      // index: every list was re-validated at load, so decoding cannot
      // trip a check.
      for (text::TermId id = 0; id < result.value().stats().num_terms; ++id) {
        (void)Unwrap(result.value().LookupId(id))->DecodeAll();
      }
    }
    // Both outcomes must occur: plenty of flips (counts, deltas that
    // break ordering, the magic) get rejected, while flips in dictionary
    // term bytes or order-preserving delta changes survive — and the
    // survivors above proved queryable. Either way, no flip may crash.
    EXPECT_GT(rejected, 0u) << "v" << version;
    EXPECT_GT(accepted, 0u) << "v" << version;
  }
}

// ------------------------------------------------ move-assign regression

TEST(InvertedIndexMoveTest, MovedFromIndexIsValidEmpty) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path());
  ExpectOk(workload::LoadPaperExample(db.get()));
  InvertedIndex source = Unwrap(InvertedIndex::Build(db.get()));
  (void)Unwrap(source.Lookup("search"));  // bump the lookup counter
  ASSERT_GT(source.stats().num_terms, 0u);

  InvertedIndex target;
  target = std::move(source);
  EXPECT_GT(target.stats().num_terms, 0u);
  EXPECT_NE(Unwrap(target.Lookup("search")), nullptr);

  // The moved-from index must be indistinguishable from a freshly
  // constructed one — not "valid but unspecified".
  EXPECT_EQ(source.stats().num_terms, 0u);
  EXPECT_EQ(source.stats().num_postings, 0u);
  EXPECT_EQ(source.stats().num_documents, 0u);
  EXPECT_EQ(source.lookups(), 0u);
  EXPECT_EQ(source.dictionary().size(), 0u);
  EXPECT_EQ(Unwrap(source.Lookup("search")), nullptr);
  EXPECT_EQ(source.format_version(), InvertedIndex::kCurrentFormatVersion);
  EXPECT_EQ(source.TermFrequency("search"), 0u);

  // And fully reusable: move a fresh build back in and query it.
  source = Unwrap(InvertedIndex::Build(db.get()));
  EXPECT_NE(Unwrap(source.Lookup("search")), nullptr);

  // Self-move must be a no-op, not a wipe.
  InvertedIndex& alias = target;
  target = std::move(alias);
  EXPECT_GT(target.stats().num_terms, 0u);
  EXPECT_NE(Unwrap(target.Lookup("search")), nullptr);
}

}  // namespace
}  // namespace tix::index
