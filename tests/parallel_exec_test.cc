#include <atomic>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/scoring.h"
#include "common/thread_pool.h"
#include "exec/parallel_term_join.h"
#include "exec/term_join.h"
#include "index/inverted_index.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "workload/paper_example.h"

/// \file
/// The correctness contract of doc-partitioned parallel TermJoin: for
/// every partition count, ParallelTermJoin's output must be
/// byte-identical to the serial merge — same elements, same order, same
/// counts, same scores (exact double equality: both run the very same
/// per-element code path), same stats totals.

namespace tix::exec {
namespace {

using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  int sum = 0;
  for (auto& future : futures) sum += future.get();
  int expected = 0;
  for (int i = 0; i < 32; ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
}

TEST(ThreadPoolTest, ShutdownDrainsQueue) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      (void)pool.Submit([&executed] { executed.fetch_add(1); });
    }
    pool.Shutdown();  // graceful: every queued task must have run
    EXPECT_EQ(executed.load(), 64);
    EXPECT_EQ(pool.tasks_completed(), 64u);
  }
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

// ------------------------------------------------- equality scaffolding

void ExpectIdentical(const std::vector<ScoredElement>& parallel,
                     const std::vector<ScoredElement>& serial,
                     const std::string& label) {
  ASSERT_EQ(parallel.size(), serial.size()) << label;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].node, serial[i].node) << label << " @" << i;
    EXPECT_EQ(parallel[i].doc, serial[i].doc) << label << " @" << i;
    EXPECT_EQ(parallel[i].start, serial[i].start) << label << " @" << i;
    EXPECT_EQ(parallel[i].end, serial[i].end) << label << " @" << i;
    EXPECT_EQ(parallel[i].level, serial[i].level) << label << " @" << i;
    EXPECT_EQ(parallel[i].counts, serial[i].counts) << label << " @" << i;
    // Exact equality, not near: identical code path per element.
    EXPECT_EQ(parallel[i].score, serial[i].score) << label << " @" << i;
  }
}

struct Corpus {
  TempDir dir;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<index::InvertedIndex> index;
};

/// 40 articles (one document each), planted terms and a planted phrase
/// so every stream shape is exercised.
std::unique_ptr<Corpus> MakeCorpus(uint64_t articles = 40) {
  auto corpus = std::make_unique<Corpus>();
  corpus->db = MakeTestDatabase(corpus->dir.path());
  workload::CorpusOptions options;
  options.num_articles = articles;
  options.vocabulary_size = 400;
  // Frequencies scale with the article count so small corpora stay under
  // the generator's planted-occupancy limit.
  options.planted_terms = {{"xq1", 9 * articles}, {"xq2", 4 * articles}};
  options.planted_phrases = {
      {"xpa", "xpb", 5 * articles, 4 * articles, 2 * articles}};
  Unwrap(workload::GenerateCorpus(corpus->db.get(), options));
  corpus->index = std::make_unique<index::InvertedIndex>(
      Unwrap(index::InvertedIndex::Build(corpus->db.get())));
  return corpus;
}

algebra::IrPredicate ThreePhrasePredicate() {
  algebra::IrPredicate predicate;
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xq1"}, 0.8});
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xq2"}, 0.6});
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xpa", "xpb"}, 0.7});
  return predicate;
}

/// Runs serial TermJoin and ParallelTermJoin at several partition counts
/// and asserts identical output and stats. `threads` > 1 additionally
/// runs the partitions on a real pool.
void CheckAllPartitionCounts(Corpus& corpus,
                             const algebra::IrPredicate& predicate,
                             const algebra::Scorer& scorer, bool enhanced,
                             const std::string& label) {
  TermJoinOptions serial_options;
  serial_options.enhanced = enhanced;
  TermJoin serial(corpus.db.get(), corpus.index.get(), &predicate, &scorer,
                  serial_options);
  const std::vector<ScoredElement> expected = Unwrap(serial.Run());
  const TermJoinStats& expected_stats = serial.stats();
  if (enhanced) {
    // The enhanced merge emits exactly the plain merge's elements and
    // scores, without a record fetch.
    TermJoin plain(corpus.db.get(), corpus.index.get(), &predicate, &scorer);
    ExpectIdentical(expected, Unwrap(plain.Run()), label + "/plain");
    EXPECT_EQ(expected_stats.record_fetches, 0u) << label;
  }

  for (const size_t partitions : {1u, 2u, 4u, 8u}) {
    for (const size_t threads : {0u, 4u}) {
      ParallelTermJoinOptions options;
      options.join.enhanced = enhanced;
      options.num_partitions = partitions;
      options.num_threads = threads;
      ParallelTermJoin parallel(corpus.db.get(), corpus.index.get(),
                                &predicate, &scorer, options);
      const std::vector<ScoredElement> actual = Unwrap(parallel.Run());
      const std::string name = label + "/p" + std::to_string(partitions) +
                               "/t" + std::to_string(threads);
      ExpectIdentical(actual, expected, name);
      EXPECT_EQ(parallel.stats().occurrences, expected_stats.occurrences)
          << name;
      EXPECT_EQ(parallel.stats().stack_pushes, expected_stats.stack_pushes)
          << name;
      EXPECT_EQ(parallel.stats().outputs, expected_stats.outputs) << name;
      EXPECT_EQ(parallel.stats().max_stack_depth,
                expected_stats.max_stack_depth)
          << name;
      // Each partition touches exactly the records the serial merge
      // touches for its documents, so the fetch totals agree too.
      EXPECT_EQ(parallel.stats().record_fetches,
                expected_stats.record_fetches)
          << name;
    }
  }
}

// --------------------------------------------- serial/parallel equality

TEST(ParallelTermJoinTest, SimpleScoringMatchesSerial) {
  auto corpus = MakeCorpus();
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::WeightedCountScorer scorer(predicate.Weights());
  CheckAllPartitionCounts(*corpus, predicate, scorer, /*enhanced=*/false,
                          "simple");
}

TEST(ParallelTermJoinTest, ComplexScoringMatchesSerial) {
  auto corpus = MakeCorpus();
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::ComplexProximityScorer scorer(predicate.Weights());
  CheckAllPartitionCounts(*corpus, predicate, scorer, /*enhanced=*/false,
                          "complex");
}

TEST(ParallelTermJoinTest, EnhancedComplexMatchesSerial) {
  auto corpus = MakeCorpus();
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::ComplexProximityScorer scorer(predicate.Weights());
  CheckAllPartitionCounts(*corpus, predicate, scorer, /*enhanced=*/true,
                          "enhanced");
}

TEST(ParallelTermJoinTest, SingleDocumentCorpus) {
  // The paper example is one document: every partition plan collapses to
  // one range and the result must still match.
  TempDir dir;
  auto db = MakeTestDatabase(dir.path());
  ExpectOk(workload::LoadPaperExample(db.get()));
  index::InvertedIndex index = Unwrap(index::InvertedIndex::Build(db.get()));
  const algebra::IrPredicate predicate = algebra::IrPredicate::FooStyle(
      {"search engine"}, {"internet", "information retrieval"});
  const algebra::WeightedCountScorer scorer(predicate.Weights());

  TermJoin serial(db.get(), &index, &predicate, &scorer);
  const auto expected = Unwrap(serial.Run());

  ParallelTermJoinOptions options;
  options.num_partitions = 8;
  options.num_threads = 4;
  ParallelTermJoin parallel(db.get(), &index, &predicate, &scorer, options);
  const auto actual = Unwrap(parallel.Run());
  ExpectIdentical(actual, expected, "single-doc");
  // Requesting 8 partitions can't produce more than one per document,
  // and no document is ever split.
  const storage::DocId num_docs =
      static_cast<storage::DocId>(db->documents().size());
  const auto& plan = parallel.partitions();
  ASSERT_FALSE(plan.empty());
  EXPECT_LE(plan.size(), num_docs);
  EXPECT_EQ(plan.front().begin, 0u);
  EXPECT_EQ(plan.back().end, num_docs);
  for (const DocRange& range : plan) EXPECT_LT(range.begin, range.end);
}

TEST(ParallelTermJoinTest, AbsentTermsProduceEmptyOutput) {
  auto corpus = MakeCorpus(8);
  algebra::IrPredicate predicate;
  predicate.phrases.push_back(
      algebra::WeightedPhrase{{"zz_never_occurs"}, 1.0});
  const algebra::WeightedCountScorer scorer(predicate.Weights());
  ParallelTermJoinOptions options;
  options.num_partitions = 4;
  options.num_threads = 2;
  ParallelTermJoin parallel(corpus->db.get(), corpus->index.get(), &predicate,
                            &scorer, options);
  EXPECT_TRUE(Unwrap(parallel.Run()).empty());
  // Mass is zero; the fallback plan still covers all documents.
  const auto& partitions = parallel.partitions();
  ASSERT_FALSE(partitions.empty());
  EXPECT_EQ(partitions.front().begin, 0u);
  EXPECT_EQ(partitions.back().end, corpus->db->documents().size());
}

// ------------------------------------------------------ partition plans

TEST(PlanDocPartitionsTest, CoversWithoutSplittingDocuments) {
  auto corpus = MakeCorpus();
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const storage::DocId num_docs =
      static_cast<storage::DocId>(corpus->db->documents().size());
  for (const size_t target : {1u, 2u, 3u, 4u, 8u, 64u}) {
    const auto plan = Unwrap(
        PlanDocPartitions(*corpus->index, predicate, num_docs, target));
    ASSERT_FALSE(plan.empty()) << target;
    EXPECT_LE(plan.size(), target) << target;
    // Contiguous cover of [0, num_docs): boundaries are always between
    // documents, so no partition can split a document's postings.
    EXPECT_EQ(plan.front().begin, 0u);
    EXPECT_EQ(plan.back().end, num_docs);
    for (size_t i = 0; i < plan.size(); ++i) {
      EXPECT_LT(plan[i].begin, plan[i].end) << target << "/" << i;
      if (i > 0) {
        EXPECT_EQ(plan[i].begin, plan[i - 1].end) << target;
      }
    }
  }
}

TEST(PlanDocPartitionsTest, MorePartitionsThanDocuments) {
  auto corpus = MakeCorpus(3);
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const auto plan =
      Unwrap(PlanDocPartitions(*corpus->index, predicate, 3, 8));
  EXPECT_LE(plan.size(), 3u);
  EXPECT_EQ(plan.front().begin, 0u);
  EXPECT_EQ(plan.back().end, 3u);
}

TEST(PlanDocPartitionsTest, NoDocumentsYieldsNoPartitions) {
  auto corpus = MakeCorpus(2);
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  EXPECT_TRUE(
      Unwrap(PlanDocPartitions(*corpus->index, predicate, 0, 4)).empty());
}

// ------------------------------------------------------- doc-range edge

TEST(TermJoinDocRangeTest, EmptyRangeYieldsNothing) {
  auto corpus = MakeCorpus(6);
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::WeightedCountScorer scorer(predicate.Weights());
  TermJoinOptions options;
  options.range = DocRange{3, 3};
  TermJoin join(corpus->db.get(), corpus->index.get(), &predicate, &scorer,
                options);
  EXPECT_TRUE(Unwrap(join.Run()).empty());
}

TEST(TermJoinDocRangeTest, RangeUnionEqualsWhole) {
  // Slicing at an arbitrary boundary and concatenating reproduces the
  // unrestricted merge — the core partitioning lemma, checked directly.
  auto corpus = MakeCorpus(10);
  const algebra::IrPredicate predicate = ThreePhrasePredicate();
  const algebra::WeightedCountScorer scorer(predicate.Weights());
  TermJoin whole(corpus->db.get(), corpus->index.get(), &predicate, &scorer);
  const auto expected = Unwrap(whole.Run());
  for (const storage::DocId cut : {1u, 4u, 9u}) {
    TermJoinOptions left_options;
    left_options.range = DocRange{0, cut};
    TermJoinOptions right_options;
    right_options.range = DocRange{cut, UINT32_MAX};
    TermJoin left(corpus->db.get(), corpus->index.get(), &predicate, &scorer,
                  left_options);
    TermJoin right(corpus->db.get(), corpus->index.get(), &predicate,
                   &scorer, right_options);
    std::vector<ScoredElement> glued = Unwrap(left.Run());
    const auto right_out = Unwrap(right.Run());
    glued.insert(glued.end(), right_out.begin(), right_out.end());
    ExpectIdentical(glued, expected, "cut@" + std::to_string(cut));
  }
}

// --------------------------------------------------- skip-block seeking

TEST(PostingListSkipTest, LowerBoundDocWithAndWithoutOffsets) {
  index::PostingList list;
  for (uint32_t doc = 0; doc < 10; ++doc) {
    for (uint32_t i = 0; i < 300; ++i) {
      list.postings.push_back(
          index::Posting{doc, doc * 1000 + i, doc * 10000 + i * 3});
    }
  }
  // Not built yet: falls back to binary search over postings.
  EXPECT_EQ(list.LowerBoundDoc(0), 0u);
  EXPECT_EQ(list.LowerBoundDoc(7), 7u * 300u);
  EXPECT_EQ(list.LowerBoundDoc(10), list.size());
  list.BuildSkips();
  ASSERT_NE(list.metadata(), nullptr);
  EXPECT_EQ(list.metadata()->doc_offsets.size(), 10u);
  EXPECT_EQ(list.skips.size(),
            (list.size() + index::kSkipInterval - 1) / index::kSkipInterval);
  EXPECT_EQ(list.LowerBoundDoc(0), 0u);
  EXPECT_EQ(list.LowerBoundDoc(7), 7u * 300u);
  EXPECT_EQ(list.LowerBoundDoc(10), list.size());
}

TEST(PostingListSkipTest, SkipForwardIsALowerBoundForTheTarget) {
  index::PostingList list;
  for (uint32_t i = 0; i < 5000; ++i) {
    list.postings.push_back(index::Posting{i / 700, i, i * 2});
  }
  list.BuildSkips();
  for (const uint32_t target : {0u, 999u, 2048u, 4999u, 9998u}) {
    const storage::DocId doc = (target / 2) / 700;
    const size_t jumped = list.SkipForward(0, doc, target);
    // Everything before the jump destination is strictly before the
    // target, and the destination is within one block of it.
    if (jumped > 0) {
      const index::Posting& before = list.postings[jumped - 1];
      EXPECT_TRUE(before.doc_id < doc ||
                  (before.doc_id == doc && before.word_pos < target));
    }
    const size_t exact =
        static_cast<size_t>(std::lower_bound(
                                list.postings.begin(), list.postings.end(),
                                std::make_pair(doc, target),
                                [](const index::Posting& p,
                                   const std::pair<storage::DocId, uint32_t>&
                                       t) {
                                  return p.doc_id < t.first ||
                                         (p.doc_id == t.first &&
                                          p.word_pos < t.second);
                                }) -
                            list.postings.begin());
    EXPECT_LE(jumped, exact);
    EXPECT_LE(exact - jumped, static_cast<size_t>(index::kSkipInterval));
  }
}

// ----------------------------------------------------- DebugCheckSorted

TEST(DebugCheckSortedTest, AcceptsValidAndRejectsCorruptLists) {
  const auto valid = [] {
    index::PostingList list;
    list.postings = {{0, 5, 10}, {0, 5, 11}, {1, 9, 2}, {2, 12, 7}};
    list.doc_frequency = 3;
    list.node_frequency = 3;
    return list;
  };
  ExpectOk(valid().DebugCheckSorted());

  index::PostingList unsorted = valid();
  std::swap(unsorted.postings[1], unsorted.postings[2]);
  EXPECT_FALSE(unsorted.DebugCheckSorted().ok());

  index::PostingList duplicate = valid();
  duplicate.postings[1].word_pos = 10;  // equal (doc, word_pos)
  EXPECT_FALSE(duplicate.DebugCheckSorted().ok());

  index::PostingList bad_df = valid();
  bad_df.doc_frequency = 2;
  EXPECT_FALSE(bad_df.DebugCheckSorted().ok());

  index::PostingList bad_nf = valid();
  bad_nf.node_frequency = 4;
  EXPECT_FALSE(bad_nf.DebugCheckSorted().ok());
}

TEST(DebugCheckSortedTest, LoadRebuildsSkipStructures) {
  auto corpus = MakeCorpus(5);
  const std::string path = corpus->dir.path() + "/index.tix";
  ExpectOk(corpus->index->SaveToFile(path));
  index::InvertedIndex loaded =
      Unwrap(index::InvertedIndex::LoadFromFile(path));
  const index::PostingList* list = Unwrap(loaded.Lookup("xq1"));
  ASSERT_NE(list, nullptr);
  ASSERT_NE(list->metadata(), nullptr);
  EXPECT_FALSE(list->metadata()->doc_offsets.empty());
  EXPECT_EQ(list->skips.empty(), list->size() == 0);
  EXPECT_EQ(list->skips.front().offset, 0u);
}

}  // namespace
}  // namespace tix::exec
