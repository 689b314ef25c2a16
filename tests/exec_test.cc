#include <algorithm>
#include <chrono>
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "algebra/pick.h"
#include "algebra/reference_eval.h"
#include "common/deadline.h"
#include "common/random.h"
#include "exec/composite.h"
#include "exec/gen_meet.h"
#include "exec/occurrence_stream.h"
#include "exec/phrase_query.h"
#include "exec/pick_operator.h"
#include "exec/structural_join.h"
#include "exec/term_join.h"
#include "exec/threshold_operator.h"
#include "index/inverted_index.h"
#include "tests/test_util.h"
#include "xml/parser.h"
#include "workload/corpus.h"
#include "workload/paper_example.h"

namespace tix::exec {
namespace {

using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

/// Canonical form for output comparison: sorted by node id.
std::vector<ScoredElement> Normalized(std::vector<ScoredElement> elements) {
  std::sort(elements.begin(), elements.end(),
            [](const ScoredElement& a, const ScoredElement& b) {
              return a.node < b.node;
            });
  return elements;
}

void ExpectSameResults(const std::vector<ScoredElement>& actual,
                       const std::vector<algebra::ScoredNodeResult>& expected,
                       const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].node, expected[i].node) << label << " @" << i;
    EXPECT_EQ(actual[i].counts, expected[i].counts) << label << " @" << i;
    EXPECT_NEAR(actual[i].score, expected[i].score, 1e-9)
        << label << " node " << actual[i].node;
  }
}

void ExpectSameElements(const std::vector<ScoredElement>& a,
                        const std::vector<ScoredElement>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << label << " @" << i;
    EXPECT_EQ(a[i].counts, b[i].counts) << label << " @" << i;
    EXPECT_NEAR(a[i].score, b[i].score, 1e-9) << label << " @" << i;
  }
}

// ------------------------------------------------- paper-example fixture

class PaperExampleExec : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase(dir_.path());
    ExpectOk(workload::LoadPaperExample(db_.get()));
    index_ = std::make_unique<index::InvertedIndex>(
        Unwrap(index::InvertedIndex::Build(db_.get())));
    predicate_ = algebra::IrPredicate::FooStyle(
        {"search engine"}, {"internet", "information retrieval"});
    simple_ = std::make_unique<algebra::WeightedCountScorer>(
        predicate_.Weights());
    complex_ = std::make_unique<algebra::ComplexProximityScorer>(
        predicate_.Weights());
  }

  TempDir dir_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<index::InvertedIndex> index_;
  algebra::IrPredicate predicate_;
  std::unique_ptr<algebra::Scorer> simple_;
  std::unique_ptr<algebra::Scorer> complex_;
};

TEST_F(PaperExampleExec, TermJoinMatchesReferenceSimple) {
  TermJoin join(db_.get(), index_.get(), &predicate_, simple_.get());
  const auto actual = Normalized(Unwrap(join.Run()));
  const auto expected = Unwrap(algebra::ReferenceScoreAllElements(
      db_.get(), predicate_, *simple_));
  ExpectSameResults(actual, expected, "simple");
  EXPECT_GT(join.stats().occurrences, 4u);
  EXPECT_EQ(join.stats().outputs, actual.size());
}

TEST_F(PaperExampleExec, TermJoinRunEmitsPostOrderOnce) {
  TermJoin join(db_.get(), index_.get(), &predicate_, simple_.get());
  const std::vector<ScoredElement> out = Unwrap(join.Run());
  ASSERT_FALSE(out.empty());
  // Pop order: an element comes after every element it contains.
  for (size_t i = 0; i < out.size(); ++i) {
    for (size_t j = i + 1; j < out.size(); ++j) {
      EXPECT_FALSE(out[i].doc == out[j].doc && out[i].start < out[j].start &&
                   out[j].end <= out[i].end)
          << out[i].node << " before its descendant " << out[j].node;
    }
  }
  // A join runs once; a second Run fails and leaves the stats alone.
  EXPECT_EQ(join.Run().status().code(), StatusCode::kInternal);
  EXPECT_EQ(join.stats().outputs, out.size());
}

TEST_F(PaperExampleExec, TermJoinHonoursAnExpiredDeadline) {
  const Deadline expired =
      Deadline::At(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  TermJoinOptions options;
  options.deadline = &expired;
  TermJoin join(db_.get(), index_.get(), &predicate_, simple_.get(), options);
  EXPECT_TRUE(join.Run().status().IsDeadlineExceeded());
  EXPECT_EQ(join.stats().occurrences, 0u);
}

TEST_F(PaperExampleExec, TermJoinMatchesReferenceComplex) {
  TermJoin join(db_.get(), index_.get(), &predicate_, complex_.get());
  const auto actual = Normalized(Unwrap(join.Run()));
  const auto expected = Unwrap(algebra::ReferenceScoreAllElements(
      db_.get(), predicate_, *complex_));
  ExpectSameResults(actual, expected, "complex");
}

TEST_F(PaperExampleExec, EnhancedTermJoinSameOutputFewerFetches) {
  TermJoin plain(db_.get(), index_.get(), &predicate_, complex_.get());
  const auto plain_out = Normalized(Unwrap(plain.Run()));
  TermJoinOptions options;
  options.enhanced = true;
  TermJoin enhanced(db_.get(), index_.get(), &predicate_, complex_.get(),
                    options);
  const auto enhanced_out = Normalized(Unwrap(enhanced.Run()));
  ExpectSameElements(enhanced_out, plain_out, "enhanced-vs-plain");
  EXPECT_LT(enhanced.stats().record_fetches, plain.stats().record_fetches);
  EXPECT_EQ(enhanced.stats().record_fetches, 0u);
}

TEST_F(PaperExampleExec, LengthNormalizedScorerAgreesAcrossMethods) {
  // The BM25-style scorer needs the element span from ScoreContext;
  // every method must fill it identically.
  algebra::LengthNormalizedScorer scorer(predicate_.Weights(),
                                         {1.2, 1.0, 1.0}, 40.0);
  TermJoin join(db_.get(), index_.get(), &predicate_, &scorer);
  const auto tj = Normalized(Unwrap(join.Run()));
  const auto reference = Unwrap(algebra::ReferenceScoreAllElements(
      db_.get(), predicate_, scorer));
  ExpectSameResults(tj, reference, "bm25-termjoin-vs-reference");
  GeneralizedMeet meet(db_.get(), index_.get(), &predicate_, &scorer);
  ExpectSameElements(Unwrap(meet.Run()), tj, "bm25-genmeet");
  Comp2 comp2(db_.get(), index_.get(), &predicate_, &scorer);
  ExpectSameElements(Unwrap(comp2.Run()), tj, "bm25-comp2");
}

TEST_F(PaperExampleExec, GenMeetMatchesTermJoin) {
  for (const algebra::Scorer* scorer :
       {simple_.get(), complex_.get()}) {
    TermJoin join(db_.get(), index_.get(), &predicate_, scorer);
    const auto tj = Normalized(Unwrap(join.Run()));
    GeneralizedMeet meet(db_.get(), index_.get(), &predicate_, scorer);
    const auto gm = Unwrap(meet.Run());
    ExpectSameElements(gm, tj, scorer->is_complex() ? "complex" : "simple");
  }
}

TEST_F(PaperExampleExec, CompositesMatchTermJoin) {
  for (const algebra::Scorer* scorer : {simple_.get(), complex_.get()}) {
    const std::string label = scorer->is_complex() ? "complex" : "simple";
    TermJoin join(db_.get(), index_.get(), &predicate_, scorer);
    const auto tj = Normalized(Unwrap(join.Run()));
    Comp1 comp1(db_.get(), index_.get(), &predicate_, scorer);
    ExpectSameElements(Unwrap(comp1.Run()), tj, "comp1-" + label);
    Comp2 comp2(db_.get(), index_.get(), &predicate_, scorer);
    ExpectSameElements(Unwrap(comp2.Run()), tj, "comp2-" + label);
    EXPECT_GE(comp2.stats().scanned_records, db_->num_nodes());
  }
}

TEST_F(PaperExampleExec, TopResultIsTheSearchChapter) {
  // Query 1/2 sanity: the highest-scoring non-root element under simple
  // scoring contains the search-and-retrieval content (the paper's
  // "chapter #a10 wins" motivation).
  TermJoin join(db_.get(), index_.get(), &predicate_, simple_.get());
  auto results = Unwrap(join.Run());
  ThresholdOperator threshold(algebra::ThresholdSpec{
      std::nullopt, std::optional<size_t>(3)});
  for (ScoredElement& element : results) threshold.Push(std::move(element));
  const auto top = threshold.Finish();
  ASSERT_GE(top.size(), 2u);
  // Top is the article root (it contains everything); the runner-up must
  // be the chapter.
  const storage::NodeRecord top2 = Unwrap(db_->GetNode(top[1].node));
  EXPECT_EQ(db_->TagName(top2.tag_id), "chapter");
}

TEST_F(PaperExampleExec, StatsAreMeaningful) {
  // TermJoin: occurrences equals the total matches of all three phrases;
  // every output element required at least one push; the stack never
  // grows beyond the document depth.
  TermJoin join(db_.get(), index_.get(), &predicate_, complex_.get());
  const auto out = Unwrap(join.Run());
  const TermJoinStats& stats = join.stats();
  EXPECT_GT(stats.occurrences, 5u);
  EXPECT_EQ(stats.outputs, out.size());
  EXPECT_EQ(stats.stack_pushes, out.size());  // each element pops once
  EXPECT_LE(stats.max_stack_depth, 6u);       // Figure 1 is 4 levels deep
  EXPECT_GT(stats.record_fetches, 0u);

  GeneralizedMeet meet(db_.get(), index_.get(), &predicate_, complex_.get());
  Unwrap(meet.Run());
  // GenMeet walks the full chain per occurrence: strictly more chain
  // steps than TermJoin pushes.
  EXPECT_GT(meet.stats().chain_steps, stats.stack_pushes);
  EXPECT_EQ(meet.stats().outputs, out.size());

  Comp1 comp1(db_.get(), index_.get(), &predicate_, complex_.get());
  Unwrap(comp1.Run());
  EXPECT_GT(comp1.stats().union_comparisons, 0u);
  EXPECT_EQ(comp1.stats().outputs, out.size());

  Comp2 comp2(db_.get(), index_.get(), &predicate_, complex_.get());
  Unwrap(comp2.Run());
  EXPECT_GE(comp2.stats().scanned_records, db_->num_nodes());
  EXPECT_EQ(comp2.stats().outputs, out.size());
}

TEST_F(PaperExampleExec, RerunningTermJoinIsDeterministic) {
  TermJoin first(db_.get(), index_.get(), &predicate_, simple_.get());
  TermJoin second(db_.get(), index_.get(), &predicate_, simple_.get());
  EXPECT_EQ(Unwrap(first.Run()), Unwrap(second.Run()));
}

// ----------------------------------------------------------- OccStreams

TEST_F(PaperExampleExec, SingleTermStream) {
  TermOccurrenceStream stream(index_->Lookup("internet"));
  const auto all = stream.DrainAll();
  EXPECT_EQ(all.size(), index_->TermFrequency("internet"));
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_TRUE(all[i - 1].doc < all[i].doc ||
                (all[i - 1].doc == all[i].doc &&
                 all[i - 1].word_pos < all[i].word_pos));
  }
}

TEST_F(PaperExampleExec, UnknownTermStreamIsEmpty) {
  TermOccurrenceStream stream(index_->Lookup("zzzmissing"));
  EXPECT_FALSE(stream.Peek().has_value());
}

TEST_F(PaperExampleExec, PhraseFinderFindsExactPhrases) {
  PhraseFinderStream stream({index_->Lookup("search"),
                             index_->Lookup("engine")});
  const auto occurrences = stream.DrainAll();
  // "Search Engine Basics" + "search engine NewsInEssence".
  EXPECT_EQ(occurrences.size(), 2u);
  PhraseFinderStream reversed({index_->Lookup("engine"),
                               index_->Lookup("search")});
  EXPECT_TRUE(reversed.DrainAll().empty());  // order matters
}

TEST_F(PaperExampleExec, PhraseFinderThreeTerms) {
  PhraseFinderStream stream({index_->Lookup("information"),
                             index_->Lookup("retrieval"),
                             index_->Lookup("techniques")});
  // "Information Retrieval Techniques" (title) and "information
  // retrieval techniques are also being incorporated".
  EXPECT_EQ(stream.DrainAll().size(), 2u);
}

TEST_F(PaperExampleExec, GallopingPhraseFinderMatchesLinear) {
  for (const auto& terms :
       {std::vector<std::string>{"search", "engine"},
        std::vector<std::string>{"information", "retrieval", "techniques"},
        std::vector<std::string>{"the", "internet"}}) {
    std::vector<const index::PostingList*> lists;
    for (const std::string& term : terms) lists.push_back(index_->Lookup(term));
    PhraseFinderStream linear(lists, /*galloping=*/false);
    PhraseFinderStream galloping(lists, /*galloping=*/true);
    const auto linear_out = linear.DrainAll();
    const auto galloping_out = galloping.DrainAll();
    ASSERT_EQ(linear_out.size(), galloping_out.size());
    for (size_t i = 0; i < linear_out.size(); ++i) {
      EXPECT_EQ(linear_out[i].text_node, galloping_out[i].text_node);
      EXPECT_EQ(linear_out[i].word_pos, galloping_out[i].word_pos);
    }
  }
}

TEST_F(PaperExampleExec, PhraseFinderMatchesComp3) {
  for (const auto& phrase :
       {std::vector<std::string>{"search", "engine"},
        std::vector<std::string>{"information", "retrieval"},
        std::vector<std::string>{"internet", "technologies"},
        std::vector<std::string>{"missing", "phrase"}}) {
    PhraseFinderQuery finder(db_.get(), index_.get(), phrase);
    Comp3 composite(db_.get(), index_.get(), phrase);
    EXPECT_EQ(Unwrap(finder.Run()), Unwrap(composite.Run()))
        << phrase[0] << " " << phrase[1];
  }
}

TEST_F(PaperExampleExec, PhraseFinderQueryUnknownTerm) {
  // Any unknown term (nullptr posting list) makes the phrase empty,
  // whatever its position in the phrase.
  PhraseFinderQuery tail(db_.get(), index_.get(), {"search", "zzzmissing"});
  EXPECT_TRUE(Unwrap(tail.Run()).empty());
  PhraseFinderQuery head(db_.get(), index_.get(), {"zzzmissing", "engine"});
  EXPECT_TRUE(Unwrap(head.Run()).empty());
  PhraseFinderQuery alone(db_.get(), index_.get(), {"zzzmissing"});
  EXPECT_TRUE(Unwrap(alone.Run()).empty());
}

TEST_F(PaperExampleExec, PhraseFinderQuerySingleTerm) {
  // A one-word "phrase" degenerates to the term's posting list, grouped
  // by text node.
  PhraseFinderQuery finder(db_.get(), index_.get(), {"search"});
  const auto out = Unwrap(finder.Run());
  const index::PostingList* list = index_->Lookup("search");
  ASSERT_NE(list, nullptr);
  uint64_t total = 0;
  for (const PhraseResult& result : out) total += result.count;
  EXPECT_EQ(total, list->size());
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].text_node, out[i].text_node);
  }
}

TEST_F(PaperExampleExec, PhraseFinderQueryDocRangeMidList) {
  // A range starting past the first document must yield exactly the
  // full run's tail — the stream seeks into the posting lists rather
  // than scanning from the front.
  for (const auto& phrase : {std::vector<std::string>{"search", "engine"},
                             std::vector<std::string>{"the"}}) {
    PhraseFinderQuery full(db_.get(), index_.get(), phrase);
    std::vector<PhraseResult> expected;
    for (const PhraseResult& result : Unwrap(full.Run())) {
      if (result.doc >= 1) expected.push_back(result);
    }
    PhraseFinderQuery ranged(db_.get(), index_.get(), phrase, DocRange{1});
    EXPECT_EQ(Unwrap(ranged.Run()), expected) << phrase[0];
    PhraseFinderQuery empty_range(db_.get(), index_.get(), phrase,
                                  DocRange{1, 1});
    EXPECT_TRUE(Unwrap(empty_range.Run()).empty());
  }
}

TEST(PhraseStopwordTest, MethodsAgreeOnStopwordTailedText) {
  // The phrase sits mid-text with stopwords before, between-adjacent and
  // after; raw positions keep "search engine" adjacent and the fixed
  // num_words sizes Comp3's verification window over the whole text.
  TempDir dir;
  storage::DatabaseOptions options;
  options.buffer_pool_pages = 64;
  options.tokenizer.remove_stopwords = true;
  auto db = Unwrap(storage::Database::Create(dir.path(), options));
  const auto document = Unwrap(xml::ParseXml(
      "<doc><p>the search engine of the and</p>"
      "<p>search of engine</p><p>of the and</p></doc>",
      "stops.xml"));
  Unwrap(db->AddDocument(document));
  index::InvertedIndex index = Unwrap(index::InvertedIndex::Build(db.get()));

  const std::vector<std::string> phrase = {"search", "engine"};
  PhraseFinderQuery finder(db.get(), &index, phrase);
  Comp3 composite(db.get(), &index, phrase);
  const auto finder_out = Unwrap(finder.Run());
  EXPECT_EQ(finder_out, Unwrap(composite.Run()));
  // Only the first paragraph has the terms adjacent ("search of engine"
  // leaves a raw-position hole).
  ASSERT_EQ(finder_out.size(), 1u);
  EXPECT_EQ(finder_out[0].count, 1u);
}

// ------------------------------------------------------- Structural join

TEST_F(PaperExampleExec, SemiJoins) {
  const auto sections = Unwrap(TagScan(db_.get(), "section"));
  const auto paragraphs = Unwrap(TagScan(db_.get(), "p"));
  ASSERT_EQ(sections.size(), 3u);
  // Sections containing at least one <p>: all three.
  EXPECT_EQ(SemiJoinAncestors(sections, paragraphs).size(), 3u);
  // Paragraphs within sections: 1 + 1 + 3 (the chapter-level paragraphs
  // of the first two chapters hang directly under <chapter>).
  EXPECT_EQ(SemiJoinDescendants(paragraphs, sections).size(), 5u);
  // Pairs: each section with each contained paragraph.
  const auto pairs = StackTreeAncPairs(sections, paragraphs);
  EXPECT_EQ(pairs.size(), 5u);
  for (const auto& [ancestor, descendant] : pairs) {
    EXPECT_LT(ancestor.start, descendant.start);
    EXPECT_GT(ancestor.end, descendant.end);
  }
}

TEST_F(PaperExampleExec, SemiJoinOrSelf) {
  const auto sections = Unwrap(TagScan(db_.get(), "section"));
  EXPECT_EQ(SemiJoinDescendants(sections, sections, /*or_self=*/true).size(),
            3u);
  EXPECT_TRUE(SemiJoinDescendants(sections, sections, false).empty());
}

// -------------------------------------------------------------- Threshold

TEST(ThresholdOperatorTest, MatchesReferenceSemantics) {
  Random rng(77);
  std::vector<ScoredElement> elements;
  for (int i = 0; i < 500; ++i) {
    ScoredElement element;
    element.node = static_cast<storage::NodeId>(i);
    element.doc = 0;
    element.start = static_cast<uint32_t>(i * 3);
    element.end = element.start + 1;
    element.score = rng.NextDouble() * 10.0;
    elements.push_back(element);
  }
  algebra::ThresholdSpec spec;
  spec.min_score = 4.0;
  spec.top_k = 25;

  ThresholdOperator op(spec);
  for (const ScoredElement& element : elements) op.Push(element);
  const auto got = op.Finish();

  const auto expected_idx = algebra::ApplyThreshold(
      elements.size(), [&](size_t i) { return elements[i].score; }, spec);
  ASSERT_EQ(got.size(), expected_idx.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, elements[expected_idx[i]].node) << i;
  }
  EXPECT_EQ(op.pushed(), elements.size());
  EXPECT_GT(op.dropped_by_score(), 0u);
}

TEST(ThresholdOperatorTest, TopKZeroAndNoFilter) {
  ThresholdOperator zero(algebra::ThresholdSpec{std::nullopt,
                                                std::optional<size_t>(0)});
  ScoredElement element;
  element.score = 1.0;
  zero.Push(element);
  EXPECT_TRUE(zero.Finish().empty());

  ThresholdOperator all(algebra::ThresholdSpec{});
  for (int i = 0; i < 10; ++i) {
    element.node = static_cast<storage::NodeId>(i);
    element.score = i;
    all.Push(element);
  }
  const auto out = all.Finish();
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.front().node, 9u);
}

// Tie-breaking property: with heavily tied scores, the heap-based
// operator and the reference ApplyThreshold must keep the same
// elements — both resolve score ties by document order (doc, start),
// whatever the push/input order was.
class ThresholdTieTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ThresholdTieTest, TiedScoresKeepDocumentOrder) {
  Random rng(GetParam());
  std::vector<ScoredElement> elements;
  for (int i = 0; i < 200; ++i) {
    ScoredElement element;
    element.node = static_cast<storage::NodeId>(i);
    // Unique (doc, start) so document order is a strict total order.
    element.doc = static_cast<storage::DocId>(i % 3);
    element.start = static_cast<uint32_t>(i);
    element.end = element.start + 1;
    // Four distinct score values -> ties everywhere.
    element.score = 1.0 + static_cast<double>(rng.NextUint64() % 4);
    elements.push_back(element);
  }
  // Shuffle so arrival order disagrees with document order.
  for (size_t i = elements.size(); i > 1; --i) {
    std::swap(elements[i - 1], elements[rng.NextUint64() % i]);
  }

  algebra::ThresholdSpec spec;
  spec.min_score = 2.0;
  spec.top_k = 17;

  ThresholdOperator op(spec);
  for (const ScoredElement& element : elements) op.Push(element);
  const auto got = op.Finish();

  const auto expected_idx = algebra::ApplyThreshold(
      elements.size(), [&](size_t i) { return elements[i].score; }, spec,
      [&](size_t a, size_t b) {
        return DocumentOrderLess(elements[a], elements[b]);
      });
  ASSERT_EQ(got.size(), expected_idx.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, elements[expected_idx[i]].node) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThresholdTieTest,
                         ::testing::Range<uint64_t>(0, 20));

// ------------------------------------------------------------------ Pick

TEST(PickOperatorTest, MatchesReferenceOnFigure6) {
  // Rebuild Figure 6's scored tree (see algebra_test for the shape).
  auto root = std::make_unique<algebra::ScoredTreeNode>(1);
  root->set_score(5.6);
  root->AddChild(2)->set_score(0.6);
  algebra::ScoredTreeNode* chapter = root->AddChild(10);
  chapter->set_score(5.0);
  algebra::ScoredTreeNode* s1 = chapter->AddChild(12);
  s1->set_score(0.8);
  s1->AddChild(13)->set_score(0.8);
  algebra::ScoredTreeNode* s2 = chapter->AddChild(14);
  s2->set_score(0.6);
  s2->AddChild(15)->set_score(0.6);
  algebra::ScoredTreeNode* s3 = chapter->AddChild(16);
  s3->set_score(3.6);
  s3->AddChild(18)->set_score(0.8);
  s3->AddChild(19)->set_score(1.4);
  s3->AddChild(20)->set_score(1.4);
  const algebra::ScoredTree tree(std::move(root));

  algebra::PickFooCriterion criterion;
  PickOperator op(&criterion);
  const auto picked = Unwrap(op.Run(FlattenForPick(tree)));
  EXPECT_EQ(picked, algebra::ReferencePick(tree, criterion));
  EXPECT_EQ(picked, (std::vector<storage::NodeId>{10}));
  EXPECT_EQ(op.stats().input_nodes, 11u);
}

TEST(PickOperatorTest, RejectsMalformedInput) {
  algebra::PickFooCriterion criterion;
  PickOperator op(&criterion);
  // Level jump of 2 is not a pre-order tree.
  std::vector<PickEntry> bad = {{1, 0, 0.0}, {2, 2, 1.0}};
  EXPECT_TRUE(op.Run(bad).status().IsInvalidArgument());
  // Second root.
  PickOperator op2(&criterion);
  std::vector<PickEntry> two_roots = {{1, 0, 0.0}, {2, 0, 1.0}};
  EXPECT_TRUE(op2.Run(two_roots).status().IsInvalidArgument());
  // Non-root start.
  PickOperator op3(&criterion);
  std::vector<PickEntry> deep = {{1, 3, 0.0}};
  EXPECT_TRUE(op3.Run(deep).status().IsInvalidArgument());
  // Empty input is fine.
  PickOperator op4(&criterion);
  EXPECT_TRUE(Unwrap(op4.Run({})).empty());
}

/// Property test: PickOperator agrees with ReferencePick on random
/// scored trees under both shipped criteria.
class PickPropertyTest : public ::testing::TestWithParam<uint64_t> {};

std::unique_ptr<algebra::ScoredTreeNode> RandomScoredTree(Random* rng,
                                                          int depth,
                                                          uint32_t* next_id) {
  auto node = std::make_unique<algebra::ScoredTreeNode>((*next_id)++);
  node->set_score(rng->NextDouble() * 2.0);
  const uint32_t children = depth > 0 ? rng->NextUint32(4) : 0;
  for (uint32_t i = 0; i < children; ++i) {
    node->AddChild(RandomScoredTree(rng, depth - 1, next_id));
  }
  return node;
}

TEST_P(PickPropertyTest, AgreesWithReference) {
  Random rng(GetParam());
  uint32_t next_id = 1;
  const algebra::ScoredTree tree(RandomScoredTree(&rng, 6, &next_id));

  const algebra::PickFooCriterion foo(0.8, 0.5);
  const algebra::LevelParityPickCriterion parity(0.7, 0.3);
  for (const algebra::PickCriterion* criterion :
       std::initializer_list<const algebra::PickCriterion*>{&foo, &parity}) {
    PickOperator op(criterion);
    const auto picked = Unwrap(op.Run(FlattenForPick(tree)));
    EXPECT_EQ(picked, algebra::ReferencePick(tree, *criterion))
        << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PickPropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

// --------------------------------------- equivalence on random corpora

struct CorpusCase {
  uint64_t seed;
  bool complex;
};

class CorpusEquivalenceTest
    : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(CorpusEquivalenceTest, AllMethodsAgree) {
  const CorpusCase param = GetParam();
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 512);
  workload::CorpusOptions options;
  options.seed = param.seed;
  options.num_articles = 4;
  options.min_words_per_paragraph = 10;
  options.max_words_per_paragraph = 30;
  options.vocabulary_size = 300;  // small vocab -> natural term overlap
  options.planted_terms = {{"xq1", 25}, {"xq2", 13}};
  options.planted_phrases = {{"xpa", "xpb", 12, 9, 5}};
  const auto corpus = Unwrap(workload::GenerateCorpus(db.get(), options));
  ASSERT_GT(corpus.num_elements, 50u);
  index::InvertedIndex index = Unwrap(index::InvertedIndex::Build(db.get()));

  // Three-phrase predicate: two planted single terms + one planted
  // phrase (exercises PhraseFinder inside TermJoin).
  algebra::IrPredicate predicate;
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xq1"}, 0.8});
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xq2"}, 0.6});
  predicate.phrases.push_back(algebra::WeightedPhrase{{"xpa", "xpb"}, 0.7});

  std::unique_ptr<algebra::Scorer> scorer;
  if (param.complex) {
    scorer = std::make_unique<algebra::ComplexProximityScorer>(
        predicate.Weights());
  } else {
    scorer = std::make_unique<algebra::WeightedCountScorer>(
        predicate.Weights());
  }

  TermJoin join(db.get(), &index, &predicate, scorer.get());
  const auto tj = Normalized(Unwrap(join.Run()));
  const auto reference = Unwrap(algebra::ReferenceScoreAllElements(
      db.get(), predicate, *scorer));
  ExpectSameResults(tj, reference, "termjoin-vs-reference");

  TermJoinOptions enhanced_options;
  enhanced_options.enhanced = true;
  TermJoin enhanced(db.get(), &index, &predicate, scorer.get(),
                    enhanced_options);
  ExpectSameElements(Normalized(Unwrap(enhanced.Run())), tj, "enhanced");

  GeneralizedMeet meet(db.get(), &index, &predicate, scorer.get());
  ExpectSameElements(Unwrap(meet.Run()), tj, "genmeet");

  Comp1 comp1(db.get(), &index, &predicate, scorer.get());
  ExpectSameElements(Unwrap(comp1.Run()), tj, "comp1");

  Comp2 comp2(db.get(), &index, &predicate, scorer.get());
  ExpectSameElements(Unwrap(comp2.Run()), tj, "comp2");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CorpusEquivalenceTest,
    ::testing::Values(CorpusCase{1, false}, CorpusCase{1, true},
                      CorpusCase{2, false}, CorpusCase{2, true},
                      CorpusCase{3, false}, CorpusCase{3, true},
                      CorpusCase{4, false}, CorpusCase{4, true},
                      CorpusCase{5, false}, CorpusCase{5, true}));

/// Phrase-query equivalence on random corpora.
class PhraseEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PhraseEquivalenceTest, PhraseFinderEqualsComp3) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 512);
  workload::CorpusOptions options;
  options.seed = GetParam();
  options.num_articles = 4;
  options.vocabulary_size = 200;
  options.planted_phrases = {{"xph1", "xph2", 30, 22, 14}};
  Unwrap(workload::GenerateCorpus(db.get(), options));
  index::InvertedIndex index = Unwrap(index::InvertedIndex::Build(db.get()));

  const std::vector<std::string> phrase = {"xph1", "xph2"};
  PhraseFinderQuery finder(db.get(), &index, phrase);
  Comp3 composite(db.get(), &index, phrase);
  const auto finder_out = Unwrap(finder.Run());
  EXPECT_EQ(finder_out, Unwrap(composite.Run()));
  // Exactly the planted number of co-occurrences.
  uint64_t total = 0;
  for (const PhraseResult& result : finder_out) total += result.count;
  EXPECT_EQ(total, 14u);
  // Also try a frequent natural pair from the background vocabulary.
  PhraseFinderQuery natural(db.get(), &index, {"w00000", "w00001"});
  Comp3 natural_composite(db.get(), &index, {"w00000", "w00001"});
  EXPECT_EQ(Unwrap(natural.Run()), Unwrap(natural_composite.Run()));
  // Galloping advance must agree with the linear merge on highly
  // unbalanced natural lists too.
  std::vector<const index::PostingList*> lists = {index.Lookup("w00000"),
                                                  index.Lookup("w00123")};
  PhraseFinderStream linear(lists, false);
  PhraseFinderStream galloping(lists, true);
  const auto linear_out = linear.DrainAll();
  const auto galloping_out = galloping.DrainAll();
  ASSERT_EQ(linear_out.size(), galloping_out.size());
  for (size_t i = 0; i < linear_out.size(); ++i) {
    EXPECT_EQ(linear_out[i].word_pos, galloping_out[i].word_pos);
  }
  EXPECT_LE(galloping.postings_scanned(), linear.postings_scanned());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhraseEquivalenceTest,
                         ::testing::Range<uint64_t>(10, 18));

}  // namespace
}  // namespace tix::exec
