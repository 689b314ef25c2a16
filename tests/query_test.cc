#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "algebra/pattern_tree.h"
#include "algebra/pick.h"
#include "algebra/reference_eval.h"
#include "common/timer.h"
#include "exec/pick_operator.h"
#include "exec/structural_join.h"
#include "index/segmented_index.h"
#include "query/engine.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/similarity_join.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "workload/paper_example.h"
#include "xml/parser.h"

namespace tix::query {
namespace {

using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

// ------------------------------------------------------------------ Lexer

TEST(LexerTest, TokenizesRepresentativeQuery) {
  const auto tokens = Unwrap(Lex(
      R"(FOR $a IN document("articles.xml")//article[@id = "1"]//* RETURN $a)"));
  ASSERT_GT(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[0].text, "FOR");
  EXPECT_EQ(tokens[1].kind, TokenKind::kVariable);
  EXPECT_EQ(tokens[1].text, "a");
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  const auto tokens = Unwrap(Lex("for return DOCUMENT"));
  EXPECT_EQ(tokens[0].text, "FOR");
  EXPECT_EQ(tokens[1].text, "RETURN");
  EXPECT_EQ(tokens[2].text, "DOCUMENT");
}

TEST(LexerTest, NumbersAndStrings) {
  const auto tokens = Unwrap(Lex("4.5 'single' \"double\" 42"));
  EXPECT_DOUBLE_EQ(tokens[0].number, 4.5);
  EXPECT_EQ(tokens[1].text, "single");
  EXPECT_EQ(tokens[2].text, "double");
  EXPECT_DOUBLE_EQ(tokens[3].number, 42.0);
}

TEST(LexerTest, CommentsIgnored) {
  const auto tokens = Unwrap(Lex("FOR # a comment\n$a"));
  EXPECT_EQ(tokens[0].text, "FOR");
  EXPECT_EQ(tokens[1].kind, TokenKind::kVariable);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("\"unterminated").ok());
  EXPECT_FALSE(Lex("$").ok());
  EXPECT_FALSE(Lex("%").ok());
}

// ----------------------------------------------------------------- Parser

constexpr char kQuery2Text[] = R"(
  FOR $a IN document("articles.xml")//article[author/sname = "Doe"]//*
  SCORE $a USING foo({"search engine"}, {"internet", "information retrieval"})
  PICK $a USING pickfoo(0.8, 0.5)
  THRESHOLD score > 0.5 STOP AFTER 5
  RETURN $a
)";

TEST(ParserTest, ParsesQuery2) {
  const Query query = Unwrap(ParseQuery(kQuery2Text));
  EXPECT_EQ(query.variable, "a");
  EXPECT_EQ(query.path.document, "articles.xml");
  ASSERT_EQ(query.path.steps.size(), 2u);
  EXPECT_TRUE(query.path.steps[0].descendant);
  EXPECT_EQ(query.path.steps[0].name, "article");
  ASSERT_EQ(query.path.steps[0].predicates.size(), 1u);
  EXPECT_EQ(query.path.steps[0].predicates[0].path,
            (std::vector<std::string>{"author", "sname"}));
  EXPECT_EQ(*query.path.steps[0].predicates[0].value, "Doe");
  EXPECT_EQ(query.path.steps[1].name, "*");

  ASSERT_TRUE(query.score.has_value());
  EXPECT_EQ(query.score->scorer, "foo");
  EXPECT_EQ(query.score->primary,
            (std::vector<std::string>{"search engine"}));
  ASSERT_TRUE(query.pick.has_value());
  EXPECT_DOUBLE_EQ(query.pick->threshold, 0.8);
  ASSERT_TRUE(query.threshold.has_value());
  EXPECT_DOUBLE_EQ(*query.threshold->min_score, 0.5);
  EXPECT_EQ(*query.threshold->top_k, 5u);
}

TEST(ParserTest, AttributePredicate) {
  const Query query = Unwrap(ParseQuery(
      R"(FOR $r IN document("reviews.xml")//review[@id = "1"] RETURN $r)"));
  ASSERT_EQ(query.path.steps.size(), 1u);
  const StepPredicate& predicate = query.path.steps[0].predicates[0];
  EXPECT_TRUE(predicate.path.empty());
  EXPECT_EQ(predicate.attribute, "id");
  EXPECT_EQ(*predicate.value, "1");
}

TEST(ParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("RETURN $a").ok());
  EXPECT_FALSE(ParseQuery("FOR $a IN document(\"d\") RETURN $a").ok());
  EXPECT_FALSE(
      ParseQuery("FOR $a IN document(\"d\")//x RETURN $b").ok());
  EXPECT_FALSE(
      ParseQuery(
          "FOR $a IN document(\"d\")//x PICK $a USING pickfoo RETURN $a")
          .ok());  // PICK without SCORE
  EXPECT_FALSE(
      ParseQuery("FOR $a IN document(\"d\")//x SCORE $a USING bogus({\"t\"}) "
                 "RETURN $a")
          .ok());
  EXPECT_FALSE(
      ParseQuery("FOR $a IN document(\"d\")//x THRESHOLD RETURN $a").ok());
}

// ----------------------------------------------------------------- Engine

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase(dir_.path());
    ExpectOk(workload::LoadPaperExample(db_.get()));
    index_ = std::make_unique<index::InvertedIndex>(
        Unwrap(index::InvertedIndex::Build(db_.get())));
    engine_ = std::make_unique<QueryEngine>(db_.get(), index_.get());
  }

  std::string TagOf(storage::NodeId node) {
    const storage::NodeRecord record = Unwrap(db_->GetNode(node));
    return db_->TagName(record.tag_id);
  }

  TempDir dir_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<index::InvertedIndex> index_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(EngineTest, BooleanQueryReturnsMatches) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(
      R"(FOR $s IN document("articles.xml")//chapter/section RETURN $s)"));
  EXPECT_EQ(output.results.size(), 3u);
  for (const QueryResultItem& item : output.results) {
    EXPECT_EQ(TagOf(item.node), "section");
  }
}

TEST_F(EngineTest, BooleanQueryWithValuePredicate) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(
      R"(FOR $r IN document("reviews.xml")//review[rating = "5"] RETURN $r)"));
  ASSERT_EQ(output.results.size(), 1u);
  EXPECT_EQ(TagOf(output.results[0].node), "review");
}

TEST_F(EngineTest, Query1StyleScoring) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      THRESHOLD STOP AFTER 3
      RETURN $a)"));
  ASSERT_EQ(output.results.size(), 3u);
  // Scores descend.
  EXPECT_GE(output.results[0].score, output.results[1].score);
  EXPECT_GE(output.results[1].score, output.results[2].score);
  // The top element is the article (contains everything); the runner-up
  // is the search chapter (the paper's target result).
  EXPECT_EQ(TagOf(output.results[0].node), "article");
  EXPECT_EQ(TagOf(output.results[1].node), "chapter");
}

TEST_F(EngineTest, Query2StructurePlusScoring) {
  const QueryOutput query2 = Unwrap(engine_->ExecuteText(kQuery2Text));
  ASSERT_FALSE(query2.results.empty());
  EXPECT_LE(query2.results.size(), 5u);
  for (const QueryResultItem& item : query2.results) {
    EXPECT_GT(item.score, 0.5);
  }
  // With an author that does not exist, the same query is empty.
  const QueryOutput none = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article[author/sname = "Roe"]//*
      SCORE $a USING foo({"search engine"})
      RETURN $a)"));
  EXPECT_TRUE(none.results.empty());
  EXPECT_EQ(none.stats.anchors, 0u);
}

TEST_F(EngineTest, PickReducesGranularityRedundancy) {
  const QueryOutput unpicked = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      RETURN $a)"));
  const QueryOutput picked = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      PICK $a USING pickfoo(0.8, 0.5)
      RETURN $a)"));
  EXPECT_LT(picked.results.size(), unpicked.results.size());
  ASSERT_FALSE(picked.results.empty());
}

TEST_F(EngineTest, ComplexScorerRuns) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING complexfoo({"search engine"}, {"internet"})
      THRESHOLD STOP AFTER 5
      RETURN $a)"));
  ASSERT_FALSE(output.results.empty());
  for (const QueryResultItem& item : output.results) {
    EXPECT_GT(item.score, 0.0);
  }
}

TEST_F(EngineTest, TfIdfScorerRuns) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING tfidf({"newsinessence"})
      RETURN $a)"));
  ASSERT_FALSE(output.results.empty());
}

TEST_F(EngineTest, Bm25ScorerRanksShortFocusedElements) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING bm25({"search engine"}, {"internet"})
      THRESHOLD STOP AFTER 3
      RETURN $a)"));
  ASSERT_FALSE(output.results.empty());
  // Length normalization must not rank the whole article first: a
  // focused descendant wins.
  EXPECT_NE(TagOf(output.results[0].node), "article");
}

TEST_F(EngineTest, TopFractionPickUsesHistogram) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//*
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      PICK $a USING topfraction(0.3, 0.2)
      RETURN $a)"));
  ASSERT_FALSE(output.results.empty());
  // The histogram-driven criterion picks a granularity without an
  // absolute threshold; results are a strict subset of the unpicked set.
  EXPECT_LT(output.results.size(), 12u);
}

TEST_F(EngineTest, NamedTargetStep) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $p IN document("articles.xml")//article//p
      SCORE $p USING foo({"search engine"})
      RETURN $p)"));
  ASSERT_FALSE(output.results.empty());
  for (const QueryResultItem& item : output.results) {
    EXPECT_EQ(TagOf(item.node), "p");
  }
}

TEST_F(EngineTest, UnknownDocumentIsNotFound) {
  EXPECT_TRUE(engine_->ExecuteText(
                     R"(FOR $a IN document("nope.xml")//a RETURN $a)")
                  .status()
                  .IsNotFound());
}

TEST_F(EngineTest, RenderXmlEmitsResults) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article//p
      SCORE $a USING foo({"search engine"})
      THRESHOLD STOP AFTER 1
      RETURN $a)"));
  const std::string xml = Unwrap(engine_->RenderXml(output));
  EXPECT_NE(xml.find("<result>"), std::string::npos);
  EXPECT_NE(xml.find("<score>"), std::string::npos);
  EXPECT_NE(xml.find("<p>"), std::string::npos);
}

// ---------------------------------------------------------- join queries

TEST_F(EngineTest, Query3InTheLanguage) {
  // The paper's Query 3, end to end in the query language: articles by
  // Doe joined with reviews on title similarity, IR-scored, combined
  // with ScoreBar.
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article[author/sname = "Doe"]
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title SIMSCORE > 1
      SCORE $a USING foo({"search engine"},
                         {"internet", "information retrieval"})
      RETURN $a)"));
  // Only review 1 ("Internet Technologies", sim 2) passes SIMSCORE > 1.
  ASSERT_EQ(output.pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(output.pairs[0].similarity, 2.0);
  // Combined = ScoreBar(2, best component score) > 2.
  EXPECT_GT(output.pairs[0].combined, 2.0);
  EXPECT_EQ(output.results.size(), 1u);
  EXPECT_EQ(output.results[0].node, output.pairs[0].left);
  EXPECT_EQ(TagOf(output.pairs[0].left), "article");
  EXPECT_EQ(TagOf(output.pairs[0].right), "review");
}

TEST_F(EngineTest, JoinWithoutScoreUsesSimilarity) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title SIMSCORE > 0.5
      RETURN $a)"));
  // Both reviews match "Internet Technologies" (sim 2 and 1).
  ASSERT_EQ(output.pairs.size(), 2u);
  EXPECT_DOUBLE_EQ(output.pairs[0].combined, 2.0);
  EXPECT_DOUBLE_EQ(output.pairs[1].combined, 1.0);
}

TEST_F(EngineTest, JoinThresholdAndTopK) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title
      THRESHOLD score > 0.5 STOP AFTER 1
      RETURN $a)"));
  ASSERT_EQ(output.pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(output.pairs[0].combined, 2.0);
}

TEST_F(EngineTest, JoinEdgeCases) {
  // Missing key tag: no pairs, no error.
  const QueryOutput no_tag = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/nonexistent WITH $b/title
      RETURN $a)"));
  EXPECT_TRUE(no_tag.pairs.empty());
  // No matching left anchors: empty output.
  const QueryOutput no_anchor = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article[author/sname = "Roe"]
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title
      RETURN $a)"));
  EXPECT_TRUE(no_anchor.pairs.empty());
  // Default SIMSCORE threshold is 0: any positive similarity joins.
  const QueryOutput default_threshold = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title
      RETURN $a)"));
  EXPECT_EQ(default_threshold.pairs.size(), 2u);
}

TEST_F(EngineTest, JoinWithComplexScorer) {
  const QueryOutput output = Unwrap(engine_->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title SIMSCORE > 1
      SCORE $a USING complexfoo({"search engine"}, {"internet"})
      RETURN $a)"));
  ASSERT_EQ(output.pairs.size(), 1u);
  EXPECT_GT(output.pairs[0].combined, output.pairs[0].similarity);
}

TEST_F(EngineTest, JoinGrammarErrors) {
  // SIMJOIN without a second FOR.
  EXPECT_FALSE(engine_
                   ->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      SIMJOIN $a/atl WITH $b/title
      RETURN $a)")
                   .ok());
  // Second FOR without SIMJOIN.
  EXPECT_FALSE(engine_
                   ->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      RETURN $a)")
                   .ok());
  // PICK in a join query.
  EXPECT_FALSE(engine_
                   ->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $a/article-title WITH $b/title
      SCORE $a USING foo({"x"})
      PICK $a USING pickfoo
      RETURN $a)")
                   .ok());
  // Variables in the wrong order.
  EXPECT_FALSE(engine_
                   ->ExecuteText(R"(
      FOR $a IN document("articles.xml")//article
      FOR $b IN document("reviews.xml")//review
      SIMJOIN $b/title WITH $a/article-title
      RETURN $a)")
                   .ok());
}

// -------------------------------------------------------- SimilarityJoin

TEST_F(EngineTest, SimilarityJoinQuery3Shape) {
  // Query 3: join article titles with review titles.
  const auto* articles = db_->ElementsWithTag(db_->LookupTag("article"));
  const auto* reviews = db_->ElementsWithTag(db_->LookupTag("review"));
  ASSERT_NE(articles, nullptr);
  ASSERT_NE(reviews, nullptr);
  const auto titles = Unwrap(
      FirstDescendantWithTag(db_.get(), *articles, "article-title"));
  const auto review_titles =
      Unwrap(FirstDescendantWithTag(db_.get(), *reviews, "title"));
  ASSERT_EQ(titles.size(), 1u);
  ASSERT_EQ(review_titles.size(), 2u);

  SimilarityJoinOptions options;
  options.min_similarity = 1.0;  // Query 3's "Threshold simScore > 1"
  const auto pairs = Unwrap(SimilarityJoin(db_.get(), titles,
                                           review_titles, options));
  // "Internet Technologies" vs "Internet Technologies" (sim 2) survives;
  // vs "WWW Technologies" (sim 1) does not (> 1 strict).
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 2.0);
  EXPECT_EQ(pairs[0].right, review_titles[0]);
}

TEST_F(EngineTest, FirstDescendantWithTagMissing) {
  const auto* articles = db_->ElementsWithTag(db_->LookupTag("article"));
  const auto missing =
      Unwrap(FirstDescendantWithTag(db_.get(), *articles, "nonexistent"));
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], storage::kInvalidNodeId);
}

// ------------------------------------------------ target-step predicates

/// One article whose `sec id="2"` is the only element with id 2 but not
/// the best-scoring one.
class TargetPredicateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase(dir_.path());
    const xml::XmlDocument doc = Unwrap(xml::ParseXml(
        R"(<article id="1"><title>search engines</title>)"
        R"(<sec id="1"><p>search and search again</p></sec>)"
        R"(<sec id="2"><p>one search</p></sec></article>)",
        "a.xml"));
    Unwrap(db_->AddDocument(doc));
    index_ = std::make_unique<index::InvertedIndex>(
        Unwrap(index::InvertedIndex::Build(db_.get())));
  }

  std::vector<storage::NodeId> Nodes(const std::string& text,
                                     bool pushdown = true) {
    EngineOptions options;
    options.threshold_pushdown = pushdown;
    QueryEngine engine(db_.get(), index_.get(), options);
    std::vector<storage::NodeId> nodes;
    for (const QueryResultItem& item :
         Unwrap(engine.ExecuteText(text)).results) {
      nodes.push_back(item.node);
    }
    return nodes;
  }

  std::string IdOf(storage::NodeId node) {
    const storage::AttributeList attributes =
        Unwrap(db_->AttributesOf(Unwrap(db_->GetNode(node))));
    return attributes.empty() ? "" : attributes[0].value;
  }

  TempDir dir_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<index::InvertedIndex> index_;
};

TEST_F(TargetPredicateTest, ScoredQueryAppliesTargetPredicate) {
  const std::vector<storage::NodeId> nodes = Nodes(
      R"(FOR $a IN document("a.xml")//article//sec[@id = "2"]
         SCORE $a USING foo({"search"}) RETURN $a)");
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(IdOf(nodes[0]), "2");
}

TEST_F(TargetPredicateTest, BooleanAndScoredFormsAgree) {
  const std::vector<storage::NodeId> boolean = Nodes(
      R"(FOR $a IN document("a.xml")//article//sec[@id = "2"] RETURN $a)");
  ASSERT_EQ(boolean.size(), 1u);
  EXPECT_EQ(IdOf(boolean[0]), "2");
  EXPECT_EQ(Nodes(R"(FOR $a IN document("a.xml")//article//sec[@id = "2"]
                     SCORE $a USING foo({"search"}) RETURN $a)"),
            boolean);
}

TEST_F(TargetPredicateTest, PredicateBlocksTopKPushdown) {
  // The article outscores sec 2, so a top-1 taken before the filter
  // would keep the article and then lose it to [@id = "2"].
  const std::string text =
      R"(FOR $a IN document("a.xml")//*[@id = "2"]
         SCORE $a USING foo({"search"}) THRESHOLD STOP AFTER 1 RETURN $a)";
  const std::vector<storage::NodeId> pushed = Nodes(text, true);
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(IdOf(pushed[0]), "2");
  EXPECT_EQ(pushed, Nodes(text, false));
}

// ------------------------------------------------------- deep nesting

/// 40 nested <a> elements around one text node: 41 nodes, 40 deep.
std::unique_ptr<storage::Database> MakeDeepDatabase(const std::string& dir) {
  std::string xml;
  for (int i = 0; i < 40; ++i) xml += "<a>";
  xml += "deep";
  for (int i = 0; i < 40; ++i) xml += "</a>";
  auto db = MakeTestDatabase(dir);
  Unwrap(db->AddDocument(Unwrap(xml::ParseXml(xml, "deep.xml"))));
  return db;
}

std::string DeepQuery(int steps) {
  std::string text = R"(FOR $a IN document("deep.xml"))";
  for (int i = 0; i < steps; ++i) text += "//a";
  return text + " RETURN $a";
}

TEST(DeepNestingTest, ManyStepQueriesStayOutputLinear) {
  TempDir dir;
  auto db = MakeDeepDatabase(dir.path());
  ASSERT_EQ(db->num_nodes(), 41u);
  const index::InvertedIndex index =
      Unwrap(index::InvertedIndex::Build(db.get()));
  QueryEngine engine(db.get(), &index);
  for (const auto& [steps, rows] : {std::pair{6, 35u}, std::pair{8, 33u}}) {
    WallTimer timer;
    const QueryOutput output = Unwrap(engine.ExecuteText(DeepQuery(steps)));
    EXPECT_LT(timer.ElapsedSeconds(), 0.5) << steps << " steps";
    EXPECT_EQ(output.results.size(), rows) << steps << " steps";
  }
}

TEST(DeepNestingTest, ExpiredDeadlineStopsInsideMatching) {
  TempDir dir;
  auto db = MakeDeepDatabase(dir.path());
  const index::InvertedIndex index =
      Unwrap(index::InvertedIndex::Build(db.get()));
  EngineOptions options;
  options.deadline =
      Deadline::At(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  QueryEngine engine(db.get(), &index, options);
  const Status status = engine.ExecuteText(DeepQuery(6)).status();
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_NE(status.ToString().find("path step"), std::string::npos)
      << status.ToString();
}

// ------------------------------------- seeded engine-vs-reference fuzz

/// Appends a random element over tags {a, b, c}: optional id in 0..2,
/// text from a small vocabulary (a lone "x" makes [b = "x"] hold), up
/// to three children, at most five levels.
void AppendRandomElement(std::mt19937* rng, int depth, std::string* xml) {
  static const char* const kTags[] = {"a", "b", "c"};
  static const char* const kTexts[] = {"x", "alpha", "beta gamma",
                                       "alpha beta alpha", " x "};
  const std::string tag = kTags[(*rng)() % 3];
  *xml += "<" + tag;
  if ((*rng)() % 2 == 0) {
    *xml += " id=\"" + std::to_string((*rng)() % 3) + "\"";
  }
  *xml += ">";
  const unsigned children = depth >= 4 ? 0 : (*rng)() % 4;
  if (children == 0 || (*rng)() % 3 == 0) *xml += kTexts[(*rng)() % 5];
  for (unsigned i = 0; i < children; ++i) {
    AppendRandomElement(rng, depth + 1, xml);
  }
  *xml += "</" + tag + ">";
}

/// The reference pattern for path steps [0, count), built independently
/// of the engine: a chain whose nodes carry the steps' names, with
/// [@id = "n"] as an attribute predicate and [b = "x"] as a child `b`
/// whose content equals "x". Returns the last step's label.
int BuildReferencePattern(const std::vector<PathStep>& steps, size_t count,
                          algebra::ScoredPatternTree* pattern) {
  int label = 0;
  algebra::PatternNode* node = nullptr;
  for (size_t i = 0; i < count; ++i) {
    node = node == nullptr
               ? pattern->CreateRoot(++label)
               : node->AddChild(++label, steps[i].descendant
                                             ? algebra::Axis::kDescendant
                                             : algebra::Axis::kChild);
    if (steps[i].name != "*") node->set_tag(steps[i].name);
    for (const StepPredicate& predicate : steps[i].predicates) {
      if (!predicate.attribute.empty()) {
        node->AddPredicate(algebra::Predicate{
            algebra::Predicate::Kind::kAttributeEquals, predicate.attribute,
            *predicate.value});
      } else {
        algebra::PatternNode* child =
            node->AddChild(100 + label, algebra::Axis::kChild);
        child->set_tag(predicate.path[0]);
        child->AddPredicate(algebra::Predicate{
            algebra::Predicate::Kind::kContentEquals, "", *predicate.value});
      }
    }
  }
  return node->label();
}

/// Distinct bindings of the last of steps [0, count) per the reference
/// evaluator, kept to documents `in_scope` accepts.
std::set<storage::NodeId> ReferenceBindings(
    storage::Database* db, const std::vector<PathStep>& steps, size_t count,
    const std::function<bool(storage::DocId)>& in_scope) {
  algebra::ScoredPatternTree pattern;
  const int label = BuildReferencePattern(steps, count, &pattern);
  std::set<storage::NodeId> out;
  for (const algebra::Embedding& embedding :
       Unwrap(algebra::MatchPattern(db, pattern))) {
    for (const auto& [bound_label, node] : embedding) {
      if (bound_label == label && in_scope(db->DocFromIndex(node))) {
        out.insert(node);
      }
    }
  }
  return out;
}

/// One random query: path, document, scorer, pick and top-K choices.
struct FuzzQuery {
  std::string document;
  std::vector<PathStep> steps;
  bool scored = false;
  std::string scorer = "foo";
  std::optional<PickClause> pick;
  std::optional<size_t> top_k;
  std::string text;
};

/// Appends the SCORE clause (foo or complexfoo, chosen by `rng`).
void AppendScore(std::mt19937* rng, FuzzQuery* query) {
  query->scored = true;
  query->scorer = (*rng)() % 3 == 0 ? "complexfoo" : "foo";
  query->text += " SCORE $v USING " + query->scorer +
                 R"(({"alpha"}, {"beta", "gamma"}))";
}

/// Appends an optional THRESHOLD STOP AFTER k, then RETURN.
void AppendTopKAndReturn(std::mt19937* rng, FuzzQuery* query) {
  if ((*rng)() % 2 == 0) {
    query->top_k = 1 + (*rng)() % 4;
    query->text += " THRESHOLD STOP AFTER " + std::to_string(*query->top_k);
  }
  query->text += " RETURN $v";
}

FuzzQuery RandomQuery(std::mt19937* rng, const std::string& document) {
  static const char* const kNames[] = {"a", "b", "c", "*"};
  FuzzQuery query;
  query.document = document;
  query.text = "FOR $v IN document(\"" + document + "\")";
  const unsigned num_steps = 1 + (*rng)() % 4;
  for (unsigned i = 0; i < num_steps; ++i) {
    PathStep step;
    step.descendant = (*rng)() % 3 != 0;
    step.name = kNames[(*rng)() % 4];
    query.text += (step.descendant ? "//" : "/") + step.name;
    const unsigned predicate = (*rng)() % 6;
    if (predicate == 0) {
      const std::string id = std::to_string((*rng)() % 3);
      step.predicates.push_back(StepPredicate{{}, "id", id});
      query.text += "[@id = \"" + id + "\"]";
    } else if (predicate == 1) {
      step.predicates.push_back(StepPredicate{{"b"}, "", "x"});
      query.text += "[b = \"x\"]";
    }
    query.steps.push_back(std::move(step));
  }
  if ((*rng)() % 2 == 0) {
    AppendScore(rng, &query);
    AppendTopKAndReturn(rng, &query);
  } else {
    query.text += " RETURN $v";
  }
  return query;
}

/// One random PICK query: `//x//*` or `//x//y` over tags that nest inside
/// themselves, so anchors nest and their runs overlap. A named target
/// leaves the anchors themselves out of the scored elements.
FuzzQuery RandomPickQuery(std::mt19937* rng, const std::string& document) {
  static const char* const kTags[] = {"a", "b", "c"};
  static const char* const kCriteria[] = {"pickfoo", "parity",
                                          "topfraction"};
  // Absolute relevance thresholds (pickfoo, parity) or top fractions
  // (topfraction), and qualification fractions.
  static const char* const kThresholds[] = {"0.5", "1", "2"};
  static const char* const kFractions[] = {"0.2", "0.5", "0.8"};
  static const char* const kQualifications[] = {"0", "0.3", "0.5"};
  FuzzQuery query;
  query.document = document;
  query.text = "FOR $v IN document(\"" + document + "\")";
  const std::string anchor = kTags[(*rng)() % 3];
  const std::string target = (*rng)() % 3 == 0 ? kTags[(*rng)() % 3] : "*";
  for (const std::string& name : {anchor, target}) {
    PathStep step;
    step.descendant = true;
    step.name = name;
    query.text += "//" + name;
    query.steps.push_back(std::move(step));
  }
  AppendScore(rng, &query);
  PickClause pick;
  pick.criterion = kCriteria[(*rng)() % 3];
  const std::string threshold = pick.criterion == "topfraction"
                                    ? kFractions[(*rng)() % 3]
                                    : kThresholds[(*rng)() % 3];
  const std::string qualification = kQualifications[(*rng)() % 3];
  pick.threshold = std::stod(threshold);
  pick.fraction = std::stod(qualification);
  query.text += " PICK $v USING " + pick.criterion + "(" + threshold + ", " +
                qualification + ")";
  query.pick = pick;
  AppendTopKAndReturn(rng, &query);
  return query;
}

/// Elements Pick keeps, grouped by brute force: per anchor, scans of
/// every scored element (document order) collect the anchor's own entry
/// and its strict descendants into one pre-order stream for
/// exec::PickOperator. The engine finds the same stream by binary search.
std::set<storage::NodeId> ReferencePicked(
    const std::vector<exec::ScoredElement>& anchors,
    const std::vector<exec::ScoredElement>& scored, const PickClause& pick) {
  std::unique_ptr<algebra::PickCriterion> criterion;
  if (pick.criterion == "parity") {
    criterion = std::make_unique<algebra::LevelParityPickCriterion>(
        pick.threshold, pick.fraction);
  } else if (pick.criterion == "topfraction") {
    std::vector<double> scores;
    for (const exec::ScoredElement& element : scored) {
      scores.push_back(element.score);
    }
    criterion = std::make_unique<algebra::QuantilePickCriterion>(
        algebra::ScoreHistogram(scores), pick.threshold, pick.fraction);
  } else {
    criterion = std::make_unique<algebra::PickFooCriterion>(pick.threshold,
                                                            pick.fraction);
  }
  std::set<storage::NodeId> picked_set;
  for (const exec::ScoredElement& anchor : anchors) {
    std::vector<exec::PickEntry> entries;
    std::vector<const exec::ScoredElement*> stack;
    exec::ScoredElement anchor_entry = anchor;
    for (const exec::ScoredElement& element : scored) {
      if (element.node == anchor.node) anchor_entry = element;
    }
    entries.push_back(
        exec::PickEntry{anchor_entry.node, 0, anchor_entry.score});
    stack.push_back(&anchor_entry);
    for (const exec::ScoredElement& element : scored) {
      if (element.node == anchor.node) continue;
      if (!(element.doc == anchor.doc && element.start > anchor.start &&
            element.end < anchor.end)) {
        continue;
      }
      while (!(element.start > stack.back()->start &&
               element.end < stack.back()->end)) {
        stack.pop_back();
      }
      entries.push_back(exec::PickEntry{
          element.node, static_cast<uint16_t>(stack.size()), element.score});
      stack.push_back(&element);
    }
    exec::PickOperator pick_operator(criterion.get());
    const std::vector<storage::NodeId> picked =
        Unwrap(pick_operator.Run(entries));
    picked_set.insert(picked.begin(), picked.end());
  }
  return picked_set;
}

/// What the engine must answer, from the reference evaluator alone.
struct ExpectedAnswer {
  uint64_t anchors = 0;
  /// Scored elements Pick dropped (0 without PICK).
  size_t pick_dropped = 0;
  std::vector<std::pair<storage::NodeId, double>> results;
};

ExpectedAnswer ReferenceAnswer(
    storage::Database* db, const FuzzQuery& query,
    const std::function<bool(storage::DocId)>& in_scope) {
  const std::vector<PathStep>& steps = query.steps;
  const PathStep& target = steps.back();
  std::set<storage::NodeId> anchors;
  if (steps.size() > 1) {
    anchors = ReferenceBindings(db, steps, steps.size() - 1, in_scope);
  } else {
    for (const storage::DocumentInfo& info : db->documents()) {
      if (in_scope(info.doc_id)) anchors.insert(info.root);
    }
  }
  ExpectedAnswer answer;
  answer.anchors = anchors.size();
  if (anchors.empty()) return answer;
  if (!query.scored) {
    for (const storage::NodeId node :
         ReferenceBindings(db, steps, steps.size(), in_scope)) {
      answer.results.emplace_back(node, 0.0);
    }
    return answer;
  }
  // The target step's own name and predicates, matched anywhere.
  const std::set<storage::NodeId> target_ok =
      ReferenceBindings(db, {target}, 1, in_scope);
  const algebra::IrPredicate predicate =
      algebra::IrPredicate::FooStyle({"alpha"}, {"beta", "gamma"});
  std::unique_ptr<algebra::Scorer> scorer;
  if (query.scorer == "complexfoo") {
    scorer = std::make_unique<algebra::ComplexProximityScorer>(
        predicate.Weights());
  } else {
    scorer = std::make_unique<algebra::WeightedCountScorer>(
        predicate.Weights());
  }
  for (const algebra::ScoredNodeResult& scored :
       Unwrap(algebra::ReferenceScoreAllElements(db, predicate, *scorer))) {
    const storage::NodeId node = scored.node;
    if (target_ok.count(node) == 0) continue;
    const storage::NodeRecord element = Unwrap(db->GetNode(node));
    const bool kept = std::any_of(
        anchors.begin(), anchors.end(), [&](storage::NodeId anchor) {
          if (!target.descendant) return element.parent == anchor;
          const storage::NodeRecord record = Unwrap(db->GetNode(anchor));
          return target.name == "*" ? record.ContainsOrSelf(element)
                                    : record.Contains(element);
        });
    if (kept) answer.results.emplace_back(node, scored.score);
  }
  if (query.pick.has_value() && !answer.results.empty()) {
    // Both lists in document (node id) order, as the engine holds them.
    std::vector<exec::ScoredElement> anchor_elements;
    for (const storage::NodeId anchor : anchors) {
      anchor_elements.push_back(exec::ResidentElement(*db, anchor));
    }
    std::vector<exec::ScoredElement> scored;
    for (const auto& [node, score] : answer.results) {
      scored.push_back(exec::ResidentElement(*db, node));
      scored.back().score = score;
    }
    const std::set<storage::NodeId> picked =
        ReferencePicked(anchor_elements, scored, *query.pick);
    answer.pick_dropped = std::erase_if(
        answer.results,
        [&](const auto& result) { return !picked.count(result.first); });
  }
  // Threshold order: score descending, ties in document (node id) order.
  std::stable_sort(
      answer.results.begin(), answer.results.end(),
      [](const auto& a, const auto& b) { return a.second > b.second; });
  if (query.top_k.has_value() && answer.results.size() > *query.top_k) {
    answer.results.resize(*query.top_k);
  }
  return answer;
}

TEST(EngineReferenceFuzz, SeededPathsMatchTheReferenceEvaluator) {
  size_t compared = 0;
  size_t nonempty = 0;
  size_t picked_compared = 0;
  size_t picks_partial = 0;
  for (const uint32_t seed : {3u, 17u, 29u, 71u, 113u}) {
    TempDir dir;
    auto db = MakeTestDatabase(dir.path());
    std::mt19937 rng(seed);
    const int num_docs = 3 + static_cast<int>(rng() % 3);
    for (int d = 0; d < num_docs; ++d) {
      if (d == num_docs / 2) {
        // Reopen halfway: the first documents' resident columns are
        // rebuilt by the open-time scan, the rest are appended by
        // AddDocument, and Enhanced TermJoin reads both.
        ExpectOk(db->Save());
        db.reset();
        storage::DatabaseOptions options;
        options.buffer_pool_pages = 64;
        db = Unwrap(storage::Database::Open(dir.path(), options));
      }
      std::string xml;
      AppendRandomElement(&rng, 0, &xml);
      Unwrap(db->AddDocument(
          Unwrap(xml::ParseXml(xml, "d" + std::to_string(d) + ".xml"))));
    }
    const index::InvertedIndex monolithic =
        Unwrap(index::InvertedIndex::Build(db.get()));
    // The snapshot engine serves the same documents from a segmented
    // index with one document deleted.
    index::SegmentedIndexOptions segment_options;
    segment_options.seal_doc_count = 2;
    std::filesystem::create_directories(dir.path() + "/seg");
    auto segmented = Unwrap(
        index::SegmentedIndex::Open(dir.path() + "/seg", segment_options));
    for (int d = 0; d < num_docs; ++d) {
      ExpectOk(segmented->Ingest(db.get(), static_cast<storage::DocId>(d)));
    }
    const storage::DocId deleted = static_cast<storage::DocId>(seed % num_docs);
    ExpectOk(segmented->Delete(deleted));
    const std::shared_ptr<const index::IndexSnapshot> snapshot =
        segmented->Acquire();

    // Runs `query` on both engines, with and without pushdown, against
    // the reference answer for its scope.
    auto check = [&](const FuzzQuery& query, storage::DocId doc, bool all) {
      for (const bool use_snapshot : {false, true}) {
        if (use_snapshot && !all && doc == deleted) continue;
        const ExpectedAnswer expected = ReferenceAnswer(
            db.get(), query, [&](storage::DocId d) {
              if (!all) return d == doc;
              return !use_snapshot || snapshot->IsLiveDocument(d);
            });
        nonempty += expected.results.empty() ? 0 : 1;
        // Picks that both keep and drop elements.
        picks_partial +=
            !expected.results.empty() && expected.pick_dropped > 0 ? 1 : 0;
        for (const bool pushdown : {true, false}) {
          EngineOptions options;
          options.threshold_pushdown = pushdown;
          auto engine = use_snapshot
                            ? std::make_unique<QueryEngine>(db.get(), snapshot,
                                                            options)
                            : std::make_unique<QueryEngine>(
                                  db.get(), &monolithic, options);
          const QueryOutput output = Unwrap(engine->ExecuteText(query.text));
          const std::string where =
              "seed " + std::to_string(seed) + ": " + query.text +
              (use_snapshot ? " [snapshot]" : " [monolithic]") +
              (pushdown ? " [pushdown]" : "");
          EXPECT_EQ(output.stats.anchors, expected.anchors) << where;
          ASSERT_EQ(output.results.size(), expected.results.size()) << where;
          for (size_t i = 0; i < expected.results.size(); ++i) {
            EXPECT_EQ(output.results[i].node, expected.results[i].first)
                << where << " @" << i;
            EXPECT_EQ(output.results[i].score, expected.results[i].second)
                << where << " @" << i;
          }
          ++compared;
          picked_compared += query.pick.has_value() ? 1 : 0;
        }
      }
    };
    for (int q = 0; q < 40; ++q) {
      storage::DocId doc = static_cast<storage::DocId>(rng() % num_docs);
      const bool all = rng() % 4 == 0;
      check(RandomQuery(&rng, all ? "*" : "d" + std::to_string(doc) + ".xml"),
            doc, all);
    }
    for (int q = 0; q < 16; ++q) {
      storage::DocId doc = static_cast<storage::DocId>(rng() % num_docs);
      const bool all = rng() % 3 == 0;
      check(RandomPickQuery(&rng,
                            all ? "*" : "d" + std::to_string(doc) + ".xml"),
            doc, all);
    }
  }
  EXPECT_GT(compared, 900u);
  EXPECT_GT(nonempty, 150u);  // the fuzz must exercise real matches
  EXPECT_GT(picked_compared, 250u);
  EXPECT_GT(picks_partial, 50u);
}

// ----------------------------------------------- Path chains vs reference

/// Runs the boolean query `document("*")` + `path` and expects exactly
/// the reference evaluator's distinct bindings of the last step, in
/// document order. In `path`, "//" starts a descendant step and "/" a
/// child step. Returns how many bindings there are.
size_t ExpectChainMatchesReference(storage::Database* db,
                                   const std::string& path) {
  std::vector<PathStep> steps;
  for (size_t i = 0; i < path.size();) {
    PathStep step;
    step.descendant = path.compare(i, 2, "//") == 0;
    i += step.descendant ? 2 : 1;
    const size_t end = std::min(path.find('/', i), path.size());
    step.name = path.substr(i, end - i);
    steps.push_back(std::move(step));
    i = end;
  }
  const index::InvertedIndex index = Unwrap(index::InvertedIndex::Build(db));
  QueryEngine engine(db, &index);
  const QueryOutput output = Unwrap(engine.ExecuteText(
      R"(FOR $v IN document("*"))" + path + " RETURN $v"));
  std::vector<storage::NodeId> nodes;
  for (const QueryResultItem& item : output.results) {
    nodes.push_back(item.node);
  }
  const std::set<storage::NodeId> expected = ReferenceBindings(
      db, steps, steps.size(), [](storage::DocId) { return true; });
  EXPECT_EQ(nodes, std::vector<storage::NodeId>(expected.begin(),
                                                expected.end()))
      << path;
  return nodes.size();
}

TEST(PathChainTest, PaperExampleChains) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path());
  ExpectOk(workload::LoadPaperExample(db.get()));
  EXPECT_EQ(ExpectChainMatchesReference(db.get(), "//section"), 3u);
  // Only the two chapter-level paragraphs are children of a chapter;
  // every paragraph lies inside one.
  EXPECT_EQ(ExpectChainMatchesReference(db.get(), "//chapter/p"), 2u);
  EXPECT_EQ(ExpectChainMatchesReference(db.get(), "//chapter//p"), 7u);
  // Only the third chapter's sections have paragraphs: 1 + 1 + 3.
  EXPECT_EQ(ExpectChainMatchesReference(db.get(), "//article//section//p"),
            5u);
  EXPECT_GT(
      ExpectChainMatchesReference(db.get(), "//article//*//section-title"),
      0u);
  EXPECT_EQ(ExpectChainMatchesReference(db.get(), "//nonexistent"), 0u);
  EXPECT_EQ(ExpectChainMatchesReference(db.get(), "//review//section"), 0u);
}

// The generator's real tags (article/fm/au/snm, bdy/sec/p, st), which
// the {a, b, c} fuzz documents never produce: 4-step chains, child
// steps, and wildcard middle and last steps. `//article/sec` is empty
// by construction (sections sit under bdy).
TEST(PathChainTest, GeneratedCorpusChains) {
  const std::vector<std::pair<uint64_t, std::string>> chains = {
      {1, "//article//sec//p"},     {2, "//article/sec"},
      {3, "//bdy//sec/p"},          {4, "//article//*//p"},
      {5, "//article/fm//au/snm"},  {6, "//*//st"},
      {7, "//sec/*"},               {8, "//article/bdy/sec/p"},
  };
  for (const auto& [seed, path] : chains) {
    TempDir dir;
    auto db = MakeTestDatabase(dir.path(), 256);
    workload::CorpusOptions options;
    options.seed = seed;
    options.num_articles = 6;
    Unwrap(workload::GenerateCorpus(db.get(), options));
    EXPECT_EQ(ExpectChainMatchesReference(db.get(), path) > 0,
              path != "//article/sec")
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace tix::query
