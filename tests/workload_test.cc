// Workload generator tests: structural shape, vocabulary distribution,
// determinism edge cases, and the exactness guarantees the benchmarks
// rely on.

#include <map>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "tests/test_util.h"
#include "workload/corpus.h"

namespace tix::workload {
namespace {

using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

TEST(CorpusTest, StructureRespectsRanges) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 256);
  CorpusOptions options;
  options.num_articles = 25;
  options.min_sections = 3;
  options.max_sections = 3;
  options.min_paragraphs = 4;
  options.max_paragraphs = 4;
  const auto corpus = Unwrap(GenerateCorpus(db.get(), options));
  EXPECT_EQ(corpus.num_articles, 25u);

  const auto* sections = db->ElementsWithTag(db->LookupTag("sec"));
  ASSERT_NE(sections, nullptr);
  EXPECT_EQ(sections->size(), 25u * 3u);
  const auto* paragraphs = db->ElementsWithTag(db->LookupTag("p"));
  ASSERT_NE(paragraphs, nullptr);
  EXPECT_EQ(paragraphs->size(), 25u * 3u * 4u);
  // Each section has exactly st + 4 p = 5 children.
  for (storage::NodeId section : *sections) {
    EXPECT_EQ(db->ChildCountFromIndex(section), 5u);
  }
}

TEST(CorpusTest, ZipfVocabularySkew) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 256);
  CorpusOptions options;
  options.num_articles = 30;
  options.vocabulary_size = 1000;
  options.zipf_theta = 1.0;
  Unwrap(GenerateCorpus(db.get(), options));
  index::InvertedIndex index = Unwrap(index::InvertedIndex::Build(db.get()));
  // Rank-0 word is much more frequent than rank-100.
  EXPECT_GT(index.TermFrequency(VocabWord(0)),
            5 * index.TermFrequency(VocabWord(100)) + 1);
}

TEST(CorpusTest, WordCountMatchesDatabase) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 256);
  CorpusOptions options;
  options.num_articles = 10;
  const auto corpus = Unwrap(GenerateCorpus(db.get(), options));
  uint64_t db_words = 0;
  for (const auto& doc : db->documents()) db_words += doc.word_count;
  // Author names / review text are outside the slot pool, so the
  // database has at least the slot words.
  EXPECT_GE(db_words, corpus.num_words);
  EXPECT_EQ(corpus.num_elements, db->num_nodes());
}

TEST(CorpusTest, PhraseCoOccurrencesAreExactlyPlanted) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 512);
  CorpusOptions options;
  options.num_articles = 25;
  options.planted_phrases = {{"xaa", "xbb", 120, 80, 33},
                             {"xcc", "xdd", 40, 40, 40}};
  Unwrap(GenerateCorpus(db.get(), options));
  index::InvertedIndex index = Unwrap(index::InvertedIndex::Build(db.get()));
  // Count adjacencies directly from (decoded) postings.
  auto count_pairs = [&](const char* t1, const char* t2) {
    const std::vector<index::Posting> p1 =
        Unwrap(index.Lookup(t1))->DecodeAll();
    const std::vector<index::Posting> p2 =
        Unwrap(index.Lookup(t2))->DecodeAll();
    uint64_t pairs = 0;
    size_t j = 0;
    for (const auto& posting : p1) {
      while (j < p2.size() &&
             (p2[j].doc_id < posting.doc_id ||
              (p2[j].doc_id == posting.doc_id &&
               p2[j].word_pos < posting.word_pos + 1))) {
        ++j;
      }
      if (j < p2.size() && p2[j].doc_id == posting.doc_id &&
          p2[j].word_pos == posting.word_pos + 1 &&
          p2[j].node_id == posting.node_id) {
        ++pairs;
      }
    }
    return pairs;
  };
  EXPECT_EQ(count_pairs("xaa", "xbb"), 33u);
  EXPECT_EQ(count_pairs("xcc", "xdd"), 40u);
  EXPECT_EQ(index.TermFrequency("xaa"), 120u);
  EXPECT_EQ(index.TermFrequency("xdd"), 40u);
}

TEST(CorpusTest, InvalidPhraseSpecRejected) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 256);
  CorpusOptions options;
  options.num_articles = 5;
  options.planted_phrases = {{"xa", "xb", 10, 10, 11}};  // co > freq
  EXPECT_TRUE(GenerateCorpus(db.get(), options).status().IsInvalidArgument());
  options.planted_phrases.clear();
  options.num_articles = 0;
  EXPECT_TRUE(GenerateCorpus(db.get(), options).status().IsInvalidArgument());
}

TEST(CorpusTest, ReviewsShareTitlesWithArticles) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 256);
  CorpusOptions options;
  options.num_articles = 10;
  options.generate_reviews = true;
  options.num_reviews = 15;
  const auto corpus = Unwrap(GenerateCorpus(db.get(), options));
  ASSERT_NE(corpus.reviews_doc, UINT32_MAX);
  const auto* reviews = db->ElementsWithTag(db->LookupTag("review"));
  ASSERT_NE(reviews, nullptr);
  EXPECT_EQ(reviews->size(), 15u);
  // Every review title equals some article title verbatim.
  const auto* titles = db->ElementsWithTag(db->LookupTag("atl"));
  std::map<std::string, int> title_texts;
  for (storage::NodeId title : *titles) {
    ++title_texts[Unwrap(db->AllTextOf(title))];
  }
  const auto* review_titles = db->ElementsWithTag(db->LookupTag("title"));
  ASSERT_NE(review_titles, nullptr);
  for (storage::NodeId title : *review_titles) {
    EXPECT_EQ(title_texts.count(Unwrap(db->AllTextOf(title))), 1u);
  }
}

TEST(CorpusTest, SurnamePoolLeadsWithDoe) {
  EXPECT_EQ(SurnamePool()[0], "doe");
  EXPECT_GE(SurnamePool().size(), 10u);
}

}  // namespace
}  // namespace tix::workload
