#include <algorithm>
#include <fstream>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "workload/paper_example.h"
#include "xml/parser.h"

namespace tix::index {
namespace {

using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase(dir_.path());
    ExpectOk(workload::LoadPaperExample(db_.get()));
    index_ = std::make_unique<InvertedIndex>(
        Unwrap(InvertedIndex::Build(db_.get())));
  }

  TempDir dir_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<InvertedIndex> index_;
};

TEST_F(IndexTest, TermFrequencies) {
  // "search" appears in section titles and paragraphs of articles.xml.
  EXPECT_GT(index_->TermFrequency("search"), 3u);
  EXPECT_EQ(index_->TermFrequency("nonexistentterm"), 0u);
  // Lookup is case-normalized like the corpus.
  EXPECT_EQ(index_->TermFrequency("SEARCH"),
            index_->TermFrequency("search"));
}

TEST_F(IndexTest, PostingsAreSortedAndPointAtTextNodes) {
  const PostingList* list = Unwrap(index_->Lookup("search"));
  ASSERT_NE(list, nullptr);
  const std::vector<Posting> postings = list->DecodeAll();
  ASSERT_EQ(postings.size(), list->size());
  for (size_t i = 0; i < postings.size(); ++i) {
    const Posting& posting = postings[i];
    if (i > 0) {
      EXPECT_TRUE(PostingLess(postings[i - 1], posting));
    }
    const storage::NodeRecord record = Unwrap(db_->GetNode(posting.node_id));
    EXPECT_TRUE(record.is_text());
    EXPECT_GE(posting.word_pos, record.start);
    EXPECT_LT(posting.word_pos, record.end + 1);
  }
}

TEST_F(IndexTest, WordPositionsMatchTokenOffsets) {
  // "newsinessence" occurs exactly once; verify its absolute position
  // equals text-node start + token offset.
  const PostingList* list = Unwrap(index_->Lookup("newsinessence"));
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->size(), 1u);
  const Posting posting = list->DecodeAll()[0];
  const storage::NodeRecord record = Unwrap(db_->GetNode(posting.node_id));
  const std::string data = Unwrap(db_->TextOf(record));
  const auto tokens = db_->tokenizer().Tokenize(data);
  bool found = false;
  for (const auto& token : tokens) {
    if (token.term == "newsinessence") {
      EXPECT_EQ(posting.word_pos, record.start + token.position);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(IndexTest, DocAndNodeFrequencies) {
  const PostingList* list = Unwrap(index_->Lookup("technologies"));
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->doc_frequency, 2u);  // articles.xml and reviews.xml
  EXPECT_GE(list->node_frequency, 3u);
  EXPECT_GT(index_->InverseDocumentFrequency("newsinessence"),
            index_->InverseDocumentFrequency("technologies"));
}

TEST_F(IndexTest, StatsAreConsistent) {
  const IndexStats& stats = index_->stats();
  EXPECT_EQ(stats.num_documents, 2u);
  EXPECT_GT(stats.num_terms, 20u);
  EXPECT_GT(stats.num_postings, 50u);
  uint64_t total = 0;
  for (text::TermId id = 0; id < stats.num_terms; ++id) {
    total += Unwrap(index_->LookupId(id))->size();
  }
  EXPECT_EQ(total, stats.num_postings);
}

TEST_F(IndexTest, SaveLoadRoundTrip) {
  const std::string path = dir_.path() + "/index.tix";
  ExpectOk(index_->SaveToFile(path));
  InvertedIndex loaded = Unwrap(InvertedIndex::LoadFromFile(path));
  EXPECT_EQ(loaded.stats().num_terms, index_->stats().num_terms);
  EXPECT_EQ(loaded.stats().num_postings, index_->stats().num_postings);
  const PostingList* original = Unwrap(index_->Lookup("search"));
  const PostingList* restored = Unwrap(loaded.Lookup("search"));
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->DecodeAll(), original->DecodeAll());
  EXPECT_EQ(restored->doc_frequency, original->doc_frequency);
}

TEST_F(IndexTest, LoadRejectsCorruptFile) {
  const std::string path = dir_.path() + "/bad.tix";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not an index";
  }
  EXPECT_FALSE(InvertedIndex::LoadFromFile(path).ok());
  EXPECT_FALSE(InvertedIndex::LoadFromFile(dir_.path() + "/missing").ok());
}

TEST_F(IndexTest, TermsWithFrequencyBetween) {
  const auto terms = index_->TermsWithFrequencyBetween(1, 1);
  EXPECT_FALSE(terms.empty());
  for (const std::string& term : terms) {
    EXPECT_EQ(index_->TermFrequency(term), 1u);
  }
}

TEST(IndexCorpusTest, PlantedFrequenciesAreExact) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 512);
  workload::CorpusOptions options;
  options.num_articles = 30;
  options.planted_terms = {{"xalpha", 50}, {"xbeta", 200}, {"xgamma", 7}};
  options.planted_phrases = {{"xp1", "xp2", 40, 60, 25}};
  const auto corpus = Unwrap(workload::GenerateCorpus(db.get(), options));
  EXPECT_EQ(corpus.num_articles, 30u);
  InvertedIndex index = Unwrap(InvertedIndex::Build(db.get()));
  EXPECT_EQ(index.TermFrequency("xalpha"), 50u);
  EXPECT_EQ(index.TermFrequency("xbeta"), 200u);
  EXPECT_EQ(index.TermFrequency("xgamma"), 7u);
  EXPECT_EQ(index.TermFrequency("xp1"), 40u);
  EXPECT_EQ(index.TermFrequency("xp2"), 60u);
}

TEST(IndexCorpusTest, GenerationIsDeterministic) {
  workload::CorpusOptions options;
  options.num_articles = 5;
  options.planted_terms = {{"xseed", 11}};

  auto build = [&](const std::string& dir) {
    auto db = MakeTestDatabase(dir, 256);
    Unwrap(workload::GenerateCorpus(db.get(), options));
    InvertedIndex index = Unwrap(InvertedIndex::Build(db.get()));
    const PostingList* list = Unwrap(index.Lookup("xseed"));
    return list->DecodeAll();
  };
  TempDir dir1, dir2;
  EXPECT_EQ(build(dir1.path()), build(dir2.path()));
}

TEST(IndexCorpusTest, OverfullPlantingRejected) {
  TempDir dir;
  auto db = MakeTestDatabase(dir.path(), 256);
  workload::CorpusOptions options;
  options.num_articles = 1;
  options.planted_terms = {{"xhuge", 1000000}};
  EXPECT_TRUE(
      workload::GenerateCorpus(db.get(), options).status().IsInvalidArgument());
}

}  // namespace
}  // namespace tix::index
