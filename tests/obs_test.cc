// Per-query observability: MetricsContext charging/chaining, the
// OperatorSpan tree builder, the EXPLAIN renderers, the engine's plan
// output, and — the regression this layer exists for — two queries
// running concurrently each seeing exactly their own storage costs.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/obs.h"
#include "index/inverted_index.h"
#include "query/engine.h"
#include "tests/test_util.h"
#include "workload/paper_example.h"

namespace tix::obs {
namespace {

using testing::ExpectOk;
using testing::MakeTestDatabase;
using testing::TempDir;
using testing::Unwrap;

// --------------------------------------------------------- MetricsContext

TEST(MetricsContextTest, AddChargesSelfAndAncestors) {
  MetricsContext grandparent;
  MetricsContext parent(&grandparent);
  MetricsContext child(&parent);

  child.Add(Counter::kRecordFetches, 3);
  parent.Add(Counter::kRecordFetches, 2);
  grandparent.Add(Counter::kBlobReads, 1);

  EXPECT_EQ(child.value(Counter::kRecordFetches), 3u);
  EXPECT_EQ(parent.value(Counter::kRecordFetches), 5u);
  EXPECT_EQ(grandparent.value(Counter::kRecordFetches), 5u);
  EXPECT_EQ(child.value(Counter::kBlobReads), 0u);
  EXPECT_EQ(grandparent.value(Counter::kBlobReads), 1u);
}

TEST(MetricsContextTest, CountIsNoOpWithoutContext) {
  ASSERT_EQ(CurrentMetrics(), nullptr);
  Count(Counter::kRecordFetches);  // must not crash
  EXPECT_EQ(CurrentMetrics(), nullptr);
}

TEST(MetricsContextTest, ScopedMetricsInstallsAndRestores) {
  MetricsContext outer;
  MetricsContext inner;
  ASSERT_EQ(CurrentMetrics(), nullptr);
  {
    ScopedMetrics outer_scope(&outer);
    EXPECT_EQ(CurrentMetrics(), &outer);
    Count(Counter::kIndexLookups, 2);
    {
      ScopedMetrics inner_scope(&inner);
      EXPECT_EQ(CurrentMetrics(), &inner);
      Count(Counter::kIndexLookups);
    }
    EXPECT_EQ(CurrentMetrics(), &outer);
  }
  EXPECT_EQ(CurrentMetrics(), nullptr);
  // `inner` was not parented to `outer`, so its count stays local.
  EXPECT_EQ(outer.value(Counter::kIndexLookups), 2u);
  EXPECT_EQ(inner.value(Counter::kIndexLookups), 1u);
}

TEST(MetricsContextTest, ConcurrentChargesToOneContext) {
  MetricsContext shared;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&shared] {
      ScopedMetrics scope(&shared);
      for (int i = 0; i < kPerThread; ++i) Count(Counter::kRecordFetches);
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(shared.value(Counter::kRecordFetches),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsContextTest, CounterNamesAreStable) {
  EXPECT_STREQ(CounterName(Counter::kRecordFetches), "record_fetches");
  EXPECT_STREQ(CounterName(Counter::kBlobReads), "blob_reads");
  EXPECT_STREQ(CounterName(Counter::kTextBytesRead), "text_bytes_read");
  EXPECT_STREQ(CounterName(Counter::kIndexLookups), "index_lookups");
}

// ----------------------------------------------------------- OperatorSpan

TEST(OperatorSpanTest, DisabledSpanIsInert) {
  OperatorSpan span(nullptr, "TermJoin");
  EXPECT_FALSE(span.enabled());
  EXPECT_EQ(span.context(), nullptr);
  EXPECT_EQ(span.mutable_node(), nullptr);
  span.set_rows(7);
  span.SetCounter("whatever", 1);
  EXPECT_EQ(span.Finish(), nullptr);
  EXPECT_EQ(CurrentMetrics(), nullptr);
}

TEST(OperatorSpanTest, BuildsTreeWithCountersAndTime) {
  OperatorMetrics root;
  root.name = "Query";
  {
    OperatorSpan join_span(&root, "TermJoin", "plain");
    Count(Counter::kRecordFetches, 10);
    Count(Counter::kTextBytesRead, 256);
    join_span.set_rows(42);
    join_span.SetCounter("stack_pushes", 5);
  }
  {
    OperatorSpan threshold_span(&root, "Threshold");
    threshold_span.set_rows(3);
  }
  ASSERT_EQ(root.children.size(), 2u);
  const OperatorMetrics& join = root.children[0];
  EXPECT_EQ(join.name, "TermJoin");
  EXPECT_EQ(join.detail, "plain");
  EXPECT_EQ(join.rows, 42u);
  EXPECT_GE(join.seconds, 0.0);
  EXPECT_EQ(join.GetCounter("record_fetches"), 10u);
  EXPECT_EQ(join.GetCounter("text_bytes_read"), 256u);
  EXPECT_EQ(join.GetCounter("stack_pushes"), 5u);
  EXPECT_EQ(join.GetCounter("blob_reads"), 0u);  // zero counters omitted
  EXPECT_EQ(root.children[1].name, "Threshold");
  EXPECT_EQ(root.children[1].rows, 3u);
}

TEST(OperatorSpanTest, NestedSpansRollUpToAncestors) {
  MetricsContext query;
  ScopedMetrics query_scope(&query);
  OperatorMetrics root;
  {
    OperatorSpan outer(&root, "Scope");
    Count(Counter::kRecordFetches, 1);
    {
      OperatorSpan inner(outer.mutable_node(), "SemiJoin");
      Count(Counter::kRecordFetches, 4);
    }
  }
  ASSERT_EQ(root.children.size(), 1u);
  const OperatorMetrics& outer_node = root.children[0];
  ASSERT_EQ(outer_node.children.size(), 1u);
  // Inner work is charged to the inner node, the outer node, and the
  // ambient query context.
  EXPECT_EQ(outer_node.children[0].GetCounter("record_fetches"), 4u);
  EXPECT_EQ(outer_node.GetCounter("record_fetches"), 5u);
  EXPECT_EQ(query.value(Counter::kRecordFetches), 5u);
}

TEST(OperatorMetricsTest, SetCounterOverwrites) {
  OperatorMetrics node;
  node.SetCounter("pushed", 1);
  node.SetCounter("pushed", 9);
  EXPECT_EQ(node.GetCounter("pushed"), 9u);
  EXPECT_EQ(node.counters.size(), 1u);
  EXPECT_EQ(node.GetCounter("absent"), 0u);
}

// -------------------------------------------------------------- Renderers

OperatorMetrics SampleTree() {
  OperatorMetrics root;
  root.name = "Query";
  root.detail = "select";
  root.seconds = 0.25;
  root.rows = 3;
  root.SetCounter("record_fetches", 12);
  OperatorMetrics child;
  child.name = "TermJoin";
  child.detail = "threads=2";
  child.rows = 40;
  root.AddChild(std::move(child));
  return root;
}

TEST(RenderTest, TextContainsTreeStructure) {
  const std::string text = RenderText(SampleTree());
  EXPECT_NE(text.find("Query (select)"), std::string::npos);
  EXPECT_NE(text.find("rows=3"), std::string::npos);
  EXPECT_NE(text.find("record_fetches=12"), std::string::npos);
  EXPECT_NE(text.find("TermJoin (threads=2)"), std::string::npos);
}

TEST(RenderTest, JsonHasDocumentedSchema) {
  const std::string json = RenderJson(SampleTree());
  EXPECT_NE(json.find("\"name\": \"Query\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\": \"select\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"record_fetches\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"TermJoin\""), std::string::npos);
}

// ------------------------------------------------------------ Engine plan

class EnginePlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase(dir_.path());
    ExpectOk(workload::LoadPaperExample(db_.get()));
    index_ = std::make_unique<index::InvertedIndex>(
        Unwrap(index::InvertedIndex::Build(db_.get())));
  }

  query::QueryOutput Run(const std::string& text,
                         query::EngineOptions options = {}) {
    query::QueryEngine engine(db_.get(), index_.get(), options);
    return Unwrap(engine.ExecuteText(text));
  }

  static const OperatorMetrics* FindNode(const OperatorMetrics& root,
                                         const std::string& name) {
    if (root.name == name) return &root;
    for (const OperatorMetrics& child : root.children) {
      if (const OperatorMetrics* found = FindNode(child, name)) return found;
    }
    return nullptr;
  }

  TempDir dir_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<index::InvertedIndex> index_;
};

constexpr char kScoredQuery[] = R"(
    FOR $a IN document("articles.xml")//article//*
    SCORE $a USING foo({"search engine"},
                       {"internet", "information retrieval"})
    THRESHOLD STOP AFTER 3
    RETURN $a)";

// The `//*` anchor step reads every record of the document to tell
// elements from text, so this query's fetches come from structural
// matching; scoring itself reads only the resident columns.
constexpr char kFetchingScoredQuery[] = R"(
    FOR $a IN document("articles.xml")//*//*
    SCORE $a USING foo({"search engine"},
                       {"internet", "information retrieval"})
    THRESHOLD STOP AFTER 3
    RETURN $a)";

TEST_F(EnginePlanTest, NoPlanByDefault) {
  const query::QueryOutput output = Run(kScoredQuery);
  EXPECT_FALSE(output.plan.has_value());
}

TEST_F(EnginePlanTest, ScoredQueryPlanTree) {
  query::EngineOptions options;
  options.collect_metrics = true;
  const query::QueryOutput output = Run(kFetchingScoredQuery, options);
  ASSERT_TRUE(output.plan.has_value());
  const OperatorMetrics& plan = *output.plan;
  EXPECT_EQ(plan.name, "Query");
  EXPECT_EQ(plan.detail, "select");
  EXPECT_EQ(plan.rows, output.stats.returned);
  EXPECT_GT(plan.seconds, 0.0);
  // The root rolls up every storage fetch of the whole execution.
  EXPECT_GT(plan.GetCounter("record_fetches"), 0u);

  const OperatorMetrics* match = FindNode(plan, "StructuralMatch");
  ASSERT_NE(match, nullptr);
  EXPECT_GT(match->GetCounter("record_fetches"), 0u);
  const OperatorMetrics* join = FindNode(plan, "TermJoin");
  ASSERT_NE(join, nullptr);
  EXPECT_GT(join->rows, 0u);
  // Enhanced TermJoin answers ancestors and child counts from the
  // resident columns: scoring fetches no records.
  EXPECT_EQ(join->GetCounter("record_fetches"), 0u);
  const OperatorMetrics* threshold = FindNode(plan, "Threshold");
  ASSERT_NE(threshold, nullptr);
  EXPECT_EQ(threshold->rows, 3u);
  EXPECT_GT(threshold->GetCounter("pushed"), 0u);
  // Operator counters are a partition of (at most) the root's rollup.
  EXPECT_LE(match->GetCounter("record_fetches"),
            plan.GetCounter("record_fetches"));
}

TEST_F(EnginePlanTest, ParallelPlanHasPartitionChildren) {
  query::EngineOptions options;
  options.collect_metrics = true;
  options.num_threads = 2;
  const query::QueryOutput output = Run(kScoredQuery, options);
  ASSERT_TRUE(output.plan.has_value());
  const OperatorMetrics* join = FindNode(*output.plan, "ParallelTermJoin");
  ASSERT_NE(join, nullptr);
  EXPECT_NE(join->detail.find("threads=2"), std::string::npos);
  ASSERT_FALSE(join->children.empty());
  // No partition of the Enhanced TermJoin fetches a record.
  EXPECT_EQ(join->GetCounter("record_fetches"), 0u);
  for (const OperatorMetrics& partition : join->children) {
    EXPECT_EQ(partition.name, "TermJoin");
    EXPECT_NE(partition.detail.find("partition"), std::string::npos);
    EXPECT_EQ(partition.GetCounter("record_fetches"), 0u);
  }
}

TEST_F(EnginePlanTest, CollectingMetricsDoesNotChangeResults) {
  const query::QueryOutput plain = Run(kScoredQuery);
  query::EngineOptions options;
  options.collect_metrics = true;
  const query::QueryOutput collected = Run(kScoredQuery, options);
  ASSERT_EQ(plain.results.size(), collected.results.size());
  for (size_t i = 0; i < plain.results.size(); ++i) {
    EXPECT_EQ(plain.results[i].node, collected.results[i].node);
    EXPECT_DOUBLE_EQ(plain.results[i].score, collected.results[i].score);
  }
  EXPECT_EQ(plain.stats.anchors, collected.stats.anchors);
  EXPECT_EQ(plain.stats.scored_elements, collected.stats.scored_elements);
}

// ------------------------------------------- concurrent-query regression

// The bug this layer fixes: operator stats were computed by diffing a
// process-global counter, so two overlapping queries charged each other
// for their record fetches. With per-query contexts, each concurrent
// run must report exactly the counts of its serial run.
TEST_F(EnginePlanTest, ConcurrentQueriesSeeOnlyTheirOwnFetches) {
  const std::vector<std::string> queries = {
      kFetchingScoredQuery,
      // The author predicate reads text records, so this query's fetch
      // count differs from the first one's.
      R"(FOR $a IN document("articles.xml")//article[author/sname = "Doe"]//*
         SCORE $a USING bm25({"search engine"}, {"internet"})
         THRESHOLD STOP AFTER 5
         RETURN $a)",
  };

  query::EngineOptions options;
  options.collect_metrics = true;

  std::vector<uint64_t> serial_fetches;
  std::vector<size_t> serial_results;
  for (const std::string& text : queries) {
    const query::QueryOutput output = Run(text, options);
    ASSERT_TRUE(output.plan.has_value());
    serial_fetches.push_back(output.plan->GetCounter("record_fetches"));
    serial_results.push_back(output.results.size());
    EXPECT_GT(serial_fetches.back(), 0u);
  }
  // Distinct costs, so cross-contamination cannot cancel out.
  ASSERT_NE(serial_fetches[0], serial_fetches[1]);

  constexpr int kIterations = 8;
  std::vector<std::thread> workers;
  std::vector<std::string> failures(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    workers.emplace_back([&, q] {
      query::QueryEngine engine(db_.get(), index_.get(), options);
      for (int i = 0; i < kIterations; ++i) {
        auto result = engine.ExecuteText(queries[q]);
        if (!result.ok()) {
          failures[q] = result.status().ToString();
          return;
        }
        const query::QueryOutput& output = result.value();
        if (!output.plan.has_value() ||
            output.plan->GetCounter("record_fetches") != serial_fetches[q] ||
            output.results.size() != serial_results[q]) {
          failures[q] = "query " + std::to_string(q) + " iteration " +
                        std::to_string(i) + ": got " +
                        std::to_string(output.plan.has_value()
                                           ? output.plan->GetCounter(
                                                 "record_fetches")
                                           : 0) +
                        " fetches, want " +
                        std::to_string(serial_fetches[q]);
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
}

}  // namespace
}  // namespace tix::obs
