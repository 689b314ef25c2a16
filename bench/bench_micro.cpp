// Micro-benchmarks (google-benchmark) for the engine's building blocks:
// tokenizer, varint coding, buffer-pool fetch, posting merge,
// PhraseFinder stream, structural joins, Pick, and TermJoin on the
// paper example. These track regressions in the primitives the table
// benches are built from.
//
//   ./build/bench/bench_micro [--benchmark_filter=...]

#include <benchmark/benchmark.h>

#include <filesystem>

#include "algebra/pick.h"
#include "algebra/scoring.h"
#include "common/random.h"
#include "common/varint.h"
#include "exec/occurrence_stream.h"
#include "exec/parallel_term_join.h"
#include "exec/pick_operator.h"
#include "exec/structural_join.h"
#include "exec/term_join.h"
#include "index/inverted_index.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "text/tokenizer.h"
#include "workload/corpus.h"
#include "workload/paper_example.h"

namespace {

std::string TempDirFor(const char* name) {
  return std::string("/tmp/tix_micro_") + name;
}

// ------------------------------------------------------------- tokenizer

void BM_Tokenize(benchmark::State& state) {
  tix::Random rng(1);
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "word" + std::to_string(rng.NextUint32(1000));
    text += ' ';
  }
  const tix::text::Tokenizer tokenizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(text));
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_Tokenize);

void BM_StemWord(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(tix::text::StemWord("technologies"));
  }
}
BENCHMARK(BM_StemWord);

// ---------------------------------------------------------------- varint

void BM_VarintRoundTrip(benchmark::State& state) {
  std::string buffer;
  for (uint64_t i = 0; i < 1000; ++i) tix::PutVarint64(&buffer, i * 977);
  for (auto _ : state) {
    std::string_view view(buffer);
    uint64_t sum = 0;
    while (!view.empty()) {
      auto v = tix::GetVarint64(&view);
      sum += v.value();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_VarintRoundTrip);

// ----------------------------------------------------------- buffer pool

void BM_BufferPoolHit(benchmark::State& state) {
  const std::string dir = TempDirFor("pool");
  std::filesystem::create_directories(dir);
  auto file = std::move(
      tix::storage::PagedFile::Create(dir + "/f.tix")).value();
  tix::storage::BufferPool pool(64);
  {
    auto handle = std::move(pool.Fetch(file.get(), 0)).value();
    handle.MutableData()[0] = 1;
  }
  for (auto _ : state) {
    auto handle = pool.Fetch(file.get(), 0);
    benchmark::DoNotOptimize(handle.value().data());
  }
}
BENCHMARK(BM_BufferPoolHit);

// ------------------------------------------------ posting merge / phrase

void BM_PhraseFinderStream(benchmark::State& state) {
  // A rare anchor term against a frequent second term: the case where
  // galloping advance (arg 1) beats the linear merge (arg 0).
  const bool galloping = state.range(0) != 0;
  tix::index::PostingList list1;
  tix::index::PostingList list2;
  for (uint32_t i = 0; i < 200; ++i) {
    list1.postings.push_back({0, i, i * 500});
  }
  for (uint32_t i = 0; i < 100000; ++i) {
    list2.postings.push_back({0, i / 1000, i + (i % 500 == 1 ? 0 : 7)});
  }
  for (auto _ : state) {
    tix::exec::PhraseFinderStream stream({&list1, &list2}, galloping);
    size_t matches = 0;
    while (stream.Peek().has_value()) {
      ++matches;
      stream.Advance();
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * 100200);
}
BENCHMARK(BM_PhraseFinderStream)->Arg(0)->Arg(1);

// -------------------------------------------------------- paper example

struct PaperFixtureState {
  std::unique_ptr<tix::storage::Database> db;
  std::unique_ptr<tix::index::InvertedIndex> index;
  tix::algebra::IrPredicate predicate;

  PaperFixtureState() {
    const std::string dir = TempDirFor("paper");
    std::filesystem::create_directories(dir);
    db = std::move(tix::storage::Database::Create(dir)).value();
    tix::Status status = tix::workload::LoadPaperExample(db.get());
    if (!status.ok()) std::abort();
    index = std::make_unique<tix::index::InvertedIndex>(
        std::move(tix::index::InvertedIndex::Build(db.get())).value());
    predicate = tix::algebra::IrPredicate::FooStyle(
        {"search engine"}, {"internet", "information retrieval"});
  }
};

PaperFixtureState& PaperFixture() {
  static auto* const kState = new PaperFixtureState();
  return *kState;
}

void BM_TermJoinPaperExample(benchmark::State& state) {
  auto& fixture = PaperFixture();
  tix::algebra::WeightedCountScorer scorer(fixture.predicate.Weights());
  for (auto _ : state) {
    tix::exec::TermJoin join(fixture.db.get(), fixture.index.get(),
                             &fixture.predicate, &scorer);
    benchmark::DoNotOptimize(join.Run());
  }
}
BENCHMARK(BM_TermJoinPaperExample);

void BM_TagScanStructuralJoin(benchmark::State& state) {
  auto& fixture = PaperFixture();
  const auto sections =
      std::move(tix::exec::TagScan(fixture.db.get(), "section")).value();
  const auto paragraphs =
      std::move(tix::exec::TagScan(fixture.db.get(), "p")).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tix::exec::StackTreeAncPairs(sections, paragraphs));
  }
}
BENCHMARK(BM_TagScanStructuralJoin);

// --------------------------------------------- parallel TermJoin (threads)

// A corpus big enough that per-partition work dwarfs thread setup.
struct ParallelFixtureState {
  std::unique_ptr<tix::storage::Database> db;
  std::unique_ptr<tix::index::InvertedIndex> index;
  tix::algebra::IrPredicate term_predicate;
  tix::algebra::IrPredicate phrase_predicate;

  ParallelFixtureState() {
    const std::string dir = TempDirFor("parallel");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    db = std::move(tix::storage::Database::Create(dir)).value();
    tix::workload::CorpusOptions options;
    options.num_articles = 300;
    options.vocabulary_size = 2000;
    options.planted_terms = {{"xq1", 6000}, {"xq2", 3000}};
    options.planted_phrases = {{"xpa", "xpb", 4000, 3000, 1500}};
    if (!tix::workload::GenerateCorpus(db.get(), options).ok()) std::abort();
    index = std::make_unique<tix::index::InvertedIndex>(
        std::move(tix::index::InvertedIndex::Build(db.get())).value());
    term_predicate.phrases.push_back(
        tix::algebra::WeightedPhrase{{"xq1"}, 0.8});
    term_predicate.phrases.push_back(
        tix::algebra::WeightedPhrase{{"xq2"}, 0.6});
    phrase_predicate.phrases.push_back(
        tix::algebra::WeightedPhrase{{"xpa", "xpb"}, 0.8});
    phrase_predicate.phrases.push_back(
        tix::algebra::WeightedPhrase{{"xq2"}, 0.6});
  }
};

ParallelFixtureState& ParallelFixture() {
  static auto* const kState = new ParallelFixtureState();
  return *kState;
}

void RunParallelJoin(benchmark::State& state,
                     const tix::algebra::IrPredicate& predicate,
                     bool enhanced) {
  auto& fixture = ParallelFixture();
  const size_t threads = static_cast<size_t>(state.range(0));
  const tix::algebra::ComplexProximityScorer scorer(predicate.Weights());
  size_t outputs = 0;
  for (auto _ : state) {
    tix::exec::ParallelTermJoinOptions options;
    options.join.enhanced = enhanced;
    // threads == 1 takes the serial fast path: the baseline row.
    options.num_threads = threads <= 1 ? 0 : threads;
    options.num_partitions = threads <= 1 ? 0 : threads;
    tix::exec::ParallelTermJoin join(fixture.db.get(), fixture.index.get(),
                                     &predicate, &scorer, options);
    auto result = join.Run();
    if (!result.ok()) std::abort();
    outputs = result.value().size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * outputs));
}

void BM_ParallelTermJoin(benchmark::State& state) {
  RunParallelJoin(state, ParallelFixture().term_predicate,
                  /*enhanced=*/false);
}
BENCHMARK(BM_ParallelTermJoin)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelTermJoinEnhanced(benchmark::State& state) {
  RunParallelJoin(state, ParallelFixture().term_predicate,
                  /*enhanced=*/true);
}
BENCHMARK(BM_ParallelTermJoinEnhanced)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// PhraseFinder streams (skip-block + adjacency verification) inside the
// partitioned merge.
void BM_ParallelPhraseFinderJoin(benchmark::State& state) {
  RunParallelJoin(state, ParallelFixture().phrase_predicate,
                  /*enhanced=*/false);
}
BENCHMARK(BM_ParallelPhraseFinderJoin)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------------ pick

void BM_PickOperator(benchmark::State& state) {
  const int64_t size = state.range(0);
  tix::Random rng(7);
  std::vector<tix::exec::PickEntry> entries;
  uint16_t level = 0;
  entries.push_back({0, 0, rng.NextDouble() * 2});
  for (int64_t i = 1; i < size; ++i) {
    const double r = rng.NextDouble();
    if (level < 12 && r < 0.45) {
      ++level;
    } else if (r >= 0.75) {
      level = level > 2 ? static_cast<uint16_t>(level - 2) : 1;
    } else if (level == 0) {
      level = 1;
    }
    entries.push_back({static_cast<tix::storage::NodeId>(i), level,
                       rng.NextDouble() * 2});
  }
  const tix::algebra::PickFooCriterion criterion;
  for (auto _ : state) {
    tix::exec::PickOperator pick(&criterion);
    benchmark::DoNotOptimize(pick.Run(entries));
  }
  state.SetItemsProcessed(state.iterations() * size);
}
BENCHMARK(BM_PickOperator)->Arg(1000)->Arg(10000);

// ------------------------------------------------------------- histogram

void BM_ScoreHistogram(benchmark::State& state) {
  tix::Random rng(3);
  std::vector<double> scores;
  for (int i = 0; i < 10000; ++i) scores.push_back(rng.NextDouble() * 10);
  for (auto _ : state) {
    tix::algebra::ScoreHistogram histogram(scores, 64);
    benchmark::DoNotOptimize(histogram.ThresholdForTopFraction(0.1));
  }
}
BENCHMARK(BM_ScoreHistogram);

}  // namespace

BENCHMARK_MAIN();
