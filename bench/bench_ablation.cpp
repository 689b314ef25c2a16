// Ablation: WHY the stack-based access methods win. Reports the storage
// counters (record fetches, buffer-pool accesses) and operator counters
// behind the Table 1/2/5 results, mirroring the paper's Sec. 5/6
// arguments:
//   * TermJoin shares ancestor work on its stack — record fetches per
//     occurrence stay near 1; Generalized Meet re-walks the chain.
//   * Enhanced TermJoin eliminates child-count navigation entirely.
//   * Comp2's cost is the full table scans, not the join.
//   * Comp3 materializes an intersection and re-reads stored text;
//     PhraseFinder touches postings only.
//
//   ./build/bench/bench_ablation [--articles=3000] [--freq=3000]

#include <cstdio>

#include "bench/bench_corpus.h"
#include "bench/bench_util.h"
#include "bench/table_runner.h"
#include "exec/occurrence_stream.h"
#include "exec/phrase_query.h"

int main(int argc, char** argv) {
  using namespace tix::bench;
  const Flags flags(argc, argv);
  const uint64_t articles = flags.GetInt("articles", 3000);
  const uint64_t freq = flags.GetInt("freq", 3000);
  const std::string dir = flags.GetString("data-dir", "/tmp/tix_bench");

  auto env_result = GetOrBuildBenchEnv(dir, articles, flags.GetInt("seed", 42));
  if (!env_result.ok()) {
    std::fprintf(stderr, "%s\n", env_result.status().ToString().c_str());
    return 1;
  }
  BenchEnv env = std::move(env_result).value();
  tix::storage::Database& db = *env.db;

  const tix::algebra::IrPredicate predicate =
      TwoTermPredicate(Table1Term(1, freq), Table1Term(2, freq));
  const uint64_t actual_freq =
      env.index->TermFrequency(Table1Term(1, freq));

  std::printf(
      "Ablation — two terms of frequency ~%llu, complex scoring, %llu "
      "nodes\n\n",
      static_cast<unsigned long long>(actual_freq),
      static_cast<unsigned long long>(db.num_nodes()));
  std::printf("%-18s %14s %14s %14s %12s\n", "method", "rec.fetches",
              "fetch/occ", "pool misses", "outputs");
  PrintRule(78);

  const auto scorer = MakeScorer(predicate, /*complex=*/true);
  const uint64_t occurrences = 2 * actual_freq;

  auto report = [&](const char* name, uint64_t fetches, uint64_t misses,
                    uint64_t outputs) {
    std::printf("%-18s %14llu %14.2f %14llu %12llu\n", name,
                static_cast<unsigned long long>(fetches),
                static_cast<double>(fetches) /
                    static_cast<double>(occurrences),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(outputs));
  };

  {
    db.buffer_pool().ResetStats();
    tix::exec::TermJoin method(&db, env.index.get(), &predicate,
                               scorer.get());
    auto result = method.Run();
    if (!result.ok()) return 1;
    report("TermJoin", method.stats().record_fetches,
           db.buffer_pool().stats().misses, method.stats().outputs);
  }
  {
    db.buffer_pool().ResetStats();
    tix::exec::TermJoinOptions options;
    options.enhanced = true;
    tix::exec::TermJoin method(&db, env.index.get(), &predicate,
                               scorer.get(), options);
    auto result = method.Run();
    if (!result.ok()) return 1;
    report("Enhanced TermJoin", method.stats().record_fetches,
           db.buffer_pool().stats().misses, method.stats().outputs);
  }
  {
    db.buffer_pool().ResetStats();
    tix::exec::GeneralizedMeet method(&db, env.index.get(), &predicate,
                                      scorer.get());
    auto result = method.Run();
    if (!result.ok()) return 1;
    report("Generalized Meet", method.stats().record_fetches,
           db.buffer_pool().stats().misses, method.stats().outputs);
  }
  {
    db.buffer_pool().ResetStats();
    tix::exec::Comp1 method(&db, env.index.get(), &predicate, scorer.get());
    auto result = method.Run();
    if (!result.ok()) return 1;
    report("Comp1", method.stats().record_fetches,
           db.buffer_pool().stats().misses, method.stats().outputs);
    std::printf("%-18s %14llu (generic set-union witness comparisons)\n", "",
                static_cast<unsigned long long>(
                    method.stats().union_comparisons));
  }
  {
    db.buffer_pool().ResetStats();
    tix::exec::Comp2 method(&db, env.index.get(), &predicate, scorer.get());
    auto result = method.Run();
    if (!result.ok()) return 1;
    report("Comp2", method.stats().record_fetches,
           db.buffer_pool().stats().misses, method.stats().outputs);
    std::printf("%-18s %14llu (node-table records scanned)\n", "",
                static_cast<unsigned long long>(
                    method.stats().scanned_records));
  }

  std::printf("\nPhrase matching (Table 5 query 1 profile):\n");
  std::printf("%-18s %14s %14s %14s %12s\n", "method", "postings",
              "candidates", "text bytes", "outputs");
  PrintRule(78);
  const std::vector<std::string> phrase = {Table5Term(1, 1),
                                           Table5Term(1, 2)};
  {
    tix::exec::PhraseFinderQuery method(&db, env.index.get(), phrase);
    auto result = method.Run();
    if (!result.ok()) return 1;
    std::printf("%-18s %14llu %14s %14s %12llu\n", "PhraseFinder",
                static_cast<unsigned long long>(
                    method.stats().postings_scanned),
                "-", "-",
                static_cast<unsigned long long>(method.stats().outputs));
  }
  {
    tix::exec::Comp3 method(&db, env.index.get(), phrase);
    auto result = method.Run();
    if (!result.ok()) return 1;
    std::printf("%-18s %14llu %14llu %14llu %12llu\n", "Comp3",
                static_cast<unsigned long long>(
                    method.stats().postings_scanned),
                static_cast<unsigned long long>(method.stats().candidates),
                static_cast<unsigned long long>(
                    method.stats().text_bytes_fetched),
                static_cast<unsigned long long>(method.stats().outputs));
  }
  // Galloping vs linear posting advance inside PhraseFinder (extension;
  // the most unbalanced Table 5 pair shows the effect best).
  {
    auto first = env.index->Lookup(Table5Term(1, 1));
    auto second = env.index->Lookup(Table5Term(1, 2));
    if (!first.ok() || !second.ok()) return 1;
    std::vector<const tix::index::PostingList*> lists = {*first, *second};
    tix::exec::PhraseFinderStream linear(lists, /*galloping=*/false);
    while (linear.Peek().has_value()) linear.Advance();
    tix::exec::PhraseFinderStream galloping(lists, /*galloping=*/true);
    while (galloping.Peek().has_value()) galloping.Advance();
    std::printf(
        "\nPhraseFinder advance (query 1): linear scans %llu postings, "
        "galloping %llu\n",
        static_cast<unsigned long long>(linear.postings_scanned()),
        static_cast<unsigned long long>(galloping.postings_scanned()));
  }
  return 0;
}
