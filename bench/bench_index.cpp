// Block-compressed posting lists: resident bytes per posting against
// the decoded baseline (the headline >= 3x reduction), raw lazy-decode
// throughput, decoded-block cache hit rates, and TermJoin wall-clock on
// the compressed index versus the decoded one — verified
// element-for-element before any timing. Emits BENCH_index.json next to
// the printed tables.
//
//   ./build/bench/bench_index [--articles=3000] [--runs=3]
//                             [--data-dir=/tmp/tix_bench]
//                             [--out=BENCH_index.json]
//
// The wall-clock sweep times three term selectivities twice on the
// compressed index: cold (cache cleared every run — every block load is
// a varint decode) and warm (cache kept — steady-state of a resident
// server). The contract is that warm compressed joins do not regress
// against the decoded baseline while holding >= 3x less posting memory.
//
// The decode-kernel section saves the same index as format v3 (LEB128
// tails) and v4 (StreamVByte-style control/data split) and times a full
// tail-decode sweep for each format × kernel pair that exists (v3
// scalar, v4 scalar, v4 SSSE3 shuffle when the CPU supports it), plus a
// cold BlockCursor scan per pair with the decoded-block cache off.
// Every kernel's decoded output is compared byte-for-byte against the
// scalar reference before any timing counts, and the bench self-gates
// on the best kernel reaching >= 1.5x the scalar v3 baseline.
//
// The open-time section builds a second corpus at `--open-scale`x (10x
// by default) the article count and times three ways of opening its
// index file: "copy" (prefer_mmap off — the full read+scrub path every
// pre-mmap release paid), "verify" (mmap plus the integrity scrub, what
// `tix_cli verify` runs) and "trust" (mmap with verify_on_open off,
// what a tixd restart runs). Query results on the trust-opened index
// are compared element-for-element against the copy-opened one before
// any timing counts, and the bench self-gates on trust-open being at
// least 5x faster than copy-open.
//
// Both gated sections keep each cell's fastest of a fixed floor of
// timed runs, whatever --runs says (50 tail sweeps per kernel cell, in
// interleaved rounds; 30 opens per mode), so a --runs=1 smoke on a
// shared host passes or fails on the code, not on one unlucky reading.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <malloc.h>
#include <string>
#include <vector>

#include "algebra/scoring.h"
#include "bench/bench_corpus.h"
#include "bench/bench_util.h"
#include "bench/table_runner.h"
#include "common/block_codec.h"
#include "common/obs.h"
#include "common/timer.h"
#include "exec/term_join.h"
#include "index/block_cache.h"
#include "index/block_cursor.h"
#include "index/inverted_index.h"
#include "storage/mapped_file.h"

namespace {

/// Timed runs of each gated cell, whatever --runs says: one ~1.5 ms
/// decode reading on a shared host misses its gate now and then. Decode
/// cells are short, so they take more runs than opens.
constexpr int kDecodeRounds = 50;
constexpr int kOpenRuns = 30;

struct Cell {
  uint64_t freq = 0;
  double decoded_seconds = 0;
  double cold_seconds = 0;
  double warm_seconds = 0;
  uint64_t blocks_decoded_cold = 0;
  uint64_t cache_hits_warm = 0;
  size_t results = 0;
};

struct OpenCell {
  const char* mode = "";
  bool prefer_mmap = false;
  bool verify = false;
  double seconds = std::numeric_limits<double>::infinity();
  uint64_t bytes_read = 0;    // copied through read(2)
  uint64_t bytes_mapped = 0;  // served from the mapping
  uint64_t resident_bytes = 0;
  uint64_t mapped_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  // Large buffers go back to the kernel when freed, so every timed open
  // pays for the memory it touches, as an open in a fresh process does,
  // instead of reusing the heap pages the previous repetition faulted in.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  using namespace tix::bench;
  const Flags flags(argc, argv);
  const uint64_t articles = flags.GetInt("articles", 3000);
  const int runs = static_cast<int>(flags.GetInt("runs", 3));
  const std::string dir = flags.GetString("data-dir", "/tmp/tix_bench");
  const std::string out = flags.GetString("out", "BENCH_index.json");

  auto env_result = GetOrBuildBenchEnv(dir, articles, flags.GetInt("seed", 42));
  if (!env_result.ok()) {
    std::fprintf(stderr, "%s\n", env_result.status().ToString().c_str());
    return 1;
  }
  BenchEnv env = std::move(env_result).value();

  // The decoded baseline: same corpus, postings left as flat vectors.
  auto decoded_result =
      tix::index::InvertedIndex::Build(env.db.get(), /*compress=*/false);
  if (!decoded_result.ok()) {
    std::fprintf(stderr, "%s\n",
                 decoded_result.status().ToString().c_str());
    return 1;
  }
  const tix::index::InvertedIndex decoded = std::move(decoded_result).value();
  tix::index::DecodedBlockCache& cache =
      tix::index::DecodedBlockCache::Instance();

  // ---------------------------------------------------------- residency
  const tix::index::IndexResidency rc = env.index->MemoryUsage();
  const tix::index::IndexResidency rd = decoded.MemoryUsage();
  // A reused corpus dir serves its block bytes from the mmap, where
  // MemoryUsage reports them as mapped rather than resident; for the
  // compression figure they are posting storage either way.
  const uint64_t rc_posting_bytes = rc.postings_bytes + rc.mapped_bytes;
  const double rc_bytes_per_posting =
      rc.num_postings > 0 ? static_cast<double>(rc_posting_bytes) /
                                static_cast<double>(rc.num_postings)
                          : 0.0;
  const double reduction =
      rc_bytes_per_posting > 0
          ? rd.posting_bytes_per_posting() / rc_bytes_per_posting
          : 0.0;
  std::printf(
      "Block-compressed posting lists — residency, decode rate, TermJoin\n"
      "corpus: %llu articles, %llu nodes, %llu postings\n\n",
      static_cast<unsigned long long>(env.num_articles),
      static_cast<unsigned long long>(env.db->num_nodes()),
      static_cast<unsigned long long>(rc.num_postings));
  std::printf("%12s | %14s %14s | %10s\n", "", "bytes/posting",
              "posting bytes", "total");
  PrintRule(60);
  std::printf("%12s | %14.2f %14llu | %10llu\n", "decoded",
              rd.posting_bytes_per_posting(),
              static_cast<unsigned long long>(rd.postings_bytes),
              static_cast<unsigned long long>(rd.total_bytes()));
  std::printf("%12s | %14.2f %14llu | %10llu\n", "compressed",
              rc_bytes_per_posting,
              static_cast<unsigned long long>(rc_posting_bytes),
              static_cast<unsigned long long>(rc.total_bytes() +
                                              rc.mapped_bytes));
  std::printf("%12s | %13.2fx\n\n", "reduction", reduction);

  // ------------------------------------------------- decode throughput
  // Full sweep of every block of every list with the cache off: pure
  // varint+delta decode speed, reported as GB/s of produced postings.
  cache.Configure(0);
  cache.Clear();
  const double decode_seconds = Measure(
      [&]() -> tix::Status {
        uint64_t touched = 0;
        for (tix::text::TermId id = 0;
             id < env.index->stats().num_terms; ++id) {
          tix::index::BlockCursor cursor(env.index->LookupId(id));
          for (size_t i = 0; i < cursor.size(); ++i) {
            touched += cursor.Get(i).word_pos;
          }
        }
        if (touched == UINT64_MAX) return tix::Status::Internal("sink");
        return tix::Status();
      },
      runs);
  const double decoded_bytes = static_cast<double>(rc.num_postings) *
                               sizeof(tix::index::Posting);
  const double decode_gbps =
      decode_seconds > 0 ? decoded_bytes / decode_seconds / 1e9 : 0.0;
  std::printf("lazy decode sweep: %.4f s for %llu postings -> %.2f GB/s\n\n",
              decode_seconds,
              static_cast<unsigned long long>(rc.num_postings), decode_gbps);

  // ---------------------------------------------- decode kernel sweep
  // The same index saved as v3 and v4, every block tail decoded straight
  // through DecodeBlockTailWithKernel: v3 by the scalar kernel (the only
  // one it has), v4 by each kernel the CPU supports.
  // Correctness first: each kernel's decoded triples must be
  // byte-identical to the scalar reference on every block of every list.
  struct KernelCell {
    int version = 0;
    tix::codec::DecodeKernel kernel = tix::codec::DecodeKernel::kScalar;
    const tix::index::InvertedIndex* index = nullptr;
    double tail_seconds = std::numeric_limits<double>::infinity();
    double gbps = 0;
    double mpostings_per_second = 0;
    double cursor_seconds = 0;
  };
  std::vector<KernelCell> kernel_cells;
  std::vector<tix::codec::DecodeKernel> kernels;
  for (const tix::codec::DecodeKernel kernel :
       {tix::codec::DecodeKernel::kScalar, tix::codec::DecodeKernel::kSimd}) {
    if (tix::codec::DecodeKernelAvailable(kernel)) kernels.push_back(kernel);
  }
  const tix::codec::DecodeKernel restore_kernel =
      tix::codec::ActiveDecodeKernel();
  bool decode_identical = true;

  // One pass over every block of `index` calling `fn(tail, count, buf)`
  // with the block head staged in buf[0..2].
  auto for_each_block = [](const tix::index::InvertedIndex& index,
                           auto&& fn) -> tix::Status {
    alignas(64) uint32_t buf[3 * tix::index::kSkipInterval];
    for (tix::text::TermId id = 0; id < index.stats().num_terms; ++id) {
      const tix::index::PostingList* list = index.LookupId(id);
      if (list == nullptr || !list->is_compressed()) continue;
      const std::string_view bytes = list->block_bytes();
      for (uint32_t b = 0; b < list->num_blocks(); ++b) {
        const tix::index::SkipEntry& skip = list->skips[b];
        buf[0] = skip.doc_id;
        buf[1] = skip.first_node;
        buf[2] = skip.word_pos;
        tix::Status status =
            fn(bytes.substr(skip.byte_offset, skip.byte_length),
               list->BlockPostingCount(b), buf);
        if (!status.ok()) return status;
      }
    }
    return tix::Status();
  };

  std::vector<tix::index::InvertedIndex> format_indexes;
  format_indexes.reserve(2);  // cells point into it
  for (const int version : {3, 4}) {
    const std::string format_path =
        dir + "/index_v" + std::to_string(version) + ".tix";
    if (tix::Status saved = env.index->SaveToFile(format_path, version);
        !saved.ok()) {
      std::fprintf(stderr, "save v%d: %s\n", version,
                   saved.ToString().c_str());
      return 1;
    }
    auto format_result = tix::index::InvertedIndex::LoadFromFile(format_path);
    if (!format_result.ok()) {
      std::fprintf(stderr, "load v%d: %s\n", version,
                   format_result.status().ToString().c_str());
      return 1;
    }
    format_indexes.push_back(std::move(format_result).value());
    const tix::index::InvertedIndex& format_index = format_indexes.back();
    const tix::codec::TailFormat format = format_index.tail_format();

    for (const tix::codec::DecodeKernel kernel : kernels) {
      if (version == 3 && kernel != tix::codec::DecodeKernel::kScalar) {
        continue;
      }
      // Byte-equality self-check against the scalar reference.
      if (kernel != tix::codec::DecodeKernel::kScalar) {
        alignas(64) uint32_t ref[3 * tix::index::kSkipInterval];
        tix::Status checked = for_each_block(
            format_index,
            [&](std::string_view tail, uint32_t count,
                uint32_t* buf) -> tix::Status {
              std::memcpy(ref, buf, 3 * sizeof(uint32_t));
              tix::Status rs = tix::codec::DecodeBlockTailWithKernel(
                  format, tix::codec::DecodeKernel::kScalar, tail, count, ref);
              if (!rs.ok()) return rs;
              tix::Status ks = tix::codec::DecodeBlockTailWithKernel(
                  format, kernel, tail, count, buf);
              if (!ks.ok()) return ks;
              if (std::memcmp(ref, buf, 3 * count * sizeof(uint32_t)) != 0) {
                return tix::Status::Internal("kernel output mismatch");
              }
              return tix::Status();
            });
        if (!checked.ok()) {
          std::fprintf(stderr, "v%d %s: %s\n", version,
                       tix::codec::DecodeKernelName(kernel),
                       checked.ToString().c_str());
          decode_identical = false;
          continue;
        }
      }
      KernelCell cell;
      cell.version = version;
      cell.kernel = kernel;
      cell.index = &format_index;
      kernel_cells.push_back(cell);
    }
  }

  // The gated tail sweeps run in interleaved rounds, a fixed floor of
  // them whatever --runs says, and each cell keeps its fastest sweep: a
  // slow spell on a shared host then slows every cell alike instead of
  // deciding the kernel ratio.
  for (int round = 0; round < std::max(runs, kDecodeRounds); ++round) {
    for (KernelCell& cell : kernel_cells) {
      const tix::codec::TailFormat format = cell.index->tail_format();
      const double seconds = Measure(
          [&]() -> tix::Status {
            uint64_t sink = 0;
            tix::Status status = for_each_block(
                *cell.index,
                [&](std::string_view tail, uint32_t count,
                    uint32_t* buf) -> tix::Status {
                  tix::Status ks = tix::codec::DecodeBlockTailWithKernel(
                      format, cell.kernel, tail, count, buf);
                  if (!ks.ok()) return ks;
                  sink += buf[3 * count - 1];
                  return tix::Status();
                });
            if (!status.ok()) return status;
            if (sink == UINT64_MAX) return tix::Status::Internal("sink");
            return tix::Status();
          },
          1);
      cell.tail_seconds = std::min(cell.tail_seconds, seconds);
    }
  }

  std::printf(
      "decode kernels (full tail sweep + cold cursor scan; active: %s)\n",
      tix::codec::DecodeKernelName(restore_kernel));
  std::printf("%4s %7s | %9s %8s %9s | %10s\n", "fmt", "kernel", "tail(s)",
              "GB/s", "Mpost/s", "cursor(s)");
  PrintRule(60);
  for (KernelCell& cell : kernel_cells) {
    cell.gbps = decoded_bytes / cell.tail_seconds / 1e9;
    cell.mpostings_per_second =
        static_cast<double>(rc.num_postings) / cell.tail_seconds / 1e6;

    // Cold end-to-end scan: the production BlockCursor path with the
    // decoded-block cache off and this kernel dispatched.
    tix::codec::SetActiveDecodeKernel(cell.kernel);
    cache.Configure(0);
    cache.Clear();
    cell.cursor_seconds = Measure(
        [&]() -> tix::Status {
          uint64_t touched = 0;
          for (tix::text::TermId id = 0;
               id < cell.index->stats().num_terms; ++id) {
            tix::index::BlockCursor cursor(cell.index->LookupId(id));
            for (size_t i = 0; i < cursor.size(); ++i) {
              touched += cursor.Get(i).word_pos;
            }
          }
          if (touched == UINT64_MAX) return tix::Status::Internal("sink");
          return tix::Status();
        },
        runs);
    tix::codec::SetActiveDecodeKernel(restore_kernel);

    std::printf("%4s %7s | %9.4f %8.2f %9.1f | %10.4f\n",
                cell.version == 3 ? "v3" : "v4",
                tix::codec::DecodeKernelName(cell.kernel), cell.tail_seconds,
                cell.gbps, cell.mpostings_per_second, cell.cursor_seconds);
  }
  double scalar_v3_gbps = 0.0;
  double best_gbps = 0.0;
  for (const KernelCell& cell : kernel_cells) {
    if (cell.version == 3 && cell.kernel == tix::codec::DecodeKernel::kScalar) {
      scalar_v3_gbps = cell.gbps;
    }
    if (cell.gbps > best_gbps) best_gbps = cell.gbps;
  }
  const double kernel_speedup =
      scalar_v3_gbps > 0 ? best_gbps / scalar_v3_gbps : 0.0;
  const bool decode_ok = decode_identical && kernel_speedup >= 1.5;
  std::printf("best kernel vs scalar v3: %.2fx (gate: >= 1.5x) %s\n",
              kernel_speedup, kernel_speedup >= 1.5 ? "OK" : "FAIL");
  std::printf("kernel outputs vs scalar: %s\n\n",
              decode_identical ? "identical" : "MISMATCH");

  // ------------------------------------------------- TermJoin wall clock
  // Snapshot so the hit rate reflects the join sweep alone, not the
  // cache-disabled decode sweep above.
  const tix::index::BlockCacheStats sweep_base = cache.Stats();
  const std::vector<uint64_t> freqs = {100, 1000, 10000};
  std::vector<Cell> cells;
  bool wall_clock_ok = true;
  std::printf("%6s | %10s %10s %10s | %8s | %9s %9s\n", "freq", "decoded(s)",
              "cold(s)", "warm(s)", "warm x", "blk dec", "hits");
  PrintRule(78);
  for (const uint64_t freq : freqs) {
    const tix::algebra::IrPredicate predicate =
        TwoTermPredicate(Table1Term(1, freq), Table1Term(2, freq));
    const tix::algebra::WeightedCountScorer scorer(predicate.Weights());
    Cell cell;
    cell.freq = ScaledFreq(freq, env.scale);

    // Correctness gate: compressed and decoded joins must agree exactly
    // before their timings mean anything.
    cache.Configure(tix::index::kDefaultBlockCacheBytes);
    cache.Clear();
    {
      tix::exec::TermJoin baseline(env.db.get(), &decoded, &predicate,
                                   &scorer);
      auto expected = baseline.Run();
      tix::exec::TermJoin compressed(env.db.get(), env.index.get(),
                                     &predicate, &scorer);
      auto got = compressed.Run();
      if (!expected.ok() || !got.ok()) {
        std::fprintf(stderr, "join failed\n");
        return 1;
      }
      if (got.value().size() != expected.value().size()) {
        std::fprintf(stderr, "MISMATCH freq=%llu: %zu vs %zu results\n",
                     static_cast<unsigned long long>(freq),
                     got.value().size(), expected.value().size());
        return 1;
      }
      for (size_t i = 0; i < expected.value().size(); ++i) {
        if (!(got.value()[i] == expected.value()[i])) {
          std::fprintf(stderr, "MISMATCH freq=%llu @%zu\n",
                       static_cast<unsigned long long>(freq), i);
          return 1;
        }
      }
      cell.results = expected.value().size();
      cell.blocks_decoded_cold = compressed.stats().blocks_decoded;
    }

    cell.decoded_seconds = Measure(
        [&]() -> tix::Status {
          tix::exec::TermJoin join(env.db.get(), &decoded, &predicate,
                                   &scorer);
          TIX_ASSIGN_OR_RETURN(auto all, join.Run());
          (void)all;
          return tix::Status();
        },
        runs);
    cell.cold_seconds = Measure(
        [&]() -> tix::Status {
          cache.Clear();
          tix::exec::TermJoin join(env.db.get(), env.index.get(), &predicate,
                                   &scorer);
          TIX_ASSIGN_OR_RETURN(auto all, join.Run());
          (void)all;
          return tix::Status();
        },
        runs);
    // Warm: one priming run, then timed runs against a resident cache.
    {
      tix::exec::TermJoin prime(env.db.get(), env.index.get(), &predicate,
                                &scorer);
      auto primed = prime.Run();
      if (!primed.ok()) return 1;
    }
    uint64_t warm_hits = 0;
    cell.warm_seconds = Measure(
        [&]() -> tix::Status {
          tix::exec::TermJoin join(env.db.get(), env.index.get(), &predicate,
                                   &scorer);
          TIX_ASSIGN_OR_RETURN(auto all, join.Run());
          (void)all;
          warm_hits = join.stats().block_cache_hits;
          return tix::Status();
        },
        runs);
    cell.cache_hits_warm = warm_hits;

    // 25% tolerance: sub-millisecond joins jitter, and the contract is
    // "no regression", not "always faster".
    if (cell.warm_seconds > cell.decoded_seconds * 1.25) {
      wall_clock_ok = false;
    }
    std::printf("%6llu | %10.4f %10.4f %10.4f | %7.2fx | %9llu %9llu\n",
                static_cast<unsigned long long>(cell.freq),
                cell.decoded_seconds, cell.cold_seconds, cell.warm_seconds,
                cell.warm_seconds > 0
                    ? cell.decoded_seconds / cell.warm_seconds
                    : 0.0,
                static_cast<unsigned long long>(cell.blocks_decoded_cold),
                static_cast<unsigned long long>(cell.cache_hits_warm));
    cells.push_back(cell);
  }

  // Steady-state hit rate over the join sweep (cold runs included, so
  // this understates a resident server's rate; warm-only is the per-cell
  // "hits" column).
  tix::index::BlockCacheStats cache_stats = cache.Stats();
  cache_stats.hits -= sweep_base.hits;
  cache_stats.misses -= sweep_base.misses;
  cache_stats.evictions -= sweep_base.evictions;
  const double hit_rate =
      cache_stats.hits + cache_stats.misses > 0
          ? static_cast<double>(cache_stats.hits) /
                static_cast<double>(cache_stats.hits + cache_stats.misses)
          : 0.0;
  std::printf(
      "\ncache: %llu hits, %llu misses, %llu evictions -> %.1f%% hit rate; "
      "%llu entries, %llu / %llu bytes\n",
      static_cast<unsigned long long>(cache_stats.hits),
      static_cast<unsigned long long>(cache_stats.misses),
      static_cast<unsigned long long>(cache_stats.evictions), hit_rate * 100,
      static_cast<unsigned long long>(cache_stats.entries),
      static_cast<unsigned long long>(cache_stats.bytes),
      static_cast<unsigned long long>(cache_stats.capacity_bytes));
  std::printf("bytes/posting reduction: %.2fx (gate: >= 3x) %s\n", reduction,
              reduction >= 3.0 ? "OK" : "FAIL");
  std::printf("warm TermJoin vs decoded baseline: %s\n",
              wall_clock_ok ? "no regression" : "REGRESSION");

  // ------------------------------------------------------------ open time
  // A larger corpus so the copy path's O(bytes) cost is visible: opening
  // is what a tixd restart or a per-invocation tix_cli pays before the
  // first query can run.
  const uint64_t open_scale = flags.GetInt("open-scale", 10);
  const uint64_t open_articles = articles * open_scale;
  const std::string open_dir = dir + "_open" + std::to_string(open_scale) + "x";
  auto open_env_result =
      GetOrBuildBenchEnv(open_dir, open_articles, flags.GetInt("seed", 42));
  if (!open_env_result.ok()) {
    std::fprintf(stderr, "%s\n", open_env_result.status().ToString().c_str());
    return 1;
  }
  BenchEnv open_env = std::move(open_env_result).value();
  open_env.index.reset();  // only the on-disk file matters here
  const std::string open_path = open_dir + "/index.tix";
  const uint64_t open_file_bytes = std::filesystem::file_size(open_path);

  std::vector<OpenCell> open_cells = {
      {"copy", /*prefer_mmap=*/false, /*verify=*/true},
      {"verify", /*prefer_mmap=*/true, /*verify=*/true},
      {"trust", /*prefer_mmap=*/true, /*verify=*/false},
  };
  std::printf(
      "\nindex open, %llux corpus (%llu articles, %.1f MB index file)\n",
      static_cast<unsigned long long>(open_scale),
      static_cast<unsigned long long>(open_articles),
      static_cast<double>(open_file_bytes) / 1e6);
  std::printf("%8s | %10s | %12s %12s | %12s %12s\n", "mode", "open(ms)",
              "read bytes", "mmap bytes", "resident", "mapped");
  PrintRule(78);
  tix::storage::IoCounters& io = tix::storage::GlobalIoCounters();
  for (OpenCell& cell : open_cells) {
    tix::index::IndexLoadOptions load;
    load.prefer_mmap = cell.prefer_mmap;
    load.verify_on_open = cell.verify;

    // One instrumented open for the IO mix and residency...
    const uint64_t read0 = io.bytes_read.load();
    const uint64_t map0 = io.bytes_mapped.load();
    auto probe = tix::index::InvertedIndex::LoadFromFile(open_path, load);
    if (!probe.ok()) {
      std::fprintf(stderr, "%s open failed: %s\n", cell.mode,
                   probe.status().ToString().c_str());
      return 1;
    }
    cell.bytes_read = io.bytes_read.load() - read0;
    cell.bytes_mapped = io.bytes_mapped.load() - map0;
    const tix::index::IndexResidency residency = probe.value().MemoryUsage();
    cell.resident_bytes = residency.total_bytes();
    cell.mapped_bytes = residency.mapped_bytes;

    // ...then timed opens, the fastest of a fixed floor of them whatever
    // --runs says (the probe doubles as a page-cache warmer, so every
    // mode measures parse cost, not first-touch disk latency).
    for (int i = 0; i < std::max(runs, kOpenRuns); ++i) {
      const double seconds = Measure(
          [&]() -> tix::Status {
            TIX_ASSIGN_OR_RETURN(
                auto opened,
                tix::index::InvertedIndex::LoadFromFile(open_path, load));
            (void)opened;
            return tix::Status();
          },
          1);
      cell.seconds = std::min(cell.seconds, seconds);
    }
    std::printf("%8s | %10.2f | %12llu %12llu | %12llu %12llu\n", cell.mode,
                cell.seconds * 1e3,
                static_cast<unsigned long long>(cell.bytes_read),
                static_cast<unsigned long long>(cell.bytes_mapped),
                static_cast<unsigned long long>(cell.resident_bytes),
                static_cast<unsigned long long>(cell.mapped_bytes));
  }

  // Correctness gate on the large corpus: the trust-mode open must
  // answer queries byte-for-byte like the scrubbed copy open.
  bool open_identical = true;
  {
    tix::index::IndexLoadOptions copy_load;
    copy_load.prefer_mmap = false;
    auto copied = tix::index::InvertedIndex::LoadFromFile(open_path, copy_load);
    tix::index::IndexLoadOptions trust_load;
    trust_load.verify_on_open = false;
    auto trusted =
        tix::index::InvertedIndex::LoadFromFile(open_path, trust_load);
    if (!copied.ok() || !trusted.ok()) {
      std::fprintf(stderr, "open for equivalence check failed\n");
      return 1;
    }
    for (const uint64_t freq : freqs) {
      const tix::algebra::IrPredicate predicate =
          TwoTermPredicate(Table1Term(1, freq), Table1Term(2, freq));
      const tix::algebra::WeightedCountScorer scorer(predicate.Weights());
      tix::exec::TermJoin copy_join(open_env.db.get(), &copied.value(),
                                    &predicate, &scorer);
      tix::exec::TermJoin trust_join(open_env.db.get(), &trusted.value(),
                                     &predicate, &scorer);
      auto expected = copy_join.Run();
      auto got = trust_join.Run();
      if (!expected.ok() || !got.ok() ||
          got.value().size() != expected.value().size()) {
        open_identical = false;
        break;
      }
      for (size_t i = 0; i < expected.value().size(); ++i) {
        if (!(got.value()[i] == expected.value()[i])) {
          open_identical = false;
          break;
        }
      }
      if (!open_identical) break;
    }
  }

  const double copy_seconds = open_cells[0].seconds;
  const double trust_seconds = open_cells[2].seconds;
  const double open_speedup =
      trust_seconds > 0 ? copy_seconds / trust_seconds : 0.0;
  const bool open_ok = open_identical && open_speedup >= 5.0;
  std::printf("trust vs copy open: %.1fx (gate: >= 5x) %s\n", open_speedup,
              open_speedup >= 5.0 ? "OK" : "FAIL");
  std::printf("trust vs copy query results: %s\n",
              open_identical ? "identical" : "MISMATCH");

  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(file,
               "{\n"
               "  \"bench\": \"block_index\",\n"
               "  \"articles\": %llu,\n"
               "  \"nodes\": %llu,\n"
               "  \"num_postings\": %llu,\n"
               "  \"runs\": %d,\n"
               "  \"verified\": true,\n"
               "  \"residency\": {\n"
               "    \"decoded_bytes_per_posting\": %.4f,\n"
               "    \"compressed_bytes_per_posting\": %.4f,\n"
               "    \"bytes_per_posting_reduction\": %.4f,\n"
               "    \"decoded_posting_bytes\": %llu,\n"
               "    \"compressed_posting_bytes\": %llu,\n"
               "    \"decoded_total_bytes\": %llu,\n"
               "    \"compressed_total_bytes\": %llu,\n"
               "    \"reduction_gate_3x\": %s\n"
               "  },\n"
               "  \"decode\": {\n"
               "    \"sweep_seconds\": %.6f,\n"
               "    \"gb_per_second\": %.4f,\n"
               "    \"active_kernel\": \"%s\",\n"
               "    \"best_gb_per_second\": %.4f,\n"
               "    \"best_vs_scalar_v3\": %.4f,\n"
               "    \"kernel_outputs_identical\": %s,\n"
               "    \"speedup_gate_1_5x\": %s\n"
               "  },\n"
               "  \"cache\": {\n"
               "    \"hits\": %llu,\n"
               "    \"misses\": %llu,\n"
               "    \"evictions\": %llu,\n"
               "    \"hit_rate\": %.4f,\n"
               "    \"capacity_bytes\": %llu\n"
               "  },\n"
               "  \"wall_clock_ok\": %s,\n"
               "  \"cells\": [\n",
               static_cast<unsigned long long>(env.num_articles),
               static_cast<unsigned long long>(env.db->num_nodes()),
               static_cast<unsigned long long>(rc.num_postings), runs,
               rd.posting_bytes_per_posting(), rc_bytes_per_posting,
               reduction,
               static_cast<unsigned long long>(rd.postings_bytes),
               static_cast<unsigned long long>(rc_posting_bytes),
               static_cast<unsigned long long>(rd.total_bytes()),
               static_cast<unsigned long long>(rc.total_bytes() +
                                               rc.mapped_bytes),
               reduction >= 3.0 ? "true" : "false", decode_seconds,
               decode_gbps, tix::codec::DecodeKernelName(restore_kernel),
               best_gbps, kernel_speedup,
               decode_identical ? "true" : "false",
               kernel_speedup >= 1.5 ? "true" : "false",
               static_cast<unsigned long long>(cache_stats.hits),
               static_cast<unsigned long long>(cache_stats.misses),
               static_cast<unsigned long long>(cache_stats.evictions),
               hit_rate,
               static_cast<unsigned long long>(cache_stats.capacity_bytes),
               wall_clock_ok ? "true" : "false");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    std::fprintf(
        file,
        "    {\"term_frequency\": %llu, \"results\": %zu,\n"
        "     \"decoded_seconds\": %.6f, \"compressed_cold_seconds\": %.6f, "
        "\"compressed_warm_seconds\": %.6f,\n"
        "     \"blocks_decoded_cold\": %llu, \"cache_hits_warm\": %llu}%s\n",
        static_cast<unsigned long long>(cell.freq), cell.results,
        cell.decoded_seconds, cell.cold_seconds, cell.warm_seconds,
        static_cast<unsigned long long>(cell.blocks_decoded_cold),
        static_cast<unsigned long long>(cell.cache_hits_warm),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(file, "  ],\n  \"decode_kernels\": [\n");
  for (size_t i = 0; i < kernel_cells.size(); ++i) {
    const KernelCell& cell = kernel_cells[i];
    std::fprintf(
        file,
        "    {\"format\": %d, \"kernel\": \"%s\", \"tail_seconds\": %.6f,\n"
        "     \"gb_per_second\": %.4f, \"mpostings_per_second\": %.2f, "
        "\"cursor_scan_seconds\": %.6f}%s\n",
        cell.version, tix::codec::DecodeKernelName(cell.kernel),
        cell.tail_seconds, cell.gbps, cell.mpostings_per_second,
        cell.cursor_seconds, i + 1 < kernel_cells.size() ? "," : "");
  }
  std::fprintf(file,
               "  ],\n"
               "  \"open\": {\n"
               "    \"scale\": %llu,\n"
               "    \"articles\": %llu,\n"
               "    \"index_file_bytes\": %llu,\n"
               "    \"modes\": [\n",
               static_cast<unsigned long long>(open_scale),
               static_cast<unsigned long long>(open_articles),
               static_cast<unsigned long long>(open_file_bytes));
  for (size_t i = 0; i < open_cells.size(); ++i) {
    const OpenCell& cell = open_cells[i];
    std::fprintf(file,
                 "      {\"mode\": \"%s\", \"open_ms\": %.3f,\n"
                 "       \"bytes_read\": %llu, \"bytes_mapped\": %llu,\n"
                 "       \"resident_bytes\": %llu, \"mapped_bytes\": %llu}%s\n",
                 cell.mode, cell.seconds * 1e3,
                 static_cast<unsigned long long>(cell.bytes_read),
                 static_cast<unsigned long long>(cell.bytes_mapped),
                 static_cast<unsigned long long>(cell.resident_bytes),
                 static_cast<unsigned long long>(cell.mapped_bytes),
                 i + 1 < open_cells.size() ? "," : "");
  }
  std::fprintf(file,
               "    ],\n"
               "    \"trust_vs_copy_speedup\": %.4f,\n"
               "    \"query_results_identical\": %s,\n"
               "    \"speedup_gate_5x\": %s\n"
               "  }\n"
               "}\n",
               open_speedup, open_identical ? "true" : "false",
               open_speedup >= 5.0 ? "true" : "false");
  std::fclose(file);
  std::printf("\nwrote %s\n", out.c_str());
  return (reduction >= 3.0 && open_ok && decode_ok) ? 0 : 1;
}
