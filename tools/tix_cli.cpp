// tix_cli — command-line front end for the TIX database.
//
//   tix_cli load  --db=DIR file.xml [file.xml ...]   load documents
//   tix_cli index --db=DIR                           build + persist index
//   tix_cli ingest --db=DIR file.xml [file.xml ...]  add docs to live index
//   tix_cli delete --db=DIR name.xml                 tombstone a document
//   tix_cli compact --db=DIR                         seal + merge segments
//   tix_cli stats --db=DIR                           database/index stats
//   tix_cli terms --db=DIR [--min=N] [--max=N]       vocabulary by frequency
//   tix_cli query --db=DIR [--threads=N] [--no-pushdown]
//                 [--block-cache-mb=N] [--explain | --stats-json]
//                 "FOR $a IN ... RETURN $a"          run a query
//   tix_cli verify --db=DIR                          check every page + index
//
// --threads=N runs score generation (TermJoin) as N doc-partitioned
// parallel merges; 0 (the default) is the serial single-pass merge.
//
// --no-checksums skips per-page CRC verification on reads (format v3
// files only; see docs/STORAGE.md). Verification is on by default.
//
// --no-pushdown disables top-K threshold pushdown (block-max bounds +
// early-terminating TermJoin; see docs/ALGEBRA.md) and forces the
// materialize-then-threshold pipeline. Results are identical; the flag
// exists for A/B measurement and as an escape hatch.
//
// --block-cache-mb=N sizes the decoded-posting-block cache (see
// docs/INDEX.md); 0 disables it so every block access decodes. The
// default is the built-in budget (16 MiB).
//
// --trust-index defers the validation scrub when opening an index or
// segments (the mode tixd restarts use — see docs/INDEX.md): open is
// O(lists) instead of O(bytes), and each posting list is scrubbed on
// its first lookup instead. Results and top-K pruning are identical; a
// corrupt list fails the query that reads it. The `verify` command
// ignores the flag and always scrubs everything.
//
// --explain appends the EXPLAIN ANALYZE tree (per-operator wall time,
// cardinalities and storage counters) after the results; --stats-json
// prints only the plan tree as JSON (schema: docs/OBSERVABILITY.md).
//
// Two indexing modes share the query path. `index` builds one
// monolithic index.tix (and clears any segmented state — the rebuild
// covers everything, so stale segments must not shadow it). `ingest` /
// `delete` / `compact` drive the segmented live index (docs/INDEX.md):
// ingest appends documents and buffers them (sealed into segment files
// at the configured thresholds; unsealed docs are re-buffered from the
// database on the next open), delete tombstones, compact force-seals
// and merges. `query`, `stats` and `verify` use the manifest when one
// exists and fall back to index.tix otherwise.
//
// A typical session:
//   tix_cli load  --db=/tmp/db docs/*.xml
//   tix_cli index --db=/tmp/db
//   tix_cli query --db=/tmp/db 'FOR $a IN document("a.xml")//doc//*
//                               SCORE $a USING foo({"xml"}) RETURN $a'

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/block_codec.h"
#include "common/string_util.h"
#include "flag_parse.h"
#include "index/block_cache.h"
#include "index/inverted_index.h"
#include "index/manifest.h"
#include "index/segmented_index.h"
#include "query/engine.h"
#include "storage/database.h"
#include "xml/parser.h"

namespace {

struct Args {
  std::string command;
  std::string db_dir;
  std::vector<std::string> positional;
  uint64_t min = 0;
  uint64_t max = UINT64_MAX;
  size_t limit = 10;
  size_t threads = 0;
  size_t block_cache_bytes = tix::index::kDefaultBlockCacheBytes;
  bool explain = false;
  bool stats_json = false;
  bool no_checksums = false;
  bool no_pushdown = false;
  /// Defer the validation scrub from index open to each list's first
  /// lookup (tixd-style trust mode). `verify` ignores this — its whole
  /// job is the scrub.
  bool trust_index = false;
};

Args ParseArgs(int argc, char** argv) {
  using tix::tools::MatchFlag;
  using tix::tools::ParseMiBFlag;
  using tix::tools::ParseSizeFlag;
  using tix::tools::ParseUint64Flag;
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string_view value;
    if (MatchFlag(arg, "db", &value)) {
      args.db_dir = std::string(value);
    } else if (ParseUint64Flag(arg, "min", &args.min) ||
               ParseUint64Flag(arg, "max", &args.max) ||
               ParseSizeFlag(arg, "limit", &args.limit) ||
               ParseSizeFlag(arg, "threads", &args.threads) ||
               ParseMiBFlag(arg, "block-cache-mb",
                            &args.block_cache_bytes)) {
      // Parsed (or died with a message naming the bad flag).
    } else if (arg == "--explain") {
      args.explain = true;
    } else if (arg == "--stats-json") {
      args.stats_json = true;
    } else if (arg == "--no-checksums") {
      args.no_checksums = true;
    } else if (arg == "--no-pushdown") {
      args.no_pushdown = true;
    } else if (arg == "--trust-index") {
      args.trust_index = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      std::exit(2);
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

[[noreturn]] void Die(const tix::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Check(tix::Result<T> result) {
  if (!result.ok()) Die(result.status());
  return std::move(result).value();
}

std::string IndexPath(const std::string& db_dir) {
  return db_dir + "/index.tix";
}

tix::storage::DatabaseOptions DbOptions(const Args& args) {
  tix::storage::DatabaseOptions options;
  options.verify_checksums = !args.no_checksums;
  return options;
}

tix::index::IndexLoadOptions LoadOptions(const Args& args) {
  tix::index::IndexLoadOptions options;
  options.verify_on_open = !args.trust_index;
  return options;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tix_cli <load|index|ingest|delete|compact|stats|terms|"
               "query|verify> --db=DIR [args]\n");
  return 2;
}

/// Opens the segmented index and re-buffers any database documents
/// beyond its high-water mark (docs ingested but not yet sealed when
/// the previous process exited).
std::unique_ptr<tix::index::SegmentedIndex> OpenSegmented(
    const Args& args, tix::storage::Database* db) {
  tix::index::SegmentedIndexOptions options;
  options.load = LoadOptions(args);
  auto segmented =
      Check(tix::index::SegmentedIndex::Open(args.db_dir, options));
  const tix::Status recovered = segmented->Recover(db);
  if (!recovered.ok()) Die(recovered);
  return segmented;
}

int CmdLoad(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "load: no input files\n");
    return 2;
  }
  // Open when a catalog exists, create when it is absent — but never
  // blow away a database that exists and fails to open (corruption is
  // for the user to look at, not for `load` to truncate).
  auto opened = tix::storage::Database::Open(args.db_dir, DbOptions(args));
  if (!opened.ok() && !opened.status().IsIOError()) Die(opened.status());
  std::unique_ptr<tix::storage::Database> db =
      opened.ok()
          ? std::move(opened).value()
          : Check(tix::storage::Database::Create(args.db_dir, DbOptions(args)));
  for (const std::string& path : args.positional) {
    auto document = Check(tix::xml::ParseXmlFile(path));
    std::string name = path;
    const size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    document.set_name(name);
    const tix::storage::DocId doc = Check(db->AddDocument(document));
    std::printf("loaded %s as doc %u (%llu nodes)\n", name.c_str(), doc,
                static_cast<unsigned long long>(document.NodeCount()));
  }
  const tix::Status saved = db->Save();
  if (!saved.ok()) Die(saved);
  std::printf("database saved: %llu nodes total\n",
              static_cast<unsigned long long>(db->num_nodes()));
  return 0;
}

int CmdIndex(const Args& args) {
  auto db = Check(tix::storage::Database::Open(args.db_dir, DbOptions(args)));
  auto index = Check(tix::index::InvertedIndex::Build(db.get()));
  const tix::Status saved = index.SaveToFile(IndexPath(args.db_dir));
  if (!saved.ok()) Die(saved);
  // A full rebuild covers every document, so segmented state is now
  // stale — and the manifest would shadow the fresh index.tix on the
  // next query. Remove it together with its segment files.
  auto manifest = tix::index::LoadManifest(args.db_dir);
  if (manifest.ok()) {
    for (const auto& info : manifest.value().segments) {
      if (info.file == "index.tix") continue;  // just rewritten above
      std::remove((args.db_dir + "/" + info.file).c_str());
    }
    std::remove(tix::index::ManifestPath(args.db_dir).c_str());
    std::printf("removed stale segmented index (%zu segments)\n",
                manifest.value().segments.size());
  } else if (!manifest.status().IsNotFound()) {
    // A damaged manifest cannot be enumerated, but it must still not
    // shadow the rebuild.
    std::remove(tix::index::ManifestPath(args.db_dir).c_str());
    std::printf("removed unreadable manifest (%s)\n",
                manifest.status().ToString().c_str());
  }
  std::printf("indexed %llu terms, %llu postings -> %s\n",
              static_cast<unsigned long long>(index.stats().num_terms),
              static_cast<unsigned long long>(index.stats().num_postings),
              IndexPath(args.db_dir).c_str());
  return 0;
}

int CmdIngest(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "ingest: no input files\n");
    return 2;
  }
  auto opened = tix::storage::Database::Open(args.db_dir, DbOptions(args));
  if (!opened.ok() && !opened.status().IsIOError()) Die(opened.status());
  std::unique_ptr<tix::storage::Database> db =
      opened.ok()
          ? std::move(opened).value()
          : Check(tix::storage::Database::Create(args.db_dir, DbOptions(args)));
  auto segmented = OpenSegmented(args, db.get());
  for (const std::string& path : args.positional) {
    auto document = Check(tix::xml::ParseXmlFile(path));
    std::string name = path;
    const size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    document.set_name(name);
    const tix::storage::DocId doc = Check(db->AddDocument(document));
    const tix::Status ingested = segmented->Ingest(db.get(), doc);
    if (!ingested.ok()) Die(ingested);
    std::printf("ingested %s as doc %u\n", name.c_str(), doc);
  }
  const tix::Status saved = db->Save();
  if (!saved.ok()) Die(saved);
  // The CLI is one-shot: seal so the batch is durable as a segment (the
  // resident server can afford to leave the buffer open instead; its
  // unsealed docs re-buffer from the database on the next open).
  // Compaction merges the small per-invocation segments later.
  const tix::Status sealed = segmented->Seal(db.get());
  if (!sealed.ok()) Die(sealed);
  const tix::index::SegmentedIndexStats stats = segmented->Stats();
  std::printf("index generation %llu: %llu segments, %llu live docs\n",
              static_cast<unsigned long long>(stats.generation),
              static_cast<unsigned long long>(stats.num_segments),
              static_cast<unsigned long long>(stats.live_documents));
  return 0;
}

int CmdDelete(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "delete: no document name\n");
    return 2;
  }
  auto db = Check(tix::storage::Database::Open(args.db_dir, DbOptions(args)));
  auto segmented = OpenSegmented(args, db.get());
  const std::string& name = args.positional[0];
  const auto snapshot = segmented->Acquire();
  const auto& documents = db->documents();
  for (size_t i = documents.size(); i-- > 0;) {
    if (documents[i].name == name &&
        snapshot->IsLiveDocument(documents[i].doc_id)) {
      const tix::Status deleted = segmented->Delete(documents[i].doc_id);
      if (!deleted.ok()) Die(deleted);
      std::printf("deleted %s (doc %u)\n", name.c_str(),
                  documents[i].doc_id);
      return 0;
    }
  }
  std::fprintf(stderr, "delete: no live document named '%s'\n", name.c_str());
  return 1;
}

int CmdCompact(const Args& args) {
  auto db = Check(tix::storage::Database::Open(args.db_dir, DbOptions(args)));
  auto segmented = OpenSegmented(args, db.get());
  const tix::index::SegmentedIndexStats before = segmented->Stats();
  tix::Status status = segmented->Seal(db.get());
  if (status.ok()) status = segmented->Compact();
  if (!status.ok()) Die(status);
  const tix::index::SegmentedIndexStats after = segmented->Stats();
  std::printf(
      "compacted: %llu -> %llu segments, %llu tombstones applied, "
      "%llu postings resident\n",
      static_cast<unsigned long long>(before.num_segments),
      static_cast<unsigned long long>(after.num_segments),
      static_cast<unsigned long long>(before.tombstones - after.tombstones),
      static_cast<unsigned long long>(after.total_postings));
  return 0;
}

int CmdStats(const Args& args) {
  auto db = Check(tix::storage::Database::Open(args.db_dir, DbOptions(args)));
  std::printf("database: %s\n", args.db_dir.c_str());
  std::printf("  nodes:      %s\n",
              tix::FormatWithCommas(static_cast<int64_t>(db->num_nodes()))
                  .c_str());
  std::printf("  tags:       %zu\n", db->num_tags());
  std::printf("  documents:  %zu\n", db->documents().size());
  for (const auto& doc : db->documents()) {
    if (db->documents().size() <= 10) {
      std::printf("    doc %u: %s (%llu nodes, %llu words)\n", doc.doc_id,
                  doc.name.c_str(),
                  static_cast<unsigned long long>(doc.node_count),
                  static_cast<unsigned long long>(doc.word_count));
    }
  }
  // Segmented mode: per-segment residency plus live/tombstone counts.
  if (tix::index::LoadManifest(args.db_dir).ok()) {
    auto segmented = OpenSegmented(args, db.get());
    const tix::index::SegmentedIndexStats stats = segmented->Stats();
    const auto snapshot = segmented->Acquire();
    std::printf("segmented index:\n");
    std::printf("  generation: %llu\n",
                static_cast<unsigned long long>(stats.generation));
    std::printf("  live docs:  %llu (%llu deleted all-time, "
                "%llu tombstones pending compaction)\n",
                static_cast<unsigned long long>(stats.live_documents),
                static_cast<unsigned long long>(stats.deleted_docs),
                static_cast<unsigned long long>(stats.tombstones));
    std::printf("  buffered:   %llu docs (unsealed)\n",
                static_cast<unsigned long long>(stats.buffered_docs));
    std::printf("  segments:   %llu sealed, %llu compactions run\n",
                static_cast<unsigned long long>(stats.num_segments),
                static_cast<unsigned long long>(stats.compactions));
    std::printf("  formats:    %llu v3, %llu v4 segments\n",
                static_cast<unsigned long long>(stats.segments_v3),
                static_cast<unsigned long long>(stats.segments_v4));
    std::printf("  decode kernel: %s\n",
                tix::codec::DecodeKernelName(tix::codec::ActiveDecodeKernel()));
    for (size_t s = 0; s < snapshot->num_segments(); ++s) {
      const tix::index::Segment& segment = snapshot->segment(s);
      const auto& info = segment.info();
      const tix::index::IndexResidency residency =
          segment.index().MemoryUsage();
      const size_t tombstoned = snapshot->DeletedInRange(
          info.min_doc, static_cast<tix::storage::DocId>(info.max_doc + 1));
      const bool is_buffer = info.file.empty();
      std::printf(
          "    %-18s docs [%u,%u] (%llu live, %zu tombstoned), "
          "%s postings, %s bytes resident, %s mapped\n",
          is_buffer ? "(write buffer)" : info.file.c_str(), info.min_doc,
          info.max_doc,
          static_cast<unsigned long long>(info.num_docs - tombstoned),
          tombstoned,
          tix::FormatWithCommas(static_cast<int64_t>(info.num_postings))
              .c_str(),
          tix::FormatWithCommas(static_cast<int64_t>(residency.total_bytes()))
              .c_str(),
          tix::FormatWithCommas(static_cast<int64_t>(residency.mapped_bytes))
              .c_str());
    }
    return 0;
  }
  auto index = tix::index::InvertedIndex::LoadFromFile(
      IndexPath(args.db_dir), LoadOptions(args));
  if (index.ok()) {
    std::printf("index:\n  terms:      %s\n  postings:   %s\n",
                tix::FormatWithCommas(
                    static_cast<int64_t>(index.value().stats().num_terms))
                    .c_str(),
                tix::FormatWithCommas(
                    static_cast<int64_t>(index.value().stats().num_postings))
                    .c_str());
    std::printf("  format:     v%d\n", index.value().format_version());
    std::printf("  decode kernel: %s\n",
                tix::codec::DecodeKernelName(tix::codec::ActiveDecodeKernel()));
    const tix::index::IndexResidency residency = index.value().MemoryUsage();
    std::printf(
        "  resident:   %s bytes "
        "(postings %s, skips %s, metadata %s; %.2f B/posting)\n",
        tix::FormatWithCommas(static_cast<int64_t>(residency.total_bytes()))
            .c_str(),
        tix::FormatWithCommas(static_cast<int64_t>(residency.postings_bytes))
            .c_str(),
        tix::FormatWithCommas(static_cast<int64_t>(residency.skip_bytes))
            .c_str(),
        tix::FormatWithCommas(
            static_cast<int64_t>(residency.metadata_bytes))
            .c_str(),
        residency.posting_bytes_per_posting());
    std::printf("  mapped:     %s bytes (%zu lists served from mmap)\n",
                tix::FormatWithCommas(
                    static_cast<int64_t>(residency.mapped_bytes))
                    .c_str(),
                residency.mapped_lists);
    std::printf("  lists:      %zu compressed, %zu decoded, %zu with "
                "metadata\n",
                residency.compressed_lists, residency.decoded_lists,
                residency.lists_with_metadata);
    const tix::index::BlockCacheStats cache =
        tix::index::DecodedBlockCache::Instance().Stats();
    std::printf(
        "  block cache: %s / %s bytes (%zu blocks resident)\n",
        tix::FormatWithCommas(static_cast<int64_t>(cache.bytes)).c_str(),
        tix::FormatWithCommas(static_cast<int64_t>(cache.capacity_bytes))
            .c_str(),
        cache.entries);
  } else {
    std::printf("index: not built (run: tix_cli index --db=%s)\n",
                args.db_dir.c_str());
  }
  return 0;
}

int CmdTerms(const Args& args) {
  auto index = Check(tix::index::InvertedIndex::LoadFromFile(
      IndexPath(args.db_dir), LoadOptions(args)));
  const auto terms = index.TermsWithFrequencyBetween(
      args.min == 0 ? 1 : args.min, args.max);
  size_t shown = 0;
  for (auto it = terms.rbegin(); it != terms.rend() && shown < args.limit;
       ++it, ++shown) {
    std::printf("%10llu  %s\n",
                static_cast<unsigned long long>(index.TermFrequency(*it)),
                it->c_str());
  }
  std::printf("(%zu terms in range; showing %zu)\n", terms.size(), shown);
  return 0;
}

int CmdQuery(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "query: no query text\n");
    return 2;
  }
  auto db = Check(tix::storage::Database::Open(args.db_dir, DbOptions(args)));
  tix::query::EngineOptions engine_options;
  engine_options.num_threads = args.threads;
  engine_options.collect_metrics = args.explain || args.stats_json;
  engine_options.threshold_pushdown = !args.no_pushdown;
  engine_options.block_cache_bytes = args.block_cache_bytes;
  // A manifest means the segmented index is authoritative: query a
  // pinned snapshot of it. Otherwise fall back to monolithic index.tix.
  std::unique_ptr<tix::index::SegmentedIndex> segmented;
  std::optional<tix::index::InvertedIndex> index;
  const auto manifest_probe = tix::index::LoadManifest(args.db_dir);
  if (manifest_probe.ok()) {
    segmented = OpenSegmented(args, db.get());
  } else if (manifest_probe.status().IsNotFound()) {
    index = Check(tix::index::InvertedIndex::LoadFromFile(
        IndexPath(args.db_dir), LoadOptions(args)));
  } else {
    Die(manifest_probe.status());
  }
  tix::query::QueryEngine engine =
      segmented != nullptr
          ? tix::query::QueryEngine(db.get(), segmented->Acquire(),
                                    engine_options)
          : tix::query::QueryEngine(db.get(), &index.value(), engine_options);
  const auto output = Check(engine.ExecuteText(args.positional[0]));
  if (args.stats_json) {
    // Machine-readable mode: the plan JSON is the whole output.
    if (!output.plan.has_value()) {
      std::fprintf(stderr, "query: no plan collected\n");
      return 1;
    }
    std::printf("%s", tix::obs::RenderJson(*output.plan).c_str());
    return 0;
  }
  std::printf(
      "%zu results (anchors %llu, scored %llu)\n",
      output.results.size(),
      static_cast<unsigned long long>(output.stats.anchors),
      static_cast<unsigned long long>(output.stats.scored_elements));
  std::printf("%s", Check(engine.RenderXml(output, args.limit)).c_str());
  if (args.explain && output.plan.has_value()) {
    std::printf("\nEXPLAIN ANALYZE\n%s",
                tix::obs::RenderText(*output.plan).c_str());
  }
  return 0;
}

int CmdVerify(const Args& args) {
  // Full scrub: open the database (catalog cross-checks + index
  // rebuild), read back every page of both data files with checksum
  // verification forced on, and parse the inverted index. Any damage
  // comes back as a Status naming the file and page.
  tix::storage::DatabaseOptions options;
  options.verify_checksums = true;
  auto db = Check(tix::storage::Database::Open(args.db_dir, options));

  int problems = 0;
  const auto scrub = [&problems](tix::storage::PagedFile* file) {
    char page[tix::storage::kPageSize];
    for (tix::storage::PageNumber p = 0; p < file->page_count(); ++p) {
      const tix::Status status = file->ReadPage(p, page);
      if (!status.ok()) {
        std::fprintf(stderr, "  %s\n", status.ToString().c_str());
        ++problems;
      }
    }
    std::printf("  %s: %u pages%s\n", file->path().c_str(),
                file->page_count(),
                file->checksummed() ? "" : " (legacy raw, no checksums)");
  };
  scrub(db->node_store().file());
  scrub(db->text_store().file());

  // Loading the index IS the scrub for it: the loader re-validates the
  // block framing, posting order and document statistics of every list
  // (all three format versions). With a manifest, every referenced
  // segment is loaded the same way, plus the manifest's own CRC and
  // structural invariants and the per-segment doc/posting cross-checks.
  // Always the full scrub, regardless of --trust-index: verify exists
  // to run the O(bytes) validation that trust-mode opens skip.
  tix::index::IndexLoadOptions verify_load;
  verify_load.verify_on_open = true;
  const auto manifest = tix::index::LoadManifest(args.db_dir);
  if (manifest.ok()) {
    std::printf("  %s: generation %llu, %zu segments, %zu tombstones\n",
                tix::index::ManifestPath(args.db_dir).c_str(),
                static_cast<unsigned long long>(manifest.value().generation),
                manifest.value().segments.size(),
                manifest.value().tombstones.size());
    for (const auto& info : manifest.value().segments) {
      auto segment = tix::index::Segment::Load(
          args.db_dir + "/" + info.file, info, verify_load);
      if (segment.ok()) {
        std::printf("  %s/%s: docs [%u,%u], %llu postings\n",
                    args.db_dir.c_str(), info.file.c_str(), info.min_doc,
                    info.max_doc,
                    static_cast<unsigned long long>(info.num_postings));
      } else {
        std::fprintf(stderr, "  %s/%s: %s\n", args.db_dir.c_str(),
                     info.file.c_str(),
                     segment.status().ToString().c_str());
        ++problems;
      }
    }
    if (manifest.value().next_doc > db->documents().size()) {
      std::fprintf(stderr,
                   "  manifest covers %u docs but the database has %zu\n",
                   manifest.value().next_doc, db->documents().size());
      ++problems;
    }
  } else if (!manifest.status().IsNotFound()) {
    std::fprintf(stderr, "  %s\n", manifest.status().ToString().c_str());
    ++problems;
  } else {
    auto index = tix::index::InvertedIndex::LoadFromFile(
        IndexPath(args.db_dir), verify_load);
    if (index.ok()) {
      std::printf(
          "  %s: format v%d, %llu terms, %llu postings\n",
          IndexPath(args.db_dir).c_str(), index.value().format_version(),
          static_cast<unsigned long long>(index.value().stats().num_terms),
          static_cast<unsigned long long>(index.value().stats().num_postings));
    } else if (index.status().IsIOError()) {
      std::printf("  index: not built\n");
    } else {
      std::fprintf(stderr, "  %s\n", index.status().ToString().c_str());
      ++problems;
    }
  }

  if (problems > 0) {
    std::fprintf(stderr, "verify: %d problem(s) found\n", problems);
    return 1;
  }
  std::printf("verify: ok (%llu nodes, %zu documents)\n",
              static_cast<unsigned long long>(db->num_nodes()),
              db->documents().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.command.empty() || args.db_dir.empty()) return Usage();
  if (args.command == "load") return CmdLoad(args);
  if (args.command == "index") return CmdIndex(args);
  if (args.command == "ingest") return CmdIngest(args);
  if (args.command == "delete") return CmdDelete(args);
  if (args.command == "compact") return CmdCompact(args);
  if (args.command == "stats") return CmdStats(args);
  if (args.command == "terms") return CmdTerms(args);
  if (args.command == "query") return CmdQuery(args);
  if (args.command == "verify") return CmdVerify(args);
  return Usage();
}
