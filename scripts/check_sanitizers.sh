#!/usr/bin/env bash
# Builds the concurrency- and corruption-sensitive tests under TSan and
# under ASan+UBSan and runs them. The targets cover every code path
# where threads share state (the doc-partitioned ParallelTermJoin and
# the per-query metrics contexts, including the concurrent-query stats
# regression in obs_test, and the sharded decoded-block cache exercised
# by block_index_test) plus the storage fault/corruption suites: the
# fuzz tests in fault_test and block_index_test mutate saved files
# hundreds of times, so running them under ASan/UBSan is what turns
# "no crash observed" into "no UB observed". The serving path rides the
# same bus: thread_pool_test races Submit against Shutdown, and
# server_test runs concurrent TCP sessions through the shared result
# cache, admission control and graceful stop. segment_test is the live
# index under churn: queries pinning snapshots while ingestion, sealing
# and background compaction publish new generations, plus the
# ingest/compact equivalence fuzz and the manifest corruption sweep.
# shard_test is the scatter-gather layer: coordinator threads fanning
# one query across shard servers with mid-query floor-gossip frames,
# plus the hostile-frame and seeded-corruption protocol fuzz.
# mmap_index_test covers the mapped read path: trust-mode opens served
# straight from mmap (every posting byte it touches is mapped memory,
# so ASan/UBSan sees any out-of-mapping read) and the truncation
# fail-closed sweep; storage_test's concurrent AtomicWriteFile race is
# TSan's view of the unique-tmp rename protocol. codec_test is the
# decode-kernel differential fuzz: the SSSE3 shuffle kernel uses
# 16-byte loads with explicit tail guards, and running the
# every-prefix-truncation and random-garbage sweeps under ASan is the
# proof those guards never read past the posting block. query_test
# drives the engine's step matcher: node-range cuts, binary searches
# over the tag index and the anchors, and subtree scans bounded by the
# interval columns, through the seeded engine-vs-reference fuzz and the
# deep-nesting regression. exec_test runs every access method against
# the reference evaluator, including the Enhanced TermJoin the engine
# always uses: its parent/child-count/interval column reads index raw
# arrays by node id, so ASan sees any read past a column.
#
#   scripts/check_sanitizers.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

TARGETS=(exec_test parallel_exec_test topk_pushdown_test obs_test storage_test fault_test codec_test block_index_test mmap_index_test query_test thread_pool_test server_test segment_test shard_test)
FILTER="$(IFS='|'; echo "${TARGETS[*]}")"

run_preset() {
  local dir="$1" sanitize="$2"
  echo "== ${sanitize} (${dir}) =="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTIX_SANITIZE="${sanitize}" > /dev/null
  cmake --build "${dir}" -j "$(nproc)" --target "${TARGETS[@]}"
  (cd "${dir}" && ctest --output-on-failure -R "${FILTER}" "$@")
}

run_preset build-tsan thread "${@:1}"
run_preset build-asan address,undefined "${@:1}"
echo "sanitizer checks passed"
