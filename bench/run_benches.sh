#!/usr/bin/env sh
# Runs the committed benches and writes their google-benchmark JSON to
# the repo root (committed so the README's before/after numbers stay
# reproducible): the Zeek-parsing microbench to BENCH_parse.json, the
# shard-state serialization bench to BENCH_state.json, the watch
# tail/checkpoint bench to BENCH_watch.json, the compact-container
# ingest bench to BENCH_compact.json, the enrichment-memoization and
# columnar full-run bench to BENCH_enrich.json, the durable write-path
# bench to BENCH_chaos.json, and the SHA-256 / HMAC / tsig bench to
# BENCH_crypto.json. The parse, state, watch, compact, enrich and crypto
# benches run five repetitions, interleaved at random across their
# families so host drift spreads over every family instead of landing
# between two, and keep the aggregates only. Every file's context is
# stamped with the git SHA, the build type and `nproc`. Afterwards it
# runs the extended multi-seed chaos sweep (`ctest -C chaos -L chaos`),
# which the default ctest run skips.
#
#   bench/run_benches.sh [BUILD_DIR] [PARSE_OUT] [STATE_OUT] [WATCH_OUT] \
#                        [COMPACT_OUT] [ENRICH_OUT] [CHAOS_OUT] [CRYPTO_OUT]
#
# BUILD_DIR defaults to ./build; outputs to ./BENCH_parse.json,
# ./BENCH_state.json, ./BENCH_watch.json, ./BENCH_compact.json,
# ./BENCH_enrich.json, ./BENCH_chaos.json, and ./BENCH_crypto.json.
# Scale the parse/compact/enrich fixtures down for a quick smoke run with
#   MTLSCOPE_PARSE_BENCH_CONN=2000000 MTLSCOPE_COMPACT_BENCH_CONN=2000000 \
#     MTLSCOPE_ENRICH_BENCH_CONN=2000000 bench/run_benches.sh
# Skip the chaos sweep (benches only) with MTLSCOPE_SKIP_CHAOS_SWEEP=1.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
parse_out=${2:-"$repo_root/BENCH_parse.json"}
state_out=${3:-"$repo_root/BENCH_state.json"}
watch_out=${4:-"$repo_root/BENCH_watch.json"}
compact_out=${5:-"$repo_root/BENCH_compact.json"}
enrich_out=${6:-"$repo_root/BENCH_enrich.json"}
chaos_out=${7:-"$repo_root/BENCH_chaos.json"}
crypto_out=${8:-"$repo_root/BENCH_crypto.json"}

git_sha=$(git -C "$repo_root" describe --always --dirty --abbrev=40 \
  2>/dev/null || echo unknown)
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
  "$build_dir/CMakeCache.txt" 2>/dev/null)
# An empty cached build type means the top-level default, RelWithDebInfo.
context="git_sha=$git_sha,build_type=${build_type:-RelWithDebInfo},nproc=$(nproc)"

# run_bench BINARY OUT_FILE [EXTRA_BENCHMARK_FLAG...] (later flags win)
run_bench() {
  bench_bin="$build_dir/bench/$1"
  out_file=$2
  shift 2
  if [ ! -x "$bench_bin" ]; then
    echo "error: $bench_bin not built (cmake --build $build_dir)" >&2
    exit 1
  fi
  "$bench_bin" \
    --benchmark_out="$out_file" \
    --benchmark_out_format=json \
    --benchmark_repetitions=1 \
    --benchmark_context="$context" \
    "$@"
  echo "wrote $out_file"
}

# run_repeated BINARY OUT_FILE: five repetitions, randomly interleaved,
# aggregates only.
run_repeated() {
  run_bench "$1" "$2" \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    --benchmark_enable_random_interleaving=true
}

run_repeated perf_zeek_parse "$parse_out"
run_repeated perf_state "$state_out"
run_repeated perf_watch "$watch_out"
run_repeated perf_compact "$compact_out"
run_repeated perf_enrich "$enrich_out"
run_bench perf_chaos "$chaos_out"
run_repeated perf_crypto "$crypto_out"

# Extended chaos campaign: the default ctest run already covers the
# fixed ~26-schedule campaign (chaos_torture); the sweep re-runs it with
# extra seed-derived fault schedules behind the `chaos` label.
if [ "${MTLSCOPE_SKIP_CHAOS_SWEEP:-0}" != "1" ]; then
  (cd "$build_dir" && ctest -C chaos -L chaos --output-on-failure)
fi
