#!/usr/bin/env bash
# Runs the perf benches and refreshes the checked-in perf-trajectory records:
#   bench/BENCH_parallel.json — parallel_scaling speedups + determinism gate
#   bench/BENCH_annotate.json — sharded-annotation speedups + determinism gate
#   bench/BENCH_walk.json     — scalar-vs-batched walk engine speedups +
#                               determinism and >=2x single-thread gates
#   bench/BENCH_perf.json     — google-benchmark microbench suite (JSON)
#   bench/BENCH_cache.json    — cold-vs-warm snapshot-store pipeline timing
#                               (gates warm >= 5x cold, zero warm installs)
#   bench/BENCH_approx.json   — approximate-vs-exact MaxCoverage quality and
#                               wall clock (gates quality >= 0.95x exact and
#                               >= 20x speedup on the 10k synthetic schema)
#   bench/BENCH_fault.json    — fault-injecting Env overhead + crash-recovery
#                               heal throughput (gates warm-path Env overhead
#                               <= 2% and a 50 ms deadline abort on the 10k
#                               synthetic summarize)
#   bench/BENCH_serve.json    — serving-daemon warm-path load test (gates
#                               p99 < 5 ms and >= 500 QPS at 8 concurrent
#                               clients, responses bit-identical to the
#                               one-shot pipeline, overload -> kUnavailable,
#                               deadline expiry -> wire error)
#   bench/BENCH_scenario.json — scenario-matrix pipeline timings over every
#                               bench/scenarios/ case (gates per-case
#                               determinism: sharded annotation == serial,
#                               summaries identical across threads/reruns;
#                               sanity: budget respected, coverage monotone
#                               in k)
#   bench/BENCH_delta.json    — incremental delta-summarization over a
#                               versioned scenario chain (gates: every step
#                               incremental, < 20% of the cold pipeline,
#                               bit-identical to cold at 1 and 8 threads)
# bench/ is the only record location; a full run fails loudly if any
# expected record is missing afterwards.
#
# The benches build in a dedicated Release tree (build-bench/ by default):
# every record embeds its build type, and the gated binaries exit 2 rather
# than emit JSON from a debug build (bench/bench_util.h), so the checked-in trajectory can only
# ever contain release numbers.
#
# Usage: bench/run_bench.sh [build-dir]   (default: <repo>/build-bench)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-bench}"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" --target parallel_scaling annotate_scaling \
  walk_scaling approx_scaling perf_microbench cache_warm fault_recovery \
  serve_scaling scenario_matrix delta_scaling -j "$(nproc)"

"$BUILD/bench/parallel_scaling" --json "$ROOT/bench/BENCH_parallel.json"

"$BUILD/bench/annotate_scaling" --json "$ROOT/bench/BENCH_annotate.json"

"$BUILD/bench/walk_scaling" --json "$ROOT/bench/BENCH_walk.json"

"$BUILD/bench/perf_microbench" \
  --benchmark_out="$ROOT/bench/BENCH_perf.json" \
  --benchmark_out_format=json

"$BUILD/bench/cache_warm" --json "$ROOT/bench/BENCH_cache.json"

"$BUILD/bench/approx_scaling" --json "$ROOT/bench/BENCH_approx.json"

"$BUILD/bench/fault_recovery" --json "$ROOT/bench/BENCH_fault.json"

"$BUILD/bench/serve_scaling" --json "$ROOT/bench/BENCH_serve.json"

"$BUILD/bench/scenario_matrix" --tier all \
  --json "$ROOT/bench/BENCH_scenario.json"

"$BUILD/bench/delta_scaling" --json "$ROOT/bench/BENCH_delta.json"

# A bench that silently failed to write its record must fail the run here,
# not surface later as a stale checked-in trajectory.
missing=0
for record in BENCH_parallel.json BENCH_annotate.json BENCH_walk.json \
              BENCH_perf.json BENCH_cache.json BENCH_approx.json \
              BENCH_fault.json BENCH_serve.json BENCH_scenario.json \
              BENCH_delta.json; do
  if [[ ! -s "$ROOT/bench/$record" ]]; then
    echo "ERROR: expected record bench/$record is missing or empty" >&2
    missing=1
  fi
done
[[ "$missing" -eq 0 ]] || exit 1
echo "perf trajectory updated in $ROOT/bench/"
