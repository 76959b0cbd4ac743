#!/usr/bin/env bash
# Metrics-overhead gate: the instrumentation must cost < 2% of ingest
# throughput when compiled IN (its resting state — relaxed per-shard
# atomics off the contended paths). Builds bench_engine twice — default
# (GPS_METRICS=1) and -DGPS_METRICS=OFF — runs the best-of-N ingest probe
# from each, and fails if the instrumented engine throughput drops below
# (1 - GPS_OVERHEAD_PCT/100) of the stripped build's.
#
#   scripts/overhead_gate.sh [existing-instrumented-build-dir]
#
# Env knobs:
#   GPS_OVERHEAD_PCT   allowed overhead percent (default 2)
#   GPS_PROBE_EDGES    stream size (default 400000 — big enough that the
#                      per-edge cost dominates thread startup)
#   GPS_PROBE_TRIALS   best-of-N trials per build (default 5; best-of-N
#                      because a loaded host can only slow a trial down)
#
# The gate compares the K=4 engine path (the instrumented hot path: rings,
# workers, reservoirs); the serial probe is printed for context. Best-of-N
# on both sides keeps the comparison about the code, not scheduler noise.
set -euo pipefail
cd "$(dirname "$0")/.."

OVERHEAD_PCT="${GPS_OVERHEAD_PCT:-2}"
EDGES="${GPS_PROBE_EDGES:-400000}"
TRIALS="${GPS_PROBE_TRIALS:-5}"
ON_BUILD="${1:-build-metrics-on}"

if [[ ! -x "$ON_BUILD/bench_engine" ]]; then
  echo "--- building instrumented bench_engine ($ON_BUILD) ---"
  cmake -B "$ON_BUILD" -S . -DCMAKE_BUILD_TYPE=Release \
    -DGPS_BUILD_TESTS=OFF -DGPS_BUILD_EXAMPLES=OFF
  cmake --build "$ON_BUILD" -j"$(nproc)" --target bench_engine
fi

echo "--- building GPS_METRICS=0 bench_engine (build-metrics-off) ---"
cmake -B build-metrics-off -S . -DCMAKE_BUILD_TYPE=Release \
  -DGPS_METRICS=OFF -DGPS_BUILD_TESTS=OFF -DGPS_BUILD_EXAMPLES=OFF
cmake --build build-metrics-off -j"$(nproc)" --target bench_engine

# Copies the probe's output to fd 2 as it is, without reopening it: `tee
# /dev/stderr` would truncate a log file that stderr is redirected to.
probe() {
  local out
  out="$("$1/bench_engine" --edges "$EDGES" --no-exact \
    --ingest-probe "$TRIALS")" || return
  printf '%s\n' "$out" >&2
  awk -v key="$2" '$1 == key {print $2}' <<<"$out"
}

on_eps="$(probe "$ON_BUILD" ingest_probe_k4_eps)"
off_eps="$(probe build-metrics-off ingest_probe_k4_eps)"

awk -v on="$on_eps" -v off="$off_eps" -v pct="$OVERHEAD_PCT" 'BEGIN {
  overhead = 100.0 * (1.0 - on / off);
  printf "metrics on:  %.0f edges/s (K=4)\n", on;
  printf "metrics off: %.0f edges/s (K=4)\n", off;
  printf "overhead:    %.2f%% (gate: < %s%%)\n", overhead, pct;
  exit !(overhead < pct + 0.0);
}' || { echo "FAIL: metrics overhead gate"; exit 1; }
echo "OK: metrics overhead gate"
