#!/usr/bin/env bash
# Local CI: Release build + full ctest (in an empty temp directory that
# must stay empty), the paper drivers and four examples (each must exit
# 0), the intersection-kernel gates (skewed blocks >= 2x, hub pairs
# >= 0.99x), the scaling bench smoke, then an ASan/UBSan Debug pass and
# a TSan Debug pass over the threaded engine suites — the TSan pass
# includes engine_metrics_test (snapshot aggregation racing live
# relaxed-atomic writers) and engine_merge_test (the multi-threaded
# merge passes inside monitor ticks), then a -DGPS_SIMD=OFF build with
# the full ctest (scalar intersection kernels and byte-at-a-time
# hash-table probes).
# A short traced perfbench run of every BENCHMARK.json workload checks
# that the replay driver still matches the CLI byte for byte.
# Throughput itself is judged end to end by perfbench (BENCHMARK.json),
# not here.
# Mirrors the release + sanitize + tsan + simd-off jobs of
# .github/workflows/ci.yml
# (CI additionally archives BENCH_scaling.json per run, parses and
# archives a sample metrics.json and trace.json, and schedules a nightly
# GPS_STAT_TRIALS=200 statistical pass).
#
# Every ctest invocation carries --timeout 300: a hung shard worker (a
# lost wake-up in the batch ring, a drain that never completes) must fail
# the suite fast, not stall the whole run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== Release build (-Werror) + ctest ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DGPS_WERROR=ON
cmake --build build -j"$(nproc)"
# TEST_TMPDIR and TMPDIR point at a fresh empty directory: every suite
# removes what it creates there, and anything left fails the check.
test_tmp=$(mktemp -d)
TEST_TMPDIR="$test_tmp" TMPDIR="$test_tmp" \
  ctest --test-dir build --output-on-failure -j"$(nproc)" --timeout 300
if [ -n "$(ls -A "$test_tmp")" ]; then
  echo "tests left entries in their temp directory $test_tmp:"
  ls -A "$test_tmp"
  exit 1
fi
rmdir "$test_tmp"

echo "=== Paper drivers and examples ==="
# Nothing else runs these programs, so each must exit 0 here: the seven
# paper drivers at GPS_BENCH_SCALE=0.05 (about 4 s in all) and four
# examples (under 1 s each; realtime_tracking is the caller-driven
# monitor loop end to end: feed, read MergedRecord() at each tick,
# finish). motif_monitoring stays compile-only: it runs for minutes.
for driver in bench_table1 bench_table2 bench_table3 bench_fig1 \
    bench_fig2 bench_fig3 bench_ablation_weights; do
  GPS_BENCH_SCALE=0.05 "./build/$driver"
done
for example in realtime_tracking quickstart retrospective_queries \
    baseline_shootout; do
  "./build/examples/$example"
done

echo "=== Intersection kernel gates (skewed blocks >= 2x, hub pairs >= 0.99x) ==="
# Per-kernel timings across adversarial size ratios plus two hard gates
# on adaptive dispatch against forced scalar merge: >= 2x on skewed
# block pairs (the hub-vs-leaf shape), and no loss (>= 0.99x) replaying
# the hub pairs of a sampled BA stream. Byte identity across kernels is
# a test contract (graph_intersect_test, down to a monitor's ticks), not
# a bench concern.
./build/bench_intersect --quick

echo "=== Scaling bench smoke (JSON artifact) ==="
GPS_BENCH_SCALE=0.05 ./build/bench_scaling --json build/BENCH_scaling.json

echo "=== Replay byte identity (perfbench --trace 1) ==="
# perfbench/replay.cc drives the union API (BuildUnionSample,
# EstimateCrossShard, EstimateMergedPostStream) the way gps_cli does, and
# its stdout must equal the CLI's byte for byte; a short traced run of
# each workload fails here, not only in the benchmark pipeline. At K=1
# (orkut-serial) the replay calls InStreamEstimator and
# EstimatePostStreamParallel directly, so it checks that the CLI's engine
# route still prints the serial estimator's bytes.
for workload in orkut-serial orkut-monitor amazon-binary; do
  last=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
    --seconds 2 --trace 1 | tail -n 1)
  echo "$last" | grep -q '"correct": true' || {
    echo "perfbench replay of $workload is not correct: $last"
    exit 1
  }
done

echo "=== ASan/UBSan build + engine/serialization/cli/store/ingest tests ==="
# graph_binary_stream_test + graph_edge_list_test ride along: the
# GPS-STREAM reader hands out spans into its block buffer (sized by each
# block's own edge count) and the strict bulk text parser walks read
# buffers whose lines straddle two reads — exactly the code ASan must
# bless for out-of-bounds reads on truncated/corrupt/mutated inputs.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DGPS_SANITIZE=address \
  -DGPS_BUILD_BENCHES=OFF -DGPS_BUILD_EXAMPLES=OFF
# engine_router_test rides along for the span-lifetime rules:
# ProcessEdges routes spans aliasing the producer's input into the shard
# rings (graph_binary_stream_test: spans into the reader's block buffer).
# graph_intersect_test rides along for the simd kernels: unaligned
# vector loads and scalar tails over arena block boundaries are exactly
# where an out-of-bounds read would hide.
# core_in_stream_test and core_reservoir_test drive Algorithm 3's
# per-arrival loop directly (duplicates, loops, eviction edge cases): it
# indexes raw per-slot record pointers and prefetches ahead. The engine_
# suites drive its two-thread form, whose slot log records span chunks.
# util_flat_hash_map_test and graph_sampled_graph_test drive the node
# table's 16-byte control-byte group loads, which end exactly at the
# table's last byte. core_motifs_test and core_snapshot_test drive the
# motif enumerators' nested neighbor-block walks and the emitter's slot
# lookups.
cmake --build build-asan -j"$(nproc)" --target \
  engine_ring_buffer_test engine_sharded_test engine_checkpoint_test \
  engine_resume_test engine_metrics_test engine_router_test \
  engine_merge_test \
  core_parallel_test core_serialize_test core_packed_store_test \
  core_in_stream_test core_reservoir_test core_motifs_test \
  core_snapshot_test \
  graph_binary_stream_test graph_edge_list_test graph_intersect_test \
  graph_sampled_graph_test util_flat_hash_map_test \
  util_parse_bytes_test cli_test gps_cli
ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
  --timeout 300 \
  -R 'engine_|core_parallel|core_serialize|core_packed_store|core_in_stream|core_reservoir|core_motifs|core_snapshot|graph_binary_stream|graph_edge_list|graph_intersect|graph_sampled_graph|util_flat_hash_map|util_parse_bytes|cli_test'

echo "=== TSan build + threaded suites ==="
# engine_ring_buffer_test drives the batch ring's sleeping waits (full
# Push, empty Pop, WaitDrained) on two threads. engine_metrics_test rides
# along: metric snapshots race live relaxed writers by design, exactly
# what TSan must bless. core_packed_store_test covers the store each
# shard worker owns.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DGPS_SANITIZE=thread \
  -DGPS_BUILD_BENCHES=OFF -DGPS_BUILD_EXAMPLES=OFF
# graph_binary_stream_test feeds GPS-STREAM block spans from the
# reader's buffer into live shard worker rings (BinaryStreamReader::Block
# -> ProcessEdges) — the hand-off TSan must bless. engine_router_test
# feeds spans of every size the same way.
# graph_intersect_test rides along: per-shard IntersectMetrics counters
# are relaxed atomics that metric snapshots read while workers run.
# engine_merge_test runs the Algorithm-2 merge passes on several threads
# inside monitor ticks (fixed-chunk driver + union patch), and the union
# update's parallel eviction detection, record refresh and triangle-list
# recomputation; engine_sharded_test and engine_resume_test reach the same
# code through monitor ticks and merges.
# engine_checkpoint_test and engine_resume_test cover the checkpoint
# writers: SerializeShards streams the drained shards into their files on
# the merge threads, and engine_resume_test's monitor loop calls it right
# after a tick's merge passes.
# engine_sharded_test's SingleShard* cases and engine_resume_test's
# SingleShardCheckpointBetweenHelperSpans feed K=1 spans above
# kMinHelperSpan: the producer/helper hand-off over the slot log, with
# its spinning waits and records larger than a chunk.
cmake --build build-tsan -j"$(nproc)" --target \
  engine_ring_buffer_test engine_sharded_test engine_metrics_test \
  engine_router_test engine_merge_test engine_checkpoint_test \
  engine_resume_test \
  core_parallel_test core_packed_store_test graph_binary_stream_test \
  graph_intersect_test
ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
  --timeout 300 \
  -R 'engine_ring_buffer|engine_sharded|engine_metrics|engine_router|engine_merge|engine_checkpoint|engine_resume|core_parallel|core_packed_store|graph_binary_stream|graph_intersect'

echo "=== Scalar-only build (-DGPS_SIMD=OFF) + full ctest ==="
# The vector kernels compiled out entirely (the non-x86 path). The full
# suite must pass on scalar merge/gallop alone, and the differential
# tests prove the scalar kernels produce the same bytes the SIMD build
# does — the determinism contract is per-kernel, not per-ISA. Hash-table
# probes take the byte-at-a-time tag walk here, and
# util_flat_hash_map_test's layout identity checks it against a scalar
# reference table.
cmake -B build-nosimd -S . -DCMAKE_BUILD_TYPE=Release -DGPS_SIMD=OFF \
  -DGPS_WERROR=ON -DGPS_BUILD_BENCHES=OFF -DGPS_BUILD_EXAMPLES=OFF
cmake --build build-nosimd -j"$(nproc)"
ctest --test-dir build-nosimd --output-on-failure -j"$(nproc)" --timeout 300

echo "OK"
