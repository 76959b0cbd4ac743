#!/usr/bin/env python3
"""End-to-end benchmark of gps_cli on in-repo corpus streams.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds gps_cli and the replay driver (Release) into .bench_build/, makes
the inputs and the exact count with gps_cli at set-up (never timed), then
measures one workload for about S seconds. --trace 0 times the untraced
gps_cli child (a closed loop with one client; invocation i gets --seed
SEED + 1000003*i), times the reference job perfbench/probe.cc between
invocations, and reports the end-to-end metrics with every timing scaled
to the reference host speed (see REF_PROBE_S); --trace 1 alternates
it with perfbench/replay.cc, whose stdout must match the CLI's byte for
byte, and reports the per-layer metrics. perfbench/README.md defines every
metric. The last stdout line is one JSON object: correct, attempted,
failed, metrics; a copy with host, build and samples goes to
.bench_build/results/.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_ROOT = ROOT / ".bench_build"
CMAKE_DIR = BUILD_ROOT / "cmake"
CHILD_TIMEOUT_S = 120.0
SEED_STRIDE = 1000003
SETUP_PROBES = 20
# gps_probe's median time on the reference host (4-vCPU Xeon). Timings are
# reported as on that host: measured time * REF_PROBE_S / the run's median
# probe time. The host's speed drifts by +-15% over minutes; the probe
# drifts with it, so the ratio cancels most of that from run to run.
REF_PROBE_S = 0.21
# Share of the loop's child time given to gps_probe runs, spread over the
# loop (at least one before the first invocation): about a dozen probes in a
# 25 s run, whatever the length of one invocation.
PROBE_SHARE = 0.1

# name -> (input, gps_cli arguments after --input). Inputs are built at
# set-up (see make_inputs).
WORKLOADS = {
    "orkut-serial": ("orkut-text", ["estimate", "--capacity", "100000"]),
    "orkut-sharded": ("orkut-text",
                      ["estimate", "--capacity", "100000", "--shards", "4"]),
    "orkut-monitor": ("orkut-text",
                      ["monitor", "--capacity", "100000", "--shards", "4",
                       "--every", "20000", "--checkpoint-every", "200000"]),
    "amazon-binary": ("amazon-binary",
                      ["estimate", "--capacity", "50000", "--shards", "4"]),
}

END_TO_END = {
    "edges_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tri_ci_rel": "ratio",
    "post_tri_ci_rel": "ratio",
    "row_gap_ms_p50": "ms",
    "row_gap_ms_p75": "ms",
}

# Per-layer metrics: (unit, how one replay yields it). "sum:" and "median:"
# aggregate the durations of the named spans; "counter" reads the value the
# replay collected after the run; "self:" is a layer's self time; "run"
# values come from the whole trace run (walls, baselines).
PER_LAYER = {
    "graph.load_s": ("s", "sum:graph.load"),
    "graph.permute_s": ("s", "sum:graph.permute"),
    "graph.intersect.calls": ("count", "counter"),
    "graph.intersect.gallop_share": ("ratio", "counter"),
    "graph.intersect.simd_share": ("ratio", "counter"),
    "graph.intersect.comparisons_saved": ("count", "counter"),
    "core.ingest_s": ("s", "sum:core.ingest"),
    "core.post_stream_s": ("s", "sum:core.post_stream"),
    "core.reservoir.admit_ratio": ("ratio", "counter"),
    "core.reservoir.precheck_reject_ratio": ("ratio", "counter"),
    "core.reservoir.evictions": ("count", "counter"),
    "core.store.probe_len_p99": ("count", "counter"),
    "core.serialize.checkpoint_s": ("s", "median:core.serialize.checkpoint"),
    "core.serialize.checkpoint_bytes": ("bytes", "counter"),
    "engine.ingest_s": ("s", "sum:engine.ingest"),
    "engine.drain_s": ("s", "sum:engine.drain"),
    "engine.worker_busy_max_s": ("s", "counter"),
    "engine.worker_idle_share": ("ratio", "counter"),
    "engine.ring.push_fail_per_batch": ("ratio", "counter"),
    "engine.route_s": ("s", "counter"),
    "engine.merge.union_build_s": ("s", "sum:engine.merge.union_build"),
    "engine.merge.cross_pass_s": ("s", "sum:engine.merge.cross_pass"),
    "engine.merge.post_stream_s": ("s", "sum:engine.merge.post_stream"),
    "engine.merge.tick_s_p50": ("s", "median:engine.merge.tick"),
    "engine.merge.union_sample_size": ("count", "counter"),
    "engine.merge.cross_var_share": ("ratio", "counter"),
    "self.replay_s": ("s", "self:replay"),
    "self.graph_s": ("s", "self:graph"),
    "self.core_s": ("s", "self:core"),
    "self.engine_s": ("s", "self:engine"),
    "self.engine.merge_s": ("s", "self:engine.merge"),
    "trace.overhead": ("ratio", "run"),
    "baselines.triest.edges_per_s": ("1/s", "run"),
    "baselines.triest.rel_err": ("ratio", "run"),
    "graph.exact_s": ("s", "run"),
}
LAYERS = ["replay", "graph", "core", "engine", "engine.merge"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code=1):
    log(f"error: {message}")
    sys.exit(code)


# ---- Build, host and inputs (set-up; never timed) ---------------------------

def build():
    """Configures once, then (re)builds gps_cli, gps_replay and gps_probe."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "tools" / "gps_cli.cc").is_file():
        fail(f"no gps source tree around {BENCH_DIR}; run from a checkout", 2)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
                  "--target", "gps_cli", "gps_replay", "gps_probe"])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")
    return (CMAKE_DIR / "gps" / "gps_cli", CMAKE_DIR / "gps_replay",
            CMAKE_DIR / "gps_probe")


def host_and_build(cli):
    """nproc, CPU and `gps_cli version`; refuses a non-Release build."""
    version = subprocess.run([str(cli), "version"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
    fields = {}
    for line in version.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 2 and parts[0] and not parts[0].startswith("-"):
            fields[parts[0]] = parts[1]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            match = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            cpu = match.group(1) if match else cpu
    except OSError:
        pass
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "build_type": fields.get("build type", "unknown"),
        "intersect_simd": fields.get("intersect simd", "unknown"),
        "metrics": fields.get("metrics", "unknown"),
    }
    print(f"host: nproc {info['nproc']}, cpu {info['cpu']}")
    print(f"build: {info['build_type']}, intersect simd "
          f"{info['intersect_simd']}, metrics {info['metrics']}")
    if info["build_type"] != "Release":
        fail(f"refusing to record numbers from a {info['build_type']} build")
    return info


def run_quiet(argv):
    result = subprocess.run(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            timeout=CHILD_TIMEOUT_S)
    if result.returncode != 0:
        fail(f"set-up step failed: {' '.join(argv)}\n{result.stderr}")
    return result.stdout


def exact_triangles(cli, path):
    out = run_quiet([str(cli), "exact", "--input", str(path)])
    match = re.search(r"^\s*triangles\s*\|\s*(\d+)", out, re.M)
    if not match:
        fail(f"cannot parse `gps_cli exact` output:\n{out}")
    return float(match.group(1))


def make_inputs(cli, tmp, which):
    """Generates the workload's input; returns (path, exact triangles)."""
    if which == "orkut-text":
        path = tmp / "soc-orkut-sim.txt"
        run_quiet([str(cli), "generate", "--name", "soc-orkut-sim",
                   "--output", str(path)])
    else:
        text = tmp / "com-amazon-sim.txt"
        path = tmp / "com-amazon-sim.gpss"
        run_quiet([str(cli), "generate", "--name", "com-amazon-sim",
                   "--output", str(text)])
        run_quiet([str(cli), "convert", "--input", str(text), "--output",
                   str(path), "--to", "binary"])
    return path, exact_triangles(cli, path)


# ---- One child invocation ---------------------------------------------------

class Invocation:
    """A child run: stdout lines with arrival times, wall time, peak RSS.
    A set-up probe (setup_only) is stopped once its first line arrives."""

    def __init__(self, argv, stderr_path, setup_only=False):
        self.lines = []  # (seconds since spawn, text)
        stdbuf = shutil.which("stdbuf")
        if stdbuf is None:
            fail("stdbuf (coreutils) is required to time the first line")
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([stdbuf, "-oL"] + argv,
                                    stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                for raw in proc.stdout:
                    self.lines.append((time.perf_counter() - start,
                                       raw.decode(errors="replace")))
                    if setup_only:
                        proc.kill()
                        break
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall_s = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                proc.stdout.close()
                if proc.returncode is None:  # interrupted: reap the child
                    proc.kill()
                    proc.wait()
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = "".join(text for _, text in self.lines)
        self.setup_s = self.lines[0][0] if self.lines else self.wall_s
        self.error = ""
        if proc.returncode != 0:
            self.error = (f"exit code {proc.returncode}: "
                          f"{Path(stderr_path).read_text()[-2000:]}")
        elif not self.lines:
            self.error = "no output"
        self.ok = not self.error


TRIANGLE_ROW = re.compile(
    r"^\s*triangles\s*\|\s*([\d.]+)\s*\|\s*\[([\d.]+),\s*([\d.]+)\]")
BANNER = re.compile(r"^stream: (\d+) edges")


def parse_estimate(inv):
    """Banner edge count and the (arrival time, value, lo, hi) of each
    estimate block's triangle row."""
    edges, blocks, block_time = None, [], None
    for t, line in inv.lines:
        if edges is None and (m := BANNER.match(line)):
            edges = int(m.group(1))
        elif "estimates" in line and line.rstrip().endswith(":"):
            block_time = t
        elif (m := TRIANGLE_ROW.match(line)) and block_time is not None:
            blocks.append((block_time, *(float(g) for g in m.groups())))
            block_time = None
    if edges is None or len(blocks) != 2:
        raise ValueError("expected a stream banner and two estimate blocks")
    return edges, blocks


def parse_monitor(inv):
    """(arrival time, edges, triangles, lo, hi) per CSV data row."""
    if not inv.lines or not inv.lines[0][1].startswith("edges,triangles,"):
        raise ValueError("missing monitor CSV header")
    rows = []
    for t, line in inv.lines[1:]:
        cols = line.strip().split(",")
        if len(cols) < 4:
            raise ValueError(f"short CSV row: {line!r}")
        rows.append((t, int(cols[0]), float(cols[1]), float(cols[2]),
                     float(cols[3])))
    if len(rows) < 2 or any(b[1] <= a[1] for a, b in zip(rows, rows[1:])):
        raise ValueError("expected increasing monitor rows")
    return rows


def measure(inv, exact, monitor):
    """One invocation's samples; raises ValueError when its output is
    wrong."""
    if not inv.ok:
        raise ValueError(inv.error)
    if monitor:
        rows = parse_monitor(inv)
        edges = rows[-1][1]
        estimates = [rows[-1][2:]]
        gaps = [(b[0] - a[0]) * 1e3 for a, b in zip(rows, rows[1:])]
    else:
        edges, blocks = parse_estimate(inv)
        estimates = [b[1:] for b in blocks]
        gaps = [(blocks[1][0] - blocks[0][0]) * 1e3]
    for value, lo, hi in estimates:
        if abs(value - exact) > 3 * (hi - lo) / 2:
            raise ValueError(f"exact {exact:.0f} outside 3x the CI of "
                             f"{value:.0f} [{lo:.0f}, {hi:.0f}]")
    ci = [(hi - lo) / 2 / exact for _, lo, hi in estimates]
    return {
        "edges_per_s": edges / inv.wall_s,
        "setup_s": inv.setup_s,
        "peak_rss_mb": inv.rss_mb,
        "tri_ci_rel": ci[0],
        "post_tri_ci_rel": ci[-1],
        "wall_s": inv.wall_s,
        "gaps_ms": gaps,
    }


def summarize(samples, probe_setups, host_scale):
    """Medians over the run; timings are multiplied by host_scale."""
    gaps = [g for s in samples for g in s["gaps_ms"]]
    quartiles = statistics.quantiles(gaps, n=4) if len(gaps) > 1 else gaps * 3
    out = {name: statistics.median(s[name] for s in samples)
           for name in END_TO_END if not name.startswith("row_gap")}
    out["edges_per_s"] /= host_scale
    out["setup_s"] = host_scale * statistics.median(
        probe_setups + [s["setup_s"] for s in samples])
    out["row_gap_ms_p50"] = host_scale * quartiles[1]
    out["row_gap_ms_p75"] = host_scale * quartiles[2]
    return out


# ---- Trace run: spans -> per-layer metrics ------------------------------------

def layer_of(name):
    if name == "replay":
        return "replay"
    if name.startswith("engine.merge."):
        return "engine.merge"
    return name.split(".")[0]


def self_times(spans):
    """Per layer: span durations minus the part their child spans cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    totals = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span["start_s"]
        for child in sorted(children.get(i, []), key=lambda c: c["start_s"]):
            lo, hi = max(child["start_s"], cursor), child["end_s"]
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[layer_of(span["name"])] += (span["end_s"] - span["start_s"]
                                           - covered)
    return totals


def per_layer_values(trace):
    spans, counters = trace["spans"], trace["counters"]
    selfs = self_times(spans)
    values = {}
    for name, (_, rule) in PER_LAYER.items():
        kind, _, arg = rule.partition(":")
        durations = [s["end_s"] - s["start_s"] for s in spans
                     if s["name"] == arg]
        if kind == "sum":
            values[name] = sum(durations)
        elif kind == "median":
            values[name] = statistics.median(durations) if durations else 0.0
        elif kind == "counter":
            values[name] = float(counters.get(name, 0.0))
        elif kind == "self":
            values[name] = selfs[arg]
    return values


def print_self_table(workload, layer_medians, replay_wall_s):
    total = sum(layer_medians[f"self.{layer}_s"] for layer in LAYERS)
    print(f"self time per layer ({workload}, median over replays):")
    print(f"  {'layer':<14}{'self s':>10}{'share':>9}")
    for layer in LAYERS:
        value = layer_medians[f"self.{layer}_s"]
        print(f"  {layer:<14}{value:>10.4f}{value / max(total, 1e-12):>9.1%}")
    print(f"  {'sum':<14}{total:>10.4f}   of {replay_wall_s:.4f} s replay "
          f"process wall (rest: process start and exit)")


# ---- Driver -------------------------------------------------------------------

def loop_until(seconds, min_runs, step):
    """Calls step(i) until one more run would pass `seconds` (at least
    min_runs times); step returns the wall seconds it took."""
    start = time.perf_counter()
    durations = []
    while True:
        durations.append(step(len(durations)))
        elapsed = time.perf_counter() - start
        if len(durations) >= min_runs and (
                elapsed + statistics.median(durations) > seconds):
            return


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli, replay, host_probe = build()
    info = host_and_build(cli)
    input_kind, cli_args = WORKLOADS[args.workload]
    monitor = cli_args[0] == "monitor"
    BUILD_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT))
    try:
        path, exact = make_inputs(cli, tmp, input_kind)
        print(f"workload {args.workload}: gps_cli {cli_args[0]} --input "
              f"{path.name} {' '.join(cli_args[1:])}; exact triangles "
              f"{exact:.0f}")

        def argv(binary, i, extra=()):
            seed = args.seed + SEED_STRIDE * i
            out = [str(binary), cli_args[0], "--input", str(path),
                   *cli_args[1:], "--seed", str(seed), *extra]
            if monitor:
                out += ["--checkpoint", str(tmp / f"ckpt-{binary.name}")]
            return out

        samples, failures, traces = [], [], []
        cli_walls, replay_walls = [], []
        attempted = 0

        def run_cli(i):
            nonlocal attempted
            attempted += 1
            inv = Invocation(argv(cli, i), tmp / "stderr.txt")
            try:
                samples.append(measure(inv, exact, monitor))
                cli_walls.append(inv.wall_s)
            except ValueError as err:
                failures.append(f"gps_cli seed index {i}: {err}")
            return inv

        probe_setups, host_probe_times = [], []
        cli_seconds = 0.0

        def run_host_probe():
            out = subprocess.run([str(host_probe)], stdout=subprocess.PIPE,
                                 text=True, check=True,
                                 timeout=CHILD_TIMEOUT_S).stdout
            host_probe_times.append(float(out.split()[0]))

        def timed_cli(i):
            nonlocal cli_seconds
            start = time.perf_counter()
            while not host_probe_times or (sum(host_probe_times)
                                      < PROBE_SHARE * cli_seconds):
                run_host_probe()
            cli_seconds += run_cli(i).wall_s
            return time.perf_counter() - start

        if args.trace == 0:
            # Set-up probes: more setup_s samples than full invocations give
            # (monitor fits only a few); not operations, as they never finish.
            start = time.perf_counter()
            probe_setups = [
                Invocation(argv(cli, i), tmp / "stderr.txt", True).setup_s
                for i in range(SETUP_PROBES)]
            loop_until(args.seconds - (time.perf_counter() - start), 3,
                       timed_cli)
        else:
            attempted += 1
            capacity = cli_args[cli_args.index("--capacity") + 1]
            base = run_quiet([str(replay), "baselines", "--input", str(path),
                              "--capacity", capacity, "--seed",
                              str(args.seed)])
            baselines = json.loads(base.strip().splitlines()[-1])
            if baselines.pop("exact_triangles") != exact:
                failures.append("replay oracle disagrees with gps_cli exact")

            def pair(i):
                nonlocal attempted
                reference = run_cli(i)
                attempted += 1
                spans_path = tmp / "spans.json"
                traced = Invocation(
                    argv(replay, i, ["--spans-out", str(spans_path)]),
                    tmp / "stderr.txt")
                if not traced.ok:
                    failures.append(f"replay seed index {i}: {traced.error}")
                elif traced.stdout != reference.stdout:
                    failures.append(f"replay seed index {i}: stdout differs "
                                    "from gps_cli's")
                else:
                    traces.append(json.loads(spans_path.read_text()))
                    replay_walls.append(traced.wall_s)
                return reference.wall_s + traced.wall_s

            loop_until(args.seconds, 1, pair)

        for message in failures:
            log(f"FAILED {message}")
        units = END_TO_END if args.trace == 0 else {
            name: unit for name, (unit, _) in PER_LAYER.items()}
        values = dict.fromkeys(units, 0.0)  # stays 0 if nothing succeeded
        host_scale = None
        if args.trace == 0 and samples:
            probe_s = statistics.median(host_probe_times)
            host_scale = REF_PROBE_S / probe_s
            print(f"host speed: gps_probe median {probe_s:.4f} s over "
                  f"{len(host_probe_times)} runs (reference {REF_PROBE_S} s); "
                  f"timings scaled by {host_scale:.4f}")
            values = summarize(samples, probe_setups, host_scale)
        elif args.trace == 1 and traces and cli_walls:
            per_replay = [per_layer_values(t) for t in traces]
            values = {name: statistics.median(v[name] for v in per_replay)
                      for name in per_replay[0]}
            replay_wall = statistics.median(replay_walls)
            values["trace.overhead"] = (replay_wall /
                                        statistics.median(cli_walls) - 1)
            values.update(baselines)
            print_self_table(args.workload, values, replay_wall)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}

        print(f"{'metric':<38}{'value':>18}  unit")
        for name, metric in metrics.items():
            print(f"{name:<38}{metric['value']:>18.6g}  {metric['unit']}")
        print(f"operations: {len(failures)} failed of {attempted} attempted")
        measured = samples if args.trace == 0 else traces
        result = {"correct": not failures and bool(measured),
                  "attempted": attempted, "failed": len(failures),
                  "metrics": metrics}
        results_dir = BUILD_ROOT / "results"
        results_dir.mkdir(exist_ok=True)
        record = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, host=info,
                      failures=failures, samples=samples,
                      probe_setups=probe_setups,
                      host_probe_times=host_probe_times,
                      host_scale=host_scale)
        (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
         ".json").write_text(json.dumps(record, indent=1) + "\n")
        print(json.dumps(result))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
