#!/usr/bin/env python3
"""Repository benchmark for the RootHammer simulator.

Builds perfbench (perfbench/CMakeLists.txt) from the checkout's sources,
runs one named workload for a time budget, checks the simulated outputs
and prints every metric by name, unit and direction. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload fleet_steady --seed 7 \
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics: it runs rounds over the
workload's cells (independent fleets seeded from --seed) until the time
budget is spent.
--trace 1 reports the per-layer metrics of cell 0: it alternates
untraced and traced iterations (the traced one slices the measurement
window and records spans) and adds the vmm layer probe.

Each iteration is a fresh perfbench process, so its peak RSS is its own.
An operation is one simulated session request; a run that fails a
correctness check counts all of its operations as failed and exits 1.
Full results, provenance and spans go to .bench_build/results/.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
BINARY = BUILD_DIR / "perfbench"
BUILD_TYPE = "RelWithDebInfo"

# Independent fleets simulated per run, cell j seeded seed + j * stride
# (cell 0 is the seed itself). A crash cell's host-time cost moves ~10 %
# with its fault schedule, so a run averages three; fleet_steady draws no
# random numbers, so one cell stands for every seed.
CELLS = {"fleet_steady": 1, "crash_reboot": 3, "crash_micro": 3}
CELL_SEED_STRIDE = 1_000_003
# Timed iterations run on 1 PDES worker: on a shared box, hypervisor
# steal on either vCPU stalls every window barrier of a 2-worker run, and
# its wall time swung 1.5 -> 4.8 s between runs. Cell 0 also runs on this
# many workers, outside the end-to-end timing: its digest must match. The
# traced run repeats it with every traced pair and feeds the medians to
# the pdes per-layer metrics.
PARALLEL_WORKERS = 2
MIN_ITERATIONS = 3
ITERATION_TIMEOUT_S = 150

# Workloads and metric catalogs (name -> unit, direction) come from
# BENCHMARK.json, in its order, which is the print order.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}


class BenchError(Exception):
    """A failure that prevents any result from being printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    # Concurrent invocations in one checkout share the build tree.
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "perfbench", "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd))


def perfbench(args):
    """Runs the binary once; returns its JSON output."""
    try:
        proc = subprocess.run([str(BINARY)] + args, capture_output=True,
                              text=True, timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"perfbench {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"perfbench {' '.join(args)} exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


# ------------------------------------------------------------- provenance

def provenance(workload, seed, trace):
    info = perfbench(["--provenance"])
    git = ""
    # Only the checkout's own repository: never one that encloses it.
    if (ROOT / ".git").exists():
        try:
            describe = subprocess.run(
                ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                capture_output=True, text=True, timeout=30)
            git = describe.stdout.strip() if describe.returncode == 0 else ""
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_describe": git or "unknown (not a git checkout)",
        "dirty": git.endswith("-dirty"),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "optimised": info["optimised"],
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


# ---------------------------------------------------------------- checks

def iteration_problems(workload, it):
    """Correctness problems of one iteration's simulated outputs."""
    problems = []
    for key in ("pooled", "p99", "p999"):
        if not 0.0 <= it[key] <= 1.0:
            problems.append(f"{key} availability {it[key]} outside [0, 1]")
    # SessionFleet::stats derives pooled availability from the same
    # downtime sums, so this only checks that they reach us intact.
    down = it["planned_downtime_us"] + it["unplanned_downtime_us"]
    expected = max(0.0, 1.0 - down / (it["sessions"] * it["window_us"]))
    if not math.isclose(it["pooled"], expected, rel_tol=1e-12,
                        abs_tol=1e-12):
        problems.append(f"pooled availability {it['pooled']!r} != 1 - "
                        f"(planned + unplanned) / (sessions x window) = "
                        f"{expected!r}")
    # Independent accounting: the fleet counts replies, the balancer counts
    # requests it dispatched or rejected in the window. Each closed-loop
    # session has at most one request in flight at either window edge.
    requests = it["completions"] + it["failures"]
    balanced = it["window"]["dispatched"] + it["window"]["rejected"]
    if requests == 0:
        problems.append("no simulated requests")
    if abs(requests - balanced) > it["sessions"]:
        problems.append(f"fleet saw {requests} requests but the balancer "
                        f"dispatched or rejected {balanced}")
    if workload == "fleet_steady":
        if it["hosts_rejuvenated"] == 0:
            problems.append("vacuous: no host rejuvenated in the window")
        if it["failures"] != 0:
            problems.append(f"{it['failures']} failed requests in a "
                            f"fault-free fleet")
    return problems


# --------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank percentile (p88 of 90 samples has 10 above it)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def end_to_end_metrics(cells):
    """Host time: mean over cells of each cell's median. Simulated
    outcome: mean over cells (every iteration of a cell is identical)."""
    def host(key):
        return statistics.fmean(median([it[key] for it in its])
                                for its in cells)

    def sim(fn):
        return statistics.fmean(fn(its[0]) for its in cells)

    return {
        "setup_s": host("setup_s"),
        "run_s": host("run_s"),
        "cpu_s": host("cpu_s"),
        "peak_rss_mb": host("peak_rss_mb"),
        "sim_completions": sim(lambda it: it["completions"]),
        "sim_availability_pooled": sim(lambda it: it["pooled"]),
        "sim_availability_p99": sim(lambda it: it["p99"]),
        # VMM rejuvenations completed in the window: successful wave turns
        # plus unplanned recoveries (each leaves a fresh VMM instance).
        "sim_hosts_rejuvenated": sim(
            lambda it: it["hosts_rejuvenated"] + it["unplanned"]["recoveries"]),
    }


def per_layer_metrics(traced, untraced, parallel, probe):
    t = traced[0]
    run, window, unplanned = t["run"], t["window"], t["unplanned"]
    events = run["events_control"] + run["events_shards"] + run["events_hosts"]
    requests = t["completions"] + t["failures"]
    recoveries = unplanned["recoveries"] + t["hosts_rejuvenated"]
    # Per-unit times use the untraced median; counts are identical.
    run_s = median([it["run_s"] for it in untraced])
    return {
        "vmm.build.cluster_ctor_s": median(
            [it["cluster_ctor_s"] for it in traced]),
        "vmm.build.boot_s": median([it["boot_s"] for it in traced]),
        "vmm.build.sys_s": median([it["setup_sys_s"] for it in traced]),
        "vmm.build.rss_mb": median([it["build_rss_mb"] for it in traced]),
        "vmm.probe.host_build_ms": 1e3 * median(probe["host_build_s"]),
        "vmm.probe.micro_recover_ms": 1e3 * median(probe["micro_recover_s"]),
        "cluster.fleet.ctor_s": median([it["fleet_ctor_s"] for it in traced]),
        "cluster.fleet.stats_s": median([it["stats_s"] for it in traced]),
        "cluster.fleet.requests": requests,
        "cluster.fleet.completions": t["completions"],
        "cluster.fleet.failures": t["failures"],
        "cluster.fed.dispatched": window["dispatched"],
        "cluster.fed.rejected": window["rejected"],
        "cluster.fed.federated": window["federated"],
        "cluster.fed.crash_broadcasts": window["crash_broadcasts"],
        "cluster.fed.shard_events_per_request":
            window["events_shards"] / max(1, requests),
        "cluster.waves.started": t["waves_started"],
        "cluster.waves.hosts_rejuvenated": t["hosts_rejuvenated"],
        "cluster.waves.admission_pauses": t["admission_pauses"],
        "cluster.waves.deferred_turns": t["deferred_turns"],
        "simcore.events": events,
        "simcore.events.control": run["events_control"],
        "simcore.events.shards": run["events_shards"],
        "simcore.events.hosts": run["events_hosts"],
        "simcore.ns_per_event": 1e9 * run_s / max(1, events),
        "pdes.windows": run["windows"],
        "pdes.messages": run["messages"],
        "pdes.events_per_window": events / max(1, run["windows"]),
        "pdes.us_per_window": 1e6 * run_s / max(1, run["windows"]),
        "pdes.run_sys_s": median([it["run_sys_s"] for it in parallel]),
        "pdes.cpu_per_wall": median(
            [it["cpu_s"] / it["run_s"] for it in parallel]),
        "pdes.speedup": run_s / median([it["run_s"] for it in parallel]),
        "pdes.host_event_skew": t["host_event_skew"],
        "pdes.slice_ms_p50": 1e3 * median(
            [percentile(it["slice_s"], 50) for it in traced]),
        "pdes.slice_ms_p88": 1e3 * median(
            [percentile(it["slice_s"], 88) for it in traced]),
        "rejuv.failures": unplanned["failures"],
        "rejuv.absorbed": unplanned["absorbed"],
        "rejuv.recoveries": unplanned["recoveries"],
        "rejuv.micro_recoveries": unplanned["micro_recoveries"],
        "rejuv.unrecovered": unplanned["unrecovered"],
        "rejuv.host_events_per_recovery":
            window["events_hosts"] / max(1, recoveries),
        "trace.overhead_pct": 100.0 * (
            median([it["run_s"] for it in traced]) / run_s - 1.0),
    }


# ------------------------------------------------------------------ run

def run_untraced(workload, seeds, seconds):
    """Rounds over the cells until the time budget is spent; returns one
    list of iterations per cell."""
    cells = [[] for _ in seeds]
    # Two rounds at least, so every cell's digest is seen to repeat.
    min_rounds = max(2, math.ceil(MIN_ITERATIONS / len(seeds)))
    start = time.monotonic()
    rounds = 0
    while True:
        t0 = time.monotonic()
        for its, cell_seed in zip(cells, seeds):
            its.append(perfbench(["--workload", workload,
                                  "--seed", str(cell_seed)]))
        rounds += 1
        round_wall = time.monotonic() - t0
        if (rounds >= min_rounds
                and time.monotonic() - start + round_wall > seconds):
            return cells


def run_traced(workload, seed, seconds, spans_path):
    """Cycles untraced, traced and parallel iterations of cell 0 until the
    time budget is spent; a traced one writes its spans to spans_path."""
    base = ["--workload", workload, "--seed", str(seed)]
    untraced, traced, parallel = [], [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        untraced.append(perfbench(base))
        traced.append(perfbench(base + ["--trace", str(spans_path)]))
        parallel.append(perfbench(
            base + ["--workers", str(PARALLEL_WORKERS)]))
        cycle_wall = time.monotonic() - t0
        if time.monotonic() - start + cycle_wall > seconds:
            return untraced, traced, parallel


def measure(args):
    prov = provenance(args.workload, args.seed, args.trace)
    if not prov["optimised"]:
        log(f"WARNING: perfbench build is not optimised "
            f"({prov['build_type']}); timings are not comparable")

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = RESULTS_DIR / f"{stem}-spans.json"
    seeds = [args.seed + j * CELL_SEED_STRIDE
             for j in range(CELLS[args.workload])]
    problems = []

    probe = None
    if args.trace:
        untraced, traced, parallel = run_traced(
            args.workload, args.seed, args.seconds, spans_path)
        cells = [untraced + traced]
        probe = perfbench(["--probe", "--seed", str(args.seed)])
        values = per_layer_metrics(traced, untraced, parallel, probe)
        catalog = PER_LAYER
    else:
        # Worker-count invariance, once per invocation, outside the timing.
        parallel = [perfbench(["--workload", args.workload, "--seed",
                               str(args.seed), "--workers",
                               str(PARALLEL_WORKERS)])]
        cells = run_untraced(args.workload, seeds, args.seconds)
        values = end_to_end_metrics(cells)
        catalog = END_TO_END

    for its in cells:
        digests = {it["digest"] for it in its}
        if len(digests) != 1:
            problems.append(f"seed {its[0]['seed']}: iterations disagree on "
                            f"the digest: {sorted(digests)}")
        for it in its:
            problems.extend(iteration_problems(args.workload, it))
    first = cells[0][0]
    prov["workers"] = first["workers"]
    for it in parallel:
        if it["digest"] != first["digest"]:
            problems.append(
                f"digest at {it['workers']} workers {it['digest']} "
                f"!= {first['workers']} worker {first['digest']}")

    attempted = sum(it["completions"] + it["failures"]
                    for its in cells for it in its)
    correct = not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {name: {"value": values[name], "unit": catalog[name][0]}
                    for name in catalog},
    }

    record = {"provenance": prov, "problems": problems, "result": result,
              "cells": cells, "parallel": parallel, "probe": probe,
              "spans": str(spans_path) if args.trace else None}
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"workers {first['workers']}, hosts {first['hosts']}, "
          f"{first['sessions']} sessions, {first['sim_seconds']:g} sim-s "
          f"window, " + ", ".join(
              f"cell seed {its[0]['seed']} x{len(its)} digest "
              f"{its[0]['digest']}" for its in cells))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (unit, better) in catalog.items():
        print(f"  {name:40s} {values[name]:>18.6f} {unit:6s} "
              f"({better} is better)")
    print(json.dumps(result))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        build()
        return measure(args)
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
