#!/usr/bin/env python3
"""Tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Builds perfbench and the two reference benches it mirrors, then checks at
a smoke size that both print the same digest for the same scenario, that
the traced run and the worker count leave the digest alone, that the
correctness gate flags broken outputs, and that run.py fails cleanly
without sources.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TMP = run.ROOT / ".bench_build" / "tmp"
SEED = 7
SMOKE_HOSTS = 16
SMOKE_SECONDS = 10
CRASH_SESSIONS = 1760


def build_all():
    run.build()
    subprocess.run(["cmake", "--build", str(run.BUILD_DIR), "--target",
                    "ref_fig9_cluster", "ref_fig_crashscale", "-j", "4"],
                   stdout=subprocess.DEVNULL, check=True)
    TMP.mkdir(parents=True, exist_ok=True)


def reference(name, args):
    out = subprocess.run([str(run.BUILD_DIR / f"ref_{name}")] + args,
                         capture_output=True, text=True, check=True)
    return out.stdout


def perfbench_digest(workload, *extra):
    return run.perfbench(["--workload", workload, "--seed", str(SEED),
                          "--hosts", str(SMOKE_HOSTS), "--sim-seconds",
                          str(SMOKE_SECONDS)] + list(extra))["digest"]


class ScenarioEquivalence(unittest.TestCase):
    """perfbench runs the scenario the existing benches print."""

    def test_fleet_steady_matches_fig9_scale_mode(self):
        out = reference("fig9_cluster", [
            "--hosts", str(SMOKE_HOSTS), "--shards", "8", "--wave", "25",
            "--sim-seconds", str(SMOKE_SECONDS), "--workers", "2",
            "--seed", str(SEED), "--out", str(TMP / "scale.json")])
        expected = re.search(r"scale: .* digest=([0-9a-f]{16})", out)[1]
        self.assertEqual(perfbench_digest("fleet_steady"), expected)

    def test_crash_cells_match_fig_crashscale(self):
        out = reference("fig_crashscale", [
            "--hosts", str(SMOKE_HOSTS), "--shards", "8", "--wave", "25",
            "--sessions", str(CRASH_SESSIONS), "--sim-seconds",
            str(SMOKE_SECONDS), "--fault-rate", "0.4", "--workers", "1",
            "--seed", str(SEED), "--out", str(TMP / "crashscale.json")])
        cells = dict(re.findall(
            r"^\s+(\w+)\s+rate=0\.40: .* digest=([0-9a-f]{16})", out,
            re.MULTILINE))
        for workload, ladder in (("crash_reboot", "warm"),
                                 ("crash_micro", "micro")):
            with self.subTest(workload=workload):
                self.assertEqual(
                    perfbench_digest(workload, "--sessions",
                                     str(CRASH_SESSIONS)),
                    cells[ladder])


class Determinism(unittest.TestCase):
    def test_traced_run_reproduces_untraced_digest(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                spans = TMP / f"{workload}-spans.json"
                self.assertEqual(
                    perfbench_digest(workload, "--trace", str(spans)),
                    perfbench_digest(workload))
                names = {s["name"] for s in json.loads(spans.read_text())}
                self.assertTrue({"engine.ctor", "cluster.ctor", "fleet.ctor",
                                 "window", "slice", "fleet.stats",
                                 "digest"} <= names)

    def test_fleet_steady_digest_is_worker_count_invariant(self):
        self.assertEqual(perfbench_digest("fleet_steady", "--workers", "1"),
                         perfbench_digest("fleet_steady", "--workers", "2"))


def consistent_iteration():
    return {"pooled": 0.75, "p99": 0.5, "p999": 0.25,
            "planned_downtime_us": 10, "unplanned_downtime_us": 15,
            "sessions": 10, "window_us": 10, "completions": 5,
            "failures": 0, "hosts_rejuvenated": 1,
            "window": {"dispatched": 5, "rejected": 0}}


class CorrectnessGate(unittest.TestCase):
    def test_accepts_a_consistent_iteration(self):
        self.assertEqual(
            run.iteration_problems("fleet_steady", consistent_iteration()),
            [])

    def test_flags_pooled_availability_mismatch(self):
        it = consistent_iteration()
        it["pooled"] = 0.76
        self.assertEqual(len(run.iteration_problems("crash_micro", it)), 1)

    def test_flags_out_of_range_availability(self):
        it = consistent_iteration()
        it["p99"] = 1.5
        self.assertEqual(len(run.iteration_problems("crash_micro", it)), 1)

    def test_flags_requests_the_balancer_did_not_see(self):
        it = consistent_iteration()
        it["window"]["dispatched"] = 5 + it["sessions"] + 1
        self.assertEqual(len(run.iteration_problems("crash_micro", it)), 1)
        it["window"]["dispatched"] = 5 + it["sessions"]
        self.assertEqual(run.iteration_problems("crash_micro", it), [])

    def test_flags_vacuous_or_failing_fleet_steady(self):
        it = consistent_iteration()
        it["hosts_rejuvenated"] = 0
        it["failures"] = 3
        self.assertEqual(len(run.iteration_problems("fleet_steady", it)), 2)
        self.assertEqual(run.iteration_problems("crash_reboot", it), [])


class Standalone(unittest.TestCase):
    def test_fails_without_simulator_sources(self):
        bare = TMP / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "fleet_steady", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    build_all()
    unittest.main()
