#!/usr/bin/env python3
"""Tests of the benchmark itself, on its --smoke sizes.

    python3 perfbench/test_run.py

Every workload path runs end to end (build, probe, timed and traced
processes, output check), and each result line is validated against the
metric names and units in BENCHMARK.json.  The first test run builds the
library and the harness under .bench_build/, as the benchmark does.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script)] + list(args),
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, done, spec_key):
        self.assertEqual(done.returncode, 0, done.stderr)
        result = last_json(done.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], done.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def test_every_workload_untraced_and_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                base = ["--workload", workload, "--seed", "11",
                        "--seconds", "1", "--smoke"]
                e2e = self.check_result(bench(*base, "--trace", "0"),
                                        "end_to_end")
                for name in ("wall_s", "setup_s", "deliveries_per_s",
                             "peak_rss_mb"):
                    self.assertGreater(e2e["metrics"][name]["value"], 0)
                traced = bench(*base, "--trace", "1")
                layers = self.check_result(traced, "per_layer")
                self.assertGreater(
                    layers["metrics"]["sim.deliveries"]["value"], 0)
                trace_line = [l for l in traced.stdout.splitlines()
                              if l.startswith("trace ")]
                events = json.loads((ROOT / trace_line[0].split()[1])
                                    .read_text())["traceEvents"]
                names = {e["name"] for e in events}
                self.assertTrue({"setup", "topology.build", "overlay.build",
                                 "partition.build", "experiments.run"}
                                <= names)

    def test_non_default_seed_checks_identity_and_invariants(self):
        done = bench("--workload", "scale_process", "--seed", "5",
                     "--seconds", "1", "--trace", "0", "--smoke")
        self.check_result(done, "end_to_end")
        self.assertIn('"probe_topology_seed": 36', done.stdout)

    def test_spec_names_defined_workloads(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]},
                             set(run.WORKLOADS))


class CheckTest(unittest.TestCase):
    RESULT = {"deliveries": 10, "worst_case_delay": 2.0, "delay_p50": 1.0,
              "delay_p99": 1.5, "mean_delay": 1.1, "sample_digest": "ab",
              "mode_switches": 3, "max_layers": 4, "max_height_hops": 5,
              "rounds": 7, "messages": 8, "messages_spilled": 0,
              "cross_edges": 2, "total_edges": 9, "lookahead": 0.001}

    def timed(self, **changes):
        result = dict(self.RESULT, **changes)
        return {"result": result, "partition": dict(result),
                "overlay": dict(result)}

    def test_reference_mismatch_is_a_failure(self):
        ref = dict(self.RESULT)
        self.assertEqual(run.check_timed(self.timed(), True, ref), [])
        for change in ({"delay_p99": 1.6}, {"sample_digest": "cd"},
                       {"rounds": 6}):
            self.assertTrue(run.check_timed(self.timed(**change), True, ref),
                            change)

    def test_setup_partition_must_match_the_run(self):
        out = self.timed()
        out["partition"]["cross_edges"] = 3
        self.assertTrue(run.check_timed(out, True, self.RESULT))
        self.assertEqual(run.check_timed(out, False, self.RESULT), [])

    def test_setup_overlay_must_match_the_run_on_every_engine(self):
        for key in ("max_layers", "max_height_hops"):
            out = self.timed()
            out["overlay"][key] += 1
            for windowed in (True, False):
                self.assertTrue(run.check_timed(out, windowed, self.RESULT),
                                (key, windowed))

    def test_invariants(self):
        for change in ({"deliveries": 0}, {"delay_p99": 2.5}):
            out = self.timed(**change)
            problems = run.check_timed(out, False, out["result"])
            self.assertTrue(problems, change)

    def test_probe_engines_must_agree(self):
        same = {e: dict(self.RESULT) for e in ("single", "sharded",
                                                "process")}
        self.assertEqual(run.check_probe(same), [])
        same["process"]["messages"] = 9
        self.assertTrue(run.check_probe(same))


class GuardTest(unittest.TestCase):
    def test_refuses_debug_and_sanitizer_flags(self):
        lib = ROOT / ".bench_build" / "emcast" / "libemcast.a"
        for flags in ({"build_type": "Debug", "cxx_flags": "-g",
                       "sanitize": ""},
                      {"build_type": "Release", "cxx_flags": "-O3 -DNDEBUG",
                       "sanitize": "address"},
                      {"build_type": "Release", "cxx_flags": "-O3",
                       "sanitize": ""}):
            with self.assertRaises(run.BenchError):
                run.guard_library(lib, flags)

    def test_fails_without_result_outside_a_checkout(self):
        bare = ROOT / ".bench_build" / "perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = bench("--workload", "paper_adaptive", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=bare,
                     script=bare / "perfbench" / "run.py")
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
