#!/usr/bin/env python3
"""The benchmark's own tests: a smoke-size run of every workload.

    python3 perfbench/test_smoke.py

Builds the benchmark binary like run.py does, then for every workload in
BENCHMARK.json runs run.py --smoke untraced and traced and asserts that the
run exits 0, every correctness check passes, and every metric BENCHMARK.json
names is printed with its unit.  It also checks that the same seed gives the
same simulated guest state, that the observatory leaves it unchanged, that
run.py refuses a result missing a metric, and that the benchmark fails
without printing a result when the library sources are absent.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The per-workload metric names each workload prints beside the result line.
NAMED = {
    "fleet_attest": ["fleet_devices_per_s", "attests_per_s", "attest_sweep_ms_p50"],
    "guest_mix": ["guest_mips_p50", "window_ms_p50", "window_ms_tail"],
    "guest_mix_observed": ["guest_mips_p50", "window_ms_p50", "window_ms_tail"],
    "fork_fuzz": ["fuzz_execs_per_s", "fuzz_exec_us_p50", "fuzz_exec_us_tail"],
}


def smoke(workload, trace, seed=1, cwd=ROOT, script=None, seconds=0.5):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def printed(stdout, name):
    return any(line.split()[:1] == [name] for line in stdout.splitlines())


def sim_digest(stdout):
    for line in stdout.splitlines():
        if line.split()[:1] == ["sim_digest_first_windows"]:
            return line.split()[-1]
    return None


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check_run(self, workload, trace):
        done = smoke(workload, trace)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(run.validate(result, SPEC, trace), [])
        for metric in wanted:
            self.assertIn(metric["name"], result["metrics"])
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
            self.assertTrue(printed(done.stdout, metric["name"]), metric["name"])
        self.assertIn("correctness: ok", done.stdout)
        return done.stdout

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                stdout = self.check_run(workload, 0)
                for name in NAMED[workload]:
                    self.assertTrue(printed(stdout, name), name)

    def test_traced_runs_print_every_per_layer_metric_and_self_time(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                stdout = self.check_run(workload, 1)
                self.assertIn("self time by span", stdout)
                self.assertTrue(printed(stdout, "trace.overhead_pct"))

    def test_guest_state_repeats_and_ignores_the_observatory(self):
        digests = [sim_digest(smoke(w, 0, seed=5).stdout)
                   for w in ("guest_mix", "guest_mix", "guest_mix_observed")]
        self.assertIsNotNone(digests[0])
        self.assertEqual(len(set(digests)), 1, digests)

    def test_fuzz_operations_depend_on_the_seed_only(self):
        # Runs of different lengths, traced or not, attempt and fail the same
        # inputs of the pool.
        counts = []
        for trace, seconds in ((0, 0.5), (0, 1.5), (1, 0.5)):
            result = json.loads(smoke("fork_fuzz", trace, seed=3,
                                      seconds=seconds).stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"])
            counts.append((result["attempted"], result["failed"]))
        self.assertEqual(len(set(counts)), 1, counts)

    def test_result_missing_a_metric_is_refused(self):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        self.assertEqual(run.validate(result, SPEC, False), [])
        del metrics["setup_s"]
        self.assertEqual(run.validate(result, SPEC, False), ["metric setup_s missing"])

    def test_fails_without_library_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/.
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = smoke(WORKLOADS[0], 0, cwd=bare,
                     script=os.path.join(bare, "perfbench", "run.py"))
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
