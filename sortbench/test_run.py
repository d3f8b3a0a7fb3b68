"""Self-tests of the benchmark: its statistics, failure accounting, output
shape, BENCHMARK.json, and a seconds-long smoke run of every workload.

    python3 -m unittest discover -s sortbench -p 'test_*.py'
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def fake_raw(**over):
    raw = {
        "attempted": 10, "errors": 0, "unverified": 0, "mismatches": 0,
        "last_error": "", "setup_s": [0.3, 0.1, 0.2], "sort_s": [1.0, 3.0, 2.0],
        "loop_s": 6.0, "traced_sort_s": [2.5, 2.5],
        "distinct": [{"n": 600, "virt_s": 2.0, "imbalance": 0.02},
                     {"n": 600, "virt_s": 1.0, "imbalance": 0.05},
                     {"n": 600, "virt_s": 4.0, "imbalance": 0.01}],
        "peak_rss_kb": 2048, "layers": {"seq.merge_ns_per_key": [3.0, 1.0, 2.0]},
        "stamp": {},
    }
    raw.update(over)
    return raw


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.p90([float(i) for i in range(99)]))
        values = [float(i) for i in range(100, 0, -1)]
        tail = run.p90(values)
        self.assertEqual(tail, 90.0)
        self.assertEqual(sum(v > tail for v in values), 10)

    def test_p90_nearest_rank(self):
        self.assertEqual(run.p90([float(i) for i in range(1, 201)]), 180.0)

    def test_end_to_end_from_raw(self):
        m = run.end_to_end(fake_raw())
        self.assertAlmostEqual(m["sorts_per_s"], 0.5)
        self.assertEqual(m["sort_s_p50"], 2.0)
        self.assertEqual(m["recs_per_sim_min"], 1800 / 7.0 * 60)
        self.assertAlmostEqual(m["out_imbalance"], 1 + 0.08 / 3)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["setup_s"], 0.2)

    def test_per_layer_medians_and_overhead(self):
        m = run.per_layer(fake_raw())
        self.assertEqual(m["seq.merge_ns_per_key"], 2.0)
        self.assertEqual(m["trace.base_s"], 2.0)
        self.assertEqual(m["trace.overhead_s"], 0.5)


class FailureAccounting(unittest.TestCase):
    def test_every_kind_of_miss_counts(self):
        raw = fake_raw(attempted=20, errors=1, unverified=2, mismatches=3)
        self.assertEqual(run.failed_count(raw), 6)
        self.assertEqual(run.failed_frac(raw), 0.3)

    def test_clean_run(self):
        self.assertEqual(run.failed_frac(fake_raw()), 0.0)

    def test_failures_make_the_result_incorrect(self):
        spec = run.load_spec()["end_to_end"]
        raw = fake_raw(mismatches=1)
        line = run.result(spec, run.end_to_end(raw), raw)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)


class OutputShape(unittest.TestCase):
    def test_result_has_exactly_the_contract_keys(self):
        spec = run.load_spec()["end_to_end"]
        raw = fake_raw()
        line = run.result(spec, run.end_to_end(raw), raw)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), {m["name"] for m in spec})
        for m in spec:
            self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])
        json.dumps(line)

    def test_unmeasured_metric_is_an_error(self):
        spec = run.load_spec()["per_layer"]
        with self.assertRaises(run.BenchError):
            run.result(spec, run.per_layer(fake_raw()), fake_raw())

    def test_benchmark_json(self):
        spec = run.load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class Smoke(unittest.TestCase):
    """Each workload at its --tiny shape, untraced and traced, end to end
    through the command: builds, verifies, prints every metric."""

    def run_bench(self, workload, trace):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=900, check=False)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        return done.stdout.strip().splitlines()

    def test_workloads(self):
        spec = run.load_spec()
        for workload in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines = self.run_bench(workload, trace)
                    line = json.loads(lines[-1])
                    self.assertTrue(line["correct"])
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertEqual(set(line["metrics"]),
                                     {m["name"] for m in spec[kind]})
                    if trace:
                        path = Path(lines[-2].split("trace: ", 1)[1])
                        events = json.loads(path.read_text())["traceEvents"]
                        self.assertTrue(any(e["ph"] == "X" for e in events))


if __name__ == "__main__":
    unittest.main()
