"""Self-tests of the benchmark: the gate rejects broken CSVs, the traced
counts repeat exactly and match what the code implies, and the command
keeps its output contract.

Usage (from the root of a source checkout, about two minutes):
    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import gate
import run

EXACT_COUNTS = ("mc.engine_calls", "mc.draw_sets", "mc.magnitude_sets",
                "mc.blocks", "channel.gauss_draws", "geometry.corr_calls",
                "specfun.elliptic_evals")


def _scratch() -> Path:
    root = Path.cwd() / ".perfbench_work"
    root.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=root))


def _spec(name):
    return run.SPEC_DIR / f"{name}.ini"


def _ref(name):
    return run.REF_DIR / f"{name}.csv"


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = _scratch()
        self.lines = _ref("fig5_rate_vs_snr").read_text().splitlines(keepends=True)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def check(self, lines):
        path = self.tmp / "out.csv"
        path.write_text("".join(lines))
        return gate.check_csv(path, _spec("fig5_rate_vs_snr"), _ref("fig5_rate_vs_snr"))

    def mc_index(self):
        return next(i for i, line in enumerate(self.lines) if ",mc," in line)

    def test_every_reference_passes(self):
        for workload in run.WORKLOADS.values():
            for spec in workload.specs:
                attempted, failed = gate.check_csv(_ref(spec), _spec(spec), _ref(spec))
                self.assertEqual(failed, 0, spec)
                self.assertEqual(attempted, len(_ref(spec).read_text().splitlines()) - 1)

    def test_perturbed_mc_mean_fails(self):
        i = self.mc_index()
        rec = self.lines[i].rstrip("\n").split(",")
        rec[3] = f"{float(rec[3]) + 10 * float(rec[4]):.6g}"
        self.lines[i] = ",".join(rec) + "\n"
        self.assertEqual(self.check(self.lines), (300, 1))

    def test_dropped_row_fails(self):
        del self.lines[self.mc_index()]
        self.assertEqual(self.check(self.lines), (300, 1))

    def test_nan_fails(self):
        i = self.mc_index()
        rec = self.lines[i].rstrip("\n").split(",")
        rec[3] = "nan"
        self.lines[i] = ",".join(rec) + "\n"
        self.assertEqual(self.check(self.lines), (300, 1))

    def test_wrong_header_or_duplicate_fails_every_row(self):
        self.assertEqual(self.check(["axis,value\n"] + self.lines[1:]), (300, 300))
        self.assertEqual(self.check(self.lines + [self.lines[1]]), (300, 300))

    def test_mc_mean_above_its_bound_fails(self):
        key = ("50", "noma_r_vm2", "mc")
        ref = {key: ["50", "noma_r_vm2", "mc", "1.5", "0.001", ""]}
        rows = {("50", "noma_r_vm2", "limit"): ["50", "noma_r_vm2", "limit", "1.49", "", ""]}
        self.assertFalse(gate._row_ok(key, ref[key], ref, rows))
        rows[("50", "noma_r_vm2", "limit")][3] = "1.498"
        self.assertTrue(gate._row_ok(key, ref[key], ref, rows))


class TraceCountTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.root = Path.cwd()
        sys.path.insert(0, str(cls.root / "src"))
        from ios_noma.mc import BLOCK_SIZE
        cls.block_size = BLOCK_SIZE
        cls.tmp = _scratch()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def traced(self, name):
        bench = run.Bench(self.root, self.tmp, name, seed=5)
        result = bench.sweep(1, trace="full")
        self.assertEqual(result.failed, 0)
        trials = bench.workload.trials
        return run.trace_metrics(result, trials, bench.mc_half_widths(result)), trials

    def counts(self, metrics):
        return {k: metrics[k]["value"] for k in EXACT_COUNTS}

    def blocks_per_call(self, trials):
        return math.ceil(trials / self.block_size)

    def test_snr_sweep_counts(self):
        first, trials = self.traced("snr_sweep")
        second, _ = self.traced("snr_sweep")
        self.assertEqual(self.counts(first), self.counts(second))
        # fig5: 15 SNR values x 6 scenarios on two phase models (von Mises
        # 1 and 2); fig8: 13 values x 4 scenarios on 1-bit phases; one
        # geometry throughout
        self.assertEqual(first["mc.engine_calls"]["value"], 142)
        self.assertEqual(first["mc.draw_sets"]["value"], 3)
        self.assertEqual(first["mc.magnitude_sets"]["value"], 1)
        self.assertEqual(first["mc.blocks"]["value"], 142 * self.blocks_per_call(trials))

    def test_element_sweep_counts(self):
        first, trials = self.traced("element_sweep")
        second, _ = self.traced("element_sweep")
        self.assertEqual(self.counts(first), self.counts(second))
        # fig3: 25 array sizes x 4 phase models; fig7: 20 sizes x
        # (correlated, uncorrelated); magnitudes ignore the phase model
        self.assertEqual(first["mc.engine_calls"]["value"], 140)
        self.assertEqual(first["mc.draw_sets"]["value"], 140)
        self.assertEqual(first["mc.magnitude_sets"]["value"], 25 + 40)
        self.assertEqual(first["mc.blocks"]["value"], 140 * self.blocks_per_call(trials))

    def test_precision_point_walks_several_blocks(self):
        metrics, trials = self.traced("precision_point")
        calls = metrics["mc.engine_calls"]["value"]
        self.assertEqual(calls, 6)
        self.assertGreater(self.blocks_per_call(trials), 1)
        self.assertEqual(metrics["mc.blocks"]["value"], calls * self.blocks_per_call(trials))


class ContractTest(unittest.TestCase):
    def run_bench(self, cwd, trace):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bounds_large_n",
             "--seed", "2", "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=180)

    def test_reports_exactly_the_declared_metrics(self):
        declared = json.loads(Path("BENCHMARK.json").read_text())
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = self.run_bench(Path.cwd(), trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), {m["name"] for m in declared[section]})
            for m in declared[section]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_fails_without_the_program(self):
        tmp = _scratch()
        try:
            shutil.copy("BENCHMARK.json", tmp)
            shutil.copytree("perfbench", tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self.run_bench(tmp, 0)
        finally:
            shutil.rmtree(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
