"""ios-noma benchmark: end-to-end sweep timings and a traced layer split.

Usage (from the root of a source checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement drives the real command line, ``python3 -m
ios_noma.cli`` with ``src`` on the path, in fresh child processes with
BLAS threads pinned to 1.  With ``--trace 0`` a run times ``validate``
(set-up) several times, then repeats the workload's sweeps for about S
seconds.  It reports medians of wall times scaled to a reference machine
speed by ``calibrate.py`` (see ``Bench.scaled``).  With ``--trace 1`` it
runs the sweeps once untraced, once under ``traced_cli.py`` and, on
Monte Carlo workloads, once more on two workers with only the engine
entry traced, and reports per-layer metrics.  Every CSV goes through the correctness gate in
``gate.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gate

BENCH_DIR = Path(__file__).resolve().parent
SPEC_DIR = BENCH_DIR / "specs"
REF_DIR = BENCH_DIR / "reference"
REFERENCE_SEED = 1


@dataclass(frozen=True)
class Workload:
    specs: tuple[str, ...]
    trials: int | None  # same for every spec of the workload; None = no MC
    workers: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "snr_sweep": Workload(("fig5_rate_vs_snr", "fig8_multiuser"), 1024, 1),
    "element_sweep": Workload(("fig3_rate_vs_N", "fig7_correlation"), 1024, 1),
    "precision_point": Workload(("precision_point",), 4 * 16384, 2),
    "bounds_large_n": Workload(("bounds_large_n",), None, 1),
}

SETUP_REPS = 3
MIN_REPS = 3
# Calibration kernel time that defines the reference speed; see scaled().
CAL_REF_S = 0.08
POOL_WORKERS = 2
TARGET_HW = 0.01
DEADLINE_S = 170.0
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
PHASE_MODELS = ("vonmises", "quantized", "uniform", "perfect")
LOC_MODULES = ("__init__", "analytic", "channel", "cli", "experiments",
               "geometry", "mc", "specfun")


@dataclass
class Pass:
    """One pass over a workload's specs: every spec run once, at one seed."""

    seed: int = 0
    walls: list = field(default_factory=list)  # per spec
    scaled: list = field(default_factory=list)  # per spec; end-to-end passes only
    attempted: int = 0
    failed: int = 0
    csvs: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    byte_identical: bool = True  # meaningful only at REFERENCE_SEED

    @property
    def wall(self) -> float:
        return sum(self.walls)


class Bench:
    def __init__(self, root: Path, work: Path, name: str, seed: int):
        self.root = root
        self.work = work
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = {**os.environ, **THREAD_VARS, "PYTHONPATH": str(root / "src")}
        self.nproc = len(os.sched_getaffinity(0))
        self.peak_rss_mb = 0.0
        self.counter = 0
        self.max_workers = 0
        self.last_cal = 0.0
        self.calibrations: list[float] = []

    def child(self, argv: list[str]) -> tuple[float, int]:
        """Run one child process to completion: (wall seconds, exit code)."""
        self.counter += 1
        log = self.work / f"child{self.counter}.err"
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(max(self.deadline - start, 1.0),
                                    os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: take the child's group down too
                os.killpg(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"child failed ({proc.returncode}): {' '.join(argv)}\n{tail}",
                  file=sys.stderr)
        return wall, proc.returncode

    def calibrate(self) -> float:
        """Median time of the frozen reference kernel, in a fresh process."""
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "calibrate.py")],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, check=True, timeout=60)
        self.calibrations.append(float(proc.stdout))
        return self.calibrations[-1]

    def scaled(self, wall: float) -> float:
        """Wall time at the reference speed.

        On a small shared VM (2 vCPUs) the speed drifts by up to 2x over
        minutes, alike on both CPUs, so raw walls of identical runs spread
        by 10-20 %.  The
        calibration kernel, run just before and just after the timed
        child, drifts with it; dividing by it takes out most of the drift.
        """
        before, self.last_cal = self.last_cal, self.calibrate()
        return wall * CAL_REF_S * 2.0 / (before + self.last_cal)

    def spec_path(self, spec: str) -> Path:
        return SPEC_DIR / f"{spec}.ini"

    def setup_once(self) -> tuple[float, bool]:
        total, ok = 0.0, True
        for spec in self.workload.specs:
            wall, code = self.child([sys.executable, "-m", "ios_noma.cli",
                                     "validate", "--spec", str(self.spec_path(spec))])
            total += wall
            ok = ok and code == 0
        return total, ok

    def sweep(self, workers: int, trace: str | None = None, scale: bool = False,
              seed: int | None = None) -> Pass:
        """Run every spec once; trace is None, "full" or "engine"."""
        self.max_workers = max(self.max_workers, workers)
        result = Pass(seed=self.seed if seed is None else seed)
        for spec in self.workload.specs:
            self.counter += 1
            out = self.work / f"{spec}.{self.counter}.csv"
            spans = self.work / f"{spec}.{self.counter}.spans.json"
            prefix = [sys.executable, "-m", "ios_noma.cli"]
            if trace is not None:
                prefix = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                          str(spans), trace, "--"]
            argv = prefix + ["run", "--spec", str(self.spec_path(spec)),
                             "--out", str(out), "--seed", str(result.seed),
                             "--workers", str(workers)]
            if self.workload.trials is not None:
                argv += ["--trials", str(self.workload.trials)]
            wall, code = self.child(argv)
            if scale:
                result.scaled.append(self.scaled(wall))
            ok = code == 0 and out.exists()
            attempted, failed = gate.check_csv(out if ok else None,
                                               self.spec_path(spec),
                                               REF_DIR / f"{spec}.csv")
            result.walls.append(wall)
            result.attempted += attempted
            result.failed += failed
            result.csvs.append(out if ok else None)
            if trace is not None and spans.exists():
                result.spans.append(json.loads(spans.read_text()))
            result.byte_identical = result.byte_identical and ok and (
                out.read_bytes() == (REF_DIR / f"{spec}.csv").read_bytes())
        return result

    def mc_half_widths(self, result: Pass) -> list[float]:
        hws = []
        for path in result.csvs:
            if path is None:
                continue
            _, rows, _ = gate.read_rows(path)
            hws += [gate.number(rec[4]) for key, rec in rows.items() if key[2] == "mc"]
        return [h for h in hws if h is not None]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[Pass], dict]:
    bench.last_cal = bench.calibrate()
    setup_walls, setups, setup_ok = [], [], True
    for _ in range(SETUP_REPS):
        wall, ok = bench.setup_once()
        setup_walls.append(wall)
        setups.append(bench.scaled(wall))
        setup_ok = setup_ok and ok
    workers = min(bench.workload.workers, bench.nproc)
    passes: list[Pass] = []
    start = now = time.perf_counter()
    longest = 0.0
    while True:
        # Pass k draws at seed + k: the timing does not depend on the seed,
        # and mean(hw^2) then averages over independent draws.
        passes.append(bench.sweep(workers, scale=True, seed=bench.seed + len(passes)))
        longest = max(longest, time.perf_counter() - now)
        now = time.perf_counter()
        if now + 1.5 * longest > bench.deadline:
            break
        if len(passes) >= MIN_REPS and now - start >= seconds:
            break
    sweep_s = sum(statistics.median(p.scaled[i] for p in passes)
                  for i in range(len(bench.workload.specs)))
    hws = [h for p in passes for h in bench.mc_half_widths(p)]
    # Seconds to a mean half-width of TARGET_HW: the half-width shrinks as
    # 1/sqrt(trials), so the trial count cancels.  A sweep without MC rows
    # is exact after one pass.
    s_to_hw = sweep_s * statistics.fmean(h * h for h in hws) / TARGET_HW**2 if hws else sweep_s
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "sweep_s": _metric(sweep_s, "s"),
        "s_to_hw_0.01": _metric(s_to_hw, "s"),
        "peak_rss_mb": _metric(bench.peak_rss_mb, "MB"),
    }
    detail = {"setup_walls_s": setup_walls, "setup_ok": setup_ok,
              "sweep_walls_s": [p.walls for p in passes],
              "sweep_scaled_s": [p.scaled for p in passes],
              "calibrations_s": bench.calibrations,
              "mc_rows": len(hws), "workers": workers}
    return metrics, passes, detail


def _layer_totals(span_sets: list[dict]) -> tuple[dict, dict]:
    """Self time per layer, and the spans of each layer, over all processes."""
    self_s: dict[str, float] = defaultdict(float)
    by_layer: dict[str, list] = defaultdict(list)
    for data in span_sets:
        spans = [s for s in data["spans"] if s is not None]
        covered: dict[int, float] = defaultdict(float)
        for span_id, parent, _layer, t0, t1, _attrs in spans:
            if parent is not None:
                covered[parent] += t1 - t0
        for span in spans:
            span_id, _parent, layer, t0, t1, _attrs = span
            self_s[layer] += (t1 - t0) - covered[span_id]
            by_layer[layer].append(span)
    return self_s, by_layer


def _attr_sum(spans, key):
    return sum(s[5][key] for s in spans)


def _distinct(spans, key):
    return len({s[5][key] for s in spans})


def _engine_time(result: Pass) -> float:
    _, by_layer = _layer_totals(result.spans)
    return sum(s[4] - s[3] for s in by_layer["mc.engine"])


def static_counts(root: Path) -> dict:
    """Source lines per module and public names of the package."""
    pkg = root / "src" / "ios_noma"
    metrics = {}
    total = 0
    for path in sorted(pkg.glob("*.py")):
        lines = len(path.read_text(encoding="utf-8").splitlines())
        total += lines
        if path.stem in LOC_MODULES:
            metrics[f"src.loc.{path.stem}"] = _metric(lines, "lines")
    for module in LOC_MODULES:
        metrics.setdefault(f"src.loc.{module}", _metric(0, "lines"))
    metrics["src.loc_total"] = _metric(total, "lines")
    tree = ast.parse((pkg / "__init__.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    metrics["src.exported_names"] = _metric(
        len([n for n in names if not n.startswith("_")]), "count")
    return metrics


def trace_metrics(traced: Pass, trials: int, hws: list[float]) -> dict:
    """Per-layer metrics of one traced single-worker pass."""
    self_s, by_layer = _layer_totals(traced.spans)
    engine = by_layer["mc.engine"]
    calls = len(engine)
    durations = sorted(s[4] - s[3] for s in engine)
    draw_sets = _distinct(engine, "draw_key")
    m = {
        "mc.engine_calls": _metric(calls, "count"),
        "mc.draw_sets": _metric(draw_sets, "count"),
        "mc.magnitude_sets": _metric(_distinct(engine, "magnitude_key"), "count"),
        "mc.draw_useful_frac": _metric(draw_sets / calls if calls else 0.0, "ratio"),
        "mc.self_s": _metric(self_s["mc.engine"], "s"),
        # the rate chain runs once per block
        "mc.blocks": _metric(len(by_layer["mc.rate_chain"]), "count"),
        "mc.call_p50_s": _metric(statistics.median(durations) if calls else 0.0, "s"),
        "mc.call_p90_s": _metric(
            statistics.quantiles(durations, n=10, method="inclusive")[8]
            if calls > 1 else sum(durations), "s"),
        "mc.rate_chain_s": _metric(self_s["mc.rate_chain"], "s"),
        "mc.var_per_trial": _metric(
            statistics.fmean(h * h * trials for h in hws) if hws else 0.0, "bit2/s2/Hz2"),
        "channel.gauss_s": _metric(self_s["channel.gauss"], "s"),
        "channel.gauss_draws": _metric(_attr_sum(by_layer["channel.gauss"], "n"), "count"),
        "channel.gauss_bytes_computed": _metric(
            _attr_sum(by_layer["channel.gauss"], "bytes"), "B"),
    }
    for model in PHASE_MODELS:
        layer = f"channel.phase.{model}"
        m[f"channel.phase_s.{model}"] = _metric(self_s[layer], "s")
        m[f"channel.phase_draws.{model}"] = _metric(_attr_sum(by_layer[layer], "n"), "count")
    m.update({
        "channel.factor_s": _metric(self_s["channel.factor"], "s"),
        "channel.factor_calls": _metric(len(by_layer["channel.factor"]), "count"),
        "channel.factor_distinct": _metric(_distinct(by_layer["channel.factor"], "key"), "count"),
        "geometry.corr_s": _metric(self_s["geometry.corr"], "s"),
        "geometry.corr_calls": _metric(len(by_layer["geometry.corr"]), "count"),
        "geometry.corr_distinct": _metric(_distinct(by_layer["geometry.corr"], "key"), "count"),
        "geometry.moment_s": _metric(self_s["geometry.moment"], "s"),
        "geometry.moment_entries": _metric(sum(
            s[5]["entries"] for s in by_layer["geometry.moment"] if s[5]), "count"),
        "specfun.elliptic_s": _metric(self_s["specfun.elliptic"], "s"),
        "specfun.elliptic_evals": _metric(_attr_sum(by_layer["specfun.elliptic"], "n"), "count"),
        "analytic.bound_s": _metric(self_s["analytic.bound"], "s"),
        "analytic.bound_calls": _metric(len(by_layer["analytic.bound"]), "count"),
        "experiments.load_spec_s": _metric(self_s["experiments.load_spec"], "s"),
        "experiments.write_csv_s": _metric(self_s["experiments.write_csv"], "s"),
        "experiments.points": _metric(
            _attr_sum(by_layer["experiments.run_sweep"], "points"), "count"),
    })
    return m


def per_layer(bench: Bench) -> tuple[dict, list[Pass], dict]:
    plain = bench.sweep(1)
    traced = bench.sweep(1, trace="full")
    passes = [plain, traced]
    engine_2w = None
    if bench.workload.trials is not None and bench.nproc >= POOL_WORKERS:
        engine_2w = bench.sweep(POOL_WORKERS, trace="engine")
        passes.append(engine_2w)
    m = trace_metrics(traced, bench.workload.trials or 0, bench.mc_half_widths(traced))
    m["mc.pool_speedup"] = _metric(
        _engine_time(traced) / _engine_time(engine_2w) if engine_2w else 0.0, "ratio")
    m["trace.overhead_s"] = _metric(traced.wall - plain.wall, "s")
    m.update(static_counts(bench.root))
    detail = {"plain_wall_s": plain.wall, "traced_wall_s": traced.wall,
              "engine_2w_wall_s": engine_2w.wall if engine_2w else None,
              "untraced_layers": sorted({n for d in traced.spans for n in d["missing"]})}
    return m, passes, detail


def environment(bench: Bench) -> dict:
    import numpy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), platform.processor())
    cgroup = {}
    for name, path in (("cpu.max", "/sys/fs/cgroup/cpu.max"),
                       ("cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"),
                       ("cpu.cfs_period_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us")):
        try:
            cgroup[name] = Path(path).read_text().strip()
        except OSError:
            pass
    return {"nproc": bench.nproc, "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "cgroup": cgroup, "thread_vars": THREAD_VARS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "ios_noma" / "cli.py").is_file():
        print(f"error: no ios-noma source tree under {root}/src", file=sys.stderr)
        return 2
    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".perfbench_work"))
    try:
        bench = Bench(root, work, args.workload, args.seed)
        _, warm_ok = bench.setup_once()  # compiles bytecode; not timed
        if not warm_ok:
            print("error: ios-noma validate failed", file=sys.stderr)
            return 3
        if args.trace:
            metrics, passes, detail = per_layer(bench)
        else:
            metrics, passes, detail = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    workers_ok = bench.max_workers <= bench.nproc
    print("env " + json.dumps(environment(bench), sort_keys=True))
    print("run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "trials": bench.workload.trials, "max_workers": bench.max_workers,
        "workers_within_nproc": workers_ok, "rows_attempted": attempted,
        "rows_failed": failed,
        "byte_identical_to_reference": all(
            p.byte_identical for p in passes if p.seed == REFERENCE_SEED)
        if any(p.seed == REFERENCE_SEED for p in passes) else None,
        **detail}, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    correct = failed == 0 and workers_ok and detail.get("setup_ok", True) and all(
        math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
