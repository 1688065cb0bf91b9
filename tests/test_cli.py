import json
import math
import subprocess
import sys

import pytest

from ios_noma.analytic import jensen_rate_t
from ios_noma.channel import Quantized, SystemParams
from ios_noma.experiments import DEFAULTS, build_point
from ios_noma.geometry import (correlation_matrix, magnitude_moment_matrix,
                               trace_rbar_sq)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ios_noma.cli", *args],
                          capture_output=True, text=True)


class TestBound:
    def test_infinite_snr_ceiling(self):
        res = run_cli("bound", "--scenario", "noma_r", "--qt", "0.6",
                      "--qr", "0.8", "--inf-snr")
        assert res.returncode == 0
        assert res.stdout.strip() == "1.4739 bits/s/Hz"

    def test_defaults_match_analytic_module(self):
        res = run_cli("bound", "--scenario", "noma_t",
                      "--phase-error-t", "quantized:2", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        geom = build_point(DEFAULTS).geom
        params = SystemParams.from_db()
        tr = trace_rbar_sq(magnitude_moment_matrix(correlation_matrix(geom)))
        expected = jensen_rate_t(params, geom.n_elements, tr, Quantized(2).epsilon())
        assert payload["bounds"]["jensen"]["value"] == expected.value
        assert payload["n_elements"] == 60
        assert payload["bounds"]["jensen"]["value"] > 0
        assert math.isfinite(payload["bounds"]["hardening"]["value"])

    def test_uniform_errors_skip_hardening(self):
        res = run_cli("bound", "--scenario", "noma_t",
                      "--phase-error-t", "uniform", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert "hardening" in payload["skipped"]
        assert "jensen" in payload["bounds"]

    def test_human_output_contains_branch(self):
        res = run_cli("bound", "--scenario", "noma_r")
        assert res.returncode == 0
        assert "jensen" in res.stdout
        assert "branch" in res.stdout

    def test_unknown_scenario_exits_2(self):
        res = run_cli("bound", "--scenario", "broadcast")
        assert res.returncode == 2

    def test_missing_four_user_params_exits_2(self):
        res = run_cli("bound", "--scenario", "noma_tp", "--inf-snr")
        assert res.returncode == 2
        assert "error" in res.stderr


class TestSpecCommands:
    def test_list_specs(self):
        res = run_cli("list-specs")
        assert res.returncode == 0
        names = res.stdout.split()
        assert "fig3_rate_vs_N" in names
        assert len(names) == 6

    def test_validate_bundled(self):
        res = run_cli("validate", "--spec", "fig8_multiuser")
        assert res.returncode == 0
        assert res.stdout.startswith("ok:")

    def test_validate_missing_spec_exits_2(self):
        res = run_cli("validate", "--spec", "missing_spec")
        assert res.returncode == 2

    def test_validate_broken_spec_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[sweep]\naxis = elements_per_row\nvalues = 2\n"
                       "[scenario:x]\ntarget = noma_t\nbogus_key = 1\n",
                       encoding="utf-8")
        res = run_cli("validate", "--spec", str(bad))
        assert res.returncode == 2
        assert "bogus_key" in res.stderr

    def test_run_mini_spec(self, tmp_path):
        spec = tmp_path / "mini.ini"
        spec.write_text("[sweep]\naxis = elements_per_row\nvalues = 2,3\n"
                        "[defaults]\nn_v = 2\ntrials = 256\n"
                        "[scenario:q1]\ntarget = noma_t\n"
                        "phase_error_t = quantized:1\nestimators = mc,jensen\n",
                        encoding="utf-8")
        out = tmp_path / "rows.csv"
        res = run_cli("run", "--spec", str(spec), "--out", str(out),
                      "--trials", "128", "--seed", "5")
        assert res.returncode == 0, res.stderr
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "axis,scenario,estimator,value,half_width,branch"
        assert len(lines) == 5


MINI_SPEC = ("[sweep]\naxis = elements_per_row\nvalues = {values}\n"
             "[defaults]\nn_v = 2\ntrials = 256\n"
             "[scenario:q1]\ntarget = noma_t\n"
             "phase_error_t = quantized:1\nestimators = mc,jensen\n")


class TestFailFast:
    """Bad input exits 2 before any Monte Carlo work and writes no CSV."""

    @pytest.fixture
    def spec(self, tmp_path):
        def make(values):
            path = tmp_path / "spec.ini"
            path.write_text(MINI_SPEC.format(values=values), encoding="utf-8")
            return str(path)
        return make

    def test_bad_later_point(self, spec, tmp_path):
        path = spec("4, 2.5")
        res = run_cli("validate", "--spec", path)
        assert res.returncode == 2
        assert "2.5" in res.stderr
        out = tmp_path / "rows.csv"
        res = run_cli("run", "--spec", path, "--out", str(out))
        assert res.returncode == 2
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one(self, spec, tmp_path, workers):
        out = tmp_path / "rows.csv"
        res = run_cli("run", "--spec", spec("2"), "--out", str(out),
                      "--workers", workers)
        assert res.returncode == 2
        assert "workers" in res.stderr
        assert not out.exists()

    def test_trials_below_minimum(self, spec, tmp_path):
        out = tmp_path / "rows.csv"
        res = run_cli("run", "--spec", spec("2"), "--out", str(out),
                      "--trials", "50")
        assert res.returncode == 2
        assert "trials" in res.stderr
        assert not out.exists()
