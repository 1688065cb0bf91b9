import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ios_noma import cli
from ios_noma.analytic import Scenario, rate_bound
from ios_noma.channel import Quantized, SystemParams
from ios_noma.experiments import DEFAULTS, build_point
from ios_noma.geometry import trace_rbar_sq


# the child imports the package the tests import, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH"))))}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ios_noma.cli", *args],
                          capture_output=True, text=True, env=CHILD_ENV)


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
        tr = trace_rbar_sq(geom, True)
        eps = Quantized(2).epsilon()
        expected = rate_bound(Scenario.NOMA_T, "jensen", params, geom.n_elements, tr,
                              eps, eps)
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

    def test_oma_t_hardening_ignores_reflect_phases(self):
        # OMA T reads only its own slot, so uniform reflect-side errors
        # leave its hardening approximation defined and unchanged
        lines = {}
        for model in ("uniform", "perfect"):
            res = run_cli("bound", "--scenario", "oma_t", "--phase-error-r", model)
            assert res.returncode == 0, res.stderr
            lines[model] = [line for line in res.stdout.splitlines()
                            if line.startswith("hardening")]
        assert len(lines["uniform"]) == 1 and "n/a" not in lines["uniform"][0]
        assert lines["uniform"] == lines["perfect"]

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

    def test_oma_t_hardening_with_uniform_reflect_phases(self, tmp_path):
        spec = tmp_path / "oma.ini"
        spec.write_text("[sweep]\naxis = elements_per_row\nvalues = 2,3\n"
                        "[defaults]\nn_v = 2\ntrials = 256\n"
                        "[scenario:o]\ntarget = oma_t\nphase_error_t = quantized:2\n"
                        "phase_error_r = uniform\nestimators = mc,hardening\n",
                        encoding="utf-8")
        res = run_cli("validate", "--spec", str(spec))
        assert res.returncode == 0, res.stderr
        out = tmp_path / "rows.csv"
        res = run_cli("run", "--spec", str(spec), "--out", str(out), "--seed", "5")
        assert res.returncode == 0, res.stderr
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert sorted(row.split(",")[2] for row in rows) == ["hardening"] * 2 + ["mc"] * 2


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

    @pytest.mark.parametrize("where", ["missing_parent", "directory"])
    def test_bad_out_path(self, spec, tmp_path, where, counting, capsys):
        calls = counting("mc_estimates")
        out = {"missing_parent": tmp_path / "missing" / "rows.csv",
               "directory": tmp_path}[where]
        assert cli.main(["run", "--spec", spec("2"), "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "missing").exists()

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

    @pytest.mark.parametrize("source", ["flag", "spec"])
    def test_negative_seed(self, spec, tmp_path, source):
        path = spec("2")
        args = ["--seed", "-1"] if source == "flag" else []
        if source == "spec":
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("master_seed = -1\n")
            assert run_cli("validate", "--spec", path).returncode == 2
        out = tmp_path / "rows.csv"
        res = run_cli("run", "--spec", path, "--out", str(out), *args)
        assert res.returncode == 2
        assert "master_seed" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("scenario", [
        "target = noma_t\nphase_error_t = uniform\nestimators = mc,hardening\n",
        "target = oma_t\nestimators = mc,limit\n",
        "target = noma_t\nestimators = mc,limit\n",
    ])
    def test_undefined_analytic_estimator(self, tmp_path, scenario):
        path = tmp_path / "spec.ini"
        path.write_text("[sweep]\naxis = elements_per_row\nvalues = 2, 3\n"
                        "[defaults]\nn_v = 2\ntrials = 256\n"
                        "[scenario:a]\ntarget = noma_t\nestimators = mc\n"
                        f"[scenario:b]\n{scenario}", encoding="utf-8")
        res = run_cli("validate", "--spec", str(path))
        assert res.returncode == 2
        assert "error" in res.stderr
        out = tmp_path / "rows.csv"
        res = run_cli("run", "--spec", str(path), "--out", str(out))
        assert res.returncode == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", [("--alpha", "nan"), ("--p-dbm", "inf")])
    def test_non_finite_bound_flag(self, flag):
        res = run_cli("bound", "--scenario", "noma_t", *flag, "--json")
        assert res.returncode == 2
        assert "must be finite" in res.stderr
        assert res.stdout == ""

    def test_non_finite_spec_key(self, spec, tmp_path):
        path = spec("2")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("p_dbm = nan\n")
        res = run_cli("validate", "--spec", path)
        assert res.returncode == 2
        assert "p_dbm must be finite" in res.stderr
        out = tmp_path / "rows.csv"
        assert run_cli("run", "--spec", path, "--out", str(out)).returncode == 2
        assert not out.exists()

    def test_non_finite_axis_value(self, tmp_path):
        path = tmp_path / "spec.ini"
        path.write_text("[sweep]\naxis = transmit_snr_db\nvalues = 10, nan\n"
                        "[defaults]\ntrials = 256\n"
                        "[scenario:a]\ntarget = noma_t\nestimators = mc,jensen\n",
                        encoding="utf-8")
        res = run_cli("validate", "--spec", str(path))
        assert res.returncode == 2
        assert "p_dbm" in res.stderr
        out = tmp_path / "rows.csv"
        assert run_cli("run", "--spec", str(path), "--out", str(out)).returncode == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        MINI_SPEC.format(values="2") + "[scenario:q1]\ntarget = noma_r\n",
        MINI_SPEC.format(values="2") + "target = noma_r\n",
        "stray text\n" + MINI_SPEC.format(values="2"),
    ], ids=["duplicate_section", "duplicate_key", "no_section_header"])
    def test_malformed_spec_file(self, tmp_path, text):
        path = tmp_path / "spec.ini"
        path.write_text(text, encoding="utf-8")
        res = run_cli("validate", "--spec", str(path))
        assert res.returncode == 2
        assert "error:" in res.stderr
        assert "spec.ini" in res.stderr
        assert "Traceback" not in res.stderr
        out = tmp_path / "rows.csv"
        res = run_cli("run", "--spec", str(path), "--out", str(out))
        assert res.returncode == 2
        assert not out.exists()

    def test_unknown_target_is_named(self, tmp_path):
        path = tmp_path / "spec.ini"
        path.write_text(MINI_SPEC.format(values="2").replace("noma_t", "broadcast"),
                        encoding="utf-8")
        res = run_cli("validate", "--spec", str(path))
        assert res.returncode == 2
        assert "unknown target 'broadcast'" in res.stderr
