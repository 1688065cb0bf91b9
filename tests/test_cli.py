import argparse
import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ios_noma import cli
from ios_noma.analytic import Scenario, rate_bound
from ios_noma.channel import ConfigError, Quantized, SystemParams
from ios_noma.experiments import DEFAULTS, build_point
from ios_noma.geometry import trace_rbar_sq


# the child imports the package the tests import, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH"))))}


def run_cli(*args, timeout=60):
    return subprocess.run([sys.executable, "-m", "ios_noma.cli", *args],
                          capture_output=True, text=True, env=CHILD_ENV, timeout=timeout)


class Captured(Exception):
    """Stops a command at the config it built."""


# the bound command's parameter flags and the spec keys they set
BOUND_FLAGS = {
    "--n-h": "n_h", "--n-v": "n_v", "--wavelength": "wavelength_m",
    "--element-len": "element_len_m", "--element-width": "element_width_m",
    "--d-b": "d_b_m", "--d-t": "d_t_m", "--d-r": "d_r_m", "--d-tp": "d_tp_m",
    "--d-rp": "d_rp_m", "--chi": "chi",
    "--lambda-t-db": "lambda_t_db", "--lambda-r-db": "lambda_r_db",
    "--lambda-tp-db": "lambda_tp_db", "--lambda-rp-db": "lambda_rp_db",
    "--p-dbm": "p_dbm", "--noise-dbm": "noise_dbm", "--alpha": "alpha", "--beta": "beta",
    "--qt": "q_t", "--qr": "q_r", "--qtp": "q_tp", "--qrp": "q_rp",
    "--phase-error-t": "phase_error_t", "--phase-error-r": "phase_error_r",
}


class TestBound:
    def test_flags_are_pinned(self):
        (sub,) = [action for action in cli._build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        flags = {flag: action.dest for action in sub.choices["bound"]._actions
                 for flag in action.option_strings if flag not in ("-h", "--help")}
        assert flags == {"--scenario": "scenario", **BOUND_FLAGS,
                         "--uncorrelated": "correlated", "--inf-snr": "inf_snr",
                         "--json": "as_json"}

    @pytest.mark.parametrize("flag, key, value", [
        pytest.param(flag, key, value, id=flag) for flag, key, value in (
            *((flag, key, 7 if type(DEFAULTS[key]) is int else 1.25)
              for flag, key in BOUND_FLAGS.items() if not key.startswith("phase_error")),
            ("--phase-error-t", "phase_error_t", "uniform"),
            ("--phase-error-r", "phase_error_r", "vonmises:2"),
            ("--uncorrelated", "correlated", False))])
    def test_flag_reaches_its_key(self, monkeypatch, flag, key, value):
        configs = []

        def capture(cfg):
            configs.append(cfg)
            raise Captured

        monkeypatch.setattr(cli, "build_point", capture)
        given = [flag] if value is False else [flag, str(value)]
        with pytest.raises(Captured):
            cli.main(["bound", "--scenario", "noma_t", *given])
        cfg, = configs
        assert cfg == {**DEFAULTS, key: value}
        assert type(cfg[key]) is type(value)

    def test_zero_transmit_power(self, capsys):
        # 10^(-4000/10) W underflows to 0: gamma0 is -inf dB, with no
        # divide-by-zero warning (pytest makes RuntimeWarning an error)
        assert cli.main(["bound", "--scenario", "noma_t", "--p-dbm", "-4000"]) == 0
        out = capsys.readouterr()
        assert "gamma0=-inf dB" in out.out
        assert out.err == ""
        assert cli.main(["bound", "--scenario", "noma_t", "--p-dbm", "-4000", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["gamma0_db"] is None

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

    @pytest.mark.parametrize("scenario, flags", [
        ("noma_r", ["--qt", "0", "--qr", "1"]),
        ("noma_tp", ["--qt", "0", "--qr", "0", "--qtp", "0.6", "--qrp", "0.8",
                     "--d-tp", "12", "--d-rp", "15"])], ids=["two_user", "four_user"])
    def test_limit_without_interference_is_skipped(self, scenario, flags, capsys):
        # no power is decoded after the target, so its rate has no ceiling:
        # the limit row is skipped, and asked for alone it is a config error
        args = ["bound", "--scenario", scenario, *flags]
        message = f"no finite large-SNR limit for scenario {scenario}"
        assert cli.main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("jensen ") and "n/a" not in lines[1]
        assert lines[-1].startswith(f"limit      n/a ({message}")
        assert cli.main([*args, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "jensen" in payload["bounds"] and "limit" not in payload["bounds"]
        assert payload["skipped"]["limit"].startswith(message)
        assert cli.main([*args, "--inf-snr"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

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


class TestExitCodes:
    @pytest.mark.parametrize("exc, code, prefix", [
        (np.linalg.LinAlgError("Singular matrix"), 3, "numeric failure"),
        (FloatingPointError("overflow encountered"), 3, "numeric failure"),
        (ConfigError("bad key"), 2, "error"),
        (MemoryError("Unable to allocate 72.8 TiB"), 2, "error")],
        ids=["linalg", "arithmetic", "config", "memory"])
    def test_failure_kind_sets_the_exit_code(self, exc, code, prefix, tmp_path, monkeypatch,
                                             capsys):
        # numpy's LinAlgError is a ValueError, yet a numeric failure
        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_sweep", failing)
        path = tmp_path / "spec.ini"
        path.write_text(MINI_SPEC.format(values="2"), encoding="utf-8")
        assert cli.main(["run", "--spec", str(path), "--out", str(tmp_path / "rows.csv")]) == code
        assert capsys.readouterr().err == f"{prefix}: {exc}\n"


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

    @pytest.mark.parametrize("target, keys", [
        ("noma_r", "q_t = 0\nq_r = 1\n"),
        ("noma_tp", "q_t = 0\nq_r = 0\nq_tp = 0.6\nq_rp = 0.8\nd_tp_m = 12\nd_rp_m = 15\n")],
        ids=["two_user", "four_user"])
    def test_limit_without_interference(self, tmp_path, target, keys, counting, capsys):
        # no power is decoded after the target: its rate has no ceiling
        path = tmp_path / "spec.ini"
        path.write_text(MINI_SPEC.format(values="2") + f"[scenario:zero]\ntarget = {target}\n"
                        f"{keys}estimators = mc,jensen,limit\n", encoding="utf-8")
        calls = counting("mc_estimates")
        out = tmp_path / "rows.csv"
        for args in (["validate", "--spec", str(path)],
                     ["run", "--spec", str(path), "--out", str(out)]):
            assert cli.main(args) == 2
            assert capsys.readouterr().err.startswith(
                f"error: no finite large-SNR limit for scenario {target}")
        assert calls == []
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

    def test_layout_too_large_to_allocate(self, tmp_path, counting, capsys):
        # 10^13 elements: numpy's MemoryError exits 2, not with a traceback
        res = run_cli("bound", "--scenario", "noma_r", "--n-h", "1000000", "--n-v", "10000000")
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: Unable to allocate")
        assert res.stdout == ""
        # 10^7 elements of a Monte Carlo walk: its correlation matrix alone
        # is 800 TB, so validate rejects the spec and run draws nothing
        path = tmp_path / "spec.ini"
        path.write_text("[sweep]\naxis = elements_per_row\nvalues = 100000\n"
                        "[defaults]\nn_v = 100\ntrials = 256\n"
                        "[scenario:a]\ntarget = noma_t\nestimators = mc\n", encoding="utf-8")
        draws = counting("standard_complex_gaussian")
        out = tmp_path / "rows.csv"
        for argv in (["validate", "--spec", str(path)],
                     ["run", "--spec", str(path), "--out", str(out)]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert "ok" not in captured.out
            assert captured.err.startswith("error: N = 10000000 elements"), captured.err
        assert draws == []
        assert not out.exists()

    @pytest.mark.parametrize("error", [None, OSError, ValueError],
                             ids=["no_sysconf", "os_error", "value_error"])
    def test_unreported_physical_memory_skips_the_walk_check(self, error, monkeypatch,
                                                             capsys):
        # os.sysconf is POSIX only (Windows has none) and may not know a name
        if error is None:
            monkeypatch.delattr(os, "sysconf")
        else:
            def unknown(name):
                raise error(name)

            monkeypatch.setattr(os, "sysconf", unknown)
        assert cli.main(["validate", "--spec", "fig3_rate_vs_N"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag, named", [
        (("--phase-error-t", "vonmises:nan"), "vonmises"),
        (("--phase-error-r", "quantized:2000"), "quantized:2000"),
        (("--noise-dbm", "4000"), "noise_dbm"),
        (("--lambda-t-db", "5000"), "lambda_t_db"),
        (("--chi", "1e6"), "chi"),
        (("--d-r", "1e-300"), "d_r"),
        (("--d-t", "1e-130"), "d_t_m"),
    ])
    def test_out_of_range_bound_flag(self, flag, named):
        # a NaN kappa would hang epsilon(); the others overflow a float
        res = run_cli("bound", "--scenario", "noma_r", *flag, timeout=10)
        assert res.returncode == 2, res.stderr
        assert named in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("lines, named", [
        ("target = noma_tp\n", "four-user"),
        ("target = noma_t\nphase_error_t = quantized:2000\n", "quantized:2000"),
        ("target = noma_t\nphase_error_r = vonmises:nan\n", "vonmises"),
        ("target = noma_t\nnoise_dbm = 4000\n", "noise_dbm"),
    ], ids=["mc_only_primed_target", "quantized_2000", "vonmises_nan", "noise_4000"])
    def test_mc_only_spec_that_run_rejects(self, tmp_path, lines, named):
        # MC-only scenarios, which no analytic estimator checks: validate
        # rejects what run would reject
        path = tmp_path / "spec.ini"
        path.write_text("[sweep]\naxis = elements_per_row\nvalues = 2\n"
                        f"[defaults]\nn_v = 2\n[scenario:a]\n{lines}", encoding="utf-8")
        out = tmp_path / "rows.csv"
        for args in (("validate", "--spec", str(path)),
                     ("run", "--spec", str(path), "--out", str(out), "--trials", "200")):
            res = run_cli(*args, timeout=10)
            assert res.returncode == 2, (args[0], res.stderr)
            assert named in res.stderr, args[0]
        assert not out.exists()

    @pytest.mark.parametrize("section, named", [
        ("[scenario:a]\ntarget = noma_t\nestimators =\n", "[scenario:a] lists no estimators"),
        ("[scenario:a]\ntarget = noma_t\nestimators = ,\n", "[scenario:a] lists no estimators"),
        ("[scenario:]\ntarget = noma_t\nestimators = jensen\n",
         "[scenario:] has no scenario name"),
        ("[scenario: ]\ntarget = noma_t\nestimators = jensen\n",
         "[scenario: ] has no scenario name"),
        ("[scenario:a]\ntarget = noma_t\ntrials = 1000.0\n",
         "key 'trials': expected an integer, got '1000.0'"),
        ("[scenario:a]\ntarget = noma_t\nestimators = jensen\n"
         "[scenario:a ]\ntarget = noma_t\nestimators = jensen\n",
         "[scenario:a ]: scenario name 'a' is repeated"),
    ], ids=["no_estimators", "blank_estimators", "no_name", "blank_name", "float_trials",
            "repeated_name"])
    def test_malformed_scenario_section(self, tmp_path, section, named, counting, capsys):
        # sections that would write no rows, rows with no scenario name or
        # two scenarios' rows under one name, and an integer key, which
        # names its type
        path = tmp_path / "spec.ini"
        path.write_text("[sweep]\naxis = elements_per_row\nvalues = 2\n" + section,
                        encoding="utf-8")
        calls = counting("mc_estimates")
        out = tmp_path / "rows.csv"
        for args in (["validate", "--spec", str(path)],
                     ["run", "--spec", str(path), "--out", str(out)]):
            assert cli.main(args) == 2
            assert named in capsys.readouterr().err, args[0]
        assert calls == []
        assert not out.exists()

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

    @pytest.mark.parametrize("values, named", [
        ("10, nan", "p_dbm"), ("1:inf", "values"), ("1:nan", "values"),
        ("-inf:1", "values"), ("0:1:inf", "values"), ("1:1e12", "values"),
        ("-1e308:1e308", "values"), ("0:1:1e-300", "values"),
    ], ids=["nan_list", "inf_stop", "nan_stop", "inf_start", "inf_step", "huge_range",
            "overflowing_span", "overflowing_count"])
    def test_non_finite_axis_value(self, tmp_path, values, named):
        # a range is checked before it is expanded, so an oversized one
        # allocates nothing
        path = tmp_path / "spec.ini"
        path.write_text(f"[sweep]\naxis = transmit_snr_db\nvalues = {values}\n"
                        "[defaults]\ntrials = 256\n"
                        "[scenario:a]\ntarget = noma_t\nestimators = mc,jensen\n",
                        encoding="utf-8")
        res = run_cli("validate", "--spec", str(path))
        assert res.returncode == 2
        assert named in res.stderr
        out = tmp_path / "rows.csv"
        assert run_cli("run", "--spec", str(path), "--out", str(out)).returncode == 2
        assert not out.exists()

    @pytest.mark.parametrize("values", ["1:abc", "10, abc"], ids=["range", "list"])
    def test_non_numeric_axis_value(self, tmp_path, values):
        path = tmp_path / "spec.ini"
        path.write_text(f"[sweep]\naxis = transmit_snr_db\nvalues = {values}\n"
                        "[scenario:a]\ntarget = noma_t\nestimators = jensen\n",
                        encoding="utf-8")
        res = run_cli("validate", "--spec", str(path))
        assert res.returncode == 2
        assert "values" in res.stderr and "abc" in res.stderr
        assert "could not convert" not in res.stderr

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

    @pytest.mark.parametrize("values, estimators, named", [
        ("20, 20", "mc,jensen", "values"),
        ("20:20.000005:0.000001", "mc,jensen", "values"),
        ("20", "jensen, jensen, mc, mc", "[scenario:a]"),
    ], ids=["repeated_value", "values_equal_at_six_digits", "repeated_estimator"])
    def test_repeated_row_key(self, tmp_path, counting, capsys, values, estimators, named):
        # two rows keyed alike (axis, scenario, estimator) would both be written
        calls = counting("mc_estimates")
        path = tmp_path / "spec.ini"
        path.write_text(f"[sweep]\naxis = transmit_snr_db\nvalues = {values}\n"
                        f"[scenario:a]\ntarget = noma_t\nestimators = {estimators}\n",
                        encoding="utf-8")
        out = tmp_path / "rows.csv"
        for args in (["validate", "--spec", str(path)],
                     ["run", "--spec", str(path), "--out", str(out), "--trials", "200"]):
            assert cli.main(args) == 2, args[0]
            assert named in capsys.readouterr().err, args[0]
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("model", ["vonmises:abc", "vonmises:", "quantized:1.5",
                                       "quantized:", "perfect:3", "uniform:x"])
    def test_malformed_phase_model_is_named(self, tmp_path, capsys, model):
        path = tmp_path / "spec.ini"
        path.write_text(MINI_SPEC.format(values="2") + f"phase_error_r = {model}\n",
                        encoding="utf-8")
        for args in (["validate", "--spec", str(path)],
                     ["bound", "--scenario", "noma_r", "--phase-error-t", model]):
            assert cli.main(args) == 2, args[0]
            err = capsys.readouterr().err
            assert f"phase error model {model!r}" in err, args[0]
            assert "could not convert" not in err and "invalid literal" not in err

    def test_unknown_target_is_named(self, tmp_path):
        path = tmp_path / "spec.ini"
        path.write_text(MINI_SPEC.format(values="2").replace("noma_t", "broadcast"),
                        encoding="utf-8")
        res = run_cli("validate", "--spec", str(path))
        assert res.returncode == 2
        assert "unknown target 'broadcast'" in res.stderr

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_spec_is_named(self, tmp_path, capsys, kind):
        # a path the parser cannot open or decode names itself, not a
        # missing section or a bare codec message
        path = tmp_path / "d.ini"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff" + MINI_SPEC.format(values="2").encode())
        assert cli.main(["validate", "--spec", str(path)]) == 2
        assert f"cannot read spec file {path}: " in capsys.readouterr().err


# validates a spec, then runs it, in one process, and prints both exit
# codes and the number of walks over the trial blocks
CONTRACT_CHILD = """
import json, sys
from ios_noma import cli, mc
walks, walk = [], mc._walk_group
mc._walk_group = lambda *args: walks.append(args) or walk(*args)
spec, out = sys.argv[1:]
codes = [cli.main(["validate", "--spec", spec]),
         cli.main(["run", "--spec", spec, "--out", out, "--trials", "200", "--seed", "3"])]
print(json.dumps({"codes": codes, "walks": len(walks)}))
"""
FOUR_USER_KEYS = {"q_t": math.sqrt(0.1), "q_r": math.sqrt(0.2), "q_tp": math.sqrt(0.3),
                  "q_rp": math.sqrt(0.4), "d_tp_m": 12.0, "d_rp_m": 15.0}
# the float keys; the integer ones set sizes, where an extreme value asks
# for memory or time rather than being malformed
FLOAT_KEYS = sorted(key for key, value in DEFAULTS.items()
                    if value is None or isinstance(value, float))
PHASE_STRINGS = st.one_of(
    st.sampled_from(["perfect", "uniform"]),
    st.builds("vonmises:{!r}".format, st.floats()),
    st.builds("quantized:{}".format, st.integers(-2, 40) | st.integers(0, 10**400)))
EXTREMES = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-300, 1e-130, 3000.0, 1e300, -1e300, 1.7976931348623157e308])


class TestContract:
    """Every spec that validate accepts runs to the end with finite rows,
    and every spec it rejects makes run exit 2 before any walk."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(target=st.sampled_from([s.value for s in Scenario]),
           four_user=st.booleans(), phases=st.tuples(PHASE_STRINGS, PHASE_STRINGS),
           key=st.sampled_from(FLOAT_KEYS), value=EXTREMES)
    # cases that random draws reach rarely: inf and NaN rows, an overflow
    @example(target="noma_t", four_user=False, phases=("perfect", "uniform"),
             key="d_t_m", value=1e-130)
    @example(target="noma_rp", four_user=True, phases=("quantized:1", "vonmises:inf"),
             key="wavelength_m", value=5e-324)
    @example(target="oma_r", four_user=False, phases=("quantized:27", "perfect"),
             key="alpha", value=1e300)
    def test_validate_decides_what_runs(self, tmp_path_factory, target, four_user,
                                        phases, key, value):
        tmp = tmp_path_factory.mktemp("contract")
        keys = {**(FOUR_USER_KEYS if four_user else {}), key: value}
        spec = tmp / "spec.ini"
        spec.write_text(
            "[sweep]\naxis = elements_per_row\nvalues = 2, 3\n[defaults]\nn_v = 2\n"
            f"phase_error_t = {phases[0]}\nphase_error_r = {phases[1]}\n"
            + "".join(f"{k} = {v!r}\n" for k, v in keys.items())
            + f"[scenario:a]\ntarget = {target}\nestimators = mc\n"
            "[scenario:b]\ntarget = noma_r\nestimators = mc,jensen\n", encoding="utf-8")
        out = tmp / "rows.csv"
        res = subprocess.run([sys.executable, "-c", CONTRACT_CHILD, str(spec), str(out)],
                             capture_output=True, text=True, env=CHILD_ENV, timeout=60)
        report = json.loads(res.stdout.splitlines()[-1])
        validated, ran = report["codes"]
        if validated == 0:
            assert ran == 0, res.stderr
            rows = out.read_text(encoding="utf-8").splitlines()[1:]
            assert len(rows) == 6
            assert all(math.isfinite(float(cell)) for row in rows
                       for cell in row.split(",")[3:5] if cell), rows
        else:
            assert (validated, ran, report["walks"]) == (2, 2, 0), res.stderr
            assert not out.exists()


# imports numpy, then the command line, and runs three commands, printing
# the modules each one has loaded beyond numpy by the time it returns
STARTUP_CHILD = """
import contextlib, io, sys
sys.path[:0] = sys.argv[2:]
import numpy
before = set(sys.modules)
from ios_noma import cli
loaded = {}
for argv in (["validate", "--spec", "fig7_correlation"],
             ["bound", "--scenario", "noma_r"],
             ["run", "--spec", "fig5_rate_vs_snr", "--trials", "200", "--workers", "1",
              "--out", sys.argv[1]]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded[argv[0]] = sorted(set(sys.modules) - before)
print(loaded)
"""
# what only a pool, the eigh fallback's warning or `bound --json` needs
DEFERRED = ("concurrent.futures.process", "multiprocessing", "logging", "statistics",
            "json", "importlib.resources")


class TestStartup:
    def test_commands_load_no_deferred_module(self, tmp_path):
        # -S keeps site from loading modules (importlib.resources, through
        # some .pth files) that the check would then never see loaded
        res = subprocess.run(
            [sys.executable, "-S", "-c", STARTUP_CHILD, str(tmp_path / "rows.csv"),
             str(Path(cli.__file__).parents[1]), *sys.path],
            capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        loaded = ast.literal_eval(res.stdout.splitlines()[-1])
        for command, modules in loaded.items():
            assert not set(DEFERRED) & set(modules), (command, modules)
            if command != "run":
                assert "numpy.random" not in modules, (command, modules)
