import csv
import math
import textwrap

import pytest

from ios_noma.analytic import Scenario
from ios_noma.channel import ConfigError, Quantized, SystemParams
from ios_noma.experiments import (DEFAULTS, ResultRow, ScenarioSpec, SweepSpec,
                                  analytic_bound, build_point,
                                  bundled_spec_names, load_spec,
                                  rows_to_csv_text, run_sweep,
                                  spec_with_overrides, write_csv)
from ios_noma.geometry import ArrayGeometry
from ios_noma.mc import McConfig

MINI_SPEC = textwrap.dedent("""\
    [sweep]
    axis = elements_per_row
    values = 2,4

    [defaults]
    n_v = 2
    trials = 512
    master_seed = 777

    [scenario:quant1]
    target = noma_t
    phase_error_t = quantized:1
    estimators = mc,jensen

    [scenario:uniform]
    target = noma_t
    phase_error_t = uniform
    estimators = jensen
    """)


def points_at(axis, *values, **overrides):
    scen = ScenarioSpec(name="s", target=Scenario.NOMA_T, estimators=("mc",),
                        overrides=overrides)
    return [point for _, _, point in
            SweepSpec(axis=axis, values=values, scenarios=(scen,)).points()]


@pytest.fixture
def mini_spec(tmp_path):
    path = tmp_path / "mini.ini"
    path.write_text(MINI_SPEC, encoding="utf-8")
    return load_spec(path)


class TestParsing:
    def test_bundled_specs_all_load(self):
        names = bundled_spec_names()
        assert names == ["fig3_rate_vs_N", "fig4_rr_vs_N", "fig5_rate_vs_snr",
                         "fig6_sumrate", "fig7_correlation", "fig8_multiuser"]
        for name in names:
            spec = load_spec(name)
            assert spec.values and spec.scenarios

    def test_mini_spec_contents(self, mini_spec):
        assert mini_spec.axis == "elements_per_row"
        assert mini_spec.values == (2.0, 4.0)
        assert [s.name for s in mini_spec.scenarios] == ["quant1", "uniform"]
        assert mini_spec.scenarios[0].target is Scenario.NOMA_T

    def test_range_values(self, tmp_path):
        path = tmp_path / "r.ini"
        path.write_text(MINI_SPEC.replace("values = 2,4", "values = 20:90:35"),
                        encoding="utf-8")
        assert load_spec(path).values == (20.0, 55.0, 90.0)
        # start + k*step, not an accumulated sum that drifts off the grid
        path.write_text(MINI_SPEC.replace("values = 2,4", "values = 0:90:0.1"),
                        encoding="utf-8")
        values = load_spec(path).values
        assert len(values) == 901
        assert values[542] == 54.2
        assert values[-1] == 90.0

    def test_unknown_key_is_diagnosed(self, tmp_path):
        # confidence was a key; the half-widths are always 95 %
        path = tmp_path / "bad.ini"
        for line, key in (("n_vertical = 2", "n_vertical"),
                          ("n_v = 2\nconfidence = 0.9", "confidence")):
            path.write_text(MINI_SPEC.replace("n_v = 2", line), encoding="utf-8")
            with pytest.raises(ConfigError, match=key):
                load_spec(path)

    def test_unknown_axis_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(MINI_SPEC.replace("elements_per_row", "frequency"),
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="axis"):
            load_spec(path)

    def test_unknown_estimator_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(MINI_SPEC.replace("mc,jensen", "mc,exact"),
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="exact"):
            load_spec(path)

    def test_missing_spec_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_spec("no_such_spec")

    def test_fig3_row_budget(self):
        spec = load_spec("fig3_rate_vs_N")
        per_value = sum(len(s.estimators) for s in spec.scenarios)
        assert len(spec.values) == 25
        assert len(spec.values) * per_value == 275


class TestBuilding:
    def test_db_keys_convert_to_linear(self):
        # DEFAULTS is the baseline of the Python API's defaults too, exactly
        point = build_point(DEFAULTS)
        assert point.params == SystemParams() == SystemParams.from_db()
        assert point.mc == McConfig()
        assert point.geom == ArrayGeometry(n_h=15, n_v=4, elem_len_l=0.05, elem_len_w=0.05)

    def test_snr_axis_adjusts_power(self):
        point, = points_at("transmit_snr_db", 90.0)
        assert point.params.gamma0 == pytest.approx(1e9, rel=1e-12)

    def test_bits_axis_sets_both_models(self):
        point, = points_at("quantization_bits", 3)
        assert point.err_models == (Quantized(3), Quantized(3))

    def test_elements_axis_must_be_integer(self):
        with pytest.raises(ConfigError):
            points_at("elements_per_row", 2.5)

    @pytest.mark.parametrize("axis", ["elements_per_row", "quantization_bits"])
    @pytest.mark.parametrize("value", [0.0, math.inf, math.nan])
    def test_integer_axes_reject_non_integers(self, axis, value):
        # int() of inf or NaN would raise before the check, outside ConfigError
        with pytest.raises(ConfigError, match=f"{axis} must be a positive integer"):
            points_at(axis, value)

    def test_geometry_from_defaults(self):
        geom = build_point(DEFAULTS).geom
        assert geom.n_elements == 60
        assert geom.elem_len_l == pytest.approx(0.05)

    def test_every_axis_value_is_checked(self):
        with pytest.raises(ConfigError, match="2.5"):
            points_at("elements_per_row", 4, 2.5)

    def test_mc_settings_are_checked(self):
        with pytest.raises(ValueError, match="trials"):
            build_point({**DEFAULTS, "trials": 50})

    def test_four_user_pathloss_order_is_checked(self):
        with pytest.raises(ConfigError, match="ordering"):
            build_point({**DEFAULTS, "q_t": 0.1**0.5, "q_r": 0.2**0.5,
                         "q_tp": 0.3**0.5, "q_rp": 0.4**0.5,
                         "d_tp_m": 15.0, "d_rp_m": 12.0})

    @pytest.mark.parametrize("key, value", [("d_t_m", 1e-130), ("p_dbm", 3000.0),
                                            ("lambda_t_db", 3000.0)])
    def test_link_snr_scale_is_bounded(self, key, value):
        # finite conversions and pathloss, but gamma0 eta N^2 beyond 1e300,
        # where a drawn gain's rate can overflow to inf or NaN
        with pytest.raises(ConfigError, match=f"link t:.*{key}"):
            build_point({**DEFAULTS, key: value})

    @pytest.mark.parametrize("key, value", [("wavelength_m", 5e-324),
                                            ("element_len_m", 1e308)])
    def test_kernel_argument_overflow_is_rejected(self, key, value):
        # the sinc kernel would read inf / inf and the MC rows NaN
        with pytest.raises(ValueError, match="wavelength"):
            build_point({**DEFAULTS, key: value})

    def test_mc_only_primed_target_needs_four_user_params(self):
        scen = ScenarioSpec(name="tp", target=Scenario.NOMA_TP, estimators=("mc",))
        with pytest.raises(ConfigError, match="noma_tp requires four-user"):
            SweepSpec(axis="transmit_snr_db", values=(10.0,), scenarios=(scen,)).points()

    def test_undefined_estimator_is_diagnosed(self):
        cfg = {**DEFAULTS, "q_t": 0.1**0.5, "q_r": 0.2**0.5, "q_tp": 0.3**0.5,
               "q_rp": 0.4**0.5, "d_tp_m": 12.0, "d_rp_m": 15.0}
        with pytest.raises(ConfigError, match="hardening"):
            analytic_bound(Scenario.NOMA_TP, "hardening", build_point(cfg), 60.0)


class TestRunSweep:
    def test_row_count_and_order(self, mini_spec):
        rows = run_sweep(mini_spec)
        # 2 axis values x (quant1: mc+jensen, uniform: jensen)
        assert len(rows) == 6
        keys = [(r.axis_value, r.scenario, r.estimator) for r in rows]
        assert keys == sorted(keys)

    def test_mc_rows_have_half_width(self, mini_spec):
        rows = run_sweep(mini_spec)
        for row in rows:
            if row.estimator == "mc":
                assert row.half_width is not None and row.half_width > 0
            else:
                assert row.half_width is None

    def test_rerun_is_identical(self, mini_spec):
        assert rows_to_csv_text(run_sweep(mini_spec)) == \
            rows_to_csv_text(run_sweep(mini_spec))

    def test_trials_override(self, mini_spec):
        fast = spec_with_overrides(mini_spec, trials=256, master_seed=1)
        assert fast.defaults["trials"] == 256
        rows = run_sweep(fast)
        assert len(rows) == 6


def parse_csv(path):
    """Read back a CSV produced by write_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [ResultRow(axis_value=float(rec["axis"]), scenario=rec["scenario"],
                          estimator=rec["estimator"], value=float(rec["value"]),
                          half_width=float(rec["half_width"]) if rec["half_width"] else None,
                          branch=rec["branch"] or None)
                for rec in csv.DictReader(fh)]


class TestCsv:
    def test_header_only_for_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text(encoding="utf-8") == \
            "axis,scenario,estimator,value,half_width,branch\n"

    def test_round_trip_at_stated_precision(self, tmp_path):
        rows = [ResultRow(10.0, "noma_t", "mc", 1.234567891, 0.01234567, None),
                ResultRow(10.0, "noma_r", "jensen", 0.9876543, None, "f_r")]
        path = tmp_path / "rt.csv"
        write_csv(rows, path)
        back = parse_csv(path)
        # 6 significant digits resolve to 5e-6 relative
        assert back[0].value == pytest.approx(rows[0].value, rel=5e-6)
        assert back[0].half_width == pytest.approx(rows[0].half_width, rel=5e-6)
        assert back[1].branch == "f_r"
        assert back[1].half_width is None

    def test_six_significant_digits(self):
        text = rows_to_csv_text([ResultRow(1.0, "s", "mc", math.pi, 0.000123456789, None)])
        assert "3.14159" in text
        assert "0.000123457" in text

    def test_write_failure_reports_path(self, tmp_path):
        with pytest.raises(OSError, match="no_dir"):
            write_csv([], tmp_path / "no_dir" / "x.csv")
