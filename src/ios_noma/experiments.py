"""Config-driven sweeps over element count, SNR, bits, or distance.

A sweep spec is an INI file with a [sweep] section naming the axis and
its values, an optional [defaults] section overriding the baseline
setup, and one [scenario:NAME] section per curve.  Keys suffixed _db or
_dbm are converted to linear units while building.  Unset keys fall
back to the baseline: 10 m / 5 m / 10 m link distances, pathloss
exponent 2.4, half-wavelength elements at 0.1 m wavelength, amplitude
splits 0.8/0.6, power splits 0.6/0.8, -30 dB intercepts, 20 dBm
transmit power, -50 dBm noise.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .analytic import (BoundKind, RateBound, Scenario, hardening_rate_r,
                       hardening_rate_t, jensen_rate_r, jensen_rate_t,
                       large_snr_limit, link_factors, multiuser_bounds,
                       oma_rates)
from .channel import (ConfigError, PhaseErrorModel, SystemParams,
                      phase_error_from_string, validate_decoding_order)
from .geometry import (ArrayGeometry, correlation_matrix,
                       magnitude_moment_matrix, trace_rbar_sq)
from .mc import McConfig, mc_estimates

__all__ = [
    "DEFAULTS",
    "AXES",
    "ESTIMATORS",
    "ANALYTIC_BOUNDS",
    "Point",
    "ScenarioSpec",
    "SweepSpec",
    "ResultRow",
    "build_point",
    "analytic_bound",
    "load_spec",
    "bundled_spec_names",
    "bundled_spec_path",
    "run_sweep",
    "write_csv",
    "rows_to_csv_text",
]

DEFAULTS: dict[str, object] = {
    # geometry
    "n_h": 15,
    "n_v": 4,
    "wavelength_m": 0.1,
    "element_len_m": 0.05,
    "element_width_m": 0.05,
    "base_height_m": 0.0,
    # link budget
    "d_b_m": 10.0,
    "d_t_m": 5.0,
    "d_r_m": 10.0,
    "d_tp_m": None,
    "d_rp_m": None,
    "chi": 2.4,
    "lambda_t_db": -30.0,
    "lambda_r_db": -30.0,
    "lambda_tp_db": None,
    "lambda_rp_db": None,
    "p_dbm": 20.0,
    "noise_dbm": -50.0,
    # splits
    "alpha": 0.8,
    "beta": 0.6,
    "q_t": 0.6,
    "q_r": 0.8,
    "q_tp": None,
    "q_rp": None,
    # error models and sampling
    "phase_error_t": "perfect",
    "phase_error_r": "perfect",
    "correlated": True,
    "trials": 100_000,
    "master_seed": 20157,
    "confidence": 0.95,
}

AXES = ("elements_per_row", "transmit_snr_db", "quantization_bits", "reflect_distance")
ESTIMATORS = ("mc", "jensen", "hardening", "limit")

_BOOL_KEYS = {"correlated"}
_INT_KEYS = {"n_h", "n_v", "trials", "master_seed"}
_STR_KEYS = {"phase_error_t", "phase_error_r"}


@dataclass(frozen=True)
class ScenarioSpec:
    """One curve: a target rate, the estimators to emit, and overrides."""

    name: str
    target: Scenario
    estimators: tuple[str, ...]
    overrides: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple[float, ...]
    defaults: dict[str, object] = field(default_factory=dict)
    scenarios: tuple[ScenarioSpec, ...] = ()

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}, expected one of {AXES}")
        if not self.values:
            raise ConfigError("sweep values must be non-empty")

    def points(self) -> list[tuple[float, ScenarioSpec, Point]]:
        """Build and check every (axis value, scenario) point, in sweep order."""
        return [(value, scen, build_point(_apply_axis(
                    {**DEFAULTS, **self.defaults, **scen.overrides}, self.axis, value)))
                for value in self.values for scen in self.scenarios]


@dataclass(frozen=True)
class ResultRow:
    axis_value: float
    scenario: str
    estimator: str
    value: float
    half_width: float | None = None
    branch: str | None = None


# ---------------------------------------------------------------------------
# parsing


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _STR_KEYS:
        return raw
    if key in _BOOL_KEYS:
        low = raw.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    try:
        return int(raw) if key in _INT_KEYS else float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from exc


def _parse_axis_values(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if ":" in raw:
        parts = [float(p) for p in raw.split(":")]
        if len(parts) == 2:
            start, stop, step = parts[0], parts[1], 1.0
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise ConfigError(f"bad range {raw!r}, expected start:stop[:step]")
        if step <= 0 or stop < start:
            raise ConfigError(f"bad range {raw!r}")
        count = math.floor((stop - start + 1e-9) / step) + 1
        return tuple(round(start + k * step, 12) for k in range(count))
    return tuple(float(p) for p in raw.split(","))


def _section_dict(parser: configparser.ConfigParser, section: str) -> dict[str, object]:
    out = {}
    for key, raw in parser.items(section):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        out[key] = _parse_value(key, raw)
    return out


def load_spec(source: str | Path) -> SweepSpec:
    """Parse a sweep spec from a file path or a bundled spec name."""
    path = Path(source)
    if not path.exists() and path.suffix == "":
        path = bundled_spec_path(str(source))
    if not path.exists():
        raise ConfigError(f"spec file not found: {source}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(path, encoding="utf-8")
    if "sweep" not in parser:
        raise ConfigError("spec is missing the [sweep] section")
    sweep = dict(parser.items("sweep"))
    unknown = set(sweep) - {"axis", "values"}
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in section [sweep]")
    if "axis" not in sweep or "values" not in sweep:
        raise ConfigError("[sweep] needs both 'axis' and 'values'")
    defaults = _section_dict(parser, "defaults") if "defaults" in parser else {}
    scenarios = []
    for section in parser.sections():
        if section in ("sweep", "defaults"):
            continue
        if not section.startswith("scenario:"):
            raise ConfigError(f"unexpected section [{section}], scenario sections "
                              "are named [scenario:NAME]")
        name = section.split(":", 1)[1]
        items = dict(parser.items(section))
        try:
            target = Scenario(items.pop("target"))
        except KeyError:
            raise ConfigError(f"section [{section}] is missing 'target'") from None
        except ValueError:
            raise ConfigError(f"section [{section}]: unknown target "
                              f"{items.get('target')!r}") from None
        estimators = tuple(e.strip() for e in items.pop("estimators", "mc").split(",") if e.strip())
        for est in estimators:
            if est not in ESTIMATORS:
                raise ConfigError(f"section [{section}]: unknown estimator {est!r}")
        overrides = {}
        for key, raw in items.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            overrides[key] = _parse_value(key, raw)
        scenarios.append(ScenarioSpec(name=name, target=target,
                                      estimators=estimators, overrides=overrides))
    if not scenarios:
        raise ConfigError("spec defines no scenario sections")
    return SweepSpec(axis=sweep["axis"], values=_parse_axis_values(sweep["values"]),
                     defaults=defaults, scenarios=tuple(scenarios))


def bundled_spec_names() -> list[str]:
    root = resources.files("ios_noma") / "specs"
    return sorted(p.name.removesuffix(".ini") for p in root.iterdir()
                  if p.name.endswith(".ini"))


def bundled_spec_path(name: str) -> Path:
    return Path(str(resources.files("ios_noma") / "specs" / f"{name}.ini"))


# ---------------------------------------------------------------------------
# building a runnable setup out of a flat key dict


def _apply_axis(cfg: dict[str, object], axis: str, value: float) -> dict[str, object]:
    cfg = dict(cfg)
    if axis == "elements_per_row":
        if value != int(value) or value < 1:
            raise ConfigError(f"elements_per_row must be a positive integer, got {value}")
        cfg["n_h"] = int(value)
    elif axis == "transmit_snr_db":
        cfg["p_dbm"] = float(cfg["noise_dbm"]) + value
    elif axis == "quantization_bits":
        if value != int(value) or value < 1:
            raise ConfigError(f"quantization_bits must be a positive integer, got {value}")
        cfg["phase_error_t"] = f"quantized:{int(value)}"
        cfg["phase_error_r"] = f"quantized:{int(value)}"
    elif axis == "reflect_distance":
        cfg["d_r_m"] = float(value)
    return cfg


@dataclass(frozen=True)
class Point:
    """Everything one evaluation needs: layout, link budget, phase-error
    models (model_t, model_r), channel correlation, and MC settings."""

    geom: ArrayGeometry
    params: SystemParams
    err_models: tuple[PhaseErrorModel, PhaseErrorModel]
    correlated: bool
    mc: McConfig

    def tr_rbar_sq(self) -> float:
        """tr(Rbar Rbar) of the layout, or of i.i.d. elements if uncorrelated."""
        n = self.geom.n_elements
        corr = correlation_matrix(self.geom) if self.correlated else np.eye(n)
        return trace_rbar_sq(magnitude_moment_matrix(corr))


def build_point(cfg: dict[str, object]) -> Point:
    """Build and check the setup of a merged key dict (DEFAULTS plus
    overrides).  Computes no correlation matrix, so checking every point
    of a sweep stays cheap."""
    optional = {dst: float(cfg[src]) for src, dst in (
        ("d_tp_m", "d_tp"), ("d_rp_m", "d_rp"), ("q_tp", "q_tp"), ("q_rp", "q_rp"),
        ("lambda_tp_db", "lambda_tp_db"), ("lambda_rp_db", "lambda_rp_db"))
        if cfg.get(src) is not None}
    params = SystemParams.from_db(
        lambda_t_db=float(cfg["lambda_t_db"]), lambda_r_db=float(cfg["lambda_r_db"]),
        p_dbm=float(cfg["p_dbm"]), noise_dbm=float(cfg["noise_dbm"]),
        d_b=float(cfg["d_b_m"]), d_t=float(cfg["d_t_m"]), d_r=float(cfg["d_r_m"]),
        chi=float(cfg["chi"]), alpha=float(cfg["alpha"]), beta=float(cfg["beta"]),
        q_t=float(cfg["q_t"]), q_r=float(cfg["q_r"]), **optional)
    if params.four_user:
        validate_decoding_order(params)
    return Point(
        geom=ArrayGeometry(n_h=int(cfg["n_h"]), n_v=int(cfg["n_v"]),
                           elem_len_l=float(cfg["element_len_m"]),
                           elem_len_w=float(cfg["element_width_m"]),
                           base_height_l0=float(cfg["base_height_m"]),
                           wavelength=float(cfg["wavelength_m"])),
        params=params,
        err_models=(phase_error_from_string(str(cfg["phase_error_t"])),
                    phase_error_from_string(str(cfg["phase_error_r"]))),
        correlated=bool(cfg["correlated"]),
        mc=McConfig(trials=int(cfg["trials"]), master_seed=int(cfg["master_seed"]),
                    confidence=float(cfg["confidence"])))


# (target, estimator) -> bound of (params, n, tr(Rbar Rbar), eps_t, eps_r).
# The formulas are looked up by name at call time, so wrappers installed
# on this module's functions see every call.
ANALYTIC_BOUNDS = {
    (Scenario.NOMA_T, "jensen"): lambda p, n, tr, et, er: jensen_rate_t(p, n, tr, et),
    (Scenario.NOMA_R, "jensen"):
        lambda p, n, tr, et, er: jensen_rate_r(p, link_factors(p, n, tr, et, er)),
    (Scenario.NOMA_TP, "jensen"):
        lambda p, n, tr, et, er: multiuser_bounds(p, n, link_factors(p, n, tr, et, er))[0],
    (Scenario.NOMA_RP, "jensen"):
        lambda p, n, tr, et, er: multiuser_bounds(p, n, link_factors(p, n, tr, et, er))[1],
    (Scenario.OMA_T, "jensen"):
        lambda p, n, tr, et, er: oma_rates(p, n, tr, et, er, BoundKind.JENSEN_UPPER)[0],
    (Scenario.OMA_R, "jensen"):
        lambda p, n, tr, et, er: oma_rates(p, n, tr, et, er, BoundKind.JENSEN_UPPER)[1],
    (Scenario.NOMA_T, "hardening"): lambda p, n, tr, et, er: hardening_rate_t(p, n, et),
    (Scenario.NOMA_R, "hardening"): lambda p, n, tr, et, er: hardening_rate_r(p, n, et, er),
    (Scenario.OMA_T, "hardening"):
        lambda p, n, tr, et, er: oma_rates(p, n, tr, et, er, BoundKind.HARDENING_APPROX)[0],
    (Scenario.OMA_R, "hardening"):
        lambda p, n, tr, et, er: oma_rates(p, n, tr, et, er, BoundKind.HARDENING_APPROX)[1],
    # large_snr_limit itself says which scenarios have a finite ceiling
    **{(scen, "limit"): (lambda p, n, tr, et, er, scen=scen: large_snr_limit(scen, p))
       for scen in Scenario},
}


def analytic_bound(target: Scenario, estimator: str, point: Point, tr: float) -> RateBound:
    """Evaluate one analytic estimator at a point, given its tr(Rbar Rbar)."""
    formula = ANALYTIC_BOUNDS.get((target, estimator))
    if formula is None:
        raise ConfigError(f"estimator {estimator!r} is undefined for {target.value}")
    eps_t, eps_r = (model.epsilon() for model in point.err_models)
    return formula(point.params, point.geom.n_elements, tr, eps_t, eps_r)


def run_sweep(spec: SweepSpec, *, workers: int = 1) -> list[ResultRow]:
    """Evaluate every scenario's estimators at every axis value.

    Every point is built and checked before the first one is evaluated.
    Rows come back sorted by (axis_value, scenario, estimator).
    """
    rows: list[ResultRow] = []
    for value, scen, point in spec.points():
        analytic_wanted = [e for e in scen.estimators if e != "mc"]
        if analytic_wanted:
            tr = point.tr_rbar_sq()
            for est in analytic_wanted:
                bound = analytic_bound(scen.target, est, point, tr)
                rows.append(ResultRow(axis_value=value, scenario=scen.name,
                                      estimator=est, value=bound.value,
                                      branch=bound.branch))
        if "mc" in scen.estimators:
            est = mc_estimates(point.geom, point.params, point.err_models, point.mc,
                               [scen.target], correlated=point.correlated,
                               workers=workers)[scen.target]
            rows.append(ResultRow(axis_value=value, scenario=scen.name,
                                  estimator="mc", value=est.mean,
                                  half_width=est.half_width))
    rows.sort(key=lambda r: (r.axis_value, r.scenario, r.estimator))
    return rows


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.6g}"


def rows_to_csv_text(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["axis", "scenario", "estimator", "value", "half_width", "branch"])
    for row in rows:
        writer.writerow([_fmt(row.axis_value), row.scenario, row.estimator,
                         _fmt(row.value), _fmt(row.half_width), row.branch or ""])
    return buf.getvalue()


def write_csv(rows: list[ResultRow], path: str | Path) -> None:
    """Write rows with a fixed header, 6 significant digits, UTF-8."""
    path = Path(path)
    try:
        path.write_text(rows_to_csv_text(rows), encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc


def parse_csv(path: str | Path) -> list[ResultRow]:
    """Read back a CSV produced by write_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for rec in reader:
            rows.append(ResultRow(
                axis_value=float(rec["axis"]), scenario=rec["scenario"],
                estimator=rec["estimator"], value=float(rec["value"]),
                half_width=float(rec["half_width"]) if rec["half_width"] else None,
                branch=rec["branch"] or None))
    return rows


def spec_with_overrides(spec: SweepSpec, *, trials: int | None = None,
                        master_seed: int | None = None) -> SweepSpec:
    """Copy of the spec with trial count or seed forced everywhere."""
    forced = {}
    if trials is not None:
        forced["trials"] = trials
    if master_seed is not None:
        forced["master_seed"] = master_seed
    if not forced:
        return spec
    scenarios = tuple(
        replace(s, overrides={k: v for k, v in s.overrides.items() if k not in forced})
        for s in spec.scenarios)
    return replace(spec, defaults={**spec.defaults, **forced}, scenarios=scenarios)
