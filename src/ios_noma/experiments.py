"""Config-driven sweeps over element count, SNR, bits, or distance.

A sweep spec is an INI file with a [sweep] section naming the axis and
its values, an optional [defaults] section overriding the baseline
setup, and one [scenario:NAME] section per curve.  Keys suffixed _db or
_dbm are converted to linear units while building.  A key's value comes
from the first of --trials/--seed (trials and master_seed only), the
scenario's section, [defaults] and DEFAULTS that sets it.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from .analytic import ESTIMATORS as BOUND_ESTIMATORS
from .analytic import _LINKS, RateBound, Scenario, _check_users, rate_bound
from .channel import (ConfigError, PhaseErrorModel, SystemParams, pathloss,
                      phase_error_from_string)
from .geometry import ArrayGeometry, trace_rbar_sq
from .mc import BLOCK_SIZE, McConfig, mc_batch

# the link budget and splits: the keys of SystemParams.from_db, distances
# with an "_m"; a None key is left out of the call
_LINK_BUDGET: dict[str, float | None] = {
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
    "alpha": 0.8,
    "beta": 0.6,
    "q_t": 0.6,
    "q_r": 0.8,
    "q_tp": None,
    "q_rp": None,
}

DEFAULTS: dict[str, object] = {
    # geometry
    "n_h": 15,
    "n_v": 4,
    "wavelength_m": 0.1,
    "element_len_m": 0.05,
    "element_width_m": 0.05,
    **_LINK_BUDGET,
    # error models and sampling
    "phase_error_t": "perfect",
    "phase_error_r": "perfect",
    "correlated": True,
    "trials": 100_000,
    "master_seed": 20157,
}

# The largest SNR scale gamma0 eta N^2 of a link: a composite gain is at
# most about N^2 times a few hundred, so every rate stays finite.
_MAX_SNR = 1e300
# The most values a start:stop[:step] range may expand to, far above any
# real sweep: a larger count is a typo, not a sweep to allocate.
_MAX_RANGE_VALUES = 100_000

# The bundled spec files, which load_spec also finds by name: a plain path, as
# importlib.resources costs ~13 ms of start-up where site has not loaded it.
_SPECS_DIR = Path(__file__).with_name("specs")
AXES = ("elements_per_row", "transmit_snr_db", "quantization_bits", "reflect_distance")
ESTIMATORS = ("mc", *BOUND_ESTIMATORS)


@dataclass(frozen=True)
class ScenarioSpec:
    """One curve: a target rate, the estimators to emit, and the keys it
    sets over DEFAULTS (load_spec merges a spec's [defaults] in here)."""

    name: str
    target: Scenario
    estimators: tuple[str, ...]
    overrides: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepSpec:
    """An axis, its values and the curves swept along it.  The values
    must stay distinct at the six significant digits a CSV row keys on."""

    axis: str
    values: tuple[float, ...]
    scenarios: tuple[ScenarioSpec, ...] = ()

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}, expected one of {AXES}")
        if not self.values:
            raise ConfigError("sweep values must be non-empty")
        # a CSV reader keys a row on its printed axis value, as a float
        ((axis, count),) = Counter(float(_fmt(v)) for v in self.values).most_common(1)
        if count > 1:
            raise ConfigError(f"values: {count} axis values key their rows as {_fmt(axis)}")

    def points(self) -> list[tuple[float, ScenarioSpec, Point, dict[str, RateBound]]]:
        """Build and check every (axis value, scenario) point, in sweep
        order, with {estimator: RateBound} for its analytic estimators.
        A primed target's four-user parameters are checked whatever its
        estimators, and run_sweep writes its analytic rows from these
        bounds, so validating a spec runs the bound code its run does.  An
        mc point is rejected if its walk exceeds physical memory: a block's
        polar draw of 16 N min(trials, BLOCK_SIZE) bytes, and if correlated
        the 8 N^2 bytes of each of correlation_matrix's 3 N x N arrays.  A
        platform that does not report its physical memory (no os.sysconf,
        as on Windows) skips the check."""
        try:
            memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        except (AttributeError, OSError, ValueError):
            memory = math.inf
        points = []
        for value in self.values:
            for scen in self.scenarios:
                point = build_point(_apply_axis({**DEFAULTS, **scen.overrides},
                                                self.axis, value))
                _check_users(scen.target, point.params)
                n = point.geom.n_elements
                walk = 8 * n * (2 * min(point.mc.trials, BLOCK_SIZE) + 3 * n * point.correlated)
                if "mc" in scen.estimators and walk > memory:
                    raise ConfigError(f"N = {n} elements: a Monte Carlo walk needs at least "
                                      f"{walk} bytes, more than the {memory} of physical memory")
                points.append((value, scen, point,
                               {est: analytic_bound(scen.target, est, point)
                                for est in scen.estimators if est != "mc"}))
        return points


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
    """raw as the type of DEFAULTS[key]; a None default is a float."""
    raw = raw.strip()
    kind = float if DEFAULTS[key] is None else type(DEFAULTS[key])
    if kind is str:
        return raw
    if kind is bool:
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        except KeyError:
            raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}") from None
    try:
        return kind(raw)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"key {key!r}: expected {expected}, got {raw!r}") from exc


def _parse_axis_values(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    is_range = ":" in raw
    try:
        parts = [float(p) for p in raw.split(":" if is_range else ",")]
    except ValueError:
        raise ConfigError(f"values: expected numbers, got {raw!r}") from None
    if is_range:
        if len(parts) == 2:
            start, stop, step = parts[0], parts[1], 1.0
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise ConfigError(f"bad range {raw!r}, expected start:stop[:step]")
        if not all(map(math.isfinite, parts)):
            raise ConfigError(f"values: range {raw!r} must be finite")
        if step <= 0 or stop < start:
            raise ConfigError(f"bad range {raw!r}")
        steps = (stop - start + 1e-9) / step
        if not steps < _MAX_RANGE_VALUES:
            raise ConfigError(f"values: range {raw!r} expands to more than "
                              f"{_MAX_RANGE_VALUES} values")
        return tuple(round(start + k * step, 12) for k in range(math.floor(steps) + 1))
    return tuple(parts)


def _parse_keys(items, section: str) -> dict[str, object]:
    """The (key, raw value) pairs of a section as a dict of typed values."""
    out = {}
    for key, raw in items:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        out[key] = _parse_value(key, raw)
    return out


def load_spec(source: str | Path) -> SweepSpec:
    """Parse a sweep spec from a file path or a bundled spec name.  Each
    scenario's overrides are its own keys over the [defaults] keys."""
    path = Path(source)
    if not path.exists() and path.suffix == "":
        path = _SPECS_DIR / f"{source}.ini"
    if not path.exists():
        raise ConfigError(f"spec file not found: {source}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read spec file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed spec file {path}: {exc}") from None
    if "sweep" not in sections:
        raise ConfigError("spec is missing the [sweep] section")
    sweep = sections["sweep"]
    unknown = set(sweep) - {"axis", "values"}
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in section [sweep]")
    if "axis" not in sweep or "values" not in sweep:
        raise ConfigError("[sweep] needs both 'axis' and 'values'")
    defaults = _parse_keys(sections.get("defaults", {}).items(), "defaults")
    scenarios = []
    for section, items in sections.items():
        if section in ("sweep", "defaults"):
            continue
        if not section.startswith("scenario:"):
            raise ConfigError(f"unexpected section [{section}], scenario sections "
                              "are named [scenario:NAME]")
        name = section.split(":", 1)[1].strip()
        if not name:
            raise ConfigError(f"section [{section}] has no scenario name")
        if any(scen.name == name for scen in scenarios):
            raise ConfigError(f"section [{section}]: scenario name {name!r} is repeated")
        raw_target = items.pop("target", None)
        if raw_target is None:
            raise ConfigError(f"section [{section}] is missing 'target'")
        try:
            target = Scenario(raw_target)
        except ValueError:
            raise ConfigError(f"section [{section}]: unknown target {raw_target!r}") from None
        estimators = tuple(e.strip() for e in items.pop("estimators", "mc").split(",") if e.strip())
        if not estimators:
            raise ConfigError(f"section [{section}] lists no estimators")
        for k, est in enumerate(estimators):
            if est not in ESTIMATORS:
                raise ConfigError(f"section [{section}]: unknown estimator {est!r}")
            if est in estimators[:k]:
                raise ConfigError(f"section [{section}]: estimator {est!r} is repeated")
        scenarios.append(ScenarioSpec(
            name=name, target=target, estimators=estimators,
            overrides={**defaults, **_parse_keys(items.items(), section)}))
    if not scenarios:
        raise ConfigError("spec defines no scenario sections")
    return SweepSpec(axis=sweep["axis"], values=_parse_axis_values(sweep["values"]),
                     scenarios=tuple(scenarios))


def bundled_spec_names() -> list[str]:
    return sorted(p.name.removesuffix(".ini") for p in _SPECS_DIR.iterdir()
                  if p.name.endswith(".ini"))


# ---------------------------------------------------------------------------
# building a runnable setup out of a flat key dict


def _apply_axis(cfg: dict[str, object], axis: str, value: float) -> dict[str, object]:
    cfg = dict(cfg)
    if axis in ("elements_per_row", "quantization_bits") and not (
            value >= 1 and float(value).is_integer()):
        raise ConfigError(f"{axis} must be a positive integer, got {value}")
    if axis == "elements_per_row":
        cfg["n_h"] = int(value)
    elif axis == "transmit_snr_db":
        cfg["p_dbm"] = float(cfg["noise_dbm"]) + value
    elif axis == "quantization_bits":
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


def build_point(cfg: dict[str, object]) -> Point:
    """Build and check the setup of a merged key dict (DEFAULTS plus
    overrides).  Every float value must be finite, SystemParams rejects
    four-user parameters that break the pathloss ordering behind the
    decoding order, and every link's SNR scale must be at most _MAX_SNR.
    Computes no correlation matrix, so checking every point of a sweep
    stays cheap."""
    for key, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    params = SystemParams.from_db(**{key.removesuffix("_m"): float(cfg[key])
                                     for key in _LINK_BUDGET if cfg[key] is not None})
    geom = ArrayGeometry(n_h=int(cfg["n_h"]), n_v=int(cfg["n_v"]),
                         elem_len_l=float(cfg["element_len_m"]),
                         elem_len_w=float(cfg["element_width_m"]),
                         wavelength=float(cfg["wavelength_m"]))
    for link in _LINKS[:4 if params.four_user else 2]:
        snr = params.gamma0 * pathloss(params, link) * geom.n_elements**2
        if not snr <= _MAX_SNR:
            raise ConfigError(f"link {link}: gamma0 eta N^2 = {snr:g} exceeds {_MAX_SNR:g}; "
                              f"see p_dbm, noise_dbm, lambda_{link}_db, chi, d_b_m, d_{link}_m")
    return Point(
        geom=geom,
        params=params,
        err_models=(phase_error_from_string(str(cfg["phase_error_t"])),
                    phase_error_from_string(str(cfg["phase_error_r"]))),
        correlated=bool(cfg["correlated"]),
        mc=McConfig(trials=int(cfg["trials"]), master_seed=int(cfg["master_seed"])))


def analytic_bound(target: Scenario, estimator: str, point: Point) -> RateBound:
    """Evaluate one analytic estimator at a point and its tr(Rbar Rbar)."""
    return rate_bound(target, estimator, point.params, point.geom.n_elements,
                      trace_rbar_sq(point.geom, point.correlated),
                      *(model.epsilon() for model in point.err_models))


def run_sweep(spec: SweepSpec, *, workers: int = 1) -> list[ResultRow]:
    """Evaluate every scenario's estimators at every axis value.

    SweepSpec.points builds and checks every point and evaluates its
    bounds before any sampling; the analytic rows are those bounds.
    Then every mc call of the sweep goes to the engine in one mc_batch,
    in sweep order: the first call on each Gaussian key walks all of that
    key's calls: one walk per layout family and correlation flag.
    analytic_bound and the engine read tr(Rbar Rbar) from the cache of
    trace_rbar_sq.  Rows come back sorted by (axis_value, scenario, estimator).
    """
    points = spec.points()
    rows = [ResultRow(axis_value=value, scenario=scen.name, estimator=est,
                      value=bound.value, branch=bound.branch)
            for value, scen, _, bounds in points for est, bound in bounds.items()]
    mc_points = [(value, scen, point) for value, scen, point, _ in points
                 if "mc" in scen.estimators]
    outs = mc_batch([(point.geom, point.params, point.err_models, point.mc, (scen.target,),
                      point.correlated) for _, scen, point in mc_points], workers=workers)
    rows += [ResultRow(axis_value=value, scenario=scen.name, estimator="mc",
                       value=out[scen.target].mean, half_width=out[scen.target].half_width)
             for (value, scen, _), out in zip(mc_points, outs)]
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


def spec_with_overrides(spec: SweepSpec, *, trials: int | None = None,
                        master_seed: int | None = None) -> SweepSpec:
    """Copy of the spec with trial count or seed forced on every scenario."""
    forced = {key: value for key, value in (("trials", trials),
                                            ("master_seed", master_seed))
              if value is not None}
    return replace(spec, scenarios=tuple(replace(s, overrides={**s.overrides, **forced})
                                         for s in spec.scenarios))
