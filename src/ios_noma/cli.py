"""Command-line entry point.

Subcommands: run a sweep spec to CSV, list or validate bundled specs,
and query the closed-form bounds for a single configuration.  Exit
codes: 0 on success, 2 on configuration or usage errors, 3 on numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analytic import ESTIMATORS, Scenario
from .channel import ConfigError
from .experiments import (DEFAULTS, analytic_bound, build_point,
                          bundled_spec_names, load_spec, run_sweep,
                          spec_with_overrides, write_csv)
from .geometry import trace_rbar_sq

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_BOUND_FLAGS = {
    # flag -> spec key, the flag's dest
    "n_h": "n_h", "n_v": "n_v",
    "wavelength": "wavelength_m",
    "element_len": "element_len_m", "element_width": "element_width_m",
    "d_b": "d_b_m", "d_t": "d_t_m", "d_r": "d_r_m",
    "d_tp": "d_tp_m", "d_rp": "d_rp_m",
    "chi": "chi", "alpha": "alpha", "beta": "beta",
    "qt": "q_t", "qr": "q_r", "qtp": "q_tp", "qrp": "q_rp",
    "lambda_t_db": "lambda_t_db", "lambda_r_db": "lambda_r_db",
    "lambda_tp_db": "lambda_tp_db", "lambda_rp_db": "lambda_rp_db",
    "p_dbm": "p_dbm", "noise_dbm": "noise_dbm",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ios-noma",
        description="Monte Carlo sweeps and closed-form rate bounds for an "
                    "omni-surface assisted NOMA/OMA downlink")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep spec and write a CSV")
    p_run.add_argument("--spec", required=True,
                       help="bundled spec name or path to an INI file")
    p_run.add_argument("--out", required=True, help="output CSV path")
    p_run.add_argument("--seed", type=int, default=None, help="master seed override")
    p_run.add_argument("--trials", type=int, default=None, help="trial count override")
    p_run.add_argument("--workers", type=int, default=1, help="worker processes")

    sub.add_parser("list-specs", help="list bundled sweep specs")

    p_val = sub.add_parser("validate", help="parse and check a sweep spec")
    p_val.add_argument("--spec", required=True)

    p_bound = sub.add_parser("bound", help="closed-form bounds for one setup")
    p_bound.add_argument("--scenario", required=True,
                         choices=[s.value for s in Scenario])
    for flag, key in _BOUND_FLAGS.items():
        arg_type = float if DEFAULTS[key] is None else type(DEFAULTS[key])
        p_bound.add_argument(f"--{flag.replace('_', '-')}", dest=key,
                             type=arg_type, default=None)
    p_bound.add_argument("--phase-error-t", default=None,
                         help="perfect | uniform | vonmises:K | quantized:B")
    p_bound.add_argument("--phase-error-r", default=None)
    p_bound.add_argument("--uncorrelated", dest="correlated", action="store_false",
                         help="use the identity correlation matrix")
    p_bound.add_argument("--inf-snr", action="store_true",
                         help="print only the large-SNR limit")
    p_bound.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _cmd_run(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    spec = load_spec(args.spec)
    spec = spec_with_overrides(spec, trials=args.trials, master_seed=args.seed)
    if Path(args.out).is_dir() or not Path(args.out).parent.is_dir():
        raise ConfigError(f"--out {args.out}: not a file in an existing directory")
    rows = run_sweep(spec, workers=args.workers)
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_list_specs() -> int:
    for name in bundled_spec_names():
        print(name)
    return EXIT_OK


def _cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    spec.points()  # builds every (axis value, scenario) point
    print(f"ok: axis={spec.axis} values={len(spec.values)} "
          f"scenarios={len(spec.scenarios)}")
    return EXIT_OK


def _cmd_bound(args) -> int:
    scenario = Scenario(args.scenario)
    point = build_point({**DEFAULTS, **{key: value for key, value in vars(args).items()
                                        if key in DEFAULTS and value is not None}})
    tr = trace_rbar_sq(point.geom, point.correlated)
    geom, params = point.geom, point.params

    estimators = ("limit",) if args.inf_snr else ESTIMATORS
    bounds = {}
    notes = {}
    for est in estimators:
        try:
            bounds[est] = analytic_bound(scenario, est, point, tr)
        except (ConfigError, ValueError) as exc:
            if args.inf_snr or est == "jensen":
                raise  # limit explicitly requested, or the core bound failed
            notes[est] = str(exc)

    if args.as_json:
        payload = {
            "scenario": scenario.value,
            "n_elements": geom.n_elements,
            "gamma0_db": 10.0 * np.log10(params.gamma0) if params.gamma0 > 0 else None,
            "bounds": {est: {"value": b.value, "branch": b.branch}
                       for est, b in bounds.items()},
            "skipped": notes,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    if args.inf_snr:
        print(f"{bounds['limit'].value:.4f} bits/s/Hz")
        return EXIT_OK
    print(f"scenario {scenario.value}  (N={geom.n_elements}, "
          f"gamma0={10.0 * np.log10(params.gamma0):.1f} dB)")
    for est in ESTIMATORS:
        if est in bounds:
            b = bounds[est]
            branch = f"  [branch {b.branch}]" if b.branch else ""
            print(f"{est:10s} {b.value:.4f} bits/s/Hz{branch}")
        elif est in notes:
            print(f"{est:10s} n/a ({notes[est]})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-specs":
            return _cmd_list_specs()
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_bound(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
