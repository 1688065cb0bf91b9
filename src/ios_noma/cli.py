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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


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

    p_bound = sub.add_parser(
        "bound", help="closed-form bounds for one setup",
        description="Every spec key except correlated, trials and master_seed is a "
                    "flag, named without its _m unit, with q_ as q and _ as -: --d-b, "
                    "--qt, --phase-error-t (perfect | uniform | vonmises:K | quantized:B).")
    p_bound.add_argument("--scenario", required=True,
                         choices=[s.value for s in Scenario])
    for key, default in DEFAULTS.items():
        if key not in ("correlated", "trials", "master_seed"):
            flag = key.removesuffix("_m").replace("q_", "q").replace("_", "-")
            p_bound.add_argument(f"--{flag}", dest=key, default=None,
                                 type=float if default is None else type(default))
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
    spec.points()  # builds every (axis value, scenario) point and its bounds
    print(f"ok: axis={spec.axis} values={len(spec.values)} "
          f"scenarios={len(spec.scenarios)}")
    return EXIT_OK


def _cmd_bound(args) -> int:
    scenario = Scenario(args.scenario)
    point = build_point({**DEFAULTS, **{key: value for key, value in vars(args).items()
                                        if key in DEFAULTS and value is not None}})
    geom, params = point.geom, point.params
    gamma0_db = 10.0 * np.log10(params.gamma0) if params.gamma0 > 0 else -np.inf

    estimators = ("limit",) if args.inf_snr else ESTIMATORS
    bounds = {}
    notes = {}
    for est in estimators:
        try:
            bounds[est] = analytic_bound(scenario, est, point)
        except ValueError as exc:
            if args.inf_snr or est == "jensen":
                raise  # limit explicitly requested, or the core bound failed
            notes[est] = str(exc)

    if args.as_json:
        payload = {
            "scenario": scenario.value,
            "n_elements": geom.n_elements,
            "gamma0_db": None if gamma0_db == -np.inf else gamma0_db,
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
          f"gamma0={gamma0_db:.1f} dB)")
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
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
