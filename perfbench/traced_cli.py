"""Run the ios-noma command line with its layer boundaries wrapped in spans.

Usage:
    python3 perfbench/traced_cli.py SPANS_JSON MODE -- CLI_ARGS...

MODE is "full" (every layer below) or "engine" (only the engine entry
``mc.mc_estimates``, for timing a multi-worker run without tracing what
the pool workers do).  The wrapped functions are replaced in every
``ios_noma`` module that binds them, because ``mc``, ``experiments``
and ``cli`` import ``correlation_matrix``, ``mc_estimates`` and friends
by name, and ``geometry`` does the same with the elliptic integrals;
patching only the defining module would miss those calls.  Spans stay
in memory and are written once, when the command returns.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import pkgutil
import sys
import time

import numpy as np

# (defining module, function) -> layer.  A layer's self time is the time
# of its spans minus the part covered by their child spans.
LAYERS = {
    ("ios_noma.experiments", "load_spec"): "experiments.load_spec",
    ("ios_noma.experiments", "run_sweep"): "experiments.run_sweep",
    ("ios_noma.experiments", "write_csv"): "experiments.write_csv",
    ("ios_noma.mc", "mc_estimates"): "mc.engine",
    ("ios_noma.mc", "noma_trial_rates"): "mc.rate_chain",
    ("ios_noma.mc", "oma_trial_rates"): "mc.rate_chain",
    ("ios_noma.mc", "four_user_trial_rates"): "mc.rate_chain",
    ("ios_noma.channel", "standard_complex_gaussian"): "channel.gauss",
    ("ios_noma.channel", "correlation_factor"): "channel.factor",
    ("ios_noma.geometry", "correlation_matrix"): "geometry.corr",
    ("ios_noma.geometry", "magnitude_moment_matrix"): "geometry.moment",
    ("ios_noma.geometry", "trace_rbar_sq"): "geometry.moment",
    ("ios_noma.specfun", "elliptic_k"): "specfun.elliptic",
    ("ios_noma.specfun", "elliptic_e"): "specfun.elliptic",
    ("ios_noma.analytic", "link_factors"): "analytic.bound",
    ("ios_noma.analytic", "jensen_rate_t"): "analytic.bound",
    ("ios_noma.analytic", "jensen_rate_r"): "analytic.bound",
    ("ios_noma.analytic", "hardening_rate_t"): "analytic.bound",
    ("ios_noma.analytic", "hardening_rate_r"): "analytic.bound",
    ("ios_noma.analytic", "large_snr_limit"): "analytic.bound",
    ("ios_noma.analytic", "oma_rates"): "analytic.bound",
    ("ios_noma.analytic", "multiuser_bounds"): "analytic.bound",
}

# Phase-error models are patched on the class, which every caller shares.
PHASE_CLASSES = {"Perfect": "perfect", "VonMises": "vonmises",
                 "Quantized": "quantized", "UniformFull": "uniform"}


class Tracer:
    """Span store: (id, parent id, layer, start, end, attributes)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = []

    def wrap(self, func, layer, attrs_of=None):
        sig = inspect.signature(func) if attrs_of else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                attrs = None
                if attrs_of is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = attrs_of(bound.arguments, result)
                self.spans[span_id] = (span_id, parent, layer, start, end, attrs)

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


def _size(shape):
    return math.prod(shape) if isinstance(shape, tuple) else int(shape)


def _engine_attrs(a, _result):
    cfg = a["cfg"]
    magnitude_key = repr((a["geom"], a["correlated"], cfg.master_seed, cfg.trials))
    draw_key = repr((a["geom"], a["correlated"], tuple(a["err_models"]),
                     cfg.master_seed, cfg.trials))
    return {"draw_key": draw_key, "magnitude_key": magnitude_key}


def _gauss_attrs(a, result):
    return {"n": _size(a["size"]), "bytes": int(getattr(result, "nbytes", 0))}


def _phase_attrs(a, _result):
    return {"n": _size(a["size"])}


def _factor_attrs(a, _result):
    corr = np.ascontiguousarray(a["corr"], dtype=float)
    return {"key": hashlib.blake2b(corr.tobytes(), digest_size=16).hexdigest()}


def _corr_attrs(a, _result):
    return {"key": repr(a["geom"])}


def _moment_attrs(a, _result):
    return {"entries": int(np.size(a["corr"]))}


def _elliptic_attrs(a, _result):
    return {"n": int(np.size(a["m"]))}


def _sweep_attrs(a, _result):
    spec = a["spec"]
    return {"points": len(spec.values) * len(spec.scenarios)}


ATTRS = {
    ("ios_noma.mc", "mc_estimates"): _engine_attrs,
    ("ios_noma.channel", "standard_complex_gaussian"): _gauss_attrs,
    ("ios_noma.channel", "correlation_factor"): _factor_attrs,
    ("ios_noma.geometry", "correlation_matrix"): _corr_attrs,
    ("ios_noma.geometry", "magnitude_moment_matrix"): _moment_attrs,
    ("ios_noma.specfun", "elliptic_k"): _elliptic_attrs,
    ("ios_noma.specfun", "elliptic_e"): _elliptic_attrs,
    ("ios_noma.experiments", "run_sweep"): _sweep_attrs,
}


def install(tracer: Tracer, mode: str) -> None:
    """Replace each traced function in every ios_noma module binding it."""
    import ios_noma
    modules = [ios_noma] + [importlib.import_module(f"ios_noma.{info.name}")
                            for info in pkgutil.iter_modules(ios_noma.__path__)]
    table = LAYERS if mode == "full" else {("ios_noma.mc", "mc_estimates"): "mc.engine"}
    replacements = {}
    for (mod_name, name), layer in table.items():
        original = getattr(sys.modules[mod_name], name, None)
        if original is None:
            tracer.missing.append(f"{mod_name}.{name}")
            continue
        replacements[id(original)] = (original, tracer.wrap(
            original, layer, ATTRS.get((mod_name, name))))
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    if mode != "full":
        return
    channel = sys.modules["ios_noma.channel"]
    for cls_name, model in PHASE_CLASSES.items():
        cls = getattr(channel, cls_name, None)
        if cls is None or "sample" not in vars(cls):
            tracer.missing.append(f"ios_noma.channel.{cls_name}.sample")
            continue
        cls.sample = tracer.wrap(cls.sample, f"channel.phase.{model}", _phase_attrs)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[1] not in ("full", "engine"):
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, mode, cli_args = argv[0], argv[1], argv[3:]
    import ios_noma.cli
    tracer = Tracer()
    install(tracer, mode)
    try:
        return ios_noma.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
