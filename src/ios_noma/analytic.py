"""Closed-form rate bounds, hardening approximations, and limits.

Every function here is a pure formula evaluation.  Bounds quote the
average composite gain E[H] = N (1 - eps^2) + eps^2 tr(Rbar Rbar) with
eps the mean cosine of the phase error and Rbar the magnitude moment
matrix; hardening approximations replace H by its large-array constant
pi^2 N^2 eps^2 / 16.  Branchy expressions carry a flag naming the link
factor that fired, which the sweep CSV surfaces for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .channel import (ConfigError, Quantized, SystemParams, pathloss,
                      validate_decoding_order)

__all__ = [
    "Scenario",
    "BoundKind",
    "Verdict",
    "RateBound",
    "LinkFactors",
    "link_factors",
    "jensen_rate_t",
    "jensen_rate_r",
    "hardening_rate_t",
    "hardening_rate_r",
    "oma_rates",
    "large_snr_limit",
    "sum_rate_verdict",
    "quantization_gain",
    "quantization_gain_limit",
    "multiuser_bounds",
]

_QUARTER_PI_SQ = math.pi**2 / 16.0


class Scenario(str, Enum):
    NOMA_T = "noma_t"
    NOMA_R = "noma_r"
    OMA_T = "oma_t"
    OMA_R = "oma_r"
    NOMA_TP = "noma_tp"
    NOMA_RP = "noma_rp"


class BoundKind(str, Enum):
    JENSEN_UPPER = "jensen"
    HARDENING_APPROX = "hardening"
    LARGE_SNR_LIMIT = "limit"


class Verdict(str, Enum):
    NOMA = "noma"
    OMA = "oma"
    TIE = "tie"


@dataclass(frozen=True)
class RateBound:
    value: float
    kind: BoundKind
    scenario: Scenario
    branch: str | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("rate bounds are non-negative")


@dataclass(frozen=True)
class LinkFactors:
    """Dimensionless SNR-scale factors of the four links.

    f_t and f_r carry the full mean composite gain of the boosted
    links; f_tp and f_rp use the plain factor N because the primed
    users see uniformly distributed residual phases.
    """

    f_t: float
    f_r: float
    f_tp: float | None = None
    f_rp: float | None = None

    def __post_init__(self):
        for name in ("f_t", "f_r", "f_tp", "f_rp"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be non-negative")


def _mean_gain(n: int, tr_rbar_sq: float, eps: float) -> float:
    return n * (1.0 - eps**2) + eps**2 * tr_rbar_sq


def _check_jensen_inputs(n: int, tr_rbar_sq: float, eps: float):
    if n < 1:
        raise ValueError("element count must be at least 1")
    if not 0.0 <= eps <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if not n * (1.0 - 1e-9) <= tr_rbar_sq <= n * n * (1.0 + 1e-9):
        raise ValueError("tr(Rbar Rbar) must lie in [N, N^2]")


def _capped_rate(q_num_sq: float, interference_sq: float, f: float) -> float:
    if f == 0.0:
        return 0.0
    return math.log2(1.0 + q_num_sq / (interference_sq + 1.0 / f))


def link_factors(params: SystemParams, n: int, tr_rbar_sq: float,
                 eps_t: float, eps_r: float) -> LinkFactors:
    """SNR-scale factors for all configured links."""
    _check_jensen_inputs(n, tr_rbar_sq, eps_t)
    _check_jensen_inputs(n, tr_rbar_sq, eps_r)
    g0 = params.gamma0
    f_t = g0 * pathloss(params, "t") * params.alpha**2 * _mean_gain(n, tr_rbar_sq, eps_t)
    f_r = g0 * pathloss(params, "r") * params.beta**2 * _mean_gain(n, tr_rbar_sq, eps_r)
    if not params.four_user:
        return LinkFactors(f_t=f_t, f_r=f_r)
    f_tp = g0 * pathloss(params, "tp") * params.alpha**2 * n
    f_rp = g0 * pathloss(params, "rp") * params.beta**2 * n
    return LinkFactors(f_t=f_t, f_r=f_r, f_tp=f_tp, f_rp=f_rp)


def jensen_rate_t(params: SystemParams, n: int, tr_rbar_sq: float, eps_t: float) -> RateBound:
    """Upper bound log2(1 + g0 q_t^2 eta_t alpha^2 E[H_t]) on the T rate."""
    _check_jensen_inputs(n, tr_rbar_sq, eps_t)
    snr = params.gamma0 * params.q_t**2 * pathloss(params, "t") * params.alpha**2
    return RateBound(math.log2(1.0 + snr * _mean_gain(n, tr_rbar_sq, eps_t)),
                     BoundKind.JENSEN_UPPER, Scenario.NOMA_T)


def jensen_rate_r(params: SystemParams, factors: LinkFactors) -> RateBound:
    """Upper bound on the R rate, the weaker of the two link branches."""
    branch = "f_t" if factors.f_t < factors.f_r else "f_r"
    f = min(factors.f_t, factors.f_r)
    return RateBound(_capped_rate(params.q_r**2, params.q_t**2, f),
                     BoundKind.JENSEN_UPPER, Scenario.NOMA_R, branch=branch)


def _require_hardening_eps(eps: float):
    if eps <= 0.0:
        raise ValueError("hardening approximation undefined for fully uniform "
                         "phase errors (epsilon = 0)")
    if eps > 1.0:
        raise ValueError("epsilon must lie in (0, 1]")


def hardening_rate_t(params: SystemParams, n: int, eps_t: float) -> RateBound:
    """Large-array approximation log2(1 + pi^2 N^2 g0 eps^2 q_t^2 eta_t alpha^2 / 16)."""
    _require_hardening_eps(eps_t)
    arg = _QUARTER_PI_SQ * n * n * params.gamma0 * eps_t**2 \
        * params.q_t**2 * pathloss(params, "t") * params.alpha**2
    return RateBound(math.log2(1.0 + arg), BoundKind.HARDENING_APPROX, Scenario.NOMA_T)


def hardening_rate_r(params: SystemParams, n: int, eps_t: float, eps_r: float) -> RateBound:
    """Large-array approximation of the R rate; branches on the weaker of
    eps_t^2 eta_t alpha^2 and eps_r^2 eta_r beta^2 (ties take the second)."""
    _require_hardening_eps(eps_t)
    _require_hardening_eps(eps_r)
    scale_t = eps_t**2 * pathloss(params, "t") * params.alpha**2
    scale_r = eps_r**2 * pathloss(params, "r") * params.beta**2
    branch = "f_t" if scale_t < scale_r else "f_r"
    f = _QUARTER_PI_SQ * n * n * params.gamma0 * min(scale_t, scale_r)
    return RateBound(_capped_rate(params.q_r**2, params.q_t**2, f),
                     BoundKind.HARDENING_APPROX, Scenario.NOMA_R, branch=branch)


def oma_rates(params: SystemParams, n: int, tr_rbar_sq: float, eps_t: float,
              eps_r: float, kind: BoundKind) -> tuple[RateBound, RateBound]:
    """Jensen bounds or hardening approximations of the two OMA rates.

    Each user gets a dedicated slot with the full surface amplitude and
    full transmit power, at the cost of the 1/2 pre-log factor.
    """
    g0 = params.gamma0
    eta_t, eta_r = pathloss(params, "t"), pathloss(params, "r")
    if kind is BoundKind.JENSEN_UPPER:
        _check_jensen_inputs(n, tr_rbar_sq, eps_t)
        _check_jensen_inputs(n, tr_rbar_sq, eps_r)
        val_t = 0.5 * math.log2(1.0 + g0 * eta_t * _mean_gain(n, tr_rbar_sq, eps_t))
        val_r = 0.5 * math.log2(1.0 + g0 * eta_r * _mean_gain(n, tr_rbar_sq, eps_r))
    elif kind is BoundKind.HARDENING_APPROX:
        _require_hardening_eps(eps_t)
        _require_hardening_eps(eps_r)
        val_t = 0.5 * math.log2(1.0 + _QUARTER_PI_SQ * n * n * g0 * eps_t**2 * eta_t)
        val_r = 0.5 * math.log2(1.0 + _QUARTER_PI_SQ * n * n * g0 * eps_r**2 * eta_r)
    else:
        raise ValueError("oma_rates supports Jensen and hardening kinds only")
    return (RateBound(val_t, kind, Scenario.OMA_T),
            RateBound(val_r, kind, Scenario.OMA_R))


def large_snr_limit(scenario: Scenario, params: SystemParams) -> RateBound:
    """Transmit-SNR-independent ceiling of the interference-limited rates."""
    if scenario is Scenario.NOMA_R:
        value = math.log2(1.0 + params.q_r**2 / params.q_t**2)
    elif scenario is Scenario.NOMA_TP:
        if not params.four_user:
            raise ConfigError("noma_tp limit requires four-user parameters")
        value = math.log2(1.0 + params.q_tp**2 / (params.q_t**2 + params.q_r**2))
    elif scenario is Scenario.NOMA_RP:
        if not params.four_user:
            raise ConfigError("noma_rp limit requires four-user parameters")
        value = math.log2(1.0 + params.q_rp**2
                          / (params.q_t**2 + params.q_r**2 + params.q_tp**2))
    else:
        raise ConfigError(f"no finite large-SNR limit for scenario {scenario.value}")
    return RateBound(value, BoundKind.LARGE_SNR_LIMIT, scenario)


def sum_rate_verdict(params: SystemParams, eps_t: float, eps_r: float) -> Verdict:
    """Which scheme wins the sum rate in the large transmit-SNR regime.

    NOMA wins iff alpha^4 eps_t^2 eta_t > eps_r^2 eta_r, OMA iff the
    inequality is reversed; exact equality is reported as a tie.
    """
    lhs = params.alpha**4 * eps_t**2 * pathloss(params, "t")
    rhs = eps_r**2 * pathloss(params, "r")
    if lhs > rhs:
        return Verdict.NOMA
    if lhs < rhs:
        return Verdict.OMA
    return Verdict.TIE


def quantization_gain(b: int, params: SystemParams, n: int) -> float:
    """T-rate improvement from adding one phase-quantization bit at b bits."""
    eps_b, eps_b1 = Quantized(b).epsilon(), Quantized(b + 1).epsilon()
    scale = _QUARTER_PI_SQ * n * n * params.gamma0 * params.q_t**2 \
        * pathloss(params, "t") * params.alpha**2
    return math.log2((1.0 + scale * eps_b1**2) / (1.0 + scale * eps_b**2))


def quantization_gain_limit(b: int) -> float:
    """Large-array limit of the per-bit gain, positive and decreasing in b."""
    return 2.0 * math.log2(Quantized(b + 1).epsilon() / Quantized(b).epsilon())


def multiuser_bounds(params: SystemParams, n: int,
                     factors: LinkFactors) -> tuple[RateBound, RateBound]:
    """Upper bounds on the primed users' rates under the fixed decoding
    order (R', T', R, T); ties in the branch conditions take the second
    branch."""
    if not params.four_user:
        raise ConfigError("multiuser_bounds requires four-user parameters")
    if factors.f_tp is None or factors.f_rp is None:
        raise ConfigError("multiuser_bounds requires the primed link factors")
    validate_decoding_order(params)
    interf_tp = params.q_t**2 + params.q_r**2
    branch_tp = "f_tp" if factors.f_tp < factors.f_r else "f_r"
    bound_tp = RateBound(
        _capped_rate(params.q_tp**2, interf_tp, min(factors.f_tp, factors.f_r)),
        BoundKind.JENSEN_UPPER, Scenario.NOMA_TP, branch=branch_tp)
    interf_rp = interf_tp + params.q_tp**2
    branch_rp = "f_tp" if factors.f_tp < factors.f_rp else "f_rp"
    bound_rp = RateBound(
        _capped_rate(params.q_rp**2, interf_rp, min(factors.f_tp, factors.f_rp)),
        BoundKind.JENSEN_UPPER, Scenario.NOMA_RP, branch=branch_rp)
    return bound_tp, bound_rp
