"""The rate chain, and the closed-form bounds, approximations and limits.

link_gain, sic_rates and oma_slot_rates write each achievable rate once.
The Monte Carlo engine evaluates them at the sampled composite gains H;
every closed form here evaluates them at a fixed gain: Jensen bounds at
E[H] = N (1 - eps^2) + eps^2 tr(Rbar Rbar), with eps the mean cosine of
the phase error and Rbar the magnitude moment matrix, hardening
approximations at pi^2 N^2 eps^2 / 16, and the primed users at N.
Branchy bounds carry a flag naming the link factor that fired, which the
sweep CSV surfaces for diagnostics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ConfigError, Quantized, SystemParams, pathloss

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


# ---------------------------------------------------------------------------
# the rate chain (vectorized over trials; also accepts scalars)


def link_gain(params: SystemParams, link: str, h):
    """SNR-scale gain g0 eta_link a^2 h of a composite gain h; the surface
    amplitude a is alpha on the transmit side (t, tp), beta on the reflect
    side (r, rp)."""
    amp = params.alpha if link in ("t", "tp") else params.beta
    return params.gamma0 * pathloss(params, link) * amp**2 * h


def sic_rates(params: SystemParams, *gains):
    """Rates of the users T, R, T', R' under the decoding order (R', T', R, T).

    gains are the link gains of a prefix of that user list: T alone, the
    pair (T, R) or all four.  A message's rate is the minimum over its
    own user and every user decoded after it, with the power of the
    messages not yet decoded as interference, so a user's rate depends
    only on the gains up to its own.
    """
    names = ("q_t", "q_r", "q_tp", "q_rp")[:len(gains)]
    q_sq = [getattr(params, name) ** 2 for name in names]
    rates = []
    for k, q_k in enumerate(q_sq):
        interference = sum(reversed(q_sq[:k]))
        rates.append(functools.reduce(np.minimum, [
            np.log2(1.0 + f * q_k / (f * interference + 1.0)) for f in gains[:k + 1]]))
    return tuple(rates)


def oma_slot_rates(params: SystemParams, h_t, h_r):
    """OMA rates (T, R) at composite gains h_t, h_r.

    Each user gets a dedicated slot with the full surface amplitude and
    full transmit power, at the cost of the 1/2 pre-log factor.
    """
    return tuple(0.5 * np.log2(1.0 + params.gamma0 * pathloss(params, link) * h)
                 for link, h in (("t", h_t), ("r", h_r)))


# ---------------------------------------------------------------------------
# closed forms: the chain at a fixed gain


def _mean_gain(n: int, tr_rbar_sq: float, eps: float) -> float:
    """E[H] = N (1 - eps^2) + eps^2 tr(Rbar Rbar), the gain of the Jensen bounds."""
    if n < 1:
        raise ValueError("element count must be at least 1")
    if not 0.0 <= eps <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if not n * (1.0 - 1e-9) <= tr_rbar_sq <= n * n * (1.0 + 1e-9):
        raise ValueError("tr(Rbar Rbar) must lie in [N, N^2]")
    return n * (1.0 - eps**2) + eps**2 * tr_rbar_sq


def _hardening_gain(n: int, eps: float) -> float:
    """pi^2 N^2 eps^2 / 16, the gain of the hardening approximations."""
    if eps <= 0.0:
        raise ValueError("hardening approximation undefined for fully uniform "
                         "phase errors (epsilon = 0)")
    if eps > 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    return _QUARTER_PI_SQ * n * n * eps**2


def _rate_r(params: SystemParams, f_t: float, f_r: float) -> RateBound:
    """The R rate, labelled with the weaker link (ties take f_r)."""
    return RateBound(float(sic_rates(params, f_t, f_r)[1]),
                     "f_t" if f_t < f_r else "f_r")


def link_factors(params: SystemParams, n: int, tr_rbar_sq: float,
                 eps_t: float, eps_r: float) -> LinkFactors:
    """SNR-scale factors for all configured links."""
    f_t = link_gain(params, "t", _mean_gain(n, tr_rbar_sq, eps_t))
    f_r = link_gain(params, "r", _mean_gain(n, tr_rbar_sq, eps_r))
    if not params.four_user:
        return LinkFactors(f_t=f_t, f_r=f_r)
    return LinkFactors(f_t=f_t, f_r=f_r, f_tp=link_gain(params, "tp", n),
                       f_rp=link_gain(params, "rp", n))


def jensen_rate_t(params: SystemParams, n: int, tr_rbar_sq: float, eps_t: float) -> RateBound:
    """Upper bound log2(1 + g0 q_t^2 eta_t alpha^2 E[H_t]) on the T rate."""
    f_t = link_gain(params, "t", _mean_gain(n, tr_rbar_sq, eps_t))
    return RateBound(float(sic_rates(params, f_t)[0]))


def jensen_rate_r(params: SystemParams, factors: LinkFactors) -> RateBound:
    """Upper bound on the R rate, the weaker of the two link branches."""
    return _rate_r(params, factors.f_t, factors.f_r)


def hardening_rate_t(params: SystemParams, n: int, eps_t: float) -> RateBound:
    """Large-array approximation log2(1 + pi^2 N^2 g0 eps^2 q_t^2 eta_t alpha^2 / 16)."""
    f_t = link_gain(params, "t", _hardening_gain(n, eps_t))
    return RateBound(float(sic_rates(params, f_t)[0]))


def hardening_rate_r(params: SystemParams, n: int, eps_t: float, eps_r: float) -> RateBound:
    """Large-array approximation of the R rate, the weaker of the two link
    branches."""
    return _rate_r(params, link_gain(params, "t", _hardening_gain(n, eps_t)),
                   link_gain(params, "r", _hardening_gain(n, eps_r)))


def oma_rates(params: SystemParams, n: int, tr_rbar_sq: float, eps_t: float,
              eps_r: float, kind: BoundKind) -> tuple[RateBound, RateBound]:
    """Jensen bounds or hardening approximations of the two OMA rates."""
    if kind is BoundKind.JENSEN_UPPER:
        h_t, h_r = _mean_gain(n, tr_rbar_sq, eps_t), _mean_gain(n, tr_rbar_sq, eps_r)
    elif kind is BoundKind.HARDENING_APPROX:
        h_t, h_r = _hardening_gain(n, eps_t), _hardening_gain(n, eps_r)
    else:
        raise ValueError("oma_rates supports Jensen and hardening kinds only")
    rate_t, rate_r = oma_slot_rates(params, h_t, h_r)
    return RateBound(float(rate_t)), RateBound(float(rate_r))


def large_snr_limit(scenario: Scenario, params: SystemParams) -> RateBound:
    """Transmit-SNR-independent ceiling of the interference-limited rates."""
    if scenario in (Scenario.NOMA_TP, Scenario.NOMA_RP) and not params.four_user:
        raise ConfigError(f"{scenario.value} limit requires four-user parameters")
    if scenario is Scenario.NOMA_R:
        value = math.log2(1.0 + params.q_r**2 / params.q_t**2)
    elif scenario is Scenario.NOMA_TP:
        value = math.log2(1.0 + params.q_tp**2 / (params.q_t**2 + params.q_r**2))
    elif scenario is Scenario.NOMA_RP:
        value = math.log2(1.0 + params.q_rp**2
                          / (params.q_t**2 + params.q_r**2 + params.q_tp**2))
    else:
        raise ConfigError(f"no finite large-SNR limit for scenario {scenario.value}")
    return RateBound(value)


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
    return hardening_rate_t(params, n, eps_b1).value - hardening_rate_t(params, n, eps_b).value


def quantization_gain_limit(b: int) -> float:
    """Large-array limit of the per-bit gain, positive and decreasing in b."""
    return 2.0 * math.log2(Quantized(b + 1).epsilon() / Quantized(b).epsilon())


def multiuser_bounds(params: SystemParams, n: int,
                     factors: LinkFactors) -> tuple[RateBound, RateBound]:
    """Upper bounds on the primed users' rates: the four-user chain at the
    link factors.  Under the ordering eta_rp < eta_tp < eta_r < eta_t,
    which SystemParams enforces, and E[H] >= N, f_t >= f_tp and f_r >=
    f_rp, so the branch names the weaker of the two decoders that can
    bind; ties take the second."""
    if not params.four_user:
        raise ConfigError("multiuser_bounds requires four-user parameters")
    if factors.f_tp is None or factors.f_rp is None:
        raise ConfigError("multiuser_bounds requires the primed link factors")
    f = factors
    _, _, rate_tp, rate_rp = sic_rates(params, f.f_t, f.f_r, f.f_tp, f.f_rp)
    return (RateBound(float(rate_tp), "f_tp" if f.f_tp < f.f_r else "f_r"),
            RateBound(float(rate_rp), "f_tp" if f.f_tp < f.f_rp else "f_rp"))
