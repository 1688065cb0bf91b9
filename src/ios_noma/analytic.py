"""The rate chain, and the closed-form bounds, approximations and limits.

link_gain, sic_rates and oma_slot_rates write each achievable rate once.
The Monte Carlo engine evaluates them at the sampled composite gains H.
rate_bound(target, estimator, ...) is the one entry to the closed forms,
which evaluate the same chain at a fixed gain per link: "jensen" upper
bounds at E[H] = N (1 - eps^2) + eps^2 tr(Rbar Rbar), with eps the mean
cosine of the phase error and Rbar the magnitude moment matrix,
"hardening" approximations at pi^2 N^2 eps^2 / 16, and the primed users
at N under both.  N is the mean primed gain E[H'] only for i.i.d.
elements: on a correlated layout E[H'] exceeds N, so the primed "jensen"
values are not guaranteed upper bounds there.  "limit" is the large-SNR
ceiling of the interference-limited users.  Branchy bounds carry a flag
naming the link gain that fired, which the sweep CSV surfaces for
diagnostics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import _LINKS, ConfigError, SystemParams, pathloss

_QUARTER_PI_SQ = math.pi**2 / 16.0
# rates are log1p(x) / ln 2: log2(1 + x) would round 1 + x and lose
# every bit of a rate below 1e-16
_LN2 = math.log(2.0)


class Scenario(str, Enum):
    NOMA_T = "noma_t"
    NOMA_R = "noma_r"
    OMA_T = "oma_t"
    OMA_R = "oma_r"
    NOMA_TP = "noma_tp"
    NOMA_RP = "noma_rp"


@dataclass(frozen=True)
class RateBound:
    value: float
    branch: str | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("rate bounds are non-negative")


# ---------------------------------------------------------------------------
# the rate chain (vectorized over trials; also accepts scalars)


def link_gain(params: SystemParams, link: str, h):
    """SNR-scale gain g0 eta_link a^2 h of a composite gain h; the surface
    amplitude a is alpha on the transmit side (t, tp), beta on the reflect
    side (r, rp)."""
    amp = params.alpha if link in ("t", "tp") else params.beta
    return params.gamma0 * pathloss(params, link) * amp**2 * h


def _shares(params: SystemParams, users: int):
    """(q_k^2, sum_{j<k} q_j^2) of the first users of T, R, T', R': each
    user's power share and that of the messages not yet decoded when
    its own is."""
    names = ("q_t", "q_r", "q_tp", "q_rp")[:users]
    q_sq = [getattr(params, name) ** 2 for name in names]
    return [(q_k, sum(reversed(q_sq[:k]))) for k, q_k in enumerate(q_sq)]


def sic_rates(params: SystemParams, *gains):
    """Rates of the users T, R, T', R' under the decoding order (R', T', R, T).

    gains are the link gains of a prefix of that user list: T alone, the
    pair (T, R) or all four.  A message's rate is the minimum over its
    own user and every user decoded after it, with the power of the
    messages not yet decoded as interference, so a user's rate depends
    only on the gains up to its own.
    """
    rates = []
    for k, (q_k, interference) in enumerate(_shares(params, len(gains))):
        rates.append(functools.reduce(np.minimum, [
            np.log1p(f * q_k / (f * interference + 1.0)) / _LN2 for f in gains[:k + 1]]))
    return tuple(rates)


def oma_slot_rates(params: SystemParams, h_t, h_r):
    """OMA rates (T, R) at composite gains h_t, h_r.

    Each user gets a dedicated slot with the full surface amplitude and
    full transmit power, at the cost of the 1/2 pre-log factor.  The
    slots do not interact: a user whose gain is None gets None.
    """
    rates = []
    for scen, h in ((Scenario.OMA_T, h_t), (Scenario.OMA_R, h_r)):
        kappa, share = _single_log(params, scen)
        rates.append(None if h is None else share * np.log1p(kappa * h) / _LN2)
    return tuple(rates)


# The rates that are one log of the gain of the one link they read (_READS)
_SINGLE_LOG = (Scenario.NOMA_T, Scenario.OMA_T, Scenario.OMA_R)


def _single_log(params: SystemParams, scen: Scenario):
    """(kappa, share) of a rate that is one log of one link's composite
    gain H, share log1p(kappa H) / ln 2: the rates of _SINGLE_LOG.  T's
    NOMA message is decoded last, with no interference, so kappa is its
    power share times its link gain per unit H (sic_rates); an OMA slot
    has the full amplitude and power at the 1/2 pre-log (oma_slot_rates)."""
    if scen is Scenario.NOMA_T:
        ((q_sq, _),) = _shares(params, 1)
        return link_gain(params, "t", q_sq), 1.0
    return params.gamma0 * pathloss(params, *_READS[scen]), 0.5


# ---------------------------------------------------------------------------
# closed forms: the chain at a fixed gain

ESTIMATORS = ("jensen", "hardening", "limit")

_NOMA_USERS = (Scenario.NOMA_T, Scenario.NOMA_R, Scenario.NOMA_TP, Scenario.NOMA_RP)
# The links each rate reads: a NOMA message reads its own user's link and
# those of every user decoded after it, an OMA user only its own slot's.
# A primed user's rate, and only that, reads "tp".
_READS = {**{user: _LINKS[:k + 1] for k, user in enumerate(_NOMA_USERS)},
          Scenario.OMA_T: ("t",), Scenario.OMA_R: ("r",)}
# the two links whose weaker one names a NOMA bound's branch
_BRANCHES = {Scenario.NOMA_R: (0, 1), Scenario.NOMA_TP: (2, 1), Scenario.NOMA_RP: (2, 3)}


def _check_users(target: Scenario, params: SystemParams) -> None:
    """Raise ConfigError if target's rate reads a primed link (_READS)
    without four-user parameters: the bounds, engine and sweep ask this."""
    if "tp" in _READS[target] and not params.four_user:
        raise ConfigError(f"{target.value} requires four-user parameters")


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


def _chain_bound(target: Scenario, params: SystemParams, gains) -> RateBound:
    """The NOMA rate of target at link gains of the users (T, R, T', R'),
    given up to at least the target's own.  R, T' and R' are labelled with
    the weaker of the two links that can bind: (f_t, f_r), (f_tp, f_r)
    and (f_tp, f_rp).  Under the ordering SystemParams enforces and
    E[H] >= N, f_t >= f_tp and f_r >= f_rp, so the other links never do."""
    k = _NOMA_USERS.index(target)
    value = float(sic_rates(params, *gains)[k])
    if target not in _BRANCHES:
        return RateBound(value)
    a, b = _BRANCHES[target]
    return RateBound(value, f"f_{_LINKS[a] if gains[a] < gains[b] else _LINKS[b]}")


def rate_bound(target: Scenario, estimator: str, params: SystemParams, n: int,
               tr_rbar_sq: float, eps_t: float, eps_r: float) -> RateBound:
    """One closed form of the target rate: the chain at a fixed gain.

    "jensen" is the upper bound at the mean gains E[H_t], E[H_r], and
    "hardening" the large-array approximation at pi^2 N^2 eps^2 / 16; the
    primed links take N under both.  Only the gains of the links the
    target reads (_READS) are computed, so the eps of a side it does not
    read is never checked.  "limit" is large_snr_limit.  Raises
    ConfigError for an undefined (target, estimator) pair and ValueError
    for a gain out of its domain, such as hardening at eps = 0.
    """
    if estimator == "limit":
        return large_snr_limit(target, params)
    primed = "tp" in _READS[target]
    if estimator not in ("jensen", "hardening") or (primed and estimator == "hardening"):
        raise ConfigError(f"estimator {estimator!r} is undefined for {target.value}")
    _check_users(target, params)
    if estimator == "jensen":
        gain = functools.partial(_mean_gain, n, tr_rbar_sq)
    else:
        gain = functools.partial(_hardening_gain, n)
    eps = {"t": eps_t, "r": eps_r}
    h = {link: gain(eps[link]) if link in eps else n for link in _READS[target]}
    if target in (Scenario.OMA_T, Scenario.OMA_R):
        rates = oma_slot_rates(params, h.get("t"), h.get("r"))
        return RateBound(float(rates[target is Scenario.OMA_R]))
    return _chain_bound(target, params, [link_gain(params, link, g) for link, g in h.items()])


def large_snr_limit(scenario: Scenario, params: SystemParams) -> RateBound:
    """Transmit-SNR-independent ceiling of the interference-limited rates:
    sic_rates at infinite gain, log2(1 + q_k^2 / sum_{j<k} q_j^2), and 0
    for a user of no power share.  Where the users decoded after the
    target share no power (R at q_t = 0, T' at q_t = q_r = 0), its rate
    grows with the SNR, and there is no limit, as for T and OMA."""
    _check_users(scenario, params)
    if scenario not in _NOMA_USERS[1:]:
        raise ConfigError(f"no finite large-SNR limit for scenario {scenario.value}")
    k = _NOMA_USERS.index(scenario)
    q_k, interference = _shares(params, k + 1)[k]
    if q_k and not interference:
        raise ConfigError(f"no finite large-SNR limit for scenario {scenario.value}: "
                          "the users decoded after it have no power share")
    return RateBound(math.log1p(q_k / interference) / _LN2 if q_k else 0.0)
