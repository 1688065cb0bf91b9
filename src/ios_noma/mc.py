"""Monte Carlo engine for the average achievable rates.

Trials are processed in fixed-size blocks.  Every (random stream, block
index) pair gets its own generator seeded from the master seed, so the
draws do not depend on how blocks are distributed over workers and the
estimates are bit-identical for any worker count.  The five base
streams separate the shared fading vector h, the per-side vectors g and
r, and the two phase-error vectors; four-user parameters add streams
for the primed users' fading vectors g' and r'.

Per trial the composite gains are

    H_t = |sum_n |g_n| |h_n| exp(j phi_n_t)|^2   (reflect side with r)

and the rates are the rate chain of the analytic module (link_gain,
sic_rates, oma_slot_rates) at those gains, the same expressions the
closed-form bounds evaluate at a fixed gain.

The gains depend only on the draw key: geometry, correlation, the two
phase-error models, master seed, trial count, and params.four_user
(four-user parameters add the primed gains, whatever scenarios are
asked for).  The link budget, the confidence level and the scenarios
enter only through the rates.  So the engine keeps the gains of the
last draw key it sampled, one read-only float64 array of shape (2 or 4,
trials), and a call on the same key draws nothing: it only runs the
rate chain block by block on the stored gains.  Hits and misses give
bit-identical estimates.  A call on another key replaces the memo, and
forget_draws() drops it.  SystemParams rejects four-user parameters
that break the pathloss ordering behind the (R', T', R, T) decoding
order, so the engine checks none.

The memo makes engine memory grow with the trial count: 16 bytes per
trial (32 with four-user parameters), 1.6 MB at the default 100k trials
but 160 MB at 10 million, and it stays allocated after the call returns
until the next miss or forget_draws().
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .analytic import Scenario, link_gain, oma_slot_rates, sic_rates
from .channel import SystemParams, correlation_factor, standard_complex_gaussian
from .geometry import ArrayGeometry, correlation_matrix

__all__ = [
    "BLOCK_SIZE",
    "McConfig",
    "McEstimate",
    "noma_trial_rates",
    "oma_trial_rates",
    "four_user_trial_rates",
    "mc_estimates",
]

# Fixed trial block; part of the reproducibility contract, do not derive
# from worker count or available memory.
BLOCK_SIZE = 16384

_STREAM_H = 0
_STREAM_G = 1
_STREAM_R = 2
_STREAM_PHI_T = 3
_STREAM_PHI_R = 4
_STREAM_GP = 5
_STREAM_RP = 6


@dataclass(frozen=True)
class McConfig:
    """Trial count, master seed, and confidence level of one estimation."""

    trials: int = 100_000
    master_seed: int = 20157
    confidence: float = 0.95

    def __post_init__(self):
        if self.trials < 100:
            raise ValueError("trials must be at least 100")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with a normal-approximation confidence half-width."""

    mean: float
    half_width: float
    trials: int

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be non-negative")


def _boosted_gain(mag_a: np.ndarray, mag_h: np.ndarray, phases: np.ndarray) -> np.ndarray:
    # in place: bit-identical to mag_a * mag_h * exp(1j * phases), one
    # complex (n, count) temporary fewer
    terms = np.multiply(1j, phases)
    np.exp(terms, out=terms)
    terms *= mag_a * mag_h
    return np.abs(np.sum(terms, axis=0)) ** 2


# ---------------------------------------------------------------------------
# per-trial rates: the analytic rate chain at the sampled composite gains


def noma_trial_rates(params: SystemParams, h_t, h_r):
    """(rate_T, rate_R) from composite gains under superposition coding."""
    return sic_rates(params, link_gain(params, "t", h_t), link_gain(params, "r", h_r))


def oma_trial_rates(params: SystemParams, h_t, h_r):
    """(rate_T, rate_R) under per-user time slots with full amplitudes."""
    return oma_slot_rates(params, h_t, h_r)


def four_user_trial_rates(params: SystemParams, h_t, h_r, h_tp, h_rp):
    """(rate_T, rate_R, rate_Tp, rate_Rp) under the (R', T', R, T) order."""
    return sic_rates(params, *(link_gain(params, link, h) for link, h in
                               (("t", h_t), ("r", h_r), ("tp", h_tp), ("rp", h_rp))))


# ---------------------------------------------------------------------------
# block evaluation

_PAIR = (Scenario.NOMA_T, Scenario.NOMA_R)
_PRIMED = (Scenario.NOMA_TP, Scenario.NOMA_RP)
_OMA = (Scenario.OMA_T, Scenario.OMA_R)


def _block_gains(factor, n, err_t, err_r, master_seed, block, count, primed):
    """Composite gains of one block: rows (H_t, H_r), plus (H_t', H_r')
    when primed.

    H_t and H_r come from the boost set (h, g, r and the two phase
    errors).  The primed composites reuse that set: the leftover phase
    at element n is arg(g'_n) - arg(g_n) + phi_n_t (resp. with r),
    uniform per element but tied to the actual draws.  Only that case
    keeps g and r complex, because it needs their angles.
    """
    def rng(stream):
        seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, block))
        return np.random.Generator(np.random.PCG64(seq))

    def colored(stream):
        z = standard_complex_gaussian((n, count), rng(stream))
        return z if factor is None else factor @ z

    mag_h = np.abs(colored(_STREAM_H))
    if primed:
        vec_g, vec_r = colored(_STREAM_G), colored(_STREAM_R)
        vec_gp, vec_rp = colored(_STREAM_GP), colored(_STREAM_RP)
        mag_g, mag_r = np.abs(vec_g), np.abs(vec_r)
    else:
        mag_g, mag_r = np.abs(colored(_STREAM_G)), np.abs(colored(_STREAM_R))
    phi_t = err_t.sample((n, count), rng(_STREAM_PHI_T))
    phi_r = err_r.sample((n, count), rng(_STREAM_PHI_R))
    gains = [_boosted_gain(mag_g, mag_h, phi_t), _boosted_gain(mag_r, mag_h, phi_r)]
    if primed:
        gains.append(_boosted_gain(np.abs(vec_gp), mag_h,
                                   np.angle(vec_gp) - np.angle(vec_g) + phi_t))
        gains.append(_boosted_gain(np.abs(vec_rp), mag_h,
                                   np.angle(vec_rp) - np.angle(vec_r) + phi_r))
    return np.stack(gains)


def _rates_at(scenarios, params, gains):
    """Per-trial rates at one block's gains, {scenario: rates} in the order
    asked.  A NOMA scenario under four-user parameters runs the four-user
    chain; only the chains asked for run."""
    rates = {}
    if not set(scenarios) <= set(_OMA):
        if params.four_user:
            rates.update(zip(_PAIR + _PRIMED, four_user_trial_rates(params, *gains)))
        else:
            rates.update(zip(_PAIR, noma_trial_rates(params, *gains)))
    if not set(scenarios).isdisjoint(_OMA):
        rates.update(zip(_OMA, oma_trial_rates(params, gains[0], gains[1])))
    return {scen: rates[scen] for scen in scenarios}


def _blocks(trials: int):
    full, rest = divmod(trials, BLOCK_SIZE)
    for block in range(full):
        yield block, BLOCK_SIZE
    if rest:
        yield full, rest


def draw_key(geom: ArrayGeometry, params: SystemParams, err_models, cfg: McConfig,
             correlated: bool = True) -> tuple:
    """What the composite gains of an mc_estimates call depend on: calls
    with equal keys evaluate their rates on the same draws, whatever
    scenarios they ask for.  The key holds params.four_user, which adds
    the primed gains; the rest of params enters only through the rates.

    Only the draws of the last key sampled are kept, so callers that
    want reuse make their calls with equal keys one after another.
    """
    return (geom, correlated, *err_models, cfg.master_seed, cfg.trials,
            params.four_user)


# (draw key, its gains) of the last sampling, or None.
_last_draws: tuple[tuple, np.ndarray] | None = None


def forget_draws() -> None:
    """Drop the stored draw set and free its memory."""
    global _last_draws
    _last_draws = None


def _draw_gains(key, workers):
    """The gains of every block of a draw key, from the memo or sampled
    (and then stored in place of the previous draw set)."""
    global _last_draws
    if _last_draws is not None and _last_draws[0] == key:
        return _last_draws[1]
    _last_draws = None
    geom, correlated, err_t, err_r, master_seed, trials, primed = key
    factor = correlation_factor(correlation_matrix(geom)) if correlated else None
    blocks = list(_blocks(trials))
    args = [(factor, geom.n_elements, err_t, err_r, master_seed, block, count, primed)
            for block, count in blocks]
    gains = np.empty((4 if primed else 2, trials))

    def store(parts):
        for (block, count), part in zip(blocks, parts):
            gains[:, block * BLOCK_SIZE:block * BLOCK_SIZE + count] = part

    workers = min(workers, len(blocks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            store(pool.map(_block_gains, *zip(*args)))
    else:
        store(_block_gains(*a) for a in args)
    gains.flags.writeable = False
    _last_draws = (key, gains)
    return gains


def mc_estimates(geom: ArrayGeometry, params: SystemParams, err_models,
                 cfg: McConfig, scenarios, *, correlated: bool = True,
                 workers: int = 1) -> dict[Scenario, McEstimate]:
    """Estimates for a set of scenarios from one walk over the blocks.

    err_models is (model_t, model_r).  Every scenario is evaluated on the
    same draws, so NOMA and OMA estimates share the channel realizations.
    A call on the draw key of the previous sampling reuses its gains
    (see the module docstring); no draw, factorization or pool happens.
    """
    scenarios = tuple(dict.fromkeys(scenarios))
    if not params.four_user and not set(scenarios).isdisjoint(_PRIMED):
        raise ValueError("primed scenarios need four-user parameters")
    gains = _draw_gains(draw_key(geom, params, err_models, cfg, correlated), workers)
    # running sums in block order, so the totals do not depend on scheduling
    sums = {scen: [0.0, 0.0] for scen in scenarios}
    for block, count in _blocks(cfg.trials):
        start = block * BLOCK_SIZE
        for scen, r in _rates_at(scenarios, params, gains[:, start:start + count]).items():
            sums[scen][0] += float(r.sum())
            sums[scen][1] += float(np.sum(r * r))
    z = NormalDist().inv_cdf(0.5 * (1.0 + cfg.confidence))
    out = {}
    for scen, (total, total_sq) in sums.items():
        mean = total / cfg.trials
        var = max(total_sq - cfg.trials * mean * mean, 0.0) / (cfg.trials - 1)
        out[scen] = McEstimate(mean=mean, half_width=z * np.sqrt(var / cfg.trials),
                               trials=cfg.trials)
    return out
