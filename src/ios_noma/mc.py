"""Monte Carlo engine for the average achievable rates.

Trials are processed in fixed-size blocks.  Every (random stream, block
index) pair gets its own generator seeded from the master seed, so the
draws do not depend on how blocks are distributed over workers and the
estimates are bit-identical for any worker count.  The five base
streams separate the shared fading vector h, the per-side vectors g and
r, and the two phase-error vectors; the four-user engine adds streams
for the primed users' fading vectors g' and r'.

Per trial the composite gains are

    H_t = |sum_n |g_n| |h_n| exp(j phi_n_t)|^2   (reflect side with r)

and the SINR chain follows the fixed decoding order, with every user
that decodes a given message contributing one term to that message's
min-rate composition.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .analytic import Scenario
from .channel import (PhaseErrorModel, SystemParams, correlation_factor,
                      pathloss, standard_complex_gaussian,
                      validate_decoding_order)
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


def _stream_rng(master_seed: int, stream: int, block: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, block))
    return np.random.Generator(np.random.PCG64(seq))


def _colored_block(factor: np.ndarray | None, n: int, master_seed: int,
                   stream: int, block: int, count: int) -> np.ndarray:
    rng = _stream_rng(master_seed, stream, block)
    z = standard_complex_gaussian((n, count), rng)
    return z if factor is None else factor @ z


def _phase_block(model: PhaseErrorModel, n: int, master_seed: int,
                 stream: int, block: int, count: int) -> np.ndarray:
    rng = _stream_rng(master_seed, stream, block)
    return model.sample((n, count), rng)


def _boosted_gain(mag_a: np.ndarray, mag_h: np.ndarray, phases: np.ndarray) -> np.ndarray:
    return np.abs(np.sum(mag_a * mag_h * np.exp(1j * phases), axis=0)) ** 2


# ---------------------------------------------------------------------------
# per-trial SINR chains (vectorized over trials; also accept scalars)


def noma_trial_rates(params: SystemParams, h_t, h_r):
    """(rate_T, rate_R) from composite gains under superposition coding."""
    gain_t = params.gamma0 * pathloss(params, "t") * params.alpha**2 * np.asarray(h_t)
    gain_r = params.gamma0 * pathloss(params, "r") * params.beta**2 * np.asarray(h_r)
    rate_t = np.log2(1.0 + gain_t * params.q_t**2)
    sinr_t_to_r = gain_t * params.q_r**2 / (gain_t * params.q_t**2 + 1.0)
    sinr_r = gain_r * params.q_r**2 / (gain_r * params.q_t**2 + 1.0)
    rate_r = np.minimum(np.log2(1.0 + sinr_t_to_r), np.log2(1.0 + sinr_r))
    return rate_t, rate_r


def oma_trial_rates(params: SystemParams, h_t, h_r):
    """(rate_T, rate_R) under per-user time slots with full amplitudes."""
    g0 = params.gamma0
    rate_t = 0.5 * np.log2(1.0 + g0 * pathloss(params, "t") * np.asarray(h_t))
    rate_r = 0.5 * np.log2(1.0 + g0 * pathloss(params, "r") * np.asarray(h_r))
    return rate_t, rate_r


def four_user_trial_rates(params: SystemParams, h_t, h_r, h_tp, h_rp):
    """(rate_T, rate_R, rate_Tp, rate_Rp) under the (R', T', R, T) order.

    Each message's rate is the minimum over the decoding user itself and
    every later user in the order, with the not-yet-decoded power as
    interference.
    """
    g0 = params.gamma0
    gain = {
        "t": g0 * pathloss(params, "t") * params.alpha**2 * np.asarray(h_t),
        "r": g0 * pathloss(params, "r") * params.beta**2 * np.asarray(h_r),
        "tp": g0 * pathloss(params, "tp") * params.alpha**2 * np.asarray(h_tp),
        "rp": g0 * pathloss(params, "rp") * params.beta**2 * np.asarray(h_rp),
    }
    q_sq = {"t": params.q_t**2, "r": params.q_r**2,
            "tp": params.q_tp**2, "rp": params.q_rp**2}

    def msg_rate(message, interference, decoders):
        terms = [np.log2(1.0 + gain[z] * q_sq[message] / (gain[z] * interference + 1.0))
                 for z in decoders]
        return np.minimum.reduce(terms)

    interf_rp = q_sq["tp"] + q_sq["r"] + q_sq["t"]
    interf_tp = q_sq["r"] + q_sq["t"]
    rate_rp = msg_rate("rp", interf_rp, ("rp", "tp", "r", "t"))
    rate_tp = msg_rate("tp", interf_tp, ("tp", "r", "t"))
    rate_r = msg_rate("r", q_sq["t"], ("r", "t"))
    rate_t = np.log2(1.0 + gain["t"] * q_sq["t"])
    return rate_t, rate_r, rate_tp, rate_rp


# ---------------------------------------------------------------------------
# block evaluation


def _block_rates(scheme, factor, n, params, err_t, err_r, master_seed, block,
                 count):
    """Per-trial rates of one block for scheme "noma", "oma" or "four".

    H_t and H_r come from the boost set (h, g, r and the two phase
    errors).  The primed users' composites reuse it: the leftover phase
    at element n is arg(g'_n) - arg(g_n) + phi_n_t (resp. with r),
    uniform per element but tied to the actual draws.  Only the
    four-user scheme keeps g and r complex, because it needs their
    angles.
    """
    def colored(stream):
        return _colored_block(factor, n, master_seed, stream, block, count)

    four = scheme == "four"
    mag_h = np.abs(colored(_STREAM_H))
    if four:
        vec_g, vec_r = colored(_STREAM_G), colored(_STREAM_R)
        vec_gp, vec_rp = colored(_STREAM_GP), colored(_STREAM_RP)
        mag_g, mag_r = np.abs(vec_g), np.abs(vec_r)
    else:
        mag_g, mag_r = np.abs(colored(_STREAM_G)), np.abs(colored(_STREAM_R))
    phi_t = _phase_block(err_t, n, master_seed, _STREAM_PHI_T, block, count)
    phi_r = _phase_block(err_r, n, master_seed, _STREAM_PHI_R, block, count)
    h_t = _boosted_gain(mag_g, mag_h, phi_t)
    h_r = _boosted_gain(mag_r, mag_h, phi_r)
    if not four:
        rates = noma_trial_rates if scheme == "noma" else oma_trial_rates
        return rates(params, h_t, h_r)
    h_tp = _boosted_gain(np.abs(vec_gp), mag_h, np.angle(vec_gp) - np.angle(vec_g) + phi_t)
    h_rp = _boosted_gain(np.abs(vec_rp), mag_h, np.angle(vec_rp) - np.angle(vec_r) + phi_r)
    return four_user_trial_rates(params, h_t, h_r, h_tp, h_rp)


def _block_task(args):
    return tuple((float(r.sum()), float(np.sum(r * r))) for r in _block_rates(*args))


def _blocks(trials: int):
    full, rest = divmod(trials, BLOCK_SIZE)
    for block in range(full):
        yield block, BLOCK_SIZE
    if rest:
        yield full, rest


def _run(scheme: str, geom: ArrayGeometry, params: SystemParams,
         err_models, cfg: McConfig, correlated: bool, workers: int):
    if scheme == "four":
        if not params.four_user:
            raise ValueError("primed scenarios need four-user parameters")
        validate_decoding_order(params)
    err_t, err_r = err_models
    n = geom.n_elements
    factor = correlation_factor(correlation_matrix(geom)) if correlated else None
    tasks = [(scheme, factor, n, params, err_t, err_r, cfg.master_seed, block, count)
             for block, count in _blocks(cfg.trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_block_task, tasks))
    else:
        partials = [_block_task(t) for t in tasks]
    # merge in block order so the totals do not depend on scheduling
    n_rates = len(partials[0])
    z = NormalDist().inv_cdf(0.5 * (1.0 + cfg.confidence))
    estimates = []
    for i in range(n_rates):
        total = sum(p[i][0] for p in partials)
        total_sq = sum(p[i][1] for p in partials)
        mean = total / cfg.trials
        var = max(total_sq - cfg.trials * mean * mean, 0.0) / (cfg.trials - 1)
        estimates.append(McEstimate(mean=mean,
                                    half_width=z * np.sqrt(var / cfg.trials),
                                    trials=cfg.trials))
    return tuple(estimates)


# Scenario -> (engine, index of its rate in the engine's output).  With
# four-user parameters the "four" engine stands in for "noma".
_ENGINES = {
    Scenario.NOMA_T: ("noma", 0),
    Scenario.NOMA_R: ("noma", 1),
    Scenario.NOMA_TP: ("four", 2),
    Scenario.NOMA_RP: ("four", 3),
    Scenario.OMA_T: ("oma", 0),
    Scenario.OMA_R: ("oma", 1),
}


def mc_estimates(geom: ArrayGeometry, params: SystemParams, err_models,
                 cfg: McConfig, scenarios, *, correlated: bool = True,
                 workers: int = 1) -> dict[Scenario, McEstimate]:
    """Estimates for a set of scenarios, running each engine at most once.

    err_models is (model_t, model_r).  NOMA and OMA run on the same draw
    streams, so their estimates share the channel realizations.
    """
    by_engine: dict[str, list[Scenario]] = {}
    for scen in scenarios:
        engine = _ENGINES[scen][0]
        if engine == "noma" and params.four_user:
            engine = "four"
        by_engine.setdefault(engine, []).append(scen)
    out: dict[Scenario, McEstimate] = {}
    for engine, scens in by_engine.items():
        estimates = _run(engine, geom, params, err_models, cfg, correlated, workers)
        out.update({s: estimates[_ENGINES[s][1]] for s in scens})
    return out
