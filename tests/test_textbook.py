"""A textbook oracle: every Monte Carlo rate rebuilt from the paper's
model in plain numpy, from the fading draws to the SINRs, with no
sampler, correlation kernel, pathloss or rate formula of the package,
and compared with mc_estimates on the combined standard error."""

import math

import numpy as np
import pytest
from conftest import dense_correlation

from ios_noma import (ArrayGeometry, McConfig, Perfect, Quantized, Scenario, SystemParams,
                      UniformFull, VonMises, mc_estimates)

TRIALS = 1 << 15
TWO = SystemParams.from_db()
FOUR = SystemParams.from_db(q_t=0.1**0.5, q_r=0.2**0.5, q_tp=0.3**0.5, q_rp=0.4**0.5,
                            d_tp=12.0, d_rp=15.0, lambda_tp_db=-30.0, lambda_rp_db=-30.0)
FIG3 = SystemParams.from_db(p_dbm=20, q_t=1.0, q_r=0.0, alpha=1.0, beta=0.0)
NOMA, OMA = (Scenario.NOMA_T, Scenario.NOMA_R), (Scenario.OMA_T, Scenario.OMA_R)
PRIMED = (Scenario.NOMA_TP, Scenario.NOMA_RP)


def phases(model, shape, rng):
    if isinstance(model, Perfect):
        return np.zeros(shape)
    if isinstance(model, VonMises):
        return rng.vonmises(0.0, model.kappa, shape)
    half = math.pi / 2**model.bits if isinstance(model, Quantized) else math.pi
    return rng.uniform(-half, half, shape)


def textbook_rates(geom, params, models, correlated, rng):
    n = geom.n_v * geom.n_h
    colour = np.linalg.cholesky(dense_correlation(geom)) if correlated else np.eye(n)

    def fading():  # CN(0, R), one column per trial
        return colour @ (rng.standard_normal((n, TRIALS))
                         + 1j * rng.standard_normal((n, TRIALS))) / math.sqrt(2.0)

    h, snr = fading(), {}  # {link: SNR at full power and surface amplitude}
    for side, model in zip("tr", models):
        g, phi = fading(), phases(model, (n, TRIALS), rng)
        links = {side: np.abs(g)}
        if params.four_user:  # the primed user's leftover phase
            g_p = fading()
            links[side + "p"] = np.abs(g_p) * np.exp(1j * (np.angle(g_p) - np.angle(g)))
        for link, cascade in links.items():
            gain = np.abs(np.sum(cascade * np.abs(h) * np.exp(1j * phi), axis=0)) ** 2
            eta = ((getattr(params, "lambda_" + link) or getattr(params, "lambda_" + side))
                   / (params.d_b * getattr(params, "d_" + link)) ** params.chi)
            snr[link] = params.p_tx / params.noise_power * eta * gain
    users = ("t", "r", "tp", "rp")[:4 if params.four_user else 2]
    q_sq = [getattr(params, "q_" + user) ** 2 for user in users]
    rates = {Scenario.OMA_T: 0.5 * np.log2(1.0 + snr["t"]),
             Scenario.OMA_R: 0.5 * np.log2(1.0 + snr["r"])}
    for k, scen in enumerate((NOMA + PRIMED)[:len(users)]):
        # SIC in the order R', T', R, T: user k's message is decoded by
        # every user up to k, against the messages decoded after it
        f = [snr[link] * (params.alpha if link[0] == "t" else params.beta) ** 2
             for link in users[:k + 1]]
        rates[scen] = np.min([np.log2(1.0 + x * q_sq[k] / (x * sum(q_sq[:k]) + 1.0))
                              for x in f], axis=0)
    return rates


def layout(n_h, n_v, spacing=0.05, wavelength=0.1):
    return ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=spacing, elem_len_w=spacing,
                         wavelength=wavelength)


@pytest.mark.parametrize("geom, params, models, correlated, scenarios", [
    (layout(6, 4), FIG3, (UniformFull(), UniformFull()), True, (Scenario.NOMA_T, *OMA)),
    (layout(3, 4), TWO, (UniformFull(), UniformFull()), False, NOMA + OMA),
    (layout(4, 3, wavelength=0.2), TWO, (VonMises(1.0), Quantized(1)), True, NOMA + OMA),
    (layout(5, 2), FOUR, (Quantized(2), Perfect()), True, NOMA + PRIMED + OMA),
    (layout(2, 3), FOUR, (UniformFull(), VonMises(2.0)), False, NOMA + PRIMED + OMA),
], ids=["fig3_uniform", "uniform_iid", "vonmises_quantized", "four_user", "four_user_iid"])
def test_engine_matches_the_textbook(geom, params, models, correlated, scenarios):
    rates = textbook_rates(geom, params, models, correlated, np.random.default_rng(2024))
    out = mc_estimates(geom, params, models, McConfig(trials=TRIALS, master_seed=2024),
                       scenarios, correlated=correlated)
    for scen in scenarios:
        rate, est = rates[scen], out[scen]
        stderr = math.hypot(rate.std(ddof=1) / math.sqrt(TRIALS), est.half_width / 1.96)
        assert abs(est.mean - rate.mean()) <= 4.5 * stderr, (scen, est, rate.mean())
