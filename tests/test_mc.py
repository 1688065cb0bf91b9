import math

import numpy as np
import pytest

from ios_noma.analytic import Scenario, jensen_rate_t, large_snr_limit
from ios_noma.channel import (ConfigError, Quantized, SystemParams, VonMises,
                              correlation_factor, pathloss)
from ios_noma.geometry import (correlation_matrix, magnitude_moment_matrix,
                               trace_rbar_sq)
from ios_noma.mc import (McConfig, McEstimate, _block_rates,
                         four_user_trial_rates, mc_estimates, noma_trial_rates,
                         oma_trial_rates)

QUANT1 = (Quantized(1), Quantized(1))
NOMA = (Scenario.NOMA_T, Scenario.NOMA_R)
OMA = (Scenario.OMA_T, Scenario.OMA_R)
FOUR = (Scenario.NOMA_T, Scenario.NOMA_R, Scenario.NOMA_TP, Scenario.NOMA_RP)


def estimates(geom, params, models, cfg, scenarios, **kwargs):
    """mc_estimates as a tuple in the order of scenarios."""
    out = mc_estimates(geom, params, models, cfg, scenarios, **kwargs)
    return tuple(out[s] for s in scenarios)


def four_user_params(p_dbm=20.0, q_shares=(0.1, 0.2, 0.3, 0.4)):
    qt, qr, qtp, qrp = (math.sqrt(s) for s in q_shares)
    return SystemParams.from_db(p_dbm=p_dbm, q_t=qt, q_r=qr, q_tp=qtp, q_rp=qrp,
                                d_tp=12.0, d_rp=15.0,
                                lambda_tp_db=-30.0, lambda_rp_db=-30.0)


class TestTrialRates:
    def test_single_element_coherent_case(self, noma_params):
        params = noma_params()
        rate_t, _ = noma_trial_rates(params, 1.0, 1.0)
        expected = math.log2(1 + params.gamma0 * params.q_t**2
                             * pathloss(params, "t") * params.alpha**2)
        assert float(rate_t) == pytest.approx(expected, rel=1e-12)

    def test_zero_transmit_power(self):
        params = SystemParams.from_db(p_dbm=-math.inf)
        assert params.p_tx == 0.0
        rt, rr = noma_trial_rates(params, 5.0, 5.0)
        ot, orr = oma_trial_rates(params, 5.0, 5.0)
        assert (float(rt), float(rr), float(ot), float(orr)) == (0, 0, 0, 0)

    def test_zero_power_share_silences_user(self):
        params = four_user_params(q_shares=(0.2, 0.8, 0.0, 0.0))
        _, _, rate_tp, rate_rp = four_user_trial_rates(params, 4.0, 3.0, 2.0, 1.0)
        assert float(rate_tp) == 0.0
        assert float(rate_rp) == 0.0


class TestDeterminism:
    def test_same_seed_bitwise(self, half_wave_geometry, noma_params):
        geom = half_wave_geometry(n_h=6, n_v=4)
        cfg = McConfig(trials=4000, master_seed=99)
        a = estimates(geom, noma_params(), QUANT1, cfg, NOMA)
        b = estimates(geom, noma_params(), QUANT1, cfg, NOMA)
        assert a == b

    def test_worker_count_invariance(self, half_wave_geometry, noma_params):
        geom = half_wave_geometry(n_h=6, n_v=4)
        cfg = McConfig(trials=40_000, master_seed=99)  # spans several blocks
        serial = estimates(geom, noma_params(), QUANT1, cfg, NOMA)
        pooled = estimates(geom, noma_params(), QUANT1, cfg, NOMA, workers=2)
        assert serial == pooled

    def test_different_seed_differs(self, half_wave_geometry, noma_params):
        geom = half_wave_geometry(n_h=6, n_v=4)
        a = estimates(geom, noma_params(), QUANT1,
                      McConfig(trials=2000, master_seed=1), NOMA)
        b = estimates(geom, noma_params(), QUANT1,
                      McConfig(trials=2000, master_seed=2), NOMA)
        assert a[0].mean != b[0].mean


class TestSchemeRelations:
    def test_per_trial_oma_noma_identity(self, half_wave_geometry, noma_params):
        geom = half_wave_geometry(n_h=5, n_v=4)
        params = noma_params()
        factor = correlation_factor(correlation_matrix(geom))
        args = (factor, geom.n_elements, params, Quantized(1), Quantized(1), 77, 0, 512)
        noma_t, _ = _block_rates("noma", *args)
        oma_t, _ = _block_rates("oma", *args)
        gamma_t = 2.0**noma_t - 1.0
        recon = 0.5 * np.log2(1.0 + gamma_t / (params.q_t**2 * params.alpha**2))
        assert np.allclose(oma_t, recon, rtol=1e-10)

    def test_oma_r_beats_converged_noma_r_at_high_snr(self, half_wave_geometry,
                                                       noma_params):
        geom = half_wave_geometry(n_h=10, n_v=4)
        params = noma_params(p_dbm=40.0)
        cfg = McConfig(trials=10_000, master_seed=5)
        models = (VonMises(2.0), VonMises(2.0))
        out = mc_estimates(geom, params, models, cfg, [Scenario.NOMA_R, Scenario.OMA_R])
        assert out[Scenario.OMA_R].mean > out[Scenario.NOMA_R].mean

    def test_r_rate_respects_power_ratio_cap(self, half_wave_geometry, noma_params):
        geom = half_wave_geometry(n_h=8, n_v=4)
        params = noma_params(p_dbm=40.0)
        cfg = McConfig(trials=10_000, master_seed=6)
        est_r = mc_estimates(geom, params, QUANT1, cfg, [Scenario.NOMA_R])[Scenario.NOMA_R]
        cap = large_snr_limit(Scenario.NOMA_R, params).value
        assert est_r.mean <= cap + 3.0 * est_r.half_width

    def test_jensen_bound_dominates_all_scenarios(self, half_wave_geometry,
                                                  noma_params):
        from ios_noma.analytic import (BoundKind, jensen_rate_r, link_factors,
                                       oma_rates)
        geom = half_wave_geometry(n_h=8, n_v=4)
        params = noma_params()
        cfg = McConfig(trials=20_000, master_seed=8)
        eps = Quantized(1).epsilon()
        tr = trace_rbar_sq(magnitude_moment_matrix(correlation_matrix(geom)))
        n = geom.n_elements
        mc = estimates(geom, params, QUANT1, cfg, NOMA + OMA)
        bounds = [jensen_rate_t(params, n, tr, eps),
                  jensen_rate_r(params, link_factors(params, n, tr, eps, eps)),
                  *oma_rates(params, n, tr, eps, eps, BoundKind.JENSEN_UPPER)]
        for est, bound in zip(mc, bounds):
            assert est.mean <= bound.value + 3.0 * est.half_width

    def test_hardening_approximation_tracks_mc(self, half_wave_geometry,
                                               noma_params):
        from ios_noma.analytic import hardening_rate_t
        geom = half_wave_geometry(n_h=10, n_v=4)
        params = noma_params()
        models = (VonMises(2.0), VonMises(2.0))
        cfg = McConfig(trials=30_000, master_seed=12)
        est_t = mc_estimates(geom, params, models, cfg, [Scenario.NOMA_T])[Scenario.NOMA_T]
        approx = hardening_rate_t(params, geom.n_elements, models[0].epsilon())
        assert abs(approx.value - est_t.mean) <= 0.3


class TestFourUser:
    def test_degenerate_power_split_matches_two_user(self, half_wave_geometry):
        geom = half_wave_geometry(n_h=10, n_v=4)
        two = SystemParams.from_db(q_t=0.6, q_r=0.8)
        four = four_user_params(q_shares=(0.36, 0.64, 0.0, 0.0))
        cfg = McConfig(trials=5000, master_seed=13)
        pair = estimates(geom, two, QUANT1, cfg, NOMA)
        quad = estimates(geom, four, QUANT1, cfg, FOUR)
        assert quad[0].mean == pytest.approx(pair[0].mean, rel=1e-12)
        assert quad[1].mean == pytest.approx(pair[1].mean, rel=1e-12)

    def test_requires_four_user_params(self, half_wave_geometry):
        # four-user parameters route even the T rate through the four-user
        # engine, which needs the pathloss ordering behind its decoding order
        params = SystemParams.from_db(
            q_t=math.sqrt(0.1), q_r=math.sqrt(0.2), q_tp=math.sqrt(0.3),
            q_rp=math.sqrt(0.4), d_tp=15.0, d_rp=12.0)
        with pytest.raises(ConfigError, match="ordering"):
            mc_estimates(half_wave_geometry(4, 4), params, QUANT1,
                         McConfig(trials=200, master_seed=1), [Scenario.NOMA_T])

    def test_primed_scenarios_need_four_user_params(self, half_wave_geometry,
                                                    noma_params):
        with pytest.raises(ValueError):
            mc_estimates(half_wave_geometry(4, 4), noma_params(), QUANT1,
                         McConfig(trials=200, master_seed=1), [Scenario.NOMA_TP])


class TestHardeningTrend:
    def test_relative_rate_variance_shrinks_with_elements(self, noma_params):
        from ios_noma.geometry import ArrayGeometry
        params = noma_params()
        ratios = []
        for n_h in (4, 16, 64):
            geom = ArrayGeometry(n_h=n_h, n_v=4, elem_len_l=0.05, elem_len_w=0.05)
            factor = correlation_factor(correlation_matrix(geom))
            rate_t, _ = _block_rates("noma", factor, geom.n_elements, params,
                                     Quantized(1), Quantized(1), 21, 0, 8192)
            ratios.append(rate_t.var() / rate_t.mean() ** 2)
        assert ratios[0] > ratios[1] > ratios[2]


class TestConfigAndEstimate:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=50)
        with pytest.raises(ValueError):
            McConfig(confidence=1.0)
        with pytest.raises(ValueError):
            McEstimate(mean=1.0, half_width=-0.1, trials=100)

    def test_half_width_scales_with_trials(self, half_wave_geometry, noma_params):
        geom = half_wave_geometry(n_h=4, n_v=4)
        small = estimates(geom, noma_params(), QUANT1,
                          McConfig(trials=4000, master_seed=3), NOMA)
        large = estimates(geom, noma_params(), QUANT1,
                          McConfig(trials=16_000, master_seed=3), NOMA)
        assert small[0].half_width / large[0].half_width == pytest.approx(2.0, rel=0.2)

    def test_mc_estimates_scenario_routing(self, half_wave_geometry):
        geom = half_wave_geometry(n_h=4, n_v=4)
        params = four_user_params()
        cfg = McConfig(trials=1000, master_seed=4)
        out = mc_estimates(geom, params, QUANT1, cfg,
                           [Scenario.NOMA_T, Scenario.NOMA_RP, Scenario.OMA_T])
        assert set(out) == {Scenario.NOMA_T, Scenario.NOMA_RP, Scenario.OMA_T}
        # each engine's estimate does not depend on what else was asked for
        assert out[Scenario.OMA_T] == mc_estimates(geom, params, QUANT1, cfg,
                                                   [Scenario.OMA_T])[Scenario.OMA_T]
