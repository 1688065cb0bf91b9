import math

import numpy as np
import pytest

from ios_noma.analytic import (BoundKind, LinkFactors, Scenario, Verdict,
                               hardening_rate_r, hardening_rate_t,
                               jensen_rate_r, jensen_rate_t, large_snr_limit,
                               link_factors, multiuser_bounds, oma_rates,
                               quantization_gain, quantization_gain_limit,
                               sum_rate_verdict)
from ios_noma.channel import ConfigError, Quantized, SystemParams, pathloss

PI_SQ_16 = math.pi**2 / 16.0


def uncorrelated_trace(n):
    return n + n * (n - 1) * PI_SQ_16


def four_user_params(p_dbm=20.0):
    return SystemParams.from_db(
        p_dbm=p_dbm, q_t=math.sqrt(0.1), q_r=math.sqrt(0.2),
        q_tp=math.sqrt(0.3), q_rp=math.sqrt(0.4), d_tp=12.0, d_rp=15.0,
        lambda_tp_db=-30.0, lambda_rp_db=-30.0)


class TestJensenT:
    def test_uniform_error_reduction(self, noma_params):
        params = noma_params()
        n = 32
        bound = jensen_rate_t(params, n, uncorrelated_trace(n), eps_t=0.0)
        snr = params.gamma0 * params.q_t**2 * pathloss(params, "t") * params.alpha**2
        assert bound.value == pytest.approx(math.log2(1 + snr * n), rel=1e-12)

    def test_perfect_phase_reduction(self, noma_params):
        params = noma_params()
        n = 32
        tr = uncorrelated_trace(n)
        bound = jensen_rate_t(params, n, tr, eps_t=1.0)
        snr = params.gamma0 * params.q_t**2 * pathloss(params, "t") * params.alpha**2
        assert bound.value == pytest.approx(math.log2(1 + snr * tr), rel=1e-12)

    def test_preconditions(self, noma_params):
        params = noma_params()
        with pytest.raises(ValueError):
            jensen_rate_t(params, 0, 1.0, 0.5)
        with pytest.raises(ValueError):
            jensen_rate_t(params, 10, uncorrelated_trace(10), 1.2)
        with pytest.raises(ValueError):
            jensen_rate_t(params, 10, 5.0, 0.5)
        with pytest.raises(ValueError):
            jensen_rate_t(params, 10, 101.0, 0.5)


class TestJensenR:
    def test_reference_arithmetic(self):
        params = SystemParams.from_db(q_t=0.6, q_r=0.8)
        bound = jensen_rate_r(params, LinkFactors(f_t=10.0, f_r=20.0))
        assert bound.value == pytest.approx(1.2577977574676467, rel=1e-12)
        assert bound.branch == "f_t"

    def test_branch_selection_and_tie(self):
        params = SystemParams.from_db()
        assert jensen_rate_r(params, LinkFactors(f_t=30.0, f_r=20.0)).branch == "f_r"
        assert jensen_rate_r(params, LinkFactors(f_t=20.0, f_r=20.0)).branch == "f_r"

    def test_vanishing_link(self):
        params = SystemParams.from_db()
        assert jensen_rate_r(params, LinkFactors(f_t=0.0, f_r=5.0)).value == 0.0

    def test_capped_by_power_ratio(self):
        params = SystemParams.from_db()
        cap = math.log2(1 + params.q_r**2 / params.q_t**2)
        for f in (1.0, 100.0, 1e9, 1e15):
            assert jensen_rate_r(params, LinkFactors(f_t=f, f_r=f)).value < cap


class TestHardening:
    def test_quadratic_element_scaling(self, noma_params):
        params = noma_params()
        eps = Quantized(1).epsilon()
        arg_n = 2 ** hardening_rate_t(params, 50, eps).value - 1
        arg_2n = 2 ** hardening_rate_t(params, 100, eps).value - 1
        assert arg_2n / arg_n == pytest.approx(4.0, rel=1e-12)

    def test_uniform_model_rejected(self, noma_params):
        params = noma_params()
        with pytest.raises(ValueError):
            hardening_rate_t(params, 50, 0.0)
        with pytest.raises(ValueError):
            hardening_rate_r(params, 50, 0.5, 0.0)

    def test_r_branch_condition(self):
        # reflect side much weaker: branch must pick the reflect factor
        params = SystemParams.from_db(d_r=30.0)
        assert hardening_rate_r(params, 50, 0.9, 0.9).branch == "f_r"
        # transmit side weaker when its pathloss is worse
        params = SystemParams.from_db(d_t=9.0, d_r=5.0)
        assert hardening_rate_r(params, 50, 0.9, 0.9).branch == "f_t"

    def test_r_capped_by_power_ratio(self, noma_params):
        params = noma_params(p_dbm=60.0)
        cap = math.log2(1 + params.q_r**2 / params.q_t**2)
        assert hardening_rate_r(params, 400, 0.9, 0.9).value < cap


class TestOma:
    def test_pre_log_and_amplitude_relation(self, noma_params):
        params = noma_params()
        n, tr = 40, uncorrelated_trace(40)
        eps = Quantized(2).epsilon()
        noma = jensen_rate_t(params, n, tr, eps)
        oma_t, _ = oma_rates(params, n, tr, eps, eps, BoundKind.JENSEN_UPPER)
        arg_noma = 2**noma.value - 1
        arg_oma = 2 ** (2 * oma_t.value) - 1
        assert arg_oma == pytest.approx(arg_noma / (params.q_t**2 * params.alpha**2),
                                        rel=1e-12)

    def test_snr_threshold_for_noma_advantage(self, noma_params):
        n = 40
        eps = Quantized(2).epsilon()
        base = noma_params()
        eta_t = pathloss(base, "t")
        q_sq, a_sq = base.q_t**2, base.alpha**2
        threshold = (16.0 - 32.0 * q_sq * a_sq) / (
            math.pi**2 * n**2 * eps**2 * eta_t * q_sq**2 * a_sq**2)
        for factor, expect_noma_wins in ((8.0, True), (0.125, False)):
            params = noma_params(p_dbm=30.0)
            params = SystemParams(**{**params.__dict__,
                                     "p_tx": threshold * params.noise_power * factor})
            rate_noma = hardening_rate_t(params, n, eps).value
            rate_oma = oma_rates(params, n, uncorrelated_trace(n), eps, eps,
                                 BoundKind.HARDENING_APPROX)[0].value
            assert (rate_noma > rate_oma) == expect_noma_wins

    def test_large_n_offset(self, noma_params):
        params = noma_params()
        eps = 0.9
        offset = math.log2(params.q_t**2 * params.alpha**2)
        for n in (10_000, 100_000):
            noma = hardening_rate_t(params, n, eps).value
            oma_t = oma_rates(params, n, uncorrelated_trace(n), eps, eps,
                              BoundKind.HARDENING_APPROX)[0].value
            assert noma - 2 * oma_t == pytest.approx(offset, abs=1e-6)

    def test_kind_validation(self, noma_params):
        with pytest.raises(ValueError):
            oma_rates(noma_params(), 10, uncorrelated_trace(10), 0.5, 0.5,
                      BoundKind.LARGE_SNR_LIMIT)


class TestLimitsAndVerdict:
    def test_r_side_limit(self):
        params = SystemParams.from_db(q_t=0.6, q_r=0.8)
        bound = large_snr_limit(Scenario.NOMA_R, params)
        assert bound.value == pytest.approx(1.4739311883324122, rel=1e-12)

    def test_four_user_limits(self):
        params = four_user_params()
        assert large_snr_limit(Scenario.NOMA_TP, params).value == \
            pytest.approx(1.0, rel=1e-12)
        assert large_snr_limit(Scenario.NOMA_RP, params).value == \
            pytest.approx(math.log2(5.0 / 3.0), rel=1e-12)

    def test_no_limit_for_t(self, noma_params):
        with pytest.raises(ConfigError):
            large_snr_limit(Scenario.NOMA_T, noma_params())

    def test_verdict_far_reflect_user_prefers_noma(self):
        eps = Quantized(2).epsilon()
        assert sum_rate_verdict(SystemParams.from_db(d_r=15.0), eps, eps) == Verdict.NOMA

    def test_verdict_near_reflect_user_prefers_oma(self):
        eps = Quantized(2).epsilon()
        assert sum_rate_verdict(SystemParams.from_db(d_r=6.0), eps, eps) == Verdict.OMA

    def test_verdict_tie(self):
        # alpha = 1 and symmetric links make both sides bitwise identical
        params = SystemParams(d_t=5.0, d_r=5.0, alpha=1.0, beta=0.0,
                              q_t=0.6, q_r=0.8)
        assert sum_rate_verdict(params, 0.7, 0.7) == Verdict.TIE


class TestQuantizationGain:
    def test_limit_values(self):
        assert quantization_gain_limit(1) == pytest.approx(1.0, abs=1e-12)
        assert quantization_gain_limit(2) == pytest.approx(0.22844669683638832,
                                                           rel=1e-12)

    def test_limit_strictly_decreasing(self):
        vals = [quantization_gain_limit(b) for b in range(1, 9)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_gain_positive(self, noma_params):
        params = noma_params()
        for n in (10, 100):
            for b in range(1, 9):
                assert quantization_gain(b, params, n) > 0

    def test_large_array_convergence(self, noma_params):
        params = noma_params()
        for b in (1, 2, 3):
            assert quantization_gain(b, params, 10**6) == pytest.approx(
                quantization_gain_limit(b), abs=1e-3)

    def test_validation(self, noma_params):
        with pytest.raises(ValueError):
            quantization_gain(0, noma_params(), 10)
        with pytest.raises(ValueError):
            quantization_gain_limit(0)


class TestAsymptoticEquivalence:
    def test_bound_and_approximation_converge_in_elements(self, noma_params,
                                                          half_wave_geometry):
        from ios_noma.geometry import (correlation_matrix,
                                       magnitude_moment_matrix, trace_rbar_sq)
        params = noma_params()
        eps = Quantized(1).epsilon()
        rel_gaps = []
        for n_h in (4, 16, 64, 256):
            geom = half_wave_geometry(n_h=n_h, n_v=4)
            tr = trace_rbar_sq(magnitude_moment_matrix(correlation_matrix(geom)))
            jensen = jensen_rate_t(params, geom.n_elements, tr, eps).value
            approx = hardening_rate_t(params, geom.n_elements, eps).value
            rel_gaps.append(abs(jensen - approx) / approx)
        assert rel_gaps[0] > rel_gaps[1] > rel_gaps[2] > rel_gaps[3]
        assert rel_gaps[-1] < 1e-2


class TestMultiuserBounds:
    def test_large_snr_approaches_limits(self):
        params = four_user_params(p_dbm=150.0)
        n = 40
        factors = link_factors(params, n, uncorrelated_trace(n), 0.6, 0.6)
        tp, rp = multiuser_bounds(params, n, factors)
        assert tp.value == pytest.approx(1.0, abs=1e-6)
        assert rp.value == pytest.approx(math.log2(5.0 / 3.0), abs=1e-6)

    def test_branch_continuity_at_tie(self):
        params = four_user_params()
        lf_tie = LinkFactors(f_t=500.0, f_r=400.0, f_tp=90.0, f_rp=90.0)
        _, rp_tie = multiuser_bounds(params, 40, lf_tie)
        assert rp_tie.branch == "f_rp"
        lf_below = LinkFactors(f_t=500.0, f_r=400.0, f_tp=90.0 - 1e-9, f_rp=90.0)
        _, rp_below = multiuser_bounds(params, 40, lf_below)
        assert rp_below.branch == "f_tp"
        assert rp_below.value == pytest.approx(rp_tie.value, rel=1e-9)

    def test_pathloss_ordering_enforced(self):
        params = SystemParams.from_db(
            q_t=math.sqrt(0.1), q_r=math.sqrt(0.2), q_tp=math.sqrt(0.3),
            q_rp=math.sqrt(0.4), d_tp=15.0, d_rp=12.0,
            lambda_tp_db=-30.0, lambda_rp_db=-30.0)
        factors = LinkFactors(f_t=500.0, f_r=400.0, f_tp=90.0, f_rp=80.0)
        with pytest.raises(ConfigError):
            multiuser_bounds(params, 40, factors)

    def test_requires_four_user_params(self, noma_params):
        with pytest.raises(ConfigError):
            multiuser_bounds(noma_params(), 40,
                             LinkFactors(f_t=1.0, f_r=1.0, f_tp=1.0, f_rp=1.0))


class TestLinkFactors:
    def test_primed_factors_use_plain_element_count(self):
        params = four_user_params()
        n = 40
        factors = link_factors(params, n, uncorrelated_trace(n), 0.6, 0.6)
        expected_tp = params.gamma0 * pathloss(params, "tp") * params.alpha**2 * n
        assert factors.f_tp == pytest.approx(expected_tp, rel=1e-12)

    def test_two_user_has_no_primed_factors(self, noma_params):
        factors = link_factors(noma_params(), 40, uncorrelated_trace(40), 0.6, 0.6)
        assert factors.f_tp is None and factors.f_rp is None
