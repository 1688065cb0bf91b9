import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ios_noma.analytic import (Scenario, Verdict, _chain_bound,
                               _hardening_gain, _mean_gain, _single_log, large_snr_limit,
                               link_gain, oma_slot_rates, quantization_gain,
                               quantization_gain_limit, rate_bound,
                               sic_rates, sum_rate_verdict)
from ios_noma.channel import ConfigError, Quantized, SystemParams, pathloss
from ios_noma.geometry import ArrayGeometry, trace_rbar_sq
from ios_noma.mc import noma_trial_rates, oma_trial_rates

PI_SQ_16 = math.pi**2 / 16.0
NOMA = (Scenario.NOMA_T, Scenario.NOMA_R)
OMA = (Scenario.OMA_T, Scenario.OMA_R)
PRIMED = (Scenario.NOMA_TP, Scenario.NOMA_RP)


def uncorrelated_trace(n):
    return n + n * (n - 1) * PI_SQ_16


def jensen_t(params, n, tr, eps):
    return rate_bound(Scenario.NOMA_T, "jensen", params, n, tr, eps, eps)


def hardening(target, params, n, eps_t, eps_r):
    """The hardening approximation, which reads no trace."""
    return rate_bound(target, "hardening", params, n, n, eps_t, eps_r)


def four_user_params(p_dbm=20.0):
    return SystemParams.from_db(
        p_dbm=p_dbm, q_t=math.sqrt(0.1), q_r=math.sqrt(0.2),
        q_tp=math.sqrt(0.3), q_rp=math.sqrt(0.4), d_tp=12.0, d_rp=15.0,
        lambda_tp_db=-30.0, lambda_rp_db=-30.0)


class TestJensenT:
    def test_uniform_error_reduction(self, noma_params):
        params = noma_params()
        n = 32
        bound = jensen_t(params, n, uncorrelated_trace(n), 0.0)
        snr = params.gamma0 * params.q_t**2 * pathloss(params, "t") * params.alpha**2
        assert bound.value == pytest.approx(math.log2(1 + snr * n), rel=1e-12)

    def test_perfect_phase_reduction(self, noma_params):
        params = noma_params()
        n = 32
        tr = uncorrelated_trace(n)
        bound = jensen_t(params, n, tr, 1.0)
        snr = params.gamma0 * params.q_t**2 * pathloss(params, "t") * params.alpha**2
        assert bound.value == pytest.approx(math.log2(1 + snr * tr), rel=1e-12)

    def test_preconditions(self, noma_params):
        params = noma_params()
        with pytest.raises(ValueError):
            jensen_t(params, 0, 1.0, 0.5)
        with pytest.raises(ValueError):
            jensen_t(params, 10, uncorrelated_trace(10), 1.2)
        with pytest.raises(ValueError):
            jensen_t(params, 10, 5.0, 0.5)
        with pytest.raises(ValueError):
            jensen_t(params, 10, 101.0, 0.5)


class TestJensenR:
    def test_reference_arithmetic(self):
        params = SystemParams.from_db(q_t=0.6, q_r=0.8)
        bound = _chain_bound(Scenario.NOMA_R, params, (10.0, 20.0))
        assert bound.value == pytest.approx(1.2577977574676467, rel=1e-12)
        assert bound.branch == "f_t"

    def test_branch_selection_and_tie(self):
        params = SystemParams.from_db()
        assert _chain_bound(Scenario.NOMA_R, params, (30.0, 20.0)).branch == "f_r"
        assert _chain_bound(Scenario.NOMA_R, params, (20.0, 20.0)).branch == "f_r"

    def test_vanishing_link(self):
        params = SystemParams.from_db()
        assert _chain_bound(Scenario.NOMA_R, params, (0.0, 5.0)).value == 0.0

    def test_capped_by_power_ratio(self):
        params = SystemParams.from_db()
        cap = math.log2(1 + params.q_r**2 / params.q_t**2)
        for f in (1.0, 100.0, 1e9, 1e15):
            assert _chain_bound(Scenario.NOMA_R, params, (f, f)).value < cap


class TestHardening:
    def test_quadratic_element_scaling(self, noma_params):
        params = noma_params()
        eps = Quantized(1).epsilon()
        arg_n = 2 ** hardening(Scenario.NOMA_T, params, 50, eps, eps).value - 1
        arg_2n = 2 ** hardening(Scenario.NOMA_T, params, 100, eps, eps).value - 1
        assert arg_2n / arg_n == pytest.approx(4.0, rel=1e-12)

    def test_uniform_model_rejected(self, noma_params):
        params = noma_params()
        with pytest.raises(ValueError):
            hardening(Scenario.NOMA_T, params, 50, 0.0, 0.0)
        with pytest.raises(ValueError):
            hardening(Scenario.NOMA_R, params, 50, 0.5, 0.0)

    def test_r_branch_condition(self):
        # reflect side much weaker: branch must pick the reflect factor
        params = SystemParams.from_db(d_r=30.0)
        assert hardening(Scenario.NOMA_R, params, 50, 0.9, 0.9).branch == "f_r"
        # transmit side weaker when its pathloss is worse
        params = SystemParams.from_db(d_t=9.0, d_r=5.0)
        assert hardening(Scenario.NOMA_R, params, 50, 0.9, 0.9).branch == "f_t"

    def test_r_capped_by_power_ratio(self, noma_params):
        params = noma_params(p_dbm=60.0)
        cap = math.log2(1 + params.q_r**2 / params.q_t**2)
        assert hardening(Scenario.NOMA_R, params, 400, 0.9, 0.9).value < cap


class TestOma:
    def test_pre_log_and_amplitude_relation(self, noma_params):
        params = noma_params()
        n, tr = 40, uncorrelated_trace(40)
        eps = Quantized(2).epsilon()
        noma = jensen_t(params, n, tr, eps)
        oma_t = rate_bound(Scenario.OMA_T, "jensen", params, n, tr, eps, eps)
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
            rate_noma = hardening(Scenario.NOMA_T, params, n, eps, eps).value
            rate_oma = hardening(Scenario.OMA_T, params, n, eps, eps).value
            assert (rate_noma > rate_oma) == expect_noma_wins

    def test_large_n_offset(self, noma_params):
        params = noma_params()
        eps = 0.9
        offset = math.log2(params.q_t**2 * params.alpha**2)
        for n in (10_000, 100_000):
            noma = hardening(Scenario.NOMA_T, params, n, eps, eps).value
            oma_t = hardening(Scenario.OMA_T, params, n, eps, eps).value
            assert noma - 2 * oma_t == pytest.approx(offset, abs=1e-6)

    def test_kind_validation(self, noma_params):
        with pytest.raises(ConfigError):
            rate_bound(Scenario.OMA_T, "limit", noma_params(), 10, uncorrelated_trace(10),
                       0.5, 0.5)


class TestSingleLog:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(p_dbm=st.floats(-20.0, 60.0), d_t=st.floats(1.0, 30.0), d_r=st.floats(1.0, 30.0),
           theta=st.floats(0.05, 1.5), q_sq=st.one_of(st.floats(0.0, 0.49), st.just(1.0)),
           gains=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=8))
    def test_kappa_and_share_reproduce_the_rate_chain(self, p_dbm, d_t, d_r, theta, q_sq,
                                                      gains):
        # share log1p(kappa H) / ln 2 is NOMA T's, OMA T's and OMA R's rate,
        # T's share of the power from none to all of it; a subnormal share
        # gives subnormal rates, good only to their absolute rounding
        params = SystemParams.from_db(p_dbm=p_dbm, d_t=d_t, d_r=d_r, alpha=math.cos(theta),
                                      beta=math.sin(theta), q_t=math.sqrt(q_sq),
                                      q_r=math.sqrt(1.0 - q_sq))
        h = np.array(gains)
        chain = {Scenario.NOMA_T: sic_rates(params, link_gain(params, "t", h))[0],
                 **dict(zip(OMA, oma_slot_rates(params, h, h)))}
        for scen, rate in chain.items():
            kappa, share = _single_log(params, scen)
            np.testing.assert_allclose(share * np.log1p(kappa * h) / math.log(2.0), rate,
                                       rtol=1e-14, atol=1e-300, err_msg=scen.value)


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
        params = noma_params()
        eps = Quantized(1).epsilon()
        rel_gaps = []
        for n_h in (4, 16, 64, 256, 2560):  # N up to 10 240
            geom = half_wave_geometry(n_h=n_h, n_v=4)
            tr = trace_rbar_sq(geom, True)
            jensen = jensen_t(params, geom.n_elements, tr, eps).value
            approx = hardening(Scenario.NOMA_T, params, geom.n_elements, eps, eps).value
            rel_gaps.append(abs(jensen - approx) / approx)
        assert all(a > b for a, b in zip(rel_gaps, rel_gaps[1:]))
        assert rel_gaps[-1] < 1e-2

    def test_correlated_and_iid_rates_converge_in_elements(self, noma_params):
        # lambda/8 spacing, 10 rows, N up to 25 600: a dense R would take 5.2 GB
        params = noma_params()
        eps = Quantized(1).epsilon()
        gaps = []
        for n_h in (10, 40, 160, 640, 2560):
            geom = ArrayGeometry(n_h=n_h, n_v=10, elem_len_l=0.0125,
                                 elem_len_w=0.0125, wavelength=0.1)
            n = geom.n_elements
            correlated, iid = (jensen_t(params, n, trace_rbar_sq(geom, flag), eps).value
                               for flag in (True, False))
            gaps.append(abs(correlated - iid))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3


class TestMultiuserBounds:
    def test_large_snr_approaches_limits(self):
        params = four_user_params(p_dbm=150.0)
        n = 40
        tp, rp = (rate_bound(target, "jensen", params, n, uncorrelated_trace(n), 0.6, 0.6)
                  for target in (Scenario.NOMA_TP, Scenario.NOMA_RP))
        assert tp.value == pytest.approx(1.0, abs=1e-6)
        assert rp.value == pytest.approx(math.log2(5.0 / 3.0), abs=1e-6)

    def test_branch_continuity_at_tie(self):
        params = four_user_params()
        rp_tie = _chain_bound(Scenario.NOMA_RP, params, (500.0, 400.0, 90.0, 90.0))
        assert rp_tie.branch == "f_rp"
        rp_below = _chain_bound(Scenario.NOMA_RP, params, (500.0, 400.0, 90.0 - 1e-9, 90.0))
        assert rp_below.branch == "f_tp"
        assert rp_below.value == pytest.approx(rp_tie.value, rel=1e-9)

    def test_pathloss_ordering_enforced(self):
        # the ordering is checked when the parameters are built
        with pytest.raises(ConfigError, match="ordering"):
            SystemParams.from_db(
                q_t=math.sqrt(0.1), q_r=math.sqrt(0.2), q_tp=math.sqrt(0.3),
                q_rp=math.sqrt(0.4), d_tp=15.0, d_rp=12.0,
                lambda_tp_db=-30.0, lambda_rp_db=-30.0)

    def test_requires_four_user_params(self, noma_params):
        for target in (Scenario.NOMA_TP, Scenario.NOMA_RP):
            with pytest.raises(ConfigError):
                rate_bound(target, "jensen", noma_params(), 40, uncorrelated_trace(40),
                           0.6, 0.6)


class TestLinkFactors:
    def test_primed_factors_use_plain_element_count(self):
        params = four_user_params()
        n, tr = 40, uncorrelated_trace(40)
        f_t, f_r = (link_gain(params, link, _mean_gain(n, tr, 0.6)) for link in ("t", "r"))
        expected_tp = params.gamma0 * pathloss(params, "tp") * params.alpha**2 * n
        bound = rate_bound(Scenario.NOMA_TP, "jensen", params, n, tr, 0.6, 0.6)
        assert bound.value == pytest.approx(
            _chain_bound(Scenario.NOMA_TP, params, (f_t, f_r, expected_tp)).value, rel=1e-12)

    def test_two_user_has_no_primed_factors(self, noma_params):
        for target in (Scenario.NOMA_TP, Scenario.NOMA_RP):
            with pytest.raises(ConfigError, match="four-user"):
                rate_bound(target, "jensen", noma_params(), 40, uncorrelated_trace(40),
                           0.6, 0.6)


@st.composite
def valid_params(draw):
    """Two-user or four-user SystemParams that pass every check, with the
    four-user distances ordered so that eta_rp < eta_tp < eta_r < eta_t."""
    theta = draw(st.floats(0.05, 1.5))
    d_t = draw(st.floats(1.0, 20.0))
    d_r = d_t + draw(st.floats(0.5, 20.0))
    common = dict(p_dbm=draw(st.floats(-20.0, 80.0)), d_b=draw(st.floats(1.0, 30.0)),
                  chi=draw(st.floats(2.0, 4.0)), alpha=math.cos(theta),
                  beta=math.sin(theta), d_t=d_t, d_r=d_r)
    if not draw(st.booleans()):
        share = draw(st.floats(0.01, 0.49))
        return SystemParams.from_db(q_t=math.sqrt(share), q_r=math.sqrt(1.0 - share),
                                    **common)
    # a gap of at least 0.01 keeps q_t < q_r after rounding; weights one
    # ulp apart can round to equal shares, which SystemParams rejects
    w_t, w_tp, w_rp = (draw(st.floats(0.05, 1.0)) for _ in range(3))
    w_r = w_t + draw(st.floats(0.01, 1.0))
    total = w_t + w_r + w_tp + w_rp
    d_tp = d_r + draw(st.floats(0.5, 20.0))
    return SystemParams.from_db(
        q_t=math.sqrt(w_t / total), q_r=math.sqrt(w_r / total),
        q_tp=math.sqrt(w_tp / total), q_rp=math.sqrt(w_rp / total),
        d_tp=d_tp, d_rp=d_tp + draw(st.floats(0.5, 20.0)), **common)


class TestOneRateChain:
    """Every closed form is the Monte Carlo rate chain evaluated at a fixed
    gain, so the two agree exactly, not just to rounding."""

    @settings(max_examples=300, deadline=None)
    @given(params=valid_params(), n=st.integers(1, 4000),
           tr_frac=st.floats(0.0, 1.0), eps_t=st.floats(0.01, 1.0),
           eps_r=st.floats(0.01, 1.0))
    def test_bounds_are_the_chain_at_a_gain(self, params, n, tr_frac, eps_t, eps_r):
        tr = n + tr_frac * (n * n - n)

        def values(estimator, targets):
            return tuple(rate_bound(target, estimator, params, n, tr, eps_t, eps_r).value
                         for target in targets)

        mean_t, mean_r = _mean_gain(n, tr, eps_t), _mean_gain(n, tr, eps_r)
        assert values("jensen", NOMA) == noma_trial_rates(params, mean_t, mean_r)
        assert values("jensen", OMA) == oma_trial_rates(params, mean_t, mean_r)

        hard_t, hard_r = _hardening_gain(n, eps_t), _hardening_gain(n, eps_r)
        assert values("hardening", NOMA) == noma_trial_rates(params, hard_t, hard_r)
        assert values("hardening", OMA) == oma_trial_rates(params, hard_t, hard_r)

        if params.four_user:
            assert values("jensen", PRIMED) == \
                noma_trial_rates(params, mean_t, mean_r, n, n)[2:]

    def test_tiny_gain_keeps_its_rate(self):
        # log2(1 + x) rounds 1 + x to 1 below x = 1.1e-16 and returns 0
        params = SystemParams.from_db()
        (rate_t,) = sic_rates(params, 1e-20)
        assert rate_t == pytest.approx(params.q_t**2 * 1e-20 / math.log(2.0), rel=1e-15)


# (target, estimator) -> (needs four-user parameters, the sides whose eps
# must be non-zero).  Every pair not listed is undefined everywhere.
DEFINED = {
    (Scenario.NOMA_T, "jensen"): (False, ""),
    (Scenario.NOMA_R, "jensen"): (False, ""),
    (Scenario.OMA_T, "jensen"): (False, ""),
    (Scenario.OMA_R, "jensen"): (False, ""),
    (Scenario.NOMA_TP, "jensen"): (True, ""),
    (Scenario.NOMA_RP, "jensen"): (True, ""),
    (Scenario.NOMA_T, "hardening"): (False, "t"),
    (Scenario.NOMA_R, "hardening"): (False, "tr"),
    (Scenario.OMA_T, "hardening"): (False, "t"),
    (Scenario.OMA_R, "hardening"): (False, "r"),
    (Scenario.NOMA_R, "limit"): (False, ""),
    (Scenario.NOMA_TP, "limit"): (True, ""),
    (Scenario.NOMA_RP, "limit"): (True, ""),
}


@pytest.mark.parametrize("estimator", ["jensen", "hardening", "limit"])
@pytest.mark.parametrize("target", list(Scenario))
def test_definedness_table(target, estimator):
    n = 40
    for params in (SystemParams.from_db(), four_user_params()):
        for eps_t in (0.0, 0.5, 1.0):
            for eps_r in (0.0, 0.5, 1.0):
                rule = DEFINED.get((target, estimator))
                eps = {"t": eps_t, "r": eps_r}
                defined = (rule is not None and (params.four_user or not rule[0])
                           and all(eps[side] > 0 for side in rule[1]))
                call = lambda: rate_bound(target, estimator, params, n,
                                          uncorrelated_trace(n), eps_t, eps_r)
                if defined:
                    assert call().value >= 0
                else:
                    with pytest.raises((ConfigError, ValueError)):
                        call()


@settings(max_examples=100, deadline=None)
@given(estimator=st.sampled_from(["jensen", "hardening"]), n=st.integers(1, 4000),
       tr_frac=st.floats(0.0, 1.0), eps=st.floats(0.01, 1.0),
       unread=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
def test_oma_bound_ignores_the_unread_side(estimator, n, tr_frac, eps, unread):
    # an OMA user reads only its own slot, so the eps of the other side,
    # zero included, leaves its bound unchanged
    params, tr = SystemParams.from_db(), n + tr_frac * (n * n - n)
    for target, side in ((Scenario.OMA_T, 0), (Scenario.OMA_R, 1)):
        values = set()
        for other in unread:
            eps_pair = (eps, other) if side == 0 else (other, eps)
            values.add(rate_bound(target, estimator, params, n, tr, *eps_pair))
        assert len(values) == 1, target


def defined_or_none(*args):
    try:
        return rate_bound(*args).value
    except ValueError:  # ConfigError included
        return None


@st.composite
def bound_setups(draw):
    """A Jensen or hardening pair, valid parameters, N, tr in [N, N^2] and eps."""
    n = draw(st.integers(1, 4000))
    return dict(target=draw(st.sampled_from(list(Scenario))),
                estimator=draw(st.sampled_from(["jensen", "hardening"])),
                params=draw(valid_params()), n=n,
                tr=n + draw(st.floats(0.0, 1.0)) * (n * n - n))


def slack_le(lo, hi):
    """lo <= hi up to 1e-12 relative rounding."""
    return lo <= hi + 1e-12 * abs(hi)


class TestBoundProperties:
    @settings(max_examples=300, deadline=None)
    @given(setup=bound_setups(), eps_t=st.floats(0.0, 1.0), eps_r=st.floats(0.0, 1.0),
           step_db=st.floats(0.01, 40.0))
    def test_non_decreasing_in_transmit_power(self, setup, eps_t, eps_r, step_db):
        params = setup["params"]
        louder = dataclasses.replace(params, p_tx=params.p_tx * 10.0 ** (step_db / 10.0))
        values = [defined_or_none(setup["target"], setup["estimator"], p, setup["n"],
                                  setup["tr"], eps_t, eps_r) for p in (params, louder)]
        assert (values[0] is None) == (values[1] is None)
        if values[0] is not None:
            assert slack_le(*values)

    @settings(max_examples=300, deadline=None)
    @given(setup=bound_setups(), bits=st.integers(1, 8))
    def test_non_decreasing_in_quantization_bits(self, setup, bits):
        values = []
        for b in (bits, bits + 1):
            eps = Quantized(b).epsilon()
            values.append(defined_or_none(setup["target"], setup["estimator"],
                                          setup["params"], setup["n"], setup["tr"], eps, eps))
        assert (values[0] is None) == (values[1] is None)
        if values[0] is not None:
            assert slack_le(*values)

    @settings(max_examples=300, deadline=None)
    @given(setup=bound_setups(), eps_t=st.floats(0.0, 1.0), eps_r=st.floats(0.0, 1.0))
    def test_jensen_below_large_snr_limit(self, setup, eps_t, eps_r):
        params = setup["params"]
        for target in (Scenario.NOMA_R, *PRIMED):
            if target in PRIMED and not params.four_user:
                continue
            jensen = rate_bound(target, "jensen", params, setup["n"], setup["tr"],
                                eps_t, eps_r).value
            assert slack_le(jensen, large_snr_limit(target, params).value)
