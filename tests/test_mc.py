import concurrent.futures
import functools
import itertools
import math
import statistics
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import complex_normals
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ios_noma.analytic import (_LN2, _READS, Scenario, _mean_gain, _single_log,
                               large_snr_limit, rate_bound)
from ios_noma.channel import (ConfigError, Perfect, Quantized, SystemParams,
                              UniformFull, VonMises, correlation_factor, pathloss,
                              phase_error_from_string, standard_complex_gaussian)
from ios_noma.geometry import ArrayGeometry, correlation_matrix, mean_p2_sq, trace_rbar_sq
from ios_noma import channel, cli, mc
from ios_noma.experiments import (bundled_spec_names, load_spec, run_sweep,
                                  spec_with_overrides)
from ios_noma.mc import (BLOCK_SIZE, McConfig, McEstimate, _blocks, _boosted_gains,
                         _block_moments, _column_sums, _conditional_moments, _controls,
                         _DrawKey, _Gaussian, _group_factor, _member, _merge, _moments, _rate,
                         _side_rows, _walk_block, _walk_group, mc_batch, mc_estimates,
                         noma_trial_rates, oma_trial_rates)

QUANT1 = (Quantized(1), Quantized(1))
NOMA = (Scenario.NOMA_T, Scenario.NOMA_R)
OMA = (Scenario.OMA_T, Scenario.OMA_R)
FOUR = (Scenario.NOMA_T, Scenario.NOMA_R, Scenario.NOMA_TP, Scenario.NOMA_RP)


def estimates(geom, params, models, cfg, scenarios, **kwargs):
    """mc_estimates as a tuple in the order of scenarios."""
    out = mc_estimates(geom, params, models, cfg, scenarios, **kwargs)
    return tuple(out[s] for s in scenarios)


def four_user_params(p_dbm=20.0, shares=(0.1, 0.2, 0.3, 0.4)):
    qt, qr, qtp, qrp = (math.sqrt(s) for s in shares)
    return SystemParams.from_db(p_dbm=p_dbm, q_t=qt, q_r=qr, q_tp=qtp, q_rp=qrp,
                                d_tp=12.0, d_rp=15.0,
                                lambda_tp_db=-30.0, lambda_rp_db=-30.0)


def walked_gains(keys, links=(0, 1)):
    """The composite gains of draw keys, shape (len(keys), len(links),
    trials): one _walk_block per Gaussian key over the blocks, with that
    walk's factor, the given links of every key (positions in _LINKS, so
    both sides by default), concatenated."""
    walks = {}  # {Gaussian key: its draw keys}
    for key in keys:
        walks.setdefault(key.gaussian, []).append(key)
    gains = {}
    for gaussian, group in walks.items():
        read, factor = dict.fromkeys(group, links), _group_factor(group)
        blocks = [_walk_block(read, factor, block, count)[0]
                  for block, count in _blocks(gaussian.trials)]
        gains.update({key: np.concatenate([[walked[key][link] for link in links]
                                           for walked in blocks], axis=1)
                      for key in group})
    return np.array([gains[key] for key in keys])


def walk_table(members):
    """{draw key: {member: its _controls}}, the table _walk_group forms
    for one walk and _block_moments reads."""
    walk = {}
    for key, params, scen in members:
        walk.setdefault(key, {})[key, params, scen] = _controls(key, scen)
    return walk


class TestTrialRates:
    def test_single_element_coherent_case(self, noma_params):
        params = noma_params()
        rate_t = noma_trial_rates(Scenario.NOMA_T, params, 1.0)
        expected = math.log2(1 + params.gamma0 * params.q_t**2
                             * pathloss(params, "t") * params.alpha**2)
        assert float(rate_t) == pytest.approx(expected, rel=1e-12)

    def test_zero_transmit_power(self):
        params = SystemParams.from_db(p_dbm=-math.inf)
        assert params.p_tx == 0.0
        rt = noma_trial_rates(Scenario.NOMA_T, params, 5.0)
        rr = noma_trial_rates(Scenario.NOMA_R, params, 5.0, 5.0)
        ot, orr = (oma_trial_rates(scen, params, 5.0) for scen in OMA)
        assert (float(rt), float(rr), float(ot), float(orr)) == (0, 0, 0, 0)

    def test_zero_power_share_silences_user(self):
        params = four_user_params(shares=(0.2, 0.8, 0.0, 0.0))
        rate_tp = noma_trial_rates(Scenario.NOMA_TP, params, 4.0, 3.0, 2.0)
        rate_rp = noma_trial_rates(Scenario.NOMA_RP, params, 4.0, 3.0, 2.0, 1.0)
        assert float(rate_tp) == 0.0
        assert float(rate_rp) == 0.0


class TestDeterminism:
    # a lone call keeps nothing, so every call samples
    def test_same_seed_bitwise(self, half_wave_geometry, noma_params):
        geom = half_wave_geometry(n_h=6, n_v=4)
        cfg = McConfig(trials=4000, master_seed=99)
        a = estimates(geom, noma_params(), QUANT1, cfg, NOMA)
        b = estimates(geom, noma_params(), QUANT1, cfg, NOMA)
        assert a == b

    def test_worker_count_invariance(self, half_wave_geometry, noma_params):
        geom = half_wave_geometry(n_h=6, n_v=4)
        cfg = McConfig(trials=40_000, master_seed=99)  # three blocks on two workers
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
        key = _member(geom, params, QUANT1, McConfig(trials=512, master_seed=77),
                      [Scenario.NOMA_T], True)[0][0]
        (gains,) = _walk_block({key: (0, 1)}, factor, 0, 512)[0].values()
        noma_t, oma_t = (_rate(scen, params, gains) for scen in (Scenario.NOMA_T, Scenario.OMA_T))
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
        geom = half_wave_geometry(n_h=8, n_v=4)
        params = noma_params()
        cfg = McConfig(trials=20_000, master_seed=8)
        eps = Quantized(1).epsilon()
        tr = trace_rbar_sq(geom, True)
        n = geom.n_elements
        mc = estimates(geom, params, QUANT1, cfg, NOMA + OMA)
        bounds = [rate_bound(target, "jensen", params, n, tr, eps, eps)
                  for target in NOMA + OMA]
        for est, bound in zip(mc, bounds):
            assert est.mean <= bound.value + 3.0 * est.half_width

    def test_hardening_approximation_tracks_mc(self, half_wave_geometry,
                                               noma_params):
        geom = half_wave_geometry(n_h=10, n_v=4)
        params = noma_params()
        models = (VonMises(2.0), VonMises(2.0))
        cfg = McConfig(trials=30_000, master_seed=12)
        est_t = mc_estimates(geom, params, models, cfg, [Scenario.NOMA_T])[Scenario.NOMA_T]
        eps = models[0].epsilon()
        approx = rate_bound(Scenario.NOMA_T, "hardening", params, geom.n_elements,
                            geom.n_elements, eps, eps)
        assert abs(approx.value - est_t.mean) <= 0.3


class TestFourUser:
    def test_degenerate_power_split_matches_two_user(self, half_wave_geometry):
        geom = half_wave_geometry(n_h=10, n_v=4)
        two = SystemParams.from_db(q_t=0.6, q_r=0.8)
        four = four_user_params(shares=(0.36, 0.64, 0.0, 0.0))
        cfg = McConfig(trials=5000, master_seed=13)
        pair = estimates(geom, two, QUANT1, cfg, NOMA)
        quad = estimates(geom, four, QUANT1, cfg, FOUR)
        assert quad[0].mean == pytest.approx(pair[0].mean, rel=1e-12)
        assert quad[1].mean == pytest.approx(pair[1].mean, rel=1e-12)

    def test_requires_four_user_params(self):
        # four-user parameters route even the T rate through the four-user
        # engine, whose decoding order needs the pathloss ordering; the
        # parameters that break it cannot be built
        with pytest.raises(ConfigError, match="ordering"):
            SystemParams.from_db(
                q_t=math.sqrt(0.1), q_r=math.sqrt(0.2), q_tp=math.sqrt(0.3),
                q_rp=math.sqrt(0.4), d_tp=15.0, d_rp=12.0)

    def test_oma_under_four_user_params_equals_two_user(self, half_wave_geometry):
        # H_t and H_r come from the same streams whether or not the primed
        # gains are drawn, and OMA rates use only the t and r links
        geom = half_wave_geometry(n_h=6, n_v=4)
        cfg = McConfig(trials=3000, master_seed=23)
        four = estimates(geom, four_user_params(), QUANT1, cfg, OMA)
        two = estimates(geom, SystemParams.from_db(), QUANT1, cfg, OMA)
        assert four == two

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
            key = _member(geom, params, QUANT1, McConfig(trials=8192, master_seed=21),
                          [Scenario.NOMA_T], True)[0][0]
            (gains,) = _walk_block({key: (0,)}, factor, 0, 8192)[0].values()
            rate_t = _rate(Scenario.NOMA_T, params, gains)
            ratios.append(rate_t.var() / rate_t.mean() ** 2)
        assert ratios[0] > ratios[1] > ratios[2]


@pytest.fixture
def sampled_blocks(counting):
    """Lists the (keys, factor, block, count) of every serial block walk,
    one walk per block of a walked group."""
    return counting("_walk_block")


def batch(calls, workers=1):
    """mc_batch of (geom, params, err_models, cfg, scenarios, correlated)
    calls, each call's estimates as a tuple in the order of its
    scenarios."""
    return [tuple(out[s] for s in call[4])
            for call, out in zip(calls, mc_batch(calls, workers=workers))]


def batch_setups(geom, cfg, scenarios, setups, workers=1):
    """batch of one call per (params, correlated, models) setup."""
    return batch([(geom, params, models, cfg, tuple(scenarios), correlated)
                  for params, correlated, models in setups], workers)


def call_estimates(call):
    """estimates of one lone (geom, params, err_models, cfg, scenarios,
    correlated) call, the form mc_batch takes."""
    *args, correlated = call
    return estimates(*args, correlated=correlated)


def arrays_in(obj):
    """Every numpy array in nested dicts, tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from arrays_in(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from arrays_in(value)


class TestDrawMemo:
    def test_hit_equals_miss(self, half_wave_geometry, noma_params, sampled_blocks):
        # two link budgets on one draw key: one walk serves both members,
        # and the batch's estimate equals the lone walk of its member
        geom = half_wave_geometry(n_h=6, n_v=4)
        models = (VonMises(2.0), VonMises(1.0))
        cfg = McConfig(trials=3000, master_seed=31)
        low, high = noma_params(p_dbm=20.0), noma_params(p_dbm=45.0)
        _, hit = batch_setups(geom, cfg, NOMA + OMA, [(low, True, models), (high, True, models)])
        assert len(sampled_blocks) == 1
        assert len(sampled_blocks[0][0]) == 1  # one draw key for both members
        miss = estimates(geom, high, models, cfg, NOMA + OMA)
        assert len(sampled_blocks) == 2
        assert hit == miss

    def test_draw_key_holds_no_user_count(self, half_wave_geometry, noma_params):
        # the draw key is (Gaussian key, n_h, models), and the Gaussian key
        # (family, seed, trials, correlated), for two and four users alike
        geom, cfg = half_wave_geometry(n_h=6, n_v=4), McConfig(trials=500, master_seed=5)
        key = _DrawKey(_Gaussian(replace(geom, n_h=1), 5, 500, False), 6, QUANT1)
        for params in (noma_params(), four_user_params()):
            assert _member(geom, params, QUANT1, cfg, [Scenario.NOMA_T], False)[0][0] == key

    def test_each_key_component_redraws(self, half_wave_geometry, noma_params,
                                        sampled_blocks):
        base = dict(geom=half_wave_geometry(6, 4), params=noma_params(),
                    err_models=QUANT1, cfg=McConfig(trials=500, master_seed=5),
                    scenarios=[Scenario.NOMA_T], correlated=True)

        def draws(**change):
            before = len(sampled_blocks)
            kw = {**base, **change}
            mc_estimates(kw["geom"], kw["params"], kw["err_models"], kw["cfg"],
                         kw["scenarios"], correlated=kw["correlated"])
            return len(sampled_blocks) - before

        assert draws() == 1
        # the link budget and the scenarios are not in the draw key, but the
        # moments depend on them
        for change in (dict(geom=half_wave_geometry(7, 4)), dict(correlated=False),
                       dict(err_models=(VonMises(2.0), Quantized(1))),
                       dict(err_models=(Quantized(1), VonMises(2.0))),
                       dict(cfg=McConfig(trials=500, master_seed=6)),
                       dict(cfg=McConfig(trials=600, master_seed=5)),
                       dict(params=noma_params(p_dbm=40.0)),
                       dict(scenarios=[Scenario.OMA_R, Scenario.NOMA_R]),
                       dict(params=four_user_params(), scenarios=[Scenario.NOMA_T]),
                       dict(params=four_user_params(), scenarios=[Scenario.OMA_T])):
            assert draws(**change) == 1, change
            assert draws() == 1, change
        # a lone call walks its own key alone
        assert all(len(keys) == 1 for keys, *_ in sampled_blocks)

    def test_stored_group_holds_no_per_trial_data(self, half_wave_geometry):
        # what a walk keeps per member, and a batch holds until it returns
        geom = half_wave_geometry(4, 4)
        cfg = McConfig(trials=3 * BLOCK_SIZE + 5, master_seed=2)
        params = four_user_params()
        walked = _walk_group([member for models in (QUANT1, (Perfect(), Perfect()))
                              for member in _member(geom, params, models, cfg, FOUR + OMA,
                                                    True)], 1)
        assert all(n == cfg.trials for n, _, _ in walked.values())
        arrays = list(arrays_in(walked))
        assert len(arrays) == 2 * 6 * 2  # a mean and a co-moment per member
        # moments of (y, H_t, H_r), the amplitude sum S, three phase
        # controls (D, Q1, Q2) and the energies P2 and P2^2 per side, at
        # most 1 + 2 + 6 * 2 = 15 rows, whatever the trial count
        assert all(dim <= 15 for a in arrays for dim in a.shape)

    def test_pooled_miss_then_serial_hit_equal_serial_runs(self, half_wave_geometry):
        # the first member walks the pool, the second finalizes from its
        # moments, and both equal serial lone walks
        geom = half_wave_geometry(n_h=6, n_v=4)
        cfg = McConfig(trials=BLOCK_SIZE + 3000, master_seed=17)
        low, high = four_user_params(p_dbm=20.0), four_user_params(p_dbm=35.0)
        pooled_miss, pooled_hit = batch_setups(geom, cfg, FOUR, [(low, True, QUANT1),
                                                                 (high, True, QUANT1)],
                                               workers=2)
        assert pooled_hit == estimates(geom, high, QUANT1, cfg, FOUR)
        assert pooled_miss == estimates(geom, low, QUANT1, cfg, FOUR)

    def test_batched_link_budgets_share_one_walk(self, half_wave_geometry, counting):
        # a direct caller that varies only the transmit power on one layout
        # batches its calls, and the draws are walked once for all three
        geom, cfg = half_wave_geometry(n_h=10, n_v=4), McConfig(trials=3000, master_seed=59)
        models = (VonMises(2.0), VonMises(2.0))
        calls = [(geom, SystemParams.from_db(p_dbm=p_dbm), models, cfg, NOMA, True)
                 for p_dbm in (10.0, 25.0, 40.0)]
        walks = counting("_walk_group")
        batched = batch(calls)
        assert len(walks) == 1
        for call, est in zip(calls, batched):
            assert est == call_estimates(call), call[1].p_tx

    def test_batch_keeps_nothing(self, half_wave_geometry, noma_params, monkeypatch):
        # the batch's members live in mc._batch while it runs, and are
        # dropped when it returns or raises
        geom, cfg = half_wave_geometry(n_h=4, n_v=4), McConfig(trials=500, master_seed=73)
        calls = [(geom, noma_params(p_dbm=p_dbm), QUANT1, cfg, NOMA, True)
                 for p_dbm in (10.0, 30.0)]
        assert len(mc_batch(calls)) == 2
        assert mc._batch == {}
        seen = []

        def failing(members, workers):
            seen.append((list(members), list(mc._batch)))
            raise RuntimeError("walk failed")

        monkeypatch.setattr(mc, "_walk_group", failing)
        with pytest.raises(RuntimeError, match="walk failed"):
            mc_batch(calls)
        assert mc._batch == {}
        members = [member for call in calls for member in _member(*call)]
        assert seen == [(members, members)]

    def test_lone_repeat_walks_again(self, half_wave_geometry, noma_params, counting):
        # a lone call keeps no moments, so the same call walks twice
        geom, cfg = half_wave_geometry(n_h=4, n_v=4), McConfig(trials=500, master_seed=79)
        walks = counting("_walk_group")
        first = estimates(geom, noma_params(), QUANT1, cfg, NOMA)
        assert first == estimates(geom, noma_params(), QUANT1, cfg, NOMA)
        assert len(walks) == 2
        assert mc._batch == {}

    def test_no_pool_for_one_block(self, half_wave_geometry, noma_params, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one block")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        mc_estimates(half_wave_geometry(4, 4), noma_params(), QUANT1,
                     McConfig(trials=BLOCK_SIZE, master_seed=3), NOMA, workers=4)

    def test_sweep_samples_each_draw_key_once(self, sampled_blocks, counting):
        # fig5 interleaves two phase models over 15 SNR values on one layout
        batches = counting("mc_batch")
        calls = counting("mc_estimates")
        chains = [counting(name) for name in ("noma_trial_rates", "oma_trial_rates")]
        spec = spec_with_overrides(load_spec("fig5_rate_vs_snr"), trials=200)
        run_sweep(spec)
        assert len(sampled_blocks) == 1  # one walk for both phase models
        keys = sampled_blocks[0][0]
        assert {key.models for key in keys} == {(VonMises(1.0), VonMises(1.0)),
                                             (VonMises(2.0), VonMises(2.0))}
        assert len(keys) == 2
        assert mc._batch == {}  # dropped when the sweep returns
        # the counts a traced run reads: one batch, one engine call per MC
        # point, and one rate chain per point per block
        points = sum("mc" in scen.estimators for _, scen, _, _ in spec.points())
        assert points == 90
        assert len(batches) == 1
        assert len(batches[0][0]) == len(calls) == points
        assert sum(map(len, chains)) == points * len(list(_blocks(200)))

    @pytest.mark.parametrize("name, layouts", [("fig3_rate_vs_N", 25),
                                               ("fig7_correlation", 20)])
    def test_sweep_walks_and_factors_each_layout_once(self, name, layouts,
                                                      sampled_blocks, counting):
        # every layout of the sweep is one family (n_v, element sizes and
        # wavelength), walked once per block and correlation flag, and the
        # widest layout's factor colours the correlated walk.  fig3: four
        # phase models per layout, all correlated; fig7: both correlation
        # flags, so an i.i.d. walk beside the correlated one.  Both ask only
        # for T's rate, so every key is walked on the transmit side alone
        factors = counting("correlation_factor")
        builds = counting("correlation_matrix")
        spec = spec_with_overrides(load_spec(name), trials=200)
        run_sweep(spec)
        assert len(list(_blocks(200))) == 1
        flags = [next(iter(keys)).gaussian.correlated for keys, *_ in sampled_blocks]
        assert flags == ([True] if name.startswith("fig3") else [True, False])
        assert len(factors) == 1
        assert len(builds) == 1  # one per factor, none for the bounds
        for (keys, factor, _, _), correlated in zip(sampled_blocks, flags):
            assert len(keys) == layouts * (4 if name.startswith("fig3") else 1)
            assert len({key.gaussian for key in keys}) == 1
            assert {key.n_h for key in keys} == set(range(1, layouts + 1))
            if correlated:
                assert factor.shape == (2 * (spec.scenarios[0].overrides["n_v"] * layouts,))
            else:
                assert factor is None
            assert all(sides == {0} for sides in keys.values())
        assert mc._batch == {}


class TestMembers:
    # a member is one rate of one engine call: a call of k scenarios is k
    # members on one draw key

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("four_user", [False, True], ids=["two_user", "four_user"])
    def test_call_of_k_scenarios_is_k_members_of_one_batch(self, four_user, workers,
                                                           half_wave_geometry, counting):
        # uniform transmit phases on 6 columns: T's rates are rotated, and
        # share their draw key with the plain rates of the other users
        geom = half_wave_geometry(n_h=6, n_v=4)
        params, models, scenarios = (
            (four_user_params(), (UniformFull(), VonMises(2.0)), FOUR + OMA[:1]) if four_user
            else (SystemParams.from_db(), (UniformFull(), Quantized(1)), NOMA + OMA))
        cfg = McConfig(trials=BLOCK_SIZE + 3000, master_seed=37)
        members = _member(geom, params, models, cfg, scenarios, True)
        assert {_controls(key, scen)[0][0] for key, _, scen in members} == {"A", "H"}
        walks = counting("_walk_group")
        chains = [counting(name) for name in ("noma_trial_rates", "oma_trial_rates")]
        together = mc_estimates(geom, params, models, cfg, scenarios, workers=workers)
        apart = mc_batch([(geom, params, models, cfg, (scen,), True) for scen in scenarios],
                         workers=workers)
        assert list(together) == list(scenarios)
        assert list(together.values()) == [out[scen] for scen, out in zip(scenarios, apart)]
        # one walk per Gaussian key, of the same members either way
        assert [walked for walked, _ in walks] == [members, members]
        if workers == 1:  # a pool's chains run in its worker processes
            blocks = len(list(_blocks(cfg.trials)))
            assert sum(map(len, chains)) == 2 * len(members) * blocks

    def test_plans_are_formed_once_per_walk(self, half_wave_geometry, counting):
        # one plan per member for the walk, read by all three blocks, and
        # one per member for the fit; a rotated NOMA T beside a plain NOMA R
        geom = half_wave_geometry(n_h=6, n_v=4)
        cfg = McConfig(trials=2 * BLOCK_SIZE + 1000, master_seed=11)
        plans = counting("_controls")
        mc_estimates(geom, SystemParams.from_db(), (UniformFull(), Quantized(1)), cfg, NOMA)
        assert [scen for _, scen in plans] == [*NOMA, *NOMA]

    def test_empty_scenario_list_draws_nothing(self, half_wave_geometry, noma_params,
                                               counting):
        geom, cfg = half_wave_geometry(n_h=10, n_v=4), McConfig(trials=40_000, master_seed=1)
        spies = [counting(name) for name in
                 ("correlation_factor", "standard_complex_gaussian", "_walk_group")]
        assert mc_estimates(geom, noma_params(), QUANT1, cfg, []) == {}
        assert mc_batch([(geom, noma_params(), QUANT1, cfg, [], True)]) == [{}]
        assert spies == [[], [], []]
        assert mc._batch == {}

    @pytest.mark.parametrize("call", [
        lambda geom, params, models, cfg, scens:
            mc_estimates(geom, params, models, cfg, (scen for scen in scens)),
        lambda geom, params, models, cfg, scens:
            mc_batch([(geom, params, models, cfg, (scen for scen in scens), True)])[0],
        lambda geom, params, models, cfg, scens:
            mc_estimates(geom, params, iter(models), cfg, scens)],
        ids=["scenario_generator", "batch_scenario_generator", "model_iterator"])
    def test_iterator_arguments_give_the_list_estimates(self, call, half_wave_geometry):
        # the engine reads scenarios and err_models once: an iterator is
        # not left empty for a later read
        geom, params = half_wave_geometry(n_h=3, n_v=2), SystemParams.from_db()
        cfg, scens = McConfig(trials=500, master_seed=5), [Scenario.NOMA_T, Scenario.OMA_R]
        want = mc_estimates(geom, params, QUANT1, cfg, scens)
        assert call(geom, params, QUANT1, cfg, scens) == want
        assert mc._batch == {}


class TestBoundsBuildNoMatrix:
    # the bounds read tr(Rbar Rbar) from the offset table, never from R

    def test_analytic_sweep(self, counting):
        builds = counting("correlation_matrix")
        spec = load_spec("fig7_correlation")  # both correlation flags
        spec = replace(spec, scenarios=tuple(replace(scen, estimators=("jensen",))
                                             for scen in spec.scenarios))
        rows = run_sweep(spec)
        assert len(rows) == 40
        assert builds == []

    @pytest.mark.parametrize("extra", [[], ["--inf-snr"], ["--uncorrelated"]],
                             ids=["all", "inf_snr", "uncorrelated"])
    def test_bound_command(self, extra, counting, capsys):
        builds = counting("correlation_matrix")
        assert cli.main(["bound", "--scenario", "noma_r", "--n-h", "100",
                         "--n-v", "10", *extra]) == 0
        assert "bits/s/Hz" in capsys.readouterr().out
        assert builds == []

    def test_validate_command(self, counting, capsys):
        # validate evaluates the jensen rows of all 20 sizes x 2 flags
        builds, traces = counting("correlation_matrix"), counting("trace_rbar_sq")
        assert cli.main(["validate", "--spec", "fig7_correlation"]) == 0
        assert capsys.readouterr().out.startswith("ok:")
        assert len(traces) == 40
        assert builds == []


# (correlated, (model_t, model_r)) of the draw keys of one layout
MIXED_GROUP = [(True, (Perfect(), Perfect())), (True, QUANT1),
               (True, (Quantized(2), Quantized(2))), (True, (UniformFull(), UniformFull())),
               (False, (Quantized(2), Perfect())), (False, (UniformFull(), Quantized(1)))]
FOUR_USER_GROUP = [(True, QUANT1), (True, (VonMises(2.0), Perfect())), (False, QUANT1)]


def quarter_wave_geometry():
    """A 6 x 4 layout at quarter-wavelength spacing, clearly correlated."""
    return ArrayGeometry(n_h=6, n_v=4, elem_len_l=0.05, elem_len_w=0.05, wavelength=0.2)


def group_estimates(geom, params, members, cfg, scenarios, workers=1):
    """The estimates of members in order, from one batch: the first call
    walks the whole group on the given workers."""
    return batch_setups(geom, cfg, scenarios, [(params, *member) for member in members],
                        workers)


class TestGroupWalk:
    @pytest.mark.parametrize("four_user", [False, True], ids=["two_user", "four_user"])
    def test_group_estimates_equal_lone_serial_calls(self, four_user, counting):
        geom = quarter_wave_geometry()
        params, members, scenarios = (
            (four_user_params(), FOUR_USER_GROUP, FOUR + OMA) if four_user
            else (SystemParams.from_db(), MIXED_GROUP, NOMA + OMA))
        cfg = McConfig(trials=BLOCK_SIZE + 3000, master_seed=41)
        walks = counting("_walk_group")
        group = group_estimates(geom, params, members, cfg, scenarios, workers=2)
        assert len(walks) == 2  # one per correlation flag
        for (correlated, models), est in zip(members, group):
            assert est == estimates(geom, params, models, cfg, scenarios,
                                    correlated=correlated), (correlated, models)

    def test_group_mean_gains_match_the_exact_mean(self):
        # E[H] = N (1 - eps^2) + eps^2 tr(Rbar Rbar), per side and per key
        geom = quarter_wave_geometry()
        params = SystemParams.from_db()
        cfg = McConfig(trials=BLOCK_SIZE + 3000, master_seed=43)
        keys = [_member(geom, params, models, cfg, [Scenario.NOMA_T], correlated)[0][0]
                for correlated, models in MIXED_GROUP]
        means = set()
        for (correlated, models), gains in zip(MIXED_GROUP, walked_gains(keys)):
            tr = trace_rbar_sq(geom, correlated)
            for row, model in enumerate(models):
                exact = _mean_gain(geom.n_elements, tr, model.epsilon())
                stderr = gains[row].std(ddof=1) / math.sqrt(cfg.trials)
                assert abs(gains[row].mean() - exact) <= 4.0 * stderr, (correlated, model)
                means.add(round(exact, 6))
        # the setups differ: correlation lifts the perfect-phase mean above N
        assert len(means) >= 4

    def test_stored_control_means_are_the_jensen_gains(self, monkeypatch):
        # the means mc_estimates hands to the control-variate fit, for every
        # member of a batch: those of the gains each rate reads, H_t for
        # T's rates, H_r for OMA R's and both for NOMA R's, each followed
        # by N pi / 4 for the amplitude sum S of its side, then those of
        # the conditional mean gains D of the same sides but a Perfect one,
        # whose mean is the same Jensen gain, then N for the energy P2 of
        # every side read but a uniform one, whose D is P2, then those of
        # the energy P2^2 of every side read, Perfect ones too, then 0 for
        # the two phase controls Q1 and Q2 of each side that has a D row
        reads = {Scenario.NOMA_T: [0], Scenario.OMA_T: [0], Scenario.OMA_R: [1],
                 Scenario.NOMA_R: [0, 1]}
        passed = []
        cv_estimate = mc._cv_estimate

        def recording(moments, control_means):
            passed.append(control_means.tolist())
            return cv_estimate(moments, control_means)

        monkeypatch.setattr(mc, "_cv_estimate", recording)
        geom, params = quarter_wave_geometry(), SystemParams.from_db()
        cfg = McConfig(trials=500, master_seed=47)
        group_estimates(geom, params, MIXED_GROUP, cfg, NOMA + OMA)
        expected = []
        for correlated, models in MIXED_GROUP:
            tr = trace_rbar_sq(geom, correlated)
            exact = [_mean_gain(geom.n_elements, tr, model.epsilon()) for model in models]
            expected += [[mean for row in reads[scen]
                          for mean in (exact[row], geom.n_elements * math.pi / 4)]
                         + [exact[row] for row in reads[scen]
                            if not isinstance(models[row], Perfect)]
                         + [geom.n_elements for row in reads[scen]
                            if not isinstance(models[row], UniformFull)]
                         + [mean_p2_sq(geom, correlated)] * len(reads[scen])
                         + [0.0, 0.0] * sum(not isinstance(models[row], Perfect)
                                            for row in reads[scen])
                         for scen in NOMA + OMA]
        assert passed == expected

    def test_one_batch_spans_several_gaussian_keys(self, half_wave_geometry,
                                                   counting, monkeypatch):
        # two families (n_v = 4 and 5) at both correlation flags, and a
        # four-user member, interleaved: four Gaussian keys, since the flag
        # is part of the key and the user count is not, so the four-user
        # call joins the correlated n_v = 4 walk; each is walked once, at
        # its first call, and its estimates are those of a batch of its
        # own calls alone
        cfg = McConfig(trials=2000, master_seed=57)
        two, four = SystemParams.from_db(), four_user_params()
        calls = [(half_wave_geometry(n_h, n_v), two, QUANT1, cfg, NOMA, correlated)
                 for n_h in (2, 5) for correlated in (True, False) for n_v in (4, 5)]
        calls.insert(3, (half_wave_geometry(3, 4), four, QUANT1, cfg, FOUR, True))

        def gaussian(call):
            return _member(*call)[0][0].gaussian

        keys = [gaussian(call) for call in calls]
        assert len(set(keys)) == 4
        assert calls[3][1] is four and keys[3] == keys[0]
        entries = counting("mc_estimates")
        walks = []  # (index of the engine call that walked, its members)
        walk_group = mc._walk_group

        def walking(members, workers):
            walks.append((len(entries) - 1, list(dict.fromkeys(key for key, _, _ in members))))
            return walk_group(members, workers)

        monkeypatch.setattr(mc, "_walk_group", walking)
        together = batch(calls)
        assert len(entries) == len(calls)
        assert [i for i, _ in walks] == [i for i, key in enumerate(keys)
                                         if key not in keys[:i]]
        for key, (_, walk) in zip(dict.fromkeys(keys), walks):
            assert {k.gaussian for k in walk} == {key}
            assert len(walk) == keys.count(key)
        for key in dict.fromkeys(keys):
            family = [call for call in calls if gaussian(call) == key]
            assert batch(family) == [est for k, est in zip(keys, together) if k == key], key


def sweep_and_lone_estimates(name, trials, monkeypatch):
    """(correlated, sweep estimates, lone estimates) of every engine call
    of a bundled sweep: the sweep walks each family once, and each lone
    call walks its own layout alone."""
    calls = []

    def recording(geom, params, models, cfg, scenarios, *, correlated, workers):
        out = mc_estimates(geom, params, models, cfg, scenarios,
                           correlated=correlated, workers=workers)
        calls.append(((geom, params, models, cfg, scenarios), correlated, out))
        return out

    monkeypatch.setattr(mc, "mc_estimates", recording)
    run_sweep(spec_with_overrides(load_spec(name), trials=trials))
    assert mc._batch == {}
    return [(correlated, out, mc_estimates(*args, correlated=correlated))
            for args, correlated, out in calls]


class TestFamilyWalk:
    # one walk draws every stream at the family's widest layout, and each
    # narrower layout reads the leading rows

    @pytest.mark.parametrize("four_user", [False, True], ids=["two_user", "four_user"])
    def test_members_equal_lone_walks(self, four_user, half_wave_geometry):
        # i.i.d. members bit for bit; correlated ones up to the rounding of
        # the widest factor's leading block against the narrow factor
        params = four_user_params() if four_user else SystemParams.from_db()
        cfg = McConfig(trials=3000, master_seed=51)
        keys = [_member(half_wave_geometry(n_h, 4), params, models, cfg, [Scenario.NOMA_T],
                        correlated)[0][0]
                for n_h in (1, 3, 8) for correlated in (False, True)
                for models in (QUANT1, (UniformFull(), Perfect()),
                               (VonMises(2.0), Quantized(2)))]
        links = (0, 1, 2, 3) if four_user else (0, 1)
        for key, gains in zip(keys, walked_gains(keys, links)):
            lone = walked_gains([key], links)[0]
            if key.gaussian.correlated:
                assert np.max(np.abs(gains - lone)) <= 1e-12 * np.max(lone), key
            else:
                assert np.array_equal(gains, lone), key

    def test_fig3_estimates_equal_lone_walks(self, monkeypatch):
        # half-wavelength spacing, correlated, 100 members in one walk.  The
        # gains differ from a lone walk's by the rounding of the widest
        # factor, and the residual variance C_yy - C_yx beta is a difference
        # of C_yy-sized terms, so the half-widths are compared on the scale
        # of the plain squared half-width z^2 C_yy / ((n - 1) n)
        plain = {}  # {estimate: its plain squared half-width}
        cv_estimate = mc._cv_estimate

        def recording(moments, control_means):
            est = cv_estimate(moments, control_means)
            n, _, com = moments
            plain[est] = mc._Z95 ** 2 * com[0, 0] / ((n - 1) * n)
            return est

        monkeypatch.setattr(mc, "_cv_estimate", recording)
        for _, group, lone in sweep_and_lone_estimates("fig3_rate_vs_N", 2000,
                                                       monkeypatch):
            for scen, est in group.items():
                assert est.mean == pytest.approx(lone[scen].mean, rel=1e-12, abs=0)
                assert (abs(est.half_width ** 2 - lone[scen].half_width ** 2)
                        <= 1e-14 * plain[est]), (scen, est, lone[scen])

    def test_fig7_estimates_match_lone_walks(self, monkeypatch):
        # quarter-wavelength spacing: R is ill-conditioned, so the
        # factor's rounding shows, far below the half-width
        for correlated, group, lone in sweep_and_lone_estimates("fig7_correlation", 2000,
                                                                monkeypatch):
            for scen, est in group.items():
                if not correlated:
                    assert est == lone[scen]
                    continue
                assert abs(est.mean - lone[scen].mean) < 1e-3 * est.half_width
                assert abs(est.half_width - lone[scen].half_width) < 1e-3 * est.half_width

    def test_fig7_flags_keep_common_random_numbers(self, monkeypatch):
        # the correlated and the i.i.d. walk of fig7's one family draw the
        # same raw polar Gaussians for each stream and block, so the gap
        # between the two curves is estimated with common random numbers;
        # the correlated walk turns its draws into Re and Im in place
        draws = {}  # {correlated: {(stream, block): raw polar draw}}
        walk_block, gaussian = mc._walk_block, mc.standard_complex_gaussian
        flag = []

        def walking(keys, *args, **kwargs):
            flag[:] = [next(iter(keys)).gaussian.correlated]
            return walk_block(keys, *args, **kwargs)

        def drawing(size, rng):
            polar = gaussian(size, rng)
            draws.setdefault(flag[0], {})[rng.bit_generator.seed_seq.spawn_key] = polar.copy()
            return polar

        monkeypatch.setattr(mc, "_walk_block", walking)
        monkeypatch.setattr(mc, "standard_complex_gaussian", drawing)
        run_sweep(spec_with_overrides(load_spec("fig7_correlation"), trials=200))
        assert set(draws) == {True, False}
        assert draws[True].keys() == draws[False].keys() == {(mc._STREAM_H, 0),
                                                             (mc._STREAM_G, 0)}
        for stream_block, polar in draws[True].items():
            assert np.array_equal(polar, draws[False][stream_block]), stream_block

    def test_rank_deficient_family_walks_once(self, counting):
        # a 16 x 16 grid at lambda/8 is numerically rank deficient, so its
        # factor comes from the clipped eigh, made triangular: its leading
        # block colours the narrower layout, and the family takes one walk
        # per correlation flag
        def layout(n_h):
            return ArrayGeometry(n_h=n_h, n_v=16, elem_len_l=0.0125, elem_len_w=0.0125)

        params, cfg = SystemParams.from_db(), McConfig(trials=500, master_seed=53)
        flags = (True, False)
        walks = counting("_walk_block")
        setups = [(n_h, correlated) for n_h in (4, 16) for correlated in flags]
        group = dict(zip(setups, batch([(layout(n_h), params, QUANT1, cfg, NOMA, correlated)
                                        for n_h, correlated in setups])))
        blocks = len(list(_blocks(cfg.trials)))
        assert [(next(iter(keys)).gaussian.correlated, {key.n_h for key in keys})
                for keys, *_ in walks] == \
            [(True, {4, 16})] * blocks + [(False, {4, 16})] * blocks
        for (n_h, correlated), est in group.items():
            lone = estimates(layout(n_h), params, QUANT1, cfg, NOMA, correlated=correlated)
            if not correlated:
                assert est == lone, n_h
                continue
            for a, b in zip(est, lone):
                assert abs(a.mean - b.mean) <= 4 * math.hypot(a.half_width, b.half_width), n_h


@pytest.fixture
def phase_draws(monkeypatch):
    """Lists the (phase model, stream) of every phase-error draw."""
    draws = []
    for cls in (Perfect, VonMises, Quantized, UniformFull):
        def sample(self, size, rng, original=cls.sample):
            draws.append((self, rng.bit_generator.seed_seq.spawn_key[0]))
            return original(self, size, rng)
        monkeypatch.setattr(cls, "sample", sample)
    return draws


def precision_like_calls(cfg):
    """The six reference setups of the precision benchmark, as mc_batch
    calls: four that ask only for T's rate, two for R's."""
    params = SystemParams.from_db()
    quant2 = (Quantized(2), Quantized(2))
    setups = [(15, quant2, Scenario.NOMA_T), (15, quant2, Scenario.NOMA_R),
              (15, QUANT1, Scenario.NOMA_T), (15, (Perfect(), Perfect()), Scenario.NOMA_R),
              (10, (VonMises(2.0), VonMises(2.0)), Scenario.NOMA_T),
              (2, (UniformFull(), UniformFull()), Scenario.NOMA_T)]
    return [(ArrayGeometry(n_h=n_h, n_v=4, elem_len_l=0.05, elem_len_w=0.05),
             params, models, cfg, (scen,), True) for n_h, models, scen in setups]


def chain_gains(chains):
    """The gains handed to the rate chains: every array argument of the
    recorded calls (scen, params, *gains)."""
    return [gains for calls in chains for args in calls for gains in args[2:]]


class TestSidePruning:
    # a walk draws a side only for the draw keys whose members' rates read
    # it: T's rates read H_t alone, OMA R's H_r alone

    def test_fig3_draws_no_reflect_side(self, counting, phase_draws):
        gauss = counting("standard_complex_gaussian")
        chains = [counting(name) for name in ("noma_trial_rates", "oma_trial_rates")]
        run_sweep(spec_with_overrides(load_spec("fig3_rate_vs_N"), trials=200))
        assert len(list(_blocks(200))) == 1
        # one block of one walk: the shared h and the transmit-side g
        assert [rng.bit_generator.seed_seq.spawn_key for _, rng in gauss] == [
            (mc._STREAM_H, 0), (mc._STREAM_G, 0)]
        # perfect phases draw nothing: their gain is A^2
        assert [stream for _, stream in phase_draws] == [mc._STREAM_PHI_T] * 3
        # one chain per point, reading only H_t, never an undrawn row
        assert [len(calls) for calls in chains] == [100, 0]
        assert all(len(args) == 3 for args in chains[0])
        assert not any(np.isnan(gains).any() for gains in chain_gains(chains))

    def test_reflect_side_draws_only_the_models_that_read_it(self, counting, phase_draws):
        cfg = McConfig(trials=BLOCK_SIZE + 500, master_seed=61)
        calls = precision_like_calls(cfg)
        walks = counting("_walk_block")
        mc_batch(calls)
        assert len(walks) == len(list(_blocks(cfg.trials))) == 2
        (keys, *_), _ = walks
        # the two members on 2-bit phases share a draw key
        assert list(keys.values()) == [{0, 1}, {0}, {0, 1}, {0}, {0}]
        first = phase_draws[:len(phase_draws) // 2]
        assert phase_draws[len(phase_draws) // 2:] == first  # the second block
        # each model but Perfect once per side and block, on the reflect
        # side only those of the two members that ask for R's rate
        assert [model for model, s in first if s == mc._STREAM_PHI_T] == [
            Quantized(2), Quantized(1), VonMises(2.0), UniformFull()]
        assert [model for model, s in first if s == mc._STREAM_PHI_R] == [Quantized(2)]
        # a key holds no row of a side it does not read, and its other rows
        # are those of a walk of both sides
        factor = _group_factor(keys)
        pruned = _walk_block(keys, factor, 0, 500)[0]
        full = _walk_block(dict.fromkeys(keys, (0, 1)), factor, 0, 500)[0]
        for key, sides in keys.items():
            for row in (0, 1):
                if row in sides:
                    assert np.array_equal(pruned[key][row], full[key][row]), (key, row)
                else:
                    assert pruned[key][row] is None, (key, row)
        # one array holds the rows read, and no other
        (store,) = {id(r.base): r.base for rows in pruned.values() for r in rows
                    if r is not None}.values()
        assert store.shape == (sum(map(len, keys.values())), 500)

    def test_t_estimate_equals_its_lone_walk(self):
        cfg = McConfig(trials=3000, master_seed=67)
        calls = precision_like_calls(cfg)
        group = batch(calls)
        for call, est in zip(calls, group):
            if call[0].n_h == 15:  # the widest layout: the group's own factor
                assert est == call_estimates(call), call[2:5]

    @pytest.mark.parametrize("four_user", [False, True], ids=["two_user", "four_user"])
    def test_r_estimate_ignores_a_t_only_member(self, four_user, half_wave_geometry,
                                                counting):
        # the T-only member's phase models are drawn on the transmit side
        # alone, and the R member's draws do not depend on them; the OMA
        # R member's key is walked on the reflect side alone
        geom, cfg = half_wave_geometry(n_h=6, n_v=4), McConfig(trials=3000, master_seed=71)
        params = four_user_params() if four_user else SystemParams.from_db()
        r_call = (geom, params, QUANT1, cfg, (Scenario.NOMA_R, Scenario.OMA_R), True)
        t_call = (geom, params, (VonMises(2.0), UniformFull()), cfg, (Scenario.NOMA_T,),
                  True)
        chains = [counting(name) for name in ("noma_trial_rates", "oma_trial_rates")]
        oma_call = (geom, params, (Quantized(2), Quantized(3)), cfg, (Scenario.OMA_R,), True)
        shared, _, oma = batch([r_call, t_call, oma_call])
        assert not any(np.isnan(gains).any() for gains in chain_gains(chains))
        assert batch([r_call]) == [shared]
        assert batch([oma_call]) == [oma]

    def test_each_chain_gets_the_gains_its_scenario_reads(self, half_wave_geometry, counting):
        # one array per link of _READS[scen], in order, and never a None
        # for a slot the scenario does not read
        chains = [counting(name) for name in ("noma_trial_rates", "oma_trial_rates")]
        mc_estimates(half_wave_geometry(n_h=4, n_v=4), SystemParams.from_db(), QUANT1,
                     McConfig(trials=500, master_seed=73), NOMA + OMA)
        calls = [args for calls in chains for args in calls]
        assert len(calls) == 4 and {args[0] for args in calls} == set(NOMA + OMA)
        for scen, _, *gains in calls:
            assert len(gains) == len(_READS[scen]), scen
            assert all(isinstance(h, np.ndarray) and h.shape == (500,) for h in gains), scen

    @pytest.mark.parametrize("scen", [Scenario.OMA_T, Scenario.NOMA_T])
    def test_four_user_t_call_draws_no_primed_stream(self, scen, half_wave_geometry,
                                                     counting):
        # T's rates read the t link alone, so under four-user parameters too
        # each block draws the shared h and the transmit-side g, and no g'
        cfg = McConfig(trials=BLOCK_SIZE + 500, master_seed=29)
        gauss = counting("standard_complex_gaussian")
        mc_estimates(half_wave_geometry(n_h=6, n_v=4), four_user_params(), QUANT1, cfg, [scen])
        assert [rng.bit_generator.seed_seq.spawn_key for _, rng in gauss] == [
            (stream, block) for block in range(2) for stream in (mc._STREAM_H, mc._STREAM_G)]

    def test_two_and_four_user_calls_on_one_layout_walk_once(self, half_wave_geometry,
                                                             counting):
        # the user count is not part of the Gaussian key: a two-user NOMA R
        # call and a four-user R' call on one layout are one walk, whose
        # blocks draw h, g, g', r and r' once, and each estimate is its
        # lone call's
        geom = half_wave_geometry(n_h=6, n_v=4)
        cfg = McConfig(trials=BLOCK_SIZE + 500, master_seed=31)
        calls = [(geom, SystemParams.from_db(), QUANT1, cfg, (Scenario.NOMA_R,), True),
                 (geom, four_user_params(), QUANT1, cfg, (Scenario.NOMA_RP,), True)]
        walks, gauss = counting("_walk_group"), counting("standard_complex_gaussian")
        together = batch(calls)
        assert len(walks) == 1
        assert len(gauss) == 2 * 5
        for call, est in zip(calls, together):
            assert est == call_estimates(call), call[4]


# the midpoints of a uniform grid of 4096 turns psi
PSI = 2.0 * math.pi * (np.arange(4096) + 0.5) / 4096


def turned_sums(groups, turns=np.exp(2j * math.pi / 3 * np.arange(3))):
    """The head and tail sums of group sums G (K, count) at every turn:
    G_1 + G_2 w and G_3 + G_4 w over the turns w, or G_1 alone for a
    head of one group, the first K - K // 2 groups the head."""
    def turned(part):
        return part[0] + part[1] * turns[:, None] if len(part) == 2 else part[:1]
    k = len(groups)
    return turned(groups[:k - k // 2]), turned(groups[k - k // 2:])


def turned_gains(head, tail):
    """|S_head + S_tail exp(j psi)|^2 at every pair of head and tail
    turns and every psi of PSI, shape (heads, tails, count, len(PSI))."""
    return np.abs(head[:, None, :, None] + tail[None, :, :, None] * np.exp(1j * PSI)) ** 2


class TestRotationMean:
    """The mean of log1p(kappa |S_head + S_tail exp(j psi)|^2) over a
    uniform psi (mc._mean_log1p_over_rotation), and over the turns of
    the column groups (mc._turns)."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(kappa=st.floats(-20.0, 12.0).map(lambda e: 10.0**e),
           head=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           tail=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           near=st.booleans())
    def test_closed_form_matches_the_trapezoid(self, kappa, head, tail, near):
        if near:  # halves of nearly equal magnitude: the integrand nearly reaches 0
            tail = head * (1.0 + tail * 1e-6)
        closed = float(mc._mean_log1p_over_rotation(kappa, np.array(head), np.array(tail)))
        assert math.isfinite(closed) and closed >= 0.0
        a = head * head + tail * tail
        if head * tail == 0.0:
            assert closed == pytest.approx(math.log1p(kappa * a), rel=1e-14, abs=0.0)
        # the periodic trapezoid on the midpoints of m steps: exact to
        # rounding once the log's branch points, d = arccosh((1 + kappa A)
        # / (2 kappa |S_head| |S_tail|)) off the real axis, are far from it;
        # at d = 0 it errs by 2 log(2) / m, from the log's zero at psi = pi
        m = 4096
        psi = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        trap = float(np.log1p(kappa * (a + 2.0 * head * tail * np.cos(psi))).mean())
        b = 2.0 * kappa * head * tail
        d = math.acosh(max((1.0 + kappa * a) / b, 1.0)) if b else math.inf
        if m * d > 60.0:
            assert closed == pytest.approx(trap, rel=1e-13, abs=0.0)
        else:
            assert closed == pytest.approx(trap, rel=0.0, abs=1e-3)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(polar=st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(-math.pi, math.pi)),
                          min_size=3, max_size=4))
    def test_three_turns_keep_the_control_means(self, polar):
        # over the turns of _controls and a uniform psi, the mean of H is A
        # = sum_i |G_i|^2 and that of (H - A)^2 is 2 sum_{i<j} |G_i|^2 |G_j|^2,
        # the means the rotated A and Q2 rows rest on; the psi grid is exact
        # for these trigonometric polynomials of degree 2
        groups = np.array([r * np.exp(1j * t) for r, t in polar])[:, None]
        sq = np.abs(groups[:, 0]) ** 2
        a = sq.sum()
        pair = sum(x * y for x, y in itertools.combinations(sq, 2))
        h = turned_gains(*turned_sums(groups))
        assert h.mean() == pytest.approx(a, rel=1e-12)
        assert ((h - a) ** 2).mean() == pytest.approx(2.0 * pair, rel=1e-12)

    def test_two_turns_miss_the_second_moment(self):
        # under turns of +-1 the mean of (2 Re(x w))^2, x = G_1 conj(G_2),
        # is 2 |x|^2 + 2 Re(x^2): the mean of H stays A, but that of (H -
        # A)^2 is 16, not 12, at G = (1, 1, 1, 1); three turns are the
        # fewest whose squares also average to 0
        h = turned_gains(*turned_sums(np.ones((4, 1)), turns=np.array([1.0, -1.0])))
        assert h.mean() == pytest.approx(4.0, rel=1e-12)
        assert ((h - 4.0) ** 2).mean() == pytest.approx(16.0, rel=1e-12)
        h = turned_gains(*turned_sums(np.ones((4, 1))))
        assert ((h - 4.0) ** 2).mean() == pytest.approx(12.0, rel=1e-12)

    @pytest.mark.parametrize("n_v", [1, 3])
    def test_group_rate_is_the_mean_over_the_turns(self, n_v, monkeypatch):
        # per trial, the rotated rate of _block_moments and its A row
        # against a brute-force mean over the turns and the psi grid, from
        # the column sums of the walk's prefix summed over the groups
        # between the columns floor(i n_h / K), K = min(4, n_h)
        params, models = SystemParams.from_db(), (UniformFull(), UniformFull())
        cfg, count = McConfig(trials=500, master_seed=5), 32
        members = [member for n_h in (2, 3, 4, 7) for member in _member(
            ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=0.05, elem_len_w=0.05), params, models,
            cfg, (Scenario.NOMA_T, *OMA), True)]
        walk = walk_table(members)
        walked, stacks = [], []
        walk_block, moments = mc._walk_block, mc._moments
        monkeypatch.setattr(mc, "_walk_block",
                            lambda *args, **kw: walked.append(walk_block(*args, **kw))
                            or walked[-1])
        monkeypatch.setattr(mc, "_moments", lambda stack: stacks.append(stack) or moments(stack))
        _block_moments(walk, _group_factor(walk), 0, count)
        ((gains, _, prefixes),) = walked
        for (key, _, scen), stack in zip(members, stacks):
            n_h, side = key.n_h, int(scen is Scenario.OMA_R)
            prefix = prefixes[side, UniformFull()]
            assert np.array_equal(np.abs(prefix[n_h - 1]) ** 2, gains[key][side])
            k = min(4, n_h)
            cols = np.diff(prefix[:n_h], axis=0, prepend=0)
            groups = np.array([cols[i * n_h // k:(i + 1) * n_h // k].sum(axis=0)
                               for i in range(k)])
            head, tail = turned_sums(groups)
            h = turned_gains(head, tail)
            np.testing.assert_allclose(stack[1], h.mean(axis=(0, 1, 3)), rtol=1e-13, atol=0)
            kappa, share = _single_log(params, scen)
            closed, trap = stack[0] * _LN2 / share, np.log1p(kappa * h).mean(axis=(0, 1, 3))
            # test_closed_form_matches_the_trapezoid's tolerances, at the
            # turn of each trial nearest the log's branch points
            a = np.abs(head[:, None]) ** 2 + np.abs(tail[None]) ** 2
            b = 2.0 * kappa * np.abs(head[:, None]) * np.abs(tail[None])
            d = np.arccosh(np.maximum((1.0 + kappa * a) / b, 1.0)).min(axis=(0, 1))
            far = len(PSI) * d > 60.0
            np.testing.assert_allclose(closed[far], trap[far], rtol=1e-13, atol=0)
            np.testing.assert_allclose(closed[~far], trap[~far], rtol=0, atol=1e-3)
        # one closed form per pair of turns: heads (1 or 3, 1, count)
        # against tails (3, count) give (heads, 3, count)
        for heads in (1, 3):
            closed = mc._mean_log1p_over_rotation(0.5, np.ones((heads, 1, count)),
                                                  np.ones((3, count)))
            assert closed.shape == (heads, 3, count)


# The tangent kernel's cosines and sines are within 3.5e-16 of the exact
# values, so a gain moves by a few ulp of A^2, A = sum_n |amp_n|: by at
# most 1.37e-15 A^2 over 4000 trials of each phase model, on real or
# complex amplitudes
GAIN_ERROR = 1e-14


def plain_gains(amp, tangents, n_v):
    """|sum_n amp_n exp(j phi_n)|^2 per trial over the leading n_v n_h
    elements, phi_n = 2 arctan t_n, one row per n_h, with A = sum_n
    |amp_n| over the same elements: per-column sums of the complex terms,
    accumulated."""
    count = tangents.shape[1]
    terms = (amp * np.exp(2j * np.arctan(tangents))).reshape(-1, n_v, count)
    return (np.abs(np.cumsum(np.sum(terms, axis=1), axis=0)) ** 2,
            np.cumsum(np.abs(amp).reshape(-1, n_v, count).sum(axis=1), axis=0))


def assert_gains_near_plain(gains, amp, tangents, n_v, label=None):
    plain, total = plain_gains(amp, tangents, n_v)
    for n_h, row in gains.items():
        assert np.all(np.isfinite(row)), (label, n_h)
        assert np.all(np.abs(row - plain[n_h - 1]) <= GAIN_ERROR * total[n_h - 1] ** 2), \
            (label, n_h)


# half-angle tangents of the phases 0, +-pi / 2 and +-pi, and near that pole
EDGE_TANGENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.tan(math.pi / 2), -math.tan(math.pi / 2)]),
    st.builds(lambda side, t: side * t, st.sampled_from([-1.0, 1.0]),
              st.floats(1e12, 1.7e16)))


class TestBoostedGain:
    def test_in_place_kernel_equals_the_plain_expression(self):
        # the tangent kernel against the complex expression, to GAIN_ERROR
        # A^2, on real amplitudes and on complex ones, as the primed terms
        rng = np.random.default_rng(3)
        count = 300
        for model in (VonMises(2.0), Quantized(1), Quantized(3), UniformFull(), Perfect()):
            for n_v, widths in ((4, range(1, 11)), (4, [3, 7, 10]), (1, [1, 10]),
                                (10, [2, 5])):
                n = n_v * max(widths)
                mag_a = np.abs(rng.standard_normal((n, count)))
                mag_h = np.abs(rng.standard_normal((n, count)))
                mag_a[::3] = 0.0
                mag_h[:, ::7] = 0.0
                tangents = model.sample((n, count), rng)
                # the engine forms mag_a * mag_h once and shares it across
                # phase models
                amp = mag_a * mag_h
                gains = _boosted_gains(amp, tangents, n_v, widths)
                assert sorted(gains) == sorted(widths)
                assert_gains_near_plain(gains, amp, tangents, n_v, (model, n_v))
                turned = amp * np.exp(1j * rng.uniform(-math.pi, math.pi, amp.shape))
                gains = _boosted_gains(np.stack([turned.real, turned.imag], axis=1),
                                       tangents, n_v, widths)
                assert_gains_near_plain(gains, turned, tangents, n_v, (model, n_v, "complex"))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n_v=st.integers(1, 3), n_h=st.integers(1, 4), count=st.integers(1, 5),
           data=st.data())
    def test_edge_phases_give_finite_gains(self, n_v, n_h, count, data):
        # RuntimeWarnings are errors under this suite's filterwarnings
        size = n_v * n_h * count
        tangents = np.reshape(data.draw(st.lists(EDGE_TANGENTS, min_size=size,
                                                 max_size=size)), (n_v * n_h, count))
        amp = np.reshape(data.draw(st.lists(st.floats(0.0, 10.0), min_size=size,
                                            max_size=size)), (n_v * n_h, count))
        gains = _boosted_gains(amp, tangents, n_v, range(1, n_h + 1))
        assert_gains_near_plain(gains, amp, tangents, n_v)

    @pytest.mark.parametrize("n_h, n_v, spacing", [(25, 4, 2), (20, 5, 4), (15, 4, 2)],
                             ids=["fig3", "fig7", "precision_point"])
    def test_real_colouring_equals_the_complex_product(self, n_h, n_v, spacing):
        # the engine colours a draw in place, over each row's real parts
        # and then its imaginary parts, (n, 2 count), in tiles: the bits of
        # one real product, whether the last tile is full or takes a
        # remainder
        geom = ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=0.1 / spacing,
                             elem_len_w=0.1 / spacing, wavelength=0.1)
        factor = correlation_factor(correlation_matrix(geom))
        for count in (1, 1000, 1024, 1025, 2049, 5003, 16383, BLOCK_SIZE):
            draw = standard_complex_gaussian((geom.n_elements, count), np.random.default_rng(4))
            real = draw.reshape(geom.n_elements, 2 * count)
            product = factor @ real
            coloured = channel._colour_in_place(factor, real)
            assert coloured is real
            assert np.array_equal(real, product), count


PERFBENCH_SPECS = Path(__file__).parents[1] / "perfbench" / "specs"
PRECISION_POINT = PERFBENCH_SPECS / "precision_point.ini"


class TestWalkMemory:
    # tracemalloc counts numpy's arrays at their size, wherever the
    # allocator places them, unlike the process's peak RSS.  At its peak a
    # 60-element block of precision_point holds the polar draw being
    # coloured (15.7 MB), |h| and the new |g||h| (7.9 MB each), about 35 MB
    # in all; one more (60, 16384) temporary would exceed the bound.  fig5
    # draws von Mises phases on both sides of N = 40: its bound keeps the
    # sampler's chunks from growing with the draw.  fig8 walks the primed
    # terms of N = 40 (39.3 MB): a view that kept the unit phasors of a
    # side alive through its phase draws read 60.3 MB
    @pytest.mark.parametrize("spec_path, bound", [(PRECISION_POINT, 38e6),
                                                  (PERFBENCH_SPECS / "fig5_rate_vs_snr.ini", 24e6),
                                                  (PERFBENCH_SPECS / "fig8_multiuser.ini", 42e6)],
                             ids=["precision_point", "fig5", "fig8"])
    def test_one_block_sweep_keeps_its_traced_peak(self, spec_path, bound):
        spec = spec_with_overrides(load_spec(spec_path), trials=BLOCK_SIZE)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= bound


class TestConfigAndEstimate:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=50)
        with pytest.raises(ValueError, match="master_seed"):
            McConfig(master_seed=-1)
        with pytest.raises(ValueError):
            McEstimate(mean=1.0, half_width=-0.1, trials=100)

    @pytest.mark.parametrize("bad", [dict(trials=1e4), dict(trials=5000.0),
                                     dict(master_seed=1.5)])
    def test_config_counts_must_be_integers(self, bad):
        # a float count used to construct and fail inside the walk
        with pytest.raises(ValueError, match="must be an integer"):
            McConfig(**bad)

    def test_numpy_integer_config_gives_the_int_estimates(self, half_wave_geometry,
                                                          noma_params):
        geom = half_wave_geometry(n_h=4, n_v=4)
        numpy_cfg = McConfig(trials=np.int64(5000), master_seed=np.int64(3))
        assert estimates(geom, noma_params(), QUANT1, numpy_cfg, NOMA) == \
            estimates(geom, noma_params(), QUANT1, McConfig(trials=5000, master_seed=3), NOMA)

    def test_z95_is_the_normal_quantile(self):
        # a literal, so that the package need not import statistics
        assert mc._Z95 == statistics.NormalDist().inv_cdf(0.975)

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


class TestPrimedGainMean:
    # The primed composites reuse the boost set: the leftover phase at
    # element n is arg(g'_n) - arg(g_n) + phi_n.  It is uniform per
    # element, but on a correlated layout the elements' leftovers are
    # correlated too, so E[H'] = N holds only for i.i.d. elements.

    @staticmethod
    def primed_z_scores(correlated):
        """(sample mean of H' - N) / stderr, for H_t' and H_r'."""
        geom = quarter_wave_geometry()
        params, cfg = four_user_params(), McConfig(trials=4000, master_seed=3)
        (gains,) = walked_gains([_member(geom, params, QUANT1, cfg, [Scenario.NOMA_T],
                                         correlated)[0][0]], links=(2, 3))
        return [(h.mean() - geom.n_elements) / (h.std(ddof=1) / math.sqrt(h.size))
                for h in gains]

    def test_iid_elements_have_mean_n(self):
        assert all(abs(z) <= 4.0 for z in self.primed_z_scores(False))

    def test_correlated_elements_exceed_n(self):
        # about 19 standard errors at this layout (H' near 37 against N = 24)
        assert all(z > 10.0 for z in self.primed_z_scores(True))


class TestWalkedGainsPerTrial:
    # The walk's H_t, H_r, H_t' and H_r' against plain complex numpy on the
    # raw streams of the block, trial by trial.  The law-based tests above
    # cannot tell arg g' - arg g from arg g - arg g': both have one law.

    @pytest.mark.parametrize("correlated", [True, False])
    def test_gains_are_the_complex_sums(self, correlated):
        geom = quarter_wave_geometry()
        params, cfg = four_user_params(), McConfig(trials=700, master_seed=17)
        models = (Quantized(1), VonMises(2.0))
        keys = [_member(replace(geom, n_h=n_h), params, models, cfg, [Scenario.NOMA_T],
                        correlated)[0][0] for n_h in (6, 3)]
        walked = walked_gains(keys, links=(0, 1, 2, 3))
        factor = _group_factor(keys)

        def rng(stream):
            seq = np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(stream, 0))
            return np.random.Generator(np.random.PCG64(seq))

        def fading(stream):
            z = complex_normals((geom.n_elements, cfg.trials), rng(stream))
            return z if factor is None else factor @ z

        h = np.abs(fading(mc._STREAM_H))
        for side, (stream, stream_p, stream_phi) in enumerate((
                (mc._STREAM_G, mc._STREAM_GP, mc._STREAM_PHI_T),
                (mc._STREAM_R, mc._STREAM_RP, mc._STREAM_PHI_R))):
            g, g_p = fading(stream), fading(stream_p)
            phi = 2.0 * np.arctan(models[side].sample(g.shape, rng(stream_phi)))
            terms = (np.abs(g) * h * np.exp(1j * phi),
                     np.abs(g_p) * h * np.exp(1j * np.angle(g_p))
                     * np.exp(-1j * np.angle(g)) * np.exp(1j * phi))
            # arg g_n moves by the rounding of the colouring over |g_n|, so
            # a primed term's error bound is weighted by 1 + 1 / |g_n|
            weights = (np.ones(g.shape), 1.0 + 1.0 / np.abs(g))
            for (n_h, gains), row in itertools.product(zip((6, 3), walked), (side, side + 2)):
                n, primed = geom.n_v * n_h, row // 2
                plain = np.abs(terms[primed][:n].sum(axis=0)) ** 2
                total = (np.abs(terms[primed][:n]) * weights[primed][:n]).sum(axis=0)
                assert np.all(np.abs(gains[row] - plain) <= GAIN_ERROR * total ** 2), (n_h, row)


def plain_moments(stack):
    """Two-pass mean and co-moment of the whole array."""
    mean = stack.mean(axis=1)
    dev = stack - mean[:, None]
    return mean, dev @ dev.T


def merged(stack, sizes):
    """The block merge over consecutive blocks of the given sizes."""
    edges = np.cumsum([0, *sizes])
    return functools.reduce(_merge, (_moments(stack[:, a:b])
                                     for a, b in zip(edges[:-1], edges[1:])))


@st.composite
def two_user_setups(draw):
    """A valid two-user SystemParams, a layout, a correlation flag and two
    phase-error models."""
    theta = draw(st.floats(0.05, 1.5))
    share = draw(st.floats(0.01, 0.49))
    params = SystemParams.from_db(
        p_dbm=draw(st.floats(-20.0, 60.0)), d_b=draw(st.floats(1.0, 30.0)),
        d_t=draw(st.floats(1.0, 30.0)), d_r=draw(st.floats(1.0, 30.0)),
        chi=draw(st.floats(2.0, 4.0)), alpha=math.cos(theta), beta=math.sin(theta),
        q_t=math.sqrt(share), q_r=math.sqrt(1.0 - share))
    wavelength = 0.1
    spacing = wavelength / draw(st.sampled_from([2, 4, 8]))
    geom = ArrayGeometry(n_h=draw(st.integers(1, 8)), n_v=draw(st.integers(1, 4)),
                         elem_len_l=spacing, elem_len_w=spacing, wavelength=wavelength)
    model = st.one_of(st.just(Perfect()), st.just(UniformFull()),
                      st.builds(Quantized, st.integers(1, 3)),
                      st.builds(VonMises, st.floats(0.5, 4.0)))
    return params, geom, draw(st.booleans()), (draw(model), draw(model))


@st.composite
def edge_setups(draw):
    """A two_user_setups draw whose layout is a single element half the
    time, with phase models up to near-perfect: quantized:b up to b = 27
    and von Mises kappa up to 1e7."""
    params, geom, correlated, _ = draw(two_user_setups())
    if draw(st.booleans()):
        geom = replace(geom, n_h=1, n_v=1)
    model = st.one_of(st.just(Perfect()), st.just(UniformFull()),
                      st.builds(Quantized, st.integers(1, 27)),
                      st.builds(VonMises, st.floats(-2.0, 7.0).map(lambda e: 10.0**e)))
    return params, geom, correlated, (draw(model), draw(model))


@st.composite
def four_user_setups(draw):
    """A valid four-user SystemParams (distances ordered d_t < d_r < d_tp <
    d_rp at equal intercepts, so the pathlosses are ordered), a layout, a
    correlation flag and two phase-error models."""
    _, geom, correlated, models = draw(two_user_setups())
    theta = draw(st.floats(0.05, 1.5))
    d_t, d_r, d_tp, d_rp = sorted(draw(st.lists(st.floats(1.0, 30.0), min_size=4,
                                                max_size=4, unique=True)))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
    assume(weights[0] < weights[1])
    q_t, q_r, q_tp, q_rp = (math.sqrt(w / sum(weights)) for w in weights)
    params = SystemParams.from_db(
        p_dbm=draw(st.floats(-20.0, 60.0)), d_b=draw(st.floats(1.0, 30.0)),
        d_t=d_t, d_r=d_r, d_tp=d_tp, d_rp=d_rp, chi=draw(st.floats(2.0, 4.0)),
        alpha=math.cos(theta), beta=math.sin(theta), q_t=q_t, q_r=q_r, q_tp=q_tp, q_rp=q_rp)
    return params, geom, correlated, models


def energy_stderr(geom, correlated, trials, sample_stderr):
    """The standard error to check a mean of P2^2 over trials with, P2 =
    sum_n |g_n|^2 |h_n|^2 for independent g, h ~ CN(0, R): the larger of
    the sample's own and the exact one.  E[P2^4] sums, over every 4-tuple
    of elements, E[|g_a|^2 |g_b|^2 |g_c|^2 |g_d|^2]^2, the squared
    permanent of R on the tuple (560 = 24^2 - 4^2 at N = 1).  P2^2 is
    heavy-tailed.  A sample that misses its tail reads a low mean and
    understates its own standard error (at N = 2, a 1 x 2 layout at
    lambda / 4, one 2000-trial sample read 0.57 against the exact 1.26),
    and one that holds a rare large trial reads a high mean and a standard
    error raised with it.  Over 20000 samples of 2000 trials at N = 1 and
    at that N = 2, the largest |z| was 3.1 against the larger standard
    error, and 4.5 was exceeded in 0.14 % and 0.08 % of them against the
    exact one alone."""
    corr = correlation_matrix(geom) if correlated else np.eye(geom.n_elements)
    n = len(corr)
    perm = np.zeros((n,) * 4)
    for sigma in itertools.permutations(range(4)):
        term = 1.0
        for k, j in enumerate(sigma):
            if k != j:  # R_nn = 1
                shape = [1] * 4
                shape[k] = shape[j] = n
                term = term * corr.reshape(shape)
        perm += term
    exact = math.sqrt((np.sum(perm * perm) - mean_p2_sq(geom, correlated) ** 2) / trials)
    return max(exact, sample_stderr)


def level_stderr(geom, correlated, trials, sample_stderr):
    """The standard error to check a mean of P2 over trials with: the
    larger of the sample's own and the exact one, from Var(P2) = E[P2^2]
    - N^2, as E[P2] = N."""
    exact = math.sqrt((mean_p2_sq(geom, correlated) - geom.n_elements ** 2) / trials)
    return max(exact, sample_stderr)


class TestExactMeanGain:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(setup=two_user_setups(), seed=st.integers(0, 2**32 - 1))
    def test_stored_gain_means_match_the_exact_mean(self, setup, seed):
        # E[H] = N (1 - eps^2) + eps^2 tr(Rbar Rbar) on random layouts, both
        # correlation flags and all four phase-model kinds
        _, geom, correlated, models = setup
        params, cfg = SystemParams.from_db(), McConfig(trials=2000, master_seed=seed)
        (gains,) = walked_gains([_member(geom, params, models, cfg, [Scenario.NOMA_T],
                                         correlated)[0][0]])
        tr = trace_rbar_sq(geom, correlated)
        for h, model in zip(gains, models):
            exact = _mean_gain(geom.n_elements, tr, model.epsilon())
            stderr = h.std(ddof=1) / math.sqrt(h.size)
            assert abs(h.mean() - exact) <= 4.5 * stderr, (geom, correlated, model)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(setup=two_user_setups(), seed=st.integers(0, 2**32 - 1))
    def test_walked_energy_means_match_the_exact_mean(self, setup, seed):
        # E[P2] = N and E[P2^2] = sum_{n, m} (1 + R_nm^2)^2 for P2 = sum_n
        # |g_n|^2 |h_n|^2 on random layouts and both correlation flags, from
        # the column sums of the walk that the energy controls read, both
        # sides, within 4.5 standard errors (see level_stderr and
        # energy_stderr)
        _, geom, correlated, models = setup
        cfg = McConfig(trials=2000, master_seed=seed)
        ((key, _, _),) = _member(geom, SystemParams.from_db(), models, cfg, [Scenario.NOMA_T],
                                 correlated)
        both = {key: (0, 1)}
        blocks = [_walk_block(both, _group_factor(both), block, count)[1]
                  for block, count in _blocks(cfg.trials)]
        exact = mean_p2_sq(geom, correlated)
        for side in (0, 1):
            level = np.concatenate([sums[side][geom.n_h][1] for sums in blocks])
            stderr = level_stderr(geom, correlated, level.size,
                                  level.std(ddof=1) / math.sqrt(level.size))
            assert abs(level.mean() - geom.n_elements) <= 4.5 * stderr, (geom, correlated, side)
            energy = level ** 2
            stderr = energy_stderr(geom, correlated, energy.size,
                                   energy.std(ddof=1) / math.sqrt(energy.size))
            assert abs(energy.mean() - exact) <= 4.5 * stderr, (geom, correlated, side)

    @pytest.mark.parametrize("correlated", [True, False], ids=["correlated", "iid"])
    @pytest.mark.parametrize("geom", [
        ArrayGeometry(n_h=1, n_v=1, elem_len_l=0.05, elem_len_w=0.05),
        ArrayGeometry(n_h=2, n_v=4, elem_len_l=0.05, elem_len_w=0.05),
        ArrayGeometry(n_h=4, n_v=5, elem_len_l=0.05, elem_len_w=0.05, wavelength=0.2)],
        ids=["1x1", "2x4", "fig7_4x5"])
    def test_amplitude_sum_has_mean_n_pi_over_4(self, geom, correlated, monkeypatch):
        # E[S] = sum_n E|g_n| E|h_n| = N pi / 4 for S = sum_n |g_n||h_n|:
        # R has a unit diagonal, so every |g_n| and |h_n| is Rayleigh with
        # mean sqrt(pi) / 2, and g and h are independent.  The S rows that
        # _side_rows hands the fit, both sides, against the means that
        # mc_estimates hands it, within 4.5 standard errors; fig7's
        # quarter-wavelength 5-row layout is colored by its Cholesky factor
        params, models = SystemParams.from_db(), (Quantized(1), Perfect())
        cfg = McConfig(trials=20000, master_seed=61)
        ((key, _, scen),) = _member(geom, params, models, cfg, [Scenario.NOMA_R], correlated)
        handed = []
        cv_estimate = mc._cv_estimate

        def recording(moments, means):
            handed.append(means)
            return cv_estimate(moments, means)

        monkeypatch.setattr(mc, "_cv_estimate", recording)
        mc_estimates(geom, params, models, cfg, [scen], correlated=correlated)
        both = {key: (0, 1)}
        factor = _group_factor(both)
        if correlated:
            assert np.array_equal(factor, np.linalg.cholesky(correlation_matrix(geom)))
        blocks = [_walk_block(both, factor, block, count) for block, count in _blocks(cfg.trials)]
        plan = _controls(key, scen)
        for side, model in enumerate(models):
            s = np.concatenate([_side_rows(model, gains[key][side], sums[side][geom.n_h])["S"]
                                for gains, sums, _ in blocks])
            stderr = s.std(ddof=1) / math.sqrt(s.size)
            mean = handed[0][plan.index(("S", side))]
            assert abs(s.mean() - mean) <= 4.5 * stderr, (geom, correlated, side, s.mean(), mean)


ALL_KINDS = [Perfect(), UniformFull(), Quantized(1), Quantized(2), Quantized(5),
             VonMises(0.0), VonMises(0.5), VonMises(2.0), VonMises(50.0)]


class SymmetricLaw:
    """Phases +-theta_i with probability p_i / 2 each: a law whose
    moments can be summed exactly over every combination of phases."""

    def __init__(self, thetas, probs):
        self.atoms = [(sign * t, p / 2) for t, p in zip(thetas, probs) for sign in (1, -1)]

    def epsilon(self):
        return sum(p * math.cos(t) for t, p in self.atoms)

    def epsilon2(self):
        return sum(p * math.cos(2 * t) for t, p in self.atoms)


def pair_sums(amps):
    """The _column_sums of one trial's element amplitudes, one element per
    column."""
    amps = np.asarray(amps, dtype=float)
    return _column_sums(amps[:, None], 1, {amps.size})[amps.size]


# The gain and amplitude-sum entries that open every plan of NOMA R
NOMA_R_GAINS = (("H", 0), ("S", 0), ("H", 1), ("S", 1))
# The controls of NOMA R on sides of N >= 6 elements whose phases take
# every control, such as 2 x 4 under 1-bit errors
NOMA_R_PLAN = (*NOMA_R_GAINS, ("D", 0), ("D", 1), ("P2", 0), ("P2", 1), ("E", 0), ("E", 1),
               ("Q1", 0), ("Q2", 0), ("Q1", 1), ("Q2", 1))


class TestPhaseControls:
    @pytest.mark.parametrize("model", ALL_KINDS, ids=repr)
    def test_second_moment_matches_the_two_element_form(self, model):
        # H = s + 2 p cos(phi_1 - phi_2), so E[H^2 | a] = s^2 + 4 c^2 s p
        # + 2 p^2 (1 + c2^2) with s = a1^2 + a2^2 and p = a1 a2
        c, c2 = model.epsilon(), model.epsilon2()
        for a1, a2 in [(1.0, 1.0), (0.3, 2.0), (1e-3, 5.0), (7.0, 0.9)]:
            s, p = a1 * a1 + a2 * a2, a1 * a2
            mean, var = _conditional_moments(model, pair_sums([a1, a2]))
            assert mean[0] == pytest.approx(s + 2 * c * c * p, rel=1e-12)
            second = s * s + 4 * c * c * s * p + 2 * p * p * (1 + c2 * c2)
            assert mean[0] ** 2 + var[0] == pytest.approx(second, rel=1e-12), (a1, a2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_moments_match_an_exact_sum_over_phases(self, n):
        # every combination of the phases of a four-point law, summed
        rng = np.random.default_rng(n)
        law = SymmetricLaw(rng.uniform(0, math.pi, 2), rng.dirichlet(np.ones(2)))
        amps = rng.uniform(0.1, 2.0, n)
        first = second = 0.0
        for combo in itertools.product(law.atoms, repeat=n):
            h = abs(np.sum(amps * np.exp(1j * np.array([t for t, _ in combo])))) ** 2
            weight = math.prod(p for _, p in combo)
            first += weight * h
            second += weight * h * h
        mean, var = _conditional_moments(law, pair_sums(amps))
        assert mean[0] == pytest.approx(first, rel=1e-12)
        assert var[0] == pytest.approx(second - first * first, rel=1e-9, abs=1e-12 * second)

    def test_sides_that_take_phase_controls(self):
        # the D, Q1 and Q2 rows of a side of N >= 2 elements whose phases
        # move H, beside its gain, S, P2 and E rows
        geom = ArrayGeometry(n_h=2, n_v=4, elem_len_l=0.05, elem_len_w=0.05)
        cfg, four = McConfig(trials=500), four_user_params()

        def plan(geom, models, scen, params=SystemParams.from_db()):
            return _controls(_member(geom, params, models, cfg, [scen], True)[0][0], scen)

        assert plan(geom, QUANT1, Scenario.NOMA_R) == NOMA_R_PLAN
        assert plan(geom, QUANT1, Scenario.OMA_R) == (
            ("H", 1), ("S", 1), ("D", 1), ("P2", 1), ("E", 1), ("Q1", 1), ("Q2", 1))
        assert plan(geom, (Perfect(), UniformFull()), Scenario.NOMA_R) == (
            *NOMA_R_GAINS, ("D", 1), ("P2", 0), ("E", 0), ("E", 1), ("Q1", 1), ("Q2", 1))
        # one element: H = a^2 whatever the phase
        assert plan(replace(geom, n_h=1, n_v=1), QUANT1, Scenario.NOMA_R) == NOMA_R_GAINS
        assert plan(replace(geom, n_h=1, n_v=2), QUANT1, Scenario.NOMA_R) == (
            *NOMA_R_GAINS, ("D", 0), ("D", 1), ("Q1", 0), ("Q2", 0), ("Q1", 1), ("Q2", 1))
        # near-perfect phases move H by less than the controls resolve
        assert plan(geom, (Quantized(27), VonMises(1e7)), Scenario.NOMA_R) == (
            *NOMA_R_GAINS, ("P2", 0), ("P2", 1), ("E", 0), ("E", 1))
        assert plan(geom, (Quantized(7), VonMises(1e3)), Scenario.NOMA_R) == NOMA_R_PLAN
        # the primed users keep their gain controls alone
        assert plan(geom, QUANT1, Scenario.NOMA_TP, four) == (("H", 0), ("H", 1))
        assert plan(geom, QUANT1, Scenario.NOMA_R, four) == NOMA_R_PLAN

    def test_sides_that_take_the_energy_control(self):
        cfg, four = McConfig(trials=500), four_user_params()

        def plan(n_h, n_v, models, scen, params=SystemParams.from_db()):
            geom = ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=0.05, elem_len_w=0.05)
            return _controls(_member(geom, params, models, cfg, [scen], True)[0][0], scen)

        # every side a rate reads, whatever its phases, from N = 6 on
        for models, wide, narrow in [
                (QUANT1, NOMA_R_PLAN, (*NOMA_R_GAINS, ("D", 0), ("D", 1),
                                       ("Q1", 0), ("Q2", 0), ("Q1", 1), ("Q2", 1))),
                ((Perfect(), UniformFull()),
                 (*NOMA_R_GAINS, ("D", 1), ("P2", 0), ("E", 0), ("E", 1), ("Q1", 1), ("Q2", 1)),
                 (*NOMA_R_GAINS, ("D", 1), ("Q1", 1), ("Q2", 1))),
                ((Quantized(27), VonMises(1e7)),
                 (*NOMA_R_GAINS, ("P2", 0), ("P2", 1), ("E", 0), ("E", 1)),
                 NOMA_R_GAINS)]:
            assert plan(2, 3, models, Scenario.NOMA_R) == wide
            assert plan(5, 1, models, Scenario.NOMA_R) == narrow
        assert plan(6, 1, QUANT1, Scenario.OMA_R) == (
            ("H", 1), ("S", 1), ("D", 1), ("P2", 1), ("E", 1), ("Q1", 1), ("Q2", 1))
        # rotated rates too, even with one element per group
        uniform = (UniformFull(), UniformFull())
        rotated = (("A", 0), ("S", 0), ("D", 0), ("E", 0), ("Q1", 0), ("Q2", 0))
        assert plan(6, 1, uniform, Scenario.NOMA_T) == rotated
        assert plan(2, 4, uniform, Scenario.OMA_T) == rotated
        assert plan(4, 1, uniform, Scenario.OMA_R) == (("A", 1), ("S", 1))
        # the primed users keep their gain controls alone
        assert plan(2, 4, QUANT1, Scenario.NOMA_TP, four) == (("H", 0), ("H", 1))
        assert plan(2, 4, QUANT1, Scenario.NOMA_RP, four) == (("H", 0), ("H", 1))
        assert plan(2, 4, QUANT1, Scenario.NOMA_R, four) == NOMA_R_PLAN

    @pytest.mark.parametrize("correlated", [True, False])
    def test_perfect_side_rows_are_its_gain_and_zeros(self, correlated, half_wave_geometry):
        # a Perfect side's plan takes no D, Q1 or Q2 (see _controls), but
        # its side table forms them: D is H bit for bit, and Q1 and Q2 are 0
        (member,) = _member(half_wave_geometry(n_h=6, n_v=4), SystemParams.from_db(),
                            (Perfect(), Perfect()), McConfig(trials=500, master_seed=3),
                            [Scenario.NOMA_R], correlated)
        key = member[0]
        gains, sums, _ = _walk_block({key: {0, 1}}, _group_factor([key]), 0, 500)
        for side in (0, 1):
            rows = _side_rows(Perfect(), gains[key][side], sums[side][key.n_h])
            assert np.array_equal(rows["D"], rows["H"])
            assert not rows["Q1"].any() and not rows["Q2"].any()

    def test_one_element_side_rows_are_finite(self):
        # N = 1 takes no phase or energy rows, but its side table forms
        # them all, finite
        geom = ArrayGeometry(n_h=1, n_v=1, elem_len_l=0.05, elem_len_w=0.05)
        (member,) = _member(geom, SystemParams.from_db(), QUANT1,
                            McConfig(trials=500, master_seed=3), [Scenario.NOMA_R], True)
        key = member[0]
        gains, sums, _ = _walk_block({key: {0, 1}}, _group_factor([key]), 0, 500)
        for side in (0, 1):
            rows = _side_rows(Quantized(1), gains[key][side], sums[side][1])
            assert set(rows) == {"H", "S", "D", "P2", "E", "Q1", "Q2"}
            assert all(np.isfinite(row).all() for row in rows.values())

    @pytest.mark.parametrize("n_v, n_h, models, plan", [
        (4, 2, (Perfect(), Perfect()),
         (*NOMA_R_GAINS, ("P2", 0), ("P2", 1), ("E", 0), ("E", 1))),
        (1, 1, QUANT1, NOMA_R_GAINS),
        (4, 2, (Quantized(27), VonMises(1e7)),
         (*NOMA_R_GAINS, ("P2", 0), ("P2", 1), ("E", 0), ("E", 1))),
        (4, 2, (Perfect(), UniformFull()),
         (*NOMA_R_GAINS, ("D", 1), ("P2", 0), ("E", 0), ("E", 1), ("Q1", 1), ("Q2", 1))),
        (4, 2, QUANT1, NOMA_R_PLAN)], ids=["perfect", "one_element", "near_perfect",
                                           "perfect_t", "both"])
    def test_only_phase_sides_take_a_d_row(self, n_v, n_h, models, plan, monkeypatch):
        # on a Perfect, one-element or near-perfect side D equals H, or
        # nearly so, and would make C_xx singular: such a side adds no D
        # row to the moments and no mean to the fit; every side of N >= 6
        # elements adds its energy P2^2 row and mean, and its energy P2
        # row and mean unless its phases are uniform, where D is P2
        geom = ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=0.05, elem_len_w=0.05)
        cfg = McConfig(trials=500, master_seed=89)
        (member,) = _member(geom, SystemParams.from_db(), models, cfg, (Scenario.NOMA_R,), True)
        assert _controls(member[0], Scenario.NOMA_R) == plan
        walk = walk_table([member])
        ((_, mean, _),) = _block_moments(walk, _group_factor(walk), 0, 500).values()
        assert len(mean) == 1 + len(plan)
        passed = []
        cv_estimate = mc._cv_estimate

        def recording(moments, means):
            passed.append(len(means))
            return cv_estimate(moments, means)

        monkeypatch.setattr(mc, "_cv_estimate", recording)
        mc_estimates(geom, SystemParams.from_db(), models, cfg, (Scenario.NOMA_R,))
        assert passed == [len(plan)]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(setup=st.one_of(two_user_setups(), four_user_setups(), two_user_setups().map(
               lambda setup: (*setup[:3], (UniformFull(), UniformFull())))),
           seed=st.integers(0, 2**32 - 1))
    @example(setup=(four_user_params(), ArrayGeometry(3, 4, 0.025, 0.025, 0.1), True, QUANT1),
             seed=0)
    @example(setup=(SystemParams.from_db(), ArrayGeometry(5, 2, 0.05, 0.05, 0.1), False,
                    (UniformFull(), UniformFull())), seed=1)
    def test_control_rows_have_their_exact_means(self, setup, seed):
        # for every member of NOMA T and R, OMA T and R and, under
        # four-user parameters, T' and R', the mean of each row of its
        # walked moments against the exact mean mc_estimates hands the
        # fit for that entry of _controls, on random layouts, both
        # correlation flags and all four phase-model kinds: E[H] = E[A] =
        # E[D] = the Jensen gain, E[P2] = N, E[P2^2] = mean_p2_sq and E[Q1]
        # = E[Q2] = 0, the P2 and P2^2 rows with the standard errors of
        # level_stderr and energy_stderr
        params, geom, correlated, models = setup
        scenarios = (FOUR if params.four_user else NOMA) + OMA
        cfg = McConfig(trials=2000, master_seed=seed)
        fits = []
        cv_estimate = mc._cv_estimate

        def recording(moments, means):
            fits.append((moments, means))
            return cv_estimate(moments, means)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "_cv_estimate", recording)
            mc_estimates(geom, params, models, cfg, scenarios, correlated=correlated)
        members = _member(geom, params, models, cfg, scenarios, correlated)
        assert len(fits) == len(members)
        for (key, _, scen), ((n, mean, com), means) in zip(members, fits):
            plan = _controls(key, scen)
            assert len(mean) == 1 + len(plan) == 1 + len(means)
            for i, ((kind, side), want) in enumerate(zip(plan, means), start=1):
                stderr = math.sqrt(com[i, i] / (n - 1) / n)
                if kind == "E":
                    stderr = energy_stderr(geom, correlated, n, stderr)
                elif kind == "P2":
                    stderr = level_stderr(geom, correlated, n, stderr)
                assert abs(mean[i] - want) <= 4.5 * stderr, (geom, correlated, models, scen,
                                                             kind, side)

    @pytest.mark.parametrize("four_user", [False, True], ids=["two_user", "four_user"])
    def test_perfect_gain_is_the_zero_phase_boost(self, four_user, half_wave_geometry):
        # Perfect draws nothing and reads A^2 from the column sums; an
        # infinite von Mises kappa draws zeros and takes the cosine and
        # sine pass: the gains are the same bits
        params = four_user_params() if four_user else SystemParams.from_db()
        cfg = McConfig(trials=700, master_seed=83)
        for correlated in (True, False):
            keys = [_member(half_wave_geometry(n_h, 3), params, models, cfg, [Scenario.NOMA_T],
                            correlated)[0][0]
                    for n_h in (2, 5)
                    for models in ((Perfect(), Perfect()), (VonMises(math.inf),) * 2)]
            links = (0, 1, 2, 3) if four_user else (0, 1)
            gains = [[walked[link] for link in links] for walked in _walk_block(
                dict.fromkeys(keys, links), _group_factor(keys), 0, 700)[0].values()]
            for perfect, boosted in zip(gains[::2], gains[1::2]):
                assert np.array_equal(perfect, boosted), correlated


class TestControlVariate:
    @pytest.mark.parametrize("sizes", [[5000], [3000, 2000], [1, 1700, 2, 3000, 297]],
                             ids=["one", "two", "five"])
    def test_block_merge_equals_two_pass(self, sizes):
        rng = np.random.default_rng(11)
        scale, offset = [[1.0], [50.0], [3.0]], [[7.0], [400.0], [-2.0]]
        stack = rng.standard_normal((3, sum(sizes))) * scale + offset
        stack[1] += 20.0 * stack[0]  # correlated rows
        n, mean, com = merged(stack, sizes)
        ref_mean, ref_com = plain_moments(stack)
        assert n == stack.shape[1]
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(com, ref_com, rtol=1e-12, atol=0)

    def test_merge_survives_a_large_offset(self):
        # variance 1 on a mean of 1e8: the sum of squares is 1e16 per trial,
        # so subtracting n mean^2 from it loses every digit of the variance
        rng = np.random.default_rng(5)
        sizes = [BLOCK_SIZE, BLOCK_SIZE, 1000]
        y = 1e8 + rng.standard_normal(sum(sizes))
        exact = np.var(y - 1e8, ddof=1)  # the subtraction is exact
        total, total_sq = 0.0, 0.0
        for block in np.split(y, np.cumsum(sizes)[:-1]):
            total += float(block.sum())
            total_sq += float(np.sum(block * block))
        n = y.size
        old = max(total_sq - n * (total / n) ** 2, 0.0) / (n - 1)
        _, _, com = merged(y[None, :], sizes)
        assert abs(old - exact) > 0.1 * exact
        assert com[0, 0] / (n - 1) == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("four_user", [False, True], ids=["two_user", "four_user"])
    def test_zero_power_gives_zero(self, four_user, half_wave_geometry):
        params = (four_user_params(p_dbm=-math.inf) if four_user
                  else SystemParams.from_db(p_dbm=-math.inf))
        scenarios = (FOUR if four_user else NOMA) + OMA
        out = mc_estimates(half_wave_geometry(4, 4), params, QUANT1,
                           McConfig(trials=3000, master_seed=9), scenarios)
        for est in out.values():
            assert (est.mean, est.half_width) == (0.0, 0.0)

    @pytest.mark.parametrize("n_h, n_v, model, trials, seeds", [
        (2, 4, "uniform", 1000, 400), (2, 4, "quantized:1", 1000, 400),
        (2, 4, "vonmises:1", 1000, 400), (4, 1, "uniform", 1000, 400),
        (4, 1, "perfect", 1000, 400), (4, 1, "quantized:1", 1000, 400),
        (6, 1, "uniform", 1000, 400), (2, 4, "quantized:1", BLOCK_SIZE, 200)],
        ids=["uniform", "quantized:1", "vonmises:1",
             "4x1-uniform", "4x1-perfect", "4x1-quantized:1", "6x1-uniform",
             "one-block-quantized:1"])
    def test_interval_covers_the_reference_mean(self, n_h, n_v, model, trials, seeds):
        # guards the half-width: an understated residual variance would
        # show as too few of the 95 % intervals covering the mean
        # the N = 8 reference setup at half-wavelength spacing, N = 4 in a
        # row, where the energy P2^2 of the rotated rates would undercover
        # (352 of 400 for OMA R under uniform phases) and is no control,
        # and N = 6 in a row, the fewest elements that take it; and the N =
        # 8 setup at one full block, the fewest trials of the bundled
        # specs, where the fit has P2 beside D, P2^2 and the phase controls
        # and an estimated beta costs coverage in small samples
        geom = ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=0.05, elem_len_w=0.05,
                             wavelength=0.1)
        params, models = SystemParams.from_db(), (phase_error_from_string(model),) * 2
        scenarios = NOMA + OMA
        ref = mc_estimates(geom, params, models,
                           McConfig(trials=1 << 18, master_seed=10**6), scenarios)
        covered = dict.fromkeys(scenarios, 0)
        for seed in range(seeds):
            out = mc_estimates(geom, params, models,
                               McConfig(trials=trials, master_seed=seed), scenarios)
            for scen, est in out.items():
                covered[scen] += abs(est.mean - ref[scen].mean) <= est.half_width
        assert min(covered.values()) >= 0.9 * seeds, covered

    @pytest.mark.parametrize("n_h", [3, 4, 10])
    def test_rotated_interval_covers_the_reference_mean(self, n_h):
        # test_interval_covers_the_reference_mean on layouts of 4-element
        # columns in K = 3, 4 and 4 groups, where the single-log rates on
        # uniform phases are their means over the turns of the groups
        geom = ArrayGeometry(n_h=n_h, n_v=4, elem_len_l=0.05, elem_len_w=0.05, wavelength=0.1)
        params, models = SystemParams.from_db(), (UniformFull(), UniformFull())
        scenarios = (Scenario.NOMA_T, *OMA)
        ref = mc_estimates(geom, params, models,
                           McConfig(trials=1 << 18, master_seed=10**6), scenarios)
        seeds = range(400)
        covered = dict.fromkeys(scenarios, 0)
        for seed in seeds:
            out = mc_estimates(geom, params, models,
                               McConfig(trials=1000, master_seed=seed), scenarios)
            for scen, est in out.items():
                covered[scen] += abs(est.mean - ref[scen].mean) <= est.half_width
        assert min(covered.values()) >= 0.9 * len(seeds), covered

    @pytest.mark.parametrize("name", bundled_spec_names())
    def test_consistent_with_plain_estimate(self, name, monkeypatch):
        # the plain sample mean and half-width of every engine call of the
        # sweep, from one walk per Gaussian key
        calls = {}

        def recording(geom, params, models, cfg, scenarios, *, correlated, workers):
            out = mc_estimates(geom, params, models, cfg, scenarios,
                               correlated=correlated, workers=workers)
            key = _member(geom, params, models, cfg, scenarios, correlated)[0][0]
            calls.setdefault(key.gaussian, []).append((key, params, scenarios, out))
            return out

        monkeypatch.setattr(mc, "mc_estimates", recording)
        run_sweep(spec_with_overrides(load_spec(name), trials=2000))
        assert calls
        z = 1.959963984540054
        rows = []
        for group in calls.values():
            keys = list(dict.fromkeys(key for key, *_ in group))
            gains = dict(zip(keys, walked_gains(keys, links=(0, 1, 2, 3))))
            for key, params, scenarios, out in group:
                for scen in scenarios:
                    r = _rate(scen, params, gains[key])
                    plain_hw = z * r.std(ddof=1) / math.sqrt(r.size)
                    rows.append((scen, r.mean(), plain_hw, out[scen]))
        for scen, plain_mean, plain_hw, est in rows:
            # CV minus plain is -beta (H-bar - E[H]), whose 95 % half-width
            # is at most the plain one; two of them are about 4 standard errors
            assert abs(est.mean - plain_mean) <= 2.0 * plain_hw, (scen, plain_mean, est)
            assert est.half_width <= plain_hw, (scen, plain_hw, est)

    @pytest.mark.parametrize("name", bundled_spec_names())
    def test_default_trials_keep_the_plain_precision(self, name, monkeypatch):
        # a bundled spec's default trial count goes below 100000 only as far
        # as keeps every row's control-variate half-width at or below its
        # plain half-width at 100000 trials, and never below one block, where
        # the interval near a rate's ceiling undercovers
        spec = load_spec(name)
        (trials,) = {point.mc.trials for _, _, point, _ in spec.points()}
        assert BLOCK_SIZE <= trials <= 100_000
        if trials == 100_000:
            return  # not lowered
        rows = []
        cv_estimate = mc._cv_estimate

        def recording(moments, control_means):
            est = cv_estimate(moments, control_means)
            n, _, com = moments
            rows.append((est.half_width, mc._Z95 * math.sqrt(com[0, 0] / (n - 1) / 100_000)))
            return est

        monkeypatch.setattr(mc, "_cv_estimate", recording)
        run_sweep(spec)
        assert rows
        assert all(hw <= plain_hw for hw, plain_hw in rows), max(
            rows, key=lambda row: row[0] / row[1])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(setup=edge_setups(), seed=st.integers(0, 2**32 - 1))
    @example(setup=(SystemParams.from_db(), ArrayGeometry(1, 1, 0.05, 0.05),
                    True, (VonMises(1e7), VonMises(1e7))), seed=0)
    def test_consistent_with_plain_estimate_at_the_edges(self, setup, seed):
        # the assertions of test_consistent_with_plain_estimate on one
        # element and on near-perfect phases, where a phase control made of
        # rounding would move the estimate
        params, geom, correlated, models = setup
        cfg = McConfig(trials=2000, master_seed=seed)
        out = mc_estimates(geom, params, models, cfg, NOMA + OMA, correlated=correlated)
        (gains,) = walked_gains([_member(geom, params, models, cfg, NOMA + OMA,
                                         correlated)[0][0]])
        z = 1.959963984540054
        for scen in NOMA + OMA:
            r = _rate(scen, params, gains)
            plain_mean, plain_hw, est = r.mean(), z * r.std(ddof=1) / math.sqrt(r.size), out[scen]
            assert abs(est.mean - plain_mean) <= 2.0 * plain_hw, (scen, plain_mean, est)
            assert est.half_width <= plain_hw, (scen, plain_hw, est)

    @pytest.mark.parametrize("correlated", [True, False], ids=["correlated", "iid"])
    @pytest.mark.parametrize("kappa, level", [(4e-205, False), (0.02, False), (0.02001, True)],
                             ids=["underflow", "below", "above"])
    def test_energy_row_at_the_edge_of_the_phase_floor(self, kappa, level, correlated):
        # the assertions of test_consistent_with_plain_estimate on N = 8
        # with eps^2 at 0 (it underflows at kappa = 4e-205, while eps does
        # not), just below 1e-4 and just above it: below the floor D is P2,
        # or nearly so, and the side takes no P2 row, which would make C_xx
        # singular; above it the fit solves with both
        model = VonMises(kappa)
        assert (model.epsilon() ** 2 >= mc._PHASE_VAR_MIN) == level
        geom = ArrayGeometry(n_h=2, n_v=4, elem_len_l=0.05, elem_len_w=0.05, wavelength=0.1)
        params, models = SystemParams.from_db(), (model, model)
        cfg = McConfig(trials=2000, master_seed=101)
        out = mc_estimates(geom, params, models, cfg, NOMA + OMA, correlated=correlated)
        key = _member(geom, params, models, cfg, NOMA + OMA, correlated)[0][0]
        (gains,) = walked_gains([key])
        z = 1.959963984540054
        above = {Scenario.NOMA_T: (("H", 0), ("S", 0), ("D", 0), ("P2", 0), ("E", 0), ("Q1", 0),
                                   ("Q2", 0)),
                 Scenario.NOMA_R: NOMA_R_PLAN,
                 Scenario.OMA_T: (("H", 0), ("S", 0), ("D", 0), ("P2", 0), ("E", 0), ("Q1", 0),
                                  ("Q2", 0)),
                 Scenario.OMA_R: (("H", 1), ("S", 1), ("D", 1), ("P2", 1), ("E", 1), ("Q1", 1),
                                  ("Q2", 1))}
        for scen in NOMA + OMA:
            assert _controls(key, scen) == tuple(entry for entry in above[scen]
                                                 if level or entry[0] != "P2")
            r, est = _rate(scen, params, gains), out[scen]
            plain_hw = z * r.std(ddof=1) / math.sqrt(r.size)
            assert math.isfinite(est.mean), (scen, est)
            assert abs(est.mean - r.mean()) <= 2.0 * plain_hw, (scen, r.mean(), est)
            assert est.half_width <= plain_hw, (scen, plain_hw, est)

    @pytest.mark.parametrize("n_v, n_h", [(1, n_h) for n_h in range(2, 7)]
                             + [(2, n_h) for n_h in range(2, 5)])
    def test_rotated_rates_with_one_element_per_group(self, n_v, n_h):
        # at N = K, one element per group, A equals D and the rotated rates
        # take no phase controls, which would make C_xx singular; from N =
        # K + 1 on they take them again.  Either way the estimate is finite
        # and within the plain half-width
        geom = ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=0.05, elem_len_w=0.05)
        params, models = SystemParams.from_db(), (UniformFull(), UniformFull())
        scenarios, cfg = (Scenario.NOMA_T, *OMA), McConfig(trials=2000, master_seed=n_h)
        out = mc_estimates(geom, params, models, cfg, scenarios)
        key = _member(geom, params, models, cfg, scenarios, True)[0][0]
        (gains,) = walked_gains([key])
        z = 1.959963984540054
        phase, energy = n_v * n_h > min(4, n_h), n_v * n_h >= 6
        for scen in scenarios:
            side = int(scen is Scenario.OMA_R)
            assert _controls(key, scen) == (("A", side), ("S", side), *[("D", side)] * phase,
                                            *[("E", side)] * energy,
                                            *[("Q1", side), ("Q2", side)] * phase)
            r, est = _rate(scen, params, gains), out[scen]
            plain_hw = z * r.std(ddof=1) / math.sqrt(r.size)
            assert math.isfinite(est.mean), (scen, est)
            assert abs(est.mean - r.mean()) <= 2.0 * plain_hw, (scen, r.mean(), est)
            assert est.half_width <= plain_hw, (scen, plain_hw, est)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(setup=two_user_setups(), seed=st.integers(0, 2**32 - 1))
    def test_mc_mean_respects_jensen_and_limit(self, setup, seed):
        params, geom, correlated, models = setup
        out = mc_estimates(geom, params, models, McConfig(trials=2000, master_seed=seed),
                           NOMA + OMA, correlated=correlated)
        tr = trace_rbar_sq(geom, correlated)
        eps_t, eps_r = (model.epsilon() for model in models)
        for scen, est in out.items():
            bound = rate_bound(scen, "jensen", params, geom.n_elements, tr, eps_t, eps_r)
            assert est.mean - 4.0 * est.half_width <= bound.value, (scen, est, bound)
        cap = large_snr_limit(Scenario.NOMA_R, params).value
        assert out[Scenario.NOMA_R].mean - 4.0 * out[Scenario.NOMA_R].half_width <= cap

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(setup=four_user_setups(), seed=st.integers(0, 2**32 - 1))
    def test_primed_mc_mean_respects_its_limit(self, setup, seed):
        # every trial's primed rate is below its large-SNR limit, whatever
        # the layout, so the estimate is too, up to its half-width
        params, geom, correlated, models = setup
        out = mc_estimates(geom, params, models, McConfig(trials=2000, master_seed=seed),
                           (Scenario.NOMA_TP, Scenario.NOMA_RP), correlated=correlated)
        for scen, est in out.items():
            limit = large_snr_limit(scen, params).value
            assert est.mean - 3.0 * est.half_width <= limit, (scen, est, limit)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(setup=two_user_setups())
    def test_hardening_approaches_jensen_as_n_grows(self, setup):
        # both gains grow as pi^2 N^2 eps^2 / 16 and differ by O(N) on
        # i.i.d. elements; correlation slows, but does not stop, the approach
        params, geom, correlated, models = setup
        eps_t, eps_r = (model.epsilon() for model in models)
        assume(min(eps_t, eps_r) > 0.0)  # no hardening value under uniform phases
        for target in NOMA + OMA:
            gaps = []
            for scale in (1, 4, 16, 64):
                wide = replace(geom, n_h=geom.n_h * scale)
                n = wide.n_elements
                jensen = rate_bound(target, "jensen", params, n,
                                    trace_rbar_sq(wide, correlated), eps_t, eps_r).value
                hardening = rate_bound(target, "hardening", params, n, n, eps_t, eps_r).value
                gaps.append(abs(jensen - hardening) / jensen)
            assert all(a >= b for a, b in zip(gaps, gaps[1:])), (target, gaps)
            assert gaps[-1] <= 0.5 * gaps[0], (target, gaps)
