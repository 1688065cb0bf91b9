import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ios_noma.channel import (ConfigError, Perfect, Quantized, SystemParams,
                              UniformFull, VonMises, correlation_factor,
                              db_to_linear, dbm_to_watts, pathloss,
                              phase_error_from_string,
                              standard_complex_gaussian)
from ios_noma.experiments import load_spec
from ios_noma.geometry import ArrayGeometry, correlation_matrix, cross_moment
from ios_noma.mc import _boosted_gains
from ios_noma.specfun import bessel_ratio_i1_i0


class TestSystemParams:
    def test_db_conversions(self):
        params = SystemParams.from_db()
        assert params.lambda_t == pytest.approx(1e-3, rel=1e-12)
        assert params.p_tx == pytest.approx(0.1, rel=1e-12)
        assert params.noise_power == pytest.approx(1e-8, rel=1e-12)
        assert params.gamma0 == pytest.approx(1e7, rel=1e-12)
        assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-12)
        assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-12)

    def test_amplitude_constraints(self):
        with pytest.raises(ConfigError):
            SystemParams(alpha=0.9, beta=0.6)
        with pytest.raises(ConfigError):
            SystemParams(q_t=0.5, q_r=0.5 + 1e-6)

    def test_power_order(self):
        with pytest.raises(ConfigError):
            SystemParams(q_t=0.8, q_r=0.6)
        # single-active-user split is allowed
        SystemParams(q_t=1.0, q_r=0.0, alpha=1.0, beta=0.0)

    def test_partial_four_user_rejected(self):
        with pytest.raises(ConfigError):
            SystemParams(d_tp=12.0)

    @pytest.mark.parametrize("links", [
        dict(d_tp=15.0, d_rp=12.0),
        dict(d_tp=8.0, d_rp=15.0),
        dict(d_tp=12.0, d_rp=15.0, lambda_rp=1.0),
        dict(d_tp=12.0, d_rp=15.0, lambda_tp=1.0),
    ], ids=["primed_distances_swapped", "tp_nearer_than_r", "intercept_lifts_eta_rp",
            "intercept_lifts_eta_tp"])
    def test_four_user_pathloss_ordering(self, links):
        with pytest.raises(ConfigError, match="ordering"):
            SystemParams(q_t=math.sqrt(0.1), q_r=math.sqrt(0.2),
                         q_tp=math.sqrt(0.3), q_rp=math.sqrt(0.4), **links)

    @pytest.mark.parametrize("value", [-1e-3, 0.0])
    @pytest.mark.parametrize("field", ["lambda_tp", "lambda_rp"])
    def test_primed_intercepts_must_be_positive(self, field, value):
        # a negative lambda_rp keeps the pathloss ordering, so only this
        # check stops it; NOMA_RP would otherwise estimate log2 of a
        # negative gain
        with pytest.raises(ConfigError, match="intercepts must be positive"):
            SystemParams(q_t=math.sqrt(0.1), q_r=math.sqrt(0.2),
                         q_tp=math.sqrt(0.3), q_rp=math.sqrt(0.4),
                         d_tp=12.0, d_rp=15.0, **{field: value})

    def test_four_user_power_budget(self):
        params = SystemParams(q_t=math.sqrt(0.1), q_r=math.sqrt(0.2),
                              q_tp=math.sqrt(0.3), q_rp=math.sqrt(0.4),
                              d_tp=12.0, d_rp=15.0)
        assert params.four_user
        with pytest.raises(ConfigError):
            SystemParams(q_t=math.sqrt(0.1), q_r=math.sqrt(0.2),
                         q_tp=math.sqrt(0.3), q_rp=math.sqrt(0.5),
                         d_tp=12.0, d_rp=15.0)


class TestPathloss:
    def test_reference_setup(self):
        params = SystemParams.from_db()
        expected = 1e-3 / (10.0**2.4 * 5.0**2.4)
        assert pathloss(params, "t") == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(8.365e-8, rel=1e-3)

    def test_unit_distances(self):
        params = SystemParams(d_b=1.0, d_t=1.0, d_r=2.0, lambda_t=1.0, q_t=0.6, q_r=0.8)
        assert pathloss(params, "t") == 1.0

    def test_power_law_in_distance(self):
        near = SystemParams.from_db(d_t=5.0)
        far = SystemParams.from_db(d_t=10.0)
        assert pathloss(far, "t") / pathloss(near, "t") == pytest.approx(
            2.0**-2.4, rel=1e-12)

    def test_link_validation(self):
        params = SystemParams.from_db()
        with pytest.raises(ConfigError):
            pathloss(params, "x")
        with pytest.raises(ConfigError):
            pathloss(params, "tp")


class TestPhaseErrorModels:
    def test_epsilon_values(self):
        assert Perfect().epsilon() == 1.0
        assert UniformFull().epsilon() == 0.0
        assert Quantized(1).epsilon() == pytest.approx(2.0 / math.pi, abs=1e-15)
        assert Quantized(2).epsilon() == pytest.approx(0.9003163161571061, abs=1e-14)
        assert VonMises(2.0).epsilon() == pytest.approx(
            bessel_ratio_i1_i0(2.0), abs=1e-15)

    def test_perfect_samples_are_zero(self, rng):
        assert np.array_equal(Perfect().sample(64, rng), np.zeros(64))

    @pytest.mark.parametrize("model", [Quantized(1), Quantized(3), VonMises(0.5),
                                       VonMises(2.0), UniformFull()])
    def test_sampled_cosine_matches_epsilon(self, model, rng):
        draws = model.sample(400_000, rng)
        mc = np.cos(draws)
        assert abs(mc.mean() - model.epsilon()) < 3.0 * mc.std() / math.sqrt(len(draws))

    @pytest.mark.parametrize("model", [Perfect(), Quantized(1), VonMises(0.5),
                                       VonMises(2.0), UniformFull()])
    def test_narrow_draw_is_the_leading_rows(self, model):
        # the engine draws each phase stream once, at the widest layout
        wide = model.sample((100, 1024), np.random.default_rng(8))
        assert np.array_equal(model.sample((20, 1024), np.random.default_rng(8)), wide[:20])

    def test_quantized_support(self, rng):
        draws = Quantized(2).sample(10_000, rng)
        assert np.all(np.abs(draws) <= math.pi / 4)

    def test_parsing(self):
        assert phase_error_from_string("perfect") == Perfect()
        assert phase_error_from_string("uniform") == UniformFull()
        assert phase_error_from_string("vonmises:2.5") == VonMises(2.5)
        assert phase_error_from_string("quantized:3") == Quantized(3)
        with pytest.raises(ConfigError):
            phase_error_from_string("gauss:1")

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            VonMises(-0.1)
        with pytest.raises(ConfigError):
            Quantized(0)


class TestCorrelatedSampling:
    def test_factor_reproduces_matrix(self):
        corr = np.array([[1.0, 0.6, 0.2], [0.6, 1.0, 0.6], [0.2, 0.6, 1.0]])
        factor = correlation_factor(corr)
        assert np.allclose(factor @ factor.T.conj(), corr, atol=1e-12)

    def test_rank_deficient_matrix(self):
        corr = np.ones((3, 3))  # PSD, rank one
        factor = correlation_factor(corr)
        assert np.allclose(factor @ factor.T.conj(), corr, atol=1e-9)

    def test_slightly_indefinite_matrix_clips(self):
        vecs = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
        corr = vecs @ np.diag([1.5, 1.0, -1e-6]) @ vecs.T
        factor = correlation_factor(corr)
        rebuilt = factor @ factor.T.conj()
        assert np.allclose(rebuilt, vecs @ np.diag([1.5, 1.0, 0.0]) @ vecs.T, atol=1e-9)

    def test_unit_power_rayleigh_marginals(self, rng):
        corr = np.array([[1.0, 0.5, 0.1], [0.5, 1.0, 0.5], [0.1, 0.5, 1.0]])
        draws = np.abs(correlation_factor(corr) @ standard_complex_gaussian((3, 20_000), rng))
        power = draws**2
        assert abs(power.mean() - 1.0) < 3.0 * power.std() / math.sqrt(power.size)
        assert abs(draws.mean() - math.sqrt(math.pi) / 2) < \
            3.0 * draws.std() / math.sqrt(draws.size)

    def test_pair_moment_matches_cross_moment(self, rng):
        rho = 0.6366
        corr = np.array([[1.0, rho], [rho, 1.0]])
        factor = correlation_factor(corr)
        z = standard_complex_gaussian((2, 400_000), rng)
        mags = np.abs(factor @ z)
        prod = mags[0] * mags[1]
        assert abs(prod.mean() - cross_moment(rho**2)) < \
            3.0 * prod.std() / math.sqrt(prod.shape[0])

    def test_empirical_covariance_converges(self, rng):
        base = np.array([[1.0, 0.5, 0.1, 0.0],
                         [0.5, 1.0, 0.5, 0.1],
                         [0.1, 0.5, 1.0, 0.5],
                         [0.0, 0.1, 0.5, 1.0]])
        factor = correlation_factor(base)
        z = standard_complex_gaussian((4, 1_000_000), rng)
        h = factor @ z
        emp = (h @ h.conj().T).real / h.shape[1]
        # entry variance is O(1/sqrt(samples)); 3 sigma with margin
        assert np.max(np.abs(emp - base)) < 3.5 / math.sqrt(h.shape[1])

    @pytest.mark.parametrize("rows, wide, cols", [(20, 100, 1024), (1, 7, 3), (5, 5, 2)])
    def test_narrow_draw_is_the_leading_rows(self, rows, wide, cols):
        # element-major order: a layout's draws do not depend on how many
        # elements the widest layout of its walk has
        narrow = standard_complex_gaussian((rows, cols), np.random.default_rng(9))
        full = standard_complex_gaussian((wide, cols), np.random.default_rng(9))
        assert narrow.shape == (rows, cols)
        assert np.array_equal(narrow, full[:rows])


def residual(factor, corr):
    """Largest entry of |L L^T - R|."""
    return float(np.max(np.abs(factor @ factor.T - corr)))


def factor_with_branch(monkeypatch, corr):
    """correlation_factor(corr) and the branch that returned it, read off
    the sequence of numpy.linalg calls it made."""
    calls = []
    for name in ("cholesky", "eigh"):
        original = getattr(np.linalg, name)

        def counted(a, name=name, original=original):
            calls.append(name)
            return original(a)

        monkeypatch.setattr(np.linalg, name, counted)
    factor = correlation_factor(corr)
    branches = {("cholesky",): "cholesky", ("cholesky", "eigh"): "eigh"}
    return factor, branches[tuple(calls)]


def grid(n_h, n_v, spacing, wavelength=0.1):
    """Square elements of wavelength / spacing."""
    return ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=wavelength / spacing,
                         elem_len_w=wavelength / spacing, wavelength=wavelength)


class TestCorrelationFactor:
    @settings(max_examples=40, deadline=None)
    @given(n_h=st.integers(1, 16), n_v=st.integers(1, 16),
           spacing=st.sampled_from([2, 3, 4, 8]), aspect=st.floats(0.5, 2.0))
    @example(n_h=16, n_v=16, spacing=8, aspect=1.0)  # takes eigh
    @example(n_h=15, n_v=4, spacing=2, aspect=1.0)  # takes cholesky
    def test_reconstructs_layout_correlation(self, n_h, n_v, spacing, aspect):
        # either branch returns a lower-triangular factor: elements run
        # column by column, so the layout of k columns is the leading
        # n_v k block of R and reads the leading block of the factor
        geom = ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=0.1 / spacing,
                             elem_len_w=aspect * 0.1 / spacing, wavelength=0.1)
        corr = correlation_matrix(geom)
        factor = correlation_factor(corr)
        assert not np.triu(factor, 1).any()
        for k in range(1, n_h + 1):
            lead = slice(0, n_v * k)
            assert residual(factor[lead, lead], corr[lead, lead]) <= 1e-8, k

    def test_half_wavelength_takes_cholesky(self, monkeypatch):
        corr = correlation_matrix(grid(15, 4, spacing=2))
        factor, branch = factor_with_branch(monkeypatch, corr)
        assert branch == "cholesky"
        assert residual(factor, corr) <= 1e-8

    @pytest.mark.parametrize("n_h", [18, 19, 20])
    def test_largest_fig7_layouts_take_cholesky(self, n_h, monkeypatch):
        # 5 rows at quarter-wavelength spacing, the densest bundled layouts
        (geom,) = {point.geom for _, _, point in load_spec("fig7_correlation").points()
                   if point.geom.n_h == n_h}
        corr = correlation_matrix(geom)
        factor, branch = factor_with_branch(monkeypatch, corr)
        assert branch == "cholesky"
        assert residual(factor, corr) <= 1e-8

    def test_dense_grid_takes_eigh(self, monkeypatch):
        # a 16 x 16 grid at lambda/8 is numerically rank deficient
        corr = correlation_matrix(grid(16, 16, spacing=8))
        factor, branch = factor_with_branch(monkeypatch, corr)
        assert branch == "eigh"
        assert residual(factor, corr) <= 1e-8
        assert not np.triu(factor, 1).any()

    def test_negative_eigenvalue_takes_eigh(self, monkeypatch):
        vecs = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))[0]
        corr = vecs @ np.diag([2.0, 1.5, 1.0, 0.5, -1e-8]) @ vecs.T
        corr = (corr + corr.T) / 2.0
        factor, branch = factor_with_branch(monkeypatch, corr)
        assert branch == "eigh"
        assert residual(factor, corr) <= 1e-8
        assert not np.triu(factor, 1).any()


class TestCompositeGain:
    """The engine's composite gain |sum_n a_n h_n exp(j phi_n)|^2, one
    column per trial."""

    @staticmethod
    def gain(mags, phases):
        """The gain of one trial, the elements as one column."""
        mags, phases = (np.asarray(x, dtype=float)[:, None] for x in (mags, phases))
        return float(_boosted_gains(mags, phases, len(mags), [1])[1][0])

    def test_coherent_sum(self):
        assert self.gain([1.0, 1.0], [0.0, 0.0]) == pytest.approx(4.0, abs=1e-12)

    def test_cancellation(self):
        assert self.gain([1.0, 1.0], [0.0, math.pi]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_accumulation(self, rng):
        # four columns of four elements: the gain of the leading k columns
        # sums the first 4 k elements
        n, trials = 16, 3
        mag_g, mag_h = rng.rayleigh(size=(n, trials)), rng.rayleigh(size=(n, trials))
        phases = rng.uniform(-math.pi, math.pi, (n, trials))
        gains = _boosted_gains(mag_g * mag_h, phases, 4, [1, 2, 3, 4])
        for cols, row in gains.items():
            for t in range(trials):
                acc = 0.0 + 0.0j
                for k in range(4 * cols):
                    acc += mag_g[k, t] * mag_h[k, t] * np.exp(1j * phases[k, t])
                assert row[t] == pytest.approx(abs(acc) ** 2, rel=1e-12)


class TestMeanCompositeGain:
    def test_uncorrelated_perfect_phase(self, rng):
        n, trials = 8, 200_000
        mh = np.abs(standard_complex_gaussian((n, trials), rng))
        mg = np.abs(standard_complex_gaussian((n, trials), rng))
        gains = np.sum(mg * mh, axis=0) ** 2
        expected = n + n * (n - 1) * math.pi**2 / 16.0
        assert abs(gains.mean() - expected) < 3.0 * gains.std() / math.sqrt(trials)

    def test_corollary_bounds_with_quantization(self, rng):
        n, trials = 6, 200_000
        eps = Quantized(1).epsilon()
        mh = np.abs(standard_complex_gaussian((n, trials), rng))
        mg = np.abs(standard_complex_gaussian((n, trials), rng))
        phi = Quantized(1).sample((n, trials), rng)
        gains = np.abs(np.sum(mg * mh * np.exp(1j * phi), axis=0)) ** 2
        se = gains.std() / math.sqrt(trials)
        lower = n + math.pi**2 * n * (n - 1) * eps**2 / 16.0
        upper = n + n * (n - 1) * eps**2
        assert gains.mean() > lower - 3.0 * se
        assert gains.mean() < upper + 3.0 * se
