import logging
import math

import numpy as np
import pytest
from conftest import complex_normals
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from ios_noma import channel
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

    @pytest.mark.parametrize("kwargs, named", [
        ({"lambda_t_db": 5000.0}, "lambda_t_db"), ({"noise_dbm": 4000.0}, "noise_dbm"),
        ({"p_dbm": 1e300}, "p_dbm"), ({"lambda_rp_db": 3090.0}, "lambda_rp_db"),
    ])
    def test_db_overflow_names_its_key(self, kwargs, named):
        with pytest.raises(ConfigError, match=named):
            SystemParams.from_db(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"alpha": 1e300}, {"q_r": -1e200}])
    def test_huge_amplitude_is_a_config_error(self, kwargs):
        # its square overflows a float
        with pytest.raises(ConfigError, match="must"):
            SystemParams.from_db(**kwargs)

    @pytest.mark.parametrize("kwargs, link", [
        ({"chi": 1e6}, "t"), ({"d_r": 1e-300}, "r"), ({"chi": -1e300}, "t")])
    def test_pathloss_out_of_range_is_a_config_error(self, kwargs, link):
        with pytest.raises(ConfigError, match=f"link '{link}'.*chi"):
            pathloss(SystemParams.from_db(**kwargs), link)

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

    def test_epsilon2_values(self):
        # E cos 2 phi: sin 2h / 2h for residuals uniform on [-h, h]
        assert Perfect().epsilon2() == 1.0
        assert UniformFull().epsilon2() == 0.0
        assert VonMises(0.0).epsilon2() == 0.0
        assert phase_error_from_string("vonmises:inf").epsilon2() == 1.0
        assert Quantized(1).epsilon2() == pytest.approx(0.0, abs=1e-15)
        assert Quantized(2).epsilon2() == pytest.approx(2.0 / math.pi, abs=1e-15)
        assert Quantized(3).epsilon2() == pytest.approx(Quantized(2).epsilon(), abs=1e-15)

    @pytest.mark.parametrize("kappa", [1e-3, 0.1, 0.5, 1.0, 2.0, 14.9, 15.1, 50.0,
                                       1e3, 1e5, 1e7])
    def test_von_mises_epsilon2_is_the_bessel_ratio(self, kappa):
        # I2(kappa) / I0(kappa); the exponentially scaled ive gives the same
        # ratio where iv itself overflows (kappa above about 700)
        ref = special.ive(2, kappa) / special.ive(0, kappa)
        if kappa < 700:
            assert ref == pytest.approx(special.iv(2, kappa) / special.iv(0, kappa), rel=1e-13)
        assert VonMises(kappa).epsilon2() == pytest.approx(ref, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("model", [Quantized(1), Quantized(3), VonMises(0.5),
                                       VonMises(2.0), UniformFull()])
    def test_sampled_double_angle_cosine_matches_epsilon2(self, model, rng):
        # sample returns t = tan(phi / 2): cos phi = (1 - t^2) / (1 + t^2)
        tangents = model.sample(400_000, rng)
        cosine = (1.0 - tangents * tangents) / (1.0 + tangents * tangents)
        draws = 2.0 * cosine * cosine - 1.0
        assert abs(draws.mean() - model.epsilon2()) < 3.0 * draws.std() / math.sqrt(len(draws))

    def test_perfect_samples_are_zero(self, rng):
        assert np.array_equal(Perfect().sample(64, rng), np.zeros(64))

    @pytest.mark.parametrize("model", [Quantized(1), Quantized(3), VonMises(0.5),
                                       VonMises(2.0), UniformFull()])
    def test_sampled_cosine_matches_epsilon(self, model, rng):
        tangents = model.sample(400_000, rng)
        mc = (1.0 - tangents * tangents) / (1.0 + tangents * tangents)
        assert abs(mc.mean() - model.epsilon()) < 3.0 * mc.std() / math.sqrt(len(mc))

    @pytest.mark.parametrize("model", [Perfect(), Quantized(1), VonMises(0.5),
                                       VonMises(2.0), UniformFull()])
    def test_narrow_draw_is_the_leading_rows(self, model):
        # the engine draws each phase stream once, at the widest layout
        wide = model.sample((100, 1024), np.random.default_rng(8))
        assert np.array_equal(model.sample((20, 1024), np.random.default_rng(8)), wide[:20])

    def test_quantized_support(self, rng):
        tangents = Quantized(2).sample(10_000, rng)
        assert np.all(np.abs(tangents) <= math.tan(math.pi / 8))

    def test_parsing(self):
        assert phase_error_from_string("perfect") == Perfect()
        assert phase_error_from_string("uniform") == UniformFull()
        assert phase_error_from_string("vonmises:2.5") == VonMises(2.5)
        assert phase_error_from_string("quantized:3") == Quantized(3)
        with pytest.raises(ConfigError):
            phase_error_from_string("gauss:1")

    @pytest.mark.parametrize("text", ["vonmises:abc", "vonmises:", "quantized:1.5",
                                      "quantized:", "perfect:3", "uniform:x", "gauss:1"])
    def test_malformed_model_is_named(self, text):
        with pytest.raises(ConfigError, match=f"phase error model '{text}'"):
            phase_error_from_string(text)

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            VonMises(-0.1)
        with pytest.raises(ConfigError):
            Quantized(0)

    def test_nan_kappa_is_rejected(self):
        # epsilon() would never leave the asymptotic Bessel loop
        with pytest.raises(ConfigError, match="vonmises"):
            phase_error_from_string("vonmises:nan")

    def test_infinite_kappa_is_perfect(self, rng):
        model = phase_error_from_string("vonmises:inf")
        assert model.epsilon() == 1.0
        assert np.array_equal(model.sample(64, rng), np.zeros(64))

    @pytest.mark.parametrize("bits", [28, 64, 2000])
    def test_bits_whose_epsilon_rounds_to_one_are_rejected(self, bits):
        # 2^bits overflows a float from 1024 bits on
        with pytest.raises(ConfigError, match=f"quantized:{bits}"):
            Quantized(bits)

    def test_last_accepted_bit_count(self):
        assert Quantized(27).epsilon() < 1.0
        assert 2**28 * math.sin(math.pi / 2**28) / math.pi == 1.0


def von_mises_phases(kappa, size, rng):
    """The phases phi = 2 arctan t of one VonMises draw of tangents t."""
    return 2.0 * np.arctan(VonMises(kappa).sample(size, rng))


class TestVonMisesSampler:
    # Best and Fisher's rejection over chunks of candidates, with uniform
    # phases below kappa = 1e-8 and normal ones above 1e6, numpy's limits

    @pytest.mark.parametrize("kappa", [1e-6, 0.5, 1.0, 2.0, 8.0, 50.0, 1e5, 2e6])
    def test_cosine_moments_match_the_bessel_ratios(self, kappa):
        model = VonMises(kappa)
        phases = von_mises_phases(kappa, (4, 500_000), np.random.default_rng(31)).ravel()
        assert np.all(np.abs(phases) <= math.pi)
        for sample, expected in ((np.cos(phases), model.epsilon()),
                                 (np.cos(2.0 * phases), model.epsilon2())):
            assert abs(sample.mean() - expected) < 4.5 * sample.std() / math.sqrt(sample.size)

    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    def test_law_matches_numpy(self, kappa):
        ours = von_mises_phases(kappa, 400_000, np.random.default_rng(32))
        numpy_draws = np.random.default_rng(33).vonmises(0.0, kappa, 400_000)
        assert stats.ks_2samp(ours, numpy_draws).pvalue > 1e-3

    @pytest.mark.parametrize("kappa", [0.0, 5e-9, 2e6])
    def test_branches_are_numpy_bits(self, kappa):
        # below 1e-8 pi (2 U - 1), above 1e6 the wrapped normal, to rounding
        ours = von_mises_phases(kappa, (3, 1000), np.random.default_rng(34))
        numpy_draws = np.random.default_rng(34).vonmises(0.0, kappa, (3, 1000))
        assert np.allclose(ours, numpy_draws, rtol=0.0, atol=1e-15)

    def test_zero_kappa_is_uniform(self):
        phases = von_mises_phases(0.0, 200_000, np.random.default_rng(35))
        assert -math.pi <= phases.min() and phases.max() < math.pi
        assert stats.kstest(phases, "uniform", args=(-math.pi, 2.0 * math.pi)).pvalue > 1e-3

    @pytest.mark.parametrize("size", [(3, 5), (40, 1)])
    def test_infinite_kappa_gives_zeros(self, size):
        phases = VonMises(math.inf).sample(size, np.random.default_rng(36))
        assert phases.shape == size and not phases.any()

    @pytest.mark.parametrize("chunk", [1, 7, 1000, 65536])
    def test_phases_do_not_depend_on_the_chunk(self, chunk, monkeypatch):
        reference = VonMises(2.0).sample((9, 1001), np.random.default_rng(37))
        monkeypatch.setattr(channel, "_CHUNK", chunk)
        assert np.array_equal(VonMises(2.0).sample((9, 1001), np.random.default_rng(37)),
                              reference)

    @pytest.mark.parametrize("kappa", [1e-9, 1.0, 1e7])
    def test_int_and_tuple_sizes(self, kappa):
        flat = VonMises(kappa).sample(600, np.random.default_rng(39))
        grid = VonMises(kappa).sample((20, 30), np.random.default_rng(39))
        assert flat.shape == (600,) and grid.shape == (20, 30)
        assert np.array_equal(flat, grid.ravel())


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
        draws = np.abs(correlation_factor(corr) @ complex_normals((3, 20_000), rng))
        power = draws**2
        assert abs(power.mean() - 1.0) < 3.0 * power.std() / math.sqrt(power.size)
        assert abs(draws.mean() - math.sqrt(math.pi) / 2) < \
            3.0 * draws.std() / math.sqrt(draws.size)

    def test_pair_moment_matches_cross_moment(self, rng):
        rho = 0.6366
        corr = np.array([[1.0, rho], [rho, 1.0]])
        factor = correlation_factor(corr)
        z = complex_normals((2, 400_000), rng)
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
        z = complex_normals((4, 1_000_000), rng)
        h = factor @ z
        emp = (h @ h.conj().T).real / h.shape[1]
        # entry variance is O(1/sqrt(samples)); 3 sigma with margin
        assert np.max(np.abs(emp - base)) < 3.5 / math.sqrt(h.shape[1])

    @pytest.mark.parametrize("rows, wide, cols", [(20, 100, 1024), (1, 7, 3), (5, 5, 2),
                                                   (3, 40, 1), (2, 5, 16385), (7, 9, 8191)])
    def test_narrow_draw_is_the_leading_rows(self, rows, wide, cols):
        # element-major order: a layout's draws do not depend on how many
        # elements the widest layout of its walk has
        narrow = standard_complex_gaussian((rows, cols), np.random.default_rng(9))
        full = standard_complex_gaussian((wide, cols), np.random.default_rng(9))
        assert narrow.shape == (rows, 2, cols)
        assert np.array_equal(narrow, full[:rows])


class TestPolarGaussian:
    # standard_complex_gaussian returns z in polar form: per row, the radii
    # |z|, then the tangents t = tan(arg(z) / 2)

    def test_complex_moments(self):
        # E|z|^2 = 1, E z^2 = 0 and E|z|^4 = 2 for a unit circular normal
        z = complex_normals((4, 1_000_000), np.random.default_rng(21)).ravel()
        power = np.abs(z) ** 2
        square = z * z
        for sample, expected in ((power, 1.0), (square.real, 0.0), (square.imag, 0.0),
                                 (power * power, 2.0)):
            assert abs(sample.mean() - expected) < 4.5 * sample.std() / math.sqrt(sample.size)

    def test_radius_and_angle_laws(self):
        # |z|^2 is Exp(1), and the angle 2 arctan t is uniform on [-pi, pi)
        radius, tangent = standard_complex_gaussian(800_000, np.random.default_rng(22))
        assert stats.kstest(radius * radius, "expon").pvalue > 1e-3
        angle = 2.0 * np.arctan(tangent)
        assert stats.kstest(angle, "uniform", args=(-math.pi, 2.0 * math.pi)).pvalue > 1e-3
        assert np.all(radius >= 0.0)

    @pytest.mark.parametrize("tile", [1, 1000, 4096, 65536])
    def test_draw_does_not_depend_on_the_tile(self, tile, monkeypatch):
        reference = standard_complex_gaussian((37, 1500), np.random.default_rng(23))
        monkeypatch.setattr(channel, "_TILE", tile)
        assert np.array_equal(standard_complex_gaussian((37, 1500), np.random.default_rng(23)),
                              reference)

    @pytest.mark.parametrize("count", [1, 1000, 2049, 16384])
    def test_amplitudes_are_those_of_the_complex_draw(self, count):
        # the walk's |a| scale and unit phasor of a: the radius and the
        # half-angle formulas on t uncoloured, and from Re and Im coloured
        # in place
        geom = ArrayGeometry(n_h=5, n_v=4, elem_len_l=0.025, elem_len_w=0.025)
        factor = correlation_factor(correlation_matrix(geom))
        polar = standard_complex_gaussian((20, count), np.random.default_rng(25))
        radius, tangent = polar[:, 0], polar[:, 1]
        scale = np.random.default_rng(26).random((20, count))
        amp, phasor = channel._amplitudes(polar.copy(), None, scale, phasor=True)
        assert np.array_equal(amp, radius * scale)
        assert np.allclose(phasor[:, 0] + 1j * phasor[:, 1], np.exp(2j * np.arctan(tangent)),
                           rtol=0.0, atol=1e-15)
        coloured = factor @ (radius * np.exp(2j * np.arctan(tangent))) * scale
        amp, phasor = channel._amplitudes(polar, factor, scale, phasor=True)
        assert np.allclose(amp * (phasor[:, 0] + 1j * phasor[:, 1]), coloured,
                           rtol=0.0, atol=1e-13)
        assert channel._amplitudes(polar, None)[1] is None

    def test_int_size_is_one_row(self):
        draw = standard_complex_gaussian(1000, np.random.default_rng(24))
        assert draw.shape == (2, 1000)
        assert np.array_equal(draw, standard_complex_gaussian((1, 1000),
                                                              np.random.default_rng(24))[0])


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
        (geom,) = {point.geom for _, _, point, _ in load_spec("fig7_correlation").points()
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

    def test_eigh_fallback_logs_its_residual(self, caplog):
        # 6 x 6 elements of 0.00625 m at 0.1 m wavelength: rank deficient
        corr = correlation_matrix(grid(6, 6, spacing=16))
        with caplog.at_level(logging.DEBUG, logger="ios_noma.channel"):
            factor = correlation_factor(corr)
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert f"max |L L^T - R| = {residual(factor, corr):.2g}" in record.getMessage()

    def test_cholesky_logs_nothing(self, caplog):
        # the bundled 15 x 4 layout at half-wavelength spacing
        with caplog.at_level(logging.DEBUG, logger="ios_noma.channel"):
            correlation_factor(correlation_matrix(grid(15, 4, spacing=2)))
        assert caplog.records == []

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
        """The gain of one trial, the elements as one column, from the
        tangents tan(phi / 2) of the phases."""
        mags, phases = (np.asarray(x, dtype=float)[:, None] for x in (mags, phases))
        return float(_boosted_gains(mags, np.tan(0.5 * phases), len(mags), [1])[1][0])

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
        gains = _boosted_gains(mag_g * mag_h, np.tan(0.5 * phases), 4, [1, 2, 3, 4])
        for cols, row in gains.items():
            for t in range(trials):
                acc = 0.0 + 0.0j
                for k in range(4 * cols):
                    acc += mag_g[k, t] * mag_h[k, t] * np.exp(1j * phases[k, t])
                assert row[t] == pytest.approx(abs(acc) ** 2, rel=1e-12)


class TestMeanCompositeGain:
    def test_uncorrelated_perfect_phase(self, rng):
        n, trials = 8, 200_000
        mh = np.abs(complex_normals((n, trials), rng))
        mg = np.abs(complex_normals((n, trials), rng))
        gains = np.sum(mg * mh, axis=0) ** 2
        expected = n + n * (n - 1) * math.pi**2 / 16.0
        assert abs(gains.mean() - expected) < 3.0 * gains.std() / math.sqrt(trials)

    def test_corollary_bounds_with_quantization(self, rng):
        n, trials = 6, 200_000
        eps = Quantized(1).epsilon()
        mh = np.abs(complex_normals((n, trials), rng))
        mg = np.abs(complex_normals((n, trials), rng))
        phi = 2.0 * np.arctan(Quantized(1).sample((n, trials), rng))
        gains = np.abs(np.sum(mg * mh * np.exp(1j * phi), axis=0)) ** 2
        se = gains.std() / math.sqrt(trials)
        lower = n + math.pi**2 * n * (n - 1) * eps**2 / 16.0
        upper = n + n * (n - 1) * eps**2
        assert gains.mean() > lower - 3.0 * se
        assert gains.mean() < upper + 3.0 * se
