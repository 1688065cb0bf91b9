import math

import numpy as np
import pytest

from ios_noma.geometry import (ArrayGeometry, _all_coordinates,
                               correlation_matrix, cross_moment,
                               magnitude_moment_matrix, trace_rbar_sq)

QUARTER_PI = math.pi / 4


def bivariate_magnitude_moment(rho_sq, samples, seed):
    """Independent oracle: average |w1||w2| over correlated complex pairs."""
    rng = np.random.default_rng(seed)
    rho = math.sqrt(rho_sq)
    z1 = (rng.standard_normal(samples) + 1j * rng.standard_normal(samples)) / np.sqrt(2)
    z2 = (rng.standard_normal(samples) + 1j * rng.standard_normal(samples)) / np.sqrt(2)
    w2 = rho * z1 + math.sqrt(1.0 - rho_sq) * z2
    prod = np.abs(z1) * np.abs(w2)
    return prod.mean(), prod.std() / math.sqrt(samples)


class TestCoordinates:
    # rows of _all_coordinates are elements 1..N in row-major order

    def test_first_element_at_base(self):
        geom = ArrayGeometry(n_h=4, n_v=3, elem_len_l=0.05, elem_len_w=0.04,
                             base_height_l0=2.0)
        assert np.allclose(_all_coordinates(geom)[0], [0.0, 0.0, 2.0])

    def test_row_wrap(self):
        geom = ArrayGeometry(n_h=4, n_v=3, elem_len_l=0.05, elem_len_w=0.04,
                             base_height_l0=2.0)
        assert np.allclose(_all_coordinates(geom)[4], [0.0, 0.0, 2.04])

    def test_second_row_second_column(self):
        geom = ArrayGeometry(n_h=4, n_v=2, elem_len_l=0.05, elem_len_w=0.05)
        assert np.allclose(_all_coordinates(geom)[5], [0.0, 0.05, 0.05])

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(n_h=0, n_v=3, elem_len_l=0.05, elem_len_w=0.05)
        with pytest.raises(ValueError):
            ArrayGeometry(n_h=4, n_v=3, elem_len_l=-0.05, elem_len_w=0.05)
        with pytest.raises(ValueError):
            ArrayGeometry(n_h=4, n_v=3, elem_len_l=0.05, elem_len_w=0.05,
                          wavelength=0.0)


class TestCorrelationMatrix:
    def test_unit_diagonal_and_symmetry(self):
        geom = ArrayGeometry(n_h=5, n_v=3, elem_len_l=0.03, elem_len_w=0.07,
                             wavelength=0.11)
        corr = correlation_matrix(geom)
        assert np.array_equal(np.diag(corr), np.ones(15))
        assert np.allclose(corr, corr.T)
        assert np.all(np.abs(corr) <= 1.0)

    def test_half_wavelength_linear_array_uncorrelated(self):
        geom = ArrayGeometry(n_h=8, n_v=1, elem_len_l=0.05, elem_len_w=0.05,
                             wavelength=0.1)
        assert np.allclose(correlation_matrix(geom), np.eye(8), atol=1e-12)

    def test_quarter_wavelength_neighbors(self):
        geom = ArrayGeometry(n_h=2, n_v=1, elem_len_l=0.05, elem_len_w=0.05,
                             wavelength=0.2)
        corr = correlation_matrix(geom)
        assert corr[0, 1] == pytest.approx(2.0 / math.pi, abs=1e-12)


class TestCrossMoment:
    def test_uncorrelated_endpoint(self):
        assert cross_moment(0.0) == pytest.approx(QUARTER_PI, abs=1e-12)

    def test_fully_correlated_endpoint(self):
        assert cross_moment(1.0) == 1.0
        assert cross_moment(1.0 - 1e-10) == 1.0

    def test_monotone_and_bounded(self):
        grid = np.linspace(0.0, 1.0, 1000)
        vals = cross_moment(grid)
        assert np.all(np.diff(vals) >= 0)
        assert np.all(vals >= QUARTER_PI - 1e-12)
        assert np.all(vals <= 1.0 + 1e-12)

    def test_against_bivariate_sampling(self):
        mc, se = bivariate_magnitude_moment(0.5, 1_000_000, seed=42)
        assert abs(cross_moment(0.5) - mc) < 3.0 * se

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            cross_moment(bad)


class TestMomentMatrix:
    def test_identity_correlation(self):
        rbar = magnitude_moment_matrix(np.eye(4))
        assert np.allclose(np.diag(rbar), 1.0)
        off = rbar[~np.eye(4, dtype=bool)]
        assert np.allclose(off, QUARTER_PI, atol=1e-12)

    def test_single_element(self):
        assert np.array_equal(magnitude_moment_matrix(np.eye(1)), [[1.0]])

    def test_two_element_entry(self):
        rho = 0.6366
        rbar = magnitude_moment_matrix(np.array([[1.0, rho], [rho, 1.0]]))
        assert rbar[0, 1] == pytest.approx(cross_moment(rho**2), abs=1e-14)

    def test_moment_approaches_quarter_pi_with_separation(self):
        geom = ArrayGeometry(n_h=2, n_v=1, elem_len_l=5.0, elem_len_w=5.0,
                             wavelength=0.1)
        rbar = magnitude_moment_matrix(correlation_matrix(geom))
        assert rbar[0, 1] == pytest.approx(QUARTER_PI, abs=1e-6)


class TestTrace:
    def test_uncorrelated_closed_form(self):
        n = 12
        rbar = magnitude_moment_matrix(np.eye(n))
        expected = n + n * (n - 1) * math.pi**2 / 16.0
        assert trace_rbar_sq(rbar) == pytest.approx(expected, rel=1e-12)

    def test_single_element(self):
        assert trace_rbar_sq(magnitude_moment_matrix(np.eye(1))) == 1.0

    def test_matches_naive_double_loop(self):
        geom = ArrayGeometry(n_h=4, n_v=4, elem_len_l=0.05, elem_len_w=0.05,
                             wavelength=0.2)
        rbar = magnitude_moment_matrix(correlation_matrix(geom))
        naive = sum(rbar[i, j] * rbar[j, i]
                    for i in range(16) for j in range(16))
        assert trace_rbar_sq(rbar) == pytest.approx(naive, rel=1e-12)

    def test_bounds(self):
        geom = ArrayGeometry(n_h=4, n_v=4, elem_len_l=0.05, elem_len_w=0.05,
                             wavelength=0.2)
        n = geom.n_elements
        tr = trace_rbar_sq(magnitude_moment_matrix(correlation_matrix(geom)))
        assert n + math.pi**2 * n * (n - 1) / 16.0 <= tr <= n * n
