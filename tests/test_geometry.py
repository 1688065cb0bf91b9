import math

import numpy as np
import pytest
from conftest import dense_correlation, dense_moment, dense_trace
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ios_noma.geometry import (ArrayGeometry, _moment_table, correlation_matrix,
                               cross_moment, mean_p2_sq, trace_rbar_sq)

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
    # rows of correlation_matrix are elements 1..N in column-major order
    # (index row + n_v col), and each entry is the kernel of the two
    # element centres' distance

    def test_row_wrap(self):
        # element 3 of a 3-tall grid wraps back to the first row, in the
        # second column
        geom = ArrayGeometry(n_h=4, n_v=3, elem_len_l=0.04, elem_len_w=0.05)
        assert correlation_matrix(geom)[0, 3] == pytest.approx(
            math.sin(2 * math.pi * 0.4) / (2 * math.pi * 0.4), abs=1e-15)

    def test_second_row_second_column(self):
        geom = ArrayGeometry(n_h=4, n_v=2, elem_len_l=0.05, elem_len_w=0.05)
        x = 2 * math.pi * math.hypot(0.05, 0.05) / geom.wavelength
        assert correlation_matrix(geom)[0, 3] == pytest.approx(math.sin(x) / x, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(n_h=st.integers(1, 10), extra=st.integers(1, 8), n_v=st.integers(1, 8),
           spacing=st.sampled_from([2, 3, 4, 8]), aspect=st.floats(0.3, 3.0))
    def test_narrow_layout_is_the_leading_block(self, n_h, extra, n_v, spacing, aspect):
        # the layouts of one family nest: n_h columns are the leading
        # n_v n_h elements of every wider layout
        narrow = ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=0.1 / spacing,
                               elem_len_w=aspect * 0.1 / spacing, wavelength=0.1)
        wide = correlation_matrix(ArrayGeometry(
            n_h=n_h + extra, n_v=n_v, elem_len_l=narrow.elem_len_l,
            elem_len_w=narrow.elem_len_w, wavelength=0.1))
        n = narrow.n_elements
        assert np.array_equal(correlation_matrix(narrow), wide[:n, :n])

    @settings(max_examples=60, deadline=None)
    @given(n_h=st.integers(1, 12), n_v=st.integers(1, 12),
           spacing=st.sampled_from([2, 3, 4, 8]), aspect=st.floats(0.3, 3.0))
    @example(n_h=1, n_v=7, spacing=8, aspect=1.0)
    @example(n_h=9, n_v=1, spacing=8, aspect=1.0)
    @example(n_h=1, n_v=1, spacing=4, aspect=1.0)
    @example(n_h=6, n_v=5, spacing=8, aspect=0.45)
    def test_gathered_matrix_matches_coordinates(self, n_h, n_v, spacing, aspect):
        # element length lambda/spacing, width that times aspect (non-square)
        geom = ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=0.1 / spacing,
                             elem_len_w=aspect * 0.1 / spacing, wavelength=0.1)
        corr = correlation_matrix(geom)
        assert np.max(np.abs(corr - dense_correlation(geom))) <= 1e-13
        assert np.array_equal(corr, corr.T)
        assert np.array_equal(np.diag(corr), np.ones(geom.n_elements))

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

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            cross_moment(bad)


class TestMomentMatrix:
    # _moment_table holds the distinct entries of Rbar, one per index offset

    def test_identity_correlation(self):
        geom = ArrayGeometry(n_h=2, n_v=2, elem_len_l=0.05, elem_len_w=0.05)
        table = _moment_table(geom, correlated=False)
        assert table[0, 0] == pytest.approx(1.0)
        off = table.ravel()[1:]
        assert np.allclose(off, QUARTER_PI, atol=1e-12)

    def test_single_element(self):
        geom = ArrayGeometry(n_h=1, n_v=1, elem_len_l=0.05, elem_len_w=0.05)
        for correlated in (True, False):
            assert np.array_equal(_moment_table(geom, correlated), [[1.0]])

    def test_two_element_entry(self):
        # quarter-wavelength neighbours: rho = sinc(pi / 2) = 2 / pi
        geom = ArrayGeometry(n_h=2, n_v=1, elem_len_l=0.05, elem_len_w=0.05,
                             wavelength=0.2)
        rho = 2.0 / math.pi
        assert _moment_table(geom, True)[1, 0] == pytest.approx(cross_moment(rho**2),
                                                                abs=1e-14)

    def test_moment_approaches_quarter_pi_with_separation(self):
        geom = ArrayGeometry(n_h=2, n_v=1, elem_len_l=5.0, elem_len_w=5.0,
                             wavelength=0.1)
        assert _moment_table(geom, True)[1, 0] == pytest.approx(QUARTER_PI, abs=1e-6)


def iid_trace(n):
    return n + n * (n - 1) * math.pi**2 / 16.0


class TestTrace:
    def test_uncorrelated_closed_form(self):
        geom = ArrayGeometry(n_h=4, n_v=3, elem_len_l=0.05, elem_len_w=0.05)
        assert trace_rbar_sq(geom, False) == pytest.approx(iid_trace(12), rel=1e-12)

    def test_uncorrelated_value_is_not_n(self):
        # i.i.d. magnitudes have E[|w_i||w_j|] = pi/4, so the trace exceeds N
        geom = ArrayGeometry(n_h=15, n_v=4, elem_len_l=0.05, elem_len_w=0.05)
        assert trace_rbar_sq(geom, False) == pytest.approx(iid_trace(60), rel=1e-12)
        assert trace_rbar_sq(geom, False) == pytest.approx(2243.64997, abs=1e-5)
        assert dense_trace(np.eye(60)) == pytest.approx(2243.64997, abs=1e-5)

    def test_single_element(self):
        geom = ArrayGeometry(n_h=1, n_v=1, elem_len_l=0.05, elem_len_w=0.05)
        assert trace_rbar_sq(geom, False) == 1.0
        assert trace_rbar_sq(geom, True) == 1.0

    def test_matches_naive_double_loop(self):
        geom = ArrayGeometry(n_h=4, n_v=4, elem_len_l=0.05, elem_len_w=0.05,
                             wavelength=0.2)
        rbar = dense_moment(correlation_matrix(geom))
        naive = sum(rbar[i, j] * rbar[j, i]
                    for i in range(16) for j in range(16))
        assert trace_rbar_sq(geom, True) == pytest.approx(naive, rel=1e-12)

    def test_bounds(self):
        geom = ArrayGeometry(n_h=4, n_v=4, elem_len_l=0.05, elem_len_w=0.05,
                             wavelength=0.2)
        n = geom.n_elements
        tr = trace_rbar_sq(geom, True)
        assert n + math.pi**2 * n * (n - 1) / 16.0 <= tr <= n * n

    @settings(max_examples=80, deadline=None)
    @given(n_h=st.integers(1, 14), n_v=st.integers(1, 14),
           spacing=st.sampled_from([2, 4, 8]),
           aspect=st.floats(0.3, 3.0), correlated=st.booleans())
    @example(n_h=1, n_v=9, spacing=8, aspect=0.7, correlated=True)
    @example(n_h=11, n_v=1, spacing=8, aspect=1.9, correlated=True)
    @example(n_h=1, n_v=1, spacing=8, aspect=1.0, correlated=True)
    def test_table_matches_dense_trace(self, n_h, n_v, spacing, aspect, correlated):
        # element length lambda/spacing, width that times aspect (non-square)
        wavelength = 0.1
        geom = ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=wavelength / spacing,
                             elem_len_w=aspect * wavelength / spacing,
                             wavelength=wavelength)
        corr = dense_correlation(geom) if correlated else np.eye(geom.n_elements)
        assert trace_rbar_sq(geom, correlated) == pytest.approx(dense_trace(corr),
                                                                rel=1e-12)


class TestMeanP2Sq:
    # E[P2^2] = sum_{n, m} (1 + R_nm^2)^2 for P2 = sum_n |g_n|^2 |h_n|^2,
    # summed over the offsets of the kernel table

    @pytest.mark.parametrize("n_h, n_v, length, wavelength", [
        (1, 1, 0.05, 0.1), (2, 4, 0.05, 0.1), (4, 1, 0.05, 0.1), (6, 4, 0.05, 0.2),
        (10, 4, 0.05, 0.1), (7, 5, 0.0125, 0.1)])
    def test_matches_the_dense_sum(self, n_h, n_v, length, wavelength):
        # the offset sum against the N x N sum over correlation_matrix: the
        # two add the same terms in different orders, so they agree to a
        # few units in the last place
        geom = ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=length, elem_len_w=length,
                             wavelength=wavelength)
        dense = float(np.sum(np.square(1.0 + np.square(correlation_matrix(geom)))))
        assert mean_p2_sq(geom, True) == pytest.approx(dense, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n_h, n_v", [(1, 1), (1, 4), (4, 1), (2, 4), (10, 4), (40, 40)])
    def test_iid_elements_give_n_squared_plus_3n(self, n_h, n_v):
        # E|w|^4 = 2 on the diagonal, so 4 there and 1 elsewhere
        geom = ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=0.05, elem_len_w=0.05)
        n = geom.n_elements
        assert mean_p2_sq(geom, False) == n * n + 3 * n

    @settings(max_examples=60, deadline=None)
    @given(n_h=st.integers(1, 14), n_v=st.integers(1, 14),
           spacing=st.sampled_from([2, 4, 8]), aspect=st.floats(0.3, 3.0))
    def test_table_matches_the_coordinate_sum(self, n_h, n_v, spacing, aspect):
        # against conftest's R from the element coordinates; it lies
        # between the i.i.d. value and 4 N^2, all elements fully correlated
        wavelength = 0.1
        geom = ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=wavelength / spacing,
                             elem_len_w=aspect * wavelength / spacing, wavelength=wavelength)
        dense = float(np.sum(np.square(1.0 + np.square(dense_correlation(geom)))))
        value, n = mean_p2_sq(geom, True), geom.n_elements
        assert value == pytest.approx(dense, rel=1e-12)
        assert n * n + 3 * n - 1e-9 * n * n <= value <= 4 * n * n
