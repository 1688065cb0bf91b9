import math

import numpy as np
import pytest
from scipy import integrate, special

from ios_noma.specfun import bessel_ratio_i1_i0, elliptic_e, elliptic_k


def quad_k(m):
    val, _ = integrate.quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
                            0.0, math.pi / 2, epsabs=1e-13, limit=200)
    return val


def quad_e(m):
    val, _ = integrate.quad(lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2),
                            0.0, math.pi / 2, epsabs=1e-13, limit=200)
    return val


def quad_i(x, order):
    val, _ = integrate.quad(lambda t: math.exp(x * math.cos(t)) * math.cos(order * t),
                            0.0, math.pi, epsabs=1e-13, limit=200)
    return val / math.pi


class TestElliptic:
    def test_endpoints(self):
        assert elliptic_k(0.0) == pytest.approx(math.pi / 2, abs=1e-12)
        assert elliptic_e(0.0) == pytest.approx(math.pi / 2, abs=1e-12)
        assert elliptic_e(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_midpoint_values(self):
        # reference values from quadrature of the defining integrals
        assert elliptic_k(0.5) == pytest.approx(1.854074677301372, abs=1e-12)
        assert elliptic_e(0.5) == pytest.approx(1.350643881047676, abs=1e-12)

    @pytest.mark.parametrize("m", [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999])
    def test_against_quadrature(self, m):
        assert elliptic_k(m) == pytest.approx(quad_k(m), abs=1e-10)
        assert elliptic_e(m) == pytest.approx(quad_e(m), abs=1e-10)

    def test_divergence_toward_one(self):
        assert elliptic_k(1.0 - 1e-12) > 14.0

    def test_monotone_on_grid(self):
        m = np.linspace(0.0, 1.0, 1001)[:-1]
        k = elliptic_k(m)
        e = elliptic_e(m)
        assert np.all(np.diff(k) > 0)
        assert np.all(np.diff(e) < 0)

    def test_legendre_relation(self):
        m = np.linspace(0.001, 0.999, 999)
        lhs = (elliptic_e(m) * elliptic_k(1 - m) + elliptic_e(1 - m) * elliptic_k(m)
               - elliptic_k(m) * elliptic_k(1 - m))
        assert np.max(np.abs(lhs - math.pi / 2)) < 1e-9

    def test_array_round_trip(self):
        m = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert elliptic_k(m).shape == (2, 2)
        assert isinstance(elliptic_k(0.25), float)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_k_domain(self, bad):
        with pytest.raises(ValueError):
            elliptic_k(bad)

    @pytest.mark.parametrize("bad", [-1e-9, 1.0 + 1e-9])
    def test_e_domain(self, bad):
        with pytest.raises(ValueError):
            elliptic_e(bad)


class TestBessel:
    """I1/I0, the Von Mises mean cosine; both branches of the evaluation
    (series up to x = 15, asymptotic beyond) are covered."""

    def test_at_zero(self):
        assert bessel_ratio_i1_i0(0.0) == 0.0

    def test_frozen_ratio(self):
        assert bessel_ratio_i1_i0(2.0) == pytest.approx(0.697774657964008, rel=1e-10)

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 14.9, 15.1, 30.0, 50.0])
    def test_against_quadrature(self, x):
        assert bessel_ratio_i1_i0(x) == pytest.approx(quad_i(x, 1) / quad_i(x, 0),
                                                      rel=1e-10)

    def test_ratio_bounded_and_increasing(self):
        xs = np.linspace(0.0, 50.0, 2000)
        ratios = np.array([bessel_ratio_i1_i0(x) for x in xs])
        assert np.all(ratios >= 0.0)
        assert np.all(ratios < 1.0)
        assert np.all(np.diff(ratios) > 0)

    def test_ratio_large_argument(self):
        assert bessel_ratio_i1_i0(200.0) > 0.997
        assert bessel_ratio_i1_i0(1000.0) < 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_ratio_i1_i0(-1e-9)
        with pytest.raises(ValueError):  # the asymptotic loop would never end
            bessel_ratio_i1_i0(math.nan)

    def test_infinite_argument(self):
        assert bessel_ratio_i1_i0(math.inf) == 1.0



class TestAgainstScipy:
    """Relative error against scipy.special over each function's whole domain."""

    @staticmethod
    def rel_err(ours, ref):
        ours, ref = np.asarray(ours), np.asarray(ref)
        return np.max(np.abs(ours - ref) / np.where(ref == 0.0, 1.0, np.abs(ref)))

    def test_elliptic_k(self):
        m = np.concatenate([np.linspace(0.0, 1.0, 100_001)[:-1],
                            1.0 - 10.0 ** -np.arange(1, 16)])
        assert self.rel_err(elliptic_k(m), special.ellipk(m)) <= 4e-15

    def test_elliptic_e(self):
        m = np.concatenate([np.linspace(0.0, 1.0, 100_001),
                            1.0 - 10.0 ** -np.arange(1, 16)])
        assert self.rel_err(elliptic_e(m), special.ellipe(m)) <= 4e-15

    def test_bessel_ratio(self):
        # dense around the switch from power series to asymptotic expansion
        x = np.unique(np.concatenate([np.linspace(0.0, 1000.0, 20_001),
                                      np.linspace(14.0, 16.0, 2001)]))
        ours = [bessel_ratio_i1_i0(float(v)) for v in x]
        assert self.rel_err(ours, special.i1e(x) / special.i0e(x)) <= 1e-13
