import math
import sys

import numpy as np
import pytest

from ios_noma import ArrayGeometry, Quantized, SystemParams, mc
from ios_noma.channel import standard_complex_gaussian
from ios_noma.geometry import cross_moment


def complex_normals(size, rng):
    """The circularly-symmetric complex normals of one
    standard_complex_gaussian draw of the given size, r e^{j theta} from
    its radii r and half-angle tangents t, theta = 2 arctan t."""
    radius, tangent = np.moveaxis(standard_complex_gaussian(size, rng), -2, 0)
    return radius * np.exp(2j * np.arctan(tangent))


def per_bit_gain_limit(b):
    """Large-array limit of the T rate gained by a (b+1)-th phase
    quantization bit: the hardening rate grows as 2 log2(eps_b N), so
    the gain tends to 2 log2(eps_{b+1} / eps_b)."""
    return 2.0 * math.log2(Quantized(b + 1).epsilon() / Quantized(b).epsilon())


def dense_correlation(geom):
    """Reference R: the sinc kernel of the pairwise distances of the
    element centres, elements in column-major order (index row + n_v col),
    from an N x N x 2 array of coordinate differences."""
    idx = np.arange(geom.n_elements)
    coords = np.stack([(idx // geom.n_v) * geom.elem_len_l,
                       (idx % geom.n_v) * geom.elem_len_w], axis=1)
    diff = coords[:, None, :] - coords[None, :, :]
    # np.sinc(t) = sin(pi t) / (pi t)
    return np.sinc(2.0 * np.sqrt(np.sum(diff * diff, axis=-1)) / geom.wavelength)


def dense_moment(corr):
    """Reference Rbar = cross_moment(|R|^2) with unit diagonal, entry by
    entry from an N x N correlation matrix."""
    rbar = np.atleast_2d(cross_moment(np.abs(np.asarray(corr, dtype=float)) ** 2))
    np.fill_diagonal(rbar, 1.0)
    return rbar


def dense_trace(corr):
    """Reference tr(Rbar Rbar): the sum of the squared entries of the
    symmetric dense Rbar, O(N^2) elliptic evaluations."""
    rbar = dense_moment(corr)
    return float(np.sum(rbar * rbar))


@pytest.fixture
def half_wave_geometry():
    """Factory for the default half-wavelength rectangular layout."""
    def make(n_h=15, n_v=4, wavelength=0.1):
        return ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=wavelength / 2,
                             elem_len_w=wavelength / 2, wavelength=wavelength)
    return make


@pytest.fixture
def noma_params():
    """Factory for the baseline two-user setup (splits 0.6/0.8, 0.8/0.6)."""
    def make(**kwargs):
        return SystemParams.from_db(**kwargs)
    return make


@pytest.fixture
def tboost_params():
    """Factory for the single-user setup serving T with everything."""
    def make(**kwargs):
        return SystemParams.from_db(q_t=1.0, q_r=0.0, alpha=1.0, beta=0.0, **kwargs)
    return make


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture
def counting(monkeypatch):
    """count(name) replaces mc.<name>, in every ios_noma module that binds
    it, by a wrapper that lists the positional arguments of each call, and
    returns that list."""
    def count(name):
        calls = []
        original = getattr(mc, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "ios_noma" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
        return calls
    return count
