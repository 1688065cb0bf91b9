"""Surface layout, spatial correlation, tr(Rbar Rbar) and E[P2^2].

The surface is a planar rectangular array in the yz plane with n_h
elements per row and n_v per column.  Elements are indexed 1..N column
by column (index row + n_v col), so the leading n_h columns of a wider
layout with the same n_v, element sizes and wavelength (one family) are
its leading n_v n_h elements.  Correlation between fading coefficients
of two elements follows the isotropic-scattering sinc kernel
sin(2 pi d / lambda) / (2 pi d / lambda) of their separation d.  On
the regular grid, d depends only on the index offsets (a, b) of the two
elements, so the kernel is one n_h x n_v table of offsets, and every
per-layout quantity derives from it: the correlation matrix R gathers its entries from the table, and the
magnitude-moment matrix Rbar = E[|w||w|^T] has one entry per offset, the
cross moment of the table entry.  The analytic bounds read Rbar only
through tr(Rbar Rbar), which is summed over the offsets in O(N) and
cached per layout, as is the mean sum_{n, m} (1 + R_nm^2)^2 of the
Monte Carlo engine's energy control (mean_p2_sq).  The dense N x N
matrix R is built only to colour the Monte Carlo draws.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .specfun import _unit_interval, elliptic_e, elliptic_k

# Above this value of |rho|^2 the 0*inf limit of cross_moment is taken
# analytically: (m-1)/2 * K(m) -> 0 while K alone diverges.
_UNIT_RHO_SQ = 1.0 - 1e-9


@dataclass(frozen=True)
class ArrayGeometry:
    """Rectangular surface layout.

    n_h, n_v are the element counts per row and per column; elem_len_l
    and elem_len_w the horizontal and vertical element sizes in meters
    (element centers are spaced by exactly these sizes); wavelength the
    carrier wavelength in meters.
    """

    n_h: int
    n_v: int
    elem_len_l: float
    elem_len_w: float
    wavelength: float = 0.1

    def __post_init__(self):
        try:  # operator.index takes ints and numpy integers, not 2.0
            positive = operator.index(self.n_h) >= 1 and operator.index(self.n_v) >= 1
        except TypeError:
            positive = False
        if not positive:
            raise ValueError("n_h and n_v must be positive integers")
        if self.elem_len_l <= 0 or self.elem_len_w <= 0:
            raise ValueError("element sizes must be positive")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        corner = math.hypot((self.n_h - 1) * self.elem_len_l, (self.n_v - 1) * self.elem_len_w)
        if not math.isfinite(2.0 * math.pi * corner / self.wavelength):  # sinc's widest argument
            raise ValueError("element separation over wavelength overflows a float")

    @property
    def n_elements(self) -> int:
        return self.n_h * self.n_v


def _sinc(x: np.ndarray) -> np.ndarray:
    # series branch keeps the diagonal exactly 1 and avoids 0/0
    out = np.empty_like(x)
    small = np.abs(x) < 1e-6
    xs = x[small]
    out[small] = 1.0 - xs * xs / 6.0
    xl = x[~small]
    out[~small] = np.sin(xl) / xl
    return out


def _kernel_table(geom: ArrayGeometry) -> np.ndarray:
    """(n_h, n_v) table of the sinc kernel: rho[a, b] is the correlation
    of two elements a columns and b rows apart, rho[0, 0] = 1."""
    dist = np.hypot(np.arange(geom.n_h)[:, None] * geom.elem_len_l,
                    np.arange(geom.n_v)[None, :] * geom.elem_len_w)
    return _sinc(2.0 * np.pi * dist / geom.wavelength)


def correlation_matrix(geom: ArrayGeometry) -> np.ndarray:
    """N x N fading correlation matrix, elements in column-major order.

    R[i, j] is gathered from the kernel table at the column and row
    offsets of elements i and j, so R is exactly symmetric with a unit
    diagonal, and the R of n_h columns is exactly the leading
    n_v n_h x n_v n_h block of the R of every wider layout of its
    family."""
    idx = np.arange(geom.n_elements)
    col, row = idx // geom.n_v, idx % geom.n_v
    return _kernel_table(geom)[np.abs(col[:, None] - col[None, :]),
                               np.abs(row[:, None] - row[None, :])]


def cross_moment(rho_sq):
    """Mean of the product of two unit-power Rayleigh magnitudes.

    rho_sq is the squared magnitude of the complex correlation between
    the underlying Gaussian coefficients.  Equals
    (rho_sq/2 - 1/2) K(rho_sq) + E(rho_sq), which runs from pi/4 at
    rho_sq = 0 up to 1 at rho_sq = 1 (the limit value is substituted
    analytically near 1 where K blows up).
    """
    arr = _unit_interval(rho_sq, "cross_moment requires rho_sq in [0, 1]")
    flat = np.atleast_1d(arr)
    out = np.ones_like(flat)
    reg = flat <= _UNIT_RHO_SQ
    m = flat[reg]
    out[reg] = (0.5 * m - 0.5) * elliptic_k(m) + elliptic_e(m)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _moment_table(geom: ArrayGeometry, correlated: bool) -> np.ndarray:
    """(n_h, n_v) table of Rbar entries: m[a, b] = E[|w_i||w_j|] for two
    elements a columns and b rows apart.  m[0, 0] = 1; off the origin it
    is cross_moment of the squared sinc kernel, or pi/4 for i.i.d.
    elements."""
    if correlated:
        rho = _kernel_table(geom)
        table = cross_moment(rho * rho)
    else:
        table = np.full((geom.n_h, geom.n_v), np.pi / 4.0)
    table[0, 0] = 1.0
    return table


def _offset_counts(n: int) -> np.ndarray:
    """Ordered index pairs of 0..n-1 at each offset: n at 0, 2 (n - a) at a."""
    counts = 2.0 * (n - np.arange(n))
    counts[0] = n
    return counts


def _offset_sum(geom: ArrayGeometry, table: np.ndarray) -> float:
    """sum over the ordered element pairs of an (n_h, n_v) table of
    offsets: sum over (a, b) of c_a d_b table[a, b], where c and d count
    the ordered pairs at each column and row offset."""
    return float(_offset_counts(geom.n_h) @ table @ _offset_counts(geom.n_v))


@functools.cache
def trace_rbar_sq(geom: ArrayGeometry, correlated: bool) -> float:
    """tr(Rbar Rbar) of the layout, or of i.i.d. elements if not correlated.

    Rbar is symmetric, so the trace is the sum of its squared entries,
    the _offset_sum of m[a, b]^2.  For i.i.d. elements E[|w_i||w_j|] =
    pi/4 off the diagonal, which gives
    N + N (N - 1) pi^2 / 16, not N.  The result lies in [that value, N^2].
    Cached per (geom, correlated): the sweep's bounds and the engine's
    control means read the same value.
    """
    table = _moment_table(geom, correlated)
    return _offset_sum(geom, table * table)


@functools.cache
def mean_p2_sq(geom: ArrayGeometry, correlated: bool) -> float:
    """E[P2^2] of P2 = sum_n |g_n|^2 |h_n|^2 for independent g and h, each
    CN(0, R) over the layout, or with i.i.d. elements if not correlated.

    For CN(0, R), E[|g_n|^2 |g_m|^2] = 1 + |R_nm|^2, so E[P2^2] = sum_{n, m}
    (1 + R_nm^2)^2, the _offset_sum of (1 + rho[a, b]^2)^2: 4 at the origin,
    and 1 off it for i.i.d. elements, which gives N^2 + 3 N.  Cached per
    (geom, correlated), as trace_rbar_sq is."""
    rho_sq = np.square(_kernel_table(geom)) if correlated else np.zeros((geom.n_h, geom.n_v))
    rho_sq[0, 0] = 1.0
    return _offset_sum(geom, np.square(1.0 + rho_sq))
