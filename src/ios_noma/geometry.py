"""Surface layout, spatial correlation, and magnitude-moment matrices.

The surface is a planar rectangular array in the yz plane with n_h
elements per row and n_v per column.  Elements are indexed 1..N row by
row.  Correlation between fading coefficients of two elements follows
the isotropic-scattering sinc kernel sin(2 pi d / lambda) / (2 pi d /
lambda) of their separation d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import elliptic_e, elliptic_k

__all__ = [
    "ArrayGeometry",
    "correlation_matrix",
    "cross_moment",
    "magnitude_moment_matrix",
    "trace_rbar_sq",
]

# Above this value of |rho|^2 the 0*inf limit of cross_moment is taken
# analytically: (m-1)/2 * K(m) -> 0 while K alone diverges.
_UNIT_RHO_SQ = 1.0 - 1e-9


@dataclass(frozen=True)
class ArrayGeometry:
    """Rectangular surface layout.

    n_h, n_v are the element counts per row and per column; elem_len_l
    and elem_len_w the horizontal and vertical element sizes in meters
    (element centers are spaced by exactly these sizes); base_height_l0
    the mounting height of the first row; wavelength the carrier
    wavelength in meters.
    """

    n_h: int
    n_v: int
    elem_len_l: float
    elem_len_w: float
    base_height_l0: float = 0.0
    wavelength: float = 0.1

    def __post_init__(self):
        if self.n_h < 1 or self.n_v < 1:
            raise ValueError("n_h and n_v must be positive integers")
        if self.elem_len_l <= 0 or self.elem_len_w <= 0:
            raise ValueError("element sizes must be positive")
        if self.base_height_l0 < 0:
            raise ValueError("base_height_l0 must be non-negative")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")

    @property
    def n_elements(self) -> int:
        return self.n_h * self.n_v


def _all_coordinates(geom: ArrayGeometry) -> np.ndarray:
    """Rows [0, y*l, z*w + l0] of the elements in row-major order."""
    idx = np.arange(geom.n_elements)
    y = (idx % geom.n_h) * geom.elem_len_l
    z = (idx // geom.n_h) * geom.elem_len_w + geom.base_height_l0
    return np.stack([np.zeros_like(y), y, z], axis=1)


def _sinc(x: np.ndarray) -> np.ndarray:
    # series branch keeps the diagonal exactly 1 and avoids 0/0
    out = np.empty_like(x)
    small = np.abs(x) < 1e-6
    xs = x[small]
    out[small] = 1.0 - xs * xs / 6.0
    xl = x[~small]
    out[~small] = np.sin(xl) / xl
    return out


def correlation_matrix(geom: ArrayGeometry) -> np.ndarray:
    """N x N fading correlation matrix, sinc kernel of pairwise distances."""
    coords = _all_coordinates(geom)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    return _sinc(2.0 * np.pi * dist / geom.wavelength)


def cross_moment(rho_sq):
    """Mean of the product of two unit-power Rayleigh magnitudes.

    rho_sq is the squared magnitude of the complex correlation between
    the underlying Gaussian coefficients.  Equals
    (rho_sq/2 - 1/2) K(rho_sq) + E(rho_sq), which runs from pi/4 at
    rho_sq = 0 up to 1 at rho_sq = 1 (the limit value is substituted
    analytically near 1 where K blows up).
    """
    arr = np.asarray(rho_sq, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("cross_moment requires rho_sq in [0, 1]")
    flat = np.atleast_1d(arr)
    out = np.ones_like(flat)
    reg = flat <= _UNIT_RHO_SQ
    m = flat[reg]
    out[reg] = (0.5 * m - 0.5) * elliptic_k(m) + elliptic_e(m)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def magnitude_moment_matrix(corr: np.ndarray) -> np.ndarray:
    """Entrywise moment matrix E[|w||w|^T] from a correlation matrix."""
    corr = np.asarray(corr, dtype=float)
    rbar = cross_moment(np.abs(corr) ** 2)
    rbar = np.atleast_2d(rbar)
    np.fill_diagonal(rbar, 1.0)
    return rbar


def trace_rbar_sq(rbar: np.ndarray) -> float:
    """tr(Rbar Rbar) = sum of squared entries of the symmetric Rbar."""
    rbar = np.asarray(rbar, dtype=float)
    return float(np.sum(rbar * rbar))
