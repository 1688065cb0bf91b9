"""Self-contained special functions used by the closed-form rate expressions.

Complete elliptic integrals use the parameter-m convention throughout,
K(m) = integral over [0, pi/2] of (1 - m sin^2 t)^(-1/2) dt, never the
modulus k.  Both are evaluated with the arithmetic-geometric-mean
iteration, which converges quadratically (8 iterations cover the whole
domain at double precision).  The ratio I1/I0 of modified Bessel
functions uses the ascending power series up to x = 15 and the large-x
asymptotic expansion beyond, so no external special-function library is
required.
"""

from __future__ import annotations

import functools

import numpy as np

_SERIES_CUTOFF = 15.0  # I0/I1 switch from power series to asymptotic expansion
_AGM_MAX_ITERATIONS = 64  # safety cap; the loop stops on |c| <= 4 eps a


def _agm_k_e(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """AGM pass returning (K(m), E(m)) elementwise for m in [0, 1)."""
    a = np.ones_like(m)
    b = np.sqrt(1.0 - m)
    c = np.sqrt(m)
    # E(m) = K(m) * (1 - sum_n 2^(n-1) c_n^2) with c_0 = sqrt(m)
    c_sum = 0.5 * c * c
    power = 0.5
    for _ in range(_AGM_MAX_ITERATIONS):
        if np.all(np.abs(c) <= 4.0 * np.finfo(float).eps * a):
            break
        a, b, c = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        power *= 2.0
        c_sum = c_sum + power * c * c
    k = np.pi / (2.0 * a)
    return k, k * (1.0 - c_sum)


def _unit_interval(x, message: str, *, closed: bool = True) -> np.ndarray:
    """x as a float array, or ValueError(message) unless every entry lies
    in [0, 1], or in [0, 1) if not closed.  NaN lies in neither."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & ((arr <= 1.0) if closed else (arr < 1.0))):
        raise ValueError(message)
    return arr


def elliptic_k(m):
    """Complete elliptic integral of the first kind, parameter-m convention.

    Accepts a scalar or ndarray with 0 <= m < 1; K diverges as m -> 1 and
    m = 1 is rejected (callers handle that limit analytically).
    """
    arr = _unit_interval(m, "elliptic_k requires 0 <= m < 1", closed=False)
    k, _ = _agm_k_e(np.atleast_1d(arr))
    return float(k[0]) if arr.ndim == 0 else k.reshape(arr.shape)


def elliptic_e(m):
    """Complete elliptic integral of the second kind, parameter-m convention.

    Accepts a scalar or ndarray with 0 <= m <= 1; E(1) = 1 exactly.
    """
    arr = _unit_interval(m, "elliptic_e requires 0 <= m <= 1")
    flat = np.atleast_1d(arr).copy()
    one = flat == 1.0
    flat[one] = 0.0  # placeholder, overwritten below
    _, e = _agm_k_e(flat)
    e[one] = 1.0
    return float(e[0]) if arr.ndim == 0 else e.reshape(arr.shape)


def _i_series(x: float, order: int) -> float:
    """I_order(x), order 0 or 1, from the ascending power series."""
    q = 0.25 * x * x
    term = total = 1.0
    k = 0
    while term > 1e-18 * total:
        k += 1
        term *= q / (k * (k + order))
        total += term
    return (0.5 * x) ** order * total


def _i_asymptotic_scaled(x: float, order: int) -> float:
    """exp(-x) * I_order(x) * sqrt(2 pi x), truncated at the smallest term."""
    mu = 4.0 * order * order
    term = total = 1.0
    k = 0
    while True:
        k += 1
        nxt = term * -(mu - (2 * k - 1) ** 2) / (8.0 * x * k)
        if abs(nxt) >= abs(term):
            break  # asymptotic series started diverging
        term = nxt
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


@functools.cache
def bessel_ratio_i1_i0(x: float) -> float:
    """I1(x)/I0(x), overflow-safe for large x (ratio of scaled expansions).
    Cached per x: it is the von Mises mean cosine, which a sweep asks for
    at every point of a few concentrations."""
    if not x >= 0:  # NaN too: the asymptotic loop never ends on it
        raise ValueError(f"bessel_ratio_i1_i0 requires x >= 0, got {x}")
    if x <= _SERIES_CUTOFF:
        return _i_series(x, 1) / _i_series(x, 0)
    return _i_asymptotic_scaled(x, 1) / _i_asymptotic_scaled(x, 0)
