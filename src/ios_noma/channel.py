"""System parameters, phase-error models, and correlated channel sampling.

Link budget and power-split parameters live in SystemParams (all linear
units internally; dB helpers on the constructor side).  Phase errors of
the surface elements come from one of four models: perfect adjustment,
Von Mises residuals from imperfect channel estimation, uniform
quantization residuals of a b-bit phase shifter, or fully uniform
phases.  Each model gives epsilon() = E[cos phi], the mean cosine of the
bounds, and epsilon2() = E[cos 2 phi], which with it fixes the first two
moments of the composite gain given the fading magnitudes.  Channel magnitude vectors are drawn by factoring the
correlation matrix once and coloring i.i.d. circularly-symmetric
Gaussians.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .specfun import bessel_ratio_i1_i0

_log = logging.getLogger(__name__)
_LINKS = ("t", "r", "tp", "rp")
_PERFECT_BITS = 28  # sin(pi / 2^b) rounds to pi / 2^b from here on: eps is 1.0


class ConfigError(ValueError):
    """Invalid or inconsistent system configuration."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class SystemParams:
    """Distances, pathloss, amplitude splits, and powers of one scenario.

    Two-user fields are mandatory.  The four-user extension (primed
    users T' and R') is active when d_tp, d_rp, q_tp, q_rp are all set.
    q_* are transmit amplitude coefficients (their squares sum to 1);
    alpha and beta the surface transmit/reflect amplitude coefficients
    (alpha^2 + beta^2 = 1).  Four-user parameters must satisfy the
    pathloss ordering eta_rp < eta_tp < eta_r < eta_t behind the fixed
    (R', T', R, T) decoding sequence; construction rejects any that break it.
    """

    d_b: float = 10.0
    d_t: float = 5.0
    d_r: float = 10.0
    chi: float = 2.4
    lambda_t: float = 1e-3
    lambda_r: float = 1e-3
    alpha: float = 0.8
    beta: float = 0.6
    q_t: float = 0.6
    q_r: float = 0.8
    p_tx: float = 0.1
    noise_power: float = 1e-8
    d_tp: float | None = None
    d_rp: float | None = None
    lambda_tp: float | None = None
    lambda_rp: float | None = None
    q_tp: float | None = None
    q_rp: float | None = None

    def __post_init__(self):
        for name in ("d_b", "d_t", "d_r"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if any(value is not None and value <= 0 for value in
               (self.lambda_t, self.lambda_r, self.lambda_tp, self.lambda_rp)):
            raise ConfigError("pathloss intercepts must be positive")
        if self.p_tx < 0 or self.noise_power <= 0:
            raise ConfigError("p_tx must be >= 0 and noise_power > 0")
        # x * x: a huge amplitude squares to inf, where x**2 would raise
        if not abs(self.alpha * self.alpha + self.beta * self.beta - 1.0) <= 1e-12:
            raise ConfigError("alpha^2 + beta^2 must equal 1")
        q = (self.q_t, self.q_r, self.q_tp, self.q_rp) if self.four_user else (self.q_t, self.q_r)
        if not abs(sum(x * x for x in q) - 1.0) <= 1e-12:
            raise ConfigError("transmit amplitude coefficients must satisfy sum(q^2) = 1")
        # power-domain separation: the reflect-side user gets the larger
        # share whenever both two-user splits are active
        if self.q_t > 0 and self.q_r > 0 and not self.q_t < self.q_r:
            raise ConfigError("two-user power split requires q_t < q_r")
        partial = [self.d_tp, self.d_rp, self.q_tp, self.q_rp]
        if any(v is not None for v in partial) and any(v is None for v in partial):
            raise ConfigError("four-user mode needs all of d_tp, d_rp, q_tp, q_rp")
        if self.four_user:
            if self.d_tp <= 0 or self.d_rp <= 0:
                raise ConfigError("d_tp and d_rp must be positive")
            eta = {link: pathloss(self, link) for link in _LINKS}
            if not eta["rp"] < eta["tp"] < eta["r"] < eta["t"]:
                raise ConfigError("four-user mode requires the pathloss ordering "
                                  "eta_rp < eta_tp < eta_r < eta_t")

    @property
    def four_user(self) -> bool:
        return self.d_tp is not None and self.d_rp is not None \
            and self.q_tp is not None and self.q_rp is not None

    @property
    def gamma0(self) -> float:
        """Transmit SNR P / sigma0^2."""
        return self.p_tx / self.noise_power

    @classmethod
    def from_db(cls, **kwargs) -> "SystemParams":
        """Build params with intercepts in dB and powers in dBm: each of
        lambda_*_db, p_dbm and noise_dbm that is given and not None sets
        its linear field, and the other keywords are fields.  A value
        whose linear one overflows a float is a ConfigError naming it."""
        linear = {}
        for field, key in (("lambda_t", "lambda_t_db"), ("lambda_r", "lambda_r_db"),
                           ("lambda_tp", "lambda_tp_db"), ("lambda_rp", "lambda_rp_db"),
                           ("p_tx", "p_dbm"), ("noise_power", "noise_dbm")):
            value = kwargs.pop(key, None)
            if value is not None:
                try:
                    linear[field] = (dbm_to_watts if key.endswith("dbm") else db_to_linear)(value)
                except OverflowError:
                    raise ConfigError(f"{key} = {value:g} overflows in linear units") from None
        return cls(**linear, **kwargs)


def pathloss(params: SystemParams, link: str) -> float:
    """Cascaded pathloss Lambda / (d_b^chi * d_user^chi) for one link.

    link is one of "t", "r", "tp", "rp" (transmit-side and reflect-side
    users, unprimed and primed).  A power that overflows, or a denominator
    that underflows to 0, is a ConfigError naming the distances and chi.
    """
    if link not in _LINKS:
        raise ConfigError(f"unknown link {link!r}, expected one of {_LINKS}")
    if link in ("tp", "rp") and not params.four_user:
        raise ConfigError(f"link {link!r} requires four-user parameters")
    dist = getattr(params, f"d_{link}")
    # a primed link without an intercept of its own takes its side's
    intercept = getattr(params, f"lambda_{link}") or getattr(params, f"lambda_{link[0]}")
    try:
        return intercept / (params.d_b**params.chi * dist**params.chi)
    except (OverflowError, ZeroDivisionError):
        raise ConfigError(f"pathloss of link {link!r} is out of float range: chi = "
                          f"{params.chi:g}, d_b = {params.d_b:g}, d_{link} = {dist:g}") from None


# ---------------------------------------------------------------------------
# phase-error models


@dataclass(frozen=True)
class Perfect:
    """Ideal continuous phase adjustment, zero residual error."""

    def epsilon(self) -> float:
        return 1.0

    def epsilon2(self) -> float:
        return 1.0

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(size)


@dataclass(frozen=True)
class VonMises:
    """Channel-estimation residuals, Von Mises with concentration kappa."""

    kappa: float

    def __post_init__(self):
        # NaN fails every comparison; an infinite kappa is perfect phases
        if not self.kappa >= 0:
            raise ConfigError(f"vonmises kappa must be non-negative, got {self.kappa}")

    def epsilon(self) -> float:
        return bessel_ratio_i1_i0(self.kappa)

    def epsilon2(self) -> float:
        # I2/I0 from the recurrence I2 = I0 - (2 / kappa) I1
        return 1.0 - 2.0 * self.epsilon() / self.kappa if self.kappa > 0 else 0.0

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        return rng.vonmises(0.0, self.kappa, size)


@dataclass(frozen=True)
class Quantized:
    """b-bit phase shifter, residual uniform on [-pi/2^b, pi/2^b]."""

    bits: int

    def __post_init__(self):
        if self.bits < 1:
            raise ConfigError(f"quantized:{self.bits}: bits must be a positive integer")
        if self.bits >= _PERFECT_BITS:
            raise ConfigError(f"quantized:{self.bits}: eps rounds to 1 from "
                              f"{_PERFECT_BITS} bits on; use perfect")

    def epsilon(self) -> float:
        return 2**self.bits * math.sin(math.pi / 2**self.bits) / math.pi

    def epsilon2(self) -> float:
        return 2**self.bits * math.sin(2.0 * math.pi / 2**self.bits) / (2.0 * math.pi)

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        half = math.pi / 2**self.bits
        return rng.uniform(-half, half, size)


@dataclass(frozen=True)
class UniformFull:
    """No useful phase knowledge, residual uniform on [-pi, pi)."""

    def epsilon(self) -> float:
        return 0.0

    def epsilon2(self) -> float:
        return 0.0

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-np.pi, np.pi, size)


PhaseErrorModel = Perfect | VonMises | Quantized | UniformFull


def phase_error_from_string(text: str) -> PhaseErrorModel:
    """Parse "perfect", "uniform", "vonmises:K", or "quantized:B"."""
    head, colon, arg = text.strip().lower().partition(":")
    if not colon and head in ("perfect", "uniform"):
        return Perfect() if head == "perfect" else UniformFull()
    try:
        value = {"vonmises": float, "quantized": int}[head](arg)
    except (KeyError, ValueError):
        raise ConfigError(f"phase error model {text!r}: expected perfect, uniform, "
                          "vonmises:K or quantized:B") from None
    return VonMises(kappa=value) if head == "vonmises" else Quantized(bits=value)


# ---------------------------------------------------------------------------
# correlated channel sampling


def correlation_factor(corr: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^H = corr for coloring i.i.d. complex
    Gaussians, so its leading blocks factor the leading principal
    submatrices of corr.

    A Cholesky factorization, or, if corr is not numerically positive
    definite (sinc kernels on dense grids are numerically rank
    deficient), F = V sqrt(clip(Lambda)) from a symmetric
    eigendecomposition with negative eigenvalues clipped to zero, made
    triangular by the QR factorization F^T = Q U: U^T U = F F^T, so U^T
    is the factor.  The fallback logs a warning with max |L L^T - corr|.
    Every bundled layout takes the Cholesky branch.
    """
    corr = np.asarray(corr, dtype=float)
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        pass
    try:
        eigval, eigvec = np.linalg.eigh(corr)
    except np.linalg.LinAlgError as exc:
        raise ConfigError("correlation matrix factorization failed") from exc
    factor = np.linalg.qr((eigvec * np.sqrt(np.clip(eigval, 0.0, None))).T, mode="r").T
    _log.warning("%d x %d correlation matrix is not numerically positive definite: "
                 "clipped eigendecomposition factor, max |L L^T - R| = %.2g",
                 *corr.shape, np.abs(factor @ factor.T - corr).max())
    return factor


def standard_complex_gaussian(size, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex normals with unit total variance.

    Each entry takes its real and imaginary parts together, in C order,
    so the first k rows of a draw of shape (n, c) equal a draw of shape
    (k, c) from the same generator, bit for bit."""
    pairs = rng.standard_normal((*np.atleast_1d(size), 2))
    pairs /= np.sqrt(2.0)
    return pairs.view(complex)[..., 0]
