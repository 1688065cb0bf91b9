"""System parameters, phase-error models, and correlated channel sampling.

Link budget and power-split parameters live in SystemParams (all linear
units internally; dB helpers on the constructor side).  Phase errors of
the surface elements come from one of four models: perfect adjustment,
Von Mises residuals from imperfect channel estimation, uniform
quantization residuals of a b-bit phase shifter, or fully uniform
phases.  Channel magnitude vectors are drawn by factoring the
correlation matrix once and coloring i.i.d. circularly-symmetric
Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import bessel_ratio_i1_i0

__all__ = [
    "ConfigError",
    "SystemParams",
    "Perfect",
    "VonMises",
    "Quantized",
    "UniformFull",
    "phase_error_from_string",
    "db_to_linear",
    "dbm_to_watts",
    "pathloss",
    "correlation_factor",
    "standard_complex_gaussian",
]

_LINKS = ("t", "r", "tp", "rp")


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
        if abs(self.alpha**2 + self.beta**2 - 1.0) > 1e-12:
            raise ConfigError("alpha^2 + beta^2 must equal 1")
        q_sq = self.q_t**2 + self.q_r**2
        if self.four_user:
            q_sq += self.q_tp**2 + self.q_rp**2
        if abs(q_sq - 1.0) > 1e-12:
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
    def from_db(cls, *, lambda_t_db: float = -30.0, lambda_r_db: float = -30.0,
                p_dbm: float = 20.0, noise_dbm: float = -50.0,
                lambda_tp_db: float | None = None, lambda_rp_db: float | None = None,
                **kwargs) -> "SystemParams":
        """Build params with intercepts in dB and powers in dBm."""
        extra = {}
        if lambda_tp_db is not None:
            extra["lambda_tp"] = db_to_linear(lambda_tp_db)
        if lambda_rp_db is not None:
            extra["lambda_rp"] = db_to_linear(lambda_rp_db)
        return cls(lambda_t=db_to_linear(lambda_t_db),
                   lambda_r=db_to_linear(lambda_r_db),
                   p_tx=dbm_to_watts(p_dbm),
                   noise_power=dbm_to_watts(noise_dbm),
                   **extra, **kwargs)


def pathloss(params: SystemParams, link: str) -> float:
    """Cascaded pathloss Lambda / (d_b^chi * d_user^chi) for one link.

    link is one of "t", "r", "tp", "rp" (transmit-side and reflect-side
    users, unprimed and primed).
    """
    if link not in _LINKS:
        raise ConfigError(f"unknown link {link!r}, expected one of {_LINKS}")
    if link in ("tp", "rp") and not params.four_user:
        raise ConfigError(f"link {link!r} requires four-user parameters")
    dist = {"t": params.d_t, "r": params.d_r, "tp": params.d_tp, "rp": params.d_rp}[link]
    intercept = {
        "t": params.lambda_t,
        "r": params.lambda_r,
        "tp": params.lambda_tp if params.lambda_tp is not None else params.lambda_t,
        "rp": params.lambda_rp if params.lambda_rp is not None else params.lambda_r,
    }[link]
    return intercept / (params.d_b**params.chi * dist**params.chi)


# ---------------------------------------------------------------------------
# phase-error models


@dataclass(frozen=True)
class Perfect:
    """Ideal continuous phase adjustment, zero residual error."""

    def epsilon(self) -> float:
        return 1.0

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(size)


@dataclass(frozen=True)
class VonMises:
    """Channel-estimation residuals, Von Mises with concentration kappa."""

    kappa: float

    def __post_init__(self):
        if self.kappa < 0:
            raise ConfigError("kappa must be non-negative")

    def epsilon(self) -> float:
        return bessel_ratio_i1_i0(self.kappa)

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        return rng.vonmises(0.0, self.kappa, size)


@dataclass(frozen=True)
class Quantized:
    """b-bit phase shifter, residual uniform on [-pi/2^b, pi/2^b]."""

    bits: int

    def __post_init__(self):
        if self.bits < 1:
            raise ConfigError("bits must be a positive integer")

    def epsilon(self) -> float:
        return 2**self.bits * math.sin(math.pi / 2**self.bits) / math.pi

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        half = math.pi / 2**self.bits
        return rng.uniform(-half, half, size)


@dataclass(frozen=True)
class UniformFull:
    """No useful phase knowledge, residual uniform on [-pi, pi)."""

    def epsilon(self) -> float:
        return 0.0

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-np.pi, np.pi, size)


PhaseErrorModel = Perfect | VonMises | Quantized | UniformFull


def phase_error_from_string(text: str) -> PhaseErrorModel:
    """Parse "perfect", "uniform", "vonmises:K", or "quantized:B"."""
    head, _, arg = text.strip().lower().partition(":")
    if head == "perfect":
        return Perfect()
    if head == "uniform":
        return UniformFull()
    if head == "vonmises":
        return VonMises(kappa=float(arg))
    if head == "quantized":
        return Quantized(bits=int(arg))
    raise ConfigError(f"unknown phase error model {text!r}")


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
    is the factor.  Every bundled layout takes the Cholesky branch.
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
    return np.linalg.qr((eigvec * np.sqrt(np.clip(eigval, 0.0, None))).T, mode="r").T


def standard_complex_gaussian(size, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex normals with unit total variance.

    Each entry takes its real and imaginary parts together, in C order,
    so the first k rows of a draw of shape (n, c) equal a draw of shape
    (k, c) from the same generator, bit for bit."""
    pairs = rng.standard_normal((*np.atleast_1d(size), 2))
    pairs /= np.sqrt(2.0)
    return pairs.view(complex)[..., 0]
