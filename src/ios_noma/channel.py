"""System parameters, phase-error models, and correlated channel sampling.

Link budget and power-split parameters live in SystemParams (all linear
units internally; dB helpers on the constructor side).  Phase errors of
the surface elements come from one of four models: perfect adjustment,
Von Mises residuals from imperfect channel estimation, uniform
quantization residuals of a b-bit phase shifter, or fully uniform
phases.  Each model gives epsilon() = E[cos phi], the mean cosine of the
bounds, and epsilon2() = E[cos 2 phi], which with it fixes the first two
moments of the composite gain given the fading magnitudes.  Channel
magnitude vectors are drawn by factoring the correlation matrix once and
coloring i.i.d. circularly-symmetric Gaussians.

A phase phi is held as the tangent t = tan(phi / 2) of its half angle,
whose cosine and sine are rational in t (see _half_angle), and every
model's sample returns such tangents.  The samplers behind the fading
and Von Mises streams are exact and read the generator's uniform doubles
in cache-sized pieces, transformed in place.  standard_complex_gaussian
returns its Gaussians in polar form (Box & Muller 1958): per row, c
radii sqrt(-log1p(-U)), whose squares are Exp(1), from the row's first c
doubles, then from the next c the tangents tan(pi (U' - 1/2)) of half
their uniform angles on [-pi, pi).  _amplitudes reads |z| and the unit
phasor of z from it, or turns it into real and imaginary rows and
colours those in place.  VonMises.sample runs Best and Fisher's (1979)
rejection from a wrapped Cauchy envelope over chunks of candidates of
two doubles each.  Both samplers read their stream in order, so the
leading rows of a draw equal a smaller draw, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import bessel_ratio_i1_i0

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
        """Tangents tan(phi / 2) of phases phi of the given size (an int
        or a shape), by Best and Fisher's (1979) rejection (see
        _best_fisher).  Below kappa = 1e-8 the phases are uniform, as
        UniformFull draws them, and above 1e6 they are the normal sqrt(1 /
        kappa) n, whose tangents are 0 at kappa = inf."""
        kappa = self.kappa
        if kappa < 1e-8:
            return UniformFull().sample(size, rng)
        if kappa <= 1e6:
            return _best_fisher(kappa, size, rng)
        tangents = rng.standard_normal(size)
        tangents *= math.sqrt(0.25 / kappa)
        return np.tan(tangents, out=tangents)


# Candidates per chunk of _best_fisher: their 2 doubles each and three
# work rows, 0.4 MB in all, stay in L2 cache.  The whole-array version of
# the same passes streams its temporaries through memory and is no faster
# than Generator.vonmises.
_CHUNK = 8192


def _best_fisher(kappa: float, size, rng: np.random.Generator) -> np.ndarray:
    """Tangents tan(phi / 2) of Von Mises phases phi of concentration
    kappa in [1e-8, 1e6] by Best and Fisher's (1979) rejection from the
    wrapped Cauchy envelope of parameter rho = (r - sqrt(2 r)) / (2
    kappa), r = 1 + sqrt(1 + 4 kappa^2), here 2 kappa / (r + sqrt(2 r)),
    which does not cancel.

    Candidate i reads the doubles 2 i and 2 i + 1 of the stream.  The
    first, U, gives t = tan(theta / 2) of the uniform angle theta = 2 pi
    (U - 1/2), the same tangent as the fading sampler's, whose sign is
    the sign of the candidate and whose cosine is z = cos theta.  Best
    and Fisher's candidate is phi with cos phi = W = (1 + s z) / (s + z),
    s = (1 + rho^2) / (2 rho); from the half-angle formulas, tan(phi / 2)
    = u = c t with c = (1 - rho) / (1 + rho), so u and 1 + W = 2 / (1 +
    u^2) come without a cosine or an arccosine, and W stays in [-1, 1].
    The second double, V, accepts the candidate if V <= Y exp(1 - Y), Y =
    kappa (s - W): Best and Fisher's test log(Y / V) + 1 - Y >= 0 without
    a division, whose squeeze Y (2 - Y) >= V only saves a logarithm in a
    scalar loop.  The u of the first accepted candidates in stream order
    are the tangents, filled in C order."""
    r = 1.0 + math.sqrt(1.0 + 4.0 * kappa * kappa)
    rho = 2.0 * kappa / (r + math.sqrt(2.0 * r))
    c = (1.0 - rho) / (1.0 + rho)
    top = kappa * ((1.0 + rho * rho) / (2.0 * rho) + 1.0)  # kappa (s + 1)
    tangents = np.empty(size)
    flat = tangents.reshape(-1)
    pairs = np.empty((_CHUNK, 2))
    first, second = pairs.T
    u, y, bound = np.empty((3, _CHUNK))
    accept = np.empty(_CHUNK, bool)
    filled = 0
    while filled < len(flat):
        rng.random(out=pairs)
        np.subtract(first, 0.5, out=u)
        u *= math.pi
        np.tan(u, out=u)
        u *= c
        np.multiply(u, u, out=y)
        y += 1.0
        np.divide(2.0 * kappa, y, out=y)  # kappa (1 + W)
        np.subtract(top, y, out=y)  # Y
        np.subtract(1.0, y, out=bound)
        np.exp(bound, out=bound)
        bound *= y
        np.less_equal(second, bound, out=accept)
        taken = u[accept][:len(flat) - filled]
        flat[filled:filled + len(taken)] = taken
        filled += len(taken)
    return tangents


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
        # the bits of a draw on [-pi/2^b, pi/2^b], halved
        quarter = math.pi / 2**(self.bits + 1)
        tangents = rng.uniform(-quarter, quarter, size)
        return np.tan(tangents, out=tangents)


@dataclass(frozen=True)
class UniformFull:
    """No useful phase knowledge, residual uniform on [-pi, pi)."""

    def epsilon(self) -> float:
        return 0.0

    def epsilon2(self) -> float:
        return 0.0

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        tangents = rng.uniform(-math.pi / 2, math.pi / 2, size)
        return np.tan(tangents, out=tangents)


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
    import logging  # ~3 ms of start-up, so only in the branch that logs
    logging.getLogger(__name__).warning(
        "%d x %d correlation matrix is not numerically positive definite: "
        "clipped eigendecomposition factor, max |L L^T - R| = %.2g",
        *corr.shape, np.abs(factor @ factor.T - corr).max())
    return factor


# Entries per tile of standard_complex_gaussian's in-place passes, or one
# row if a row is longer: a tile's radii and tangents, 256 KB, stay in L2
# cache.
_TILE = 16384


def standard_complex_gaussian(size, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex normals z with unit total variance, in
    polar form: size (..., c) gives an array of shape (..., 2, c) whose
    row i holds the radii |z| of its c entries, then the tangents t =
    tan(arg(z) / 2) of their half angles, so z = |z| (1 + j t)^2 / (1 +
    t^2).  The radius is sqrt(-log1p(-U)), as |z|^2 is Exp(1), and the
    tangent tan(pi (U' - 1/2)) of a uniform angle 2 pi (U' - 1/2) on [-pi,
    pi), independent of the radius.

    Row i reads the doubles 2 c i to 2 c (i + 1) of the stream, the radii
    first, so the first k rows of a draw equal a k-row draw from the same
    generator, bit for bit.  The rows are drawn and transformed in place,
    in tiles of max(_TILE // c, 1) rows, each while it is in cache."""
    *lead, count = np.atleast_1d(size)
    polar = np.empty((*lead, 2, count))
    rows = polar.reshape(-1, 2, count)
    step = max(_TILE // count, 1)
    for start in range(0, len(rows), step):
        tile = rows[start:start + step]
        rng.random(out=tile)
        radius, tangent = tile[:, 0], tile[:, 1]
        np.negative(radius, out=radius)
        np.log1p(radius, out=radius)
        np.negative(radius, out=radius)
        np.sqrt(radius, out=radius)
        tangent -= 0.5
        tangent *= math.pi
        np.tan(tangent, out=tangent)
    return polar


def _half_angle(tangent: np.ndarray, cosine: np.ndarray) -> None:
    """tangent = tan(phi / 2) replaced in place by sin phi = 2 t / (1 +
    t^2), and cosine filled with cos phi = 2 / (1 + t^2) - 1."""
    np.multiply(tangent, tangent, out=cosine)
    cosine += 1.0
    np.divide(2.0, cosine, out=cosine)  # 1 + cos phi
    tangent *= cosine
    cosine -= 1.0


# Columns per product of _colour_in_place: 2048 columns of a 60-element
# draw are a 1 MB temporary.
_COLOUR_TILE = 2048


def _colour_in_place(factor: np.ndarray, real: np.ndarray) -> np.ndarray:
    """real, (n, m), replaced in place by factor @ real, in tiles of
    _COLOUR_TILE columns, so it holds one tile's temporary instead of a
    second (n, m) array.  Each column of a product reads only its own
    column of real.  The last tile takes the remainder, so no product is
    narrower than a tile: on OpenBLAS a product a few columns wide takes
    another kernel, and its last bits differed from those of one product
    over the whole array, which the tiles match bit for bit."""
    tiles = max(real.shape[1] // _COLOUR_TILE, 1)
    for i in range(tiles):
        tile = real[:, i * _COLOUR_TILE:(i + 1) * _COLOUR_TILE if i + 1 < tiles else None]
        tile[...] = factor @ tile
    return real


def _amplitudes(polar: np.ndarray, factor, scale=None, phasor=False) -> tuple:
    """(|a| times scale, or |a| alone, as a new array, and if phasor the
    unit phasor e^{j arg a} as the real and imaginary rows of polar, else
    None) of the fading vectors a of one (n, 2, c) polar draw z (see
    standard_complex_gaussian): a = factor @ z for a lower-triangular
    factor, and a = z for factor None.

    For a = z, |a| is the radius and the phasor comes from t by the
    half-angle formulas.  Otherwise each tile of rows turns into Re z and
    Im z in place, by the same formulas, the (n, 2 c) real view is
    coloured in place (see _colour_in_place), |a| = sqrt(Re^2 + Im^2), and
    the phasor is (Re, Im) / |a|, taken before scale is applied.  The row
    passes take max(_TILE // c, 1) rows at a time, each with a temporary
    of its own: one scratch tile kept across the passes changed where
    glibc placed the draws and raised the peak RSS of a two-worker
    precision_point run by 6 MB."""
    radius, tangent = polar[:, 0], polar[:, 1]
    if factor is None:
        amp = radius.copy() if scale is None else radius * scale
        if phasor:
            _half_angle(tangent, radius)
        return amp, polar if phasor else None
    step = max(_TILE // polar.shape[2], 1)
    tiles = [slice(start, start + step) for start in range(0, len(polar), step)]
    for rows in tiles:
        cosine = np.empty_like(radius[rows])
        _half_angle(tangent[rows], cosine)
        tangent[rows] *= radius[rows]  # Im z
        radius[rows] *= cosine  # Re z
    _colour_in_place(factor, polar.reshape(len(polar), -1))
    real, imag = radius, tangent
    amp = np.empty(real.shape)
    for rows in tiles:
        out, square = amp[rows], np.empty_like(amp[rows])
        np.multiply(real[rows], real[rows], out=out)
        np.multiply(imag[rows], imag[rows], out=square)
        out += square
        np.sqrt(out, out=out)
    if phasor:
        polar /= amp[:, None]
    if scale is not None:
        amp *= scale
    return amp, polar if phasor else None
