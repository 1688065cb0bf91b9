"""Monte Carlo engine for the average achievable rates.

mc_estimates estimates the average rates of the scenarios of one setup:
analytic.rate at the sampled composite gains H = |sum_n a_n exp(j
phi_n)|^2 of each surface side, a_n = |g_n||h_n| on the transmit side
and |r_n||h_n| on the reflect side, each with a 95 % half-width.  Each
estimate is a control variate (Lavenberg & Welch 1981): the rate y is
regressed on controls x of exact mean, y-bar - beta (x-bar - E[x]).
_controls lists the controls of each rate, their order and their means,
and _side_rows forms their rows, once per side of a draw key.  Where a
side's phases are uniform, the rates that are one log of its gain are
conditional Monte Carlo means over turns of its column groups instead
(see _controls).

Trials are processed in blocks of BLOCK_SIZE.  Every (random stream,
block index) pair gets its own generator seeded from the master seed,
and the means and co-moments of the blocks are merged in block order,
so the draws and the estimates do not depend on how blocks are
distributed over workers: they are bit-identical for any worker count.

The gains depend only on the draw key of a call (see _DrawKey), and one
walk over the blocks draws the gains of every draw key of a Gaussian
key, the links its members read and no other (see _walk_block).
mc_batch takes the arguments of several calls and walks once per
Gaussian key for all the calls that share it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .analytic import (_LINKS, _LN2, _READS, _SINGLE_LOG, Scenario, _check_users, _mean_gain,
                       _single_log, rate)
from .analytic import _NOMA_USERS as _NOMA
from .channel import (Perfect, SystemParams, UniformFull, _amplitudes, _half_angle,
                      correlation_factor, standard_complex_gaussian)
from .geometry import ArrayGeometry, correlation_matrix, mean_p2_sq, trace_rbar_sq

# Fixed trial block; part of the reproducibility contract, do not derive
# from worker count or available memory.
BLOCK_SIZE = 16384

# the fading streams h, g and r, the phase errors of each side, and the
# primed users' g' and r'
_STREAM_H = 0
_STREAM_G = 1
_STREAM_R = 2
_STREAM_PHI_T = 3
_STREAM_PHI_R = 4
_STREAM_GP = 5
_STREAM_RP = 6
# The normal quantile of the 95 % half-widths, the exact double of
# statistics.NormalDist().inv_cdf(0.975): importing statistics costs ~4 ms of start-up.
_Z95 = 1.9599639845400536


@dataclass(frozen=True)
class McConfig:
    """Trial count and master seed of one estimation."""

    trials: int = 100_000
    master_seed: int = 20157

    def __post_init__(self):
        for name, value in (("trials", self.trials), ("master_seed", self.master_seed)):
            try:  # ints and numpy integers, not 1e4
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.trials < 100:
            raise ValueError("trials must be at least 100")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")


@dataclass(frozen=True)
class McEstimate:
    """Control-variate mean with a normal-approximation half-width.

    mean is y-bar - beta (x-bar - E[x]) over the controls x of the rate
    (see _controls), with beta fitted by least squares on the same
    trials.  For NOMA T, OMA T and OMA R on a side of uniform phases and
    n_h >= 2 columns, y and the controls are the rotated rows: their
    means over turns of the phases of the side's column groups (see
    _controls), with the same means and less variance.  The fit biases it
    by O(1/trials), about 0.1 standard errors at 1000 trials on an N = 8
    setup.
    half_width is the 95 % normal half-width 1.96 sqrt(s^2 / trials),
    with s^2 the residual variance of the fit over trials - 1 - k
    degrees of freedom, k the number of controls.
    """

    mean: float
    half_width: float
    trials: int

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be non-negative")


def _boosted_gains(amp: np.ndarray, tangents: np.ndarray, n_v: int, widths,
                   prefix=None) -> dict:
    """{n_h: |sum_{n < n_v n_h} amp_n exp(j phi_n)|^2 per trial} for the
    column counts n_h in widths, from the tangents t = tan(phi / 2), both
    (n_v max(widths), count) with elements column by column; amp is |a|
    |h|, or the primed terms of _walk_block, complex, as (n, 2, count)
    real and imaginary rows.  The terms are summed per column and
    accumulated over the columns, so each column count reads its own
    prefix sum.  Each column's n_v x count tile of cosines and sines
    comes from t in two scratch tiles written in place: cos phi = 2 / (1
    + t^2) - 1 and sin phi = 2 t / (1 + t^2), within 3.5e-16 of the exact
    values.  A zero phase gives cos 1 and sin 0 exactly, and at the pole,
    phi = +-pi, t^2 stays far below overflow.  The real and imaginary
    parts of the terms are summed in real arithmetic into one complex
    prefix, and the magnitude is its complex abs: the gains differ from
    |sum_n amp_n exp(j phi_n)|^2 by at most about 1e-15 A^2, A = sum_n
    |amp_n|.

    prefix, if given, is the complex (max(widths), count) array the sums
    are accumulated in, and holds them on return (see _turns)."""
    count = tangents.shape[1]
    if prefix is None:
        prefix = np.empty((len(tangents) // n_v, count), complex)
    sine, cosine = np.empty((2, n_v, count))
    for col, (real, imag) in enumerate(zip(prefix.real, prefix.imag)):
        rows = slice(col * n_v, (col + 1) * n_v)
        np.copyto(sine, tangents[rows])
        _half_angle(sine, cosine)
        if amp.ndim == 3:  # (re + j im) (cos phi + j sin phi)
            re, im = amp[rows, 0], amp[rows, 1]
            terms = re * cosine - im * sine, re * sine + im * cosine
        else:
            sine *= amp[rows]
            cosine *= amp[rows]
            terms = cosine, sine
        np.sum(terms[0], axis=0, out=real)
        np.sum(terms[1], axis=0, out=imag)
    _running_sum(prefix.real)
    _running_sum(prefix.imag)
    return {n_h: np.abs(prefix[n_h - 1]) ** 2 for n_h in widths}


def _running_sum(cols: np.ndarray) -> np.ndarray:
    """cols with each row replaced, in place, by the sum of the rows up
    to it, added in the order of np.cumsum along axis 0, which is several
    times slower on rows thousands of trials wide."""
    for i in range(1, len(cols)):
        cols[i] += cols[i - 1]
    return cols


def _column_sums(amp: np.ndarray, n_v: int, widths) -> dict:
    """{n_h: (A^2, P2, B1, B2) per trial} for the column counts n_h in
    widths, amp (n_v max(widths), count) with elements column by column.
    Over the leading n_v n_h elements, A = sum_n amp_n and P_k = sum_n
    amp_n^k, and the pair sums are B1 = A^2 P2 - 2 A P3 + P4 = sum_n
    amp_n^2 (A - amp_n)^2 and B2 = P2^2 - P4 = sum_{n != m} amp_n^2
    amp_m^2 (see _conditional_moments).  Each power is summed per column
    and accumulated over the columns, A as in _boosted_gains, so A^2 is
    bit-identical to a zero-phase boosted gain, and A is sqrt(A^2) bit
    for bit (see _side_rows).  Only the asked column counts are kept, and
    no power of the whole of amp is formed."""
    count = amp.shape[1]
    cols = amp[:n_v * max(widths)].reshape(-1, n_v, count)
    # amp^k summed over each column's rows, k = 1 to 4
    powers = [_running_sum(cols.sum(axis=1) if k == 1 else
                           np.einsum(",".join(["ijk"] * k) + "->ik", *[cols] * k))
              for k in range(1, 5)]
    sums = {}
    for n_h in widths:
        a, p2, p3, p4 = (power[n_h - 1] for power in powers)
        sums[n_h] = np.array([a ** 2, p2, a * (a * p2 - 2.0 * p3) + p4, p2 * p2 - p4])
    return sums


# ---------------------------------------------------------------------------
# per-trial rates: the analytic rate chain at the sampled composite gains


def noma_trial_rates(scen: Scenario, params: SystemParams, *gains):
    """rate(scen, params, *gains) of a NOMA scen.  It keeps a name of its
    own only because perfbench/traced_cli.py counts mc.blocks from its
    spans and perfbench/selftest.py pins that count; it goes once the
    benchmark traces the rate chain layer elsewhere (ROADMAP.md)."""
    return rate(scen, params, *gains)


def oma_trial_rates(scen: Scenario, params: SystemParams, h):
    """rate(scen, params, h) of an OMA scen, a name of its own for the same
    reason as noma_trial_rates."""
    return rate(scen, params, h)


# ---------------------------------------------------------------------------
# block evaluation

# The floor of 1 - eps^2 for a side's phase controls (see _controls):
# their variance coefficients are O((1 - eps^2)^2) differences of O(1)
# terms, good to about 1e-16 / (1 - eps^2)^2 relative, and below the
# floor the phases move H by too little for the controls to matter.
_PHASE_VAR_MIN = 1e-4
# The fewest elements of a side whose energy P2^2 is a control (see
# _controls)
_ENERGY_MIN_N = 6
# The most column groups a rotated rate is averaged over (_controls), and
# the turns exp(2 pi j k / 3), k = 0, 1, 2, of a group against the one before it
_GROUPS = 4
_LATTICE = np.exp(2j * np.pi / 3 * np.arange(3))[:, None]


def _mean_log1p_over_rotation(kappa, head, tail):
    """The mean over a uniform psi of log1p(kappa |S_head + S_tail exp(j
    psi)|^2), per trial, from head = |S_head| and tail = |S_tail|.  With A
    = head^2 + tail^2 and w = sqrt((1 + kappa (head - tail)^2) (1 + kappa
    (head + tail)^2)) it is log((1 + kappa A + w) / 2), written as

        log1p(kappa A / 2 + (2 kappa A + kappa^2 (head^2 - tail^2)^2) / (2 (w + 1)))

    so that no nearly equal terms are subtracted, however small kappa."""
    diff, total = head - tail, head + tail
    k_a = kappa * (head * head + tail * tail)
    w = np.sqrt((1.0 + kappa * diff * diff) * (1.0 + kappa * total * total))
    cross = kappa * diff * total  # kappa (head^2 - tail^2)
    return np.log1p(0.5 * k_a + (2.0 * k_a + cross * cross) / (2.0 * (w + 1.0)))


def _turns(prefix, n_h):
    """(heads, tails, A, pair) of a UniformFull side's gain at n_h
    columns, from its column prefix sums (see _boosted_gains).  The
    columns split into K = min(_GROUPS, n_h) groups at the columns
    floor(i n_h / K), with sums G_i, and the first K - K // 2 groups are
    the head.  heads holds |G_1 + G_2 omega^k| for k = 0, 1, 2, or |G_1|
    if the head is one group, as (rows, 1, count); tails likewise for the
    rest, as (rows, count), so the pairs are the turns of _controls.  A =
    sum_i |G_i|^2 and pair = sum_{i < j} |G_i|^2 |G_j|^2 (see
    _side_rows)."""
    k = min(_GROUPS, n_h)
    groups = np.diff(prefix[[(i + 1) * n_h // k - 1 for i in range(k)]], axis=0, prepend=0)

    def turned(part):
        return np.abs(part[0] + part[1] * _LATTICE) if len(part) == 2 else np.abs(part)

    sq = np.abs(groups) ** 2
    a, pair = sq[0], 0.0
    for s in sq[1:]:
        pair = pair + s * a
        a = a + s
    return turned(groups[:k - k // 2])[:, None], turned(groups[k - k // 2:]), a, pair


def _controls(key, scen) -> tuple:
    """The controls of scen's rate on draw key, as (kind, side) pairs in
    the order of its rows after y: the gains ("H", side) of the sides
    the rate reads (its t and r links in _READS, 0 for H_t and 1 for
    H_r), or their turned means ("A", side) for a rotated rate, each
    followed by the side's amplitude sum ("S", side), then ("D", side),
    ("P2", side) and ("E", side), then ("Q1", side) and ("Q2", side) of
    each side in turn, the kinds of _side_rows: D, Q1 and Q2 are the
    phase rows, and S = sum_n a_n, P2 = sum_n a_n^2 and E = P2^2 the
    sums of the side's amplitudes a_n = |g_n||h_n| (see _column_sums).
    mc_estimates hands the fit their exact means: the side's Jensen gain
    N (1 - eps^2) + eps^2 tr(Rbar Rbar) for H, A and D, N pi / 4 for S, N
    for P2, geometry.mean_p2_sq for E, and 0 for Q1 and Q2.  R has a unit
    diagonal (geometry.correlation_matrix), so on every layout and both
    correlation flags each g_n and h_n is CN(0, 1), and g and h are
    independent: E a_n = E|g_n| E|h_n| = (sqrt(pi) / 2)^2 = pi / 4, and
    E a_n^2 = E|g_n|^2 E|h_n|^2 = 1.  Channel hardening makes the rate
    nearly linear in H, so the residual variance is a small part of the
    variance of y.  With D beside H the fit weighs the part of H that the
    magnitudes set (D) apart from the part the phases add (H - D), and Q1
    and Q2 take up the variance the phases add at fixed magnitudes, which
    H alone leaves in the uniform-phase rows.  Below the element counts
    where the channel hardens, and under perfect or quantized phases, the
    rate bends in H, which no linear function of H follows: H follows
    S^2 closely (H = S^2 on a Perfect side), so S beside H fits a
    quadratic in S, and P2 and E take up the fading energy.  No other
    row spans S: D = eps^2 S^2 + (1 - eps^2) P2.

    A rate is rotated, averaged over turns of column groups, if it is of
    analytic._SINGLE_LOG and its side has UniformFull phases and n_h >=
    2 columns.  The side's columns split into K = min(_GROUPS, n_h)
    groups with sums G_1..G_K (see _turns), and turning a group's i.i.d.
    uniform phases by a constant angle, independent of the draws, leaves
    their law unchanged.  So with omega = exp(2 pi j / 3), each of the
    rates of |G_1 + G_2 omega^k + (G_3 + G_4 omega^l) exp(j psi)|^2, for
    k, l in {0, 1, 2} and psi uniform, has the rate's law, and their
    mean, nine closed forms over psi (_mean_log1p_over_rotation), has the
    rate's mean and less variance (conditional Monte Carlo); at K = 3 the
    tail is G_3 alone, at K = 2 the sums are G_1 and G_2 exp(j psi).
    The controls averaged alike keep their means (_side_rows).  Three
    turns are the fewest for which the mean of omega^(2k) vanishes as
    that of omega^k does, which the mean of Q2 needs.  The min over two
    links of NOMA R, T' and R' has no mean over psi in closed form.

    T' and R' take their gain rows alone: their primed gains, drawn on
    the same sides, are not controls (see _walk_block).  Every other
    rate takes S on every side it reads, and (H, S) stays regular even
    where H = S^2, on one element or a Perfect side: S is not constant,
    and H is not linear in it.  A side takes
    D, Q1 and Q2 if it has N >= 2 elements and 1 - eps^2 >=
    _PHASE_VAR_MIN, which leaves out every Perfect side: at N = 1, H = a^2
    whatever the phase, and near the floor D equals H, or nearly so.  A
    rotated rate needs N > K, its group count (see _turns): at N = K
    each group is one element, so A = D and the phase rows averaged over
    the turns vanish.  Every side read takes E from N >= _ENERGY_MIN_N
    on, rotated and Perfect sides too, since P2 depends on the amplitudes
    alone, which no phase or turn moves; on fewer elements the tails of
    P2^2 are too heavy for the normal interval at 1000 trials: it covered
    the mean in as few as 275 of 400 seeds at N = 1 and 347 for a rotated
    rate at N = 3, against 360 or more from N = 6 on (README).  A side
    with E takes P2 too if eps^2 >= _PHASE_VAR_MIN: below it D = eps^2
    A^2 + (1 - eps^2) P2 is P2, or nearly so (eps^2 is 0 at kappa =
    4e-205), and C_xx would be singular."""
    family, n_h, models = key.gaussian.family, key.n_h, key.models
    sides = [side for side, link in enumerate("tr") if link in _READS[scen]]
    n = family.n_v * n_h
    rotated = scen in _SINGLE_LOG and n_h >= 2 and isinstance(models[sides[0]], UniformFull)
    plan = [("A" if rotated else "H", side) for side in sides]
    if scen in _NOMA[2:]:
        return tuple(plan)
    plan = [entry for kind, side in plan for entry in ((kind, side), ("S", side))]
    groups = min(_GROUPS, n_h) if rotated else 1
    phase = [side for side in sides
             if n > groups and 1.0 - models[side].epsilon() ** 2 >= _PHASE_VAR_MIN]
    energy = sides if n >= _ENERGY_MIN_N else ()
    plan += [("D", side) for side in phase]
    plan += [("P2", side) for side in energy if models[side].epsilon() ** 2 >= _PHASE_VAR_MIN]
    plan += [("E", side) for side in energy]
    plan += [(kind, side) for side in phase for kind in ("Q1", "Q2")]
    return tuple(plan)


def _conditional_moments(model, sums):
    """(E[H | a], Var(H | a)) per trial of a side's composite gain
    H = |sum_n a_n exp(j phi_n)|^2 given its element amplitudes a, from
    sums = (A^2, P2, B1, B2) of _column_sums.  The phases are i.i.d. and
    independent of a, with c = E cos phi, c2 = E cos 2 phi (the model's
    epsilon and epsilon2) and sigma^2 = 1 - c^2:

        E[H | a] = c^2 A^2 + sigma^2 P2
        Var(H | a) = w B1 + u B2

    with w = 2 c^2 (1 + c2 - 2 c^2), four times c^2 Var(cos phi), and
    u = sigma^4 + (c2 - c^2)^2.  So E[H^2 | a] = E[H | a]^2 + Var(H | a)
    needs no new sum over the layout, and Var(H | a) is 0 at N = 1,
    where B1 = B2 = 0."""
    c, c2 = model.epsilon(), model.epsilon2()
    c_sq = c * c
    sigma_sq = 1.0 - c_sq
    w = 2.0 * c_sq * (1.0 + c2 - 2.0 * c_sq)
    u = sigma_sq * sigma_sq + (c2 - c_sq) ** 2
    a_sq, p2, b1, b2 = sums
    return c_sq * a_sq + sigma_sq * p2, w * b1 + u * b2


def _side_rows(model, h, sums, turned=None) -> dict:
    """{kind: row} of every control of one side, keyed by the kinds of
    _controls, from the side's gains h and the sums (A^2, P2, B1, B2) of
    _column_sums: the gain "H", the amplitude sum "S" = A = sqrt(A^2), D
    = E[H | a] (see _conditional_moments), the energies P2 and E = P2^2,
    Q1 = H / D - 1 and Q2 = Q1^2 - Var(H | a) / D^2.  E[D] = E[H], the
    side's Jensen gain, and Q1 and Q2 have mean 0 exactly, since E[Q1 |
    a] = 0 and E[Q1^2 | a] = Var(H | a) / D^2.  (Q1, Q2) spans the same
    controls as (Q1, (H / D)^2 - E[H^2 | a] / D^2) = (Q1, 2 Q1 + Q2),
    without cancelling the 1s of the two ratios.
    On a Perfect side D is H and Q1 and Q2 are 0, and on one element
    every row is finite, so the rows of any side read can be formed.

    Given turned = (A, pair) of a UniformFull side (see _turns), the rows
    are their means over the turns of _controls: the gain is "A" = sum_i
    |G_i|^2, and Q2 = Q1^2 + (2 pair - Var(H | a)) / D^2, as the mean of
    (H - D)^2 is (A - D)^2 + 2 sum_{i < j} |G_i|^2 |G_j|^2.  Their means
    stay those of H, Q1 and Q2; S, D, P2 and E depend on the amplitudes
    alone, which no turn moves.

    In binary floating point the rounded square root of the rounded
    square of a double is the double itself, barring underflow and
    overflow (Boldo 2015), so S is A bit for bit.  Keeping A from
    _column_sums instead, as a fifth row or a copy of its prefix row,
    gives the same values, but raised precision_point's peak RSS from
    about 74 to 80 MB at some checkout path lengths."""
    mean, var = _conditional_moments(model, sums)
    gain = "H"
    if turned is not None:
        h, pair = turned
        var = var - 2.0 * pair
        gain = "A"
    q1 = h / mean - 1.0
    p2 = sums[1]
    return {gain: h, "S": np.sqrt(sums[0]), "D": mean, "P2": p2, "E": p2 * p2, "Q1": q1,
            "Q2": q1 * q1 - var / (mean * mean)}


def _walk_block(keys, factor, block, count, turned=()):
    """(gains, sums, prefixes) of one block for the draw keys of a walk:
    their composite gains, the column sums of their element amplitudes
    and the column prefix sums of the gains their turned rates read.

    keys maps each draw key to the links its members read (see
    analytic._READS), as positions in _LINKS: 0 t, 1 r, 2 t' and 3 r'.
    The gains are {draw key: [H_t, H_r, H_t', H_r']}, in that order: each
    a row of count trials, or None for a link the key does not read,
    which no array holds.  The sums are {side: {n_h: (A^2, P2, B1, B2)}}
    (see _column_sums) of the amplitudes a = |g||h| (side 0, the transmit
    side) or |r||h| (side 1, the reflect side), at the column counts of
    the keys that read the side; _block_moments forms the phase controls
    from them.  The prefixes are {(side, phase model): complex (n_h,
    count) column prefix sums} of the gain of each pair in turned (see
    _boosted_gains), n_h the widest layout of that model on that side,
    from which _turns reads the group sums of every narrower one.

    A side is drawn only if a key reads its link or its primed link, and
    its primed stream only if a key reads the primed link; the side draws
    only the phase models of the keys that read it, and forms a model's
    primed gains only if one of its keys reads them.  So a link that no
    key reads is not drawn at all and holds no row.  Every (stream,
    block) pair has its own generator, so skipping a stream leaves every
    other stream's draws unchanged.

    Every stream is drawn once, at the walk's widest layout and element by
    element, so a layout's n_v n_h elements read the leading rows of each
    draw, whatever the widest layout is.  All keys share the correlation
    flag of their Gaussian key: a correlated walk colours each fading
    stream by factor, the lower-triangular factor of its widest layout,
    whose leading block colours every narrower one, and an i.i.d. walk,
    whose factor is None, reads the radii and tangents of its polar draws
    as they are (see _amplitudes).  So a layout's i.i.d. gains are
    bit-identical to a lone walk's, and its correlated ones differ only
    by the rounding of the wider factor; and the i.i.d. and the
    correlated walk of one family read the same raw Gaussians and
    phases, so the two flags keep common random numbers.  Each draw is
    freed before any phases are drawn.  A side keeps what every phase
    model shares: |g||h|, and if its primed link is read |g'||h| e^{j
    (arg g' - arg g)}, one complex product of the unit phasors of g' and
    g in place of the first.  The
    primed composites reuse the boost set, so their leftover phase at
    element n is arg(g'_n) - arg(g_n) + phi_n_t, uniform per element but
    tied to the actual draws.  On a correlated layout the leftovers are
    correlated too, so E[H'] exceeds N (about 37 against N = 24 on a 6 x
    4 array at quarter-wavelength spacing under 1-bit errors).  Then,
    before any phases are drawn, the side forms the column sums of its
    amplitudes.  A Perfect model's gain is their A^2, so it draws its
    zero tangents only for the primed gains and skips the tangent pass:
    bit-identical, as the pass turns a zero phase into cos 1 and sin 0
    exactly.  Every other distinct phase model draws its stream once, at
    the widest layout it is asked at, and forms the gains of all its
    column counts from one set of element terms (see _boosted_gains).
    The transmit side comes first, then the reflect side with r, r' and
    phi_r.  Each array is freed as soon as it is used up, so the live set
    does not grow with the number of phase models.
    """
    gaussian = next(iter(keys)).gaussian
    n_v = gaussian.family.n_v
    shape = (n_v * max(key.n_h for key in keys), count)

    def rng(stream):
        seq = np.random.SeedSequence(entropy=gaussian.seed, spawn_key=(stream, block))
        return np.random.Generator(np.random.PCG64(seq))

    def draw(stream):
        return standard_complex_gaussian(shape, rng(stream))

    mag_h = _amplitudes(draw(_STREAM_H), factor)[0]
    # one row per link a key reads, in one array allocated before the
    # sides are drawn; keeping each phase model's own gain rows instead,
    # between the large temporaries of the later draws, raised the peak
    # RSS of a 60-element walk by 9 MB
    read = [(key, link) for key, links in keys.items() for link in links]
    store = np.empty((len(read), count))
    gains = {key: [None] * len(_LINKS) for key in keys}
    for (key, link), gain in zip(read, store):
        gains[key][link] = gain
    sums, prefixes = {}, {}
    for side, (stream, stream_p, stream_phi) in enumerate((
            (_STREAM_G, _STREAM_GP, _STREAM_PHI_T),
            (_STREAM_R, _STREAM_RP, _STREAM_PHI_R))):
        asked = {}  # {phase model of this side: [keys that read it]}
        for key, links in keys.items():
            if side in links or side + 2 in links:
                asked.setdefault(key.models[side], []).append(key)
        if not asked:
            continue
        primed = any(side + 2 in links for links in keys.values())
        amp, phasor = _amplitudes(draw(stream), factor, mag_h, primed)
        if primed:
            amp_p, terms_p = _amplitudes(draw(stream_p), factor, mag_h, True)
            phasor *= amp_p[:, None]  # |a'| |h| e^{j arg a}
            (cos, sin), (re, im) = phasor.swapaxes(0, 1), terms_p.swapaxes(0, 1)
            np.multiply(re, sin, out=amp_p)  # amp_p is read: it holds re sin
            re *= cos
            sin *= im
            re += sin
            im *= cos
            im -= amp_p
        phasor = amp_p = cos = sin = re = im = None  # and their views, before any phases are drawn
        sums[side] = cols = _column_sums(amp, n_v,
                                         {key.n_h for group in asked.values() for key in group})
        for model, group in asked.items():
            widths = {key.n_h for key in group}
            widths_p = {key.n_h for key in group if side + 2 in keys[key]}
            n = n_v * max(widths)
            perfect = isinstance(model, Perfect)
            tangents = (None if perfect and not widths_p
                        else model.sample((n, count), rng(stream_phi)))
            prefix = None
            if (side, model) in turned:
                prefix = prefixes[side, model] = np.empty((n // n_v, count), complex)
            out = ({n_h: cols[n_h][0] for n_h in widths} if perfect
                   else _boosted_gains(amp[:n], tangents, n_v, widths, prefix))
            out_p = _boosted_gains(terms_p[:n], tangents, n_v, widths_p) if widths_p else {}
            for key in group:
                for link, out_link in ((side, out), (side + 2, out_p)):
                    if link in keys[key]:
                        gains[key][link][...] = out_link[key.n_h]
            del tangents  # before the next model's phases are drawn
        amp = terms_p = None  # before the next side is drawn
    return gains, sums, prefixes


def _rate(scen, params, gains):
    """The per-trial rate of scen at one block's gains (rows t, r, t', r'),
    from one call of its rate chain on the rows of the links it reads."""
    chain = noma_trial_rates if scen in _NOMA else oma_trial_rates
    return chain(scen, params, *(gains[_LINKS.index(link)] for link in _READS[scen]))


def _blocks(trials: int):
    full, rest = divmod(trials, BLOCK_SIZE)
    for block in range(full):
        yield block, BLOCK_SIZE
    if rest:
        yield full, rest


# ---------------------------------------------------------------------------
# the control-variate estimator


def _moments(stack):
    """(n, mean vector, co-moment matrix) of the rows of one block, two
    passes: the co-moment is sum (x - mean)(x - mean)^T over the columns."""
    mean = stack.mean(axis=1)
    dev = stack - mean[:, None]
    return stack.shape[1], mean, dev @ dev.T


def _merge(a, b):
    """The moments of two samples joined (Chan, Golub & LeVeque 1979)."""
    n_a, mean_a, com_a = a
    n_b, mean_b, com_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return (n, mean_a + delta * (n_b / n),
            com_a + com_b + np.outer(delta, delta) * (n_a * n_b / n))


def _cv_estimate(moments, means) -> McEstimate:
    """The control-variate estimate from the merged moments of y and its
    controls x, the rows of _controls, whose exact means are means, in
    the same order: y-bar - beta (x-bar - E[x]), beta the least-squares
    fit of y on x (C_xx beta = C_xy; H_t and H_r come from separate
    streams, each S row is of first order in the amplitudes, each D row
    differs from its H by the phases and from its P2 row by eps^2 (A^2 -
    P2), each E row is of fourth order in the amplitudes, and each Q row
    varies with the phases at fixed magnitudes, so C_xx is not singular
    where _controls takes the rows), and a 95 % half-width from the
    residual variance with one degree of freedom per coefficient and one
    for the mean.  The residual sum of squares C_yy - C_yx beta is
    clipped at 0: it cancels to rounding when y is linear in H to double
    precision, as for rates below about 1e-8 bits."""
    n, mean, com = moments
    c_xy = com[1:, 0]
    beta = np.linalg.solve(com[1:, 1:], c_xy)
    var = max(com[0, 0] - c_xy @ beta, 0.0) / (n - 1 - len(beta))
    return McEstimate(mean=float(mean[0] - beta @ (mean[1:] - means)),
                      half_width=float(_Z95 * np.sqrt(var / n)), trials=n)


# ---------------------------------------------------------------------------
# the group walk

class _Gaussian(NamedTuple):
    """The Gaussian key: what fixes the fading streams of a walk.  family
    is the layout's one-column geometry (n_v, element sizes and
    wavelength), whose layouts of n_h columns read the leading rows of
    every stream, so one walk samples all the draw keys of a Gaussian key."""

    family: ArrayGeometry
    seed: int
    trials: int
    correlated: bool


class _DrawKey(NamedTuple):
    """The draw key: what fixes the gains of a member, its Gaussian key,
    its column count and its phase models (model_t, model_r).  Members with
    equal draw keys evaluate their rates on the same draws; the link
    budget is not part of the key, and the links a walk draws are those
    its members read (see _walk_block), so a two-user and a four-user
    call on one layout share their draw key."""

    gaussian: _Gaussian
    n_h: int
    models: tuple


# The members of the running mc_batch: {member: moments, or None until
# walked}; empty whenever no mc_batch runs
_batch: dict[tuple, tuple | None] = {}


def _member(geom, params, err_models, cfg, scenarios, correlated) -> list:
    """The members (draw key, params, scenario) of an mc_estimates call,
    one per scenario without repeats, in the order asked, all on one
    _DrawKey.  scenarios and err_models are read once, so either may be
    an iterator.  Of the users, only that a primed scenario has four-user
    parameters is checked: SystemParams rejects those that break the
    pathloss ordering behind the (R', T', R, T) decoding order."""
    scenarios = dict.fromkeys(scenarios)
    for scen in scenarios:
        _check_users(scen, params)
    key = _DrawKey(_Gaussian(replace(geom, n_h=1), cfg.master_seed, cfg.trials, correlated),
                   geom.n_h, tuple(err_models))
    return [(key, params, scen) for scen in scenarios]


def _block_moments(walk, factor, block, count):
    """{member: moments} of each member's rate and its controls over one
    block.  walk is {draw key: {member: its _controls}}: each key draws
    the links its members' scenarios read (_READS), and keeps the column
    prefix sums of each (side, phase model) an "A" entry turns.  Each
    member's rate chain runs on the gains, stacked over one row per entry
    of its plan; a member whose plan opens with ("A", side) is rotated,
    its rate the mean over the turns of its side's group sums (see
    _turns).  Its chain still runs, once per block like every member's,
    since the benchmark counts blocks as rate chain calls, and its rate is
    not read.  The control rows are formed key by key, by _side_rows once
    per side and rotation for all the members on a key, so one key's
    controls are held at a time, and each member's stack looks its plan's
    rows up."""
    keys = {key: {_LINKS.index(link) for _, _, scen in plans for link in _READS[scen]}
            for key, plans in walk.items()}
    turned = {(side, key.models[side]) for key, plans in walk.items()
              for plan in plans.values() for kind, side in plan if kind == "A"}
    gains, sums, prefixes = _walk_block(keys, factor, block, count, turned=turned)
    out = {}
    for key, plans in walk.items():
        # {(side, rotated): _side_rows}, the turned rows for the sides a plan
        # takes an A row of, all formed before any member's stack: forming
        # each at its first use raised precision_point's peak RSS from 68.2
        # to 74.6 MB
        sides = dict.fromkeys((side, ("A", side) in plan)
                              for plan in plans.values() for _, side in plan)
        turns = {side: _turns(prefixes[side, key.models[side]], key.n_h)
                 for side, rotated in sides if rotated}
        rows = {(side, rotated): _side_rows(key.models[side], gains[key][side],
                                            sums[side][key.n_h],
                                            turns[side][2:] if rotated else None)
                for side, rotated in sides}
        for (_, params, scen), plan in plans.items():
            y = _rate(scen, params, gains[key])
            kind, side = plan[0]
            if kind == "A":
                kappa, share = _single_log(params, scen)
                logs = _mean_log1p_over_rotation(kappa, *turns[side][:2])
                y = share * logs.mean(axis=(0, 1)) / _LN2
            stack = [y] + [rows[side, ("A", side) in plan][kind] for kind, side in plan]
            out[key, params, scen] = _moments(np.vstack(stack))
    return out


def _group_factor(keys):
    """The colouring factor of a walk's draw keys: that of the widest
    layout if the walk is correlated, else None."""
    gaussian = next(iter(keys)).gaussian
    widest = replace(gaussian.family, n_h=max(key.n_h for key in keys))
    return correlation_factor(correlation_matrix(widest)) if gaussian.correlated else None


def _walk_group(members, workers):
    """{member: moments} for members that share their Gaussian key, one
    walk over the blocks, merged in block order so the result does not
    depend on scheduling.  The walk's table {draw key: {member: its
    _controls}} is formed once, and every block reads it (see
    _block_moments).  A walk holds one block of gains at a time, whatever
    the trial count."""
    walk = {}
    for key, params, scen in members:
        walk.setdefault(key, {})[key, params, scen] = _controls(key, scen)
    factor = _group_factor(walk)
    jobs = [(walk, factor, block, count) for block, count in _blocks(members[0][0].gaussian.trials)]
    workers = min(workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~19 ms of start-up, so only here
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_block_moments, *zip(*jobs)))
    else:
        parts = (_block_moments(*job) for job in jobs)
    return functools.reduce(lambda a, b: {m: _merge(a[m], b[m]) for m in a}, parts)


def mc_estimates(geom: ArrayGeometry, params: SystemParams, err_models,
                 cfg: McConfig, scenarios, *, correlated: bool = True,
                 workers: int = 1) -> dict[Scenario, McEstimate]:
    """Control-variate estimates for a set of scenarios.

    err_models is (model_t, model_r).  Every scenario is evaluated on the
    same draws, so NOMA and OMA estimates share the channel realizations.
    Each rate is regressed on the controls of _controls, whose exact
    means are mapped here from the layout, correlation flag and phase
    models (see McEstimate).  A call of a running mc_batch finalizes from
    the moments the walk of its Gaussian key kept; no draw, rate chain or
    pool happens after the batch's first call on that key.  Any other
    call walks alone and keeps nothing.  An empty list of scenarios makes
    no member and draws nothing.
    """
    err_models = tuple(err_models)
    members = _member(geom, params, err_models, cfg, scenarios, correlated)
    # the batch's members walk every batch member of their Gaussian key
    walks = _batch if _batch.keys() >= set(members) else dict.fromkeys(members)
    if any(walks[member] is None for member in members):
        gaussian = members[0][0].gaussian
        walks.update(_walk_group([m for m in walks if m[0].gaussian == gaussian], workers))
    tr = trace_rbar_sq(geom, correlated)
    gain = [_mean_gain(geom.n_elements, tr, model.epsilon()) for model in err_models]
    exact = {"H": gain, "A": gain, "S": [geom.n_elements * np.pi / 4] * 2, "D": gain,
             "P2": [geom.n_elements] * 2, "E": [mean_p2_sq(geom, correlated)] * 2,
             "Q1": [0.0] * 2, "Q2": [0.0] * 2}
    return {scen: _cv_estimate(walks[key, params, scen], np.array(
                [exact[kind][side] for kind, side in _controls(key, scen)]))
            for key, params, scen in members}


def mc_batch(calls, *, workers: int = 1) -> list[dict[Scenario, McEstimate]]:
    """The mc_estimates of several calls, given as (geom, params,
    err_models, cfg, scenarios, correlated) tuples of its arguments, in
    order.  The calls may be of any number of Gaussian keys (see
    _member); the first call on a Gaussian key walks every call that
    shares it at once, on the given workers, and the others finalize from
    the kept moments.  The moments are dropped when the batch returns."""
    calls = [(geom, params, tuple(models), cfg, tuple(scenarios), correlated)
             for geom, params, models, cfg, scenarios, correlated in calls]
    try:
        _batch.update(dict.fromkeys(member for call in calls for member in _member(*call)))
        return [mc_estimates(*call[:5], correlated=call[5], workers=workers)
                for call in calls]
    finally:
        _batch.clear()
