"""Monte Carlo engine for the average achievable rates.

Trials are processed in fixed-size blocks.  Every (random stream, block
index) pair gets its own generator seeded from the master seed, so the
draws do not depend on how blocks are distributed over workers and the
estimates are bit-identical for any worker count.  The five base
streams separate the shared fading vector h, the per-side vectors g and
r, and the two phase-error vectors; four-user parameters add streams
for the primed users' fading vectors g' and r'.

Per trial the composite gains are

    H_t = |sum_n |g_n| |h_n| exp(j phi_n_t)|^2   (reflect side with r)

and the rates are the rate chain of the analytic module (link_gain,
sic_rates, oma_slot_rates) at those gains, the same expressions the
closed-form bounds evaluate at a fixed gain.  A phase is held as the
tangent t = tan(phi / 2) of its half angle, from the fading draws and
the phase models' samplers to the cosines and sines of the gains (see
_boosted_gains), and no angle is formed (see channel._amplitudes).

Each estimate is a control variate (Lavenberg & Welch 1981): the rate y
is regressed on the unprimed gains it reads, H_t for the rates of T
(NOMA and OMA), H_r for OMA R, and both for NOMA R, T' and R' (the t and
r links of analytic._READS).  Their exact means E[H] = N (1 - eps^2) +
eps^2 tr(Rbar Rbar) are the gains of the Jensen bounds, and the estimate
is y-bar - beta (H-bar - E[H]).  Channel hardening makes the rate nearly
linear in H, so the residual variance is a small part of the variance of
y.  The primed gains are not controls: E[H'] = N only for i.i.d. elements
(see _walk_block).  The rates of T, R and OMA also regress on three
phase controls per side they read (_phase_sides), functions of H and of
the trial's element amplitudes a = |g||h|: the phases are i.i.d. and
independent of a, so D = E[H | a] and Var(H | a) are known on every
layout, correlation flag and phase model (see _phase_rows).  D has the
side's Jensen gain as its exact mean, as H does, and Q1 = H / D - 1 and
Q2 have mean 0.  With D beside H the fit weighs the part of H that the
magnitudes set (D) apart from the part the phases add (H - D), and Q1
and Q2 take up the variance the phases add at fixed magnitudes, which H
alone leaves in the uniform-phase rows.  Every rate but those of T' and
R' also regresses on the energy P2^2 of each side of 6 or more elements
it reads, P2 = sum_n a_n^2 (see _energy_sides): below the element counts
where the channel hardens, the rate bends with the fading energy, which
no linear function of H follows, and E[P2^2] = sum_{n, m} (1 + R_nm^2)^2
is exact, since E[|g_n|^2 |g_m|^2] = 1 + R_nm^2 for CN(0, R)
(geometry.mean_p2_sq).  A side of eps^2 >= 1e-4 adds P2 itself, of mean
N (see _p2_sides), which D = eps^2 A^2 + (1 - eps^2) P2 ties to A^2 by
fixed weights.  Where a side's phases are uniform, the rates that are
one log of its gain (NOMA T, OMA T and OMA R; analytic._SINGLE_LOG) on
n_h >= 2 columns are conditional Monte Carlo estimates instead (see
_rotated): turning the phases of a group of columns by a constant
angle leaves their law unchanged, so y and its controls are replaced by
their means over turns of up to four column groups, up to nine closed
forms per trial from the groups' sums.  Per block, the means and
co-moments of y and its controls are merged in block order, so the
estimates do not depend on how blocks were scheduled.

The gains depend only on the draw key of a call, and the fading streams
only on its Gaussian key (see _member); the link budget and the
scenarios enter only through the rates.  Elements are ordered column by
column and every stream is drawn element by element, so a layout of n_h
columns reads the leading n_v n_h rows of its family's draws, and its
triangular factor is the leading block of a wider layout's.  One walk
thus samples every draw key of a family and correlation flag: each block
draws each stream once, at the widest layout asked for, colours each
fading stream if the walk is correlated, draws each phase model but
Perfect once per side, and reads the composite gain of every column
count from prefix sums over the columns.  A side is drawn only for the
keys whose members' rates read it, so a walk whose members ask only for
T's rates draws no reflect-side stream at all.  A layout's draws do not
depend on the other layouts of its walk: its i.i.d. gains are
bit-identical to a lone walk's, and its correlated ones differ only by
the rounding of the wider factor.  The i.i.d. and the correlated walk of
one family read the same raw Gaussians and phases, since every stream is
seeded per block, so the two flags keep common random numbers.  A
member is (draw key, params, scenario), one rate of one engine call, as
_member forms it: a call of k scenarios is k members on one draw key,
so all the rates that share draws are members of one walk.
mc_batch() takes the arguments of several calls, of any number of
Gaussian keys; the first call on a Gaussian key walks the blocks once,
runs the rate chain of every member of the batch that shares the key on
each block's gains, and keeps only the merged moments per member, from
which the batch's later calls on that key finalize.  Nothing is kept
after mc_batch returns, and a lone mc_estimates call walks alone.  A
walk holds one block of gains at a time, whatever the trial count.
SystemParams rejects four-user parameters that break the pathloss
ordering behind the (R', T', R, T) decoding order, so the engine checks
none.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .analytic import (_LINKS, _LN2, _READS, _SINGLE_LOG, Scenario, _check_users, _mean_gain,
                       _single_log, link_gain)
from .analytic import _NOMA_USERS as _NOMA, oma_slot_rates, sic_rates
from .channel import (Perfect, SystemParams, UniformFull, _amplitudes, _half_angle,
                      correlation_factor, standard_complex_gaussian)
from .geometry import ArrayGeometry, correlation_matrix, mean_p2_sq, trace_rbar_sq

# Fixed trial block; part of the reproducibility contract, do not derive
# from worker count or available memory.
BLOCK_SIZE = 16384

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
        if self.trials < 100:
            raise ValueError("trials must be at least 100")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")


@dataclass(frozen=True)
class McEstimate:
    """Control-variate mean with a normal-approximation half-width.

    mean is y-bar - beta (x-bar - E[x]) over the controls x: the unprimed
    gains the rate reads (H_t, H_r or both), and for the rates of T, R
    and OMA the conditional mean gain D = E[H | a] and the two zero-mean
    phase controls of each such side (see _phase_sides), and the energies
    P2^2 and P2 of each side read (see _energy_sides and _p2_sides), with
    beta fitted by least squares on the same trials; E[D] = E[H], the
    Jensen gain, E[P2] = N and E[P2^2] = sum_{n, m} (1 + R_nm^2)^2.  For
    NOMA T, OMA T and OMA R on a side of uniform phases and n_h >= 2
    columns, y and the controls are the rotated rows: their means over
    turns of the phases of the side's column groups (see _rotated), with
    the same means and less variance.  The fit biases it by O(1/trials),
    about 0.1 standard errors at 1000 trials on an N = 8 setup.
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
    bit-identical to a zero-phase boosted gain.  Only the asked column
    counts are kept, and no power of the whole of amp is formed."""
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


def noma_trial_rates(params: SystemParams, *gains):
    """The rates of the users T, R, T', R' under superposition coding and
    the (R', T', R, T) order, from the composite gains of a prefix of that
    user list: a user's rate reads only the gains up to its own, so
    (rate_T,) needs h_t alone and (rate_T, rate_R) the pair."""
    return sic_rates(params, *(link_gain(params, link, h) for link, h in zip(_LINKS, gains)))


def oma_trial_rates(params: SystemParams, h_t, h_r):
    """(rate_T, rate_R) under per-user time slots with full amplitudes; a
    user whose gain is None gets None."""
    return oma_slot_rates(params, h_t, h_r)


# ---------------------------------------------------------------------------
# block evaluation

_OMA = (Scenario.OMA_T, Scenario.OMA_R)
# The unprimed gains each rate reads (its t and r links in _READS), as
# rows of _walk_block: 0 for H_t, 1 for H_r.  They are the rate's gain
# controls and the sides a walk draws for it.  The primed gains of T'
# and R', drawn on the same sides, are not controls: see _walk_block.
_CONTROLS = {scen: tuple(row for row, link in enumerate("tr") if link in links)
             for scen, links in _READS.items()}
# The floor of 1 - eps^2 for a side's phase controls (see _phase_sides):
# their variance coefficients are O((1 - eps^2)^2) differences of O(1)
# terms, good to about 1e-16 / (1 - eps^2)^2 relative, and below the
# floor the phases move H by too little for the controls to matter.
_PHASE_VAR_MIN = 1e-4
# The fewest elements of a side whose energy P2^2 is a control (see
# _energy_sides)
_ENERGY_MIN_N = 6
# The most column groups a _rotated rate is averaged over, and the turns
# exp(2 pi j k / 3), k = 0, 1, 2, of a group against the one before it
_GROUPS = 4
_LATTICE = np.exp(2j * np.pi / 3 * np.arange(3))[:, None]


def _rotated(key, scen) -> bool:
    """Whether scen's rate on draw key is averaged over turns of column
    groups: a rate of analytic._SINGLE_LOG whose side has UniformFull
    phases and n_h >= 2 columns.  The side's columns split into K =
    min(_GROUPS, n_h) groups with sums G_1..G_K (see _turns), and turning
    a group's i.i.d. uniform phases by a constant angle, independent of
    the draws, leaves their law unchanged.  So with omega = exp(2 pi j /
    3), each of the rates of |G_1 + G_2 omega^k + (G_3 + G_4 omega^l)
    exp(j psi)|^2, for k, l in {0, 1, 2} and psi uniform, has the rate's
    law, and their mean, nine closed forms over psi
    (_mean_log1p_over_rotation), has the rate's mean and less variance
    (conditional Monte Carlo); at K = 3 the tail is G_3 alone, at K = 2
    the sums are G_1 and G_2 exp(j psi).  The controls averaged alike
    keep their means (_phase_rows).  Three turns are the fewest for which
    the mean of omega^(2k) vanishes as that of omega^k does, which the
    mean of Q2 needs.  The min over two links of NOMA R, T' and R' has no
    mean over psi in closed form."""
    _, n_h, *models = key
    return (scen in _SINGLE_LOG and n_h >= 2
            and isinstance(models[_CONTROLS[scen][0]], UniformFull))


def _mean_log1p_over_rotation(kappa, head, tail):
    """The mean over a uniform psi of log1p(kappa |S_head + S_tail exp(j
    psi)|^2), per trial, from head = |S_head| and tail = |S_tail|.  With A
    = head^2 + tail^2 and w = sqrt((1 + kappa (head - tail)^2) (1 + kappa
    (head + tail)^2)) it is log((1 + kappa A + w) / 2), written as

        log1p(kappa A / 2 + (2 kappa A + kappa^2 (head^2 - tail^2)^2) / (2 (w + 1)))

    so that no nearly equal terms are subtracted, however small kappa.
    The operations are those of the formula in its order, written in place
    in five arrays of the broadcast shape, so the result has the same bits."""
    shape = np.broadcast_shapes(np.shape(head), np.shape(tail))
    diff, total, k_a, cross, w = (np.empty(shape) for _ in range(5))
    np.subtract(head, tail, out=diff)
    np.add(head, tail, out=total)
    np.add(head * head, tail * tail, out=k_a)
    k_a *= kappa
    np.multiply(diff, kappa, out=cross)
    diff *= cross  # kappa diff^2
    diff += 1.0
    cross *= total  # kappa diff total
    np.multiply(total, kappa, out=w)
    w *= total
    w += 1.0
    w *= diff
    np.sqrt(w, out=w)
    w += 1.0
    w *= 2.0  # 2 (w + 1)
    np.multiply(k_a, 2.0, out=total)
    cross *= cross
    total += cross
    total /= w
    k_a *= 0.5
    k_a += total
    return np.log1p(k_a, out=k_a)


def _turns(prefix, n_h):
    """(heads, tails, A, pair) of a UniformFull side's gain at n_h
    columns, from its column prefix sums (see _boosted_gains).  The
    columns split into K = min(_GROUPS, n_h) groups at the columns
    floor(i n_h / K), with sums G_i, and the first K - K // 2 groups are
    the head.  heads holds |G_1 + G_2 omega^k| for k = 0, 1, 2, or |G_1|
    if the head is one group, as (rows, 1, count); tails likewise for the
    rest, as (rows, count), so the pairs are the turns of _rotated.  A =
    sum_i |G_i|^2 and pair = sum_{i < j} |G_i|^2 |G_j|^2 (see
    _phase_rows)."""
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


def _phase_sides(key, scen) -> tuple:
    """The sides of scen's gain controls on draw key that also take the
    phase controls Q1 and Q2 (see _phase_rows): those of N >= 2 elements
    whose model has 1 - eps^2 >= _PHASE_VAR_MIN, which leaves out every
    Perfect side, and none for T' and R'.  At N = 1, H = a^2 whatever
    the phase.  A _rotated rate needs N > K, its group count (see
    _turns): at N = K each group is one element, so A = D and the phase
    controls averaged over the turns vanish."""
    (family, *_), n_h, *models = key
    groups = min(_GROUPS, n_h) if _rotated(key, scen) else 1
    if scen in _NOMA[2:] or family.n_v * n_h <= groups:
        return ()
    return tuple(row for row in _CONTROLS[scen]
                 if 1.0 - models[row].epsilon() ** 2 >= _PHASE_VAR_MIN)


def _energy_sides(key, scen) -> tuple:
    """The sides whose energy P2^2 scen's rate on draw key regresses on,
    P2 = sum_n a_n^2 the second power sum of _column_sums: every side it
    reads (_CONTROLS), rotated and Perfect sides too, since P2 depends on
    the amplitudes alone, which no phase or turn moves.  Its mean sum_{n,
    m} (1 + R_nm^2)^2 (geometry.mean_p2_sq) is exact on every layout and
    correlation flag.  Most take P2 too (see _p2_sides).  None on fewer
    than _ENERGY_MIN_N elements, where the tails of P2^2 are too heavy
    for the normal interval at 1000 trials: it covered the mean in as few
    as 275 of 400 seeds at N = 1 and 347 for a rotated rate at N = 3,
    against 360 or more from N = 6 on (README).  None for T' and R',
    which keep their gain controls alone (see _walk_block)."""
    (family, *_), n_h, *_ = key
    if scen in _NOMA[2:] or family.n_v * n_h < _ENERGY_MIN_N:
        return ()
    return _CONTROLS[scen]


def _p2_sides(key, scen) -> tuple:
    """The _energy_sides of eps^2 >= _PHASE_VAR_MIN, whose P2 is a control
    too, of mean N as E|g_n|^2 = E|h_n|^2 = 1 and g, h are independent.
    Below the floor D = eps^2 A^2 + (1 - eps^2) P2 is P2, or nearly so
    (eps^2 is 0 at kappa = 4e-205), and C_xx would be singular."""
    _, _, *models = key
    return tuple(side for side in _energy_sides(key, scen)
                 if models[side].epsilon() ** 2 >= _PHASE_VAR_MIN)


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


def _phase_rows(model, h, sums, turned=None):
    """The gain and phase controls (H, D, Q1, Q2) of one side's gains h:
    D = E[H | a] (see _conditional_moments), Q1 = H / D - 1 and Q2 = Q1^2
    - Var(H | a) / D^2.  E[D] = E[H], the side's Jensen gain, and Q1 and
    Q2 have mean 0 exactly, since E[Q1 | a] = 0 and E[Q1^2 | a] = Var(H |
    a) / D^2.  (Q1, Q2) spans the same controls as (Q1, (H / D)^2 - E[H^2
    | a] / D^2) = (Q1, 2 Q1 + Q2), without cancelling the 1s of the two
    ratios.

    Given turned = (A, pair) of a UniformFull side (see _turns), the rows
    are their means over the turns of _rotated: H = A = sum_i |G_i|^2,
    and Q2 = Q1^2 + (2 pair - Var(H | a)) / D^2, as the mean of (H - D)^2
    is (A - D)^2 + 2 sum_{i < j} |G_i|^2 |G_j|^2.  Their means stay those
    of H, Q1 and Q2."""
    mean, var = _conditional_moments(model, sums)
    if turned is not None:
        h, pair = turned
        var = var - 2.0 * pair
    q1 = h / mean - 1.0
    return h, mean, q1, q1 * q1 - var / (mean * mean)


def _walk_block(keys, factor, block, count, turned=()):
    """(gains, sums, prefixes) of one block for the draw keys of a walk:
    their composite gains, the column sums of their element amplitudes
    and the column prefix sums of their rotated sides' gains.

    The gains are {draw key: [H_t, H_r]}, plus [H_t', H_r'] under
    four-user parameters: each a row of count trials, or None for a side
    the key does not read, which no array holds.  The sums are {side:
    {n_h: (A^2, P2, B1, B2)}} (see _column_sums) of the amplitudes a =
    |g||h| or |r||h|, at the column counts of the keys that read the
    side; _block_moments forms the phase controls from them.  The
    prefixes are {side: complex (n_h, count) column prefix sums} of the
    UniformFull gain of each side in turned (see _boosted_gains), n_h the
    widest layout of UniformFull phases on that side, from which _turns
    reads the group sums of every narrower one.

    keys maps each draw key to the sides its members read (see
    _CONTROLS): 0 the transmit side (H_t, H_t'), 1 the reflect side (H_r,
    H_r').  A side draws only the phase models of the keys that read it,
    so a side that no key reads is not drawn at all and holds no row.
    Every (stream, block) pair has its own generator, so skipping a side
    leaves every other stream's draws unchanged.

    Every stream is drawn once, at the walk's widest layout and element by
    element, so a layout's n_v n_h elements read the leading rows of each
    draw, whatever the widest layout is.  All keys share the correlation
    flag of their Gaussian key: a correlated walk colours each fading
    stream by factor, the lower-triangular factor of its widest layout,
    whose leading block colours every narrower one, and an i.i.d. walk,
    whose factor is None, reads the radii and tangents of its polar draws
    as they are (see _amplitudes).  Each draw is freed before any phases
    are drawn.  A side keeps what every phase model shares: |g||h|, and
    for four-user keys |g'||h| e^{j (arg g' - arg g)}, one complex product
    of the unit phasors of g' and g in place of the first.  The primed
    composites reuse the boost set, so their leftover phase at element n
    is arg(g'_n) - arg(g_n) + phi_n_t, uniform per element but tied to
    the actual draws.  On a correlated layout the leftovers are correlated
    too, so E[H'] exceeds N (about 37 against N = 24 on a 6 x 4 array at
    quarter-wavelength spacing under 1-bit errors).  Then, before any
    phases are drawn, the side forms the column sums of its amplitudes.
    A Perfect model's gain is their A^2, so it draws its zero tangents
    only for the primed gains and skips the tangent pass: bit-identical,
    as the pass turns a zero phase into cos 1 and sin 0 exactly.  Every
    other distinct phase model draws its stream once, at the widest
    layout it is asked at, and forms the gains of all its column counts
    from one set of element terms (see _boosted_gains).
    The transmit side comes first, then the reflect side with r, r' and
    phi_r.  Each array is freed as soon as it is used up, so the live set
    does not grow with the number of phase models.
    """
    (family, master_seed, _, primed, _), *_ = next(iter(keys))
    n_v = family.n_v
    shape = (n_v * max(key[1] for key in keys), count)

    def rng(stream):
        seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, block))
        return np.random.Generator(np.random.PCG64(seq))

    def draw(stream):
        return standard_complex_gaussian(shape, rng(stream))

    mag_h = _amplitudes(draw(_STREAM_H), factor)[0]
    # one row per side a key reads (two under four-user parameters), in
    # one array allocated before the sides are drawn; keeping each phase
    # model's own gain rows instead, between the large temporaries of the
    # later draws, raised the peak RSS of a 60-element walk by 9 MB
    read = [(key, row) for key, sides in keys.items() for side in sides
            for row in ((side, side + 2) if primed else (side,))]
    store = np.empty((len(read), count))
    gains = {key: [None] * (4 if primed else 2) for key in keys}
    for (key, row), gain in zip(read, store):
        gains[key][row] = gain
    sums, prefixes = {}, {}
    for row, (stream, stream_p, stream_phi) in enumerate((
            (_STREAM_G, _STREAM_GP, _STREAM_PHI_T),
            (_STREAM_R, _STREAM_RP, _STREAM_PHI_R))):
        asked = {}  # {phase model of this side: [keys that read it]}
        for key, sides in keys.items():
            if row in sides:
                asked.setdefault(key[2 + row], []).append(key)
        if not asked:
            continue
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
        sums[row] = cols = _column_sums(amp, n_v,
                                        {key[1] for group in asked.values() for key in group})
        for model, group in asked.items():
            widths = {key[1] for key in group}
            n = n_v * max(widths)
            perfect = isinstance(model, Perfect)
            tangents = (None if perfect and not primed
                        else model.sample((n, count), rng(stream_phi)))
            prefix = None
            if row in turned and isinstance(model, UniformFull):
                prefix = prefixes[row] = np.empty((n // n_v, count), complex)
            out = ({n_h: cols[n_h][0] for n_h in widths} if perfect
                   else _boosted_gains(amp[:n], tangents, n_v, widths, prefix))
            out_p = _boosted_gains(terms_p[:n], tangents, n_v, widths) if primed else None
            for key in group:
                gains[key][row][...] = out[key[1]]
                if primed:
                    gains[key][row + 2][...] = out_p[key[1]]
            del tangents  # before the next model's phases are drawn
        amp = terms_p = None  # before the next side is drawn
    return gains, sums, prefixes


def _rate(scen, params, gains):
    """The per-trial rate of scen at one block's gains, from one call of
    its rate chain: the NOMA chain on the gains of the users T, R, T', R'
    up to scen's own, or the OMA chain on the gain of scen's slot alone."""
    if scen in _NOMA:
        k = _NOMA.index(scen)
        return noma_trial_rates(params, *gains[:k + 1])[k]
    k = _OMA.index(scen)
    return oma_trial_rates(params, *(gains[row] if row == k else None for row in (0, 1)))[k]


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


def _cv_estimate(moments, control_means) -> McEstimate:
    """The control-variate estimate from the merged moments of (y, H, D,
    P, E, Q), H the gains the rate reads (H_t, H_r or both; see
    _CONTROLS), D the conditional mean gains of its phase sides, P and E
    the energies P2 and P2^2 of its _p2_sides and _energy_sides, with
    exact means control_means (the Jensen gains of those sides, N and
    mean_p2_sq), and Q their phase controls, of mean 0: y-bar - beta
    (x-bar - E[x]) over the controls x, beta the least-squares fit of y
    on them (C_xx beta = C_xy; H_t and H_r come from separate streams,
    each D row differs from its H by the phases and from its P row by
    eps^2 (A^2 - P2), each E row is of fourth order in the amplitudes,
    and each Q row varies with the phases at fixed magnitudes, so C_xx is
    not singular; a side whose phases barely move H takes no D or Q rows,
    nor does a _rotated rate with one element per group, whose A equals
    D, and a side whose D is P2, or nearly so, takes no P row), and a
    95 % half-width from the residual variance with one degree of
    freedom per coefficient and one for the mean.  The residual sum of
    squares C_yy - C_yx beta is clipped at 0: it cancels to rounding
    when y is linear in H to double precision, as for rates below about
    1e-8 bits."""
    n, mean, com = moments
    c_xy = com[1:, 0]
    beta = np.linalg.solve(com[1:, 1:], c_xy)
    var = max(com[0, 0] - c_xy @ beta, 0.0) / (n - 1 - len(beta))
    offset = mean[1:].copy()
    offset[:len(control_means)] -= control_means
    return McEstimate(mean=float(mean[0] - beta @ offset),
                      half_width=float(_Z95 * np.sqrt(var / n)), trials=n)


# ---------------------------------------------------------------------------
# the group walk

# The members of the running mc_batch: {member: moments, or None until
# walked}; empty whenever no mc_batch runs
_batch: dict[tuple, tuple | None] = {}


def _member(geom, params, err_models, cfg, scenarios, correlated) -> list:
    """The members (draw key, params, scenario) of an mc_estimates call,
    one per scenario without repeats, in the order asked, all on one
    draw key.

    Members with equal draw keys evaluate their rates on the same draws;
    params enters the key only through params.four_user, which adds the
    primed gains.  The key is (Gaussian key, n_h, model_t, model_r).  The
    Gaussian key (family, master seed, trials, params.four_user,
    correlated) fixes the fading streams: the family is the layout's
    one-column geometry (n_v, element sizes and wavelength), whose
    layouts of n_h columns read the leading rows of every stream, so one
    walk samples all the keys of a Gaussian key.
    """
    for scen in scenarios:
        _check_users(scen, params)
    key = ((replace(geom, n_h=1), cfg.master_seed, cfg.trials, params.four_user, correlated),
           geom.n_h, *err_models)
    return [(key, params, scen) for scen in dict.fromkeys(scenarios)]


def _block_moments(keys, members, factor, block, count):
    """The moments of each member's rate and its controls over one
    block, one per member in order: the gains of the block's keys, then
    each member's rate chain on them.  A rate's controls are its gains H
    (see _CONTROLS), then the D rows of its _phase_sides, then the P2 rows
    of its _p2_sides and the P2^2 rows of its _energy_sides, from the
    column sums, then the Q1 and Q2 rows of its phase sides (see
    _phase_rows): the rows of known mean first, in the order
    mc_estimates lists those means.  A _rotated rate
    and its controls are their means over the turns instead: the rate
    from the turned pairs of its side's group sums (see _turns), and A
    in place of H.  Its chain still runs, once per block like every
    member's, since the benchmark counts blocks as rate chain calls, and
    its rate is not read.  The controls are formed from the gains,
    column sums and prefix sums key by key, once for all the members on
    a key, so one key's controls are held at a time."""
    turned = {_CONTROLS[scen][0] for key, _, scen in members if _rotated(key, scen)}
    gains, sums, prefixes = _walk_block(keys, factor, block, count, turned=turned)
    on_key = {}  # {draw key: [(index, params, scenario) of its members]}
    for i, (key, params, scen) in enumerate(members):
        on_key.setdefault(key, []).append((i, params, scen))
    out = [None] * len(members)
    for key, group in on_key.items():
        turns = {side: _turns(prefixes[side], key[1]) for side in
                 {_CONTROLS[scen][0] for _, _, scen in group if _rotated(key, scen)}}
        controls = {}  # {(side, rotated): (H or A, D, Q1, Q2)}
        for _, _, scen in group:
            rotated = _rotated(key, scen)
            for side in _CONTROLS[scen] if rotated else _phase_sides(key, scen):
                if (side, rotated) not in controls:
                    controls[side, rotated] = _phase_rows(
                        key[2 + side], gains[key][side], sums[side][key[1]],
                        turns[side][2:] if rotated else None)
        for i, params, scen in group:
            rate = _rate(scen, params, gains[key])
            rotated = _rotated(key, scen)
            if rotated:
                (side,) = _CONTROLS[scen]
                kappa, share = _single_log(params, scen)
                logs = _mean_log1p_over_rotation(kappa, *turns[side][:2])
                rate = share * logs.mean(axis=(0, 1)) / _LN2
                gain_rows = [controls[side, True][0]]
            else:
                gain_rows = [gains[key][row] for row in _CONTROLS[scen]]
            phase = [controls[side, rotated] for side in _phase_sides(key, scen)]
            level = [sums[side][key[1]][1] for side in _p2_sides(key, scen)]
            energy = [sums[side][key[1]][1] ** 2 for side in _energy_sides(key, scen)]
            out[i] = _moments(np.vstack((rate, *gain_rows, *(rows[1] for rows in phase), *level,
                                         *energy, *(q for rows in phase for q in rows[2:]))))
    return out


def _group_factor(keys):
    """The colouring factor of a walk's draw keys: that of the widest
    layout if the walk is correlated, else None."""
    (family, *_, correlated), *_ = next(iter(keys))
    widest = replace(family, n_h=max(key[1] for key in keys))
    return correlation_factor(correlation_matrix(widest)) if correlated else None


def _walk_group(members, workers):
    """{member: moments} for members that share their Gaussian key, one
    walk over the blocks, merged in block order so the result does not
    depend on scheduling.  Each draw key is walked on the sides its
    members' rates read."""
    keys = {}  # {draw key: sides read}
    for key, _, scen in members:
        keys.setdefault(key, set()).update(_CONTROLS[scen])
    factor = _group_factor(keys)
    jobs = [(keys, members, factor, block, count)
            for block, count in _blocks(members[0][0][0][2])]
    workers = min(workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~19 ms of start-up, so only here
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_block_moments, *zip(*jobs)))
    else:
        parts = (_block_moments(*job) for job in jobs)
    return dict(zip(members, functools.reduce(lambda a, b: list(map(_merge, a, b)), parts)))


def mc_estimates(geom: ArrayGeometry, params: SystemParams, err_models,
                 cfg: McConfig, scenarios, *, correlated: bool = True,
                 workers: int = 1) -> dict[Scenario, McEstimate]:
    """Control-variate estimates for a set of scenarios.

    err_models is (model_t, model_r).  Every scenario is evaluated on the
    same draws, so NOMA and OMA estimates share the channel realizations.
    Each rate is regressed on the trial's unprimed gains that it reads
    (H_t, H_r or both; see _CONTROLS) and the conditional mean gains D of
    its _phase_sides, whose exact means are the Jensen gains N (1 - eps^2)
    + eps^2 tr(Rbar Rbar) of the layout, correlation flag and phase
    models, on the energies P2 of its _p2_sides, of exact mean N, and
    P2^2 of its _energy_sides, of exact mean mean_p2_sq, and on the
    zero-mean phase controls (see McEstimate).  A call of a running
    mc_batch finalizes from the moments the walk of its Gaussian key
    kept; no draw, rate chain or pool happens after the batch's first
    call on that key.  Any other call walks alone and keeps nothing.  An
    empty list of scenarios makes no member and draws nothing.
    """
    members = _member(geom, params, err_models, cfg, scenarios, correlated)
    # the batch's members walk every batch member of their Gaussian key
    walks = _batch if _batch.keys() >= set(members) else dict.fromkeys(members)
    if any(walks[member] is None for member in members):
        gaussian = members[0][0][0]
        walks.update(_walk_group([m for m in walks if m[0][0] == gaussian], workers))
    tr = trace_rbar_sq(geom, correlated)
    mean_gains = np.array([_mean_gain(geom.n_elements, tr, model.epsilon())
                           for model in err_models])
    p2_sq = mean_p2_sq(geom, correlated)
    return {scen: _cv_estimate(walks[key, params, scen], np.concatenate((
                mean_gains[[*_CONTROLS[scen], *_phase_sides(key, scen)]],
                [geom.n_elements] * len(_p2_sides(key, scen)),
                [p2_sq] * len(_energy_sides(key, scen)))))
            for key, params, scen in members}


def mc_batch(calls, *, workers: int = 1) -> list[dict[Scenario, McEstimate]]:
    """The mc_estimates of several calls, given as (geom, params,
    err_models, cfg, scenarios, correlated) tuples of its arguments, in
    order.  The calls may be of any number of Gaussian keys (see
    _member); the first call on a Gaussian key walks every call that
    shares it at once, on the given workers, and the others finalize from
    the kept moments.  The moments are dropped when the batch returns."""
    calls = list(calls)
    try:
        _batch.update(dict.fromkeys(member for call in calls for member in _member(*call)))
        return [mc_estimates(*call[:5], correlated=call[5], workers=workers)
                for call in calls]
    finally:
        _batch.clear()
