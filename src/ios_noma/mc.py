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
closed-form bounds evaluate at a fixed gain.

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
alone leaves in the uniform-phase rows.  Where a side's phases are
uniform, the rates that are one log of its gain (NOMA T, OMA T and OMA
R; analytic._SINGLE_LOG) on n_h >= 2 columns are conditional Monte
Carlo estimates instead (see _rotated): turning the phases of the last
n_h - n_h // 2 columns by one more uniform angle leaves their law
unchanged, so y and its controls are replaced by their closed-form means
over that angle, from the magnitudes of the two halves' sums.  Per
block, the means and co-moments of y and its controls are merged in
block order, so the estimates do not depend on how blocks were
scheduled.

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
member is the (draw key, params, scenarios) of one engine call, as
_member forms it.  mc_batch() takes the arguments of several calls, of
any number of Gaussian keys; the first call on a Gaussian key walks the
blocks once, runs the rate chain of every member of the batch that
shares the key on each block's gains, and keeps only the merged moments
per member and scenario, from which the batch's later calls on that key
finalize.  Nothing is kept after mc_batch returns, and a lone
mc_estimates call walks alone.  A walk holds one block of gains at a
time, whatever the trial count.
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
from .channel import (Perfect, SystemParams, UniformFull, correlation_factor,
                      standard_complex_gaussian)
from .geometry import ArrayGeometry, correlation_matrix, trace_rbar_sq

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
    phase controls of each such side (see _phase_sides), with beta
    fitted by least squares on the same trials; E[D] = E[H], the Jensen
    gain.  For NOMA T, OMA T and OMA R on a side of uniform phases and
    n_h >= 2 columns, y and the controls are the rotated rows: their
    means over a uniform turn of the phases of the side's last
    n_h - n_h // 2 columns (see _rotated), with the same means and less
    variance.  The fit biases it by O(1/trials), about 0.1 standard
    errors at 1000 trials on an N = 8 setup.  half_width is the 95 % normal
    half-width 1.96 sqrt(s^2 / trials), with s^2 the residual variance of
    the fit over trials - 1 - k degrees of freedom, k the number of
    controls.
    """

    mean: float
    half_width: float
    trials: int

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be non-negative")


def _boosted_gains(amp: np.ndarray, phases: np.ndarray, n_v: int, widths,
                   halves=None) -> dict:
    """{n_h: |sum_{n < n_v n_h} amp_n exp(j phases_n)|^2 per trial} for the
    column counts n_h in widths, amp = |a| |h| formed by the caller, both
    (n_v max(widths), count) with elements column by column.  The terms
    are summed per column and accumulated over the columns, so each
    column count reads its own prefix sum.  The real and imaginary parts
    amp cos(phases) and amp sin(phases) are summed in real arithmetic
    into one complex prefix, and the magnitude is its complex abs:
    bit-identical to the complex expression, without a complex exp.

    halves maps some column counts n_h >= 2 to a (2, count) array, which
    is filled with |S_head| and |S_tail|, the magnitudes of the sums over
    the first n_h // 2 columns and over the rest (see _rotated)."""
    count = phases.shape[1]
    prefix = np.empty((len(phases) // n_v, count), complex)
    for part, trig in ((prefix.real, np.cos), (prefix.imag, np.sin)):
        terms = trig(phases)
        terms *= amp
        part[...] = _running_sum(terms.reshape(-1, n_v, count).sum(axis=1))
    for n_h, (head, tail) in (halves or {}).items():
        np.abs(prefix[n_h // 2 - 1], out=head)
        np.abs(prefix[n_h - 1] - prefix[n_h // 2 - 1], out=tail)
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


def _rotated(key, scen) -> bool:
    """Whether scen's rate on draw key is averaged over a half-surface
    rotation: a rate of analytic._SINGLE_LOG whose side has UniformFull
    phases and n_h >= 2 columns.  Turning the phases of the side's last
    n_h - n_h // 2 columns by one uniform angle psi, independent of the
    draws, leaves the law of its i.i.d. uniform phases unchanged.  So the
    rate's mean over psi (_mean_log1p_over_rotation), a function of
    |S_head| and |S_tail| (see _boosted_gains), has the rate's mean and
    less variance (conditional Monte Carlo), and so do its controls
    averaged over psi (_phase_rows).  The min over two links of NOMA R, T'
    and R' has no mean over psi in closed form."""
    _, n_h, *models = key
    return (scen in _SINGLE_LOG and n_h >= 2
            and isinstance(models[_CONTROLS[scen][0]], UniformFull))


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
    cross = kappa * diff * total
    return np.log1p(0.5 * k_a + (2.0 * k_a + cross * cross) / (2.0 * (w + 1.0)))


def _phase_sides(key, scen) -> tuple:
    """The sides of scen's gain controls on draw key that also take the
    phase controls Q1 and Q2 (see _phase_rows): those of N >= 2 elements
    whose model has 1 - eps^2 >= _PHASE_VAR_MIN, which leaves out every
    Perfect side, and none for T' and R'.  At N = 1, H = a^2 whatever
    the phase.  A _rotated rate needs N >= 3: at N = 2 each half is one
    element, so A = D and the phase controls averaged over psi vanish."""
    (family, *_), n_h, *models = key
    if scen in _NOMA[2:] or family.n_v * n_h < 2 + _rotated(key, scen):
        return ()
    return tuple(row for row in _CONTROLS[scen]
                 if 1.0 - models[row].epsilon() ** 2 >= _PHASE_VAR_MIN)


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


def _phase_rows(model, h, sums, halves=None):
    """The gain and phase controls (H, D, Q1, Q2) of one side's gains h:
    D = E[H | a] (see _conditional_moments), Q1 = H / D - 1 and Q2 = Q1^2
    - Var(H | a) / D^2.  E[D] = E[H], the side's Jensen gain, and Q1 and
    Q2 have mean 0 exactly, since E[Q1 | a] = 0 and E[Q1^2 | a] = Var(H |
    a) / D^2.  (Q1, Q2) spans the same controls as (Q1, (H / D)^2 - E[H^2
    | a] / D^2) = (Q1, 2 Q1 + Q2), without cancelling the 1s of the two
    ratios.

    Given halves = (|S_head|, |S_tail|) of a UniformFull side, the rows
    are their means over the rotation of its tail (see _rotated): H = A =
    |S_head|^2 + |S_tail|^2, and Q2 = Q1^2 + (2 |S_head|^2 |S_tail|^2 -
    Var(H | a)) / D^2, as the mean over psi of (H - D)^2 is (A - D)^2 + 2
    |S_head|^2 |S_tail|^2.  Their means stay those of H, Q1 and Q2."""
    mean, var = _conditional_moments(model, sums)
    if halves is not None:
        head_sq, tail_sq = halves * halves
        h = head_sq + tail_sq
        var = var - 2.0 * head_sq * tail_sq
    q1 = h / mean - 1.0
    return h, mean, q1, q1 * q1 - var / (mean * mean)


def _walk_block(keys, factor, block, count, halves=()):
    """Composite gains of one block for the draw keys of a walk, and the
    column sums of their element amplitudes.

    The gains are {draw key: [H_t, H_r]}, plus [H_t', H_r'] under
    four-user parameters: each a row of count trials, or None for a side
    the key does not read, which no array holds.  The sums are {side:
    {n_h: ((A^2, P2, B1, B2), halves)}}, the first (see _column_sums) of
    the amplitudes a = |g||h| or |r||h|, at the column counts of the keys
    that read the side; _block_moments forms the phase controls from
    them.  halves is (|S_head|, |S_tail|) of the side's UniformFull gain
    at n_h columns (see _boosted_gains) for the distinct (side, n_h) pairs
    of the argument halves, each n_h >= 2 and read by a key of UniformFull
    phases on that side, and None for every other pair.

    keys maps each draw key to the sides its members read (see
    _CONTROLS): 0 the transmit side (H_t, H_t'), 1 the reflect side (H_r,
    H_r').  A side draws only the phase models of the keys that read it,
    so a side that no key reads is not drawn at all and holds no row.
    Every (stream, block) pair has its own generator, so skipping a side
    leaves every other stream's draws unchanged.

    Every stream is drawn once, at the walk's widest layout and element
    by element, so a layout's n_v n_h elements read the leading rows of
    each draw, whatever the widest layout is.  All keys share the
    correlation flag of their Gaussian key: a correlated walk colours
    each fading stream by factor, the lower-triangular factor of its
    widest layout, whose leading block colours every narrower one, and an
    i.i.d. walk does not colour them.  A side keeps what every phase
    model shares: |g||h|, and for four-user keys |g'||h| and arg(g') -
    arg(g).  The primed composites reuse the boost set, so their leftover
    phase at element n is arg(g'_n) - arg(g_n) + phi_n_t, uniform per
    element but tied to the actual draws.  On a correlated layout the
    leftovers are correlated too, so E[H'] exceeds N (about 37 against N =
    24 on a 6 x 4 array at quarter-wavelength spacing under 1-bit errors).
    Then, before any phases are drawn, the side forms the column sums of
    its amplitudes.  A Perfect model's gain is their A^2, so it draws no
    phases and skips the cosine and sine pass: bit-identical, as cos 0 = 1
    and sin 0 = 0.  Every other distinct phase model draws its stream
    once, at the widest layout it is asked at, and forms the gains of all
    its column counts from one set of element terms (see _boosted_gains).
    The transmit side comes first, then the reflect side with r, r' and
    phi_r.  Each array is freed as soon as it is used up, so the live set
    does not grow with the number of phase models.
    """
    (family, master_seed, _, primed, correlated), *_ = next(iter(keys))
    n_v = family.n_v
    shape = (n_v * max(key[1] for key in keys), count)

    def rng(stream):
        seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, block))
        return np.random.Generator(np.random.PCG64(seq))

    def colour(stream):
        z = standard_complex_gaussian(shape, rng(stream))
        # one real product over the interleaved parts: bit-identical to the
        # complex one against the factor cast to complex
        return (factor @ z.view(float)).view(complex) if correlated else z

    def products(stream):
        """|a||h| of one stream a, and arg(a) for four-user keys."""
        vec = colour(stream)
        amp = np.abs(vec)
        amp *= mag_h
        return amp, np.angle(vec) if primed else None

    mag_h = np.abs(colour(_STREAM_H))
    # one row per side a key reads (two under four-user parameters), then
    # the two rows of each half split asked, in one array allocated before
    # the sides are drawn; keeping each phase model's own gain rows
    # instead, between the large temporaries of the later draws, raised
    # the peak RSS of a 60-element walk by 9 MB
    read = [(key, row) for key, sides in keys.items() for side in sides
            for row in ((side, side + 2) if primed else (side,))]
    store = np.empty((len(read) + 2 * len(halves), count))
    gains = {key: [None] * (4 if primed else 2) for key in keys}
    for (key, row), gain in zip(read, store):
        gains[key][row] = gain
    halves = dict(zip(halves, store[len(read):].reshape(-1, 2, count)))
    sums = {}
    for row, (stream, stream_p, stream_phi) in enumerate((
            (_STREAM_G, _STREAM_GP, _STREAM_PHI_T),
            (_STREAM_R, _STREAM_RP, _STREAM_PHI_R))):
        asked = {}  # {phase model of this side: [keys that read it]}
        for key, sides in keys.items():
            if row in sides:
                asked.setdefault(key[2 + row], []).append(key)
        if not asked:
            continue
        amp, arg = products(stream)
        if primed:
            amp_p, arg_p = products(stream_p)
            arg_p -= arg  # arg(a') - arg(a)
        arg = None  # only arg(a') - arg(a) is read from here on
        cols = _column_sums(amp, n_v, {key[1] for group in asked.values() for key in group})
        sums[row] = {n_h: (col, halves.get((row, n_h))) for n_h, col in cols.items()}
        for model, group in asked.items():
            widths = {key[1] for key in group}
            n = n_v * max(widths)
            perfect = isinstance(model, Perfect)
            phases = None if perfect else model.sample((n, count), rng(stream_phi))
            split = ({n_h: halves[row, n_h] for n_h in widths if (row, n_h) in halves}
                     if isinstance(model, UniformFull) else None)
            out = ({n_h: cols[n_h][0] for n_h in widths} if perfect
                   else _boosted_gains(amp[:n], phases, n_v, widths, split))
            out_p = (_boosted_gains(amp_p[:n], arg_p[:n] if perfect else arg_p[:n] + phases,
                                    n_v, widths) if primed else None)
            for key in group:
                gains[key][row][...] = out[key[1]]
                if primed:
                    gains[key][row + 2][...] = out_p[key[1]]
            del phases  # before the next model's phases are drawn
        amp = amp_p = arg_p = None  # before the next side is drawn
    return gains, sums


def _rates_at(scenarios, params, gains):
    """Per-trial rates at one block's gains, {scenario: rates} in the order
    asked.  Only the chains asked for run, and each reads only the gains
    of the users asked for: the NOMA chain those of the users T, R, T',
    R' up to the last one asked for, and the OMA chain those of the OMA
    users asked for."""
    rates = {}
    users = max((_NOMA.index(scen) + 1 for scen in scenarios if scen in _NOMA), default=0)
    if users:
        rates.update(zip(_NOMA, noma_trial_rates(params, *gains[:users])))
    if not set(scenarios).isdisjoint(_OMA):
        rates.update(zip(_OMA, oma_trial_rates(params, *(
            gains[row] if scen in scenarios else None for row, scen in enumerate(_OMA)))))
    return {scen: rates[scen] for scen in scenarios}


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
    Q), H the gains the rate reads (H_t, H_r or both; see _CONTROLS) and
    D the conditional mean gains of its phase sides, with exact means
    control_means (the Jensen gains of those sides), and Q their phase
    controls, of mean 0: y-bar - beta (x-bar - E[x]) over the controls
    x = (H, D, Q), beta the least-squares fit of y on them (C_xx beta =
    C_xy; H_t and H_r come from separate streams, each D row differs
    from its H by the phases, and each Q row varies with the phases at
    fixed magnitudes, so C_xx is not singular; a side whose phases barely
    move H takes no D or Q rows, nor does a _rotated rate at N = 2, whose
    A equals D), and a 95 % half-width from the
    residual variance with one degree of freedom per coefficient and one
    for the mean.  The residual sum of squares C_yy - C_yx beta is
    clipped at 0: it cancels to rounding when y is linear in H to double
    precision, as for rates below about 1e-8 bits."""
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

# The members of the running mc_batch: {member: {scenario: moments}, or
# None until walked}; empty whenever no mc_batch runs
_batch: dict[tuple, dict | None] = {}


def _member(geom, params, err_models, cfg, scenarios, correlated) -> tuple:
    """The member (draw key, params, scenarios) of an mc_estimates call,
    its scenarios without repeats in the order asked.

    Calls with equal draw keys evaluate their rates on the same draws,
    whatever scenarios they ask for; params enters the key only through
    params.four_user, which adds the primed gains.  The key is (Gaussian
    key, n_h, model_t, model_r).  The Gaussian key (family, master seed,
    trials, params.four_user, correlated) fixes the fading streams: the
    family is the layout's one-column geometry (n_v, element sizes and
    wavelength), whose layouts of n_h columns read the leading rows of
    every stream, so one walk samples all the keys of a Gaussian key.
    """
    scenarios = tuple(dict.fromkeys(scenarios))
    for scen in scenarios:
        _check_users(scen, params)
    return (((replace(geom, n_h=1), cfg.master_seed, cfg.trials, params.four_user, correlated),
             geom.n_h, *err_models), params, scenarios)


def _block_moments(keys, members, factor, block, count):
    """The moments of each rate and its controls over one block, per
    member and scenario in order: the gains of the block's keys, then
    each member's rate chain on them.  A rate's controls are its gains H
    (see _CONTROLS), then the D rows of its _phase_sides, then their Q1
    and Q2 rows (see _phase_rows): the rows of known mean first, in the
    order mc_estimates lists those means.  A _rotated rate and its
    controls are their means over the rotation instead: the rate from
    the halves of its side's gain, and A in place of H.  The controls are
    formed from the gains and column sums key by key, once for all the
    members on a key, so one key's controls are held at a time."""
    halves = dict.fromkeys((_CONTROLS[scen][0], key[1]) for key, _, scenarios in members
                           for scen in scenarios if _rotated(key, scen))
    gains, sums = _walk_block(keys, factor, block, count, halves=halves)
    on_key = {}  # {draw key: indices of its members}
    for i, (key, _, _) in enumerate(members):
        on_key.setdefault(key, []).append(i)
    out = [None] * len(members)
    for key, indices in on_key.items():
        controls = {}  # {(side, rotated): (H or A, D, Q1, Q2)}
        for scen in {scen for i in indices for scen in members[i][2]}:
            rotated = _rotated(key, scen)
            for side in _CONTROLS[scen] if rotated else _phase_sides(key, scen):
                if (side, rotated) not in controls:
                    col, split = sums[side][key[1]]
                    controls[side, rotated] = _phase_rows(key[2 + side], gains[key][side], col,
                                                          split if rotated else None)
        for i in indices:
            _, params, scenarios = members[i]
            out[i] = _member_moments(key, params, scenarios, gains[key], sums, controls)
    return [moments for per_member in out for moments in per_member]


def _member_moments(key, params, scenarios, gains, sums, controls):
    """The moments of one member's rates on draw key, in the order of its
    scenarios, each stacked over its controls (see _block_moments) from
    the key's gains, the walk's sums and the key's controls {(side,
    rotated): (H or A, D, Q1, Q2)}.  The rate chain runs once, on all the
    member's scenarios: a _rotated rate's plain row costs one log per
    trial, and the benchmark counts blocks as rate chain calls."""
    rates = _rates_at(scenarios, params, gains)
    out = []
    for scen in scenarios:
        rotated = _rotated(key, scen)
        if rotated:
            (side,) = _CONTROLS[scen]
            kappa, share = _single_log(params, scen)
            rate = share * _mean_log1p_over_rotation(kappa, *sums[side][key[1]][1]) / _LN2
            gain_rows = [controls[side, True][0]]
        else:
            rate, gain_rows = rates[scen], [gains[row] for row in _CONTROLS[scen]]
        phase = [controls[side, rotated] for side in _phase_sides(key, scen)]
        out.append(_moments(np.vstack((rate, *gain_rows, *(rows[1] for rows in phase),
                                       *(q for rows in phase for q in rows[2:])))))
    return out


def _group_factor(keys):
    """The colouring factor of a walk's draw keys: that of the widest
    layout if the walk is correlated, else None."""
    (family, *_, correlated), *_ = next(iter(keys))
    widest = replace(family, n_h=max(key[1] for key in keys))
    return correlation_factor(correlation_matrix(widest)) if correlated else None


def _walk_group(members, workers):
    """{member: {scenario: moments}} for members that share their
    Gaussian key, one walk over the blocks, merged in block order so the
    result does not depend on scheduling.  Each draw key is walked on the
    sides its members' rates read."""
    keys = {}  # {draw key: sides read}
    for key, _, scenarios in members:
        keys.setdefault(key, set()).update(*(_CONTROLS[scen] for scen in scenarios))
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
    merged = iter(functools.reduce(lambda a, b: list(map(_merge, a, b)), parts))
    return {member: {scen: next(merged) for scen in member[2]} for member in members}


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
    models, and on the zero-mean phase controls (see McEstimate).  A call
    of a running mc_batch finalizes from the moments the walk of its
    Gaussian key kept; no draw, rate chain or pool happens after the
    batch's first call on that key.  Any other call walks alone and keeps
    nothing.
    """
    member = _member(geom, params, err_models, cfg, scenarios, correlated)
    # a member of the batch walks every batch member of its Gaussian key
    walks = _batch if member in _batch else {member: None}
    if walks[member] is None:
        gaussian = member[0][0]
        walks.update(_walk_group([m for m in walks if m[0][0] == gaussian], workers))
    tr = trace_rbar_sq(geom, correlated)
    mean_gains = np.array([_mean_gain(geom.n_elements, tr, model.epsilon())
                           for model in err_models])
    return {scen: _cv_estimate(m, mean_gains[[*_CONTROLS[scen],
                                              *_phase_sides(member[0], scen)]])
            for scen, m in walks[member].items()}


def mc_batch(calls, *, workers: int = 1) -> list[dict[Scenario, McEstimate]]:
    """The mc_estimates of several calls, given as (geom, params,
    err_models, cfg, scenarios, correlated) tuples of its arguments, in
    order.  The calls may be of any number of Gaussian keys (see
    _member); the first call on a Gaussian key walks every call that
    shares it at once, on the given workers, and the others finalize from
    the kept moments.  The moments are dropped when the batch returns."""
    calls = list(calls)
    try:
        _batch.update(dict.fromkeys(_member(*call) for call in calls))
        return [mc_estimates(*call[:5], correlated=call[5], workers=workers)
                for call in calls]
    finally:
        _batch.clear()
