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
(see _walk_block).  Per block, the means and co-moments of y and its
controls are merged in block order, so the estimates do not depend on
how blocks were scheduled.

The gains depend only on the draw key of a call, and the fading streams
only on its Gaussian key (see _member); the link budget and the
scenarios enter only through the rates.  Elements are ordered column by
column and every stream is drawn element by element, so a layout of n_h
columns reads the leading n_v n_h rows of its family's draws, and its
triangular factor is the leading block of a wider layout's.  One walk
thus samples every draw key of a family: each block draws each stream
once, at the widest layout asked for, colours each fading stream once
per correlation flag, draws each phase model once per side, and reads
the composite gain of every column count from prefix sums over the
columns.  A side is drawn only for the keys whose members' rates read
it, so a walk whose members ask only for T's rates draws no reflect-side
stream at all.  A layout's draws do not depend on the other layouts of
its walk: its i.i.d. gains are bit-identical to a lone walk's, and its
correlated ones differ only by the rounding of the wider factor.  A
member is the (draw key, params, scenarios) of one engine call, as
_member forms it.  expect_draws() takes the arguments of the calls to
come, of any number of Gaussian keys; the first call on a Gaussian key
walks the blocks once, runs the rate chain of every announced member
that shares the key on each block's gains, and stores only the merged
moments per member and scenario.  A later call on a stored member
finalizes from them; a call that was not announced drops the store and
walks alone.  A walk holds one block of gains at a time, whatever the
trial count.  forget_draws() drops the memo.
SystemParams rejects four-user parameters that break the pathloss
ordering behind the (R', T', R, T) decoding order, so the engine checks
none.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .analytic import _LINKS, _READS, Scenario, _check_users, _mean_gain, link_gain
from .analytic import _NOMA_USERS as _NOMA, oma_slot_rates, sic_rates
from .channel import SystemParams, correlation_factor, standard_complex_gaussian
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
_Z95 = NormalDist().inv_cdf(0.975)  # the normal quantile of the 95 % half-widths


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

    mean is y-bar - beta (H-bar - E[H]) over the controls H, the unprimed
    gains the rate reads (H_t, H_r or both), with beta fitted by least
    squares on the same trials; the fit biases it by O(1/trials), about
    0.1 standard errors at 1000 trials on an N = 8 uniform-phase setup.
    half_width is the 95 % normal half-width 1.96 sqrt(s^2 / trials),
    with s^2 the residual variance of the fit over trials - 1 - k degrees
    of freedom, k the number of controls.
    """

    mean: float
    half_width: float
    trials: int

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be non-negative")


def _boosted_gains(amp: np.ndarray, phases: np.ndarray, n_v: int, widths) -> dict:
    """{n_h: |sum_{n < n_v n_h} amp_n exp(j phases_n)|^2 per trial} for the
    column counts n_h in widths, amp = |a| |h| formed by the caller, both
    (n_v max(widths), count) with elements column by column.  The terms
    are summed per column and accumulated over the columns, so each
    column count reads its own prefix sum.  The real and imaginary parts
    amp cos(phases) and amp sin(phases) are summed in real arithmetic
    into one complex prefix, and the magnitude is its complex abs:
    bit-identical to the complex expression, without a complex exp."""
    count = phases.shape[1]
    prefix = np.empty((len(phases) // n_v, count), complex)
    for part, trig in ((prefix.real, np.cos), (prefix.imag, np.sin)):
        terms = trig(phases)
        terms *= amp
        np.cumsum(terms.reshape(-1, n_v, count).sum(axis=1), axis=0, out=part)
    return {n_h: np.abs(prefix[n_h - 1]) ** 2 for n_h in widths}


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
# rows of _walk_block: 0 for H_t, 1 for H_r.  They are the rate's
# controls and the sides a walk draws for it.  The primed gains of T'
# and R', drawn on the same sides, are not controls: see _walk_block.
_CONTROLS = {scen: tuple(row for row, link in enumerate("tr") if link in links)
             for scen, links in _READS.items()}


def _walk_block(keys, factor, block, count):
    """Composite gains of one block for the draw keys of a group, shape
    (len(keys), 2 or 4, count): rows (H_t, H_r), plus (H_t', H_r') under
    four-user parameters.

    keys maps each draw key to the sides its members read (see
    _CONTROLS): 0 the transmit side (H_t, H_t'), 1 the reflect side (H_r,
    H_r').  A side colours its fading streams only for the correlation
    flags, and draws only the phase models, of the keys that read it, so
    a side that no key reads is not drawn at all; a key's rows of a side
    it does not read are NaN.  Every (stream, block) pair has its own
    generator, so skipping a side leaves every other stream's draws
    unchanged.

    Every stream is drawn once, at the group's widest layout and element
    by element, so a layout's n_v n_h elements read the leading rows of
    each draw, whatever the widest layout is.  Each fading stream is
    coloured once per correlation flag: by factor, the lower-triangular
    factor of the widest correlated layout, whose leading block colours
    every narrower one, or not at all.  A colouring keeps what every
    phase model shares: |g||h|, and for four-user keys |g'||h| and
    arg(g') - arg(g).  The primed composites reuse the boost set, so
    their leftover phase at element n is arg(g'_n) - arg(g_n) + phi_n_t,
    uniform per element but tied to the actual draws.  On a correlated
    layout the leftovers are correlated across elements too, so E[H']
    exceeds N (about 37 against N = 24 on a 6 x 4 array at
    quarter-wavelength spacing under 1-bit errors).  Then on each side
    every distinct phase model draws its stream once, at the widest
    layout it is asked at, and each (correlation flag, phase model) of
    the side forms the gains of all its column counts from one set of
    element terms (see _boosted_gains).  The transmit side comes first,
    then the reflect side with r, r' and phi_r.  Each array is freed as
    soon as it is used up, so the live set does not grow with the number
    of phase models.
    """
    (family, master_seed, _, primed), *_ = next(iter(keys))
    n_v = family.n_v
    shape = (n_v * max(key[1] for key in keys), count)
    index = {key: i for i, key in enumerate(keys)}

    def rng(stream):
        seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, block))
        return np.random.Generator(np.random.PCG64(seq))

    def colourings(stream, flags):
        # i.i.d. first, so that z is freed once the correlated colouring
        # is formed
        z = standard_complex_gaussian(shape, rng(stream))
        if False in flags:
            yield False, z
        if True in flags:
            # one real product over the interleaved parts: bit-identical
            # to the complex one against the factor cast to complex
            vec = (factor @ z[:len(factor)].view(float)).view(complex)
            del z
            yield True, vec

    def products(stream, flags):
        """{flag: |a||h|} of one stream a, and {flag: arg(a)} for four-user keys."""
        amp, arg = {}, {}
        for flag, vec in colourings(stream, flags):
            amp[flag] = np.abs(vec)
            amp[flag] *= mag_h[flag]
            if primed:
                arg[flag] = np.angle(vec)
        return amp, arg

    mag_h = {flag: np.abs(vec)
             for flag, vec in colourings(_STREAM_H, {key[2] for key in keys})}
    gains = np.full((len(keys), 4 if primed else 2, count), np.nan)
    for row, (stream, stream_p, stream_phi) in enumerate((
            (_STREAM_G, _STREAM_GP, _STREAM_PHI_T),
            (_STREAM_R, _STREAM_RP, _STREAM_PHI_R))):
        asked = {}  # {phase model of this side: {flag: [keys that read it]}}
        for key, sides in keys.items():
            if row in sides:
                asked.setdefault(key[3 + row], {}).setdefault(key[2], []).append(key)
        if not asked:
            continue
        flags = {flag for by_flag in asked.values() for flag in by_flag}
        amp, arg = products(stream, flags)
        if primed:
            amp_p, arg_p = products(stream_p, flags)
            for flag, base in arg.items():
                arg_p[flag] -= base  # arg(a') - arg(a)
        arg = None  # only arg(a') - arg(a) is read from here on
        for model, by_flag in asked.items():
            phases = model.sample((n_v * max(key[1] for group in by_flag.values()
                                             for key in group), count), rng(stream_phi))
            for flag, group in by_flag.items():
                widths = {key[1] for key in group}
                n = n_v * max(widths)
                out = _boosted_gains(amp[flag][:n], phases[:n], n_v, widths)
                out_p = (_boosted_gains(amp_p[flag][:n], arg_p[flag][:n] + phases[:n],
                                        n_v, widths) if primed else None)
                for key in group:
                    gains[index[key], row] = out[key[1]]
                    if primed:
                        gains[index[key], row + 2] = out_p[key[1]]
            del phases  # before the next model's phases are drawn
        amp = amp_p = arg_p = None  # before the next side is drawn
    return gains


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
    """The control-variate estimate from the merged moments of (y, H), H
    the gains the rate reads (H_t, H_r or both; see _CONTROLS) and
    control_means their exact means: y-bar - beta (H-bar - E[H]), beta the
    least-squares fit of y on the controls (C_HH beta = C_Hy; H_t and H_r
    come from separate streams, so C_HH is not singular), and a 95 %
    half-width from the residual variance with one degree of freedom per
    coefficient and one for the mean.  The residual sum of squares
    C_yy - C_yH beta is clipped at 0: it cancels to rounding when y is
    linear in H to double precision, as for rates below about 1e-8 bits."""
    n, mean, com = moments
    c_hy = com[1:, 0]
    beta = np.linalg.solve(com[1:, 1:], c_hy)
    var = max(com[0, 0] - c_hy @ beta, 0.0) / (n - 1 - len(beta))
    return McEstimate(mean=float(mean[0] - beta @ (mean[1:] - control_means)),
                      half_width=float(_Z95 * np.sqrt(var / n)), trials=n)


# ---------------------------------------------------------------------------
# the group walk

# The stored members: {member: {scenario: moments}, or None until walked}
_stored: dict[tuple, dict | None] = {}


def _member(geom, params, err_models, cfg, scenarios, correlated) -> tuple:
    """The member (draw key, params, scenarios) of an mc_estimates call,
    its scenarios without repeats in the order asked.

    Calls with equal draw keys evaluate their rates on the same draws,
    whatever scenarios they ask for; params enters the key only through
    params.four_user, which adds the primed gains.  The key is (Gaussian
    key, n_h, correlated, model_t, model_r).  The Gaussian key (family,
    master seed, trials, params.four_user) fixes the fading streams: the
    family is the layout's one-column geometry (n_v, element sizes and
    wavelength), whose layouts of n_h columns read the leading rows of
    every stream, so one walk samples all the keys of a Gaussian key.
    """
    scenarios = tuple(dict.fromkeys(scenarios))
    for scen in scenarios:
        _check_users(scen, params)
    return (((replace(geom, n_h=1), cfg.master_seed, cfg.trials, params.four_user),
             geom.n_h, correlated, *err_models), params, scenarios)


def expect_draws(calls) -> None:
    """Drop the stored moments and announce the engine calls to come, as
    (geom, params, err_models, cfg, scenarios, correlated) tuples of
    mc_estimates arguments, in any order and of any number of Gaussian
    keys (see _member).  The first call on a Gaussian key walks every
    announced call that shares it at once; the others then finalize from
    the stored moments."""
    global _stored
    _stored = dict.fromkeys(_member(*call) for call in calls)


def forget_draws() -> None:
    """Drop the stored moments."""
    global _stored
    _stored = {}


def _block_moments(keys, members, factor, block, count):
    """The moments of each rate and its controls (see _CONTROLS) over one
    block, per member and scenario in order: the gains of the block's
    keys, then each member's rate chain on them."""
    gains = dict(zip(keys, _walk_block(keys, factor, block, count)))
    return [_moments(np.vstack((r, gains[key][list(_CONTROLS[scen])])))
            for key, params, scenarios in members
            for scen, r in _rates_at(scenarios, params, gains[key]).items()]


def _group_factor(keys):
    """The colouring factor of a group's draw keys: that of the widest
    correlated layout, or None if no key is correlated."""
    n_h = max((key[1] for key in keys if key[2]), default=0)
    return (correlation_factor(correlation_matrix(replace(next(iter(keys))[0][0], n_h=n_h)))
            if n_h else None)


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
    (H_t, H_r or both; see _CONTROLS), whose exact means are the Jensen
    gains N (1 - eps^2) + eps^2 tr(Rbar Rbar) of the layout, correlation
    flag and phase models (see McEstimate).  A call announced by
    expect_draws finalizes from the moments the walk of its Gaussian key
    stored (see the module docstring); no draw, rate chain or pool
    happens after the first call on that key.
    """
    global _stored
    member = _member(geom, params, err_models, cfg, scenarios, correlated)
    if _stored.get(member) is None:
        # an announced member walks every announced member of its
        # Gaussian key; any other walks alone
        if member not in _stored:
            _stored = {member: None}
        gaussian = member[0][0]
        _stored.update(_walk_group([m for m in _stored if m[0][0] == gaussian], workers))
    tr = trace_rbar_sq(geom, correlated)
    mean_gains = np.array([_mean_gain(geom.n_elements, tr, model.epsilon())
                           for model in err_models])
    return {scen: _cv_estimate(m, mean_gains[list(_CONTROLS[scen])])
            for scen, m in _stored[member].items()}
