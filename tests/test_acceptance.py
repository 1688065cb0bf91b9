"""Acceptance suite: one test per bundled criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are fixed here and
must not be loosened; Monte Carlo configurations pin master seeds so
every run is bit-reproducible."""

import math
import time

import numpy as np
import pytest
from conftest import complex_normals, per_bit_gain_limit

from ios_noma.analytic import Scenario, rate_bound
from ios_noma.channel import (Perfect, Quantized, SystemParams, UniformFull,
                              VonMises, correlation_factor, pathloss)
from ios_noma.experiments import (ScenarioSpec, SweepSpec, load_spec,
                                  rows_to_csv_text, run_sweep, spec_with_overrides)
from ios_noma.geometry import (ArrayGeometry, correlation_matrix, cross_moment,
                               trace_rbar_sq)
from ios_noma.mc import BLOCK_SIZE, McConfig, mc_estimates
from ios_noma.specfun import bessel_ratio_i1_i0, elliptic_e, elliptic_k

SEED = 424242
PI_SQ_16 = math.pi**2 / 16.0


def report(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def half_wave_geom(n_h, n_v=4, wavelength=0.1):
    return ArrayGeometry(n_h=n_h, n_v=n_v, elem_len_l=wavelength / 2,
                         elem_len_w=wavelength / 2, wavelength=wavelength)


def tboost_params(**kw):
    return SystemParams.from_db(q_t=1.0, q_r=0.0, alpha=1.0, beta=0.0, **kw)


def simulate(geom, params, models, cfg, scenarios, **kwargs):
    """MC estimates as a tuple in the order of scenarios."""
    out = mc_estimates(geom, params, models, cfg, scenarios, **kwargs)
    return tuple(out[s] for s in scenarios)


NOMA = (Scenario.NOMA_T, Scenario.NOMA_R)
OMA = (Scenario.OMA_T, Scenario.OMA_R)
FOUR = NOMA + (Scenario.NOMA_TP, Scenario.NOMA_RP)


def trace_for(geom):
    return trace_rbar_sq(geom, True)


def test_criterion_1_rate_vs_elements_reference_points():
    """Boosted T rate at N=60 and 20 dBm versus the four reference values."""
    geom = half_wave_geom(15)
    params = tboost_params(p_dbm=20.0)
    cfg = McConfig(trials=100_000, master_seed=SEED)
    targets = {"uniform": (UniformFull(), 5.0), "1-bit": (Quantized(1), 9.7),
               "2-bit": (Quantized(2), 10.7), "perfect": (Perfect(), 11.0)}
    start = time.monotonic()
    results = {}
    for tag, (model, _) in targets.items():
        est_t, = simulate(geom, params, (model, Perfect()), cfg, [Scenario.NOMA_T])
        results[tag] = est_t.mean
    elapsed = time.monotonic() - start
    detail = ", ".join(f"{tag} {results[tag]:.2f}/{ref}"
                       for tag, (_, ref) in targets.items())
    ok = all(abs(results[tag] - ref) <= 0.2 for tag, (_, ref) in targets.items())
    report("criterion 1 (N=60 reference rates)", ok, detail)
    report("criterion 1 (runtime)", elapsed < 120.0, f"{elapsed:.1f}s at 1e5 trials")


def test_criterion_2_jensen_tightness_and_uniform_gap():
    """Jensen bound within 0.3 of MC for non-uniform errors; persistent
    gap above 0.5 for fully uniform errors at N=256."""
    params = tboost_params(p_dbm=20.0)
    worst = 0.0
    for n_h in (5, 15):  # N = 20 and N = 60
        geom = half_wave_geom(n_h)
        tr = trace_for(geom)
        cfg = McConfig(trials=30_000, master_seed=SEED)
        for model in (Quantized(1), Quantized(2), Perfect()):
            est_t, = simulate(geom, params, (model, Perfect()), cfg, [Scenario.NOMA_T])
            eps = model.epsilon()
            bound = rate_bound(Scenario.NOMA_T, "jensen", params, geom.n_elements, tr,
                               eps, eps)
            worst = max(worst, abs(bound.value - est_t.mean))
    ok_tight = worst <= 0.3
    report("criterion 2 (Jensen tightness, non-uniform)", ok_tight,
           f"max |bound - mc| = {worst:.3f} <= 0.3")

    geom = half_wave_geom(64)  # N = 256
    cfg = McConfig(trials=20_000, master_seed=SEED)
    est_t, = simulate(geom, params, (UniformFull(), Perfect()), cfg, [Scenario.NOMA_T])
    bound = rate_bound(Scenario.NOMA_T, "jensen", params, 256, trace_for(geom), 0.0, 0.0)
    gap = bound.value - est_t.mean
    report("criterion 2 (uniform-error gap at N=256)", gap > 0.5,
           f"gap = {gap:.3f} > 0.5")


def test_criterion_3_reflect_user_ceiling():
    """R rate converges upward to log2(1 + q_r^2/q_t^2) and sits within
    0.02 of it at 90 dB transmit SNR."""
    ceiling = math.log2(1.0 + 0.64 / 0.36)
    # one sweep, so the three SNRs share one walk over the draws: p_dbm
    # 10, 25 and 40 at the default -50 dBm noise, a 10 x 4 half-wavelength
    # array and von Mises (kappa = 2) errors on both sides
    spec = SweepSpec(
        axis="transmit_snr_db", values=(60.0, 75.0, 90.0),
        scenarios=(ScenarioSpec(
            name="r", target=Scenario.NOMA_R, estimators=("mc",),
            overrides={"n_h": 10, "n_v": 4, "phase_error_t": "vonmises:2",
                       "phase_error_r": "vonmises:2", "trials": 100_000,
                       "master_seed": SEED}),))
    means = [row.value for row in run_sweep(spec)]
    monotone = means[0] < means[1] < means[2]
    final_gap = ceiling - means[-1]
    ok = monotone and means[-1] <= ceiling and final_gap <= 0.02
    report("criterion 3 (R-side ceiling)", ok,
           f"means {means[0]:.3f} -> {means[2]:.4f}, ceiling {ceiling:.4f}, "
           f"gap {final_gap:.4f} <= 0.02")


def test_criterion_4_correlation_gap():
    """Correlated and uncorrelated T rates differ by 0.09 +- 0.03 at
    N = 15 and 0.02 +- 0.02 at N = 90, with the gap shrinking in N."""
    params = tboost_params(p_dbm=20.0)
    models = (Quantized(1), Perfect())
    gaps = {}
    for n_h in (3, 9, 18):  # 5-row array: N = 15, 45, 90
        geom = ArrayGeometry(n_h=n_h, n_v=5, elem_len_l=0.05, elem_len_w=0.05,
                             wavelength=0.2)
        cfg = McConfig(trials=100_000, master_seed=SEED)
        # identical master seed: both runs share the Gaussian draw streams
        corr_t, = simulate(geom, params, models, cfg, [Scenario.NOMA_T], correlated=True)
        unc_t, = simulate(geom, params, models, cfg, [Scenario.NOMA_T], correlated=False)
        gaps[5 * n_h] = abs(corr_t.mean - unc_t.mean)
    ok = (abs(gaps[15] - 0.09) <= 0.03 and abs(gaps[90] - 0.02) <= 0.02
          and gaps[15] > gaps[45] > gaps[90])
    report("criterion 4 (correlation gap)", ok,
           f"|gap| N=15: {gaps[15]:.3f}, N=45: {gaps[45]:.3f}, N=90: {gaps[90]:.3f}")


def high_snr_winner(params, eps_t, eps_r):
    """The scheme of the larger sum rate at large transmit SNR: NOMA iff
    alpha^4 eps_t^2 eta_t > eps_r^2 eta_r, else OMA."""
    noma = params.alpha**4 * eps_t**2 * pathloss(params, "t") > eps_r**2 * pathloss(params, "r")
    return "noma" if noma else "oma"


def test_criterion_5_sum_rate_crossover():
    """NOMA beats OMA in sum rate for the far reflect user and loses for
    the near one at 80 dB transmit SNR; the analytic verdict agrees."""
    geom = half_wave_geom(10)
    models = (VonMises(2.0), VonMises(2.0))
    eps = VonMises(2.0).epsilon()
    outcomes = {}
    for d_r, expected in ((15.0, "noma"), (6.0, "oma")):
        params = SystemParams.from_db(p_dbm=30.0, d_r=d_r)  # 80 dB
        cfg = McConfig(trials=30_000, master_seed=SEED)
        noma_t, noma_r, oma_t, oma_r = simulate(geom, params, models, cfg, NOMA + OMA)
        s_noma = noma_t.mean + noma_r.mean
        s_oma = oma_t.mean + oma_r.mean
        mc_winner = "noma" if s_noma > s_oma else "oma"
        verdict = high_snr_winner(params, eps, eps)
        outcomes[d_r] = (mc_winner, verdict, expected, s_noma, s_oma)
    ok = all(mc == v == exp for mc, v, exp, _, _ in outcomes.values())
    detail = "; ".join(f"d_r={d}: mc {mc} / verdict {v} (sums {sn:.2f}/{so:.2f})"
                       for d, (mc, v, _, sn, so) in outcomes.items())
    report("criterion 5 (sum-rate crossover)", ok, detail)


def test_criterion_6_four_user_limits_and_bounds():
    """Four-user rates at 90 dB within 0.05 of the power-ratio ceilings;
    the closed-form bounds dominate the MC means at every tested SNR."""
    geom = half_wave_geom(10)
    params_for = lambda p: SystemParams.from_db(
        p_dbm=p, q_t=math.sqrt(0.1), q_r=math.sqrt(0.2), q_tp=math.sqrt(0.3),
        q_rp=math.sqrt(0.4), d_tp=12.0, d_rp=15.0,
        lambda_tp_db=-30.0, lambda_rp_db=-30.0)
    models = (Quantized(1), Quantized(1))
    eps = Quantized(1).epsilon()
    tr = trace_for(geom)

    dominated = True
    for p_dbm in (10.0, 25.0, 40.0):  # 60, 75, 90 dB
        params = params_for(p_dbm)
        trials = 400_000 if p_dbm == 40.0 else 100_000
        cfg = McConfig(trials=trials, master_seed=SEED)
        est_t, est_r, est_tp, est_rp = simulate(geom, params, models, cfg, FOUR)
        bound_tp, bound_rp = (rate_bound(target, "jensen", params, geom.n_elements, tr,
                                         eps, eps)
                              for target in (Scenario.NOMA_TP, Scenario.NOMA_RP))
        dominated &= bound_tp.value >= est_tp.mean and bound_rp.value >= est_rp.mean
    report("criterion 6 (bounds dominate MC)", dominated,
           "Prop-style upper bounds >= MC means at 60/75/90 dB")

    limits = {"rp": math.log2(5.0 / 3.0), "tp": 1.0, "r": math.log2(3.0)}
    observed = {"rp": est_rp.mean, "tp": est_tp.mean, "r": est_r.mean}
    diffs = {k: abs(observed[k] - limits[k]) for k in limits}
    ok = all(d <= 0.05 for d in diffs.values())
    report("criterion 6 (large-SNR limits at 90 dB)", ok,
           ", ".join(f"{k}: |{observed[k]:.4f} - {limits[k]:.4f}| = {diffs[k]:.4f}"
                     for k in ("rp", "tp", "r")))


def test_criterion_7a_pair_moment_oracle():
    """Closed-form pair moment against a 1e7-sample bivariate simulation
    on ten correlation grid points, three-sigma agreement."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for rho_sq in np.linspace(0.05, 0.95, 10):
        rho = math.sqrt(rho_sq)
        total, total_sq, n = 0.0, 0.0, 0
        for _ in range(4):  # 4 x 2.5e6 samples
            z1 = complex_normals(2_500_000, rng)
            z2 = complex_normals(2_500_000, rng)
            w2 = rho * z1 + math.sqrt(1.0 - rho_sq) * z2
            prod = np.abs(z1) * np.abs(w2)
            total += prod.sum()
            total_sq += (prod * prod).sum()
            n += prod.size
        mean = total / n
        sigma = math.sqrt((total_sq / n - mean * mean) / n)
        worst = max(worst, abs(cross_moment(rho_sq) - mean) / sigma)
    report("criterion 7a (pair-moment oracle)", worst <= 3.0,
           f"worst deviation {worst:.2f} sigma over 10 grid points at 1e7 samples")


def test_criterion_7b_channel_hardening():
    """Var[H/N^2] falls monotonically over N in {16, 64, 256} and the
    mean approaches pi^2 eps^2 / 16 within 2 percent."""
    model = Quantized(1)
    eps = model.epsilon()
    rng = np.random.default_rng(SEED)
    trials = 20_000
    variances, means = [], []
    for n_h in (4, 16, 64):
        geom = half_wave_geom(n_h)
        n = geom.n_elements
        factor = correlation_factor(correlation_matrix(geom))
        mag_h = np.abs(factor @ complex_normals((n, trials), rng))
        mag_g = np.abs(factor @ complex_normals((n, trials), rng))
        phi = 2.0 * np.arctan(model.sample((n, trials), rng))
        h_norm = np.abs(np.sum(mag_g * mag_h * np.exp(1j * phi), axis=0)) ** 2 / n**2
        variances.append(h_norm.var())
        means.append(h_norm.mean())
    target = PI_SQ_16 * eps**2
    ok = (variances[0] > variances[1] > variances[2]
          and abs(means[-1] - target) / target <= 0.02)
    report("criterion 7b (hardening)", ok,
           f"Var: {variances[0]:.2e} > {variances[1]:.2e} > {variances[2]:.2e}; "
           f"mean {means[-1]:.4f} vs {target:.4f}")


def test_criterion_7c_bound_approximation_equivalence():
    """Jensen bound and hardening approximation agree within 1 percent
    relative at N = 1024 under 1-bit errors."""
    geom = half_wave_geom(256)  # 4 x 256 = 1024 elements
    params = SystemParams.from_db()
    eps = Quantized(1).epsilon()
    tr = trace_for(geom)
    jensen, hardening = (rate_bound(Scenario.NOMA_T, est, params, geom.n_elements, tr,
                                    eps, eps).value for est in ("jensen", "hardening"))
    rel = abs(jensen - hardening) / hardening
    report("criterion 7c (asymptotic equivalence)", rel < 1e-2,
           f"|jensen - hardening| / hardening = {rel:.2e} at N=1024")


def test_criterion_7d_quantization_gain_profile():
    """One-bit gain is exactly 1 bit in the large-array limit and the
    per-bit improvement strictly decreases."""
    f1 = per_bit_gain_limit(1)
    vals = [per_bit_gain_limit(b) for b in range(1, 9)]
    ok = abs(f1 - 1.0) <= 1e-12 and all(a > b for a, b in zip(vals, vals[1:]))
    report("criterion 7d (quantization gain)", ok,
           f"f(1) = {f1!r}, decreasing over b = 1..8")


def test_criterion_7e_deterministic_csv():
    """A bundled sweep re-run with the same master seed emits a
    byte-identical CSV, including under a worker pool: two blocks per
    walk, so two workers start."""
    spec = spec_with_overrides(load_spec("fig7_correlation"),
                               trials=BLOCK_SIZE + 1024, master_seed=SEED)
    first = rows_to_csv_text(run_sweep(spec))
    second = rows_to_csv_text(run_sweep(spec))
    pooled = rows_to_csv_text(run_sweep(spec, workers=2))
    ok = first == second == pooled
    report("criterion 7e (deterministic CSV)", ok,
           f"{len(first.splitlines())} lines, byte-identical across reruns and workers")


def test_criterion_8_special_functions():
    """Endpoint values, the Legendre relation, and Bessel-ratio
    monotonicity at the stated tolerances."""
    ok_end = (abs(elliptic_k(0.0) - math.pi / 2) <= 1e-12
              and abs(elliptic_e(0.0) - math.pi / 2) <= 1e-12
              and abs(elliptic_e(1.0) - 1.0) <= 1e-12)
    m = np.linspace(0.001, 0.999, 999)
    legendre = (elliptic_e(m) * elliptic_k(1 - m) + elliptic_e(1 - m) * elliptic_k(m)
                - elliptic_k(m) * elliptic_k(1 - m))
    ok_leg = float(np.max(np.abs(legendre - math.pi / 2))) <= 1e-9
    ratios = np.array([bessel_ratio_i1_i0(x) for x in np.linspace(0.0, 50.0, 1000)])
    ok_ratio = bool(np.all(np.diff(ratios) > 0))
    report("criterion 8 (special functions)", ok_end and ok_leg and ok_ratio,
           f"endpoints to 1e-12, Legendre max dev {np.max(np.abs(legendre - math.pi / 2)):.1e}, "
           "I1/I0 monotone on [0, 50]")
