import numpy as np
import pytest

from itercdma import analysis
from itercdma.codec.gcurve import GCurve
from itercdma.config import noise_var_from_snr_db
from itercdma.exceptions import ParameterError

SNR5 = noise_var_from_snr_db(5.0)     # 10**-0.5


class TestEstimateVariances:
    def test_training_formula_value(self):
        # 10**-0.5 / (10 - 5*0.2) = 0.0351364
        value = analysis.training_estimate_variance(SNR5, 10, 5, 0.2)
        assert value == pytest.approx(SNR5 / 9.0)
        assert value == pytest.approx(0.0351364, abs=5e-7)

    def test_training_limits(self):
        assert analysis.training_estimate_variance(SNR5, 10, 5, 0.0) \
            == pytest.approx(SNR5 / 10)
        assert analysis.training_estimate_variance(0.0, 10, 5, 0.2) == 0.0
        with pytest.raises(ParameterError):
            analysis.training_estimate_variance(SNR5, 1, 5, 0.2)

    def test_feedback_formula_value(self):
        # 4*0.1*2/(5*30) + 10**-0.5/30 = 0.00533333 + 0.01054093
        value = analysis.feedback_estimate_variance(0.1, 0.2, 5, 30, SNR5)
        assert value == pytest.approx(0.00533333 + 0.01054093, abs=1e-7)

    def test_feedback_limits(self):
        assert analysis.feedback_estimate_variance(0.0, 0.2, 5, 30, SNR5) \
            == pytest.approx(SNR5 / 30)
        assert analysis.feedback_estimate_variance(0.1, 0.2, 5, 30, SNR5,
                                                   training_fraction=1.0) \
            == pytest.approx(SNR5 / 30)

    def test_blending_scales_error_rate(self):
        full = analysis.feedback_estimate_variance(0.1, 0.2, 5, 30, 0.0)
        half = analysis.feedback_estimate_variance(0.1, 0.2, 5, 30, 0.0,
                                                   training_fraction=0.5)
        assert half == pytest.approx(0.5 * full)


class TestCovarianceEntries:
    def test_three_branches(self):
        gains = np.array([1 + 1j, 2.0, 0.5j, 1 - 0.5j])   # 2 users x 2 paths
        pe, n = 0.1, 50
        diag = analysis.feedback_covariance_limit_entry(0, 0, gains, pe, n, 2)
        others = sum(abs(g) ** 2 for g in gains[1:])
        assert diag == pytest.approx(4 * pe * (2.0 + others / n))
        same = analysis.feedback_covariance_limit_entry(0, 1, gains, pe, n, 2)
        assert same == pytest.approx(4 * pe * 1.02 * gains[0]
                                     * np.conj(gains[1]))
        cross = analysis.feedback_covariance_limit_entry(0, 2, gains, pe, n, 2)
        assert cross == pytest.approx(4 * pe ** 2 * 1.02 * gains[0]
                                      * np.conj(gains[2]))

    def test_index_guard(self):
        with pytest.raises(ParameterError):
            analysis.feedback_covariance_limit_entry(0, 9, np.ones(4), 0.1, 8, 2)


class TestThresholdErrorRate:
    def test_formula_value(self):
        # 10**-0.5 * 5 / (4 * 0.2 * 2) = 0.988212 (feedback nearly always helps)
        value = analysis.max_useful_error_rate(SNR5, 5, 0.2, 0.2)
        assert value == pytest.approx(SNR5 * 5 / 1.6)
        assert value == pytest.approx(0.988212, abs=5e-7)

    def test_monotonicity(self):
        base = analysis.max_useful_error_rate(SNR5, 5, 0.2, 0.2)
        assert analysis.max_useful_error_rate(2 * SNR5, 5, 0.2, 0.2) > base
        assert analysis.max_useful_error_rate(SNR5, 10, 0.2, 0.2) > base
        assert analysis.max_useful_error_rate(SNR5, 5, 0.4, 0.2) < base
        assert analysis.max_useful_error_rate(SNR5, 5, 0.2, 0.4) < base

    def test_edge_cases(self):
        assert analysis.max_useful_error_rate(0.0, 5, 0.2, 0.2) == 0.0
        with pytest.raises(ParameterError):
            analysis.max_useful_error_rate(SNR5, 5, 0.0, 0.2)


class TestDetectorModel:
    def test_residual_variance_values(self):
        assert analysis.residual_interference_variance(0.0, 1.0, 5, 0.0, 0.3) \
            == 0.3
        assert analysis.residual_interference_variance(0.0159, 0.0, 5, 0.1, 0.3) \
            == pytest.approx(0.3 + 0.0)
        # beta*L*Da + 4*beta*(1-Pe)*Pe + noise at the worked numbers
        value = analysis.residual_interference_variance(0.015873, 1.0, 5,
                                                        0.1, 0.1)
        assert value == pytest.approx(0.079365 + 0.36 + 0.1, abs=1e-6)

    def test_pic_output_values(self):
        model = analysis.pic_output_model(0.0, 0.0, 5, 0.7)
        assert model.gain == 1.0 and model.variance == pytest.approx(0.7)
        assert analysis.pic_output_model(0.25, 0.0, 5, 0.7).gain == 0.5
        model = analysis.pic_output_model(0.1, 0.015873, 5, 0.539365)
        assert model.variance == pytest.approx((0.64 + 0.079365) * 0.539365,
                                               abs=1e-6)
        assert model.sinr == pytest.approx(0.64 / model.variance)

    @pytest.mark.parametrize("error_rate", [-0.1, 0.6, np.nan])
    def test_pic_output_error_rate_outside_range_rejected(self, error_rate):
        # the two closed forms used to return a number here (0.0473 and 0.478 at
        # Pe = 0.7) or NaN; every entry point applies the one range check
        for model in (lambda: analysis.pic_output_model(error_rate, 0.0, 5, 0.7),
                      lambda: analysis.feedback_estimate_variance(error_rate, 0.2, 5, 30, 0.3),
                      lambda: analysis.residual_interference_variance(0.01, 0.2, 5,
                                                                      error_rate, 0.3)):
            with pytest.raises(ParameterError,
                               match=rf"error_rate must lie in \[0, 0.5\], got {error_rate}"):
                model()


class TestMapCoefficients:
    def test_values_at_worked_point(self):
        co = analysis.map_coefficients(SNR5, 0.2, 5, 30)
        assert co.d0 == pytest.approx(SNR5 * (1 + 1 / 30 + 5 * SNR5 / 30))
        assert co.d0 == pytest.approx(0.3434352, abs=5e-7)
        d1_expected = 4 * (0.2 + (0.2 + SNR5 * 0.2 * 25 + 0.04 * 5
                                  + SNR5 * 5 + 5 * 0.2 * SNR5
                                  + 5 * SNR5 ** 2) / 30)
        assert co.d1 == pytest.approx(d1_expected)

    def test_long_block_limit(self):
        co = analysis.map_coefficients(SNR5, 0.2, 5, 10 ** 9)
        assert co.d0 == pytest.approx(SNR5, rel=1e-6)
        assert co.d1 == pytest.approx(4 * 0.2, rel=1e-6)

    def test_no_noise_no_floor(self):
        assert analysis.map_coefficients(0.0, 0.2, 5, 30).d0 == 0.0

    @pytest.mark.parametrize("noise_var, load", [
        (np.nan, 0.2), (np.inf, 0.2), (SNR5, np.nan), (SNR5, np.inf)])
    def test_non_finite_noise_or_load_rejected(self, noise_var, load):
        with pytest.raises(ParameterError, match="must be finite"):
            analysis.map_coefficients(noise_var, load, 5, 30)


def _linear_curve(slope, x_max=1.0, points=51):
    xs = np.linspace(0.0, x_max, points)
    return GCurve(xs=xs, pes=slope * xs)


class TestIterateMap:
    def test_flat_curve_reaches_zero_immediately(self):
        curve = GCurve(xs=np.array([0.0, 1.0]), pes=np.array([0.0, 0.0]))
        coeffs = analysis.MapCoefficients(d0=0.3, d1=1.0)
        report = analysis.iterate_map(curve, coeffs, start=0.2)
        assert report.converged
        assert report.fixed_point == 0.0
        assert report.trace[1] == 0.0

    def test_linear_curve_closed_form_fixed_point(self):
        # pe <- 0.3*(0.01 + pe) settles at 0.003/0.7
        curve = _linear_curve(0.3)
        coeffs = analysis.MapCoefficients(d0=0.01, d1=1.0)
        report = analysis.iterate_map(curve, coeffs, start=0.05)
        assert report.converged and report.banach_certified
        assert report.fixed_point == pytest.approx(0.003 / 0.7, abs=1e-10)
        assert report.contraction_modulus == pytest.approx(0.3)
        # geometric convergence at ratio 0.3
        errs = np.abs(report.trace - report.fixed_point)
        ratios = errs[1:6] / errs[:5]
        np.testing.assert_allclose(ratios, 0.3, atol=0.01)

    def test_banach_bound_holds_at_every_iterate(self):
        curve = _linear_curve(0.3)
        coeffs = analysis.MapCoefficients(d0=0.01, d1=1.0)
        report = analysis.iterate_map(curve, coeffs, start=0.05)
        errs = np.abs(report.trace - report.fixed_point)
        assert np.all(errs <= report.error_bounds + 1e-15)

    def test_leaving_domain_reports_divergence(self):
        curve = _linear_curve(0.3, x_max=0.5)
        coeffs = analysis.MapCoefficients(d0=0.4, d1=2.0)
        report = analysis.iterate_map(curve, coeffs, start=0.2)
        assert report.left_domain and not report.converged
        assert report.fixed_point is None

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_fewer_than_one_step_rejected(self, max_iter):
        # no step used to run, and the report read as a map that did not settle
        curve = _linear_curve(0.3)
        coeffs = analysis.MapCoefficients(d0=0.01, d1=1.0)
        with pytest.raises(ParameterError, match=f"max_iter must be at least 1, got {max_iter}"):
            analysis.iterate_map(curve, coeffs, start=0.05, max_iter=max_iter)


class TestConvergenceConditions:
    def test_both_conditions_at_worked_point(self):
        curve = _linear_curve(0.3)
        coeffs = analysis.MapCoefficients(d0=0.01, d1=1.0)
        check = analysis.check_convergence_conditions(curve, 0.1, coeffs)
        assert check.within_domain and check.decreasing
        assert check.decrease_margin == pytest.approx(0.09 - 0.03)

    def test_initial_point_outside_domain(self):
        curve = _linear_curve(0.3, x_max=0.5)
        coeffs = analysis.MapCoefficients(d0=0.01, d1=1.0)
        assert not analysis.check_convergence_conditions(curve, 0.7,
                                                         coeffs).within_domain

    def test_floor_above_initial_power_blocks_decrease(self):
        curve = _linear_curve(0.3)
        coeffs = analysis.MapCoefficients(d0=0.5, d1=1.0)
        assert not analysis.check_convergence_conditions(curve, 0.1,
                                                         coeffs).decreasing

    @pytest.mark.parametrize("coeffs", [analysis.map_coefficients(0.0, 0.0, 5, 10),
                                        analysis.MapCoefficients(d0=0.01, d1=-1.0)],
                             ids=["zero", "negative"])
    def test_d1_not_positive_rejected(self, coeffs):
        # no load and no noise give D1 = 0, which used to raise ZeroDivisionError;
        # a negative D1 used to flip the decrease inequality silently
        with pytest.raises(ParameterError, match=f"D1 must be positive, got {coeffs.d1}"):
            analysis.check_convergence_conditions(_linear_curve(0.3), 0.1, coeffs)


def _sigmoid_table():
    # piecewise-linear curve with slope 2 through (0.3, 0.1)
    xs = np.array([0.0, 0.1, 0.25, 0.35, 0.5, 1.0])
    pes = np.array([0.0, 0.0, 0.0, 0.2, 0.35, 0.4])
    return GCurve(xs=xs, pes=pes)


class TestUniqueness:
    def test_certificate_at_threshold(self):
        curve = _linear_curve(0.5)
        report = analysis.check_uniqueness(curve, d1=1.8, gamma=0.9)
        assert report.certified
        assert report.d1_limit == pytest.approx(1.8)

    def test_constructed_instance_has_multiple_fixed_points(self):
        curve = _sigmoid_table()
        assert curve.derivative(0.3) == pytest.approx(2.0)
        assert float(curve(0.3)) == pytest.approx(0.1)
        instance = analysis.construct_multiple_fixed_points(curve, 0.3, 1.0)
        assert instance is not None
        assert instance.d0 == pytest.approx(0.2)
        assert instance.sign_changes >= 2

    def test_anchor_window_empty_returns_none(self):
        curve = _linear_curve(0.3)          # 1/g' = 3.33 > x/g = 3.33 always
        assert analysis.construct_multiple_fixed_points(curve, 0.5, 1.0) is None

    def test_steep_curve_fails_certificate_and_yields_counterexample(self):
        curve = _sigmoid_table()
        report = analysis.check_uniqueness(curve, d1=1.0, gamma=0.99)
        assert not report.certified
        assert report.counterexample is not None
        assert report.counterexample.sign_changes >= 2

    def test_gamma_must_be_contraction(self):
        with pytest.raises(ParameterError):
            analysis.check_uniqueness(_linear_curve(0.3), d1=1.0, gamma=1.5)


def test_displaced_map_monotone_on_domain(conv_gcurve):
    # the one-step map D0 + D1*g(x) inherits monotonicity from the curve
    coeffs = analysis.map_coefficients(0.3162, 0.5, 5, 20)
    xs = np.linspace(0.0, conv_gcurve.sigma_I_max, 2000)
    h = coeffs.d0 + coeffs.d1 * conv_gcurve(xs)
    assert np.all(np.diff(h) >= -1e-15)


class TestEfficiency:
    def test_worked_value(self):
        assert analysis.asymptotic_efficiency(5, 0.2, 10) \
            == pytest.approx(1 / 1.1)

    def test_long_block_limit(self):
        assert analysis.asymptotic_efficiency(5, 0.2, 10 ** 9) \
            == pytest.approx(1.0)

    def test_identity_with_map_slope(self):
        for l, beta, m in [(5, 0.2, 10), (1, 1.0, 20), (20, 0.5, 50),
                           (3, 0.7, 15)]:
            direct = analysis.asymptotic_efficiency(l, beta, m)
            via_map = analysis.asymptotic_efficiency_from_map(l, beta, m)
            assert abs(direct - via_map) < 1e-6


class TestBisection:
    def test_threshold_recovered(self):
        calls = []

        def feasible(load):
            calls.append(load)
            return load <= 0.62

        best = analysis.bisect_max_load(feasible)
        assert best == pytest.approx(0.60)
        assert len(calls) < 12

    def test_infeasible_everywhere_returns_zero(self):
        calls = []

        def feasible(load):
            calls.append(load)
            return False

        best = analysis.bisect_max_load(feasible)
        assert best == 0.0
        assert len(calls) == 1

    def test_feasible_everywhere_returns_top(self):
        best = analysis.bisect_max_load(lambda b: True)
        assert best == pytest.approx(2.0)
