import csv

import numpy as np
import pytest

from conftest import assert_same_fields
from itercdma import rmt
from itercdma import system_model as sm
from itercdma.config import SystemConfig, derive_stream
from itercdma.estimator import build_stacked_matrix
from itercdma.exceptions import ParameterError


class TestAnalyticMoments:
    def test_first_four_closed_forms(self):
        b = 0.2
        moments = rmt.mp_moments(b, 4)
        assert moments[0] == pytest.approx(b)
        assert moments[1] == pytest.approx(b * (1 + b))
        assert moments[2] == pytest.approx(b * (b ** 2 + 3 * b + 1))
        assert moments[3] == pytest.approx(b * (b ** 3 + 6 * b ** 2 + 6 * b + 1))

    def test_worked_values_at_point_two(self):
        assert rmt.mp_moments(0.2, 1)[-1] == pytest.approx(0.2)
        assert rmt.mp_moments(0.2, 2)[-1] == pytest.approx(0.24)
        assert rmt.mp_moments(0.2, 3)[-1] == pytest.approx(0.2 * (0.04 + 0.6 + 1))

    def test_recursion_matches_brute_force_compositions(self):
        # independent oracle: enumerate integer compositions directly
        def brute(load, order):
            table = {0: 1.0}

            def compositions(total):
                if total == 0:
                    yield ()
                for head in range(1, total + 1):
                    for tail in compositions(total - head):
                        yield (head,) + tail

            for m in range(1, order + 1):
                table[m] = load * sum(
                    np.prod([table[p - 1] for p in parts])
                    for parts in compositions(m))
            return table[order]

        for load in (0.1, 0.5, 1.0, 1.7):
            for order in range(1, 7):
                assert rmt.mp_moments(load, order)[-1] \
                    == pytest.approx(brute(load, order), rel=1e-12)

    def test_moments_increase_with_load(self):
        lo = rmt.mp_moments(0.2, 6)
        hi = rmt.mp_moments(0.4, 6)
        assert np.all(hi > lo)
        assert np.all(lo > 0)

    def test_cost_guard(self):
        with pytest.raises(ParameterError):
            rmt.mp_moments(0.2, 13)


class TestMomentBound:
    def test_holds_for_small_load(self):
        assert rmt.moment_bound_check(0.2, 1.5, 8).all()

    def test_worked_value_at_unit_load(self):
        # second moment at load 1 is 2, bound is 4
        assert rmt.mp_moments(1.0, 2)[-1] == pytest.approx(2.0)
        assert rmt.moment_bound_check(1.0, 2.0, 2).all()

    def test_boundary_constant_still_works_for_small_orders(self):
        assert rmt.moment_bound_check(0.2, 1.0 + 1e-6, 3).all()

    def test_constant_precondition(self):
        with pytest.raises(ParameterError):
            rmt.moment_bound_check(0.2, 1.0, 4)
        with pytest.raises(ParameterError):
            rmt.moment_bound_check(1.5, 1.2, 4)


class TestEmpiricalMoments:
    @pytest.fixture(scope="class")
    @staticmethod
    def report():
        cfg = SystemConfig(n_users=40, spreading_gain=100, n_paths=5,
                           coherence_time=10, seed=33)
        return rmt.empirical_eigen_moments(cfg, max_order=4, trials=50)

    def test_first_moment_is_stacked_load(self, report):
        # trace of the Gram equals the column count exactly, so the first
        # moment is beta' up to rounding
        assert report.empirical_independent[0] == pytest.approx(0.2, abs=1e-12)
        assert report.empirical_shifted[0] == pytest.approx(0.2, abs=1e-12)

    def test_both_models_match_analytic(self, report):
        for emp, se in ((report.empirical_independent, report.stderr_independent),
                        (report.empirical_shifted, report.stderr_shifted)):
            gaps = np.abs(emp - report.analytic)
            assert np.all(gaps < np.maximum(3 * se, 0.02 * report.analytic))

    def test_models_match_each_other(self, report):
        combined = np.hypot(report.stderr_independent, report.stderr_shifted)
        gaps = np.abs(report.empirical_independent - report.empirical_shifted)
        assert np.all(gaps < 3 * combined)

    def test_csv_export(self, report, tmp_path):
        path = tmp_path / "moments.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(report.table())
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["m", "analytic", "emp_indep", "emp_shifted",
                          "stderr_indep", "stderr_shifted", "bound"]
        assert [row[0] for row in rows] == ["1", "2", "3", "4"]
        values = np.array(rows, dtype=float)
        np.testing.assert_allclose(values[:, 1], report.analytic, rtol=1e-7)
        np.testing.assert_allclose(values[:, 2], report.empirical_independent, rtol=1e-7)
        np.testing.assert_allclose(values[:, 3], report.empirical_shifted, rtol=1e-7)
        np.testing.assert_allclose(values[:, 6], report.bounds, rtol=1e-7)


def test_shifted_model_gap_shrinks_with_user_count():
    # the shifted construction loses its windows' dependence as the user
    # count grows; track the gap to the analytic moments over a doubling
    # ladder and require an overall downward trend
    gaps = []
    for n_users in (10, 20, 40, 80):
        # hold the equivalent load at 0.5 while the system grows
        cfg = SystemConfig(n_users=n_users, spreading_gain=50, n_paths=5,
                           coherence_time=n_users // 5,
                           code_model="shifted", seed=44)
        report = rmt.empirical_eigen_moments(cfg, max_order=3, trials=60)
        rel = np.abs(report.empirical_shifted / report.analytic - 1.0)
        gaps.append(rel.mean())
    assert gaps[-1] < gaps[0]
    assert np.polyfit(np.log([10, 20, 40, 80]), gaps, 1)[0] < 0


@pytest.mark.parametrize("code_model", ["independent", "shifted"])
def test_trace_moments_match_eigenvalue_moments(code_model):
    cfg = SystemConfig(n_users=6, spreading_gain=16, n_paths=3, coherence_time=4,
                       code_model=code_model, seed=34)
    rng = derive_stream(34, "trace-moments", 0)
    codes = sm.generate_codes(cfg, rng)
    s = build_stacked_matrix(codes, sm.generate_symbols(cfg, rng)).matrix
    eigs = np.linalg.eigvalsh(s.T @ s / cfg.coherence_time)
    ref = np.array([np.sum(eigs ** m) for m in range(1, rmt.MAX_MOMENT_ORDER + 1)])
    ref /= cfg.coherence_time * cfg.spreading_gain
    for max_order in (1, 2, 5, rmt.MAX_MOMENT_ORDER):
        got = rmt._trial_moments(cfg, max_order, derive_stream(34, "trace-moments", 0))
        np.testing.assert_allclose(got, ref[:max_order], rtol=1e-10)


def test_same_inputs_give_identical_report():
    cfg = SystemConfig(n_users=10, spreading_gain=20, n_paths=2, coherence_time=4,
                       seed=35)

    def run(experiment_id):
        return rmt.empirical_eigen_moments(cfg, max_order=4, trials=5,
                                           experiment_id=experiment_id)

    first = run("repro")
    assert_same_fields(first, run("repro"))
    other = run("repro-other")
    assert not np.array_equal(other.empirical_independent, first.empirical_independent)
    assert not np.array_equal(other.empirical_shifted, first.empirical_shifted)


def test_stacked_gram_past_float32_exactness_rejected():
    # M*N = 2^24 would let the float32 integer Gram round; no trial runs
    cfg = SystemConfig(n_users=1, spreading_gain=4096, coherence_time=4096, seed=36)
    with pytest.raises(ParameterError, match="2\\^24"):
        rmt.empirical_eigen_moments(cfg, max_order=2, trials=2)
