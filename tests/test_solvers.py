import warnings

import numpy as np
import pytest

from itercdma import system_model as sm
from itercdma.config import SystemConfig, derive_stream
from itercdma.estimator import build_stacked_matrix
from itercdma.exceptions import ParameterError, RankError, SolverError
from itercdma.solvers import (INVERSE_LEAF, cholesky_factor, cholesky_solve,
                              solve_normal_equations)


def _random_gram(n_users, spreading_gain, coherence_time, seed, error_rate=0.1):
    cfg = SystemConfig(n_users=n_users, spreading_gain=spreading_gain,
                       n_paths=1, coherence_time=coherence_time, seed=seed)
    rng = derive_stream(seed, "solver-gram", 0)
    codes = sm.generate_codes(cfg, rng)
    symbols = sm.generate_symbols(cfg, rng)
    feedback = sm.corrupt_feedback(symbols, error_rate, cfg.n_training, rng)
    stacked = build_stacked_matrix(codes, feedback)
    rhs = rng.standard_normal(cfg.n_gains) + 1j * rng.standard_normal(cfg.n_gains)
    return stacked.matrix.T @ stacked.matrix, rhs


def test_diagonal_system_one_jacobi_step():
    m = 10.0
    gram = m * np.eye(6)
    rhs = np.arange(1.0, 7.0)
    res = solve_normal_equations(gram, rhs, method="jacobi", tol=1e-12)
    assert res.iterations == 1
    np.testing.assert_allclose(res.solution, rhs / m)


@pytest.mark.parametrize("method", ["jacobi", "gauss_seidel"])
def test_iterative_matches_direct(method):
    gram, rhs = _random_gram(25, 50, 10, seed=42)
    direct = solve_normal_equations(gram, rhs).solution
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)   # both prechecks pass
        res = solve_normal_equations(gram, rhs, method=method, tol=1e-12,
                                     max_iter=5000)
    np.testing.assert_allclose(res.solution, direct, rtol=0, atol=1e-8)
    assert res.spectral_radius is not None and res.spectral_radius < 1


def test_gauss_seidel_converges_under_full_load_direct_agreement():
    # load below one keeps the Gram positive definite
    for seed in range(5):
        gram, rhs = _random_gram(25, 50, 10, seed=seed)
        direct = solve_normal_equations(gram, rhs).solution
        gs = solve_normal_equations(gram, rhs, method="gauss_seidel",
                                    tol=1e-12, max_iter=5000).solution
        rel = np.linalg.norm(gs - direct) / np.linalg.norm(direct)
        assert rel < 1e-8


def test_jacobi_warning_when_condition_violated():
    # positive definite, but the top eigenvalue over the diagonal passes 2,
    # so the Jacobi precheck trips (and the iteration indeed runs away)
    gram = np.full((3, 3), 0.6) + 0.4 * np.eye(3)
    rhs = np.ones(3)
    with pytest.warns(RuntimeWarning, match="Jacobi convergence precondition"):
        with pytest.raises(SolverError):
            solve_normal_equations(gram, rhs, method="jacobi",
                                   tol=1e-10, max_iter=200)


def test_max_iter_exhaustion_raises_with_count():
    gram, rhs = _random_gram(25, 50, 10, seed=3)
    with pytest.raises(SolverError) as err:
        solve_normal_equations(gram, rhs, method="gauss_seidel",
                               tol=1e-14, max_iter=2)
    assert err.value.iterations == 2


def test_singular_gram_raises_rank_error():
    gram = np.ones((4, 4))
    with pytest.raises(RankError):
        solve_normal_equations(gram, np.ones(4))


def test_ill_conditioned_gram_raises_rank_error():
    gram = np.diag(np.array([1.0, 1e-13, 1.0, 1.0]))
    with pytest.raises(RankError):
        solve_normal_equations(gram, np.ones(4))


def _pd_gram(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3 * n, n))
    return a.T @ a, rng


@pytest.mark.parametrize("n", [1, 2, INVERSE_LEAF, INVERSE_LEAF + 1, 70, 150])
def test_cholesky_solve_matches_numpy_solve(n):
    gram, rng = _pd_gram(n, seed=n)
    real = rng.standard_normal((n, 2))
    cplx = real[:, 0] + 1j * rng.standard_normal(n)
    factor, _ = cholesky_factor(gram)
    for rhs in (real, real[:, 0], cplx, np.column_stack([cplx, 2j * cplx])):
        got = cholesky_solve(factor, rhs)
        ref = np.linalg.solve(gram, rhs)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    np.testing.assert_allclose(solve_normal_equations(gram, cplx).solution,
                               np.linalg.solve(gram, cplx), rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, INVERSE_LEAF + 1, 150])
def test_cholesky_factor_reports_exact_condition_and_lower_triangle(n):
    gram, _ = _pd_gram(n, seed=100 + n)
    factor, condition = cholesky_factor(gram)
    assert condition == pytest.approx(np.linalg.cond(gram, 1), rel=1e-9)
    lower = factor[0]
    assert np.array_equal(lower, np.tril(lower))
    np.testing.assert_allclose(lower @ lower.T, gram, rtol=0, atol=1e-12 * np.abs(gram).max())
    assert np.array_equal(factor.inverse_lower, np.tril(factor.inverse_lower))
    np.testing.assert_allclose(factor.inverse_lower @ lower, np.eye(n), rtol=0, atol=1e-12)


@pytest.mark.parametrize("gram, message", [
    (-np.eye(3), "not positive definite"),
    (np.diag([1.0, 1e-13, 1.0]), r"condition estimate 1.000e\+13"),
    (np.full((3, 3), np.nan), "condition estimate inf"),
    (np.diag([np.inf, 1.0, 1.0]), "condition estimate inf"),
    # the factor reads only the lower triangle, the norm all of it
    (np.eye(3) + np.triu(np.full((3, 3), np.nan), 1), "condition estimate inf"),
], ids=["negative", "ill-conditioned", "nan", "inf", "nan-above-diagonal"])
def test_cholesky_factor_guard(gram, message):
    with pytest.raises(RankError, match=message):
        cholesky_factor(gram)


def test_bad_arguments():
    with pytest.raises(ParameterError):
        solve_normal_equations(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ParameterError):
        solve_normal_equations(np.eye(3), np.ones(4))
    with pytest.raises(ParameterError):
        solve_normal_equations(np.eye(3), np.ones(3), method="sor")


def test_largest_eigenvalue_matches_equivalent_load_limit():
    # lam_max(R/M) approaches (1 + sqrt(KL/(MN)))^2 for big systems
    cfg = SystemConfig(n_users=100, spreading_gain=100, n_paths=1,
                       coherence_time=20, seed=8)
    rng = derive_stream(8, "eig", 0)
    tops = []
    for _ in range(5):
        codes = sm.generate_codes(cfg, rng)
        symbols = sm.generate_symbols(cfg, rng)
        stacked = build_stacked_matrix(codes, symbols)
        gram = stacked.matrix.T @ stacked.matrix
        tops.append(np.linalg.eigvalsh(gram)[-1] / cfg.coherence_time)
    expected = (1 + np.sqrt(cfg.stacked_load)) ** 2
    assert np.mean(tops) == pytest.approx(expected, rel=0.05)
