"""Direct and classical iterative solvers for the normal equations R x = y.

R is the real symmetric Gram matrix of the stacked code matrix; y may be
complex (real codes, complex received samples).  The direct path is a
Cholesky solve with a reciprocal-condition guard.  Jacobi and Gauss-Seidel
come with the textbook convergence prechecks: Gauss-Seidel needs R positive
definite, Jacobi needs both R and 2*diag(R) - R positive definite.  For the
estimation Gram matrix, diag(R) is M*I, so the Jacobi condition fails
exactly when the largest eigenvalue of R/M reaches 2 - that happens once
the equivalent stacked load passes (sqrt(2)-1)^2, and is reported as a
warning rather than an error because the iteration may still converge from
a good start.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .exceptions import ParameterError, RankError, SolverError

CONDITION_LIMIT = 1e12


@dataclass
class SolveResult:
    solution: np.ndarray
    iterations: int
    residual: float                      # ||R x - y|| / ||y||
    spectral_radius: float | None = None  # empirical contraction estimate
    condition: float | None = None


def _is_positive_definite(mat: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(mat)
        return True
    except np.linalg.LinAlgError:
        return False


def cholesky_factor(gram: np.ndarray) -> tuple[tuple, float]:
    """Lower Cholesky factor of a Gram matrix and its 1-norm condition estimate.

    The factor is in :func:`scipy.linalg.cho_factor` form, ready for
    :func:`scipy.linalg.cho_solve`.  Raises :class:`RankError` when the
    matrix is not positive definite or its condition estimate exceeds
    ``CONDITION_LIMIT``; every Cholesky solve in the package goes through
    this one guard.
    """
    try:
        factor = sla.cho_factor(gram, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise RankError(f"Gram matrix is not positive definite: {exc}") from exc
    anorm = np.linalg.norm(gram, 1)
    rcond, info = sla.lapack.dpocon(factor[0], anorm, uplo="L")
    condition = np.inf if (info != 0 or rcond == 0.0) else 1.0 / rcond
    if condition > CONDITION_LIMIT:
        raise RankError(
            f"Gram matrix condition estimate {condition:.3e} exceeds {CONDITION_LIMIT:.0e}")
    return factor, float(condition)


def _on_pairs(op, z: np.ndarray) -> np.ndarray:
    """``op(z)`` for a real linear map ``op`` and complex ``z``, as one real call.

    ``op`` acts on axis -2 of its argument (a product or solve from the
    left), so it maps the real and imaginary parts alike.  Viewing ``z`` as
    interleaved (re, im) columns hands both parts to ``op`` at once; numpy
    would otherwise promote the real operand to complex, copying it and
    running a complex product with twice the multiplications.  A 1-D ``z``
    is one column.
    """
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        return op(z)
    z = np.ascontiguousarray(z, dtype=complex)
    if z.ndim == 1:
        return _on_pairs(op, z[:, None])[..., 0]
    return np.ascontiguousarray(op(z.view(np.float64))).view(complex)


def _real_matmul(real: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``real @ z`` for a real array and a complex one, without promoting ``real``."""
    return _on_pairs(lambda pairs: real @ pairs, z)


def _direct_solve(gram: np.ndarray, rhs: np.ndarray) -> SolveResult:
    factor, condition = cholesky_factor(gram)
    x = _on_pairs(lambda pairs: sla.cho_solve(factor, pairs, check_finite=False), rhs)
    res = (np.linalg.norm(_real_matmul(gram, x) - rhs)
           / max(np.linalg.norm(rhs), np.finfo(float).tiny))
    return SolveResult(solution=x, iterations=0, residual=float(res), condition=condition)


def _iterative_solve(gram: np.ndarray, rhs: np.ndarray, method: str,
                     tol: float, max_iter: int) -> SolveResult:
    if rhs.ndim != 1:
        raise ParameterError("iterative methods take a single right-hand side")
    n = gram.shape[0]
    diag = np.diag(gram)
    if np.any(diag <= 0):
        raise RankError("Gram matrix has a nonpositive diagonal entry")

    if method == "jacobi" and not _is_positive_definite(2.0 * np.diag(diag) - gram):
        warnings.warn("Jacobi convergence precondition violated: 2*diag(R) - R is not "
                      "positive definite (largest eigenvalue of R over its diagonal "
                      "reaches 2); iterating anyway", RuntimeWarning, stacklevel=3)
    if not _is_positive_definite(gram):
        warnings.warn(f"{method} precondition violated: R is not positive definite",
                      RuntimeWarning, stacklevel=3)

    rhs_norm = max(np.linalg.norm(rhs), np.finfo(float).tiny)
    x = np.zeros(n, dtype=np.result_type(gram, rhs))
    residual = rhs - gram @ x
    res_norms = [np.linalg.norm(residual)]
    if method == "gauss_seidel":
        lower = np.tril(gram)
    for it in range(1, max_iter + 1):
        if method == "jacobi":
            x = x + residual / diag
        else:
            x = x + sla.solve_triangular(lower, residual, lower=True, check_finite=False)
        residual = rhs - gram @ x
        res_norms.append(np.linalg.norm(residual))
        if res_norms[-1] <= tol * rhs_norm:
            break
    else:
        raise SolverError(
            f"{method} did not reach tol={tol:g} within {max_iter} iterations "
            f"(relative residual {res_norms[-1] / rhs_norm:.3e})",
            iterations=max_iter)

    # Contraction factor from the last few residual ratios.
    tail = np.array(res_norms[-6:])
    ratios = tail[1:] / np.maximum(tail[:-1], np.finfo(float).tiny)
    rho = float(np.exp(np.mean(np.log(np.maximum(ratios, np.finfo(float).tiny)))))
    return SolveResult(solution=x, iterations=it, residual=float(res_norms[-1] / rhs_norm),
                       spectral_radius=rho)


def solve_normal_equations(gram: np.ndarray,
                           rhs: np.ndarray,
                           method: str = "direct",
                           tol: float = 1e-10,
                           max_iter: int = 1000) -> SolveResult:
    """Solve R x = y by the requested method with diagnostics.

    Raises :class:`RankError` for a singular or badly conditioned system
    (direct method) and :class:`SolverError` when the iteration budget runs
    out.  A failed convergence precheck of an iterative method is issued as a
    :class:`RuntimeWarning`.
    """
    gram = np.asarray(gram)
    rhs = np.asarray(rhs)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ParameterError(f"gram must be square, got shape {gram.shape}")
    if rhs.shape[0] != gram.shape[0]:
        raise ParameterError("rhs length does not match gram")
    if method == "direct":
        return _direct_solve(gram, rhs)
    if method in ("jacobi", "gauss_seidel"):
        return _iterative_solve(gram, rhs, method, tol, max_iter)
    raise ParameterError(f"unknown method {method!r}")
