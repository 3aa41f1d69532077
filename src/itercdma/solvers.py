"""Direct and classical iterative solvers for the normal equations R x = y.

R is the real symmetric Gram matrix of the stacked code matrix; y may be
complex (real codes, complex received samples).  The direct path is one
primitive, :func:`inverse_gram`: a Cholesky check and condition guard on
numpy alone that hands out R^{-1} = L^{-T} L^{-1}, with L^{-1} formed by a
block recursion on matrix products (numpy has no triangular solve), so that
every direct solve is one product with R^{-1}.  Jacobi and Gauss-Seidel
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

from .exceptions import ParameterError, RankError, SolverError

CONDITION_LIMIT = 1e12
INVERSE_LEAF = 32   # blocks up to this order are inverted by LAPACK directly


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


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix with a nonzero diagonal.

    With L = [[A, 0], [B, C]], L^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]]:
    the halves recurse and the corner block is two matrix products, so nearly
    all the work runs as BLAS matrix products.  Blocks up to
    ``INVERSE_LEAF`` are inverted by ``np.linalg.inv``, whose roundoff above
    the diagonal is dropped at the end.
    """
    inverse = np.zeros_like(lower, dtype=float)
    _invert_into(lower, inverse)
    return np.tril(inverse)


def _invert_into(lower: np.ndarray, out: np.ndarray) -> None:
    n = lower.shape[0]
    if n <= INVERSE_LEAF:
        out[...] = np.linalg.inv(lower)
        return
    h = n // 2
    _invert_into(lower[:h, :h], out[:h, :h])
    _invert_into(lower[h:, h:], out[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ lower[h:, :h]) @ out[:h, :h]


def inverse_gram(gram: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse R^{-1} = L^{-T} L^{-1} of a Gram matrix R = L L^T and its 1-norm condition.

    The condition is exact, ||R||_1 ||R^{-1}||_1, never below LAPACK's
    ``dpocon`` estimate of it.  Raises :class:`RankError` when the matrix is
    not positive definite or its condition exceeds ``CONDITION_LIMIT``; a
    Gram holding NaN or inf has condition inf.  Every direct solve in the
    package goes through this one guard.
    """
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise RankError("Gram matrix is not positive definite") from exc
    lower_inv = _lower_inverse(lower)
    inverse = lower_inv.T @ lower_inv
    condition = float(np.linalg.norm(gram, 1) * np.linalg.norm(inverse, 1))
    if np.isnan(condition):
        condition = np.inf
    if condition > CONDITION_LIMIT:
        raise RankError(
            f"Gram matrix condition estimate {condition:.3e} exceeds {CONDITION_LIMIT:.0e}")
    return inverse, condition


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
    inverse, condition = inverse_gram(gram)
    x = _real_matmul(inverse, rhs)
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
        lower_inverse = _lower_inverse(np.tril(gram))   # (D + L)^{-1}, one product a sweep
    for it in range(1, max_iter + 1):
        if method == "jacobi":
            x = x + residual / diag
        else:
            x = x + _real_matmul(lower_inverse, residual)
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
