"""Stacked least-squares channel estimation and its error anatomy.

For the periods in use, the per-period code matrices (with symbol signs
absorbed) are stacked into one tall real matrix S of shape (N*B, K*L); the
estimate solves the normal equations R a = y with R = S^T S and y = S^T r.
Feeding decision feedback instead of true symbols gives the matrix S_hat;
the estimation error then splits exactly as

    a - a_hat = -R_hat^{-1} S_hat^T (dS a) - R_hat^{-1} S_hat^T n,

a feedback-induced part plus a noise-induced part (dS = S - S_hat).  For
long blocks and small feedback error rates, R_hat^{-1} is close to I/M,
which gives the cheaper approximate decomposition used by the closed-form
covariance expressions.

`empirical_estimation_stats` measures these parts by Monte Carlo.  All
statistics are conditional on the channel/code realization (only symbols,
feedback errors and noise are random), so the sampler fixes (gains, codes)
per outer realization and averages the per-realization statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .config import SystemConfig, derive_stream
from .exceptions import ParameterError, RankError
from .solvers import (SolveResult, _on_pairs, _real_matmul, cholesky_factor,
                      solve_normal_equations)
from . import system_model as sm


@dataclass
class StackedMatrix:
    """Stacked real code matrix (N*B, K*L) and the periods it stacks."""

    matrix: np.ndarray
    blocks: np.ndarray            # symbol periods that were stacked

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def build_stacked_matrix(codes: np.ndarray,
                         symbols: np.ndarray,
                         blocks=None) -> StackedMatrix:
    """Stack per-period code matrices (M, K, L, N) with symbol signs applied.

    ``symbols`` is the (K, M) array of +-1 values actually believed by the
    estimator: true symbols, decision feedback, or a mix.  Column ``i`` of
    the result belongs to user ``i // L``, path ``i % L``; with all M
    periods stacked every column has norm sqrt(M).
    """
    m, k, l, n = codes.shape
    symbols = np.asarray(symbols)
    if symbols.shape != (k, m):
        raise ParameterError(f"symbols shape {symbols.shape}, expected {(k, m)}")
    if blocks is None:
        blocks = np.arange(m)
    else:
        blocks = np.asarray(blocks, dtype=int)
        if blocks.size == 0:
            raise ParameterError("block subset must be nonempty")
    signed = codes[blocks] * symbols.T[blocks, :, None, None]
    mat = signed.reshape(len(blocks), k * l, n).transpose(0, 2, 1)
    return StackedMatrix(matrix=np.ascontiguousarray(mat.reshape(len(blocks) * n, k * l)),
                         blocks=blocks)


@dataclass
class ChannelEstimate:
    """Least-squares gain estimate, its Gram matrix and the solver's report.

    ``solve_info.residual`` is ||R a_hat - y|| / ||y|| = ||S^T (r - S a_hat)|| / ||y||.
    """

    gains_flat: np.ndarray        # (K*L,) complex
    gram: np.ndarray              # R = S^T S, real (K*L, K*L)
    solve_info: SolveResult

    def gains_matrix(self, n_paths: int) -> np.ndarray:
        return self.gains_flat.reshape(-1, n_paths)


def ml_estimate(stacked: StackedMatrix, received_vec: np.ndarray) -> ChannelEstimate:
    """Least-squares channel estimate by the guarded direct (Cholesky) solve."""
    s = stacked.matrix
    if received_vec.shape[0] != s.shape[0]:
        raise ParameterError(
            f"received vector length {received_vec.shape[0]} != stacked rows {s.shape[0]}")
    if s.shape[0] < s.shape[1]:
        raise RankError(
            f"underdetermined system: {s.shape[0]} equations for {s.shape[1]} unknowns")
    gram = s.T @ s
    proj = _real_matmul(s.T, received_vec)
    result = solve_normal_equations(gram, proj)
    return ChannelEstimate(gains_flat=result.solution, gram=gram, solve_info=result)


@dataclass
class ErrorDecomposition:
    """Split of a - a_hat into feedback- and noise-induced parts."""

    total: np.ndarray
    feedback_part: np.ndarray
    noise_part: np.ndarray
    mode: str                     # "exact" | "approx_im"


def decompose_error(gains_flat: np.ndarray,
                    stacked_truth: StackedMatrix,
                    stacked_feedback: StackedMatrix,
                    noise_vec: np.ndarray,
                    mode: str = "exact") -> ErrorDecomposition:
    """Simulation-side split of the estimation error.

    ``exact`` applies the feedback Gram inverse; ``approx_im`` replaces it
    with I/M, which is the regime in which the closed-form covariances hold.
    In exact mode the parts sum to a - a_hat identically.
    """
    if mode not in ("exact", "approx_im"):
        raise ParameterError(f"unknown decomposition mode {mode!r}")
    s_hat = stacked_feedback.matrix
    delta_chips = _real_matmul(stacked_truth.matrix - s_hat, gains_flat)
    proj = _real_matmul(s_hat.T, np.column_stack([delta_chips, noise_vec]))
    if mode == "exact":
        parts = -solve_normal_equations(s_hat.T @ s_hat, proj).solution
    else:
        parts = -proj / stacked_feedback.n_blocks
    fb, nz = parts[:, 0], parts[:, 1]
    return ErrorDecomposition(total=fb + nz, feedback_part=fb, noise_part=nz, mode=mode)


def leave_one_out_estimates_fast(stacked: StackedMatrix,
                                 chips: np.ndarray) -> np.ndarray:
    """All M leave-one-out estimates from one factorization.

    Row ``t`` leaves out period ``t``, as the no-information-reuse rule for a
    detector at period ``t`` requires.  Downdates the all-periods normal
    equations by each period's rows via the matrix inversion lemma;
    identical (to rounding) to refitting with the period removed, but one
    Cholesky factorization serves all periods.
    ``chips`` is the (M, N) received array matching the stacked matrix.
    Raises :class:`RankError` under the same guard as :func:`ml_estimate`.

    With G = S^T S = L L^T, y = S^T r and S_t, r_t the rows and chips of
    period t, the estimate without period t is

        G^{-1} (y - S_t^T (r_t - c_t)),  (I - H_t) c_t = S_t G^{-1} y - H_t r_t,

    where H_t = S_t G^{-1} S_t^T = V_t^T V_t comes from the column block
    V_t of one triangular solve V = L^{-1} S^T.  All periods share one
    final solve with G.
    """
    m, n = chips.shape
    s = stacked.matrix
    if s.shape[0] != m * n:
        raise ParameterError("stacked matrix does not cover all periods")
    kl = s.shape[1]
    factor, _ = cholesky_factor(s.T @ s)

    def gram_solve(rhs):
        return _on_pairs(lambda pairs: sla.cho_solve(factor, pairs, check_finite=False),
                         rhs)

    periods = s.reshape(m, n, kl)                                    # S_t
    proj_all = _real_matmul(s.T, chips.reshape(-1))                  # y
    base = gram_solve(proj_all)
    v = sla.solve_triangular(factor[0], s.T, lower=True, check_finite=False)
    v = v.reshape(kl, m, n).transpose(1, 0, 2)                       # V_t, (M, KL, N)
    h = v.transpose(0, 2, 1) @ v                                     # H_t, (M, N, N)
    rhs = _real_matmul(periods, base) - _real_matmul(h, chips[..., None])[..., 0]
    c = _on_pairs(lambda pairs: np.linalg.solve(np.eye(n) - h, pairs), rhs[..., None])
    kept = proj_all - _real_matmul(periods.transpose(0, 2, 1), chips[..., None] - c)[..., 0]
    return gram_solve(kept.T).T


@dataclass
class EstimationStats:
    """Monte Carlo statistics of the estimation-error decomposition.

    Variances are (1/KL) * trace of the per-realization sample covariances
    (bias removed), averaged over realizations.  ``sigma_f``/``sigma_n`` and
    ``gains_flat`` belong to the first realization so entrywise comparisons
    against the covariance formulas see a single fixed channel.
    """

    mean_bias_ratio: complex      # avg over components of E{da_f,i} / a_i
    delta_f: float
    delta_n: float
    delta_a: float
    sigma_f: np.ndarray
    sigma_n: np.ndarray
    gains_flat: np.ndarray
    cross_norm: float             # normalized |cross-cov(da_f, da_n)| trace
    realizations: int
    trials_per_realization: int


def _complex_cov(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and sample covariance E{(x-mu)(x-mu)^H} of row samples."""
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered.conj() / (samples.shape[0] - 1)
    return mean, cov


def empirical_estimation_stats(config: SystemConfig,
                               error_rate: float,
                               trials: int,
                               mode: str = "exact",
                               realizations: int = 10,
                               experiment_id: str = "estimation-stats") -> EstimationStats:
    """Measure bias and covariance of the two error parts by Monte Carlo.

    ``trials`` is the total number of frames; they are spread over
    ``realizations`` fixed (channel, codes) draws.  Needs at least two
    frames per realization for the sample covariances.
    """
    if trials < 2 * realizations:
        raise ParameterError("need at least two trials per realization")
    inner = trials // realizations
    kl = config.n_gains

    bias_ratios = []
    d_f = []
    d_n = []
    d_a = []
    cross = []
    sigma_f0 = sigma_n0 = gains0 = None

    for r in range(realizations):
        rng_r = derive_stream(config.seed, f"{experiment_id}/realization", r)
        channel = sm.generate_channel(config, rng_r)
        codes = sm.generate_codes(config, rng_r)
        a = channel.vector

        fb_parts = np.empty((inner, kl), dtype=complex)
        nz_parts = np.empty((inner, kl), dtype=complex)
        for j in range(inner):
            rng = derive_stream(config.seed, f"{experiment_id}/trial/{r}", j)
            symbols = sm.generate_symbols(config, rng)
            feedback = sm.corrupt_feedback(symbols, error_rate, rng)
            received = sm.synthesize_received(channel, codes, symbols, config, rng)
            s_true = build_stacked_matrix(codes, symbols.symbols)
            s_fb = build_stacked_matrix(codes, feedback.decisions)
            dec = decompose_error(a, s_true, s_fb, received.noise.reshape(-1), mode=mode)
            fb_parts[j] = dec.feedback_part
            nz_parts[j] = dec.noise_part

        mean_f, cov_f = _complex_cov(fb_parts)
        mean_n, cov_n = _complex_cov(nz_parts)
        centered_f = fb_parts - mean_f
        centered_n = nz_parts - mean_n
        cov_fn = centered_f.T @ centered_n.conj() / (inner - 1)

        bias_ratios.append(np.mean(mean_f / a))
        tf = cov_f.trace().real / kl
        tn = cov_n.trace().real / kl
        d_f.append(tf)
        d_n.append(tn)
        total = fb_parts + nz_parts
        _, cov_a = _complex_cov(total)
        d_a.append(cov_a.trace().real / kl)
        cross.append(abs(cov_fn.trace().real / kl) / max(np.sqrt(tf * tn), 1e-300))
        if r == 0:
            sigma_f0, sigma_n0, gains0 = cov_f, cov_n, a.copy()

    return EstimationStats(
        mean_bias_ratio=complex(np.mean(bias_ratios)),
        delta_f=float(np.mean(d_f)),
        delta_n=float(np.mean(d_n)),
        delta_a=float(np.mean(d_a)),
        sigma_f=sigma_f0,
        sigma_n=sigma_n0,
        gains_flat=gains0,
        cross_norm=float(np.mean(cross)),
        realizations=realizations,
        trials_per_realization=inner,
    )
