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

Because the codes are fixed, the sampler works in the Gram domain.  With
C_t the (K*L, N) code matrix of period t, G_t = C_t C_t^T (formed once per
realization), and e_t, e_hat_t the true and believed signs repeated over
the L paths, the rows of period t in S_hat are (e_hat_t * C_t)^T, so

    R_hat            = sum_t (e_hat_t e_hat_t^T) o G_t,
    S_hat^T (dS a)   = sum_t e_hat_t o G_t ((e_t - e_hat_t) o a),
    S_hat^T n        = sum_t e_hat_t o (C_t n_t),

(o is the entrywise product).  Every chip is +-1/sqrt(N), so N G_t is an
integer matrix: it is formed exactly from the int8 chip signs and kept as
int16, and N R_hat is summed in int32, so R_hat carries no rounding.  The
first sum is evaluated as C_t (C_t^T w_t), which shares its product with C_t
with the noise term.  A trial then costs O(M (K*L)^2 + M N K*L) instead of
the O(M N (K*L)^2) of the stacked products; the stacked `decompose_error`
splits one trial per call as a check (`EstimationStats.split_gap`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg as sla

from ._workers import split_map
from .config import SystemConfig, derive_stream
from .exceptions import ParameterError, RankError
from .solvers import (SolveResult, _on_pairs, _real_matmul, cholesky_factor,
                      solve_normal_equations)
from . import system_model as sm


@dataclass
class StackedMatrix:
    """Stacked real code matrix (N*B, K*L) of the B periods it stacks."""

    matrix: np.ndarray
    n_blocks: int


def build_stacked_matrix(codes: np.ndarray, symbols: np.ndarray) -> StackedMatrix:
    """Stack per-period code matrices (B, K, L, N) with symbol signs applied.

    ``symbols`` is the (K, B) array of +-1 values actually believed by the
    estimator: true symbols, decision feedback, or a mix.  Every period
    handed in is stacked; a caller using only some periods passes those.
    Column ``i`` of the result belongs to user ``i // L``, path ``i % L``;
    with B periods stacked every column has norm sqrt(B).
    """
    m, k, l, n = codes.shape
    symbols = np.asarray(symbols)
    if symbols.shape != (k, m):
        raise ParameterError(f"symbols shape {symbols.shape}, expected {(k, m)}")
    # one pass from a transposed view, rows (period, chip) and columns (user,
    # path); the signs repeat over the L paths, and a +-1 product is exact
    dtype = np.result_type(codes, symbols)
    out = np.empty((m, n, k * l), dtype=dtype)
    np.multiply(codes.reshape(m, k * l, n).transpose(0, 2, 1),
                np.repeat(symbols.T.astype(dtype), l, axis=1)[:, None, :], out=out)
    return StackedMatrix(matrix=out.reshape(m * n, k * l), n_blocks=m)


@dataclass
class ChannelEstimate:
    """Least-squares gain estimate and the solver's report.

    ``solve_info.residual`` is ||R a_hat - y|| / ||y|| = ||S^T (r - S a_hat)|| / ||y||.
    """

    gains_flat: np.ndarray        # (K*L,) complex
    solve_info: SolveResult


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
    return ChannelEstimate(gains_flat=result.solution, solve_info=result)


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
    V_t of V = L^{-1} S^T, formed as one triangular product with the
    explicit inverse L^{-1}.  All periods share one final solve with G.
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
    # L^{-1} by trtri, then one triangular product: faster than a trsm here
    inverse, info = sla.lapack.dtrtri(factor[0], lower=1)
    if info != 0:
        raise RankError(f"Cholesky factor is singular (dtrtri info {info})")
    v = sla.blas.dtrmm(1.0, inverse, s.T, lower=1)
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
    trials_per_realization: int
    split_gap: float              # Gram-domain vs stacked split, largest relative gap


def _period_grams(signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Code matrices C_t (M, KL, N) and the integers N G_t = N C_t C_t^T as int16.

    N G_t comes from the +-1 chip signs (M, K, L, N): a float32 product of
    integers whose sums stay below 2^24 is exact.
    """
    m, k, l, n = signs.shape
    if n > np.iinfo(np.int16).max:
        raise ParameterError(f"spreading gain {n} leaves the int16 range of N G_t")
    sign_periods = signs.reshape(m, k * l, n).astype(np.float32)
    scaled_grams = (sign_periods @ sign_periods.transpose(0, 2, 1)).astype(np.int16)
    return sm.codes_from_signs(signs).reshape(m, k * l, n), scaled_grams


def _gram_domain_split(periods: np.ndarray, scaled_grams: np.ndarray,
                       gains_flat: np.ndarray, symbols: np.ndarray, feedback: np.ndarray,
                       noise: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """The (feedback, noise) parts of :func:`decompose_error` from per-period Grams.

    ``periods`` holds the (M, KL, N) code matrices C_t and ``scaled_grams``
    the integers N G_t, both from :func:`_period_grams`; ``noise`` is the
    (M, N) noise record.
    """
    n_paths = len(gains_flat) // symbols.shape[0]
    believed = np.repeat(feedback.T, n_paths, axis=1)                   # e_hat_t
    wrong = np.repeat(symbols.T - feedback.T, n_paths, axis=1) * gains_flat
    # G_t w_t = C_t (C_t^T w_t), so one product with C_t serves both parts
    chips = np.stack([_real_matmul(periods.transpose(0, 2, 1), wrong[..., None])[..., 0],
                      noise], axis=-1)
    per_period = _real_matmul(periods, chips)
    proj = np.einsum("ti,tic->ic", believed.astype(float), per_period)
    if mode == "exact":
        # N R_hat is an integer matrix: an int16 product per period, summed in int32
        signed = np.multiply(scaled_grams, believed[:, :, None] * believed[:, None, :],
                             dtype=np.int16)
        gram = signed.sum(axis=0, dtype=np.int32) / periods.shape[-1]
        parts = -solve_normal_equations(gram, proj).solution
    else:
        parts = -proj / len(believed)
    return parts[:, 0], parts[:, 1]


def _relative_gap(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(got - ref) / max(np.linalg.norm(ref), np.finfo(float).tiny))


def _estimation_realization(config: SystemConfig, error_rate: float, inner: int, mode: str,
                            experiment_id: str, r: int):
    """Realization ``r`` of :func:`empirical_estimation_stats`, over its ``inner`` trials.

    Returns its bias ratio, its three per-component traces and, for r = 0
    only, (sigma_f, sigma_n, gains, split_gap); ``None`` in their place for
    every other realization.
    """
    kl = config.n_gains
    rng_r = derive_stream(config.seed, f"{experiment_id}/realization", r)
    gains = sm.generate_channel(config, rng_r)
    periods, scaled_grams = _period_grams(sm.generate_code_signs(config, rng_r))
    a = gains.reshape(-1)

    fb_parts = np.empty((inner, kl), dtype=complex)
    nz_parts = np.empty((inner, kl), dtype=complex)
    for j in range(inner):
        rng = derive_stream(config.seed, f"{experiment_id}/trial/{r}", j)
        symbols = sm.generate_symbols(config, rng)
        feedback = sm.corrupt_feedback(symbols, error_rate, config.n_training, rng)
        noise = sm.generate_noise(config, rng)
        fb_parts[j], nz_parts[j] = _gram_domain_split(periods, scaled_grams, a, symbols,
                                                      feedback, noise, mode)
        if r == 0 and j == 0:
            # the stacked split of one trial checks the Gram algebra in every run
            codes = periods.reshape(config.coherence_time, config.n_users, config.n_paths, -1)
            dec = decompose_error(a, build_stacked_matrix(codes, symbols),
                                  build_stacked_matrix(codes, feedback),
                                  noise.reshape(-1), mode)
            split_gap = max(_relative_gap(fb_parts[0], dec.feedback_part),
                            _relative_gap(nz_parts[0], dec.noise_part))

    mean_f = fb_parts.mean(axis=0)
    centered_f = fb_parts - mean_f
    centered_n = nz_parts - nz_parts.mean(axis=0)
    # the sample covariance E{(x-mu)(x-mu)^H} is needed whole only at r = 0
    traces = [np.vdot(x, y).real / ((inner - 1) * kl) for x, y in
              ((centered_f, centered_f), (centered_n, centered_n), (centered_f, centered_n))]
    if r != 0:
        return np.mean(mean_f / a), traces, None
    sigma_f, sigma_n = (x.T @ x.conj() / (inner - 1) for x in (centered_f, centered_n))
    return np.mean(mean_f / a), traces, (sigma_f, sigma_n, a, split_gap)


def empirical_estimation_stats(config: SystemConfig,
                               error_rate: float,
                               trials: int,
                               mode: str = "exact",
                               realizations: int = 10,
                               experiment_id: str = "estimation-stats") -> EstimationStats:
    """Measure bias and covariance of the two error parts by Monte Carlo.

    ``trials`` is the total number of frames; they are spread evenly over
    ``realizations`` fixed (channel, codes) draws, so it must be a multiple
    of ``realizations``, with at least two frames per realization for the
    sample covariances.  The realizations are split over the worker
    processes (``itercdma._workers.split_map``); realization 0, whose stacked
    split checks the Gram algebra, is always computed in the calling process,
    and every statistic is the same bit for bit for any process count.
    """
    if realizations < 1:
        raise ParameterError(f"realizations must be at least 1, got {realizations}")
    if trials % realizations:
        raise ParameterError(
            f"trials ({trials}) must be a multiple of realizations ({realizations})")
    if trials < 2 * realizations:
        raise ParameterError("need at least two trials per realization")
    inner = trials // realizations
    bias_ratios, traces, firsts = zip(*split_map(
        partial(_estimation_realization, config, error_rate, inner, mode, experiment_id),
        range(realizations)))
    sigma_f0, sigma_n0, gains0, split_gap = firsts[0]

    tf, tn, tfn = np.array(traces).T
    return EstimationStats(
        mean_bias_ratio=complex(np.mean(bias_ratios)),
        delta_f=float(np.mean(tf)),
        delta_n=float(np.mean(tn)),
        # the sum's covariance is Sigma_f + Sigma_n + Sigma_fn + Sigma_fn^H
        delta_a=float(np.mean(tf + tn + 2 * tfn)),
        sigma_f=sigma_f0,
        sigma_n=sigma_n0,
        gains_flat=gains0,
        cross_norm=float(np.mean(np.abs(tfn) / np.maximum(np.sqrt(tf * tn), 1e-300))),
        trials_per_realization=inner,
        split_gap=split_gap,
    )
