"""Matched filtering, LMMSE detection, and hard-feedback PIC with MRC.

The PIC stage rebuilds every interferer's chip contribution from the
current channel estimate and the fed-back symbol decisions, subtracts it
from the received chips, and matched-filters the cleaned signal onto the
desired user's codes.  Maximal-ratio combining across that user's paths
then gives one complex decision statistic per user and period.  Own-path
crosstalk (a user's paths leaking into each other) is deliberately not
cancelled: it vanishes with the spreading gain and keeping it in the signal
keeps the simulator faithful; the analytic output model simply omits it.

With the true gains and symbols the per-path residual

    I_{kl} = cleaned_{kl} - a_{kl} b_k - (own-path crosstalk)

is recorded; its second moment is the residual-interference variance the
closed-form model predicts as ``beta*L*Delta_a + 4*beta*(1-Pe)*Pe +
noise_var``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._workers import split_map
from .config import SystemConfig, derive_stream
from .estimator import build_stacked_matrix, leave_one_out_estimates_fast
from .exceptions import ParameterError
from .solvers import _real_matmul
from . import system_model as sm


_erfc = np.vectorize(math.erfc, otypes=[float])


def qfunc(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * _erfc(np.asarray(x) / np.sqrt(2.0))


def matched_filter_frame(chips: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Matched-filter a whole frame at once: (M, N) x (M, K, L, N) -> (M, K, L)."""
    m, k, l, n = codes.shape
    return _real_matmul(codes.reshape(m, k * l, n), chips[..., None]).reshape(m, k, l)


def lmmse_detect_frame(chips: np.ndarray, codes: np.ndarray,
                       gains: np.ndarray, noise_var: float):
    """Linear MMSE detection over the periods of one frame, batched.

    Treats ``gains`` (K, L) as the true channel: each user's effective
    signature per period is h_k = sum_l gains[k,l] s_kl and its filter is
    w_k = (H H^H + noise_var I)^{-1} h_k, which combines the L paths in one
    step.  A singular covariance (noiseless, overloaded) falls back to a
    tiny diagonal ridge with a warning.  Returns (soft, bias), each (M, K),
    with E{soft_k | b_k} = bias_k * b_k under the model.
    """
    n = codes.shape[-1]
    # rows[m, k] = h_k of period m; the (M, N, K) signature matrices are its transpose
    rows = _real_matmul(codes.transpose(0, 1, 3, 2), gains[..., None])[..., 0]
    signatures = rows.transpose(0, 2, 1)
    cov = signatures @ signatures.conj().transpose(0, 2, 1)
    cov[:, np.arange(n), np.arange(n)] += noise_var
    try:
        flt = np.linalg.solve(cov, signatures)
    except np.linalg.LinAlgError:
        warnings.warn("LMMSE covariance singular; adding 1e-12 ridge",
                      RuntimeWarning, stacklevel=2)
        cov[:, np.arange(n), np.arange(n)] += 1e-12
        flt = np.linalg.solve(cov, signatures)
    soft = (chips[:, None, :] @ flt.conj())[:, 0]
    bias = (rows.conj()[:, :, None, :] @ flt.transpose(0, 2, 1)[..., None])[..., 0, 0].real
    return soft, bias


def lmmse_llrs(soft: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Channel LLRs for LMMSE outputs under the modeled statistics.

    Under the MMSE model z_k = bias_k b_k + noise with complex noise
    variance bias_k (1 - bias_k), the real-part LLR is 4 Re(z)/(1-bias).
    """
    return 4.0 * soft.real / np.clip(1.0 - bias, 1e-9, None)


@dataclass
class PicFrameDetection:
    """PIC + MRC outputs for all periods of one frame (leading axis M)."""

    combined: np.ndarray          # (M, K) complex MRC statistics
    residual: np.ndarray          # (M, K, L) cross-user residual + noise
    self_crosstalk: np.ndarray    # (M, K, L) own-path leakage


def pic_mrc_frame(chips: np.ndarray, codes: np.ndarray, est_gains: np.ndarray,
                  feedback: np.ndarray, true_gains: np.ndarray,
                  true_symbols: np.ndarray) -> PicFrameDetection:
    """Cancel all other users' reconstructed signals, then MRC per user.

    ``chips`` is the (M, N) received frame; ``est_gains`` is (K, L) or
    per-period (M, K, L); ``true_gains`` is (K, L);
    ``feedback``/``true_symbols`` are (K, M).  Every user's reconstruction
    (estimated gain times fed-back symbol, exactly; no partial weighting)
    leaves the chips, one matched filter projects what is left, and each
    user's own reconstructed paths are added back.  The true gains and
    symbols give the per-path residual and the (uncancelled) own-path
    crosstalk for truth-assisted statistics; the identity

        combined_k = sum_l est*_{kl} (a_kl b_k + crosstalk_kl + residual_kl)

    holds to machine precision in every period.
    """
    m, k, l, n = codes.shape
    est = np.broadcast_to(est_gains, (m, k, l)) if est_gains.ndim == 2 else est_gains
    fb = feedback.T.astype(np.float64)                                # (M, K)
    amp = est * fb[:, :, None]
    recon = _real_matmul(codes.reshape(m, k * l, n).transpose(0, 2, 1),
                         amp.reshape(m, k * l, 1))[..., 0]            # (M, N)
    own_gram = codes @ codes.transpose(0, 1, 3, 2)                    # (M, K, L, L)
    own_proj = _real_matmul(own_gram, amp[..., None])[..., 0]
    cleaned = matched_filter_frame(chips - recon, codes) + own_proj
    combined = np.sum(est.conj() * cleaned, axis=2)
    sym = true_symbols.T.astype(np.float64)                           # (M, K)
    own_true = _real_matmul(own_gram, true_gains[..., None])[..., 0]
    crosstalk = sym[:, :, None] * (own_true - true_gains)
    residual = cleaned - true_gains * sym[:, :, None] - crosstalk
    return PicFrameDetection(combined=combined, residual=residual,
                             self_crosstalk=crosstalk)


@dataclass
class DetectorStats:
    """Aggregated PIC statistics over many frames.

    ``ser_gauss`` applies the Gaussian model at the finest conditioning the
    simulation knows (per channel realization and user, with empirically
    matched moments), then averages exactly as the simulated error rate
    does -- so the gap between the two isolates non-Gaussianity of the PIC
    output rather than analytic parameter error.
    """

    interference_power: float     # E|I_kl|^2 over paths, periods, frames
    gain: float                   # mean Re(z b) / ||a_k||^2
    mrc_noise_power: float        # E|z b - sum_l est* a|^2
    output_variance: float        # var of Re(z b) pooled over groups
    ser_sim: float
    ser_gauss: float
    skewness: float               # of per-group standardized Re(z b)
    excess_kurtosis: float
    n_decisions: int
    n_residual_samples: int


def _pic_frame(config: SystemConfig, error_rate: float, experiment_id: str,
               item: tuple[int, int]):
    """Frame ``f`` of realization ``r`` of :func:`measure_pic_stats`, ``item = (r, f)``.

    Returns Re(z b) and the symbols, both (M, K), the squared MRC noise and
    residuals, the symbol error count and the realization's user powers.
    """
    r, f = item
    gains = sm.generate_channel(
        config, derive_stream(config.seed, f"{experiment_id}/realization", r))
    rng = derive_stream(config.seed, f"{experiment_id}/frame/{r}", f)
    codes = sm.generate_codes(config, rng)
    symbols = sm.generate_symbols(config, rng)
    feedback = sm.corrupt_feedback(symbols, error_rate, config.n_training, rng)
    chips, _ = sm.synthesize_received(gains, codes, symbols, config, rng)
    est = leave_one_out_estimates_fast(build_stacked_matrix(codes, feedback),
                                       chips).reshape(-1, *gains.shape)
    det = pic_mrc_frame(chips, codes, est, feedback, true_gains=gains, true_symbols=symbols)
    signal = np.sum(est.conj() * gains, axis=-1)               # (M, K)
    b = symbols.T.astype(np.float64)                          # (M, K)
    return ((det.combined * b).real, symbols.T, np.abs(det.combined * b - signal) ** 2,
            np.abs(det.residual) ** 2,
            int(np.sum((det.combined.real >= 0) != (symbols.T > 0))),
            np.sum(np.abs(gains) ** 2, axis=1))


def measure_pic_stats(config: SystemConfig,
                      error_rate: float,
                      frames: int,
                      realizations: int = 5,
                      channel_knowledge: str = "leave_one_out",
                      experiment_id: str = "pic-stats") -> DetectorStats:
    """Run PIC+MRC over many frames and collect output statistics.

    Per realization the channel is held fixed (statistics are conditional
    on it); codes, symbols, feedback and noise are redrawn each frame.
    ``frames`` are spread evenly over the realizations, so it must be a
    multiple of ``realizations``.  The (realization, frame) pairs are split
    over the worker processes (``itercdma._workers.split_map``), each part
    drawing its realizations' channels again from their streams, and every
    statistic is the same bit for bit for any process count.

    The canceller at period t uses the least-squares estimate refitted
    without period t.  This is the no-information-reuse receiver that the
    closed-form residual expressions describe: an estimate that also saw
    the detected period couples estimation and feedback errors and shrinks
    the residuals.  ``channel_knowledge`` names that source and takes no
    other value.
    """
    if channel_knowledge != "leave_one_out":
        raise ParameterError(f"unknown channel_knowledge {channel_knowledge!r}")
    if realizations < 1:
        raise ParameterError(f"realizations must be at least 1, got {realizations}")
    if frames % realizations:
        raise ParameterError(
            f"frames ({frames}) must be a multiple of realizations ({realizations})")
    if frames < realizations:
        raise ParameterError("need at least one frame per realization")
    per_real = frames // realizations
    kk, m = config.n_users, config.coherence_time

    zb, bsign, noise_sq, resid_sq, errors, power = zip(*split_map(
        partial(_pic_frame, config, error_rate, experiment_id),
        [(r, f) for r in range(realizations) for f in range(per_real)]))
    zb = np.reshape(zb, (realizations, per_real * m, kk))              # Re(z b) samples
    bsign = np.reshape(bsign, zb.shape)
    user_power = np.array(power[::per_real])
    errors, decisions = sum(errors), kk * m * frames
    resid_sq = np.concatenate(resid_sq, axis=None)
    noise_sq = np.concatenate(noise_sq, axis=None)

    # Per-(realization, user) groups share one channel draw.  The moment
    # test looks at the modeled noise z - gain*b (not the derotated z*b,
    # whose conditioning on the symbol leaks code-correlation skew).
    group_mean = zb.mean(axis=1)                                      # (R, K)
    group_var = zb.var(axis=1, ddof=1)
    standardized = (zb - group_mean[:, None, :]) / np.sqrt(group_var)[:, None, :]
    flat = (standardized * bsign).reshape(-1)
    skew = float(np.mean(flat ** 3))
    kurt = float(np.mean(flat ** 4) - 3.0)

    ser_gauss = float(np.mean(qfunc(group_mean / np.sqrt(group_var))))
    return DetectorStats(
        interference_power=float(resid_sq.mean()),
        gain=float(np.mean(group_mean / user_power)),
        mrc_noise_power=float(noise_sq.mean()),
        output_variance=float(group_var.mean()),
        ser_sim=errors / decisions,
        ser_gauss=ser_gauss,
        skewness=skew,
        excess_kurtosis=kurt,
        n_decisions=decisions,
        n_residual_samples=int(resid_sq.size),
    )
