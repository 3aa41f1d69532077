"""Full receiver loop: estimate, detect, decode, feed decisions back.

One trial transmits, per user, enough codewords that every coherence block
carries ``M - M_t`` coded symbols after its ``M_t`` pilots; a seeded
symbol interleaver inside the codec spreads each codeword over many blocks
so feedback decisions look independent across periods.  Iteration 0 runs
training-only estimation and LMMSE detection (or a genie, depending on
mode); every later iteration re-estimates the channel from the fed-back
symbols (pilot periods keep their known symbols), cancels interference
with those decisions, decodes, and re-encodes the fresh decisions.

Modes
-----
``iterative``      training init, then full decision-feedback iterations
``lmmse_only``     the initialization stage alone (non-iterative receiver)
``perfect_init``   genie channel for iteration 0 only
``perfect_csi``    genie channel everywhere (no estimation at all)

The trace records, per iteration, the realized feedback symbol error rate,
info-bit error rate, truth-assisted estimation MSE and residual
interference power, along with the scalar-map prediction seeded by the
realized iteration-0 error rate.  Everything is reproducible from
(config.seed, experiment_id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from . import system_model as sm
from .codec import ChannelCodec
from .codec.gcurve import GCurve
from .config import SystemConfig, derive_stream
from .detector import (lmmse_detect_frame, lmmse_llrs, matched_filter_frame,
                       pic_mrc_frame)
from .estimator import build_stacked_matrix, ml_estimate
from .exceptions import ConfigurationError, RankError

MODES = ("iterative", "lmmse_only", "perfect_init", "perfect_csi")


@dataclass
class IterationTrace:
    """Per-iteration receiver statistics averaged over trials."""

    mode: str
    config: SystemConfig
    feedback_error_rate: np.ndarray      # index 0 = initialization stage
    info_bit_error_rate: np.ndarray
    est_error_power: np.ndarray          # (1/KL) sum |a_hat - a|^2, NaN for genie
    residual_interference_power: np.ndarray
    predicted_error_rate: np.ndarray | None
    per_trial_feedback: np.ndarray       # (trials, iterations+1)
    n_trials: int

    @property
    def final_info_ber(self) -> float:
        return float(self.info_bit_error_rate[-1])


def codeword_packing(config: SystemConfig, codeword_length: int):
    """Blocks per trial and codewords per user filling them exactly.

    Returns (n_blocks, codewords_per_user) with
    n_blocks * (M - M_t) == codewords_per_user * codeword_length.
    """
    data_per_block = config.coherence_time - config.n_training
    if data_per_block < 1:
        raise ConfigurationError("every block is pure training; nothing to decode")
    copies = data_per_block // math.gcd(data_per_block, codeword_length)
    return copies * codeword_length // data_per_block, copies


def _pic_llrs(combined: np.ndarray, est_gains: np.ndarray, prev_pe: float,
              config: SystemConfig, genie_csi: bool = False) -> np.ndarray:
    """Scale MRC outputs (..., K) to LLRs using the scalar output model.

    Per-user decisions under the convolutional decoder are invariant to
    this (positive) scaling; it only calibrates the turbo decoder and the
    relative weighting of blocks within a codeword.
    """
    pe = min(max(prev_pe, 0.0), 0.49)
    l = config.n_paths
    delta_a = 0.0 if genie_csi else analysis.feedback_estimate_variance(
        pe, config.load, l, config.coherence_time, config.noise_var,
        config.training_fraction)
    sigma_i = analysis.residual_interference_variance(
        delta_a, config.load, l, pe, config.noise_var)
    power = np.sum(np.abs(est_gains) ** 2, axis=-1)
    gain = np.maximum(power - l * delta_a, 0.1 * power) / (1.0 - 2.0 * pe)
    return 4.0 * gain * combined.real / np.maximum(power * sigma_i, 1e-12)


@dataclass
class _Block:
    channel: np.ndarray        # (K, L)
    symbols: np.ndarray        # (K, M) truth, pilots first
    chips: np.ndarray          # (M, N)


def _block_draws(config, trial_tag, b):
    """Derive block b's stream and draw its channel, then its codes.

    Returns (rng, channel, codes); the stream goes on to the block's symbols
    and noise.  This is the one place that fixes the per-block draw order,
    so codes re-derived by :func:`_block_codes` match the synthesized ones.
    """
    rng = derive_stream(config.seed, f"{trial_tag}/block", b)
    channel = sm.generate_channel(config, rng)
    codes = sm.generate_codes(config, rng)
    return rng, channel, codes


def _draw_blocks(config, n_blocks, data_stream, trial_tag):
    """Generate all coherence blocks of one trial; codes are re-derivable."""
    m_t = config.n_training
    blocks = []
    for b in range(n_blocks):
        rng, channel, codes = _block_draws(config, trial_tag, b)
        symbols = sm.generate_symbols(config, rng)
        span = data_stream[:, b * (config.coherence_time - m_t):
                           (b + 1) * (config.coherence_time - m_t)]
        symbols.symbols[:, m_t:] = span
        received = sm.synthesize_received(channel, codes, symbols, config, rng)
        blocks.append(_Block(channel=channel.gains, symbols=symbols.symbols,
                             chips=received.chips))
    return blocks


def _block_codes(config, trial_tag, b):
    """Re-derive block b's spreading codes from its stream (not stored)."""
    return _block_draws(config, trial_tag, b)[2]


def run_iterative_receiver(config: SystemConfig,
                           codec: ChannelCodec,
                           g: GCurve | None = None,
                           iterations: int = 6,
                           trials: int = 1,
                           mode: str = "iterative",
                           experiment_id: str = "pipeline") -> IterationTrace:
    """Simulate the iterating receiver and record its trajectory.

    Raises :class:`RankError` if the channel estimation problem of any
    stage is underdetermined at this load (callers probing capacity treat
    that as an infeasible operating point).
    """
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}")
    if iterations < 1 and mode != "lmmse_only":
        raise ConfigurationError("iterations must be at least 1")
    if mode in ("iterative", "lmmse_only") and config.n_training < 1:
        raise ConfigurationError(f"mode {mode!r} needs at least one training period")
    n_iter = 0 if mode == "lmmse_only" else iterations
    n_blocks, copies = codeword_packing(config, codec.codeword_length)
    kk, ll, m = config.n_users, config.n_paths, config.coherence_time
    m_t = config.n_training
    data_per_block = m - m_t
    train_idx = np.arange(m_t)

    pe = np.zeros((trials, n_iter + 1))
    ber = np.zeros((trials, n_iter + 1))
    dmse = np.full((trials, n_iter + 1), np.nan)
    sigi = np.full((trials, n_iter + 1), np.nan)

    for t in range(trials):
        trial_tag = f"{experiment_id}/{mode}/trial{t}"
        rng = derive_stream(config.seed, trial_tag, 0)
        info = rng.integers(0, 2, size=(kk * copies, codec.info_length),
                            dtype=np.int8)
        coded = codec.encode(info)                                   # (K*C, n)
        data_stream = coded.reshape(kk, copies * codec.codeword_length)
        blocks = _draw_blocks(config, n_blocks, data_stream, trial_tag)

        # ---- initialization stage: training estimate + LMMSE ----
        estimates = []
        llr_stream = np.empty_like(data_stream, dtype=np.float64)
        for b, blk in enumerate(blocks):
            codes = _block_codes(config, trial_tag, b)
            if mode in ("perfect_init", "perfect_csi"):
                est = blk.channel
            else:
                stacked = build_stacked_matrix(codes, blk.symbols, blocks=train_idx)
                received = blk.chips[train_idx].reshape(-1)
                est = ml_estimate(stacked, received).gains_matrix(ll)
            estimates.append(est)
            soft, bias = lmmse_detect_frame(blk.chips[m_t:], codes.codes[m_t:],
                                            est, config.noise_var)
            span = slice(b * data_per_block, (b + 1) * data_per_block)
            llr_stream[:, span] = lmmse_llrs(soft, bias).T
        if mode not in ("perfect_init", "perfect_csi"):
            dmse[t, 0] = np.mean([np.mean(np.abs(est - blk.channel) ** 2)
                                  for est, blk in zip(estimates, blocks)])

        info_hat, feedback = _decode_stream(codec, llr_stream, kk, copies)
        pe[t, 0] = np.mean(feedback != data_stream)
        ber[t, 0] = np.mean(info_hat != info)

        # ---- decision-feedback iterations ----
        for d in range(1, n_iter + 1):
            prev_feedback = feedback
            llr_stream = np.empty_like(data_stream, dtype=np.float64)
            mse_acc, res_acc, res_n = 0.0, 0.0, 0
            for b, blk in enumerate(blocks):
                codes = _block_codes(config, trial_tag, b)
                fb_frame = blk.symbols.copy()
                fb_frame[:, m_t:] = feedback[:, b * data_per_block:
                                             (b + 1) * data_per_block]
                if mode == "perfect_csi":
                    est = blk.channel
                else:
                    stacked = build_stacked_matrix(codes, fb_frame)
                    received = blk.chips.reshape(-1)
                    est = ml_estimate(stacked, received).gains_matrix(ll)
                    mse_acc += np.mean(np.abs(est - blk.channel) ** 2)
                mf = matched_filter_frame(blk.chips[m_t:], codes.codes[m_t:])
                det = pic_mrc_frame(mf, codes.codes[m_t:], est,
                                    fb_frame[:, m_t:],
                                    true_gains=blk.channel,
                                    true_symbols=blk.symbols[:, m_t:])
                span = slice(b * data_per_block, (b + 1) * data_per_block)
                llr_stream[:, span] = _pic_llrs(
                    det.combined, est, pe[t, d - 1], config,
                    genie_csi=(mode == "perfect_csi")).T
                res_acc += float(np.sum(np.abs(det.residual) ** 2))
                res_n += det.residual.size
            info_hat, feedback = _decode_stream(codec, llr_stream, kk, copies)
            pe[t, d] = np.mean(feedback != data_stream)
            ber[t, d] = np.mean(info_hat != info)
            if mode != "perfect_csi":
                dmse[t, d] = mse_acc / n_blocks
            sigi[t, d] = res_acc / res_n
            if np.array_equal(feedback, prev_feedback):
                # decisions reached a fixed point of the actual system
                pe[t, d + 1:] = pe[t, d]
                ber[t, d + 1:] = ber[t, d]
                dmse[t, d + 1:] = dmse[t, d]
                sigi[t, d + 1:] = sigi[t, d]
                break

    predicted = None
    if g is not None and n_iter > 0:
        coeffs = analysis.map_coefficients(config.noise_var, config.load,
                                           ll, m)
        predicted = np.empty(n_iter + 1)
        predicted[0] = pe[:, 0].mean()
        for d in range(1, n_iter + 1):
            predicted[d] = float(g(coeffs.d0 + coeffs.d1 * predicted[d - 1]))

    return IterationTrace(
        mode=mode, config=config,
        feedback_error_rate=pe.mean(axis=0),
        info_bit_error_rate=ber.mean(axis=0),
        est_error_power=dmse.mean(axis=0),
        residual_interference_power=sigi.mean(axis=0),
        predicted_error_rate=predicted,
        per_trial_feedback=pe,
        n_trials=trials,
    )


def _decode_stream(codec, llr_stream, n_users, copies):
    n = codec.codeword_length
    llrs = llr_stream.reshape(n_users * copies, n)
    info_hat, feedback = codec.decode(llrs)
    return info_hat, feedback.reshape(n_users, copies * n)


@dataclass
class CapacityResult:
    """Outcome of the max-load search for one receiver mode."""

    mode: str
    max_load: float
    target_ber: float
    probes: list = field(default_factory=list)   # (load, ber or None, feasible)


def capacity_search(config_template: SystemConfig,
                    codec: ChannelCodec,
                    mode: str,
                    target_ber: float = 1e-3,
                    g: GCurve | None = None,
                    load_min: float = 0.05,
                    load_max: float = 2.0,
                    resolution: float = 0.05,
                    iterations: int = 6,
                    trials: int = 2,
                    experiment_id: str = "capacity") -> CapacityResult:
    """Largest load at which the mode still reaches the target info BER.

    Bisection over the load grid (feasibility is empirically monotone in
    the load); loads mapping to the same integer user count share one
    probe.  Estimation problems that become underdetermined at high load
    count as infeasible rather than errors.
    """
    probes = []
    cache: dict[int, bool] = {}

    def feasible(load: float) -> bool:
        n_users = max(1, round(load * config_template.spreading_gain))
        if n_users in cache:
            return cache[n_users]
        cfg = config_template.with_users(n_users)
        try:
            trace = run_iterative_receiver(
                cfg, codec, g=g, iterations=iterations, trials=trials,
                mode=mode, experiment_id=f"{experiment_id}/{mode}")
            ok = trace.final_info_ber <= target_ber
            probes.append((load, trace.final_info_ber, ok))
        except RankError:
            ok = False
            probes.append((load, None, False))
        cache[n_users] = ok
        return ok

    max_load, _ = analysis.bisect_max_load(feasible, load_min, load_max,
                                           resolution)
    return CapacityResult(mode=mode, max_load=max_load, target_ber=target_ber,
                          probes=probes)
