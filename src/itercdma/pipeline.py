"""Full receiver loop: estimate, detect, decode, feed decisions back.

One trial transmits, per user, enough codewords that every coherence block
carries ``M - M_t`` coded symbols after its ``M_t`` pilots; a seeded
symbol interleaver inside the codec spreads each codeword over many blocks
so feedback decisions look independent across periods.  The receiver is one
loop over stages ``d = 0..iterations``: per block, a least-squares channel
estimate (pilot periods at ``d = 0``, all periods after) or the genie
channel, then LMMSE at ``d = 0`` or PIC + MRC with the fed-back decisions
after; then the LLRs of every block in one call (the output model's
variances depend only on the stage's error rate), and one decode of all
codewords, whose re-encoded decisions overwrite the data columns of the
believed symbols.  A trial whose decisions repeat stops, and its later
stages repeat its last statistics.

Each block is drawn once per trial.  Its code signs are kept as int8
(``blocks*M*K*L*N`` bytes: 2.9 MB at K=14, N=32, L=5, M=20 and 64 blocks),
and each stage rebuilds one block's float codes at a time.  Running a stage
over all blocks at once would hold their float codes (23 MB at that size)
and stacked matrices (23 MB more) together, against a run's peak of
about 73 MB.

Modes
-----
``iterative``      training init, then full decision-feedback iterations
``lmmse_only``     the initialization stage alone (non-iterative receiver)
``perfect_init``   genie channel for iteration 0 only
``perfect_csi``    genie channel everywhere (no estimation at all)

A trial's draws (info bits, channels, codes, symbols, noise) depend only on
(config.seed, experiment_id, trial), not on the mode, so the modes are
compared on the same draws: ``lmmse_only`` is ``iterative``'s stage 0 bit
for bit, and ``perfect_init``'s stage 0 is ``perfect_csi``'s.  The capacity
search uses this to read the ``lmmse_only`` receiver off the iterative
runs it has already made.

The loop reuses the period it detects: from stage 1 on, its PIC cancels at
period t with the all-period estimate, which has already fitted period t's
fed-back decision.  Acceptance criteria 4-5 and ``measure_pic_stats``
describe the leave-one-out receiver instead.  As measured, one PIC stage's
per-path residual power sits 15-32% below the closed form, and
``iterative`` stalls at final info BER 0.25-0.47 at loads where the map
certifies a unique fixed point (conv code, 5 dB, N=32, L=5, M=10 and 20).

The trace records, per iteration, the realized feedback symbol error rate,
info-bit error rate, truth-assisted estimation MSE and residual
interference power.  The scalar map that predicts this trajectory lives in
:mod:`itercdma.analysis` (``iterate_map``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import analysis
from ._workers import split_map
from . import system_model as sm
from .codec import ChannelCodec
from .config import SystemConfig, derive_stream
from .detector import lmmse_detect_frame, lmmse_llrs, pic_mrc_frame
from .estimator import build_stacked_matrix, ml_estimate
from .exceptions import ConfigurationError, ParameterError, RankError

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
    per_trial_feedback: np.ndarray       # (trials, iterations+1)

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
    """Scale MRC outputs (..., M, K) to LLRs using the scalar output model.

    ``est_gains`` is (..., K, L), one estimate per leading index.

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
    power = np.sum(np.abs(est_gains) ** 2, axis=-1)[..., None, :]
    gain = np.maximum(power - l * delta_a, 0.1 * power) / (1.0 - 2.0 * pe)
    return 4.0 * gain * combined.real / np.maximum(power * sigma_i, 1e-12)


def _draw_blocks(config, data, trial_tag):
    """Draw and synthesize every coherence block of one trial, once.

    ``data`` holds the (blocks, K, M - M_t) coded symbols.  Each block's
    stream gives its channel, codes, symbols and noise, in that order.
    Returns the stacked (channels (B, K, L), symbols (B, K, M), chips
    (B, M, N), code signs (B, M, K, L, N) int8), with each block's pilots in
    its first M_t symbol columns.
    """
    m_t = config.n_training
    n_blocks = len(data)
    k, l, m, n = (config.n_users, config.n_paths, config.coherence_time,
                  config.spreading_gain)
    channels = np.empty((n_blocks, k, l), dtype=complex)
    symbols = np.empty((n_blocks, k, m), dtype=np.int8)
    chips = np.empty((n_blocks, m, n), dtype=complex)
    signs = np.empty((n_blocks, m, k, l, n), dtype=np.int8)
    for b in range(n_blocks):
        rng = derive_stream(config.seed, f"{trial_tag}/block", b)
        channels[b] = sm.generate_channel(config, rng)
        codes = sm.generate_codes(config, rng)
        signs[b] = np.sign(codes)
        symbols[b] = sm.generate_symbols(config, rng)
        symbols[b, :, m_t:] = data[b]
        chips[b], _ = sm.synthesize_received(channels[b], codes, symbols[b], config, rng)
    return channels, symbols, chips, signs


def _run_trial(config: SystemConfig, codec: ChannelCodec, n_iter: int, mode: str,
               experiment_id: str, t: int) -> np.ndarray:
    """Trial ``t`` of :func:`run_iterative_receiver`: its (4, n_iter + 1) statistics.

    The rows are the feedback error rate, the info BER, the estimation MSE
    and the residual interference power, per stage; NaN where a stage has
    none, and the last run stage repeated after an early exit.
    """
    n_blocks, copies = codeword_packing(config, codec.codeword_length)
    kk, ll, m = config.n_users, config.n_paths, config.coherence_time
    m_t = config.n_training
    data_per_block = m - m_t

    stats = np.full((4, n_iter + 1), np.nan)
    pe, ber, dmse, sigi = stats           # per stage

    # every mode draws under the tag the iterative mode has always used
    trial_tag = f"{experiment_id}/iterative/trial{t}"
    rng = derive_stream(config.seed, trial_tag, 0)
    info = rng.integers(0, 2, size=(kk * copies, codec.info_length), dtype=np.int8)
    data = codec.encode(info).reshape(kk, n_blocks, data_per_block).transpose(1, 0, 2)
    channels, symbols, chips, signs = _draw_blocks(config, data, trial_tag)
    believed = symbols.copy()             # data columns take each decode's feedback
    ests = np.empty((n_blocks, kk, ll), dtype=complex)
    soft = np.empty((n_blocks, data_per_block, kk), dtype=complex)
    bias = np.empty((n_blocks, data_per_block, kk))

    for d in range(n_iter + 1):
        genie = mode == "perfect_csi" or (d == 0 and mode == "perfect_init")
        p = m_t if d == 0 else m           # the pilots at initialization, then all periods
        mse_acc = np.nan if genie else 0.0
        res_acc = np.nan if d == 0 else 0.0
        for b in range(n_blocks):
            codes = sm.codes_from_signs(signs[b])
            data_codes = codes[m_t:]
            if genie:
                ests[b] = channels[b]
            else:
                stacked = build_stacked_matrix(codes[:p], believed[b, :, :p])
                ests[b] = ml_estimate(stacked, chips[b, :p].reshape(-1)).gains_flat.reshape(kk, ll)
                mse_acc += np.mean(np.abs(ests[b] - channels[b]) ** 2)
            if d == 0:
                soft[b], bias[b] = lmmse_detect_frame(chips[b, m_t:], data_codes,
                                                      ests[b], config.noise_var)
            else:
                det = pic_mrc_frame(chips[b, m_t:], data_codes, ests[b],
                                    believed[b, :, m_t:], true_gains=channels[b],
                                    true_symbols=symbols[b, :, m_t:])
                soft[b] = det.combined
                res_acc += float(np.sum(np.abs(det.residual) ** 2))
        llrs = (lmmse_llrs(soft, bias) if d == 0
                else _pic_llrs(soft, ests, pe[d - 1], config, genie_csi=genie))
        info_hat, feedback = codec.decode(
            llrs.transpose(2, 0, 1).reshape(kk * copies, codec.codeword_length))
        feedback = feedback.reshape(kk, n_blocks, data_per_block).transpose(1, 0, 2)
        pe[d] = np.mean(feedback != data)
        ber[d] = np.mean(info_hat != info)
        dmse[d] = mse_acc / n_blocks
        sigi[d] = res_acc / (n_blocks * data_per_block * kk * ll)
        if d > 0 and np.array_equal(feedback, believed[..., m_t:]):
            # decisions reached a fixed point of the actual system
            stats[:, d + 1:] = stats[:, d, None]
            break
        believed[..., m_t:] = feedback
    return stats


def check_receiver_arguments(config: SystemConfig, codec: ChannelCodec, iterations: int,
                             trials: int, mode: str) -> None:
    """Raise what :func:`run_iterative_receiver` rejects in these arguments, before any work."""
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}")
    if iterations < 1 and mode != "lmmse_only":
        raise ConfigurationError("iterations must be at least 1")
    if trials < 1:
        raise ConfigurationError("trials must be at least 1")
    if mode in ("iterative", "lmmse_only") and config.n_training < 1:
        raise ConfigurationError(f"mode {mode!r} needs at least one training period")
    codeword_packing(config, codec.codeword_length)


def run_iterative_receiver(config: SystemConfig,
                           codec: ChannelCodec,
                           iterations: int = 6,
                           trials: int = 1,
                           mode: str = "iterative",
                           experiment_id: str = "pipeline") -> IterationTrace:
    """Simulate the iterating receiver and record its trajectory.

    The trials are split over the worker processes
    (``itercdma._workers.split_map``); one trial runs in the calling process,
    where a turbo decode splits its codewords instead.  The trace is the same
    bit for bit for any process count.

    Raises :class:`RankError` if the channel estimation problem of any
    stage is underdetermined at this load (callers probing capacity treat
    that as an infeasible operating point).  When the pilots alone give
    fewer equations than unknowns (K*L > M_t*N), ``iterative`` and
    ``lmmse_only`` raise it before any draw.
    """
    check_receiver_arguments(config, codec, iterations, trials, mode)
    pilot_equations = config.n_training * config.spreading_gain
    if mode in ("iterative", "lmmse_only") and config.n_gains > pilot_equations:
        raise RankError(f"underdetermined system: {pilot_equations} pilot equations "
                        f"for {config.n_gains} unknowns")
    n_iter = 0 if mode == "lmmse_only" else iterations
    stats = np.stack(split_map(partial(_run_trial, config, codec, n_iter, mode, experiment_id),
                               range(trials)), axis=1)
    pe, ber, dmse, sigi = stats           # per trial and stage

    return IterationTrace(
        mode=mode, config=config,
        feedback_error_rate=pe.mean(axis=0),
        info_bit_error_rate=ber.mean(axis=0),
        est_error_power=dmse.mean(axis=0),
        residual_interference_power=sigi.mean(axis=0),
        per_trial_feedback=pe,
    )


@dataclass
class CapacityResult:
    """Outcome of the max-load search for one receiver mode."""

    max_load: float
    probes: list                  # (load, ber or None, feasible), in probe order


def capacity_search(config_template: SystemConfig,
                    codec: ChannelCodec,
                    modes: Sequence[str],
                    target_ber: float = 1e-3,
                    iterations: int = 6,
                    trials: int = 2,
                    experiment_id: str = "capacity") -> dict[str, CapacityResult]:
    """Largest load at which each mode still reaches the target info BER.

    Returns one result per mode, keyed by mode.  Each mode bisects over
    ``analysis.LOAD_GRID`` (feasibility is empirically monotone in the
    load); loads mapping to the same integer user count share one probe.
    Estimation problems that become underdetermined at high load count as
    infeasible rather than errors.

    All modes run on the draws of one experiment id.  At a user count where
    the iterative search completed a run, an ``lmmse_only`` probe reads that
    run's stage-0 info BER and does not run again; a run that raised
    :class:`RankError` may have failed after stage 0, so it is not read.
    """
    if not 0 < target_ber <= 0.5:
        raise ParameterError(f"target_ber must lie in (0, 0.5], got {target_ber}")
    for mode in modes:
        check_receiver_arguments(config_template, codec, iterations, trials, mode)
    stage0_ber: dict[int, float] = {}     # by user count, from completed iterative runs

    def probe(mode: str, n_users: int) -> float | None:
        if mode == "lmmse_only" and n_users in stage0_ber:
            return stage0_ber[n_users]
        try:
            trace = run_iterative_receiver(
                replace(config_template, n_users=n_users), codec, iterations=iterations,
                trials=trials, mode=mode, experiment_id=f"{experiment_id}/iterative")
        except RankError:
            return None
        if mode == "iterative":
            stage0_ber[n_users] = float(trace.info_bit_error_rate[0])
        return trace.final_info_ber

    def search(mode: str) -> CapacityResult:
        probes = []
        cache: dict[int, bool] = {}

        def feasible(load: float) -> bool:
            n_users = max(1, round(load * config_template.spreading_gain))
            if n_users not in cache:
                ber = probe(mode, n_users)
                cache[n_users] = ber is not None and ber <= target_ber
                probes.append((load, ber, cache[n_users]))
            return cache[n_users]

        return CapacityResult(max_load=analysis.bisect_max_load(feasible), probes=probes)

    # the iterative search first, so that lmmse_only can read its runs
    return {mode: search(mode) for mode in sorted(set(modes), key=MODES.index)}
