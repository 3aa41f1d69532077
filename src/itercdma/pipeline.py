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

The trace records, per iteration, the realized feedback symbol error rate,
info-bit error rate, truth-assisted estimation MSE and residual
interference power.  The scalar map that predicts this trajectory lives in
:mod:`itercdma.analysis` (``iterate_map``).  Everything is reproducible
from (config.seed, experiment_id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis
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


def run_iterative_receiver(config: SystemConfig,
                           codec: ChannelCodec,
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
    if trials < 1:
        raise ConfigurationError("trials must be at least 1")
    if mode in ("iterative", "lmmse_only") and config.n_training < 1:
        raise ConfigurationError(f"mode {mode!r} needs at least one training period")
    n_iter = 0 if mode == "lmmse_only" else iterations
    n_blocks, copies = codeword_packing(config, codec.codeword_length)
    kk, ll, m = config.n_users, config.n_paths, config.coherence_time
    m_t = config.n_training
    data_per_block = m - m_t

    stats = np.full((4, trials, n_iter + 1), np.nan)
    pe, ber, dmse, sigi = stats           # per trial and stage

    for t in range(trials):
        trial_tag = f"{experiment_id}/{mode}/trial{t}"
        rng = derive_stream(config.seed, trial_tag, 0)
        info = rng.integers(0, 2, size=(kk * copies, codec.info_length),
                            dtype=np.int8)
        data = codec.encode(info).reshape(kk, n_blocks, data_per_block).transpose(1, 0, 2)
        channels, symbols, chips, signs = _draw_blocks(config, data, trial_tag)
        believed = symbols.copy()         # data columns take each decode's feedback
        ests = np.empty((n_blocks, kk, ll), dtype=complex)
        soft = np.empty((n_blocks, data_per_block, kk), dtype=complex)
        bias = np.empty((n_blocks, data_per_block, kk))

        for d in range(n_iter + 1):
            genie = mode == "perfect_csi" or (d == 0 and mode == "perfect_init")
            p = m_t if d == 0 else m       # the pilots at initialization, then all periods
            mse_acc = res_acc = 0.0
            for b in range(n_blocks):
                codes = sm.codes_from_signs(signs[b])
                data_codes = codes[m_t:]
                if genie:
                    ests[b] = channels[b]
                else:
                    stacked = build_stacked_matrix(codes[:p], believed[b, :, :p])
                    ests[b] = ml_estimate(stacked, chips[b, :p].reshape(-1)).gains_matrix(ll)
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
            if d == 0:
                llrs = lmmse_llrs(soft, bias)
            else:
                llrs = _pic_llrs(soft, ests, pe[t, d - 1], config, genie_csi=genie)
            info_hat, feedback = codec.decode(
                llrs.transpose(2, 0, 1).reshape(kk * copies, codec.codeword_length))
            feedback = feedback.reshape(kk, n_blocks, data_per_block).transpose(1, 0, 2)
            pe[t, d] = np.mean(feedback != data)
            ber[t, d] = np.mean(info_hat != info)
            if not genie:
                dmse[t, d] = mse_acc / n_blocks
            if d > 0:
                sigi[t, d] = res_acc / (n_blocks * data_per_block * kk * ll)
            if d > 0 and np.array_equal(feedback, believed[..., m_t:]):
                # decisions reached a fixed point of the actual system
                stats[:, t, d + 1:] = stats[:, t, d, None]
                break
            believed[..., m_t:] = feedback

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

    mode: str
    max_load: float
    target_ber: float
    probes: list = field(default_factory=list)   # (load, ber or None, feasible)


def capacity_search(config_template: SystemConfig,
                    codec: ChannelCodec,
                    mode: str,
                    target_ber: float = 1e-3,
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
    if not 0 < target_ber <= 0.5:
        raise ParameterError(f"target_ber must lie in (0, 0.5], got {target_ber}")
    probes = []
    cache: dict[int, bool] = {}

    def feasible(load: float) -> bool:
        n_users = max(1, round(load * config_template.spreading_gain))
        if n_users in cache:
            return cache[n_users]
        cfg = replace(config_template, n_users=n_users)
        try:
            trace = run_iterative_receiver(
                cfg, codec, iterations=iterations, trials=trials,
                mode=mode, experiment_id=f"{experiment_id}/{mode}")
            ok = trace.final_info_ber <= target_ber
            probes.append((load, trace.final_info_ber, ok))
        except RankError:
            ok = False
            probes.append((load, None, False))
        cache[n_users] = ok
        return ok

    max_load = analysis.bisect_max_load(feasible, load_min, load_max, resolution)
    return CapacityResult(mode=mode, max_load=max_load, target_ber=target_ber,
                          probes=probes)
