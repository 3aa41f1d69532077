"""The three benchmark workloads, their op summaries and output checks.

Every op is a pure function of (workload, seed, op index): op ``i`` runs with
master seed ``seed`` and ``experiment_id=f"bench/<workload>/{i}"``, so the
same seed replays the same inputs.  An op returns a summary with two parts:
``ints`` (integer error counts and flags, compared exactly against the
committed golden record) and ``floats`` (sampler statistics, compared to a
relative tolerance of ``GOLDEN_RTOL``).  The exact digest over both parts at
full precision is what traced/untraced and replayed ops must reproduce.

Calls go through module attributes (``pipeline.run_iterative_receiver``,
not a name imported here) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import itercdma  # noqa: F401  (imported before numpy on purpose)
from itercdma import analysis, codec, config, detector, estimator, pipeline, rmt

import numpy as np

WORKLOADS = ("loop_conv", "loop_turbo", "stage_checks")
GOLDEN_RTOL = 1e-6
LOOP_ITERATIONS = 5

# (K, N, L, M, M_t), SNR in dB and codec of each receiver-loop workload.  Each
# SNR puts most ops on one decode count: at 4.5 dB every conv trial runs all
# five iterations; at 5.5 dB most turbo trials are clean after one iteration
# and exit after the second.  At 5 dB both split about 60/40 between two
# counts, so the median op time of a run depended on the seed.
_LOOPS = {
    "loop_conv": ((8, 32, 5, 10, 2), 4.5, codec.CodecSpec()),
    "loop_turbo": ((14, 32, 5, 20, 4), 5.5, codec.CodecSpec.turbo(turbo_iterations=8)),
}

# Sampler arguments of one stage_checks op.
_EST_ARGS = dict(error_rate=0.1, trials=40, realizations=4, mode="exact")
_PIC_ARGS = dict(error_rate=0.05, frames=12, realizations=3,
                 channel_knowledge="leave_one_out")
_RMT_ARGS = dict(max_order=4, trials=20)
_GCURVE_ARGS = dict(target_errors=50, max_codewords=100)


class LoopWorkload:
    """One ``run_iterative_receiver`` trial per op, mode ``iterative``."""

    def __init__(self, name: str, seed: int):
        (k, n, l, m, m_t), self.snr_db, spec = _LOOPS[name]
        self.name, self.seed = name, seed
        self.config = config.SystemConfig(
            n_users=k, spreading_gain=n, n_paths=l, coherence_time=m,
            n_training=m_t, noise_var=config.noise_var_from_snr_db(self.snr_db),
            seed=seed)
        self.codec = codec.make_codec(spec)
        n_blocks, copies = pipeline.codeword_packing(self.config, self.codec.codeword_length)
        self.n_blocks = n_blocks
        self.coded_symbols = k * copies * self.codec.codeword_length
        self.info_bits = k * copies * self.codec.info_length

    def describe(self) -> dict:
        c = self.config
        return {"op": "run_iterative_receiver trial", "mode": "iterative",
                "codec": self.codec.spec.family, "K": c.n_users, "N": c.spreading_gain,
                "L": c.n_paths, "M": c.coherence_time, "M_t": c.n_training,
                "snr_db": self.snr_db, "iterations": LOOP_ITERATIONS,
                "blocks_per_trial": self.n_blocks, "info_bits_per_op": self.info_bits}

    def run(self, i: int) -> dict:
        trace = pipeline.run_iterative_receiver(
            self.config, self.codec, iterations=LOOP_ITERATIONS, trials=1,
            mode="iterative", experiment_id=f"bench/{self.name}/{i}")
        return {
            "ints": {
                "feedback_errors": _counts(trace.feedback_error_rate, self.coded_symbols),
                "info_errors": _counts(trace.info_bit_error_rate, self.info_bits),
            },
            "floats": {
                "est_error_power": trace.est_error_power.tolist(),
                # index 0 is the LMMSE stage, which has no PIC residual (NaN)
                "residual_interference_power": trace.residual_interference_power[1:].tolist(),
            },
        }

    def invariants(self, summary: dict) -> list[str]:
        fb = np.array(summary["ints"]["feedback_errors"]) / self.coded_symbols
        info = np.array(summary["ints"]["info_errors"]) / self.info_bits
        errs = []
        if np.any(fb < 0) or np.any(fb > 0.5) or np.any(info < 0) or np.any(info > 0.5):
            errs.append("error rate outside [0, 0.5]")
        if info[-1] > info[0]:
            errs.append(f"final info BER {info[-1]:.5f} worse than iteration 0 {info[0]:.5f}")
        if not all(math.isfinite(v) and v >= 0 for vals in summary["floats"].values()
                   for v in vals):
            errs.append("non-finite or negative estimation/residual power")
        return errs


class StageChecksWorkload:
    """One pass of the per-stage Monte Carlo samplers per op (no receiver loop)."""

    def __init__(self, seed: int):
        self.name = "stage_checks"
        self.seed = seed
        nv = config.noise_var_from_snr_db
        self.est_config = config.SystemConfig(
            n_users=20, spreading_gain=100, n_paths=5, coherence_time=30,
            noise_var=nv(5.0), code_model="shifted", seed=seed)
        self.pic_config = config.SystemConfig(
            n_users=30, spreading_gain=30, n_paths=5, coherence_time=50,
            noise_var=nv(10.0), seed=seed)
        self.rmt_config = config.SystemConfig(
            n_users=40, spreading_gain=100, n_paths=5, coherence_time=10, seed=seed)
        self.codec = codec.make_codec(codec.CodecSpec())
        self.gcurve_grid = np.linspace(0.5, 3.0, 6)
        # the map is iterated for the loop_conv scenario: 4.5 dB, load 8/32, L=5, M=10
        self.map_args = (nv(4.5), 8 / 32, 5, 10)

    def describe(self) -> dict:
        cfg = dataclasses.asdict
        return {"op": "one pass of all samplers",
                "empirical_estimation_stats": {**cfg(self.est_config), **_EST_ARGS},
                "measure_pic_stats": {**cfg(self.pic_config), **_PIC_ARGS},
                "empirical_eigen_moments": {**cfg(self.rmt_config), **_RMT_ARGS},
                "estimate_gcurve": {"codec": "convolutional",
                                    "grid": self.gcurve_grid.tolist(), **_GCURVE_ARGS},
                "map_coefficients": self.map_args}

    def run(self, i: int) -> dict:
        eid = f"bench/{self.name}/{i}"
        es = estimator.empirical_estimation_stats(
            self.est_config, **_EST_ARGS, experiment_id=f"{eid}/estimation")
        ps = detector.measure_pic_stats(
            self.pic_config, **_PIC_ARGS, experiment_id=f"{eid}/pic")
        mr = rmt.empirical_eigen_moments(
            self.rmt_config, **_RMT_ARGS, experiment_id=f"{eid}/rmt")
        rng = config.derive_stream(self.seed, f"{eid}/gcurve", 0)
        g = codec.estimate_gcurve(codec.CodedBpskSource(self.codec), self.gcurve_grid,
                                  rng, **_GCURVE_ARGS)
        coeffs = analysis.map_coefficients(*self.map_args)
        fp = analysis.iterate_map(g, coeffs, start=0.5)
        un = analysis.check_uniqueness(g, coeffs.d1, gamma=0.999)
        floats = {
            "estimation": [es.mean_bias_ratio.real, es.mean_bias_ratio.imag, es.delta_f,
                           es.delta_n, es.delta_a, es.cross_norm],
            "pic": [ps.interference_power, ps.gain, ps.mrc_noise_power,
                    ps.output_variance, ps.ser_gauss, ps.skewness, ps.excess_kurtosis],
            "moments": mr.empirical_independent.tolist() + mr.empirical_shifted.tolist(),
            "gcurve_pe": g.pes.tolist(),
            "map": fp.trace.tolist(),
        }
        return {
            "ints": {
                "pic_symbol_errors": round(ps.ser_sim * ps.n_decisions),
                "pic_decisions": ps.n_decisions,
                "pic_residual_samples": ps.n_residual_samples,
                "map_iterations": fp.iterations,
                "map_converged": int(fp.converged),
                "uniqueness_certified": int(un.certified),
            },
            "floats": floats,
        }

    def invariants(self, summary: dict) -> list[str]:
        ints, floats = summary["ints"], summary["floats"]
        errs = []
        if not all(math.isfinite(v) for vals in floats.values() for v in vals):
            errs.append("non-finite sampler statistic")
        ser = ints["pic_symbol_errors"] / ints["pic_decisions"]
        if not 0 <= ser <= 0.5 or not all(0 <= p <= 0.5 for p in floats["gcurve_pe"]):
            errs.append("error rate outside [0, 0.5]")
        if min(floats["estimation"][2:5]) < 0 or min(floats["moments"]) <= 0:
            errs.append("negative variance or nonpositive spectral moment")
        return errs


def make(name: str, seed: int):
    if name in _LOOPS:
        return LoopWorkload(name, seed)
    if name == "stage_checks":
        return StageChecksWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _counts(rates: np.ndarray, total: int) -> list[int]:
    return [int(round(float(r) * total)) for r in rates]


def exact_digest(summary: dict) -> str:
    """Digest of every output value at full precision (json writes floats by repr)."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_mismatch(summary: dict, golden: dict) -> str | None:
    """Compare against a committed record: ints exactly, floats to GOLDEN_RTOL."""
    if summary["ints"] != golden["ints"]:
        return f"error counts {summary['ints']} != golden {golden['ints']}"
    for key, ref in golden["floats"].items():
        got = summary["floats"][key]
        if len(got) != len(ref) or not np.allclose(got, ref, rtol=GOLDEN_RTOL, atol=0.0,
                                                   equal_nan=True):
            return f"statistic {key} {got} != golden {ref}"
    return None
