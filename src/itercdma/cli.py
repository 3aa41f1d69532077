"""Command-line experiment runner.

Each subcommand reproduces one experiment family at desk scale.  Only after
its work succeeds does it create the output directory and write CSV/JSON
results plus a run manifest (configuration hash, master seed, package version,
BLAS thread setting, CPU count, worker processes and library versions),
so a failed run writes nothing:

    itercdma fig2        estimation-error variance versus coherence time
    itercdma fig3        detector output statistics and error-rate sweep
    itercdma gcurve      Monte Carlo decoder characteristic
    itercdma capacity    max-load search across receiver modes
    itercdma fixedpoint  scalar-map analysis from a stored decoder curve
    itercdma rmt         spectral-moment comparison of the code models
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import HEAP_POLICY, __version__, analysis, rmt
from ._workers import process_count
from .codec import CodecSpec, CodedBpskSource, estimate_gcurve, make_codec
from .codec.gcurve import GCurve
from .config import SystemConfig, derive_stream, noise_var_from_snr_db
from .detector import measure_pic_stats
from .estimator import empirical_estimation_stats
from .exceptions import ConfigurationError, ItercdmaError
from .pipeline import capacity_search, check_receiver_arguments
from .pipeline import MODES as PIPELINE_MODES


def _write_outputs(args, experiment: str, files: dict, config=None, **extra) -> Path:
    """Create ``--out`` and write the command's files, then the run manifest.

    Each command calls this once, after its work has succeeded.  ``files``
    maps a file name to a header-plus-rows CSV table, a dict (written as
    JSON) or a decoder curve, which writes itself with ``save_csv(path)``
    so that ``GCurve.load_csv`` reads it back.  Every file is written into a
    temporary directory inside ``--out``, so on the same filesystem as its
    destination, and moved into place only once all of them are written and
    no destination is a directory.  A failed write raises ConfigurationError
    and leaves none of the files in ``--out``.
    """
    manifest = {
        "experiment": experiment,
        "version": __version__,
        "master_seed": config.seed if config is not None else getattr(args, "seed", None) or 0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "environment": {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "heap_policy": HEAP_POLICY,
            "cpu_count": os.cpu_count(),
            "processes": process_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if config is not None:
        manifest["config"] = dataclasses.asdict(config)
        manifest["config_hash"] = config.digest()
    manifest.update(extra)
    contents = {**files, "run_manifest.json": manifest}
    outdir = Path(args.out)
    dest = None  # the output file being handled, named in the error
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".staging-", dir=outdir) as tmp:
            staged = {outdir / name: Path(tmp) / name for name in contents}
            for dest, path in staged.items():
                content = contents[dest.name]
                if hasattr(content, "save_csv"):
                    content.save_csv(path)
                elif isinstance(content, dict):
                    with open(path, "w") as fh:
                        json.dump(content, fh, indent=2)
                else:
                    with open(path, "w", newline="") as fh:
                        csv.writer(fh).writerows(content)
            for dest in staged:
                if dest.is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            for dest, path in staged.items():
                os.replace(path, dest)
    except OSError as exc:
        raise ConfigurationError(f"{dest or exc.filename or outdir}: {exc.strerror or exc}") from None
    return outdir


def _base_config(args, **defaults) -> SystemConfig:
    if args.config:
        cfg = SystemConfig.from_file(args.config)
    else:
        cfg = SystemConfig(**defaults)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_fig2(args) -> int:
    cfg = _base_config(args, n_users=20, spreading_gain=100, n_paths=5,
                       coherence_time=10, noise_var=noise_var_from_snr_db(5.0),
                       code_model="shifted", seed=20)
    configs = [dataclasses.replace(cfg, coherence_time=m) for m in args.coherence_times]
    analysis.check_error_rate(args.error_rate)
    for cfg_m in configs:
        # the noise-part prediction noise_var/M needs M > L*K/N
        analysis.training_estimate_variance(cfg_m.noise_var, cfg_m.coherence_time,
                                            cfg_m.n_paths, cfg_m.load)
    table = [["M", "Pe", "Delta_f_emp", "Delta_f_pred",
              "Delta_n_emp", "Delta_n_pred", "bias_emp", "bias_pred"]]
    for m, cfg_m in zip(args.coherence_times, configs):
        stats = empirical_estimation_stats(cfg_m, args.error_rate, args.trials,
                                           realizations=args.realizations)
        pred_f = analysis.feedback_estimate_variance(
            args.error_rate, cfg_m.load, cfg_m.n_paths, m, 0.0)
        pred_n = cfg_m.noise_var / m
        table.append([m, args.error_rate, stats.delta_f, pred_f,
                      stats.delta_n, pred_n,
                      stats.mean_bias_ratio.real, 2.0 * args.error_rate])
        print(f"M={m:4d}  feedback-part {stats.delta_f:.3e} (pred {pred_f:.3e})  "
              f"noise-part {stats.delta_n:.3e} (pred {pred_n:.3e})")
    _write_outputs(args, "fig2", {"estimation_variance.csv": table}, cfg,
                   coherence_times=args.coherence_times, trials=args.trials)
    return 0


def cmd_fig3(args) -> int:
    cfg = _base_config(args, n_users=30, spreading_gain=30, n_paths=5,
                       coherence_time=50, noise_var=noise_var_from_snr_db(10.0),
                       code_model="independent", seed=30)
    configs = [dataclasses.replace(cfg, noise_var=noise_var_from_snr_db(snr_db))
               for snr_db in args.snrs_db]
    for pe in args.error_rates:
        analysis.check_error_rate(pe)
    table = [["Pe", "snr_db", "sigmaI_emp", "sigmaI_pred",
              "gain_emp", "gain_pred", "ser_sim", "ser_gauss"]]
    for snr_db, cfg_s in zip(args.snrs_db, configs):
        for pe in args.error_rates:
            stats = measure_pic_stats(cfg_s, pe, frames=args.frames,
                                      realizations=args.realizations)
            delta_a = analysis.feedback_estimate_variance(
                pe, cfg_s.load, cfg_s.n_paths, cfg_s.coherence_time,
                cfg_s.noise_var)
            sig_pred = analysis.residual_interference_variance(
                delta_a, cfg_s.load, cfg_s.n_paths, pe, cfg_s.noise_var)
            model = analysis.pic_output_model(pe, delta_a, cfg_s.n_paths, sig_pred)
            table.append([pe, snr_db, stats.interference_power, sig_pred,
                          stats.gain, model.gain, stats.ser_sim, stats.ser_gauss])
            print(f"SNR={snr_db:4.1f}dB Pe={pe:.3f}  sigmaI2 {stats.interference_power:.4f} "
                  f"(pred {sig_pred:.4f})  SER {stats.ser_sim:.4f} "
                  f"(gauss {stats.ser_gauss:.4f})")
    _write_outputs(args, "fig3", {"detector_stats.csv": table}, cfg, frames=args.frames)
    return 0


def _codec_spec(name: str) -> CodecSpec:
    return CodecSpec.turbo() if name == "turbo" else CodecSpec()


def cmd_gcurve(args) -> int:
    spec = _codec_spec(args.codec)
    codec = make_codec(spec)
    lo, hi, count = args.grid
    grid = np.linspace(lo, hi, count)
    rng = derive_stream(args.seed or 0, f"gcurve/{args.codec}", 0)
    curve = estimate_gcurve(CodedBpskSource(codec), grid, rng,
                            target_errors=args.target_errors,
                            max_codewords=args.max_codewords,
                            label=f"{args.codec} {spec.digest()}")
    name = f"gcurve_{args.codec}.csv"
    outdir = _write_outputs(args, "gcurve", {name: curve}, codec=args.codec,
                            codec_hash=spec.digest(), grid=[lo, hi, count])
    print(f"wrote {outdir / name}  (domain up to {curve.sigma_I_max:.3f}, "
          f"max slope {curve.max_slope:.3f})")
    return 0


def cmd_capacity(args) -> int:
    cfg = _base_config(args, n_users=1, spreading_gain=32, n_paths=5,
                       coherence_time=10, n_training=2,
                       noise_var=noise_var_from_snr_db(5.0),
                       code_model="independent", seed=10)
    configs = [dataclasses.replace(cfg, coherence_time=m,
                                   n_training=max(1, round(cfg.training_fraction * m)))
               for m in args.coherence_times]
    codec = make_codec(_codec_spec(args.codec))
    for cfg_m in configs:
        for mode in args.modes:
            check_receiver_arguments(cfg_m, codec, args.iterations, args.trials, mode)
    table = [["M", "mode", "beta_max"]]
    for m, cfg_m in zip(args.coherence_times, configs):
        results = capacity_search(cfg_m, codec, args.modes, target_ber=args.target_ber,
                                  trials=args.trials, iterations=args.iterations)
        for mode in args.modes:
            table.append([m, mode, results[mode].max_load])
            print(f"M={m:3d}  {mode:13s}  beta_max = {results[mode].max_load:.2f}")
    _write_outputs(args, "capacity", {"capacity.csv": table}, cfg, codec=args.codec,
                   modes=args.modes, target_ber=args.target_ber)
    return 0


def cmd_fixedpoint(args) -> int:
    g = GCurve.load_csv(args.gcurve)
    coeffs = analysis.map_coefficients(args.noise_var, args.load, args.paths,
                                       args.coherence_time)
    report = analysis.iterate_map(g, coeffs, start=args.start,
                                  max_iter=args.max_iter)
    uniqueness = analysis.check_uniqueness(g, coeffs.d1, gamma=0.999)
    payload = {
        "D0": coeffs.d0,
        "D1": coeffs.d1,
        "gamma": report.contraction_modulus,
        "certified": report.banach_certified,
        "fixed_point": report.fixed_point,
        "iterations": report.iterations,
        "converged": report.converged,
        "left_domain": report.left_domain,
        "unique_fixed_point_certified": uniqueness.certified,
        "trace": report.trace.tolist(),
    }
    print(f"D0={coeffs.d0:.5f} D1={coeffs.d1:.5f} fixed_point={report.fixed_point} "
          f"certified={report.banach_certified}")
    _write_outputs(args, "fixedpoint", {"fixedpoint.json": payload}, gcurve=str(args.gcurve))
    return 0


def cmd_rmt(args) -> int:
    cfg = _base_config(args, n_users=40, spreading_gain=100, n_paths=5,
                       coherence_time=10, seed=40)
    report = rmt.empirical_eigen_moments(cfg, max_order=args.max_order,
                                         trials=args.trials)
    for i, m in enumerate(report.orders):
        print(f"m={int(m)}  analytic {report.analytic[i]:.5f}  "
              f"independent {report.empirical_independent[i]:.5f}  "
              f"shifted {report.empirical_shifted[i]:.5f}")
    _write_outputs(args, "rmt", {"rmt_moments.csv": report.table()}, cfg,
                   trials=args.trials)
    return 0


def _list_of(convert):
    """argparse type: a comma-separated list, each item passed through ``convert``."""
    def parse(text: str) -> list:
        try:
            return [convert(item) for item in text.split(",")]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return parse


def _mode(name: str) -> str:
    if name not in PIPELINE_MODES:
        raise ValueError(f"unknown mode {name!r} (choose from {', '.join(PIPELINE_MODES)})")
    return name


def _nonnegative(text: str) -> float:
    """argparse type: a float that is not negative."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"{text!r}: must be nonnegative")
    return value


def _grid(text: str) -> tuple[float, float, int]:
    """argparse type: ``lo:hi:count`` with a positive count."""
    try:
        lo, hi, count = text.split(":")
        if int(count) < 1:
            raise ValueError
        return float(lo), float(hi), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r}: expected lo:hi:count with count >= 1, e.g. 0.2:4.0:16") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="itercdma", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        if config:
            p.add_argument("--config", default=None, help="flat key=value config file")

    p = sub.add_parser("fig2", help="estimation variance vs coherence time")
    common(p)
    p.add_argument("--coherence-times", type=_list_of(int), default="10,20,30,40,50")
    p.add_argument("--error-rate", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--realizations", type=int, default=40)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("fig3", help="detector statistics and SER sweep")
    common(p)
    p.add_argument("--snrs-db", type=_list_of(float), default="10")
    p.add_argument("--error-rates", type=_list_of(float), default="0.05,0.1")
    p.add_argument("--frames", type=int, default=70)
    p.add_argument("--realizations", type=int, default=5)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("gcurve", help="estimate the decoder characteristic")
    common(p, config=False)
    p.add_argument("--codec", default="conv", choices=("conv", "turbo"))
    p.add_argument("--grid", type=_grid, default="0.2:4.0:16",
                   help="lo:hi:count of 1/SINR values")
    p.add_argument("--target-errors", type=int, default=100)
    p.add_argument("--max-codewords", type=int, default=400)
    p.set_defaults(func=cmd_gcurve)

    p = sub.add_parser("capacity", help="max-load search per receiver mode")
    common(p)
    p.add_argument("--codec", default="conv", choices=("conv", "turbo"))
    p.add_argument("--modes", type=_list_of(_mode),
                   default=",".join(PIPELINE_MODES))
    p.add_argument("--coherence-times", type=_list_of(int), default="10,20")
    p.add_argument("--target-ber", type=float, default=1e-3)
    p.add_argument("--trials", type=int, default=2)
    p.add_argument("--iterations", type=int, default=6)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("fixedpoint", help="scalar-map analysis from a stored curve")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--gcurve", required=True)
    p.add_argument("--noise-var", type=_nonnegative, default=0.3162)
    p.add_argument("--load", type=float, default=0.5)
    p.add_argument("--paths", type=int, default=5)
    p.add_argument("--coherence-time", type=int, default=20)
    p.add_argument("--start", type=float, default=0.3)
    p.add_argument("--max-iter", type=int, default=100)
    p.set_defaults(func=cmd_fixedpoint)

    p = sub.add_parser("rmt", help="spectral-moment comparison of code models")
    common(p)
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_rmt)
    return parser


def main(argv=None) -> int:
    """Run one command; a library error ends it with one line on stderr and status 2."""
    args = build_parser().parse_args(argv)
    try:
        # an --out that cannot be a directory fails before any work, creating nothing
        out = Path(args.out)
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigurationError(f"--out {out}: {existing} is not a directory")
        return args.func(args)
    except ItercdmaError as exc:
        print(f"itercdma {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
