import csv
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import itercdma
from itercdma import _workers, cli
from itercdma.cli import main
from itercdma.codec.gcurve import GCurve, make_gcurve


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def _manifest(outdir):
    with open(outdir / "run_manifest.json") as fh:
        return json.load(fh)


def _run_cli(argv, **env):
    """``python -m itercdma.cli *argv`` in a fresh interpreter, with ``env`` added."""
    src = str(Path(itercdma.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "itercdma.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_fig2_writes_sweep_and_manifest(tmp_path, capsys):
    out = tmp_path / "fig2"
    rc = main(["fig2", "--out", str(out), "--coherence-times", "10,20",
               "--trials", "40", "--realizations", "8", "--seed", "5"])
    assert rc == 0
    rows = _read_csv(out / "estimation_variance.csv")
    assert rows[0] == ["M", "Pe", "Delta_f_emp", "Delta_f_pred",
                       "Delta_n_emp", "Delta_n_pred", "bias_emp", "bias_pred"]
    assert len(rows) == 3
    # predictions recorded alongside: feedback part 0.16/M at the defaults
    assert float(rows[1][3]) == pytest.approx(0.016)
    manifest = _manifest(out)
    assert manifest["experiment"] == "fig2"
    assert manifest["master_seed"] == 5
    assert "config_hash" in manifest
    env = manifest["environment"]
    assert env["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
    assert env["cpu_count"] == os.cpu_count()
    assert env["numpy"] == np.__version__
    assert env["processes"] == _workers.process_count() >= 1
    assert env["heap_policy"] == itercdma.HEAP_POLICY
    assert set(env) == {"OPENBLAS_NUM_THREADS", "heap_policy", "cpu_count", "processes",
                        "python", "numpy"}
    assert "M=" in capsys.readouterr().out


def test_fig3_writes_detector_stats(tmp_path):
    out = tmp_path / "fig3"
    rc = main(["fig3", "--out", str(out), "--snrs-db", "10",
               "--error-rates", "0.1", "--frames", "6",
               "--realizations", "2", "--seed", "6"])
    assert rc == 0
    rows = _read_csv(out / "detector_stats.csv")
    assert rows[0][:4] == ["Pe", "snr_db", "sigmaI_emp", "sigmaI_pred"]
    assert len(rows) == 2
    assert float(rows[1][2]) > 0


def test_gcurve_roundtrips_through_cli_file(tmp_path):
    out = tmp_path / "gc"
    rc = main(["gcurve", "--out", str(out), "--codec", "conv",
               "--grid", "0.8:2.4:5", "--target-errors", "30",
               "--max-codewords", "40", "--seed", "7"])
    assert rc == 0
    curve = GCurve.load_csv(out / "gcurve_conv.csv")
    assert curve.xs[0] == 0.0
    assert np.all(np.diff(curve.pes) >= 0)
    assert _manifest(out)["codec"] == "conv"


def test_fixedpoint_reports_certificate(tmp_path):
    gc_path = tmp_path / "curve.csv"
    make_gcurve([0.5, 1.0, 2.0, 4.0], [0.0, 0.05, 0.2, 0.3],
                label="synthetic").save_csv(gc_path)
    out = tmp_path / "fp"
    rc = main(["fixedpoint", "--out", str(out), "--gcurve", str(gc_path),
               "--noise-var", "0.3162", "--load", "0.2",
               "--paths", "5", "--coherence-time", "30", "--start", "0.1"])
    assert rc == 0
    with open(out / "fixedpoint.json") as fh:
        report = json.load(fh)
    for key in ("D0", "D1", "gamma", "certified", "fixed_point",
                "iterations", "trace"):
        assert key in report
    assert report["D0"] == pytest.approx(0.34344, abs=1e-4)
    assert report["converged"]


def test_rmt_moment_table(tmp_path):
    out = tmp_path / "rmt"
    rc = main(["rmt", "--out", str(out), "--trials", "8",
               "--max-order", "3", "--seed", "8"])
    assert rc == 0
    rows = _read_csv(out / "rmt_moments.csv")
    assert rows[0] == ["m", "analytic", "emp_indep", "emp_shifted",
                       "stderr_indep", "stderr_shifted", "bound"]
    assert len(rows) == 4
    assert [row[0] for row in rows[1:]] == ["1", "2", "3"]
    assert float(rows[1][1]) == pytest.approx(0.2)


@pytest.mark.slow
def test_capacity_smoke(tmp_path):
    out = tmp_path / "cap"
    rc = main(["capacity", "--out", str(out), "--coherence-times", "10",
               "--modes", "perfect_csi", "--trials", "1", "--iterations", "2",
               "--seed", "9"])
    assert rc == 0
    rows = _read_csv(out / "capacity.csv")
    assert rows[0] == ["M", "mode", "beta_max"]
    assert float(rows[1][2]) > 0


def test_config_file_override(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text("n_users = 10\nspreading_gain = 50\nn_paths = 2\n"
                        "coherence_time = 10\nnoise_var = 0.3162\nseed = 3\n")
    out = tmp_path / "fig2cfg"
    rc = main(["fig2", "--out", str(out), "--coherence-times", "10",
               "--trials", "20", "--realizations", "4",
               "--config", str(cfg_file)])
    assert rc == 0
    manifest = _manifest(out)
    assert manifest["config"]["n_users"] == 10
    assert manifest["config"]["spreading_gain"] == 50


@pytest.mark.parametrize("argv", [
    ["capacity", "--modes", "iterative,bogus", "--coherence-times", "10",
     "--trials", "1", "--iterations", "1"],
    ["gcurve", "--grid", "1:2"],
    ["gcurve", "--grid", "1:2:0"],
    ["fig2", "--coherence-times", "10,abc"],
    ["capacity", "--gcurve", "curve.csv", "--coherence-times", "10",
     "--trials", "1", "--iterations", "1"],
    ["fixedpoint", "--gcurve", "curve.csv", "--noise-var", "-1"],
    ["fixedpoint", "--gcurve", "curve.csv", "--noise-var", "nan"],
    ["gcurve", "--config", "scenario.cfg"],
    ["fixedpoint", "--gcurve", "curve.csv", "--config", "scenario.cfg"],
    ["fixedpoint", "--gcurve", "curve.csv", "--seed", "3"],
    ["fixedpoint", "--gcurve", "curve.csv", "--snr-db", "10"],
], ids=["capacity_unknown_mode", "gcurve_short_grid", "gcurve_empty_grid",
        "fig2_non_integer_m", "capacity_no_gcurve_option", "fixedpoint_negative_noise_var",
        "fixedpoint_nan_noise_var", "gcurve_no_config_option", "fixedpoint_no_config_option",
        "fixedpoint_no_seed_option", "fixedpoint_no_snr_option"])
def test_bad_argument_is_usage_error_before_any_work(tmp_path, capsys, argv):
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(out)])
    assert info.value.code == 2
    assert not out.exists()
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["fig2", "--coherence-times", "0"],
     "itercdma fig2: error: coherence_time must be positive"),
    (["fixedpoint", "--gcurve", "{tmp}/bad.csv"],
     "itercdma fixedpoint: error: {tmp}/bad.csv, line 1: "),
    (["rmt", "--max-order", "13"],
     "itercdma rmt: error: moment order 13 exceeds the cost guard (12)"),
    (["gcurve", "--max-codewords", "0"],
     "itercdma gcurve: error: target_errors and max_codewords must be at least 1"),
    (["gcurve", "--target-errors", "0"],
     "itercdma gcurve: error: target_errors and max_codewords must be at least 1"),
    (["fixedpoint", "--gcurve", "{tmp}/one_point.csv"],
     "itercdma fixedpoint: error: a decoder curve needs at least two points, got 1"),
    (["fixedpoint", "--gcurve", "{tmp}/nan_cell.csv"],
     "itercdma fixedpoint: error: decoder curve values must be finite"),
    (["capacity", "--trials", "0"],
     "itercdma capacity: error: trials must be at least 1"),
    (["fixedpoint", "--gcurve", "{tmp}/good.csv", "--load", "-0.5"],
     "itercdma fixedpoint: error: load must be nonnegative and n_paths at least 1"),
    (["fixedpoint", "--gcurve", "{tmp}/good.csv", "--paths", "0"],
     "itercdma fixedpoint: error: load must be nonnegative and n_paths at least 1"),
    (["fixedpoint", "--gcurve", "{tmp}/good.csv", "--paths", "-3"],
     "itercdma fixedpoint: error: load must be nonnegative and n_paths at least 1"),
    (["capacity", "--target-ber", "-1", "--coherence-times", "10", "--modes", "perfect_csi",
      "--trials", "1", "--iterations", "1"],
     "itercdma capacity: error: target_ber must lie in (0, 0.5], got -1.0"),
    (["fig2", "--config", "{tmp}/nan_noise.cfg"],
     "itercdma fig2: error: {tmp}/nan_noise.cfg: noise_var must be finite and nonnegative, "
     "got nan"),
    (["fixedpoint", "--gcurve", "{tmp}/good.csv", "--noise-var", "inf"],
     "itercdma fixedpoint: error: noise_var and load must be finite, got inf and 0.5"),
    (["fixedpoint", "--gcurve", "{tmp}/good.csv", "--start", "nan"],
     "itercdma fixedpoint: error: start must be finite and nonnegative, got nan"),
    (["gcurve", "--grid", "nan:1:2"],
     "itercdma gcurve: error: grid abscissas must be positive and finite (x = 1/SINR)"),
    (["fig2", "--coherence-times", "10", "--trials", "4", "--realizations", "0"],
     "itercdma fig2: error: realizations must be at least 1, got 0"),
    (["fig2", "--coherence-times", "10", "--trials", "4", "--realizations", "-1"],
     "itercdma fig2: error: realizations must be at least 1, got -1"),
    (["fig3", "--error-rates", "0.1", "--frames", "4", "--realizations", "0"],
     "itercdma fig3: error: realizations must be at least 1, got 0"),
    (["fig3", "--error-rates", "0.1", "--frames", "4", "--realizations", "-2"],
     "itercdma fig3: error: realizations must be at least 1, got -2"),
    (["fig2", "--coherence-times", "10", "--trials", "201"],
     "itercdma fig2: error: trials (201) must be a multiple of realizations (40)"),
    (["fig3", "--error-rates", "0.1", "--frames", "71"],
     "itercdma fig3: error: frames (71) must be a multiple of realizations (5)"),
    (["fixedpoint", "--gcurve", "{tmp}/negative.csv", "--load", "0.5"],
     "itercdma fixedpoint: error: pes must lie in [0, 1], got -0.2 to 0"),
    (["fixedpoint", "--gcurve", "{tmp}/good.csv", "--max-iter", "0"],
     "itercdma fixedpoint: error: max_iter must be at least 1, got 0"),
    (["fixedpoint", "--gcurve", "{tmp}/good.csv", "--max-iter", "-1"],
     "itercdma fixedpoint: error: max_iter must be at least 1, got -1"),
    (["fig3", "--error-rates", "0.1,0.7", "--frames", "5", "--realizations", "5"],
     "itercdma fig3: error: error_rate must lie in [0, 0.5], got 0.7"),
    (["fig3", "--error-rates", "0.1,nan", "--frames", "5", "--realizations", "5"],
     "itercdma fig3: error: error_rate must lie in [0, 0.5], got nan"),
    (["capacity", "--modes", "lmmse_only,iterative", "--iterations", "0",
      "--coherence-times", "10", "--trials", "1"],
     "itercdma capacity: error: iterations must be at least 1"),
    (["capacity", "--coherence-times", "10,1", "--modes", "perfect_csi", "--trials", "1",
      "--iterations", "1"],
     "itercdma capacity: error: every block is pure training; nothing to decode"),
    (["fig2", "--coherence-times", "10,1", "--trials", "4", "--realizations", "2"],
     "itercdma fig2: error: coherence_time must exceed n_paths*load (1)"),
    (["fig2", "--config", "{tmp}/missing.cfg"],
     "itercdma fig2: error: {tmp}/missing.cfg: No such file or directory"),
    (["fig2", "--config", "{tmp}"],
     "itercdma fig2: error: {tmp}: Is a directory"),
    (["fig2", "--config", "{tmp}/not_text.cfg"],
     "itercdma fig2: error: {tmp}/not_text.cfg: "),
    (["fixedpoint", "--gcurve", "{tmp}/missing.csv"],
     "itercdma fixedpoint: error: {tmp}/missing.csv: No such file or directory"),
    (["fig2", "--config", "{tmp}/dup.cfg", "--coherence-times", "10", "--trials", "4",
      "--realizations", "2"],
     "itercdma fig2: error: {tmp}/dup.cfg: line 3: duplicate key 'n_users'"),
], ids=["fig2_zero_coherence_time", "fixedpoint_malformed_curve", "rmt_order_past_guard",
        "gcurve_zero_codewords", "gcurve_zero_target_errors", "fixedpoint_one_point_curve",
        "fixedpoint_nan_cell", "capacity_zero_trials", "fixedpoint_negative_load",
        "fixedpoint_zero_paths", "fixedpoint_negative_paths", "capacity_negative_target_ber",
        "fig2_nan_noise_var_in_config", "fixedpoint_infinite_noise_var",
        "fixedpoint_nan_start", "gcurve_nan_grid_point", "fig2_zero_realizations",
        "fig2_negative_realizations", "fig3_zero_realizations", "fig3_negative_realizations",
        "fig2_trials_not_a_multiple", "fig3_frames_not_a_multiple",
        "fixedpoint_negative_rates", "fixedpoint_zero_max_iter",
        "fixedpoint_negative_max_iter", "fig3_second_error_rate_past_half",
        "fig3_second_error_rate_nan", "capacity_zero_iterations_after_lmmse_only",
        "capacity_second_block_pure_training", "fig2_second_coherence_time_at_bound",
        "fig2_missing_config", "fig2_config_is_a_directory", "fig2_config_not_text",
        "fixedpoint_missing_curve", "fig2_duplicate_config_key"])
def test_library_error_is_one_line_before_any_output(tmp_path, argv, message):
    (tmp_path / "bad.csv").write_text("not,a,curve\n")
    (tmp_path / "one_point.csv").write_text("x,pe\n0.5,0.1\n")
    (tmp_path / "nan_cell.csv").write_text("x,pe\n0.0,0.0\n1.0,nan\n2.0,0.3\n")
    (tmp_path / "good.csv").write_text("x,pe\n0.0,0.0\n1.0,0.1\n2.0,0.3\n")
    (tmp_path / "negative.csv").write_text("x,pe\n0,-0.2\n1,-0.1\n2,0\n")
    (tmp_path / "nan_noise.cfg").write_text("n_users = 10\nspreading_gain = 50\nnoise_var = nan\n")
    (tmp_path / "not_text.cfg").write_bytes(b"n_users = 10\xff\nspreading_gain = 50\n")
    (tmp_path / "dup.cfg").write_text("n_users = 10\nspreading_gain = 50\nn_users = 20\n")
    out = tmp_path / "never"
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    proc = _run_cli(argv + ["--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith(message.format(tmp=tmp_path))
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("error_rate", ["0.7", "nan"])
def test_fig2_checks_its_error_rate_before_the_sampler(tmp_path, monkeypatch, capsys,
                                                       error_rate):
    # the first coherence time used to reach the sampler before the rate was rejected
    calls = []
    sampler = cli.empirical_estimation_stats

    def record(*args, **kwargs):
        calls.append(args)
        return sampler(*args, **kwargs)

    monkeypatch.setattr(cli, "empirical_estimation_stats", record)
    out = tmp_path / "never"
    assert main(["fig2", "--error-rate", error_rate, "--coherence-times", "10",
                 "--trials", "4", "--realizations", "2", "--out", str(out)]) == 2
    assert calls == []
    assert capsys.readouterr() == ("", "itercdma fig2: error: error_rate must lie in "
                                       f"[0, 0.5], got {float(error_rate)}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, csv_name", [
    (["fig2", "--coherence-times", "10,20", "--trials", "40", "--realizations", "8",
      "--seed", "5"], "estimation_variance.csv"),
    (["capacity", "--modes", "iterative,lmmse_only", "--target-ber", "0.5",
      "--coherence-times", "10", "--trials", "2", "--iterations", "1"], "capacity.csv"),
], ids=["fig2", "capacity"])
def test_same_files_over_one_or_two_processes(tmp_path, argv, csv_name, serial, use_cpus):
    # a (config, seed) pair gives one result whatever the worker count
    assert serial(main, argv + ["--out", str(tmp_path / "one")]) == 0
    use_cpus(2)
    assert main(argv + ["--out", str(tmp_path / "two")]) == 0
    one, two = tmp_path / "one", tmp_path / "two"
    assert (one / csv_name).read_bytes() == (two / csv_name).read_bytes()
    manifests = [_manifest(one), _manifest(two)]
    assert [m["environment"].pop("processes") for m in manifests] == [1, 2]
    for m in manifests:
        del m["timestamp"]
    assert manifests[0] == manifests[1]


def test_same_files_in_fresh_interpreters(tmp_path):
    # a (config, seed) pair gives one result in interpreters whose str hashes differ
    argv = ["fig2", "--coherence-times", "10,20", "--trials", "40", "--realizations", "8",
            "--seed", "5"]
    runs = [tmp_path / "hash0", tmp_path / "hash1"]
    for hash_seed, out in zip("01", runs):
        proc = _run_cli(argv + ["--out", str(out)], PYTHONHASHSEED=hash_seed)
        assert proc.returncode == 0, proc.stderr
    csv_name = "estimation_variance.csv"
    assert (runs[0] / csv_name).read_bytes() == (runs[1] / csv_name).read_bytes()
    manifests = [_manifest(out) for out in runs]
    for m in manifests:
        del m["timestamp"]
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_that_cannot_be_a_directory_fails_before_any_work(tmp_path, capsys, out):
    # a regular file in the way used to end in a traceback after the results printed
    (tmp_path / "taken").write_text("")
    rc = main(["rmt", "--trials", "2", "--out", str(tmp_path / out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"itercdma rmt: error: --out {tmp_path / out}: "
                            f"{tmp_path / 'taken'} is not a directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert (tmp_path / "taken").read_text() == ""


def test_unwritable_output_file_is_one_line(tmp_path, capsys):
    # a directory where one output file goes fails the write, and none of the files stays
    for blocked in ("rmt_moments.csv", "run_manifest.json"):
        out = tmp_path / blocked.split(".")[0]
        (out / blocked).mkdir(parents=True)
        rc = main(["rmt", "--trials", "2", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"itercdma rmt: error: {out / blocked}: Is a directory\n"
        assert [p.name for p in out.iterdir()] == [blocked]


def test_out_whose_parent_is_read_only_gets_its_files(tmp_path, monkeypatch):
    # a volume mount or a read-only working directory: only --out itself takes new entries
    parent = tmp_path / "ro"
    out = parent / "out"
    out.mkdir(parents=True)
    mkdir = os.mkdir

    def refuse_in_parent(path, *args, **kwargs):  # root writes through the mode bits
        if Path(path).parent == parent and not os.path.lexists(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", refuse_in_parent)
    parent.chmod(0o555)
    try:
        rc = main(["rmt", "--trials", "2", "--out", str(out)])
    finally:
        parent.chmod(0o755)
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["rmt_moments.csv", "run_manifest.json"]
    assert [p.name for p in parent.iterdir()] == ["out"]


def test_failure_mid_work_leaves_no_output(tmp_path, capsys):
    # the sampler rejects one trial per realization only once the sweep has begun
    out = tmp_path / "never"
    rc = main(["fig2", "--coherence-times", "10", "--trials", "1",
               "--realizations", "1", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "itercdma fig2: error: need at least two trials per realization\n")
    assert not out.exists()
