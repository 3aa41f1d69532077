import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import itercdma
from itercdma.config import SystemConfig, derive_stream, noise_var_from_snr_db
from itercdma.exceptions import ConfigurationError


def test_derived_loads_recomputed():
    cfg = SystemConfig(n_users=20, spreading_gain=100, n_paths=5,
                       coherence_time=25, n_training=5)
    assert cfg.load == 0.2
    assert cfg.training_fraction == 0.2
    assert cfg.stacked_load == pytest.approx(100 / 2500)
    assert cfg.n_gains == 100
    assert dataclasses.replace(cfg, n_users=50).load == 0.5


@pytest.mark.parametrize("kwargs", [
    dict(n_users=0, spreading_gain=10),
    dict(n_users=4, spreading_gain=10, n_training=11, coherence_time=10),
    dict(n_users=4, spreading_gain=10, noise_var=-1.0),
    dict(n_users=4, spreading_gain=10, noise_var=float("nan")),
    dict(n_users=4, spreading_gain=10, noise_var=float("inf")),
    dict(n_users=4, spreading_gain=10, code_model="orthogonal"),
])
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        SystemConfig(**kwargs)


def test_config_text_roundtrip(tmp_path):
    cfg = SystemConfig(n_users=30, spreading_gain=64, n_paths=3,
                       coherence_time=40, n_training=8, noise_var=0.3162,
                       code_model="shifted", seed=99)
    path = tmp_path / "scenario.cfg"
    cfg.save(path)
    assert SystemConfig.from_file(path) == cfg


def test_config_text_rejects_unknown_key():
    with pytest.raises(ConfigurationError):
        SystemConfig.from_text("n_users = 4\nspreading_gain = 8\nbogus = 1\n")


def test_config_text_rejects_duplicate_key():
    # the second value used to replace the first without a word
    with pytest.raises(ConfigurationError, match="line 3: duplicate key 'n_users'"):
        SystemConfig.from_text("n_users = 10\nspreading_gain = 8\nn_users = 20\n")


def test_noise_var_from_snr():
    assert noise_var_from_snr_db(5.0) == pytest.approx(10 ** -0.5)
    assert noise_var_from_snr_db(0.0) == 1.0


def test_stream_derivation_is_deterministic_and_disjoint():
    a = derive_stream(7, "exp", 3).standard_normal(8)
    b = derive_stream(7, "exp", 3).standard_normal(8)
    c = derive_stream(7, "exp", 4).standard_normal(8)
    d = derive_stream(7, "other", 3).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_sets_one_blas_thread_unless_user_set(preset, expected):
    env = {key: val for key, val in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(Path(itercdma.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, itercdma; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == expected


def test_config_text_rejects_non_numeric_value(tmp_path):
    text = "n_users = abc\nspreading_gain = 8\n"
    with pytest.raises(ConfigurationError, match="line 1: n_users expects int, got 'abc'"):
        SystemConfig.from_text(text)
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="line 1") as info:
        SystemConfig.from_file(path)
    assert str(path) in str(info.value)
