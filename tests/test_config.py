import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import itercdma
from itercdma.config import SystemConfig, derive_stream, noise_var_from_snr_db
from itercdma.exceptions import ConfigurationError, ParameterError


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


@pytest.mark.parametrize("snr_db", [-4000.0, np.float64(-4000.0)], ids=["float", "float64"])
def test_noise_var_past_the_float_range_is_a_parameter_error(snr_db):
    with pytest.raises(ParameterError, match="snr_db -4000.0 dB"):
        noise_var_from_snr_db(snr_db)


def test_stream_derivation_is_deterministic_and_disjoint():
    a = derive_stream(7, "exp", 3).standard_normal(8)
    b = derive_stream(7, "exp", 3).standard_normal(8)
    c = derive_stream(7, "exp", 4).standard_normal(8)
    d = derive_stream(7, "other", 3).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def _python_with_itercdma(code, **preset):
    """Run ``code`` in a fresh interpreter with no BLAS or allocator setting but ``preset``."""
    env = {key: val for key, val in os.environ.items()
           if not key.startswith("MALLOC_") and key not in ("GLIBC_TUNABLES",
                                                             "OPENBLAS_NUM_THREADS")}
    env.update(preset, PYTHONPATH=str(Path(itercdma.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.split()


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_sets_one_blas_thread_unless_user_set(preset, expected):
    code = "import os, itercdma; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    assert _python_with_itercdma(code, **env) == [expected]


# four to seven live 1.5-3 MB arrays per round, like a sampler trial's working set
_HEAP_CHURN = """
import json, resource, itercdma, numpy as np
def churn():
    for i in range(20):
        arrays = [np.ones((1_500_000 + 250_000 * ((i + j) % 7)) // 8) for j in range(4 + i % 4)]
        del arrays
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(itercdma.HEAP_POLICY, separators=(",", ":")))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
@pytest.mark.parametrize("preset", [
    {}, {"MALLOC_MMAP_THRESHOLD_": "131072"},
    {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"},
], ids=["default", "malloc_env", "tunables"])
def test_import_keeps_freed_heap_mapped_unless_user_set(preset):
    # the policy's whole effect: freed sampler-sized arrays are reused, not faulted in again
    faults, policy = _python_with_itercdma(_HEAP_CHURN, **preset)
    if preset:
        assert int(faults) > 10_000
        assert json.loads(policy) == "user"
    else:
        assert int(faults) < 100
        assert json.loads(policy) == {"M_MMAP_THRESHOLD": 32 << 20, "M_TRIM_THRESHOLD": 256 << 20}


def test_import_loads_no_scipy():
    # scipy.linalg alone adds about 21 MB of resident memory to every process
    code = ("import sys, itercdma.pipeline, itercdma.rmt, itercdma.cli\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _python_with_itercdma(code) == []


def test_config_text_rejects_non_numeric_value(tmp_path):
    text = "n_users = abc\nspreading_gain = 8\n"
    with pytest.raises(ConfigurationError, match="line 1: n_users expects int, got 'abc'"):
        SystemConfig.from_text(text)
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="line 1") as info:
        SystemConfig.from_file(path)
    assert str(path) in str(info.value)
