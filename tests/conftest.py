import itercdma  # noqa: F401  (first, so its BLAS thread policy precedes numpy)

import dataclasses
import os

import numpy as np
import pytest

from itercdma.codec import CodecSpec, CodedBpskSource, estimate_gcurve, make_codec
from itercdma.config import derive_stream

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def assert_same_fields(first, second):
    """Two dataclass results agree bit for bit in every field, arrays included."""
    for field in dataclasses.fields(first):
        a, b = getattr(first, field.name), getattr(second, field.name)
        assert np.array_equal(a, b), field.name


@pytest.fixture
def use_cpus(monkeypatch):
    """``use_cpus(count)`` makes every split run over ``count`` processes, whatever this host has."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    return use


@pytest.fixture
def serial(monkeypatch):
    """``serial(fn, *args)`` is ``fn(*args)`` computed in the calling process alone."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            return fn(*args, **kwargs)
    return run


@pytest.fixture(scope="session")
def conv_codec():
    return make_codec(CodecSpec())


@pytest.fixture(scope="session")
def turbo_codec():
    return make_codec(CodecSpec.turbo())


@pytest.fixture(scope="session")
def conv_gcurve(conv_codec):
    """Monte Carlo decoder curve of the rate-1/2 convolutional chain.

    Estimated once per session; the grid is finer through the waterfall.
    """
    rng = derive_stream(1234, "tests/gcurve-conv", 0)
    grid = np.concatenate([np.linspace(0.25, 1.5, 11), np.linspace(1.75, 4.0, 6)])
    return estimate_gcurve(CodedBpskSource(conv_codec), grid, rng,
                           target_errors=120, max_codewords=300, label="conv")
