"""The Monte Carlo loops split their draws over processes and keep every bit.

The stage samplers and the receiver's trials go through
``itercdma._workers.split_map``; every result must equal the serial one
exactly, whatever the number of processes, and warnings and errors raised in
a worker must reach the caller.
"""

import dataclasses
import os
import warnings
from functools import partial

import numpy as np
import pytest

from conftest import assert_same_fields
from itercdma import _workers, detector, estimator, pipeline, rmt
from itercdma.config import SystemConfig
from itercdma.exceptions import RankError
from itercdma.solvers import cholesky_factor

_SMALL = SystemConfig(n_users=4, spreading_gain=16, n_paths=2, coherence_time=8,
                      noise_var=0.1, seed=3)

# uneven parts at 2 and 3 processes; at 2, the PIC split cuts realization 1 in two
_SAMPLERS = {
    "estimation": partial(estimator.empirical_estimation_stats, _SMALL, 0.1,
                          trials=15, realizations=5),
    "pic_leave_one_out": partial(detector.measure_pic_stats, _SMALL, 0.1,
                                 frames=6, realizations=3),
    "moments": partial(rmt.empirical_eigen_moments, _SMALL, max_order=4, trials=3),
}


def _receiver_config(noise_var=0.3):
    # 32 data symbols per block: a 1024-symbol codeword fills 32 blocks
    return SystemConfig(n_users=3, spreading_gain=16, n_paths=2, coherence_time=34,
                        n_training=2, noise_var=noise_var, seed=4)


def _assert_same_trace(first, second):
    for field in dataclasses.fields(first):
        a, b = getattr(first, field.name), getattr(second, field.name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("sampler", list(_SAMPLERS))
def test_sampler_split_matches_serial(use_cpus, serial, sampler, processes):
    run = _SAMPLERS[sampler]
    use_cpus(processes)
    assert _workers.process_count() == processes
    assert_same_fields(run(), serial(run))


@pytest.mark.parametrize("trials", [1, 2, 3])
@pytest.mark.parametrize("mode", pipeline.MODES)
def test_receiver_split_matches_serial(use_cpus, serial, conv_codec, mode, trials):
    run = partial(pipeline.run_iterative_receiver, _receiver_config(), conv_codec,
                  iterations=2, trials=trials, mode=mode)
    expected = serial(run)
    for processes in (2, 3):
        use_cpus(processes)
        _assert_same_trace(run(), expected)


def test_turbo_receiver_split_matches_serial(use_cpus, serial, turbo_codec):
    # each trial's turbo decode runs nested in its part of the trial split
    run = partial(pipeline.run_iterative_receiver, _receiver_config(), turbo_codec,
                  iterations=2, trials=2, mode="iterative")
    expected = serial(run)
    use_cpus(2)
    _assert_same_trace(run(), expected)


def test_worker_warnings_reach_the_caller_in_item_order(use_cpus):
    use_cpus(2)
    with pytest.warns(RuntimeWarning) as caught:
        _workers.split_map(partial(warnings.warn, category=RuntimeWarning), ["a", "b", "c"])
    assert [str(w.message) for w in caught] == ["a", "b", "c"]


def test_worker_ridge_warnings_reach_the_caller(use_cpus, serial, conv_codec):
    # noiseless LMMSE covariances are singular: every block of every trial warns
    run = partial(pipeline.run_iterative_receiver, _receiver_config(noise_var=0.0),
                  conv_codec, trials=2, mode="lmmse_only")
    with pytest.warns(RuntimeWarning, match="ridge") as expected:
        serial(run)
    use_cpus(2)
    with pytest.warns(RuntimeWarning, match="ridge") as caught:
        run()
    assert len(caught) == len(expected) == 2 * 32


def _processes_seen(item):
    return _workers.process_count()


def test_nested_split_runs_in_its_process(use_cpus):
    # the workers are busy with the outer split's parts, so a split inside
    # any part (a turbo decode in a split trial) must not wait for them
    use_cpus(2)
    assert _workers.split_map(_processes_seen, range(4)) == [1, 1, 1, 1]
    assert _workers.process_count() == 2


def test_worker_error_propagates_and_the_pool_is_reused(use_cpus):
    import multiprocessing
    use_cpus(2)
    grams = [np.eye(3), 2 * np.eye(3), np.zeros((3, 3))]     # only the worker's item fails
    with pytest.raises(RankError, match="not positive definite"):
        _workers.split_map(cholesky_factor, grams)
    pool = _workers._pool
    workers = {p.pid for p in multiprocessing.active_children()}
    assert workers
    factors = _workers.split_map(cholesky_factor, grams[:2] + [3 * np.eye(3)])
    assert [f[0][0][0, 0] ** 2 for f in factors] == pytest.approx([1.0, 2.0, 3.0])
    assert _workers._pool is pool
    assert {p.pid for p in multiprocessing.active_children()} == workers


def test_lowest_failing_item_wins(use_cpus):
    use_cpus(3)
    grams = [np.eye(2), -np.eye(2), np.diag([1.0, 1e-20])]   # each item in its own part
    with pytest.raises(RankError, match="not positive definite"):
        _workers.split_map(cholesky_factor, grams)
    with pytest.raises(RankError, match="condition estimate"):
        _workers.split_map(cholesky_factor, grams[::2])


def _samplers_in_child(results):
    results.put(({name: dataclasses.asdict(run()) for name, run in _SAMPLERS.items()},
                 _workers.process_count(), _workers._pool_pid == os.getpid()))


@pytest.mark.parametrize("daemonic", [True, False])
def test_multiprocessing_child_runs_samplers_alone(use_cpus, serial, daemonic):
    import multiprocessing
    use_cpus(2)
    fork = multiprocessing.get_context("fork")
    results = fork.SimpleQueue()
    child = fork.Process(target=_samplers_in_child, args=(results,), daemon=daemonic)
    child.start()
    child.join(60)          # the result is far smaller than a pipe buffer
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0
    got, count, own_pool = results.get()
    assert count == 1 and not own_pool
    for name, run in _SAMPLERS.items():
        expected = dataclasses.asdict(serial(run))
        assert got[name].keys() == expected.keys()
        for key in expected:
            assert np.array_equal(got[name][key], expected[key]), (name, key)
