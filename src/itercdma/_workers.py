"""Split a batch by rows over the calling process and forked workers.

``split_rows(fn, rows)`` cuts ``rows`` into one contiguous part per usable
CPU, computes the first part in the calling process and hands the others to
one process-wide pool of ``fork`` workers, then concatenates the results in
row order.  Rows must be independent under ``fn``, so the result is the same
bit for bit whatever the number of parts.

The pool is created on the first split with more than one part, which is
also when ``multiprocessing`` is first imported, and is reused until the
interpreter exits, whose shutdown joins its workers.  With one usable CPU,
one row, without ``os.fork`` and ``os.sched_getaffinity`` (both are there on
Linux), or inside a ``multiprocessing`` child, ``fn`` runs on the whole batch
in the calling process.
"""

from __future__ import annotations

import os
import sys

import numpy as np

_pool = None
_pool_pid = None      # the process that created _pool; a forked child must not use it


def process_count() -> int:
    """Processes a split runs over here: the usable CPUs, or 1 without fork.

    A child of ``multiprocessing`` gets 1 as well.  It would wait at exit for
    its own workers, which stop only after that wait, and a daemonic one may
    not start processes at all.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    mp = sys.modules.get("multiprocessing")     # imported in every such child
    if mp is not None and mp.parent_process() is not None:
        return 1
    return len(os.sched_getaffinity(0))


def _init_worker(parent: int):
    # Ctrl-C reaches the whole process group; the calling process handles it,
    # and its exit stops the workers.  A parent that dies without that exit
    # (SIGKILL, SIGTERM) would leave them waiting for work forever, so each
    # worker also exits within a second of losing its parent.
    import signal
    import threading
    import time

    def exit_with_parent():
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=exit_with_parent, daemon=True).start()


def _get_pool():
    global _pool, _pool_pid
    if _pool is None or _pool_pid != os.getpid():
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        _pool = ProcessPoolExecutor(process_count() - 1,
                                    mp_context=multiprocessing.get_context("fork"),
                                    initializer=_init_worker, initargs=(os.getpid(),))
        _pool_pid = os.getpid()
    return _pool


def split_rows(fn, rows: np.ndarray) -> np.ndarray:
    """``fn(rows)``, computed over contiguous row parts in parallel processes."""
    parts = min(len(rows), process_count())
    if parts < 2:
        return fn(rows)
    first, *rest = np.array_split(rows, parts)
    futures = [_get_pool().submit(fn, part) for part in rest]
    results = [fn(first)]
    results += [future.result() for future in futures]
    return np.concatenate(results)
