"""Map a function over independent items in the calling process and forked workers.

``split_map(fn, items)`` cuts ``items`` into one contiguous part per usable
CPU, computes the first part in the calling process and hands the others to
one process-wide pool of ``fork`` workers, then returns ``fn(item)`` for
every item in item order.  Items must be independent under ``fn``, so each
result is the same bit for bit whatever the number of parts; callers reduce
the results in the calling process, in item order.  ``fn`` must pickle: a
module-level function or method, or a ``functools.partial`` of one.  A
batch function maps over one row part per process (``TurboCode.decode``).

A warning raised by an item in a worker is issued again in the calling
process, in item order.  When items raise, the exception of the lowest
failing item propagates, once every part has finished, so no part of one
call is still running when the next call starts.

The pool is created on the first split with more than one part, which is
also when ``multiprocessing`` is first imported, and is reused until the
interpreter exits, whose shutdown joins its workers.  With one usable CPU,
one item, without ``os.fork`` and ``os.sched_getaffinity`` (both are there on
Linux), inside a ``multiprocessing`` child, or inside the first part of a
split (whose workers are busy with the other parts), everything runs in the
calling process.
"""

from __future__ import annotations

import atexit
import os
import sys
import traceback
import warnings

_pool = None
_pool_pid = None      # the process that created _pool; a forked child must not use it
_in_split = False     # the calling process is computing a split's first part
_registry: dict = {}  # which re-issued warnings were shown, as a module's registry does


def process_count() -> int:
    """Processes a split runs over here: the usable CPUs, or 1 without fork.

    A child of ``multiprocessing`` gets 1 as well.  It would wait at exit for
    its own workers, which stop only after that wait, and a daemonic one may
    not start processes at all.  So does a nested split in the calling
    process, whose workers are busy with the outer split's other parts.
    """
    if _in_split or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
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
        atexit.register(_drop_pool)
    return _pool


def _drop_pool():
    # Release the pool while the interpreter is whole.  Collected only at
    # module teardown, it would print an AttributeError from a callback of
    # concurrent.futures whose module globals are already gone.
    global _pool
    _pool = None


def _map_part(fn, items):
    """A worker's part: (results, warnings raised, exception or None)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            results, error = [fn(item) for item in items], None
        except Exception as exc:
            exc.add_note("raised in a worker process:\n"
                         + "".join(traceback.format_tb(exc.__traceback__)))
            results, error = None, exc
    return results, [(w.message, w.category, w.filename, w.lineno) for w in caught], error


def split_map(fn, items) -> list:
    """``[fn(item) for item in items]``, over contiguous parts in parallel processes."""
    global _in_split
    items = list(items)
    parts = min(len(items), process_count())
    if parts < 2:
        return [fn(item) for item in items]
    size, extra = divmod(len(items), parts)
    edges = [i * size + min(i, extra) for i in range(parts + 1)]
    first, *rest = (items[lo:hi] for lo, hi in zip(edges, edges[1:]))
    futures = [_get_pool().submit(_map_part, fn, part) for part in rest]
    _in_split = True
    try:
        results = [fn(item) for item in first]
    except Exception:
        for future in futures:
            future.exception()      # every part finishes before the error propagates
        raise
    finally:
        _in_split = False
    for part, caught, error in [future.result() for future in futures]:   # every part ends
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=_registry)
        if error is not None:
            raise error
        results += part
    return results

