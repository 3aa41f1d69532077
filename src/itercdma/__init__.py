"""Link-level simulation and analytic models of an iterating DS-CDMA receiver.

The receiver estimates multipath channel gains by stacked least squares
(training first, decoder feedback afterwards), cancels multiple-access
interference in parallel using those estimates and the fed-back symbol
decisions, combines paths by their estimated gains, decodes, and loops.
The package simulates that loop end to end and carries the matching
closed-form performance expressions so each stage's Monte Carlo statistics
can be checked against its large-system prediction, and the whole loop
against a one-dimensional fixed-point map.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless the variable
is already set: the work is many small dense products, Grams 100-300 wide
and frames 30-100 chips long, where OpenBLAS threads cost more than they
save.  The package needs numpy alone; numpy's OpenBLAS reads the variable
when numpy is loaded, so it only takes effect when ``itercdma`` is imported
before numpy.

On glibc, importing the package also fixes the allocator's mmap threshold
at 32 MiB and its trim threshold at 256 MiB (``mallopt``), so the 1.5-3 MB
arrays that every Monte Carlo trial allocates and frees are reused from the
heap rather than unmapped and faulted in again at the next trial.  The
setting is process-wide and the worker processes inherit it.  It is left
alone when the user has set ``MALLOC_MMAP_THRESHOLD_``,
``MALLOC_TRIM_THRESHOLD_``, ``MALLOC_TOP_PAD_`` or a ``glibc.malloc.*``
entry of ``GLIBC_TUNABLES``.  :data:`HEAP_POLICY` records the outcome: the
thresholds applied (empty if glibc refused both), ``"user"``, or ``None`` off
glibc.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _set_heap_policy():
    """Apply the glibc thresholds above unless the user set their own."""
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None
    if ("glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")
            or any(name in os.environ for name in
                   ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_"))):
        return "user"
    import ctypes
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # parameter numbers from glibc's <malloc.h>
    thresholds = {"M_MMAP_THRESHOLD": (-3, 32 << 20), "M_TRIM_THRESHOLD": (-1, 256 << 20)}
    return {name: value for name, (param, value) in thresholds.items()
            if mallopt(param, value) == 1}


HEAP_POLICY = _set_heap_policy()

__version__ = "0.1.0"

from .config import SystemConfig, derive_stream, noise_var_from_snr_db
from .exceptions import (ConfigurationError, DataQualityWarning, ItercdmaError,
                         ParameterError, RankError, SolverError)

__all__ = [
    "__version__", "HEAP_POLICY",
    "SystemConfig", "derive_stream", "noise_var_from_snr_db",
    "ItercdmaError", "ConfigurationError", "ParameterError", "RankError",
    "SolverError", "DataQualityWarning",
]
