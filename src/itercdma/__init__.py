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
save.  numpy and scipy each load their own OpenBLAS and read the variable
then, so it only takes effect when ``itercdma`` is imported before numpy.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .config import SystemConfig, derive_stream, noise_var_from_snr_db
from .exceptions import (ConfigurationError, DataQualityWarning, ItercdmaError,
                         ParameterError, RankError, SolverError)

__all__ = [
    "__version__",
    "SystemConfig", "derive_stream", "noise_var_from_snr_db",
    "ItercdmaError", "ConfigurationError", "ParameterError", "RankError",
    "SolverError", "DataQualityWarning",
]
