"""Eigenvalue moments of the stacked code Gram matrix.

For the stacked (N*M x K*L) code matrix S with unit-norm columns, the
m-th spectral moment of S S^T (averaged over all N*M eigenvalues, most of
which vanish) depends only on the equivalent load beta' = K*L/(M*N) in the
large-system limit, and satisfies the self-referential recursion

    E[lam^{m+1}] = beta' * sum over compositions (m_1,...,m_k) of m+1
                   of  prod_i E[lam^{m_i - 1}],       E[lam^0] = 1.

The first few values are beta', beta'(1+beta'), beta'(beta'^2+3beta'+1).
Crucially the same limit holds whether per-path codes are independent or
delayed windows of one chip stream, which is what licenses the independent
-code analysis for the physically shifted construction; the empirical
comparison here checks that at finite size.  Empirically, S = Q / sqrt(N)
for the int8 +-1 stacked matrix Q, so Q^T Q is an integer matrix with
entries of at most M*N; a float32 product forms it exactly while M*N < 2^24,
and one scaling by 1/(N*M) gives the normalized Gram.  The moments also obey
E[lam^m] < C^m m^(m-2) for any C > max(1, beta'), which keeps the moment
problem determinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace
from functools import partial

import numpy as np

from ._workers import split_map
from .config import SystemConfig, derive_stream
from .exceptions import ParameterError
from .estimator import build_stacked_matrix
from . import system_model as sm

# Highest moment order compared.  The recursion is cheap at any order; the
# bound limits the empirical side, whose cost grows with the order (one
# Gram product per two orders) and whose high orders are ruled by the few
# largest eigenvalues.
MAX_MOMENT_ORDER = 12
_BOUND_CONSTANT = 1.5   # C of the reported bounds C^m m^(m-2)


def mp_moments(stacked_load: float, max_order: int) -> np.ndarray:
    """Spectral moments E[lam^m] for m = 1..max_order via the recursion."""
    if max_order < 1:
        raise ParameterError("max_order must be at least 1")
    if max_order > MAX_MOMENT_ORDER:
        raise ParameterError(
            f"moment order {max_order} exceeds the cost guard ({MAX_MOMENT_ORDER})")
    if stacked_load < 0:
        raise ParameterError("stacked_load must be nonnegative")
    moments = np.empty(max_order + 1)
    comp_sum = np.empty(max_order + 1)
    moments[0] = comp_sum[0] = 1.0
    # comp_sum[n] = sum over compositions of n of prod E[lam^{part-1}];
    # convolution form: comp_sum[n] = sum_j moments[j-1] * comp_sum[n-j].
    for n in range(1, max_order + 1):
        comp_sum[n] = sum(moments[j - 1] * comp_sum[n - j] for j in range(1, n + 1))
        moments[n] = stacked_load * comp_sum[n]
    return moments[1:]


def _moment_bounds(constant: float, max_order: int) -> np.ndarray:
    """The bounds C^m m^(m-2) for m = 1..max_order."""
    orders = np.arange(1, max_order + 1, dtype=float)
    return constant ** orders * orders ** (orders - 2)


def moment_bound_check(stacked_load: float, constant: float,
                       max_order: int) -> np.ndarray:
    """Check E[lam^m] < C^m * m^(m-2) for m = 1..max_order."""
    if constant <= max(1.0, stacked_load):
        raise ParameterError(
            f"constant must exceed max(1, stacked_load) = {max(1.0, stacked_load):g}")
    return mp_moments(stacked_load, max_order) < _moment_bounds(constant, max_order)


@dataclass
class MomentReport:
    """Analytic versus empirical spectral moments for both code models."""

    stacked_load: float
    orders: np.ndarray
    analytic: np.ndarray
    empirical_independent: np.ndarray
    empirical_shifted: np.ndarray
    stderr_independent: np.ndarray
    stderr_shifted: np.ndarray
    bounds: np.ndarray
    trials: int

    def table(self) -> list:
        """The moment table as a header row plus one row per order, for CSV."""
        rows = [["m", "analytic", "emp_indep", "emp_shifted",
                 "stderr_indep", "stderr_shifted", "bound"]]
        for i, m in enumerate(self.orders):
            rows.append([int(m), f"{self.analytic[i]:.8g}",
                         f"{self.empirical_independent[i]:.8g}",
                         f"{self.empirical_shifted[i]:.8g}",
                         f"{self.stderr_independent[i]:.4g}",
                         f"{self.stderr_shifted[i]:.4g}", f"{self.bounds[i]:.8g}"])
        return rows


def _trial_moments(config: SystemConfig, max_order: int,
                   rng: np.random.Generator) -> np.ndarray:
    m, n = config.coherence_time, config.spreading_gain
    signs = sm.generate_code_signs(config, rng)
    q = build_stacked_matrix(signs, sm.generate_symbols(config, rng)).matrix
    # the int8 q = sqrt(N) S gives the integers q^T q exactly in float32; the
    # analyzed ensemble's columns have norm one where S's have norm sqrt(M)
    q = q.astype(np.float32)
    gram = (q.T @ q).astype(float) / (m * n)
    powers = [np.eye(len(gram)), gram]                # powers[i] = G^i
    for _ in range((max_order + 1) // 2 - 1):
        powers.append(powers[-1] @ gram)
    # tr(G^m) = <G^ceil(m/2), G^floor(m/2)>_F, as every power is symmetric
    traces = [np.vdot(powers[(order + 1) // 2], powers[order // 2])
              for order in range(1, max_order + 1)]
    return np.array(traces) / (m * n)


def _model_trial_moments(config: SystemConfig, max_order: int, experiment_id: str,
                         item: tuple[str, int]) -> np.ndarray:
    """Trial ``t`` of code model ``model``, ``item = (model, t)``."""
    model, t = item
    rng = derive_stream(config.seed, f"{experiment_id}/{model}", t)
    return _trial_moments(replace(config, code_model=model), max_order, rng)


def empirical_eigen_moments(config: SystemConfig, max_order: int, trials: int,
                            experiment_id: str = "rmt-moments") -> MomentReport:
    """Monte Carlo spectral moments under both code models, plus analytics.

    S S^T and the K*L Gram G = S^T S share their nonzero spectrum, so the
    m-th moment is tr(G^m) over the full eigenvalue count N*M; the trace
    comes from ceil(max_order/2) - 1 products of G, with no
    eigendecomposition.  The (model, trial) pairs are split over the worker
    processes (``itercdma._workers.split_map``), and every moment and
    standard error is the same bit for bit for any process count.
    """
    if trials < 2:
        raise ParameterError("need at least two trials for standard errors")
    analytic = mp_moments(config.stacked_load, max_order)   # checks max_order first
    if config.coherence_time * config.spreading_gain >= 2 ** 24:
        raise ParameterError("M*N reaches 2^24, past the exact float32 integer Gram")
    models = ("independent", "shifted")
    rows = split_map(partial(_model_trial_moments, config, max_order, experiment_id),
                     [(model, t) for model in models for t in range(trials)])
    samples = dict(zip(models, np.reshape(rows, (len(models), trials, max_order))))

    return MomentReport(
        stacked_load=config.stacked_load,
        orders=np.arange(1, max_order + 1),
        analytic=analytic,
        empirical_independent=samples["independent"].mean(axis=0),
        empirical_shifted=samples["shifted"].mean(axis=0),
        stderr_independent=samples["independent"].std(axis=0, ddof=1) / np.sqrt(trials),
        stderr_shifted=samples["shifted"].std(axis=0, ddof=1) / np.sqrt(trials),
        bounds=_moment_bounds(_BOUND_CONSTANT, max_order),
        trials=trials,
    )
