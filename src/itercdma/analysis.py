"""Closed-form performance expressions and the receiver's iterative map.

These are the large-system / long-block limits the simulator is checked
against:

* channel-estimation error variance from training only,
  ``noise_var / (M - L*beta)``, and from decision feedback,
  ``4*(1-alpha)*Pe*(1 + beta*L)/(L*M) + noise_var/M``;
* the entrywise limit of the feedback-error covariance (three branches:
  diagonal, same user, different users);
* residual interference power after cancellation,
  ``beta*L*Delta_a + 4*beta*(1-Pe)*Pe + noise_var``;
* the scalar model of the combined detector output,
  gain ``1-2Pe`` and variance ``((1-2Pe)^2 + L*Delta_a) * sigma_I^2``.

Chaining detector output into the decoder curve g turns one receiver pass
into the scalar recursion  Pe_d = g(D0 + D1 * Pe_{d-1}); the coefficients
D0, D1 collect the noise-only and feedback-proportional parts of the
inverse SINR after dropping terms of smaller order than Pe and 1/M.  The
fixed-point utilities certify contraction (unique fixed point, geometric
convergence) or construct instances with multiple fixed points, and the
noise-slope of D0 at zero gives the efficiency loss relative to a
single-user system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterError

_GRID_POINTS = 10_000     # uniform grid on which fixed points are counted
_EFFICIENCY_STEP = 1e-6   # noise step of the finite-difference slope of D0
_SETTLE_TOL = 1e-12       # iterate_map stops once a step moves Pe by less
LOAD_GRID = tuple(i / 20 for i in range(1, 41))  # capacity-search loads 0.05, 0.10, ..., 2.0


# ---------------------------------------------------------------------------
# estimation-error variances


def check_error_rate(error_rate: float) -> None:
    if not 0.0 <= error_rate <= 0.5:
        raise ParameterError(f"error_rate must lie in [0, 0.5], got {error_rate}")


def training_estimate_variance(noise_var: float, coherence_time: float,
                               n_paths: float, load: float) -> float:
    """Per-coefficient error variance of training-only estimation."""
    effective = coherence_time - n_paths * load
    if effective <= 0:
        raise ParameterError(
            f"coherence_time must exceed n_paths*load ({n_paths * load:g})")
    return noise_var / effective


def feedback_estimate_variance(error_rate: float, load: float, n_paths: float,
                               coherence_time: float, noise_var: float,
                               training_fraction: float = 0.0) -> float:
    """Per-coefficient error variance of decision-feedback estimation.

    With a training fraction alpha, feedback errors only touch the
    remaining periods, so the effective error rate is (1-alpha)*Pe.
    """
    check_error_rate(error_rate)
    if coherence_time < 1:
        raise ParameterError("coherence_time must be at least 1")
    pe_eff = (1.0 - training_fraction) * error_rate
    return (4.0 * pe_eff * (1.0 + load * n_paths) / (n_paths * coherence_time)
            + noise_var / coherence_time)


def feedback_covariance_limit_entry(i: int, j: int, gains_flat: np.ndarray,
                                    error_rate: float, spreading_gain: int,
                                    n_paths: int) -> complex:
    """Entry (i, j) of the long-block limit of M times the feedback covariance.

    Three branches: diagonal, same user (i != j), different users.  The
    caller divides by the coherence time to get the covariance itself.
    """
    kl = len(gains_flat)
    if not (0 <= i < kl and 0 <= j < kl):
        raise ParameterError("index out of range")
    inv_n = 1.0 / spreading_gain
    if i == j:
        others = np.sum(np.abs(gains_flat) ** 2) - abs(gains_flat[i]) ** 2
        return complex(4.0 * error_rate * (abs(gains_flat[i]) ** 2 + inv_n * others))
    cross = gains_flat[i] * np.conj(gains_flat[j])
    if i // n_paths == j // n_paths:
        return complex(4.0 * error_rate * (1.0 + inv_n) * cross)
    return complex(4.0 * error_rate ** 2 * (1.0 + inv_n) * cross)


def max_useful_error_rate(noise_var: float, n_paths: float,
                          training_fraction: float, load: float) -> float:
    """Largest feedback error rate at which feedback still helps training.

    Values above one half mean feedback helps at any achievable error rate.
    Increases with noise and paths, decreases with training share and load.
    """
    if training_fraction <= 0:
        raise ParameterError("training_fraction must be positive (no baseline otherwise)")
    return noise_var * n_paths / (4.0 * training_fraction * (1.0 + load * n_paths))


# ---------------------------------------------------------------------------
# detector-side expressions


def residual_interference_variance(est_error_variance: float, load: float,
                                   n_paths: float, error_rate: float,
                                   noise_var: float) -> float:
    """Power of residual interference plus noise at one cleaned path output."""
    check_error_rate(error_rate)
    if min(est_error_variance, load, n_paths, noise_var) < 0:
        raise ParameterError("all inputs must be nonnegative")
    return (load * n_paths * est_error_variance
            + 4.0 * load * (1.0 - error_rate) * error_rate
            + noise_var)


@dataclass(frozen=True)
class PicOutputModel:
    """Scalar model of the combined detector output z = gain*b + noise."""

    gain: float
    variance: float

    @property
    def sinr(self) -> float:
        return self.gain ** 2 / self.variance


def pic_output_model(error_rate: float, est_error_variance: float,
                     n_paths: float, interference_var: float) -> PicOutputModel:
    check_error_rate(error_rate)
    gain = 1.0 - 2.0 * error_rate
    variance = (gain ** 2 + n_paths * est_error_variance) * interference_var
    return PicOutputModel(gain=gain, variance=variance)


# ---------------------------------------------------------------------------
# the iterative map


@dataclass(frozen=True)
class MapCoefficients:
    """Affine-in-Pe model of the decoder-input 1/SINR: D0 + D1 * Pe."""

    d0: float
    d1: float


def map_coefficients(noise_var: float, load: float, n_paths: float,
                     coherence_time: float) -> MapCoefficients:
    if coherence_time < 1:
        raise ParameterError("coherence_time must be at least 1")
    if load < 0 or n_paths < 1:
        raise ParameterError("load must be nonnegative and n_paths at least 1")
    if not (math.isfinite(noise_var) and math.isfinite(load)):
        raise ParameterError(f"noise_var and load must be finite, got {noise_var} and {load}")
    s, b, l, m = noise_var, load, n_paths, coherence_time
    d0 = s * (1.0 + b * l / m + l * s / m)
    d1 = 4.0 * (b + (b + s * b * l ** 2 + b ** 2 * l + s * l + l * b * s
                     + l * s ** 2) / m)
    return MapCoefficients(d0=d0, d1=d1)


@dataclass
class FixedPointReport:
    """Outcome of iterating Pe <- g(D0 + D1*Pe)."""

    trace: np.ndarray
    fixed_point: float | None
    converged: bool
    iterations: int
    contraction_modulus: float | None = None
    banach_certified: bool = False
    error_bounds: np.ndarray | None = None   # gamma^k/(1-gamma)*|p0 - pf|
    left_domain: bool = False


def iterate_map(g, coeffs: MapCoefficients, start: float,
                max_iter: int = 200) -> FixedPointReport:
    """Iterate the error-rate map from ``start`` until it settles.

    The map argument D0 + D1*Pe must stay inside the curve's domain
    [0, sigma_I_max]; leaving it is reported as divergence, not an error.
    Contraction is certified when D1 * max g' < 1, in which case the
    geometric error-bound sequence is attached.
    """
    if not 0 <= start < math.inf:
        raise ParameterError(f"start must be finite and nonnegative, got {start}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    trace = [float(start)]
    sigma_max = g.sigma_I_max
    left_domain = False
    converged = False
    for _ in range(max_iter):
        x = coeffs.d0 + coeffs.d1 * trace[-1]
        if x > sigma_max or x < 0:
            left_domain = True
            break
        nxt = float(g(x))
        trace.append(nxt)
        if abs(trace[-1] - trace[-2]) < _SETTLE_TOL:
            converged = True
            break
    trace = np.asarray(trace)
    fixed_point = float(trace[-1]) if converged else None

    gamma = coeffs.d1 * g.max_slope
    certified = bool(converged and gamma < 1.0)
    bounds = (gamma ** np.arange(len(trace)) / (1.0 - gamma) * abs(trace[0] - fixed_point)
              if certified else None)
    return FixedPointReport(trace=trace, fixed_point=fixed_point,
                            converged=converged, iterations=len(trace) - 1,
                            contraction_modulus=gamma,
                            banach_certified=certified,
                            error_bounds=bounds, left_domain=left_domain)


@dataclass(frozen=True)
class ConvergenceCheck:
    """The two entry conditions for the iteration to make progress."""

    within_domain: bool           # sigma_I^2(0) < sigma_I_max
    decreasing: bool              # g(sigma_I^2(0)) < (sigma_I^2(0) - D0)/D1
    decrease_margin: float


def check_convergence_conditions(g, initial_interference_var: float,
                                 coeffs: MapCoefficients) -> ConvergenceCheck:
    """Evaluate both start-up conditions in the interference-power domain."""
    if not coeffs.d1 > 0:
        raise ParameterError(f"D1 must be positive, got {coeffs.d1}")
    within = initial_interference_var < g.sigma_I_max
    threshold = (initial_interference_var - coeffs.d0) / coeffs.d1
    value = float(g(initial_interference_var))
    return ConvergenceCheck(within_domain=bool(within),
                            decreasing=bool(value < threshold),
                            decrease_margin=float(threshold - value))


@dataclass
class MultiFixedPointInstance:
    """A constructed offset giving the map several fixed points."""

    d0: float
    d1: float
    sign_changes: int
    crossings: np.ndarray         # approximate fixed points found on the grid


@dataclass
class UniquenessReport:
    certified: bool
    max_slope: float
    d1_limit: float | None        # largest D1 the certificate admits
    counterexample: MultiFixedPointInstance | None = None


def _count_fixed_points(g, d0: float, d1: float):
    """Sign changes of D0 + D1*g(x) - x across a uniform grid on the domain."""
    xs = np.linspace(0.0, g.sigma_I_max, _GRID_POINTS)
    h = d0 + d1 * g(xs) - xs
    signs = np.sign(h)
    nonzero = signs != 0
    flips = np.nonzero(np.diff(signs[nonzero]) != 0)[0]
    idx = np.nonzero(nonzero)[0]
    crossings = 0.5 * (xs[idx[flips]] + xs[idx[flips + 1]])
    return len(flips), crossings


def construct_multiple_fixed_points(g, x1: float, d1: float) -> MultiFixedPointInstance | None:
    """Build an offset D0 that makes x1's image a non-attracting fixed point.

    Requires 1/g'(x1) < D1 < x1/g(x1); returns None when that window is
    empty at the given anchor.  The construction sets D0 = x1 - D1*g(x1)
    and is verified by counting grid sign changes of the displaced map.
    """
    slope = float(g.derivative(x1))
    value = float(g(x1))
    if slope <= 0 or value <= 0:
        return None
    if not (1.0 / slope < d1 < x1 / value):
        return None
    d0 = x1 - d1 * value
    changes, crossings = _count_fixed_points(g, d0, d1)
    return MultiFixedPointInstance(d0=d0, d1=d1, sign_changes=changes, crossings=crossings)


def check_uniqueness(g, d1: float, gamma: float) -> UniquenessReport:
    """Certify a unique fixed point, or construct a multi-fixed-point case.

    Certification: if D1 <= gamma / max g' for some gamma < 1, the map is a
    contraction and has a single fixed point reached at geometric rate.
    When the certificate fails, anchors x with 1/g'(x) < D1 < x/g(x) are
    scanned; the first that yields a verified instance (at least two grid
    sign changes) is returned as the counterexample; without one, none was
    found.  A flat curve certifies with no limit on D1.
    """
    if not 0 < gamma < 1:
        raise ParameterError("gamma must lie in (0, 1)")
    max_slope = g.max_slope
    if max_slope <= 0:
        return UniquenessReport(certified=True, max_slope=max_slope, d1_limit=None)
    limit = gamma / max_slope
    if d1 <= limit:
        return UniquenessReport(certified=True, max_slope=max_slope, d1_limit=limit)
    for x1 in np.linspace(g.sigma_I_max, 0.0, 200, endpoint=False):
        instance = construct_multiple_fixed_points(g, float(x1), d1)
        if instance is not None and instance.sign_changes >= 2:
            return UniquenessReport(certified=False, max_slope=max_slope, d1_limit=limit,
                                    counterexample=instance)
    return UniquenessReport(certified=False, max_slope=max_slope, d1_limit=limit)


# ---------------------------------------------------------------------------
# efficiency and capacity helpers


def asymptotic_efficiency(n_paths: float, load: float,
                          coherence_time: float) -> float:
    """Vanishing-noise SNR-slope ratio relative to a single-user system."""
    if min(n_paths, load, coherence_time) <= 0:
        raise ParameterError("inputs must be positive")
    return 1.0 / (1.0 + n_paths * load / coherence_time)


def asymptotic_efficiency_from_map(n_paths: float, load: float,
                                   coherence_time: float) -> float:
    """Same quantity via the noise-slope of D0 at zero (finite differences)."""
    up = map_coefficients(_EFFICIENCY_STEP, load, n_paths, coherence_time).d0
    down = map_coefficients(-_EFFICIENCY_STEP, load, n_paths, coherence_time).d0
    return 1.0 / ((up - down) / (2.0 * _EFFICIENCY_STEP))


def bisect_max_load(feasible) -> float:
    """Largest feasible load of :data:`LOAD_GRID`, assuming monotone feasibility.

    ``feasible`` maps a load to a boolean; callers that want a record of
    the probes keep it inside ``feasible``.  Returns 0.0 (with no further
    probing) when even the lowest grid point fails.
    """
    if not feasible(LOAD_GRID[0]):
        return 0.0
    lo, hi = 0, len(LOAD_GRID) - 1
    if feasible(LOAD_GRID[hi]):
        return LOAD_GRID[hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(LOAD_GRID[mid]):
            lo = mid
        else:
            hi = mid
    return LOAD_GRID[lo]
