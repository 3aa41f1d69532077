"""Decoder characteristic: feedback symbol error rate versus inverse SINR.

The curve maps the scalar-channel quality x = 1/SINR seen at the decoder
input to the error rate of the re-encoded channel symbols it feeds back.
It is estimated pointwise by Monte Carlo on the equivalent BPSK channel
z = b + n with complex noise variance x, then repaired to a monotone
nondecreasing table by pool-adjacent-violators and pinned so that the
curve starts flat at the origin (zero value and zero slope).  Evaluation
is monotone piecewise-linear interpolation; the derivative accessor
returns segment slopes, and the largest usable abscissa (error rate still
below one half) bounds the domain.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..config import read_text
from ..exceptions import ConfigurationError, DataQualityWarning, ParameterError

_BATCH = 25               # codewords per Monte Carlo measurement
_REPAIR_TOLERANCE = 0.25  # largest isotonic move, relative to the curve maximum


@dataclass
class GCurve:
    """Monotone piecewise-linear decoder curve with domain [0, sigma_I_max]."""

    xs: np.ndarray
    pes: np.ndarray
    label: str = ""
    info_ber: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.pes = np.asarray(self.pes, dtype=float)
        if self.xs.ndim != 1 or self.xs.shape != self.pes.shape:
            raise ParameterError("xs and pes must be 1-D arrays of equal length")
        if len(self.xs) < 2:
            raise ParameterError(
                f"a decoder curve needs at least two points, got {len(self.xs)}")
        columns = [self.xs, self.pes]
        if self.info_ber is not None:
            self.info_ber = np.asarray(self.info_ber, dtype=float)
            if self.info_ber.shape != self.xs.shape:
                raise ParameterError("info_ber must have the shape of xs")
            columns.append(self.info_ber)
        if not all(np.all(np.isfinite(column)) for column in columns):
            raise ParameterError("decoder curve values must be finite")
        if np.any(np.diff(self.xs) <= 0):
            raise ParameterError("xs must be strictly increasing")
        for name, rates in (("pes", self.pes), ("info_ber", self.info_ber)):
            if rates is not None and np.any((rates < 0) | (rates > 1)):
                raise ParameterError(
                    f"{name} must lie in [0, 1], got {rates.min():g} to {rates.max():g}")
        if np.any(np.diff(self.pes) < 0):
            raise ParameterError("pes must be nondecreasing (isotonic repair first)")

    def __call__(self, x):
        return np.interp(x, self.xs, self.pes)

    def derivative(self, x) -> np.ndarray:
        """Slope of the segment containing x (right-continuous at knots)."""
        slopes = np.diff(self.pes) / np.diff(self.xs)
        idx = np.clip(np.searchsorted(self.xs, x, side="right") - 1,
                      0, len(slopes) - 1)
        return slopes[idx]

    @property
    def max_slope(self) -> float:
        return float(np.max(np.diff(self.pes) / np.diff(self.xs)))

    @property
    def sigma_I_max(self) -> float:
        """Largest tabulated x at which the decoder is still usable (Pe < 1/2)."""
        usable = self.xs[self.pes < 0.5]
        return float(usable[-1]) if usable.size else 0.0

    def save_csv(self, path) -> None:
        columns = [self.xs, self.pes] + ([] if self.info_ber is None else [self.info_ber])
        with open(path, "w", newline="") as fh:
            fh.write(f"# gcurve label={self.label}\n")
            writer = csv.writer(fh)
            writer.writerow(["x", "pe", "info_ber"][:len(columns)])
            writer.writerows([f"{value:.10g}" for value in row] for row in zip(*columns))

    @classmethod
    def load_csv(cls, path) -> "GCurve":
        label = ""
        xs, pes, ber = [], [], []
        width = 0                         # cells in the first data row
        for lineno, line in enumerate(read_text(path).split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "label=" in line:
                    label = line.split("label=", 1)[1].strip()
                continue
            if line.startswith("x,"):
                continue
            try:
                x, pe, *rest = (float(cell) for cell in line.split(","))
            except ValueError:        # a non-number, or fewer than two cells
                raise ConfigurationError(
                    f"{path}, line {lineno}: expected 'x,pe[,info_ber]', got {line!r}"
                ) from None
            cells = 2 + len(rest)
            width = width or cells
            if cells > 3:
                raise ConfigurationError(
                    f"{path}, line {lineno}: {cells} cells, expected 'x,pe[,info_ber]'")
            if cells != width:
                raise ConfigurationError(f"{path}, line {lineno}: {cells} cells, "
                                         f"but the first data row has {width}")
            xs.append(x)
            pes.append(pe)
            ber.extend(rest)
        if not xs:
            raise ConfigurationError(f"{path}: no curve points")
        return cls(xs=np.array(xs), pes=np.array(pes), label=label,
                   info_ber=np.array(ber) if ber else None)


def _pool_adjacent_violators(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Least-squares nondecreasing fit: each new point pools with the blocks it undercuts."""
    blocks = []                              # [level, weight, size] per pooled block
    for value, weight in zip(values, weights):
        blocks.append([value, weight, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0] + 1e-15:
            right, left = blocks.pop(), blocks[-1]
            total = left[1] + right[1]
            blocks[-1] = [(left[0] * left[1] + right[0] * right[1]) / total, total,
                          left[2] + right[2]]
    levels, _, sizes = zip(*blocks)
    return np.repeat(levels, sizes)


def make_gcurve(xs, pes, weights=None, label: str = "", info_ber=None) -> GCurve:
    """Build a curve from raw Monte Carlo points.

    Applies the isotonic repair, pins the origin to zero, and guarantees a
    flat first segment (zero slope at zero) by inserting a midpoint when
    the first tabulated error rate is already positive.  A repair that
    moves any point by more than a quarter of the curve maximum signals
    noisy data.
    """
    xs = np.asarray(xs, dtype=float)
    order = np.argsort(xs)
    raw = np.asarray(pes, dtype=float)[order]
    if np.any((raw < 0) | (raw > 1)):
        raise ParameterError(f"raw pes must lie in [0, 1], got {raw.min():g} "
                             f"to {raw.max():g}")
    w = np.ones_like(raw) if weights is None else np.asarray(weights, float)[order]
    fitted = _pool_adjacent_violators(raw, w)
    scale = max(fitted.max(), 1e-12)
    if np.max(np.abs(fitted - raw)) > _REPAIR_TOLERANCE * scale:
        warnings.warn("raw decoder-curve data strongly non-monotone; "
                      "isotonic repair moved a point by more than "
                      f"{_REPAIR_TOLERANCE:.0%} of the curve maximum",
                      DataQualityWarning, stacklevel=2)
    # rows x, pe[, info_ber]; each inserted point is zero in every row
    table = np.array([xs[order], fitted]
                     + ([] if info_ber is None else [np.asarray(info_ber, float)[order]]))
    if table[0, 0] > 0:
        table = np.insert(table, 0, 0.0, axis=1)
    table[1, 0] = 0.0
    if table.shape[1] > 1 and table[1, 1] > 0:
        # keep the first segment exactly flat so the slope at zero vanishes
        table = np.insert(table, 1, 0.0, axis=1)
        table[0, 1] = 0.5 * table[0, 2]

    x, pe, *ber = table[:, np.concatenate([[True], np.diff(table[0]) > 0])]
    return GCurve(xs=x, pes=pe, label=label, info_ber=ber[0] if ber else None)


class CodedBpskSource:
    """Monte Carlo sampler of a real codec on the scalar equivalent channel."""

    def __init__(self, codec):
        self.codec = codec

    def measure(self, x: float, n_codewords: int, rng: np.random.Generator):
        """Symbol/info error counts for codewords sent at 1/SINR = x."""
        k = self.codec.info_length
        info = rng.integers(0, 2, size=(n_codewords, k), dtype=np.int8)
        coded = self.codec.encode(info)
        real = rng.standard_normal(coded.shape)
        rng.standard_normal(coded.shape)   # the imaginary part: unused, drawn to keep the stream
        llr = 4.0 * (coded + np.sqrt(x / 2.0) * real) / max(x, 1e-300)
        info_hat, fed_back = self.codec.decode(llr)
        symbol_errors = int(np.sum(fed_back != coded))
        info_errors = int(np.sum(info_hat != info))
        return symbol_errors, coded.size, info_errors, info.size


def estimate_gcurve(source, grid, rng: np.random.Generator,
                    target_errors: int = 100, max_codewords: int = 400,
                    label: str = "") -> GCurve:
    """Estimate the decoder curve over a grid of 1/SINR values.

    Each point accumulates codewords in batches until ``target_errors``
    feedback-symbol errors are seen or the codeword budget runs out, which
    keeps the relative error of each estimate roughly uniform.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.all((grid > 0) & (grid < np.inf)):
        raise ParameterError("grid abscissas must be positive and finite (x = 1/SINR)")
    if target_errors < 1 or max_codewords < 1:
        raise ParameterError(f"target_errors and max_codewords must be at least 1, "
                             f"got {target_errors} and {max_codewords}")
    # per point: symbol errors, symbols, info errors, info bits
    counts = np.zeros((len(grid), 4), dtype=np.int64)
    for x, row in zip(grid, counts):
        for _ in range(0, max_codewords, _BATCH):
            row += source.measure(float(x), _BATCH, rng)
            if row[0] >= target_errors:
                break
    return make_gcurve(grid, counts[:, 0] / counts[:, 1], weights=counts[:, 1],
                       label=label, info_ber=counts[:, 2] / counts[:, 3])

