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

from ..exceptions import ConfigurationError, DataQualityWarning, ParameterError


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
        if np.any(np.diff(self.xs) <= 0):
            raise ParameterError("xs must be strictly increasing")
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
        with open(path, "w", newline="") as fh:
            fh.write(f"# gcurve label={self.label}\n")
            writer = csv.writer(fh)
            writer.writerow(["x", "pe"] + (["info_ber"] if self.info_ber is not None else []))
            for i in range(len(self.xs)):
                row = [f"{self.xs[i]:.10g}", f"{self.pes[i]:.10g}"]
                if self.info_ber is not None:
                    row.append(f"{self.info_ber[i]:.10g}")
                writer.writerow(row)

    @classmethod
    def load_csv(cls, path) -> "GCurve":
        label = ""
        xs, pes, ber = [], [], []
        width = 0                         # cells in the first data row
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
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


def isotonic_fit(values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Pool-adjacent-violators: least-squares nondecreasing fit."""
    values = np.asarray(values, dtype=float)
    weights = np.ones_like(values) if weights is None else np.asarray(weights, float)
    level = list(values)
    weight = list(weights)
    size = [1] * len(values)
    i = 0
    while i < len(level) - 1:
        if level[i] > level[i + 1] + 1e-15:
            total = weight[i] + weight[i + 1]
            level[i] = (level[i] * weight[i] + level[i + 1] * weight[i + 1]) / total
            weight[i] = total
            size[i] += size[i + 1]
            del level[i + 1], weight[i + 1], size[i + 1]
            if i > 0:
                i -= 1
        else:
            i += 1
    out = np.empty_like(values)
    pos = 0
    for lvl, cnt in zip(level, size):
        out[pos:pos + cnt] = lvl
        pos += cnt
    return out


def make_gcurve(xs, pes, weights=None, label: str = "",
                info_ber=None, repair_tolerance: float = 0.25) -> GCurve:
    """Build a curve from raw Monte Carlo points.

    Applies the isotonic repair, pins the origin to zero, and guarantees a
    flat first segment (zero slope at zero) by inserting a midpoint when
    the first tabulated error rate is already positive.  A repair that
    moves any point by more than ``repair_tolerance`` (relative to the
    curve maximum) signals noisy data.
    """
    xs = np.asarray(xs, dtype=float)
    order = np.argsort(xs)
    xs = xs[order]
    raw = np.asarray(pes, dtype=float)[order]
    w = None if weights is None else np.asarray(weights, float)[order]
    fitted = isotonic_fit(raw, w)
    scale = max(fitted.max(), 1e-12)
    if np.max(np.abs(fitted - raw)) > repair_tolerance * scale:
        warnings.warn("raw decoder-curve data strongly non-monotone; "
                      "isotonic repair moved a point by more than "
                      f"{repair_tolerance:.0%} of the curve maximum",
                      DataQualityWarning, stacklevel=2)
    ber = None if info_ber is None else np.asarray(info_ber, float)[order]

    if xs[0] > 0:
        xs = np.concatenate([[0.0], xs])
        fitted = np.concatenate([[0.0], fitted])
        ber = None if ber is None else np.concatenate([[0.0], ber])
    else:
        fitted[0] = 0.0
    if len(xs) > 1 and fitted[1] > 0:
        # keep the first segment exactly flat so the slope at zero vanishes
        xs = np.concatenate([xs[:1], [0.5 * xs[1]], xs[1:]])
        fitted = np.concatenate([fitted[:1], [0.0], fitted[1:]])
        ber = None if ber is None else np.concatenate([ber[:1], [0.0], ber[1:]])

    keep = np.concatenate([[True], np.diff(xs) > 0])
    return GCurve(xs=xs[keep], pes=fitted[keep], label=label,
                  info_ber=None if ber is None else ber[keep])


class CodedBpskSource:
    """Monte Carlo sampler of a real codec on the scalar equivalent channel."""

    def __init__(self, codec):
        self.codec = codec

    def measure(self, x: float, n_codewords: int, rng: np.random.Generator):
        """Symbol/info error counts for codewords sent at 1/SINR = x."""
        k = self.codec.info_length
        info = rng.integers(0, 2, size=(n_codewords, k), dtype=np.int8)
        coded = self.codec.encode(info)
        noise_scale = np.sqrt(x / 2.0)
        noisy = coded.astype(np.float64) + noise_scale * (
            rng.standard_normal(coded.shape)
            + 1j * rng.standard_normal(coded.shape))
        llr = 4.0 * noisy.real / max(x, 1e-300)
        info_hat, fed_back = self.codec.decode(llr)
        symbol_errors = int(np.sum(fed_back != coded))
        info_errors = int(np.sum(info_hat != info))
        return symbol_errors, coded.size, info_errors, info.size


def estimate_gcurve(source, grid, rng: np.random.Generator,
                    target_errors: int = 100, batch: int = 25,
                    max_codewords: int = 400, label: str = "") -> GCurve:
    """Estimate the decoder curve over a grid of 1/SINR values.

    Each point accumulates codewords in batches until ``target_errors``
    feedback-symbol errors are seen or the codeword budget runs out, which
    keeps the relative error of each estimate roughly uniform.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0):
        raise ParameterError("grid abscissas must be positive (x = 1/SINR)")
    pes, weights, bers = [], [], []
    for x in grid:
        sym_err = sym_tot = inf_err = inf_tot = 0
        while sym_err < target_errors and sym_tot < max_codewords * _cw_len(source):
            se, st, ie, it = source.measure(float(x), batch, rng)
            sym_err += se
            sym_tot += st
            inf_err += ie
            inf_tot += it
        pes.append(sym_err / sym_tot)
        weights.append(sym_tot)
        bers.append(inf_err / inf_tot)
    return make_gcurve(grid, pes, weights=weights, label=label, info_ber=bers)


def _cw_len(source) -> int:
    codec = getattr(source, "codec", None)
    if codec is not None:
        return codec.codeword_length
    return 1024
