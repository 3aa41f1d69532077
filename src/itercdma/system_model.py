"""Random scenario generation and received-signal synthesis.

One coherence block is described by four ingredients: complex path gains
(constant over the block), binary spreading codes (one length-N chip vector
per user, path and symbol period), BPSK channel symbols, and complex
Gaussian noise.  The chip matched-filter output for period ``t`` is

    r(t) = sum_k b_k(t) * sum_l a_{kl} s_{kl}(t) + n(t).

Two spreading-code constructions are supported.  Under the ``independent``
model every code vector is drawn i.i.d.  Under the ``shifted`` model each
user owns a single chip stream of length ``N*M + L - 1`` per block, and the
code of path ``l`` at period ``t`` is the window of length N starting at
chip ``t*N + l`` (0-based): per-path codes are delayed versions of one
sequence, as produced by a physical multipath channel.

All generators are pure functions of an explicit ``numpy.random.Generator``,
so trials parallelize by handing out disjoint streams (see
:func:`itercdma.config.derive_stream`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .exceptions import ConfigurationError, ParameterError
from .solvers import _real_matmul


@dataclass
class ChannelRealization:
    """Complex path gains for one coherence block, shape (K, L)."""

    gains: np.ndarray

    @property
    def vector(self) -> np.ndarray:
        """Flattened user-major gain vector of length K*L.

        Component ``i`` is user ``i // L``, path ``i % L``.
        """
        return self.gains.reshape(-1)


@dataclass
class SymbolFrame:
    """BPSK channel symbols (K, M) plus the training-period mask (M,).

    The first ``n_training`` periods of a block carry known symbols.
    """

    symbols: np.ndarray
    training_mask: np.ndarray


@dataclass
class ReceivedFrame:
    """Chip matched-filter outputs (M, N) and the noise record (M, N).

    The noise record is simulation-side state used to split estimation
    error into feedback- and noise-induced parts; a receiver never sees it.
    """

    chips: np.ndarray
    noise: np.ndarray


@dataclass
class FeedbackFrame:
    """Hard decision feedback (K, M) with its realized error rate."""

    decisions: np.ndarray
    realized_error_rate: float


def generate_channel(config: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw i.i.d. circularly symmetric complex Gaussian gains, variance 1/L.

    Per-user total power sums to about one as L grows, so every user sees
    the same post-combining statistics.
    """
    k, l = config.n_users, config.n_paths
    scale = np.sqrt(1.0 / (2.0 * l))
    gains = scale * (rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l)))
    return ChannelRealization(gains=gains)


def generate_code_signs(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the +-1 chip signs of every code, int8 of shape (M, K, L, N)."""
    m, k, l, n = (config.coherence_time, config.n_users,
                  config.n_paths, config.spreading_gain)
    # cast before the arithmetic, so that only one int64 array is allocated
    if config.code_model == "independent":
        return 2 * rng.integers(0, 2, size=(m, k, l, n)).astype(np.int8) - 1
    # One chip stream per user; path/period codes are sliding windows.
    stream_len = n * m + l - 1
    streams = 2 * rng.integers(0, 2, size=(k, stream_len)).astype(np.int8) - 1
    windows = np.lib.stride_tricks.sliding_window_view(streams, n, axis=1)
    # windows[k, off] = streams[k, off:off+n]; offset of (t, l) is t*N + l
    t_idx = np.arange(m)[:, None] * n + np.arange(l)[None, :]
    return np.ascontiguousarray(windows[:, t_idx].transpose(1, 0, 2, 3))


def codes_from_signs(signs: np.ndarray) -> np.ndarray:
    """Spreading codes +-1/sqrt(N) from chip signs (..., N): unit norm each."""
    return (1.0 / np.sqrt(signs.shape[-1])) * signs


def generate_codes(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw spreading codes (M, K, L, N) under the configured model."""
    return codes_from_signs(generate_code_signs(config, rng))


def generate_symbols(config: SystemConfig, rng: np.random.Generator) -> SymbolFrame:
    """Draw uniform BPSK symbols; the first M_t periods are flagged training."""
    k, m = config.n_users, config.coherence_time
    symbols = (2 * rng.integers(0, 2, size=(k, m)) - 1).astype(np.int8)
    mask = np.zeros(m, dtype=bool)
    mask[:config.n_training] = True
    return SymbolFrame(symbols=symbols, training_mask=mask)


def synthesize_received(channel: ChannelRealization,
                        codes: np.ndarray,
                        symbols: SymbolFrame,
                        config: SystemConfig,
                        rng: np.random.Generator) -> ReceivedFrame:
    """Superpose all user/path contributions and add CSCG noise.

    Noise samples have total variance ``config.noise_var`` per complex chip
    (noise_var/2 in each real dimension).
    """
    m, k, l, n = codes.shape
    if channel.gains.shape != (k, l):
        raise ConfigurationError(
            f"channel gains shape {channel.gains.shape} does not match codes {(k, l)}")
    if symbols.symbols.shape != (k, m):
        raise ConfigurationError(
            f"symbol frame shape {symbols.symbols.shape} does not match codes {(k, m)}")
    if (m, k, l, n) != (config.coherence_time, config.n_users,
                        config.n_paths, config.spreading_gain):
        raise ConfigurationError("codes do not match the configuration dimensions")

    amp = symbols.symbols.T[:, :, None] * channel.gains               # (M, K, L)
    signal = _real_matmul(codes.reshape(m, k * l, n).transpose(0, 2, 1),
                          amp.reshape(m, k * l, 1))[..., 0]
    sigma = np.sqrt(config.noise_var / 2.0)
    noise = sigma * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    return ReceivedFrame(chips=signal + noise, noise=noise)


def corrupt_feedback(symbols: SymbolFrame,
                     error_rate: float,
                     rng: np.random.Generator) -> FeedbackFrame:
    """Flip each symbol independently with probability ``error_rate``.

    Feedback on training periods is replaced by the known truth (the
    blended estimator treats those periods as error-free).  The realized
    rate is counted over all K*M symbols.
    """
    if not 0.0 <= error_rate <= 0.5:
        raise ParameterError(f"error_rate must lie in [0, 0.5], got {error_rate}")
    flips = rng.random(symbols.symbols.shape) < error_rate
    flips[:, symbols.training_mask] = False
    decisions = np.where(flips, -symbols.symbols, symbols.symbols).astype(np.int8)
    return FeedbackFrame(decisions=decisions, realized_error_rate=float(np.mean(flips)))

