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
:func:`itercdma.config.derive_stream`).  Chip signs are read off the raw
64-bit words of the PCG64 stream; they equal, and leave the stream as,
``2 * rng.integers(0, 2, size) - 1``.
"""

from __future__ import annotations

import numpy as np

from .analysis import check_error_rate
from .config import SystemConfig
from .exceptions import ConfigurationError, ParameterError
from .solvers import _real_matmul


def generate_channel(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. circularly symmetric complex Gaussian gains (K, L), variance 1/L.

    Per-user total power sums to about one as L grows, so every user sees
    the same post-combining statistics.
    """
    k, l = config.n_users, config.n_paths
    scale = np.sqrt(1.0 / (2.0 * l))
    return scale * (rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l)))


def _sign_draws(rng: np.random.Generator, count: int) -> np.ndarray:
    """``2 * rng.integers(0, 2, count) - 1`` as int8, read off raw 64-bit words.

    For a range of two, ``integers`` returns bit 31 of each 32-bit output,
    and PCG64 hands out the low half of each 64-bit word before the high
    half, which it buffers.  So a pending buffered half gives the first
    sign, the halves of ``random_raw`` words give the rest, and the buffer
    is left as ``integers`` leaves it: the last word's high half, pending
    after an odd count.
    """
    bit_gen = rng.bit_generator
    if not isinstance(bit_gen, np.random.PCG64):
        raise ParameterError(
            f"code signs need a PCG64 generator, got {type(bit_gen).__name__}")
    signs = np.empty(count, dtype=np.int8)
    if count == 0:
        return signs
    state = bit_gen.state
    pending = state["has_uint32"]
    if pending:
        signs[0] = 1 if state["uinteger"] >> 31 else -1
    rest = count - pending
    words = bit_gen.random_raw((rest + 1) // 2)
    # byte 3 of each little-endian 32-bit half holds its bit 31 as the sign bit
    top = words.astype("<u8", copy=False).view(np.int8)[3::4][:rest]
    body = signs[pending:]
    np.right_shift(top, 7, out=body)                  # bit 0 -> 0, bit 1 -> -1
    np.bitwise_or(body, 1, out=body)
    np.negative(body, out=body)
    state = bit_gen.state
    state["has_uint32"] = rest % 2
    if rest:
        state["uinteger"] = int(words[-1] >> np.uint64(32))
    bit_gen.state = state
    return signs


def generate_code_signs(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the +-1 chip signs of every code, int8 of shape (M, K, L, N).

    The draws equal ``2 * rng.integers(0, 2, size) - 1``; ``rng`` must be a
    PCG64 generator, as every stream from :func:`derive_stream` is.
    """
    m, k, l, n = (config.coherence_time, config.n_users,
                  config.n_paths, config.spreading_gain)
    if config.code_model == "independent":
        return _sign_draws(rng, m * k * l * n).reshape(m, k, l, n)
    # One chip stream per user; path/period codes are sliding windows.
    stream_len = n * m + l - 1
    streams = _sign_draws(rng, k * stream_len).reshape(k, stream_len)
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


def generate_symbols(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw uniform BPSK symbols, int8 of shape (K, M).

    The first ``config.n_training`` periods of a block carry known symbols.
    """
    k, m = config.n_users, config.coherence_time
    return (2 * rng.integers(0, 2, size=(k, m)) - 1).astype(np.int8)


def synthesize_received(gains: np.ndarray,
                        codes: np.ndarray,
                        symbols: np.ndarray,
                        config: SystemConfig,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Superpose all user/path contributions and add CSCG noise.

    Returns the chip matched-filter outputs (M, N) and the noise record
    (M, N).  Noise samples have total variance ``config.noise_var`` per
    complex chip (noise_var/2 in each real dimension).  The noise record is
    simulation-side state used to split estimation error into feedback- and
    noise-induced parts; a receiver never sees it.
    """
    m, k, l, n = codes.shape
    if gains.shape != (k, l):
        raise ConfigurationError(
            f"channel gains shape {gains.shape} does not match codes {(k, l)}")
    if symbols.shape != (k, m):
        raise ConfigurationError(
            f"symbol frame shape {symbols.shape} does not match codes {(k, m)}")
    if (m, k, l, n) != (config.coherence_time, config.n_users,
                        config.n_paths, config.spreading_gain):
        raise ConfigurationError("codes do not match the configuration dimensions")

    amp = symbols.T[:, :, None] * gains                               # (M, K, L)
    signal = _real_matmul(codes.reshape(m, k * l, n).transpose(0, 2, 1),
                          amp.reshape(m, k * l, 1))[..., 0]
    noise = generate_noise(config, rng)
    return signal + noise, noise


def generate_noise(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the (M, N) CSCG noise record: real normals first, then imaginary."""
    shape = (config.coherence_time, config.spreading_gain)
    sigma = np.sqrt(config.noise_var / 2.0)
    return sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def corrupt_feedback(symbols: np.ndarray,
                     error_rate: float,
                     n_training: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Flip each symbol (K, M) independently with probability ``error_rate``.

    Returns the int8 decisions.  Feedback on the first ``n_training``
    periods is replaced by the known truth (the blended estimator treats
    those periods as error-free).
    """
    check_error_rate(error_rate)
    flips = rng.random(symbols.shape) < error_rate
    flips[:, :n_training] = False
    return np.where(flips, -symbols, symbols).astype(np.int8)

