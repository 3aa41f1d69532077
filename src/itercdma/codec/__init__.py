"""Channel coding chain: encoders, decoders, interleaving, decoder curve.

A :class:`ChannelCodec` packages one code family behind the interface the
receiver needs: ``encode`` maps info bits to channel-interleaved +-1
symbols, ``decode`` maps soft channel LLRs back to info decisions plus the
re-encoded, re-interleaved symbol stream used as decision feedback.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError
from .convolutional import ConvolutionalCode
from .gcurve import CodedBpskSource, GCurve, estimate_gcurve, make_gcurve
from .turbo import RscCode, TurboCode, make_permutation

__all__ = [
    "CodecSpec", "ChannelCodec", "make_codec",
    "ConvolutionalCode", "TurboCode", "RscCode",
    "GCurve", "CodedBpskSource", "estimate_gcurve", "make_gcurve",
    "make_permutation",
]

CODEWORD_LENGTH = 1024            # channel symbols per codeword, rate 1/2
CHANNEL_INTERLEAVER_SEED = 7
TURBO_INTERLEAVER_SEED = 8
GENERATORS = {"convolutional": (0o35, 0o23),   # feedforward pair
              "turbo": (0o37, 0o21)}           # (feedback, feedforward) RSC pair


@dataclass(frozen=True)
class CodecSpec:
    """Code family of the coding chain; the rest is fixed per family above."""

    family: str = "convolutional"            # or "turbo"
    turbo_iterations: int = 8

    def __post_init__(self):
        if self.family not in GENERATORS:
            raise ParameterError(f"unknown codec family {self.family!r}")
        if self.turbo_iterations < 1:
            raise ParameterError("turbo_iterations must be at least 1")

    @classmethod
    def turbo(cls, **kw) -> "CodecSpec":
        return cls(family="turbo", **kw)

    def digest(self) -> str:
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]


class ChannelCodec:
    """Encode/decode one codeword stream including the channel interleaver."""

    def __init__(self, spec: CodecSpec):
        self.spec = spec
        self.codeword_length = CODEWORD_LENGTH
        generators = GENERATORS[spec.family]
        if spec.family == "convolutional":
            self._core = ConvolutionalCode(generators)
            self.info_length = CODEWORD_LENGTH // 2 - self._core.memory
        else:
            self.info_length = CODEWORD_LENGTH // 2
            self._core = TurboCode(self.info_length, generators, TURBO_INTERLEAVER_SEED,
                                   spec.turbo_iterations)
        self.permutation = make_permutation(CODEWORD_LENGTH, CHANNEL_INTERLEAVER_SEED)
        self.inverse = np.argsort(self.permutation)

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Info bits (B, k) -> channel-interleaved +-1 symbols (B, n)."""
        info_bits = np.atleast_2d(np.asarray(info_bits, dtype=np.int8))
        if info_bits.shape[1] != self.info_length:
            raise ParameterError(
                f"info length {info_bits.shape[1]} != {self.info_length}")
        bits = self._core.encode(info_bits)
        symbols = (1 - 2 * bits).astype(np.int8)
        return symbols[:, self.permutation]

    def decode(self, soft_llr: np.ndarray):
        """Soft LLRs (B, n) -> (info decisions (B, k), feedback symbols (B, n)).

        Feedback symbols come from re-encoding the hard info decisions, so
        an error-free decode reproduces the transmitted symbols exactly.
        """
        soft_llr = np.atleast_2d(np.asarray(soft_llr, dtype=np.float64))
        if soft_llr.shape[1] != self.codeword_length:
            raise ParameterError(
                f"soft input length {soft_llr.shape[1]} != {self.codeword_length}")
        info = self._core.decode(soft_llr[:, self.inverse])
        return info, self.encode(info)


def make_codec(spec: CodecSpec) -> ChannelCodec:
    return ChannelCodec(spec)
