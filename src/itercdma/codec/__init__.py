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
from .gcurve import (CodedBpskSource, GCurve, estimate_gcurve, isotonic_fit,
                     make_gcurve)
from .interleaver import deinterleave, interleave, make_permutation
from .turbo import RscCode, TurboCode

__all__ = [
    "CodecSpec", "ChannelCodec", "make_codec",
    "ConvolutionalCode", "TurboCode", "RscCode",
    "GCurve", "CodedBpskSource", "estimate_gcurve", "make_gcurve", "isotonic_fit",
    "interleave", "deinterleave", "make_permutation",
]


@dataclass(frozen=True)
class CodecSpec:
    """Code family and parameters of the coding chain."""

    family: str = "convolutional"            # or "turbo"
    generators: tuple = (0o35, 0o23)          # turbo: (feedback, feedforward) RSC pair
    codeword_length: int = 1024
    interleaver_seed: int = 7
    turbo_iterations: int = 8

    def __post_init__(self):
        if self.family not in ("convolutional", "turbo"):
            raise ParameterError(f"unknown codec family {self.family!r}")
        if self.codeword_length % 2:
            raise ParameterError("codeword_length must be even at rate 1/2")
        if self.turbo_iterations < 1:
            raise ParameterError("turbo_iterations must be at least 1")

    @classmethod
    def turbo(cls, **kw) -> "CodecSpec":
        kw.setdefault("generators", (0o37, 0o21))
        return cls(family="turbo", **kw)

    def digest(self) -> str:
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]


class ChannelCodec:
    """Encode/decode one codeword stream including the channel interleaver."""

    def __init__(self, spec: CodecSpec):
        self.spec = spec
        self.codeword_length = spec.codeword_length
        if spec.family == "convolutional":
            self._core = ConvolutionalCode(spec.generators)
            self.info_length = spec.codeword_length // 2 - self._core.memory
            if self.info_length < 1:
                raise ParameterError("codeword too short for the encoder tail")
        else:
            self.info_length = spec.codeword_length // 2
            self._core = TurboCode(self.info_length, generators=spec.generators,
                                   interleaver_seed=spec.interleaver_seed + 1,
                                   n_iterations=spec.turbo_iterations)
        self.permutation = make_permutation(spec.codeword_length,
                                            spec.interleaver_seed)

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Info bits (B, k) -> channel-interleaved +-1 symbols (B, n)."""
        info_bits = np.atleast_2d(np.asarray(info_bits, dtype=np.int8))
        if info_bits.shape[1] != self.info_length:
            raise ParameterError(
                f"info length {info_bits.shape[1]} != {self.info_length}")
        bits = self._core.encode(info_bits)
        symbols = (1 - 2 * bits).astype(np.int8)
        return interleave(symbols, self.permutation)

    def decode(self, soft_llr: np.ndarray):
        """Soft LLRs (B, n) -> (info decisions (B, k), feedback symbols (B, n)).

        Feedback symbols come from re-encoding the hard info decisions, so
        an error-free decode reproduces the transmitted symbols exactly.
        """
        soft_llr = np.atleast_2d(np.asarray(soft_llr, dtype=np.float64))
        if soft_llr.shape[1] != self.codeword_length:
            raise ParameterError(
                f"soft input length {soft_llr.shape[1]} != {self.codeword_length}")
        ordered = deinterleave(soft_llr, self.permutation)
        if self.spec.family == "convolutional":
            info = self._core.viterbi_decode(ordered)
        else:
            info = self._core.decode(ordered)
        return info, self.encode(info)


def make_codec(spec: CodecSpec) -> ChannelCodec:
    return ChannelCodec(spec)
