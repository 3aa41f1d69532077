"""Parallel-concatenated (turbo) coding with a batched log-MAP decoder.

Two identical recursive systematic constituent encoders work on the info
block and on an internally interleaved copy; their trellis tables come from
``shift_register_trellis``, as the convolutional code's do.  The rate-1/3
output is punctured to rate 1/2 by alternating parity streams (first
encoder on even positions, second on odd).  Constituent encoders are left unterminated so
a length-k info block maps to exactly 2k coded bits; the decoder accounts
for that with a uniform final-state prior.  Component decoding is exact
log-MAP (logaddexp recursions), vectorized over the codeword batch.

The forward and backward recursions depend only on the branch metrics, so
one fused sweep advances both: step r moves alpha_r to alpha_{r+1} and
beta_{k-r} to beta_{k-1-r} with one gather, one add, one logaddexp and one
max normalisation over a (B, 2S) row.  Branch metrics come from sign tables,
a block of time steps at a time, and the posterior LLRs are formed after
the sweep over the same blocks.  The operands meet in the same order as in
the textbook two-loop form, so the posteriors are the same bit for bit.

Codewords decode independently, so ``TurboCode.decode`` maps the decoder
over one contiguous row part per usable CPU (``itercdma._workers.split_map``):
the calling process decodes the first part and forked workers the rest, and
the decisions are the same bit for bit as one decode of the whole batch.  The
encoder steps a byte of input at a time through (state, byte) tables.

LLR convention throughout: positive means bit 0 / symbol +1.
"""

from __future__ import annotations

import numpy as np

from .._workers import process_count, split_map
from ..exceptions import ParameterError
from .convolutional import _CHUNK, _NEG, shift_register_trellis


def make_permutation(length: int, seed: int) -> np.ndarray:
    """Seeded uniform-random interleaver ``x[..., perm]``, undone by ``np.argsort(perm)``."""
    return np.random.default_rng(seed).permutation(length)


class RscCode:
    """Recursive systematic convolutional constituent code, rate 1/2."""

    def __init__(self, feedback=0o37, feedforward=0o21):
        self.feedback = int(feedback)
        self.feedforward = int(feedforward)
        self.constraint_length = self.feedback.bit_length()
        self.memory = self.constraint_length - 1
        if self.memory < 0:
            raise ParameterError("the feedback polynomial must be nonzero")
        self.n_states = n_states = 1 << self.memory
        self.next_state, out_bits, self.pred_state, self.pred_bit = shift_register_trellis(
            self.memory, [self.feedforward], self.feedback & (n_states - 1))
        self.parity_bits = out_bits[..., 0]
        ps, pb = self.pred_state, self.pred_bit
        input_signs = np.array([1.0, -1.0])
        parity_signs = 1.0 - 2.0 * self.parity_bits
        # Tables of the fused sweep over (alpha states | beta states): each
        # alpha state reads its two arriving (state, bit) branches, each beta
        # state the two states its branches lead to.
        self._sweep_index = np.concatenate((ps, self.next_state + n_states))
        self._sweep_input_signs = np.stack(
            (input_signs[pb], np.broadcast_to(input_signs, (n_states, 2))))
        self._sweep_parity_signs = np.stack((parity_signs[ps, pb], parity_signs))
        # Tables of the posterior, laid out (bit, state).
        self._input_signs = input_signs[:, None]
        self._parity_signs = np.ascontiguousarray(parity_signs.T)
        self._next_by_bit = np.ascontiguousarray(self.next_state.T)
        # Tables of the encoder stepped a byte of input at a time: from each
        # state, every 8-bit input (first bit most significant) gives the
        # state after it and its 8 parity bits, packed the same way.
        state = np.repeat(np.arange(n_states), 256)
        byte = np.tile(np.arange(256), n_states)
        parity = np.zeros_like(byte)
        for shift in range(7, -1, -1):
            bit = (byte >> shift) & 1
            parity = parity << 1 | self.parity_bits[state, bit]
            state = self.next_state[state, bit]
        self._byte_next = state.reshape(n_states, 256)
        self._byte_parity = parity.reshape(n_states, 256).astype(np.uint8)

    def encode_parity(self, info_bits: np.ndarray) -> np.ndarray:
        """Parity stream (B, k) for batched info bits (B, k), state starts at 0."""
        info_bits = np.atleast_2d(np.asarray(info_bits, dtype=np.int8))
        k = info_bits.shape[1]
        # Zero bits pad the last byte; they come after every real bit, so
        # the parities kept are those of the bit-by-bit encoder.
        packed = np.packbits(info_bits, axis=1)
        out = np.empty_like(packed)
        state = np.zeros(len(packed), dtype=np.int64)
        for t in range(packed.shape[1]):
            byte = packed[:, t]
            out[:, t] = self._byte_parity[state, byte]
            state = self._byte_next[state, byte]
        return np.unpackbits(out, axis=1, count=k).view(np.int8)

    def bcjr(self, sys_llr: np.ndarray, par_llr: np.ndarray,
             apriori: np.ndarray) -> np.ndarray:
        """Posterior info-bit LLRs via the forward-backward recursion.

        All three inputs are (B, k).  The trellis starts in state 0 and
        ends anywhere (unterminated), hence the flat final beta.
        """
        batch, k = sys_llr.shape
        n_states = self.n_states
        # gamma[b, t, s, u] = 0.5*(in_sign_u*(Ls+La) + par_sign[s,u]*Lp)
        in_part = (0.5 * (sys_llr + apriori)).T                    # (k, B)
        par_part = (0.5 * par_llr).T

        # Row r holds alpha_r in its first half and beta_{k-r} in its second,
        # so one pass over r advances both recursions; step r reads the
        # gammas of time r (alpha) and of time k-1-r (beta).  The posterior
        # reads rows 0..k-1 only, so the sweep stops before alpha_k and beta_0.
        sweep = np.empty((k, batch, 2 * n_states))
        sweep[0] = 0.0
        sweep[0, :, 1:n_states] = _NEG
        in_both = np.stack((in_part, in_part[::-1]), axis=2)[..., None, None]
        par_both = np.stack((par_part, par_part[::-1]), axis=2)[..., None, None]
        cand = np.empty((batch, 2 * n_states, 2))
        for start in range(0, k, _CHUNK):
            stop = min(start + _CHUNK, k)
            gamma = (in_both[start:stop] * self._sweep_input_signs
                     + par_both[start:stop] * self._sweep_parity_signs
                     ).reshape(stop - start, batch, 2 * n_states, 2)
            for r in range(start, min(stop, k - 1)):
                sweep[r].take(self._sweep_index, axis=1, out=cand)
                cand += gamma[r - start]
                np.logaddexp(cand[:, :, 0], cand[:, :, 1], out=sweep[r + 1])
                halves = sweep[r + 1].reshape(batch, 2, n_states)
                halves -= np.maximum.reduce(halves, axis=2, keepdims=True)

        # posterior[t] = log-sum-exp over branches of alpha_t + gamma_t +
        # beta_{t+1}, per input bit; the state axis is last and contiguous.
        alpha = sweep[:, :, None, :n_states]
        beta_next = sweep[::-1, :, n_states:]
        posterior = np.empty((batch, k))
        for start in range(0, k, _CHUNK):
            stop = min(start + _CHUNK, k)
            gamma = (in_part[start:stop, :, None, None] * self._input_signs
                     + par_part[start:stop, :, None, None] * self._parity_signs)
            joint = (alpha[start:stop] + gamma
                     + beta_next[start:stop][:, :, self._next_by_bit])
            peak = joint.max(axis=3)
            num = peak + np.log(np.sum(np.exp(joint - peak[..., None]), axis=3))
            posterior[:, start:stop] = (num[..., 0] - num[..., 1]).T
        return posterior


class TurboCode:
    """Rate-1/2 punctured parallel concatenation of two RSC codes."""

    def __init__(self, info_length: int, generators=(0o37, 0o21),
                 interleaver_seed: int = 1, n_iterations: int = 8):
        if info_length < 2:
            raise ParameterError("info_length must be at least 2")
        if n_iterations < 1:
            raise ParameterError(f"turbo iterations must be at least 1, got {n_iterations}")
        self.info_length = info_length
        self.n_iterations = n_iterations
        self.rsc = RscCode(*generators)
        self.permutation = make_permutation(info_length, interleaver_seed)
        self.inverse = np.argsort(self.permutation)

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Systematic bits with alternating punctured parities, (B, 2k)."""
        info_bits = np.atleast_2d(np.asarray(info_bits, dtype=np.int8))
        if info_bits.shape[1] != self.info_length:
            raise ParameterError(
                f"info length {info_bits.shape[1]} != {self.info_length}")
        coded = np.empty((info_bits.shape[0], 2 * self.info_length), dtype=np.int8)
        coded[:, 0::2] = info_bits
        coded[:, 1::4] = self.rsc.encode_parity(info_bits)[:, 0::2]
        coded[:, 3::4] = self.rsc.encode_parity(info_bits[:, self.permutation])[:, 1::2]
        return coded

    def decode(self, soft: np.ndarray) -> np.ndarray:
        """Hard info decisions after iterative extrinsic exchange, (B, k)."""
        soft = np.atleast_2d(np.asarray(soft, dtype=np.float64))
        if soft.shape[1] != 2 * self.info_length:
            raise ParameterError(
                f"soft length {soft.shape[1]} != {2 * self.info_length}")
        parts = np.array_split(soft, max(1, min(len(soft), process_count())))
        return np.concatenate(split_map(self._decode_rows, parts))

    def _decode_rows(self, soft: np.ndarray) -> np.ndarray:
        sys_llr = soft[:, 0::2]
        lp1, lp2 = np.zeros((2, *sys_llr.shape))    # punctured parities read as 0
        lp1[:, 0::2] = soft[:, 1::4]
        lp2[:, 1::2] = soft[:, 3::4]
        sys_perm = sys_llr[:, self.permutation]

        ext2 = np.zeros_like(sys_llr)       # deinterleaved extrinsic of decoder 2
        for _ in range(self.n_iterations):
            post1 = self.rsc.bcjr(sys_llr, lp1, ext2)
            ext1 = (post1 - sys_llr - ext2)[:, self.permutation]   # interleaved
            post2 = self.rsc.bcjr(sys_perm, lp2, ext1)
            ext2 = (post2 - sys_perm - ext1)[:, self.inverse]
        posterior = post2[:, self.inverse]
        return (posterior < 0).astype(np.int8)
