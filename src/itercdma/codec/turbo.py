"""Parallel-concatenated (turbo) coding with a batched log-MAP decoder.

Two identical recursive systematic constituent encoders work on the info
block and on an internally interleaved copy.  The rate-1/3 output is
punctured to rate 1/2 by alternating parity streams (first encoder on even
positions, second on odd).  Constituent encoders are left unterminated so
a length-k info block maps to exactly 2k coded bits; the decoder accounts
for that with a uniform final-state prior.  Component decoding is exact
log-MAP (logaddexp recursions), vectorized over the codeword batch.

LLR convention throughout: positive means bit 0 / symbol +1.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError
from .convolutional import _NEG, _parity, _predecessors
from .interleaver import make_permutation


class RscCode:
    """Recursive systematic convolutional constituent code, rate 1/2."""

    def __init__(self, feedback=0o37, feedforward=0o21):
        self.feedback = int(feedback)
        self.feedforward = int(feedforward)
        self.constraint_length = self.feedback.bit_length()
        self.memory = self.constraint_length - 1
        self.n_states = 1 << self.memory
        m, n_states = self.memory, self.n_states
        fb_taps = self.feedback & ((1 << m) - 1)
        self.next_state = np.empty((n_states, 2), dtype=np.int64)
        self.parity_bits = np.empty((n_states, 2), dtype=np.int8)
        for state in range(n_states):
            for bit in (0, 1):
                d = bit ^ _parity(fb_taps & state)
                reg = (d << m) | state
                self.parity_bits[state, bit] = _parity(self.feedforward & reg)
                self.next_state[state, bit] = reg >> 1
        self.parity_signs = (1.0 - 2.0 * self.parity_bits).astype(np.float64)
        self.input_signs = np.array([1.0, -1.0])
        self.pred_state, self.pred_bit = _predecessors(self.next_state)

    def encode_parity(self, info_bits: np.ndarray) -> np.ndarray:
        """Parity stream (B, k) for batched info bits (B, k), state starts at 0."""
        info_bits = np.atleast_2d(np.asarray(info_bits, dtype=np.int64))
        batch, k = info_bits.shape
        out = np.empty((batch, k), dtype=np.int8)
        state = np.zeros(batch, dtype=np.int64)
        for t in range(k):
            bit = info_bits[:, t]
            out[:, t] = self.parity_bits[state, bit]
            state = self.next_state[state, bit]
        return out

    def bcjr(self, sys_llr: np.ndarray, par_llr: np.ndarray,
             apriori: np.ndarray) -> np.ndarray:
        """Posterior info-bit LLRs via the forward-backward recursion.

        All three inputs are (B, k).  The trellis starts in state 0 and
        ends anywhere (unterminated), hence the flat final beta.
        """
        batch, k = sys_llr.shape
        n_states = self.n_states
        ps, pb = self.pred_state, self.pred_bit
        nxt = self.next_state

        # gamma[b, t, s, u] = 0.5*(in_sign_u*(Ls+La) + par_sign[s,u]*Lp)
        in_part = 0.5 * (sys_llr + apriori)                       # (B, k)
        gamma = (in_part[:, :, None, None] * self.input_signs[None, None, None, :]
                 + 0.5 * par_llr[:, :, None, None] * self.parity_signs[None, None, :, :])

        alpha = np.empty((k + 1, batch, n_states))
        alpha[0] = _NEG
        alpha[0, :, 0] = 0.0
        for t in range(k):
            cand = alpha[t][:, ps] + gamma[:, t][:, ps, pb]
            nxt_alpha = np.logaddexp(cand[:, :, 0], cand[:, :, 1])
            nxt_alpha -= nxt_alpha.max(axis=1, keepdims=True)
            alpha[t + 1] = nxt_alpha

        beta = np.zeros((batch, n_states))
        posterior = np.empty((batch, k))
        for t in range(k - 1, -1, -1):
            joint = alpha[t][:, :, None] + gamma[:, t] + beta[:, nxt]
            num0 = _logsumexp(joint[:, :, 0])
            num1 = _logsumexp(joint[:, :, 1])
            posterior[:, t] = num0 - num1
            cand = gamma[:, t] + beta[:, nxt]
            beta = np.logaddexp(cand[:, :, 0], cand[:, :, 1])
            beta -= beta.max(axis=1, keepdims=True)
        return posterior


def _logsumexp(values: np.ndarray) -> np.ndarray:
    peak = values.max(axis=1)
    return peak + np.log(np.sum(np.exp(values - peak[:, None]), axis=1))


class TurboCode:
    """Rate-1/2 punctured parallel concatenation of two RSC codes."""

    def __init__(self, info_length: int, generators=(0o37, 0o21),
                 interleaver_seed: int = 1, n_iterations: int = 8):
        if info_length < 2:
            raise ParameterError("info_length must be at least 2")
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
        p1 = self.rsc.encode_parity(info_bits)
        p2 = self.rsc.encode_parity(info_bits[:, self.permutation])
        coded = np.empty((info_bits.shape[0], 2 * self.info_length), dtype=np.int8)
        coded[:, 0::2] = info_bits
        parity = p1.copy()
        parity[:, 1::2] = p2[:, 1::2]
        coded[:, 1::2] = parity
        return coded

    def decode(self, soft: np.ndarray, n_iterations=None) -> np.ndarray:
        """Hard info decisions after iterative extrinsic exchange, (B, k)."""
        soft = np.atleast_2d(np.asarray(soft, dtype=np.float64))
        if soft.shape[1] != 2 * self.info_length:
            raise ParameterError(
                f"soft length {soft.shape[1]} != {2 * self.info_length}")
        iters = self.n_iterations if n_iterations is None else n_iterations
        sys_llr = soft[:, 0::2]
        par = soft[:, 1::2]
        lp1 = np.zeros_like(par)
        lp1[:, 0::2] = par[:, 0::2]
        lp2 = np.zeros_like(par)
        lp2[:, 1::2] = par[:, 1::2]
        sys_perm = sys_llr[:, self.permutation]

        ext2 = np.zeros_like(sys_llr)       # deinterleaved extrinsic of decoder 2
        post2 = sys_llr
        for _ in range(iters):
            post1 = self.rsc.bcjr(sys_llr, lp1, ext2)
            ext1 = post1 - sys_llr - ext2
            post2 = self.rsc.bcjr(sys_perm, lp2, ext1[:, self.permutation])
            ext2 = (post2 - sys_perm - ext1[:, self.permutation])[:, self.inverse]
        posterior = post2[:, self.inverse]
        return (posterior < 0).astype(np.int8)
