"""Nonrecursive convolutional coding with a batched soft-decision Viterbi.

Generator polynomials use the customary octal notation with the most
significant bit acting on the current input bit, so the first output
stream of the (0o35, 0o23) code has impulse response 1,1,1,0,1.  Encoding
is zero-terminated: ``memory`` tail zeros drive the encoder back to state
zero, and the decoder exploits the known start and end states.

The Viterbi decoder is fully vectorized over a batch of codewords and over
the trellis states; only the time axis is a Python loop.  Soft inputs are
correlation metrics (positive values favour bit 0 / symbol +1) and any
positive per-codeword scaling leaves the decisions unchanged.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError

_NEG = -1e30
_CHUNK = 64   # trellis steps per block of branch metrics (cache-sized)


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _predecessors(next_state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pred_state, pred_bit), each (S, 2): the two (state, bit) entering each state.

    Every shift-register trellis here has exactly two predecessors per state.
    """
    n_states = next_state.shape[0]
    pred_state = np.empty((n_states, 2), dtype=np.int64)
    pred_bit = np.empty((n_states, 2), dtype=np.int64)
    fill = np.zeros(n_states, dtype=np.int64)
    for state in range(n_states):
        for bit in (0, 1):
            nxt = next_state[state, bit]
            pred_state[nxt, fill[nxt]] = state
            pred_bit[nxt, fill[nxt]] = bit
            fill[nxt] += 1
    return pred_state, pred_bit


class ConvolutionalCode:
    """Rate-1/2 feedforward convolutional code with terminated blocks."""

    def __init__(self, generators=(0o35, 0o23)):
        self.generators = tuple(int(g) for g in generators)
        if len(self.generators) != 2:
            raise ParameterError("exactly two generator polynomials expected")
        self.constraint_length = max(g.bit_length() for g in self.generators)
        self.memory = self.constraint_length - 1
        self.n_states = 1 << self.memory
        m, n_states = self.memory, self.n_states
        self.next_state = np.empty((n_states, 2), dtype=np.int64)
        out_bits = np.empty((n_states, 2, 2), dtype=np.int8)
        for state in range(n_states):
            for bit in (0, 1):
                reg = (bit << m) | state
                for j, gen in enumerate(self.generators):
                    out_bits[state, bit, j] = _parity(gen & reg)
                self.next_state[state, bit] = reg >> 1
        self.out_signs = (1.0 - 2.0 * out_bits).astype(np.float64)
        self.pred_state, self.pred_bit = _predecessors(self.next_state)
        # output signs of the branches arriving in each state, per output
        # stream: (2, 2S) with the arriving branches of state s at 2s, 2s+1
        self._arrive_signs = np.ascontiguousarray(
            self.out_signs[self.pred_state, self.pred_bit].reshape(2 * n_states, 2).T)

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Encode batched info bits (B, k) -> coded bits (B, 2*(k+memory))."""
        info_bits = np.atleast_2d(np.asarray(info_bits, dtype=np.int8))
        batch, k = info_bits.shape
        steps = k + self.memory
        padded = np.zeros((batch, steps), dtype=np.int8)
        padded[:, :k] = info_bits
        coded = np.zeros((batch, steps, 2), dtype=np.int8)
        for j, gen in enumerate(self.generators):
            acc = np.zeros((batch, steps), dtype=np.int8)
            for delay in range(self.constraint_length):
                if (gen >> (self.memory - delay)) & 1:
                    acc[:, delay:] ^= padded[:, :steps - delay]
            coded[:, :, j] = acc
        return coded.reshape(batch, 2 * steps)

    def viterbi_decode(self, soft: np.ndarray) -> np.ndarray:
        """Maximum-likelihood sequence decisions from soft inputs (B, 2T)."""
        soft = np.atleast_2d(np.asarray(soft, dtype=np.float64))
        batch, total = soft.shape
        if total % 2:
            raise ParameterError("soft input length must be even")
        steps = total // 2
        n_info = steps - self.memory
        if n_info < 1:
            raise ParameterError("codeword shorter than the encoder tail")

        ps, pb = self.pred_state, self.pred_bit
        metrics = np.full((batch, self.n_states), _NEG)
        metrics[:, 0] = 0.0
        survivors = np.empty((steps, batch, self.n_states), dtype=np.int8)
        arrive = np.empty((batch, self.n_states, 2))
        for start in range(0, steps, _CHUNK):
            stop = min(start + _CHUNK, steps)
            # branch[t, b, s, j]: metric of the j-th branch arriving in state s
            branch = (soft[:, 2 * start:2 * stop:2].T[:, :, None] * self._arrive_signs[0]
                      + soft[:, 2 * start + 1:2 * stop:2].T[:, :, None] * self._arrive_signs[1]
                      ).reshape(stop - start, batch, self.n_states, 2)
            for t in range(start, stop):
                metrics.take(ps, axis=1, out=arrive)
                arrive += branch[t - start]
                # a tie keeps the first branch, as argmax would
                np.greater(arrive[:, :, 1], arrive[:, :, 0], out=survivors[t])
                np.maximum(arrive[:, :, 0], arrive[:, :, 1], out=metrics)

        # flat indices: survivor of (b, s) at b*S + s, branch j of state s at 2s + j
        flat_survivors = survivors.reshape(steps, batch * self.n_states)
        offsets = np.arange(batch) * self.n_states
        ps_flat, pb_flat = ps.ravel(), pb.ravel()
        bits = np.empty((batch, steps), dtype=np.int8)
        state = np.zeros(batch, dtype=np.int64)   # terminated blocks end in 0
        for t in range(steps - 1, -1, -1):
            branch = 2 * state + flat_survivors[t].take(offsets + state)
            bits[:, t] = pb_flat.take(branch)
            state = ps_flat.take(branch)
        return bits[:, :n_info]
