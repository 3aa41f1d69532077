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

One array helper, ``shift_register_trellis``, builds the tables of this
code and of the recursive turbo constituent.  The register shifts right, so
state s = hi*S/2 + lo (S states) is entered with input bit hi from states
pred_state[s] = (2*lo, 2*lo + 1).  Laid out as (2, S), the metrics arriving
over all 2*S branches are the old path metrics broadcast over hi (a
butterfly), so each step is one add and one compare-select.
After the forward pass the survivors become flat predecessor indices, the
traceback is one gather per step, and the decided bits are the top bits of
the states the path enters.  A memoryless code runs on a two-state trellis
whose register no output sees, closed by one zero-metric step, so the
butterfly covers it too.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError

_NEG = -1e30
_CHUNK = 64   # trellis steps per block of branch metrics (cache-sized)


def shift_register_trellis(memory: int, taps, feedback_taps: int = 0):
    """Trellis tables of a right-shifting register with 2**memory states.

    The register holds the new bit above the state: the input bit, plus the
    parity of ``feedback_taps & state`` for a recursive code.  Returns
    next_state (S, 2) and out_bits (S, 2, len(taps)) over (state, input bit),
    output j being the parity of ``taps[j] & register``, and pred_state,
    pred_bit (S, 2): the two branches entering each state in (state, bit)
    order, found by stably sorting the branches by the state they enter.
    """
    state = np.arange(1 << memory)[:, None]
    feedback = np.bitwise_count(feedback_taps & state) & 1
    register = (np.arange(2) ^ feedback) << memory | state
    next_state = register >> 1
    out_bits = (np.bitwise_count(register[..., None] & np.array(taps)) & 1).astype(np.int8)
    pred_state, pred_bit = np.divmod(
        np.argsort(next_state, axis=None, kind="stable").reshape(-1, 2), 2)
    return next_state, out_bits, pred_state, pred_bit


class ConvolutionalCode:
    """Rate-1/2 feedforward convolutional code with terminated blocks."""

    def __init__(self, generators=(0o35, 0o23)):
        self.generators = tuple(int(g) for g in generators)
        if len(self.generators) != 2:
            raise ParameterError("exactly two generator polynomials expected")
        self.constraint_length = max(g.bit_length() for g in self.generators)
        self.memory = self.constraint_length - 1
        if self.memory < 0:
            raise ParameterError("at least one generator polynomial must be nonzero")
        # trellis steps the decoder appends to close a memoryless code
        self._closing = 1 if self.memory == 0 else 0
        m = self.memory + self._closing
        self.n_states = n_states = 1 << m
        self.next_state, out_bits, self.pred_state, self.pred_bit = shift_register_trellis(
            m, [gen << self._closing for gen in self.generators])
        self.out_signs = 1.0 - 2.0 * out_bits
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
        n_info = total // 2 - self.memory
        if n_info < 1:
            raise ParameterError("codeword shorter than the encoder tail")
        soft = np.pad(soft, ((0, 0), (0, 2 * self._closing)))
        steps = soft.shape[1] // 2

        n_states, half = self.n_states, self.n_states // 2
        metrics = np.full((batch, n_states), _NEG)
        metrics[:, 0] = 0.0
        survivors = np.empty((steps, batch, n_states), dtype=np.int8)
        departing = metrics[:, None, :]          # broadcast over hi: the butterfly
        pairs = soft.reshape(batch, steps, 2).transpose(1, 0, 2)     # (T, B, 2)
        for start in range(0, steps, _CHUNK):
            stop = min(start + _CHUNK, steps)
            # arrive[t, b, s, j]: branch metric of the j-th branch arriving in
            # state s, to which each step adds the departing path metrics
            arrive = (pairs[start:stop] @ self._arrive_signs).reshape(
                stop - start, batch, n_states, 2)
            for both, first, second in zip(arrive.reshape(stop - start, batch, 2, n_states),
                                           arrive[..., 0], arrive[..., 1]):
                np.add(both, departing, out=both)
                np.maximum(first, second, out=metrics)
            # a tie keeps the first branch, as argmax would
            np.greater(arrive[..., 1], arrive[..., 0], out=survivors[start:stop])

        # flat predecessor b*S + pred_state[s, 0] + survivor of each (t, b, s),
        # so that the traceback is one gather per step; terminated blocks end
        # in state 0
        base = (np.arange(batch, dtype=np.int32)[:, None] * n_states
                + self.pred_state[:, 0].astype(np.int32))
        predecessors = (base + survivors).reshape(steps, batch * n_states)
        states = np.empty((steps, batch), dtype=np.int32)   # flat state entered at t
        states[-1] = base[:, 0]
        for pred, entered, previous in zip(predecessors[:0:-1], states[:0:-1], states[-2::-1]):
            pred.take(entered, out=previous)
        # the input bit of a step is the top bit of the state it enters
        return ((states[:n_info] % n_states) >= half).T.astype(np.int8)
