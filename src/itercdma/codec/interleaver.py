"""Seeded uniform-random symbol interleaving.

The permutation is drawn once from the seed.  Callers read through it
(``y = x[..., perm]``) and undo it with its inverse,
``x = y[..., np.argsort(perm)]``.
"""

from __future__ import annotations

import numpy as np


def make_permutation(length: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.permutation(length)
