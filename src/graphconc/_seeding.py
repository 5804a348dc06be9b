"""Counter-based randomness shared by the samplers and the solvers.

Every random quantity in the package is a pure function of
``(master_seed, stream_index, subkey)`` through the Philox4x64 bit
generator.  A *stream* is one Monte-Carlo trial; inside a stream,
independent randomness is partitioned by a 32-bit subkey:

* subkeys ``0 .. 2**30 - 1`` address row blocks of a sample: subkey b
  decides the pairs (i, j), j > i, whose row i lies in rows
  ``b * ROW_BLOCK .. (b + 1) * ROW_BLOCK - 1``;
* subkeys ``2**30 .. 2**31 - 1`` address the same row blocks for the
  lower orientation j < i, drawn only by directed samples;
* subkeys ``2**31 ..`` are reserved for auxiliary draws (solver start
  vectors and the like), built with :func:`aux_generator`.

Philox key layout: ``key[0] = master_seed`` (mod 2**64) and
``key[1] = (stream_index << 32) | subkey``.  The sampler reads a row
block's stream through :class:`BlockWords`: Philox's raw 64-bit outputs,
in order, each mapped to a double in (0, 1].  numpy guarantees the raw
output of a bit generator across versions, which it does not promise for
its distribution methods, so the sampler inverts its own laws.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

ROW_BLOCK = 1024
_LOWER_BASE = 0x40000000
_AUX_BASE = np.uint32(0x80000000)


def _philox(master_seed: int, stream_index: int, subkey: int) -> Philox:
    key = np.empty(2, dtype=np.uint64)
    key[0] = np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF)
    key[1] = np.uint64(((stream_index & 0xFFFFFFFF) << 32) | (subkey & 0xFFFFFFFF))
    return Philox(key=key)


class BlockWords:
    """The (0, 1] doubles ((w >> 11) + 1) / 2**53 of a row block's raw
    Philox words w, read strictly in order.

    ``peek`` may draw ahead; words drawn but not yet taken stay buffered
    for the next reader, so how far anyone peeks never changes which word
    decides which pair.
    """

    def __init__(self, master_seed: int, stream_index: int, block: int, lower: bool = False):
        if not 0 <= block < _LOWER_BASE:
            raise ValueError("row block index out of range")
        self._bits = _philox(master_seed, stream_index, (_LOWER_BASE if lower else 0) + block)
        self._buf = np.empty(0)

    def peek(self, m: int) -> np.ndarray:
        """The next ``m`` doubles, left unread."""
        short = m - self._buf.size
        if short > 0:
            raw = self._bits.random_raw(short) >> np.uint64(11)
            fresh = (raw.astype(np.float64) + 1.0) * 2.0**-53
            self._buf = np.concatenate([self._buf, fresh]) if self._buf.size else fresh
        return self._buf[:m]

    def take(self, m: int) -> np.ndarray:
        """The next ``m`` doubles, marked read."""
        out = self.peek(m)
        self._buf = self._buf[m:]
        return out


def aux_generator(master_seed: int, stream_index: int, purpose: int) -> Generator:
    """Generator for non-sampling randomness; ``purpose`` is a small namespace id."""
    return Generator(_philox(master_seed, stream_index, int(_AUX_BASE) | purpose))
