"""A fixed piece of work that gauges the machine's speed of the moment.

On a shared host the same code runs 25 % faster or slower from one
minute to the next, as neighbours load the cores and caches, and that
drift swamps any change worth measuring.  ``run.py`` therefore times
this kernel right before and after every step of every untraced rep and
reports each step's time as a multiple of the kernel's time around it:
the drift slows both alike and cancels out.

The kernel uses numpy and scipy only, never graphconc, so it is the
same work in every checkout: a parent and a change are measured against
the same yardstick.  Its mix follows the two workloads: one Philox
stream per row as ``graphconc.models`` samples them, dense
matrix-vector products as in GP mirror descent, sparse ones as in the
power iteration and Lanczos, and plain interpreter work.  It takes
about 0.1 s on a 2-core VM.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

ROWS, ROW_LEN = 1000, 4000
DENSE_N, DENSE_ITERS = 256, 300
SPARSE_N, SPARSE_ITERS = 4000, 300
LOOP = 50_000


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.dense = rng.standard_normal((DENSE_N, DENSE_N))
        # about three entries a row plus the diagonal; built from index
        # arrays, as scipy.sparse.random would allocate an n*n permutation
        # and inflate the run's peak RSS
        nnz = 3 * SPARSE_N
        rows = np.concatenate([rng.integers(0, SPARSE_N, nnz),
                               np.arange(SPARSE_N)])
        cols = np.concatenate([rng.integers(0, SPARSE_N, nnz),
                               np.arange(SPARSE_N)])
        vals = np.concatenate([rng.random(nnz), np.ones(SPARSE_N)])
        self.sparse = sp.csr_matrix((vals, (rows, cols)),
                                    shape=(SPARSE_N, SPARSE_N))

    def __call__(self):
        """Seconds the kernel took."""
        t0 = time.perf_counter()
        for row in range(ROWS):
            u = np.random.Generator(np.random.Philox(key=row)).random(ROW_LEN)
            np.flatnonzero(u < 1e-3)
        v = np.ones(DENSE_N)
        for _ in range(DENSE_ITERS):
            v = self.dense @ v
            v /= np.linalg.norm(v)
        x = np.ones(SPARSE_N)
        for _ in range(SPARSE_ITERS):
            x = self.sparse @ x
            x /= np.linalg.norm(x)
        acc = 0
        for i in range(LOOP):
            acc += i * i % 7
        return time.perf_counter() - t0
