"""Matrix-free linear operators.

Everything downstream (norm estimation, eigensolvers, the factorization
routines) consumes the small ``LinearOp`` wrapper below, so dense
arrays, scipy sparse matrices and structured closures are
interchangeable.  ``matvec``/``rmatvec`` act on 1-d float vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch


class LinearOp:
    """Linear map given by closures; shape (n_rows, n_cols)."""

    def __init__(self, n_rows, n_cols, matvec, rmatvec=None, symmetric=False):
        if symmetric and n_rows != n_cols:
            raise DimensionMismatch("symmetric operator must be square")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self._matvec = matvec
        self._rmatvec = matvec if (rmatvec is None and symmetric) else rmatvec
        self.symmetric = bool(symmetric)
        self._dense = None  # the matrix of an op built by from_dense

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_cols,):
            raise DimensionMismatch(f"expected vector of length {self.n_cols}")
        return np.asarray(self._matvec(x), dtype=float)

    def rmatvec(self, x):
        if self._rmatvec is None:
            raise DimensionMismatch("operator has no rmatvec")
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_rows,):
            raise DimensionMismatch(f"expected vector of length {self.n_rows}")
        return np.asarray(self._rmatvec(x), dtype=float)

    @property
    def T(self):
        if self.symmetric:
            return self
        return LinearOp(self.n_cols, self.n_rows, self._rmatvec, self._matvec)

    def to_dense(self):
        """A copy of the matrix of an op built by ``from_dense``; any other
        op is materialized column by column (meant for tests and small ops).
        A structured model's EA is one product instead:
        ``models.expected_dense``."""
        if self._dense is not None:
            return self._dense.copy()
        out = np.empty((self.n_rows, self.n_cols))
        e = np.zeros(self.n_cols)
        for k in range(self.n_cols):
            e[k] = 1.0
            out[:, k] = self.matvec(e)
            e[k] = 0.0
        return out

    @classmethod
    def from_dense(cls, M, symmetric=None):
        M = np.asarray(M, dtype=float)
        if symmetric is None:
            symmetric = M.shape[0] == M.shape[1] and np.array_equal(M, M.T)
        op = cls(M.shape[0], M.shape[1], lambda x: M @ x, lambda x: M.T @ x,
                 symmetric=symmetric)
        op._dense = M
        return op


def compose_difference(a, b):
    """The deviation operator a - b.

    Its closures call a's and b's own closures and subtract once: the
    shape and dtype checks of LinearOp.matvec run on the outer op only.
    """
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot subtract shapes {a.shape} and {b.shape}")
    amv, bmv, armv, brmv = a._matvec, b._matvec, a._rmatvec, b._rmatvec
    rmv = (None if armv is None or brmv is None
           else lambda x: armv(x) - brmv(x))
    return LinearOp(a.n_rows, a.n_cols, lambda x: amv(x) - bmv(x), rmv,
                    symmetric=a.symmetric and b.symmetric)
