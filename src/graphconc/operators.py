"""Matrix-free linear operators.

Everything downstream (norm estimation, eigensolvers, the factorization
routines) consumes the small ``LinearOp`` wrapper below, so dense
arrays, scipy sparse matrices and structured closures are
interchangeable.  ``matvec``/``rmatvec`` act on 1-d float vectors.

A ``LinearOp`` closure returns a new array, or its input or a view of
it; never an array it keeps between calls.  So a caller may write into
a product that ``owned`` hands back, and the deviation products below
subtract in place: a step allocates its products and nothing else.
(A bare product handed to ``spectral.ritz_pairs`` may reuse a buffer;
see there.)
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

_FLOAT = np.dtype(np.float64)  # native float64, one object


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
        A model's EA is read by its entries instead (its ``ea_block``
        and ``models.expected_dense``), never through this."""
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


def owned(y, x):
    """The product ``y`` of the input ``x`` as a float64 array the caller
    may write: ``y`` itself when it owns its memory and is not ``x``
    (a new product, by the closures' contract), else a copy.  Checks
    identity and ownership only, no memory scan."""
    if (type(y) is np.ndarray and y.base is None and y is not x
            and y.dtype is _FLOAT and y.flags.writeable):
        return y
    return np.array(y, dtype=float)


def _difference(amv, bmv):
    def mv(x):
        y = owned(amv(x), x)
        y -= bmv(x)
        return y

    return mv


def compose_difference(a, b):
    """The deviation operator a - b.

    Its closures call a's and b's own closures and subtract b's product
    from a's in place (``owned``), bit for bit ``amv(x) - bmv(x)``: the
    shape and dtype checks of LinearOp.matvec run on the outer op only,
    and a product allocates a's and b's vectors, no third.
    """
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot subtract shapes {a.shape} and {b.shape}")
    armv, brmv = a._rmatvec, b._rmatvec
    rmv = None if armv is None or brmv is None else _difference(armv, brmv)
    return LinearOp(a.n_rows, a.n_cols, _difference(a._matvec, b._matvec),
                    rmv, symmetric=a.symmetric and b.symmetric)
