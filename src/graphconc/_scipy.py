"""scipy's submodules, each imported at its first use.

scipy serves two things here: the csr build (``sparse``, for the
graphs' matrices and the cheap norm bounds) and the csr product's
kernel (``csr_product``).  LAPACK comes from numpy's own OpenBLAS
(``_lapack``), so no command loads scipy.linalg or scipy's second
OpenBLAS.

``import graphconc`` loads numpy alone.  Importing scipy.sparse takes
about 0.3 s, more than a whole ``graphconc sample`` run needs, and a
command that never calls a solver should not pay it.  ``sparse``
imports its submodule once; later calls return the cached module for
about the cost of an attribute lookup (70 ns), so per-step code may
call it.

``csr_product`` is the product x -> A @ x of a csr matrix, run by the
kernel ``A @ x`` itself runs: ``_sparsetools.csr_matvec``, writing into
a fresh zeroed vector.  ``A @ x`` reaches it through scipy's operator
dispatch (shape and type checks, an upcast, a getattr per call), which
cost as much as the kernel itself on an n = 1000 trimmed graph: 0.205 s
against 0.097 s over eight profiled solve reps.  The kernel is private
to scipy, so a test pins its output to ``A @ x`` bit for bit, and a
scipy release that moves it fails that test.
"""

from __future__ import annotations

from functools import cache

import numpy as np


@cache
def sparse():
    import scipy.sparse
    return scipy.sparse


def csr_product(A):
    """x -> A @ x for a csr matrix A with float64 data and a float64
    vector x, bit for bit, without scipy's dispatch (module docstring)."""
    from scipy.sparse import _sparsetools
    matvec = _sparsetools.csr_matvec
    (rows, cols), indptr, indices, data = A.shape, A.indptr, A.indices, A.data

    def product(x):
        y = np.zeros(rows)
        matvec(rows, cols, indptr, indices, data, x, y)
        return y

    return product

