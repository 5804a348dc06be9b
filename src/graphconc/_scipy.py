"""scipy's submodules, each imported at its first use.

``import graphconc`` loads numpy alone.  Importing scipy.sparse and
scipy.linalg takes about 0.3 s, more than a whole ``graphconc sample``
run needs, and a command that never calls a solver should not pay it.
Each accessor imports its submodule once; later calls return the
cached module for about the cost of an attribute lookup (70 ns), so
per-step code may call them.

scipy's wheels bundle their own OpenBLAS, beside numpy's, and each
starts a thread pool of one thread per core.  scipy's serves LAPACK
here (``pietsch``'s dpotrf; ``spectral``'s dstebz, dsbevx and the
dsyevd of ``eigh_lower``, which serves ``ritz_pairs`` and GP's exact
route), while the products around them run on numpy's.  GP makes
many small LAPACK calls between numpy products, and there the two
pools fight: on a 2-core VM a 10-trial decompose at n = 512, d = 8
took 0.45-0.68 s wall and 0.79-1.14 s CPU with scipy's pool at one
thread, against 0.94-1.42 s and 1.73-2.64 s at its default (5
alternating processes a side).  One n = 4096 part, whose large
dpotrf gains from a second thread, took 2.38-3.05 s against
2.10-2.64 s, and ``community.detect`` (numpy's pool alone) took
0.82-0.94 s at n = 32000 either way.  So the first load of
``scipy.linalg.lapack`` sets scipy's pool to one thread, unless
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set (the caller's choice
then stands).  No solver here loads
``scipy.sparse.linalg``: the eigenpairs come from the package's own
Lanczos (``spectral.ritz_pairs``).  Where the bundled library or its
``scipy_openblas_set_num_threads`` is not found, nothing is changed.
numpy's pool is left alone.

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

import ctypes
import glob
import os
from functools import cache

import numpy as np


@cache
def _one_scipy_blas_thread():
    """Set the OpenBLAS bundled in scipy.libs to one thread, unless the
    environment sets a thread count (module docstring)."""
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    import scipy
    libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)),
                        "scipy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


@cache
def lapack():
    import scipy.linalg.lapack
    _one_scipy_blas_thread()
    return scipy.linalg.lapack


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

