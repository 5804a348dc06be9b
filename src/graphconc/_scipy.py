"""scipy's submodules, each imported at its first use.

``import graphconc`` loads numpy alone.  Importing scipy.sparse and
scipy.linalg takes about 0.3 s, more than a whole ``graphconc sample``
run needs, and a command that never calls a solver should not pay it.
Each accessor imports its submodule once; later calls return the
cached module for about the cost of an attribute lookup (70 ns), so
per-step code may call them.

scipy's wheels bundle their own OpenBLAS, beside numpy's, and each
starts a thread pool of one thread per core.  scipy's serves LAPACK
here (``pietsch``'s dsyevd and dsyevr) and ARPACK in
``community.detect``, while the matvecs around them run on numpy's; on
a 2-core VM the two pools fought, and ``detect`` at n = 32000 took
2.2-3.2 s a call against 0.66-0.83 s.  So the first load of
``scipy.linalg.lapack`` or ``scipy.sparse.linalg`` sets scipy's pool to
one thread, unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set (the
caller's choice then stands).  Where the bundled library or its
``scipy_openblas_set_num_threads`` is not found, nothing is changed.
numpy's pool is left alone.
"""

from __future__ import annotations

import ctypes
import glob
import os
from functools import cache


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


@cache
def sparse_linalg():
    import scipy.sparse.linalg
    _one_scipy_blas_thread()
    return scipy.sparse.linalg
