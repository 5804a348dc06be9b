"""scipy's submodules, each imported at its first use.

``import graphconc`` loads numpy alone.  Importing scipy.sparse and
scipy.linalg takes about 0.3 s, more than a whole ``graphconc sample``
run needs, and a command that never calls a solver should not pay it.
Each accessor imports its submodule once; later calls return the
cached module for about the cost of an attribute lookup (70 ns), so
per-step code may call them.
"""

from __future__ import annotations

from functools import cache


@cache
def lapack():
    import scipy.linalg.lapack
    return scipy.linalg.lapack


@cache
def sparse():
    import scipy.sparse
    return scipy.sparse


@cache
def sparse_linalg():
    import scipy.sparse.linalg
    return scipy.sparse.linalg
