"""The four LAPACK routines the package calls, bound by ctypes from the
library numpy's own linalg is linked against.

* ``Eigh`` -- dsyevd, the eigenpairs of a symmetric matrix from its
  lower triangle: ``spectral.ritz_pairs``' Ritz pairs and GP's exact
  oracle (``pietsch._oracle``);
* ``Bisection`` -- dstebz, one eigenvalue of a tridiagonal matrix by
  bisection: the stop test of ``spectral._lanczos``;
* ``band_largest`` -- dsbevx, the top eigenvalue of a symmetric band
  matrix: the value that solve returns;
* ``cholesky`` -- dpotrf, whether a symmetric matrix is positive
  definite: GP's certificate ||B_J|| < t (``pietsch._norm_below``).

numpy.linalg wraps dsyevd (eigh) and dpotrf (cholesky) behind per-call
checks and copies, and dstebz and dsbevx not at all.
scipy.linalg.lapack wraps all four, but its first import loads 43
scipy.linalg modules and scipy's own OpenBLAS beside numpy's: 8.7 MB
of a ``solve`` run's 69.2 MB peak (``BENCH_one_openblas.json``), and a
second BLAS thread pool that fought numpy's on small calls.  So the
routines come from the library ``numpy.linalg._umath_linalg`` loads,
numpy's OpenBLAS, and no module of the package imports scipy.linalg.

Platform requirement: numpy's LAPACK must export the four routines.
For a routine r the symbols tried, in order, are ``scipy_<r>_64_``
(64-bit integers, as numpy's wheels export them), ``<r>_64_`` (64-bit)
and ``<r>_`` (32-bit); only the first form has been exercised (numpy
2.4.6).  When none resolves, the first call that needs the routine
raises ImportError naming it.

Each argument is passed as a ctypes object: a pointer to a number
(``ctypes.byref``), an ndarray's address or a ctypes array, with each
character argument's hidden length (1) last, as gfortran passes it.
Workspaces are ctypes arrays, which an argument block keeps alive, and
whose address costs less to take than an ndarray's (1.4 us).  No
``argtypes`` are declared: their conversion cost 2 us a call, a fifth
of a small dsyevd.  Sizes, dtypes and layouts are checked here
instead, before an address is taken.  ``Eigh`` and ``Bisection`` build
their workspaces and argument block once, so that a call sets a few
integers and costs what scipy's f2py call did, within 0.3 us (a block
built per call costs 5-9 us more).  Each such object belongs to one
caller: ctypes releases the GIL during the call, so trials on two
threads run LAPACK at once, each in workspaces of its own.  The
arguments are scipy's f2py defaults (workspace sizes, abstol 0), so
the results are scipy's bit for bit, as the tests check.
"""

from __future__ import annotations

import ctypes
from functools import cache, partial

import numpy as np

# the symbol forms of routine r tried in order, with their integer type
_FORMS = (("scipy_{}_64_", ctypes.c_int64), ("{}_64_", ctypes.c_int64),
          ("{}_", ctypes.c_int32))
# Fortran's hidden length of a one-character argument, passed last
_LEN = ctypes.c_size_t(1)
_ZERO = ctypes.byref(ctypes.c_double(0.0))
_byref = ctypes.byref
# the character arguments, shared: LAPACK only reads them
_CHAR = {c: ctypes.c_char_p(c.encode()) for c in "EILNUV"}


def _ptr(a):
    return ctypes.c_void_p(a.ctypes.data)


@cache
def _routine(name):
    """(function, integer ctype) of LAPACK routine ``name`` in numpy's
    library, the first of ``_FORMS`` that resolves."""
    from numpy.linalg import _umath_linalg
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for form, integer in _FORMS:
        try:
            fn = getattr(lib, form.format(name))
        except AttributeError:
            continue
        fn.restype = None
        return fn, integer
    raise ImportError(f"numpy's LAPACK exports no {name} (tried "
                      + ", ".join(f.format(name) for f, _ in _FORMS) + ")")


def _check(a, ndim, fortran=False):
    flags = a.flags
    if (a.dtype != np.float64 or a.ndim != ndim
            or not (flags.f_contiguous if fortran else flags.c_contiguous)):
        raise ValueError(f"need a {'F' if fortran else 'C'}-contiguous "
                         f"float64 array of {ndim} dimensions")


class Eigh:
    """dsyevd ('V', lower triangle) on symmetric matrices of order at
    most n, held in this object's own buffer.

    ``matrix(m)`` is the m x m Fortran-ordered matrix a call reads, a
    view of that buffer, which the caller writes; ``self(m)`` returns
    (w, V), the eigenvalues (ascending) and eigenvectors of the
    symmetric matrix whose lower triangle ``matrix(m)`` holds.  V is
    that matrix, overwritten, and the next call overwrites w and V.
    The workspaces are f2py's defaults for order m, so the result is
    scipy's dsyevd bit for bit, and so numpy's eigh.
    """

    def __init__(self, n):
        fn, integer = _routine("dsyevd")
        self._size, self._order = n, None
        self._buf, self._w = np.empty(n * n), np.empty(n)
        self._m, self._lwork, self._liwork, self._info = (
            integer(), integer(), integer(), integer())
        m = _byref(self._m)
        self._call = partial(
            fn, _CHAR["V"], _CHAR["L"], m, _ptr(self._buf), m,
            _ptr(self._w), (ctypes.c_double * (1 + 6 * n + 2 * n * n))(),
            _byref(self._lwork), (integer * (3 + 5 * n))(),
            _byref(self._liwork), _byref(self._info), _LEN, _LEN)

    def matrix(self, m):
        """The Fortran-ordered m x m matrix the call of order m reads."""
        if not 1 <= m <= self._size:
            raise ValueError(f"need 1 <= m <= {self._size}")
        return self._buf[:m * m].reshape((m, m), order="F")

    def __call__(self, m):
        if m != self._order:
            self._views = self._w[:m], self.matrix(m)
            self._m.value, self._lwork.value = m, 1 + 6 * m + 2 * m * m
            self._liwork.value, self._order = 3 + 5 * m, m
        self._call()
        if self._info.value:
            raise np.linalg.LinAlgError(f"dsyevd failed: info "
                                        f"{self._info.value}")
        return self._views


class Bisection:
    """``self(n, i)``: the i-th smallest eigenvalue of the tridiagonal
    matrix with diagonal d[:n] and off-diagonal e[:n - 1], by dstebz
    ('I', 'E', abstol 0), for the arrays d and e given once and read
    where they lie (a Lanczos solve's alpha and beta, filled as it
    goes).  The workspaces hold the largest n asked so far and double
    when a call asks more, so a short solve holds little.
    """

    def __init__(self, d, e):
        _check(d, 1)
        _check(e, 1)
        if e.size < d.size - 1:
            raise ValueError("e needs d.size - 1 entries")
        self._fn, integer = _routine("dstebz")
        self._d, self._e, self._integer, self._size = d, e, integer, 0
        self._n, self._i, self._m, self._nsplit, self._info = (
            integer(), integer(), integer(), integer(), integer())
        i = _byref(self._i)  # il = iu = i
        self._head = (_CHAR["I"], _CHAR["E"], _byref(self._n), _ZERO, _ZERO,
                      i, i, _ZERO, _ptr(d), _ptr(e), _byref(self._m),
                      _byref(self._nsplit))

    def _grow(self, n):
        if n > self._d.size:
            raise ValueError(f"need n <= {self._d.size}")
        size = self._size = min(max(n, 2 * self._size), self._d.size)
        # w; iblock, isplit and iwork (3 size) in one integer array
        self._w, work = (ctypes.c_double * size)(), (
            ctypes.c_double * (4 * size))()
        ints, width = (self._integer * (5 * size))(), ctypes.sizeof(
            self._integer)
        self._call = partial(
            self._fn, *self._head, self._w, ints,
            _byref(ints, size * width), work, _byref(ints, 2 * size * width),
            _byref(self._info), _LEN, _LEN)

    def __call__(self, n, i):
        if not 1 <= i <= n:
            raise ValueError(f"need 1 <= i <= n, not i = {i}, n = {n}")
        if n > self._size:
            self._grow(n)
        self._n.value, self._i.value = n, i
        self._call()
        if self._info.value:
            raise np.linalg.LinAlgError(f"dstebz failed: info "
                                        f"{self._info.value}")
        return self._w[0]


def band_largest(band):
    """The largest eigenvalue of the symmetric band matrix whose upper
    band storage is ``band`` (kd + 1 rows, Fortran order), by dsbevx
    ('N', 'I', 'U', il = iu = n, abstol 0).  ``band`` is overwritten."""
    _check(band, 2, fortran=True)
    fn, integer = _routine("dsbevx")
    rows, n = band.shape
    if n == 0:
        raise ValueError("need a matrix of order 1 or more")
    # w, then the work array; iwork, then ifail
    floats, ints = (ctypes.c_double * (8 * n))(), (integer * (6 * n))()
    unused = _byref(ctypes.c_double())  # Q and Z, not referenced for 'N'
    m, info = integer(), integer()
    one, order = _byref(integer(1)), _byref(integer(n))
    fn(_CHAR["N"], _CHAR["I"], _CHAR["U"], order, _byref(integer(rows - 1)),
       _ptr(band), _byref(integer(rows)), unused, one, _ZERO, _ZERO, order,
       order, _ZERO, _byref(m), floats, unused, one, _byref(floats, 8 * n),
       ints, _byref(ints, 5 * n * ctypes.sizeof(integer)), _byref(info),
       _LEN, _LEN, _LEN)
    if info.value:
        raise np.linalg.LinAlgError(f"dsbevx failed: info {info.value}")
    return floats[0]


def cholesky(a):
    """dpotrf ('U') on the square Fortran-ordered matrix ``a``, in
    place: its upper triangle is overwritten and its strict lower one
    neither read nor written.  Returns dpotrf's info: 0 when ``a`` is
    positive definite up to rounding, otherwise the order of the first
    leading minor that is not."""
    _check(a, 2, fortran=True)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("need a square matrix")
    fn, integer = _routine("dpotrf")
    order, info = _byref(integer(n)), integer()
    fn(_CHAR["U"], order, _ptr(a), order, _byref(info), _LEN)
    if info.value < 0:
        raise np.linalg.LinAlgError(f"dpotrf failed: info {info.value}")
    return info.value
