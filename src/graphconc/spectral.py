"""Norm and eigenvalue estimation for LinearOps.

Routes
------
* ``spectral_norm``     -- largest singular value, as a ``NormEstimate``.
  One plain Lanczos recurrence serves every operator: a symmetric M
  itself, any other M through its Gram M^T M on the smaller side, one
  ``matvec`` and one ``rmatvec`` per step.  It neither restarts nor
  reorthogonalizes, so the solve keeps alpha, beta and two vectors
  (O(n) memory) and every product goes through
  ``LinearOp.matvec``/``rmatvec``.  The solve stops on the value, not
  on a Ritz vector, and reads both ends of the spectrum, so a +/- pair
  is never split.
* ``top_k_eigs``        -- k extremal eigenpairs of a symmetric operator
  by ARPACK ``eigsh``, residual-checked; for callers that need vectors
  (``community.detect``).  A norm needs no vector: use
  ``spectral_norm``.
* ``full_spectrum``     -- dense symmetric eigensolver (Householder
  tridiagonalization + iterative tridiagonal solve, via LAPACK) for
  desk-scale matrices; the exact reference the iterative routes are
  tested against.
* ``inf_to_2_norm_exact`` -- exact max_{x in {-1,1}^m} ||Bx||_2 by
  enumeration, a table of sign patterns at a time (m <= 24), plus two
  lower bounds for larger matrices, each from ``LOWER_STARTS`` random
  sign starts: ``inf_to_2_norm_lower`` (greedy flips on B^T B) and
  ``inf_to_2_norm_power`` (sign-power iteration on B itself).
* ``l1_operator_bound`` / ``l2_sparsity_bound`` -- cheap certified
  upper bounds on the spectral norm.

What ``spectral_norm`` returns.  After k steps on a symmetric S,
S Q_k = Q_{k+1} T^_k, where T^_k is the (k+1) x k extended tridiagonal
[T_k; beta_k e_k^T], so its sigma_max = ||S Q_k|| is at most ||S|| in
exact arithmetic: a lower bound.  For a symmetric M, S = M and the
value is that sigma_max; for any other M, S = M^T M, ||S|| = ||M||^2,
and the value is its square root, again a lower bound on ||M||.  In
finite precision the extreme Ritz values stay inside the spectrum up to
O(eps_mach ||S||) (Paige 1976).  The upper side holds with probability:
for PSD A and a uniformly random start, Kuczynski & Wozniakowski (1992,
SIAM J. Matrix Anal. Appl. 13(4)) bound P(theta_j < (1 - e) lambda_1)
by 1.648 sqrt(n) exp(-sqrt(e) (2j - 1)).  Applied to M^2 through
K_j(M^2, q) inside K_{2j-1}(M, q) (to M^T M itself, j = k), it gives
the ``eps`` returned: ||M|| <= value / (1 - eps) except with
probability 1e-3.  That is a probabilistic bound, about 1e-2 at
n = 1000, and looser than NORM_TOL; the values themselves agreed with
dense LAPACK to 7.2e-12 relative or better on 30 concentration
deviations (n = 600 and 2000, five schemes, seeds 1-3).

ARPACK needs room for its Krylov basis (k < n - 1, ncv <= n), and a
tiny Lanczos run says little, so an operator whose smaller side is at
most ``DENSE_SOLVE_LIMIT`` is materialized and solved exactly by LAPACK
instead.  Start vectors come from the ``rng`` passed, or from a fixed
``aux_generator`` subkey per solver, so every result is a pure function
of the operator and that generator.
"""

from __future__ import annotations

from math import log, sqrt
from typing import NamedTuple

import numpy as np

from . import _scipy
from ._seeding import aux_generator
from .errors import EntryOutOfRange, NoConvergence, SizeExceeded, WidthExceeded
from .operators import LinearOp

_DEFAULT_SEED = 0x5EED
DENSE_SOLVE_LIMIT = 32
FULL_SPECTRUM_LIMIT = 2048
ENUMERATION_LIMIT = 24
# inf_to_2_norm_exact tabulates the sign patterns of at most this many
# columns at once, and at most this many entries of B X^T
_PATTERN_COLS = 12
_PATTERN_ENTRIES = 1 << 16
# random sign starts of both lower bounds on ||B||_{inf->2}
LOWER_STARTS = 8
# inf_to_2_norm_power's step cap, a guard against rounding: in exact
# arithmetic every flip raises ||B x||, so the iteration ends by itself
_POWER_STEPS = 100
_MODES = {"la": "LA", "sa": "SA", "lm": "LM"}

# NORM_TOL is the accuracy the experiment-scale norms (the CLI's
# deviation norms and the Davis-Kahan check) are tested to against dense
# LAPACK at n <= 2048, far below the +/-15 % windows the reports are
# judged against.  spectral_norm itself stops on the value: once max
# |theta| over both ends of T_k moves by at most _NORM_STOP (relative)
# across _NORM_CHECK steps; NORM_MAX_ITER caps its steps.  The Laplacian
# deviation at n = 10^6, d = tau = 5 took 700 (seed 1729).
NORM_TOL = 1e-5
NORM_MAX_ITER = 20000
_NORM_STOP = 1e-9
_NORM_CHECK = 10
# beta_k below this share of ||M q_k|| means K_k is invariant
_BREAKDOWN = 1e-12
# Kuczynski-Wozniakowski: constant and the failure probability of eps
_KW_CONST = 1.648
_KW_FAIL = 1e-3


class NormEstimate(NamedTuple):
    """What ``spectral_norm`` found.

    ``value`` is sigma_max of the extended tridiagonal (its square root
    for a non-symmetric op), a lower bound on ||op||; ``steps`` the
    Lanczos steps taken (0 on the exact LAPACK route); ``eps`` the
    Kuczynski-Wozniakowski bound: ||op|| <= value / (1 - eps) except
    with probability 1e-3 (0 when exact, or when the Krylov space
    became invariant).
    """

    value: float
    steps: int
    eps: float


def spectral_norm(op, rng=None):
    """Largest singular value of ``op``, as a NormEstimate.

    An op whose smaller side is at most DENSE_SOLVE_LIMIT is solved
    exactly by LAPACK.  Otherwise Lanczos runs on a symmetric op, and
    on the Gram op^T op of any other op's smaller side, from a unit
    Gaussian start drawn from ``rng``, until max |theta| moves by
    at most _NORM_STOP across _NORM_CHECK steps or the Krylov space is
    invariant (module docstring).  Deterministic for a given rng; after
    NORM_MAX_ITER steps raises NoConvergence whose ``best`` is the
    value reached.
    """
    if rng is None:
        rng = aux_generator(_DEFAULT_SEED, 0, 1)
    if op.n_cols > op.n_rows:
        op = op.T  # same norm; the start then lives on the smaller side
    if op.n_cols == 0:
        return NormEstimate(0.0, 0, 0.0)
    if op.n_cols <= DENSE_SOLVE_LIMIT:
        return NormEstimate(float(np.linalg.norm(op.to_dense(), 2)), 0, 0.0)
    # the start is bound to no name here, so _lanczos frees it two steps on
    return _lanczos(op, _unit(rng.standard_normal(op.n_cols)),
                    gram=not op.symmetric)


def _unit(v):
    """v scaled in place to unit length."""
    v /= sqrt(v @ v)
    return v


def _kw_eps(j, n):
    """eps with ||M|| <= value / (1 - eps) but for probability _KW_FAIL,
    from the KW bound on j Lanczos steps on a PSD n x n matrix (M^2 or
    M^T M)."""
    root = log(_KW_CONST * sqrt(n) / _KW_FAIL) / (2 * j - 1)
    return 1.0 if root >= 1.0 else 1.0 - sqrt(1.0 - root * root)


def _own(w, *ours):
    """``w``, or a copy when it shares memory with one of our vectors.

    A fresh product (it owns its memory, as all our vectors do, and is
    none of them) is returned without the np.may_share_memory scan.

    ``_lanczos`` updates each product in place, through one scratch
    vector: at n = 10^6 a fresh temporary costs more than the pass that
    fills it.  It uses numpy's kernels only; scipy's BLAS (daxpy) runs
    on scipy's own OpenBLAS, and with both pools at their default
    thread count they fought on two cores: 2.4 s against 0.09 s for a
    Lanczos solve at n = 32000.  ``_scipy`` sets scipy's
    pool to one thread unless the environment sets a count, so that
    scipy's LAPACK and ARPACK calls do not fight numpy's pool.
    """
    if w.base is None and all(x.base is None and x is not w for x in ours):
        return w
    if any(np.may_share_memory(w, x) for x in ours):
        return w.copy()
    return w


def _lanczos(op, q, gram=False):
    """Three-term Lanczos from the unit vector q on a symmetric op, or,
    with ``gram``, on op^T op: x -> op.rmatvec(op.matvec(x)), whose top
    eigenvalue is ||op||^2, so the value is the root of its sigma_max
    and KW's j is the step count."""
    cap = NORM_MAX_ITER
    alpha, beta = np.empty(cap), np.empty(cap)
    q_prev, b, last = q, 0.0, None
    tmp = np.empty(q.size)

    def value(steps):
        sigma = _extended_sigma(alpha[:steps], beta[:steps])
        return sqrt(sigma) if gram else sigma

    for k in range(cap):
        w = _own(op.rmatvec(op.matvec(q)) if gram else op.matvec(q),
                 q, q_prev)
        if k:
            w -= np.multiply(q_prev, b, out=tmp)
        a = float(q @ w)
        w -= np.multiply(q, a, out=tmp)
        scale = sqrt(a * a + b * b)     # ||S q_k|| but for beta_k
        b = sqrt(float(w @ w))
        alpha[k], beta[k] = a, b
        steps = k + 1
        if b <= _BREAKDOWN * scale:
            return NormEstimate(value(steps), steps, 0.0)
        if steps % _NORM_CHECK == 0:
            d, e = alpha[:steps], beta[:steps - 1]
            top = max(-_dstebz_one(d, e, 1), _dstebz_one(d, e, steps))
            if last is not None and abs(top - last) <= _NORM_STOP * top:
                return NormEstimate(value(steps), steps, _kw_eps(
                    steps if gram else (steps + 1) // 2, op.n_cols))
            last = top
        w *= 1.0 / b
        q_prev, q = q, w
    raise NoConvergence(f"lanczos: max |theta| still moving after {cap} "
                        f"steps", best=value(cap))


def _dstebz_one(d, e, i):
    """The i-th smallest eigenvalue of the tridiagonal (d, e), by LAPACK
    dstebz (bisection for that eigenvalue only)."""
    _, w, _, _, info = _scipy.lapack().dstebz(d, e, 2, 0.0, 0.0, i, i, 0.0,
                                              "E")
    if info:
        raise np.linalg.LinAlgError(f"dstebz failed: info {info}")
    return float(w[0])


def _extended_sigma(alpha, beta):
    """sigma_max of the (k+1) x k extended tridiagonal [T_k; beta_k e_k^T]:
    the root of the top eigenvalue of its Gram T_k^2 + beta_k^2 e_k e_k^T,
    pentadiagonal, by LAPACK dsbevx on upper band storage."""
    k = alpha.size
    band = np.zeros((3, k))
    band[2] = alpha * alpha + beta * beta
    band[2, 1:] += beta[:-1] * beta[:-1]
    band[1, 1:] = beta[:-1] * (alpha[:-1] + alpha[1:])
    band[0, 2:] = beta[:-2] * beta[1:-1]
    w, _, _, _, info = _scipy.lapack().dsbevx(band, 0.0, 0.0, k, k,
                                              compute_v=0, range=2)
    if info:
        raise np.linalg.LinAlgError(f"dsbevx failed: info {info}")
    return sqrt(max(float(w[0]), 0.0))


def _select(theta, k, mode):
    """Indices of the k wanted values of ``theta``, in output order."""
    key = {"la": -theta, "sa": theta, "lm": -np.abs(theta)}[mode]
    return np.argsort(key, kind="stable")[:k]


def top_k_eigs(op, k, mode="la", tol=1e-9, max_dim=None, rng=None):
    """k extremal eigenpairs of a symmetric op by ARPACK ``eigsh``.

    mode: "la" largest algebraic, "sa" smallest algebraic, "lm" largest
    magnitude; values come back in that order.  ``max_dim`` is ARPACK's
    basis size ncv (default max(2k + 1, 20)).  An op of dimension at
    most DENSE_SOLVE_LIMIT, or with k >= n - 1, is solved exactly by
    LAPACK.  Each ARPACK pair is checked: ||op v - theta v|| <= tol *
    max(1, |theta|); vectors are orthonormal.  Raises NoConvergence
    whose ``best`` is the converged (values, vectors) pair, or None when
    ARPACK converged none.
    """
    n = op.n_rows
    if not op.symmetric:
        raise ValueError("top_k_eigs needs a symmetric operator")
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= {n}")
    if n <= DENSE_SOLVE_LIMIT or k >= n - 1:
        theta, S = np.linalg.eigh(op.to_dense())
        idx = _select(theta, k, mode)
        return theta[idx], S[:, idx]
    if rng is None:
        rng = aux_generator(_DEFAULT_SEED, 0, 2)
    ncv = min(n, max(k + 1, max_dim if max_dim is not None
                     else max(2 * k + 1, 20)))
    arpack = _scipy.sparse_linalg()
    # scipy may hand over (n, 1) columns
    A = arpack.LinearOperator(op.shape, dtype=float,
                              matvec=lambda x: op.matvec(x.ravel()))
    try:
        theta, vecs = arpack.eigsh(A, k=k, which=_MODES[mode], tol=tol,
                                   ncv=ncv, v0=rng.standard_normal(n))
    except arpack.ArpackNoConvergence as exc:
        best = None
        if exc.eigenvalues.size:
            idx = _select(exc.eigenvalues, exc.eigenvalues.size, mode)
            best = (exc.eigenvalues[idx], exc.eigenvectors[:, idx])
        raise NoConvergence(f"arpack: no convergence at ncv {ncv}",
                            best=best) from exc
    idx = _select(theta, k, mode)
    theta, vecs = theta[idx], vecs[:, idx]
    resid = np.array([np.linalg.norm(op.matvec(v) - t * v)
                      for t, v in zip(theta, vecs.T)])
    if np.any(resid > tol * np.maximum(1.0, np.abs(theta))):
        raise NoConvergence(f"arpack: residual {resid.max():.3g} above tol "
                            f"{tol}", best=(theta, vecs))
    return theta, vecs


def full_spectrum(a):
    """All eigenvalues of a symmetric matrix (ascending), n <= 2048."""
    if isinstance(a, LinearOp):
        a = a.to_dense()
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    if a.shape[0] > FULL_SPECTRUM_LIMIT:
        raise SizeExceeded(f"n = {a.shape[0]} exceeds {FULL_SPECTRUM_LIMIT}")
    if a.size and np.abs(a - a.T).max() > 1e-10 * max(1.0, np.abs(a).max()):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(a)


# ---------------------------------------------------------------------------
# infinity -> 2 norms and cheap upper bounds


def inf_to_2_norm_exact(B):
    """Exact ||B||_{inf->2} = max over sign vectors x of ||Bx||_2.

    x ~ -x symmetry fixes x_0 = +1.  The sign patterns of the next L
    columns are tabulated once, as the rows of P = X_lo B_lo^T; for each
    sign pattern x_hi of the remaining columns, B_hi x_hi + b_0 is added
    to every row of P and the largest row norm is kept.  Every ||Bx|| is
    summed afresh from B, so no rounding accumulates along the walk.
    L <= ``_PATTERN_COLS``, and small enough that P holds at most
    ``_PATTERN_ENTRIES`` numbers.  Exponential in the column count m;
    refuses m > ``ENUMERATION_LIMIT``.
    """
    B = np.asarray(B, dtype=float)
    k, m = B.shape
    if m == 0 or k == 0:
        return 0.0
    if m > ENUMERATION_LIMIT:
        raise WidthExceeded(f"{m} columns exceeds enumeration limit "
                            f"{ENUMERATION_LIMIT}")
    low = min(m - 1, _PATTERN_COLS,
              max(_PATTERN_ENTRIES // k, 1).bit_length() - 1)
    P = _signs(np.arange(1 << low)[:, None], low) @ B[:, 1:low + 1].T
    B_hi = B[:, low + 1:]
    high = B_hi.shape[1]
    best = 0.0
    for h in range(1 << high):
        Q = P + (B_hi @ _signs(h, high) + B[:, 0])
        best = max(best, float(np.einsum("ij,ij->i", Q, Q).max()))
    return float(np.sqrt(best))


def _signs(bits, m):
    """The x in {-1, 1}^m with x_c = -1 where bit c of ``bits`` is set;
    an array of bits, shaped as a column, gives one x per row."""
    return 1.0 - 2.0 * ((bits >> np.arange(m)) & 1)


def inf_to_2_norm_lower(B, rng=None, gram=None):
    """Lower bound on ||B||_{inf->2}: greedy sign flips from random starts.

    Each start flips the sign with the largest gain until none gains.
    The LOWER_STARTS starts run together as the rows of one sign matrix
    X, drawn as rng.random((LOWER_STARTS, m)) (the stream of
    LOWER_STARTS calls of rng.random(m)).  corr = X G, with G = B^T B,
    is kept up to date by one row of the symmetric G per flip, so a flip
    costs O(m), not the O(km) of recomputing B^T B x.  While every start
    is live, X and corr are read and updated in place; only once a
    start has stopped do the live rows take fancy-index copies (same
    arithmetic, same value bit for bit).  ``gram`` is G when the caller
    holds it; it is formed here otherwise.  The value is ||B x||
    recomputed from B for the final signs, so rounding in corr can never
    inflate it: always a valid lower bound.
    """
    B = np.asarray(B, dtype=float)
    k, m = B.shape
    if m == 0 or k == 0:
        return 0.0
    if rng is None:
        rng = aux_generator(_DEFAULT_SEED, 0, 3)
    G = B.T @ B if gram is None else gram
    col_sq = np.einsum("ij,ij->j", B, B)
    X = np.where(rng.random((LOWER_STARTS, m)) < 0.5, -1.0, 1.0)
    corr = X @ G
    live = np.arange(LOWER_STARTS)
    rows = slice(None)
    while live.size:
        # flipping j changes ||B x||^2 by 4 (col_sq[j] - x_j corr[j])
        gains = 4.0 * (col_sq - X[rows] * corr[rows])
        jbest = np.argmax(gains, axis=1)
        up = gains[np.arange(live.size), jbest] > 1e-12
        if not up.all():
            live, jbest = live[up], jbest[up]
            rows = live
        xj = X[live, jbest]
        corr[rows] -= (2.0 * xj)[:, None] * G[jbest]
        X[live, jbest] = -xj
    return float(np.sqrt(((B @ X.T) ** 2).sum(axis=0).max()))


def inf_to_2_norm_power(B, rng):
    """Lower bound on ||B||_{inf->2}: batched sign-power iteration.

    x <- sign(B^T (B x)) (Boyd 1974, Linear Algebra Appl. 9; Higham
    1992, Numer. Math. 62), a sign kept where B^T B x is 0, from the
    LOWER_STARTS starts ``inf_to_2_norm_lower`` draws: the rows of X,
    drawn as rng.random((LOWER_STARTS, m)).  The starts step together,
    two products per step (Y = X B^T, then Y B), and B^T B is never
    formed.  A step never lowers ||B x||: ||B x||^2 is convex and the
    new x maximizes its linearization over the cube, strictly when a
    sign flips.  The iteration stops at the first step at which no sign
    flips (or after ``_POWER_STEPS``).  The value is the largest
    ||B x||, read from the Y of the final signs, products of B by sign
    vectors: a valid lower bound whatever the rounding.  B is read in
    its own memory order.
    """
    B = np.asarray(B, dtype=float)
    X = np.where(rng.random((LOWER_STARTS, B.shape[1])) < 0.5, -1.0, 1.0)
    for _ in range(_POWER_STEPS):
        Y = X @ B.T
        Z = Y @ B
        flip = Z * X < 0.0
        if not flip.any():
            break
        X[flip] = -X[flip]
    else:
        Y = X @ B.T
    return float(np.sqrt(np.einsum("ij,ij->i", Y, Y).max()))


def l1_operator_bound(B):
    """sqrt(max row l1 norm * max column l1 norm) >= ||B||."""
    absB = abs(_scipy.sparse().csr_matrix(B))
    if 0 in absB.shape:
        return 0.0
    return float(np.sqrt(absB.sum(axis=1).max() * absB.sum(axis=0).max()))


def l2_sparsity_bound(B):
    """sqrt(max row support size * max column squared l2 norm) >= ||B||.

    Valid for entries in [0, 1] (the regime of adjacency fragments);
    anything outside that range is refused.
    """
    C = _scipy.sparse().csr_matrix(B)
    if C.nnz and (C.data.min() < 0.0 or C.data.max() > 1.0):
        raise EntryOutOfRange("l2_sparsity_bound needs entries in [0, 1]")
    if 0 in C.shape:
        return 0.0
    col_sq = C.multiply(C).sum(axis=0).max()
    return float(np.sqrt(float(np.diff(C.indptr).max()) * col_sq))
