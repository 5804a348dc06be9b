"""Norm and eigenvalue estimation for LinearOps.

Routes
------
* ``spectral_norm``     -- largest singular value.  Symmetric operators
  run implicitly restarted Lanczos (ARPACK ``eigsh``, largest magnitude,
  ||A|| = max |lambda|); other operators run ``svds``, i.e. Lanczos on
  the Gram operator of the smaller side.
* ``top_k_eigs``        -- k extremal eigenpairs of a symmetric operator
  by ARPACK ``eigsh``, with optional deflation of a known orthonormal
  block.
* ``full_spectrum``     -- dense symmetric eigensolver (Householder
  tridiagonalization + iterative tridiagonal solve, via LAPACK) for
  desk-scale matrices; the exact reference the iterative routes are
  tested against.
* ``inf_to_2_norm_exact`` -- exact max_{x in {-1,1}^m} ||Bx||_2 by
  enumeration, a table of sign patterns at a time (m <= 24), plus
  ``inf_to_2_norm_lower`` for larger matrices.
* ``l1_operator_bound`` / ``l2_sparsity_bound`` -- cheap certified
  upper bounds on the spectral norm.

ARPACK needs room for its Krylov basis (k < n - 1, ncv <= n), so an
operator whose smaller side is at most ``DENSE_SOLVE_LIMIT`` is
materialized and solved exactly by LAPACK instead.  ARPACK results are
residual-checked after the solve; its start vector comes from the same
``aux_generator`` subkeys the solvers have always drawn from, so every
result is a pure function of the operator and the seed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                 LinearOperator, eigsh, svds)

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
_MODES = {"la": "LA", "sa": "SA", "lm": "LM"}

# experiment-scale norm settings (the CLI's deviation norms and the
# Davis-Kahan check): NORM_TOL is the relative residual certified, far
# below the +/-15 % windows the reports are judged against;
# NORM_MAX_ITER caps ARPACK's restart cycles (each one ncv = 20 Lanczos
# steps), generous for semicircle-edge spectra whose relative gaps
# shrink like n^{-2/3}.
NORM_TOL = 1e-5
NORM_MAX_ITER = 20000


def _scipy_op(matvec, shape, rmatvec=None):
    """A scipy LinearOperator; scipy may hand over (n, 1) columns."""
    return LinearOperator(
        shape, matvec=lambda x: matvec(x.ravel()), dtype=float,
        rmatvec=None if rmatvec is None else lambda x: rmatvec(x.ravel()))


def spectral_norm(op, tol=1e-7, max_iter=5000, rng=None, seed=None):
    """Largest singular value of ``op``.

    ARPACK runs at most ``max_iter`` restart cycles and stops when the
    Ritz residual is below ``tol`` relative to the estimate; the result
    is then checked: ||op v - lambda v|| <= tol |lambda| for a symmetric
    op, both Golub-Kahan residuals ||op v - s u||, ||op^T u - s v|| <=
    tol s otherwise.  An op whose smaller side is at most
    DENSE_SOLVE_LIMIT is solved exactly by LAPACK.  Deterministic for a
    given rng or seed; raises NoConvergence whose ``best`` is the
    largest converged Ritz value, or the lower bound ||op v0|| for the
    unit start vector v0 when none converged.
    """
    if rng is None:
        rng = aux_generator(_DEFAULT_SEED if seed is None else seed, 0, 1)
    if op.n_cols > op.n_rows:
        op = op.T  # same norm; svds then solves on op's domain, like eigsh
    if op.n_cols == 0:
        return 0.0
    if op.n_cols <= DENSE_SOLVE_LIMIT:
        return float(np.linalg.norm(op.to_dense(), 2))
    v0 = rng.standard_normal(op.n_cols)
    v0 /= np.linalg.norm(v0)
    A = _scipy_op(op.matvec, op.shape, op.rmatvec)
    try:
        if op.symmetric:
            vals, vecs = eigsh(A, k=1, which="LM", v0=v0, tol=tol,
                               maxiter=max_iter)
            sigma, v = abs(float(vals[0])), vecs[:, 0]
            resid = np.linalg.norm(op.matvec(v) - vals[0] * v)
        else:
            # svds squares tol for its Gram solve; sqrt(tol) keeps the Gram
            # residual at tol s^2, i.e. both Golub-Kahan residuals at tol s
            u, s, vh = svds(A, k=1, tol=np.sqrt(tol), v0=v0, maxiter=max_iter)
            sigma, u, v = float(s[0]), u[:, 0], vh[0]
            resid = max(np.linalg.norm(op.matvec(v) - sigma * u),
                        np.linalg.norm(op.rmatvec(u) - sigma * v))
    except ArpackNoConvergence as exc:
        # svds reports eigenvalues of its Gram operator, i.e. s^2
        vals = np.abs(exc.eigenvalues) ** (1.0 if op.symmetric else 0.5)
        best = vals.max() if vals.size else np.linalg.norm(op.matvec(v0))
        raise NoConvergence(f"arpack: no convergence in {max_iter} restarts",
                            best=float(best)) from exc
    except ArpackError:
        # ARPACK stops when op annihilates its start vector: a zero op
        if not np.any(op.matvec(v0)):
            return 0.0
        raise
    if resid > tol * sigma:
        raise NoConvergence(f"arpack: residual {resid:.3g} above "
                            f"{tol} * {sigma:.6g}", best=sigma)
    return sigma


def _select(theta, k, mode):
    """Indices of the k wanted values of ``theta``, in output order."""
    key = {"la": -theta, "sa": theta, "lm": -np.abs(theta)}[mode]
    return np.argsort(key, kind="stable")[:k]


def top_k_eigs(op, k, mode="la", tol=1e-9, max_dim=None, rng=None,
               deflate=None, seed=None):
    """k extremal eigenpairs of a symmetric op by ARPACK ``eigsh``.

    mode: "la" largest algebraic, "sa" smallest algebraic, "lm" largest
    magnitude; values come back in that order.  ``deflate`` is an
    optional (n, m) orthonormal block of known eigenvectors (such as the
    Laplacian kernel): ARPACK runs on P op P with P = I - Q Q^T from a
    projected start vector, and the LAPACK path solves op restricted to
    null_space(Q^T).  ``max_dim`` is ARPACK's basis size ncv (default
    max(2k + 1, 20)).  An op of dimension at most DENSE_SOLVE_LIMIT
    after deflation is solved exactly by LAPACK.  Each ARPACK pair is
    checked: ||op v - theta v|| <= tol * max(1, |theta|); vectors are
    orthonormal.  Raises NoConvergence whose ``best`` is the converged
    (values, vectors) pair, or None when ARPACK converged none.
    """
    n = op.n_rows
    if not op.symmetric:
        raise ValueError("top_k_eigs needs a symmetric operator")
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        rng = aux_generator(_DEFAULT_SEED if seed is None else seed, 0, 2)
    Q = np.zeros((n, 0)) if deflate is None else np.asarray(deflate, float)
    if Q.ndim == 1:
        Q = Q[:, None]
    dim = n - Q.shape[1]
    if k < 1 or k > dim:
        raise ValueError(f"need 1 <= k <= {dim}")
    if dim <= DENSE_SOLVE_LIMIT or k >= dim - 1:
        Z = scipy.linalg.null_space(Q.T)  # the identity when Q is empty
        theta, S = np.linalg.eigh(Z.T @ op.to_dense() @ Z)
        idx = _select(theta, k, mode)
        return theta[idx], Z @ S[:, idx]

    def project(w):
        return w - Q @ (Q.T @ w)

    def matvec(x):
        return project(op.matvec(project(x)))

    ncv = min(dim, max(k + 1, max_dim if max_dim is not None
                       else max(2 * k + 1, 20)))
    try:
        theta, vecs = eigsh(_scipy_op(matvec, op.shape), k=k,
                            which=_MODES[mode], tol=tol, ncv=ncv,
                            v0=project(rng.standard_normal(n)))
    except ArpackNoConvergence as exc:
        best = None
        if exc.eigenvalues.size:
            idx = _select(exc.eigenvalues, exc.eigenvalues.size, mode)
            best = (exc.eigenvalues[idx], exc.eigenvectors[:, idx])
        raise NoConvergence(f"arpack: no convergence at ncv {ncv}",
                            best=best) from exc
    idx = _select(theta, k, mode)
    theta, vecs = theta[idx], vecs[:, idx]
    resid = np.array([np.linalg.norm(matvec(v) - t * v)
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


def inf_to_2_norm_exact(B, limit=ENUMERATION_LIMIT):
    """Exact ||B||_{inf->2} = max over sign vectors x of ||Bx||_2.

    x ~ -x symmetry fixes x_0 = +1.  The sign patterns of the next L
    columns are tabulated once, as the rows of P = X_lo B_lo^T; for each
    sign pattern x_hi of the remaining columns, B_hi x_hi + b_0 is added
    to every row of P and the largest row norm is kept.  Every ||Bx|| is
    summed afresh from B, so no rounding accumulates along the walk.
    L <= ``_PATTERN_COLS``, and small enough that P holds at most
    ``_PATTERN_ENTRIES`` numbers.  Exponential in the column count m;
    refuses m > limit.
    """
    B = np.asarray(B, dtype=float)
    k, m = B.shape
    if m == 0 or k == 0:
        return 0.0
    if m > limit:
        raise WidthExceeded(f"{m} columns exceeds enumeration limit {limit}")
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


def inf_to_2_norm_lower(B, trials=8, rng=None, seed=None, gram=None):
    """Lower bound on ||B||_{inf->2}: greedy sign flips from random starts.

    Each start flips the sign with the largest gain until none gains.
    The starts run together as the rows of one trials x m sign matrix X,
    drawn as rng.random((trials, m)) (the stream of ``trials`` calls of
    rng.random(m)).  corr = X G, with G = B^T B, is kept up to date by
    one row of the symmetric G per flip, so a flip costs O(m), not the
    O(km) of recomputing B^T B x.  While every start is live, X and
    corr are read and updated in place; only once a start has stopped
    do the live rows take fancy-index copies (same arithmetic, same
    value bit for bit).  ``gram`` is G when the caller holds it; it is
    formed here otherwise.  The value is ||B x|| recomputed from B for
    the final signs, so rounding in corr can never inflate it: always a
    valid lower bound.  Falls back to exact enumeration when trials
    covers the half-cube and the width permits it.
    """
    B = np.asarray(B, dtype=float)
    k, m = B.shape
    if m == 0 or k == 0:
        return 0.0
    if m <= ENUMERATION_LIMIT and trials >= (1 << (m - 1)):
        return inf_to_2_norm_exact(B)
    if rng is None:
        rng = aux_generator(_DEFAULT_SEED if seed is None else seed, 0, 3)
    G = B.T @ B if gram is None else gram
    col_sq = (B * B).sum(axis=0)
    X = np.where(rng.random((trials, m)) < 0.5, -1.0, 1.0)
    corr = X @ G
    live = np.arange(trials)
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


def l1_operator_bound(B):
    """sqrt(max row l1 norm * max column l1 norm) >= ||B||."""
    absB = abs(scipy.sparse.csr_matrix(B))
    if 0 in absB.shape:
        return 0.0
    return float(np.sqrt(absB.sum(axis=1).max() * absB.sum(axis=0).max()))


def l2_sparsity_bound(B):
    """sqrt(max row support size * max column squared l2 norm) >= ||B||.

    Valid for entries in [0, 1] (the regime of adjacency fragments);
    anything outside that range is refused.
    """
    C = scipy.sparse.csr_matrix(B)
    if C.nnz and (C.data.min() < 0.0 or C.data.max() > 1.0):
        raise EntryOutOfRange("l2_sparsity_bound needs entries in [0, 1]")
    if 0 in C.shape:
        return 0.0
    col_sq = C.multiply(C).sum(axis=0).max()
    return float(np.sqrt(float(np.diff(C.indptr).max()) * col_sq))
