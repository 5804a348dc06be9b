"""Norm and eigenvalue estimation for LinearOps.

Routes
------
* ``spectral_norm``     -- largest singular value, as a ``NormEstimate``.
  One plain Lanczos recurrence serves every operator: a symmetric M
  itself, any other M through its Gram M^T M on the smaller side, one
  ``matvec`` and one ``rmatvec`` per step.  It neither restarts nor
  reorthogonalizes, so the solve keeps alpha, beta and two vectors
  (O(n) memory), every product goes through
  ``LinearOp.matvec``/``rmatvec``, and a step allocates its product
  and nothing else.  The solve stops on the value, not
  on a Ritz vector, and reads both ends of the spectrum, so a +/- pair
  is never split.
* ``top_k_eigs``        -- k extremal eigenpairs of a symmetric operator,
  residual-checked, by ``ritz_pairs``; for callers that need vectors
  (``community.detect``).  A norm needs no vector: use
  ``spectral_norm``.
* ``ritz_pairs``        -- the package's one eigenpair engine: thick-
  restart Lanczos (Wu & Simon 2000), each vector orthogonalized against
  the whole basis, on any symmetric product.  ``top_k_eigs`` runs it to
  a tolerance; GP's oracle (``pietsch._oracle``) runs one cycle of it.
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

A tiny Lanczos run says little, and ``top_k_eigs`` needs room for its
basis (k + 2 <= ncv <= n), so an operator whose smaller side is at most
``DENSE_SOLVE_LIMIT`` (for ``top_k_eigs``, or with k >= n - 1) is
materialized and solved exactly by LAPACK instead.  Start vectors come
from the ``rng`` passed, or from a fixed ``aux_generator`` subkey per
solver, so every result is a pure function of the operator and that
generator.

The LAPACK routines behind these (dstebz and dsbevx for
``spectral_norm``, dsyevd for ``ritz_pairs``) are bound in ``_lapack``
from numpy's own OpenBLAS.
"""

from __future__ import annotations

from math import log, sqrt
from typing import NamedTuple

import numpy as np

from . import _lapack, _scipy
from ._seeding import aux_generator
from .errors import EntryOutOfRange, NoConvergence, SizeExceeded, WidthExceeded
from .operators import LinearOp, owned

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

# NORM_TOL is the accuracy the experiment-scale norms (the CLI's
# deviation norms and the Davis-Kahan check) are tested to against dense
# LAPACK at n <= 2048, far below the +/-15 % windows the reports are
# judged against.  spectral_norm itself stops on the value: once max
# |theta| over both ends of T_k moves by at most _NORM_STOP (relative)
# across _NORM_CHECK steps; NORM_MAX_ITER caps its steps.  The Laplacian
# deviation at n = 10^6, d = tau = 5 took 700 (seed 1729).
NORM_TOL = 1e-5
NORM_MAX_ITER = 20000
# entries of a Lanczos step's scaled vector formed at a time (256 KB)
_CHUNK = 1 << 15
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
    with probability 1e-3.  eps is 0 on the exact route and on a
    breakdown stop (beta below _BREAKDOWN of the step's scale); that
    stop is exact only when the Krylov space really is invariant, and
    it can fire by chance once the recurrence has lost orthogonality.
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


def _lanczos(op, q, gram=False):
    """Three-term Lanczos from the unit vector q on a symmetric op, or,
    with ``gram``, on op^T op: x -> op.rmatvec(op.matvec(x)), whose top
    eigenvalue is ||op||^2, so the value is the root of its sigma_max
    and KW's j is the step count.

    A step allocates its product and nothing else: the product becomes
    the next q in place (``operators.owned`` copies a product that is q
    or a view), less b q_prev and a q formed ``_CHUNK`` entries at a
    time in one scratch block (``_subtract_scaled``).  So the solve
    holds q and q_prev between products, and no vector it has passed
    to the op is written.

    The stop test bisects for both ends of T_k by dstebz
    (``_lapack.Bisection``), reading alpha and beta where they lie, in
    workspaces of this solve's own that grow with its steps.
    """
    cap = NORM_MAX_ITER
    alpha, beta = np.empty(cap), np.empty(cap)
    q_prev, b, last = q, 0.0, None
    block = np.empty(min(q.size, _CHUNK))
    bisect = _lapack.Bisection(alpha, beta)

    def value(steps):
        sigma = _extended_sigma(alpha[:steps], beta[:steps])
        return sqrt(sigma) if gram else sigma

    for k in range(cap):
        w = owned(op.rmatvec(op.matvec(q)) if gram else op.matvec(q), q)
        if k:
            _subtract_scaled(w, q_prev, b, block)
        a = float(q.dot(w))
        _subtract_scaled(w, q, a, block)
        scale = sqrt(a * a + b * b)     # ||S q_k|| but for beta_k
        b = sqrt(float(w.dot(w)))
        alpha[k], beta[k] = a, b
        steps = k + 1
        if b <= _BREAKDOWN * scale:
            return NormEstimate(value(steps), steps, 0.0)
        if steps % _NORM_CHECK == 0:
            top = max(-bisect(steps, 1), bisect(steps, steps))
            if last is not None and abs(top - last) <= _NORM_STOP * top:
                return NormEstimate(value(steps), steps, _kw_eps(
                    steps if gram else (steps + 1) // 2, op.n_cols))
            last = top
        w *= 1.0 / b
        q_prev, q = q, w
    raise NoConvergence(f"lanczos: max |theta| still moving after {cap} "
                        f"steps", best=value(cap))


def _subtract_scaled(w, v, c, block):
    """w -= v * c in place, bit for bit, v * c formed in ``block``
    (``_CHUNK`` entries at most) one stretch of w at a time."""
    n, m = w.size, block.size
    if n <= m:
        w -= np.multiply(v, c, out=block)
        return
    for i in range(0, n, m):
        stretch = w[i:i + m]
        stretch -= np.multiply(v[i:i + m], c, out=block[:stretch.size])


def _extended_sigma(alpha, beta):
    """sigma_max of the (k+1) x k extended tridiagonal [T_k; beta_k e_k^T]:
    the root of the top eigenvalue of its Gram T_k^2 + beta_k^2 e_k e_k^T,
    pentadiagonal, by LAPACK dsbevx on upper band storage."""
    k = alpha.size
    band = np.zeros((3, k), order="F")
    band[2] = alpha * alpha + beta * beta
    band[2, 1:] += beta[:-1] * beta[:-1]
    band[1, 1:] = beta[:-1] * (alpha[:-1] + alpha[1:])
    band[0, 2:] = beta[:-2] * beta[1:-1]
    return sqrt(max(_lapack.band_largest(band), 0.0))


def ritz_pairs(product, v0, k, order, ncv, tol, rng=None, eigh=None):
    """The k wanted Ritz pairs (theta, vectors) of a symmetric product,
    by thick-restart Lanczos (Wu & Simon 2000, SIAM J. Matrix Anal.
    Appl. 22) from the vector ``v0``.

    ``order`` is the sort key of the Ritz values, the wanted first.
    Each product ``product(V[i])`` is orthogonalized against the whole
    basis V (classical Gram-Schmidt, twice), and its coefficients fill
    row i of the lower triangle of H = V^T M V.  When the basis holds
    ``ncv`` vectors, the eigenpairs (theta, y) of H give the Ritz pairs
    (theta, V y), and |beta y_last| bounds each residual, beta the norm
    of the next direction.  The k wanted are returned once every such
    estimate is at most tol / 2 max(1, |theta|).  Otherwise the
    max(k + 1, ncv // 2) best Ritz vectors and the next direction
    become the new basis, H's block of the kept vectors the diagonal of
    their Ritz values, and the run goes on: a thick restart, whose next
    column of H recomputes the kept vectors' coupling to the new one.
    Needs ncv >= k + 2; one cycle (tol infinite) makes ncv products.
    Vectors come back as orthonormal columns.  Past EIGS_MAX_PRODUCTS
    products raises NoConvergence whose ``best`` is the wanted pairs
    reached.

    A product with no new direction (beta 0) means the Krylov space is
    invariant, and it holds each eigenvalue once: a repeated one lies
    partly outside it.  So, as ARPACK's dgetv0 does, the next vector is
    then a Gaussian one drawn from ``rng`` and orthogonalized against
    the basis, coupled to it by nothing in H, and the cycle goes on
    until the basis is full.  A breakdown at its last vector still
    ends the run, every estimate 0, as in ARPACK.  Without ``rng`` a
    breakdown ends the run at once, with the wanted pairs of the
    invariant space (fewer than k if it has fewer dimensions).

    ``product`` may return a buffer it reuses from call to call (GP's
    oracle returns one of its own): ``ritz_pairs`` orthogonalizes the
    result in place and copies it into V before the next call, so
    nothing it reads is overwritten by a later product.

    H's eigenpairs come from dsyevd in ``eigh``, an ``_lapack.Eigh`` of
    order at least ncv, whose arguments are built once: GP's oracle,
    which runs one cycle a step, passes one of its own, and one is
    built here otherwise.
    """
    V, H = np.empty((ncv + 1, v0.size)), np.zeros((ncv, ncv))
    if eigh is None:
        eigh = _lapack.Eigh(ncv)
    np.divide(v0, sqrt(v0 @ v0), out=V[0])
    keep, start, products = max(k + 1, ncv // 2), 0, 0
    while True:
        for i in range(start, ncv):
            w = owned(product(V[i]), V[i])
            basis = V[:i + 1]
            # h is row i of H's lower triangle, the only one dsyevd reads
            h = np.matmul(basis, w, out=H[i, :i + 1])
            w -= h @ basis
            c = basis @ w
            w -= c @ basis
            h += c
            beta = sqrt(w @ w)
            products += 1
            if beta <= _BREAKDOWN * sqrt(h @ h):
                beta = 0.0  # invariant: these Ritz pairs are exact
                if rng is None or i + 1 == ncv:
                    break
                w = rng.standard_normal(v0.size)  # fresh, normed below
                for _ in range(2):
                    w -= (basis @ w) @ basis
            np.divide(w, beta or sqrt(w @ w), out=V[i + 1])
        m = i + 1
        np.copyto(eigh.matrix(m), H[:m, :m])
        theta, Y = eigh(m)
        best = np.argsort(order(theta), kind="stable")
        want = best[:k]
        pairs = theta[want], (Y[:, want].T @ V[:m]).T
        if (np.abs(beta * Y[-1, want])
                <= tol / 2 * np.maximum(1.0, np.abs(pairs[0]))).all():
            return pairs
        if products >= EIGS_MAX_PRODUCTS:
            raise NoConvergence(f"lanczos: no {k} converged pairs after "
                                f"{products} products", best=pairs)
        V[:keep] = Y[:, best[:keep]].T @ V[:m]
        V[keep] = V[m]
        H[:keep, :keep] = np.diag(theta[best[:keep]])
        start = keep


# the sort key of each mode of top_k_eigs: wanted values first
_ORDERS = {"la": np.negative, "sa": np.positive,
           "lm": lambda theta: -np.abs(theta)}
# products a ritz_pairs run is allowed
EIGS_MAX_PRODUCTS = 20000


def top_k_eigs(op, k, mode="la", tol=1e-9, max_dim=None, rng=None):
    """k extremal eigenpairs of a symmetric op, by ``ritz_pairs``.

    mode: "la" largest algebraic, "sa" smallest algebraic, "lm" largest
    magnitude; values come back in that order.  ``max_dim`` is the
    Lanczos basis size ncv (default max(2k + 1, 20), at least k + 2).
    An op of dimension at most DENSE_SOLVE_LIMIT, or with k >= n - 1,
    is solved exactly by LAPACK.  Otherwise Lanczos runs through
    ``op.matvec`` from a Gaussian start drawn from ``rng``, which also
    draws any fresh vector an invariant Krylov space needs, for at most
    EIGS_MAX_PRODUCTS products, and each pair it returns is checked:
    ||op v - theta v|| <= tol max(1, |theta|); vectors are orthonormal.
    Raises NoConvergence whose ``best`` is the (values, vectors) pair
    reached.

    A repeated eigenvalue whose copies the start's Krylov space does not
    separate is returned once, the next distinct value in its place:
    a fresh vector is drawn only where that space breaks down before
    the basis is full.  The 60-cycle's adjacency at k = 3 gives (2,
    1.98904, 1.95630), not (2, 1.98904, 1.98904); each pair passes the
    residual check, since each is exact.
    """
    n = op.n_rows
    if not op.symmetric:
        raise ValueError("top_k_eigs needs a symmetric operator")
    if mode not in _ORDERS:
        raise ValueError(f"unknown mode {mode!r}")
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= {n}")
    if n <= DENSE_SOLVE_LIMIT or k >= n - 1:
        theta, S = np.linalg.eigh(op.to_dense())
        idx = np.argsort(_ORDERS[mode](theta), kind="stable")[:k]
        return theta[idx], S[:, idx]
    if rng is None:
        rng = aux_generator(_DEFAULT_SEED, 0, 2)
    ncv = min(n, max(k + 2, max_dim if max_dim is not None
                     else max(2 * k + 1, 20)))
    theta, vecs = ritz_pairs(op.matvec, rng.standard_normal(n), k,
                             _ORDERS[mode], ncv, tol, rng)
    resid = np.array([np.linalg.norm(op.matvec(v) - t * v)
                      for t, v in zip(theta, vecs.T)])
    if np.any(resid > tol * np.maximum(1.0, np.abs(theta))):
        raise NoConvergence(f"lanczos: residual {resid.max():.3g} above tol "
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


def _sign_starts(rng, m):
    """The LOWER_STARTS random sign starts of both lower bounds on
    ||B||_{inf->2}, the rows of one m-column matrix: the draw
    rng.random((LOWER_STARTS, m)), the stream of LOWER_STARTS calls of
    rng.random(m), mapped to -1 below 0.5 and to 1 otherwise.  Both
    bounds draw here, so the stream stands at the same place after
    either (``pietsch._descent_start`` relies on it)."""
    return np.where(rng.random((LOWER_STARTS, m)) < 0.5, -1.0, 1.0)


def inf_to_2_norm_lower(B, rng=None, gram=None):
    """Lower bound on ||B||_{inf->2}: greedy sign flips from random starts.

    Each start flips the sign with the largest gain until none gains.
    The LOWER_STARTS starts run together as the rows of one sign matrix
    X (``_sign_starts``).  corr = X G, with G = B^T B, is kept up to
    date by one row of the symmetric G per flip, so a flip costs O(m),
    not the O(km) of recomputing B^T B x.  While every start is live,
    X and corr are read and updated in place; only once a start has
    stopped do the live rows take fancy-index copies (same arithmetic,
    same value bit for bit).  ``gram`` is G when the caller
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
    X = _sign_starts(rng, m)
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
    LOWER_STARTS starts ``inf_to_2_norm_lower`` draws: the rows of X
    (``_sign_starts``).  The starts step together, two products per
    step (Y = X B^T, then Y B), and B^T B is never formed.  A step
    never lowers ||B x||: ||B x||^2 is convex and the new x maximizes
    its linearization over the cube, strictly when a sign flips.  The
    iteration stops at the first step at which no sign flips (or after
    ``_POWER_STEPS``).  The value is the largest ||B x||, read from the
    Y of the final signs, products of B by sign vectors: a valid lower
    bound whatever the rounding.  B is read in its own memory order.
    """
    B = np.asarray(B, dtype=float)
    X = _sign_starts(rng, B.shape[1])
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
