"""Grothendieck-Pietsch factorization: simplex weights and submatrix selection.

For a k x m matrix B the factorization guarantees positive weights mu on
the simplex with

    ||B||_{inf->2}  <=  ||B D_mu^{-1/2}||  <=  sqrt(pi/2) ||B||_{inf->2},

where D_mu = diag(mu).  The left inequality is algebraic and holds for
EVERY mu on the simplex (for a sign vector x, ||D_mu^{1/2} x||_2 = 1);
the right one holds at the optimum.  We minimize

    f(mu)^2 = lambda_max( D_mu^{-1/2} B^T B D_mu^{-1/2} )

by entropic mirror descent on the simplex -- f^2 is convex in mu, the
subgradient at the top eigenpair (lambda, v) is g_j = -lambda v_j^2/mu_j
-- and keep the best iterate.  Selecting the columns with
mu_j <= 1/(delta m) then yields at least (1-delta)m columns (pigeonhole)
whose submatrix norm is certified by ||B_J|| sqrt(delta m) <= f(mu).

The decomposition needs only the factorization's guarantee
f(mu) <= sqrt(pi/2) ||B||_{inf->2}, not the optimum, so ``decompose``
passes ``stop_ratio`` = sqrt(pi/2): the descent stops at the first best
iterate whose f(mu), certified at tol 1e-11 (``_certified_f``), is at
most sqrt(pi/2) times the lower bound on ||B||_{inf->2} (exact enumeration
when m <= EXACT_LOWER_COLS = 12, the greedy bound otherwise; computed
before the descent and kept as ``lower_bound``).  gp-check passes no
stop and measures the optimizer.

The subgradient oracle (``_top_pair``) picks its route from the block's
shape.  When min(k, m) <= DENSE_SOLVE_LIMIT it is exact: LAPACK dsyevd,
the driver np.linalg.eigh wraps, called directly on the smaller side of
the scaled Gram.  Otherwise it runs a warm-started power iteration,
capped at 80 steps and stopped at a relative change of 1e-9, multiplying by G = B^T B (formed once per gp_weights call) when
m <= 2k, by B and B^T on wider blocks.  The warm start saves little:
counted along full 120-step descents of a decompose run at n = 256,
d = 8 (seeds 1729, 1 and 2; 480 calls each), the power iteration hit
its cap on every call, and on the 8 x 12 gp-check blocks, which now
take the exact route, it averaged 56 to 80 of its 80 steps.  So each
step's cost is the product it repeats, and the stop is what saves.
Medians on the first-round blocks of decompose runs at d = 8 (seeds
1729, 1 and 2, both triangles; 2-core Xeon VM, one BLAS thread): a
120-step descent took 129-196 ms on the 256 x 256 blocks and 587-868 ms
on the 512 x 512 ones; stopped at sqrt(pi/2) it ended at step 2-5 in
8-17 ms and at step 6-8 in 49-94 ms, with the same selected columns.
The greedy lower bound inside that took 3-6 ms and 9-17 ms, against
21-28 ms and 177-274 ms for the starts run one at a time on B.

The dense symmetric eigenproblems go straight to LAPACK, on the Gram
matrix where one exists, and every certificate keeps its tolerance.
The oracle calls dsyevd itself (``_top_eigh``).  ``gp_submatrix`` takes
||B_J|| from dsyevr, with only the top eigenvalue of the Gram on B_J's
smaller side computed, in place of a full SVD.  The certified f(mu)
(``_certified_f``) is exact (spectral_norm's LAPACK route) when
min(k, m) <= DENSE_SOLVE_LIMIT; otherwise it needs an upper bound, so
it takes f^2 from ARPACK with a residual check (``top_k_eigs``, tol
1e-11) on a Gram op of B D_mu^{-1/2}, not from spectral_norm's
Lanczos, whose value is a lower bound.  Medians of three
alternating runs against np.linalg.eigh and a full SVD (2-core Xeon VM,
one BLAS thread): an exact oracle call on an 8 x 12 block 30-33 ->
22-24 us; gp_submatrix on a 250 x 256 centred Bernoulli(8/256) block
6.9-7.2 -> 3.0-3.6 ms, and on the 512 x 512 decompose blocks above
36-47 -> 17-26 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi, sqrt

import numpy as np
from scipy.linalg.lapack import dsyevd, dsyevr

from ._seeding import aux_generator
from .errors import VerificationError
from .operators import LinearOp
from .spectral import _DEFAULT_SEED as _NORM_SEED
from .spectral import (DENSE_SOLVE_LIMIT, inf_to_2_norm_exact,
                       inf_to_2_norm_lower, spectral_norm, top_k_eigs)

_MU_FLOOR = 1e-300
_DEFAULT_GP_SEED = 0x6155
# mirror descent counts as converged when its best value improved by
# less than this relative amount over the last _CONVERGED_WINDOW steps
_CONVERGED_TOL = 1e-4
_CONVERGED_WINDOW = 50
# the little Grothendieck constant: the optimal weights reach
# f(mu) <= sqrt(pi/2) ||B||_{inf->2}
LITTLE_GROTHENDIECK = sqrt(pi / 2)
EXACT_LOWER_COLS = 12  # gp_weights enumerates ||B||_{inf->2} up to this m


@dataclass(frozen=True)
class PietschWeights:
    """Simplex weights with the norm they achieve."""

    mu: np.ndarray
    achieved_norm: float
    converged: bool
    iterations: int
    history: tuple = field(repr=False, default=())
    target: float | None = None    # stop_ratio * lower bound, if asked
    target_met: bool = False       # stopped on a certified f <= target
    lower_bound: float | None = None  # on ||B||_{inf->2}, asserted against

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.min() <= 0.0:
            raise VerificationError("weights must be strictly positive")
        if abs(mu.sum() - 1.0) > 1e-12:
            raise VerificationError("weights must sum to 1")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class GPCertificate:
    """Both sides of the submatrix guarantees, as computed."""

    m: int
    delta: float
    threshold: float
    n_selected: int
    size_bound: float          # (1 - delta) m
    submatrix_norm: float      # ||B_J||, LAPACK on B_J's smaller Gram
    norm_lhs: float            # ||B_J|| sqrt(delta m)
    achieved_norm: float       # f(mu), the certified right-hand side
    ok: bool
    iterations: int            # mirror-descent steps behind the weights
    converged: bool            # PietschWeights.converged
    target: float | None       # PietschWeights.target
    target_met: bool           # PietschWeights.target_met


def _col_scale(mu, col_live):
    """Diagonal of D_mu^{-1/2}; dead (all-zero) columns pinned to zero."""
    return np.where(col_live, 1.0 / np.sqrt(mu), 0.0)


def _certified_f(B, G, mu, col_live, rng=None):
    """f(mu) = ||B D_mu^{-1/2}||, with a residual certificate.

    When min(k, m) <= DENSE_SOLVE_LIMIT, spectral_norm on B s, which
    solves such a block exactly by LAPACK.  Otherwise f^2 is the top
    eigenvalue of a Gram op of B s by ARPACK (top_k_eigs, mode "la",
    tol 1e-11, residual-checked): s G s (m x m) where gp_weights formed
    G = B^T B, that is when m <= 2k, one G product per step and cheaper
    than two k x m products; B s^2 B^T (k x k) on wider blocks.  ``s``
    is the diagonal of D_mu^{-1/2}, zero on dead columns; without
    ``rng`` the start vector comes from the stream spectral_norm draws
    from.
    """
    s = _col_scale(mu, col_live)
    k, m = B.shape
    if min(k, m) <= DENSE_SOLVE_LIMIT:
        op = LinearOp(k, m, lambda x: B @ (s * x), lambda x: s * (B.T @ x))
        return spectral_norm(op, rng=rng).value
    if G is not None:
        op = LinearOp(m, m, lambda x: s * (G @ (s * x)), symmetric=True)
    else:
        s2 = s * s
        op = LinearOp(k, k, lambda x: B @ (s2 * (B.T @ x)), symmetric=True)
    if rng is None:
        rng = aux_generator(_NORM_SEED, 0, 1)
    lam, _ = top_k_eigs(op, 1, "la", tol=1e-11, rng=rng)
    return sqrt(max(float(lam[0]), 0.0))


def _top_eigh(M):
    """Top eigenpair of a symmetric M by LAPACK dsyevd on its lower triangle.

    This is the call np.linalg.eigh makes, without its wrapping.  The
    vector is read from a C-ordered copy of the eigenvectors, as eigh
    returns them, so a product with it rounds as one with eigh's does.
    """
    lams, V, info = dsyevd(M, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dsyevd failed: info {info}")
    return float(lams[-1]), np.ascontiguousarray(V)[:, -1]


def _top_singular_value(A):
    """||A||, the root of the top eigenvalue of the Gram on A's smaller
    side, by LAPACK dsyevr with only that eigenvalue computed; 0 for an
    empty A (a block with no row, or no column selected)."""
    k, m = A.shape
    if k == 0 or m == 0:
        return 0.0
    gram = A.T @ A if m <= k else A @ A.T
    n = gram.shape[0]
    lams, _, _, _, info = dsyevr(gram, compute_v=0, range="I", il=n, iu=n)
    if info:
        raise np.linalg.LinAlgError(f"dsyevr failed: info {info}")
    return sqrt(max(float(lams[0]), 0.0))


def _top_pair(B, G, s, v0, iters=80, tol=1e-9):
    """Subgradient oracle: top eigenpair (lambda, v) of M = s B^T B s.

    ``s`` is the diagonal of D_mu^{-1/2}, zero on dead columns; ``G`` is
    B^T B, or None when m > 2k; ``v0`` is the previous step's vector.

    * Exact route, min(k, m) <= DENSE_SOLVE_LIMIT: LAPACK dsyevd
      (``_top_eigh``) of (B s)(B s)^T (k x k) when k <= m, the top
      vector mapped back by v = s B^T u / ||s B^T u||; of s G s (m x m)
      when m < k.  The result is bit for bit np.linalg.eigh's.
    * Power route otherwise: up to ``iters`` steps from ``v0``, stopped
      at a relative change of ``tol``, each one G product (no dearer
      than the two k x m products when m <= 2k) or, on wider blocks,
      one product by B and one by B^T.  The buffers are allocated once
      per call.  lambda = ||M v|| for the last unit v is a lower bound
      on lambda_max; mirror descent only needs an inexact subgradient,
      and the certified value is re-evaluated by ``_certified_f``
      after the descent.

    The warm start rarely ends the power route early (module
    docstring), so a step costs ``iters`` products.  Medians of three
    runs (2-core Xeon VM, one BLAS thread): a full 120-step gp_weights
    call on a 250 x 256 centred Bernoulli(8/256) block took 131-174 ms,
    against 279 ms with two k x m products per iteration; a 500-step
    call on an 8 x 12 block took 20-26 ms on the exact route, against
    220 ms.  Decompose's descents stop after 2 to 8 steps (module
    docstring), so there the oracle is called a handful of times per
    block.  v is zero on dead columns.
    """
    k, m = B.shape
    if min(k, m) <= DENSE_SOLVE_LIMIT:
        if k <= m:
            C = B * s
            lam, u = _top_eigh(C @ C.T)
            z = C.T @ u
            return lam, z / sqrt(z @ z)
        lam, v = _top_eigh(s[:, None] * G * s)
        return lam, np.where(s > 0.0, v, 0.0)
    v = v0.copy()
    z = np.empty(m)
    w = np.empty(m)
    y = None if G is not None else np.empty(k)
    lam = 0.0
    for _ in range(iters):
        np.multiply(s, v, out=w)
        if G is not None:
            np.dot(G, w, out=z)
        else:
            np.dot(B, w, out=y)
            np.dot(B.T, y, out=z)
        z *= s
        nz = sqrt(z @ z)
        if nz == 0.0:
            return 0.0, v
        z /= nz
        # ||M v|| <= lambda_max for unit v, -> lambda_max
        if abs(nz - lam) <= tol * nz:
            return nz, z
        lam = nz
        v, z = z, v
    return lam, v


def gp_weights(B, max_iter=500, stop_ratio=None):
    """Entropic mirror descent for the Pietsch weights; best iterate kept.

    Step t moves by 1/sqrt(t) times the normalized subgradient.  The
    lower bound on ||B||_{inf->2} (exact enumeration when m <=
    EXACT_LOWER_COLS, the greedy bound on G = B^T B otherwise) is
    computed first and returned as ``lower_bound``; it serves the stop
    rule and the left inequality achieved_norm >= ||B||_{inf->2},
    asserted on every call.

    With ``stop_ratio`` the target is stop_ratio * lower.  Whenever the
    oracle's estimate gives a new best f <= target, f(mu_best) is
    certified at tol 1e-11 (``_certified_f``) on its own seeded stream,
    and the descent stops if the certified value is <= target;
    ``target_met`` records that stop.  Otherwise the descent runs its
    ``max_iter`` steps, ends with the tol 1e-11 re-evaluation of the best
    and the final iterate, and returns what a call without
    ``stop_ratio`` returns, bit for bit.

    ``converged`` reports whether the running best improved by less
    than a relative _CONVERGED_TOL over the last _CONVERGED_WINDOW
    steps, and is False when fewer steps ran (the scheme has no other
    natural stopping rule); callers treat False as a flag, not an error.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2:
        raise ValueError("B must be a matrix")
    k, m = B.shape
    if m == 0:
        raise ValueError("B needs at least one column")
    rng = aux_generator(_DEFAULT_GP_SEED, 0, 4)
    col_sq = (B * B).sum(axis=0)
    col_live = col_sq > 0.0
    if not col_live.any():
        mu = np.full(m, 1.0 / m)
        target = None if stop_ratio is None else 0.0
        return PietschWeights(mu, 0.0, True, 0, (0.0,), target,
                              target is not None, 0.0)
    G = B.T @ B if m <= 2 * k else None
    mu = np.full(m, 1.0 / m)
    v = rng.standard_normal(m)
    v[~col_live] = 0.0
    v /= np.linalg.norm(v)
    if m <= EXACT_LOWER_COLS:
        lower = inf_to_2_norm_exact(B)
    else:
        lower = inf_to_2_norm_lower(B, trials=8, rng=rng, gram=G)
    target = None if stop_ratio is None else stop_ratio * lower
    best_mu = mu.copy()
    best_f = np.inf
    history = []
    achieved = None
    for t in range(1, max_iter + 1):
        lam, v = _top_pair(B, G, _col_scale(mu, col_live), v)
        f = np.sqrt(max(lam, 0.0))
        if f < best_f:
            best_f = f
            best_mu = mu.copy()
            if target is not None and f <= target:
                # the certificates' own stream: a failed check leaves rng,
                # and so the rest of the descent, untouched
                certified = _certified_f(B, G, best_mu, col_live)
                if certified <= target:
                    achieved = certified
        history.append(best_f)
        if achieved is not None:
            break
        g = -lam * (v * v) / mu
        gmax = np.abs(g).max()
        if gmax == 0.0:
            break
        mu = mu * np.exp(-(1.0 / np.sqrt(t)) * (g / gmax))
        mu = np.maximum(mu / mu.sum(), _MU_FLOOR)
        mu /= mu.sum()
    iterations = len(history)
    converged = bool(iterations > _CONVERGED_WINDOW and
                     history[-1 - _CONVERGED_WINDOW] - history[-1]
                     <= _CONVERGED_TOL * max(history[-1], 1e-30))
    target_met = achieved is not None
    if not target_met:
        # exact-at-tolerance re-evaluation of the candidates
        achieved = _certified_f(B, G, best_mu, col_live, rng)
        final = _certified_f(B, G, mu, col_live, rng)
        if final < achieved:
            achieved, best_mu = final, mu.copy()
    if achieved < lower * (1.0 - 1e-8) - 1e-12:
        raise VerificationError(
            f"left factorization inequality violated: {achieved} < {lower}")
    return PietschWeights(best_mu, float(achieved), converged, iterations,
                          tuple(history), target, target_met, float(lower))


def gp_submatrix(B, delta, weights=None, **gp_kwargs):
    """Columns J = {j : mu_j <= 1/(delta m)} plus the certified bounds.

    Both guarantees are algebraic consequences of sum(mu) = 1 and are
    asserted on every call: |J| >= (1-delta)m by pigeonhole, and
    ||B_J|| sqrt(delta m) <= achieved_norm.  ||B_J|| is the root of the
    top eigenvalue of the Gram on B_J's smaller side, from dsyevr with
    that eigenvalue only (``_top_singular_value``); it agrees with a
    dense SVD to about 1e-15 relative.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("need 0 < delta < 1")
    B = np.asarray(B, dtype=float)
    m = B.shape[1]
    w = weights if weights is not None else gp_weights(B, **gp_kwargs)
    threshold = 1.0 / (delta * m)
    J = np.flatnonzero(w.mu <= threshold)
    if J.size < (1.0 - delta) * m - 1e-9:
        raise VerificationError("pigeonhole cardinality bound failed")
    sub_norm = _top_singular_value(B[:, J])
    lhs = sub_norm * np.sqrt(delta * m)
    ok = lhs <= w.achieved_norm * (1.0 + 1e-8) + 1e-12
    cert = GPCertificate(m=m, delta=delta, threshold=threshold,
                         n_selected=int(J.size), size_bound=(1.0 - delta) * m,
                         submatrix_norm=sub_norm, norm_lhs=float(lhs),
                         achieved_norm=w.achieved_norm, ok=bool(ok),
                         iterations=w.iterations, converged=w.converged,
                         target=w.target, target_met=w.target_met)
    if not ok:
        raise VerificationError(
            f"submatrix certificate failed: {lhs} > {w.achieved_norm}")
    return J, cert
