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
-- and keep the best iterate.  Selecting the columns J with
mu_j <= 1/(delta m) then yields at least (1-delta)m columns (pigeonhole)
with ||B_J|| sqrt(delta m) <= f(mu).

The decomposition needs one fact from this step, for the selected J:

    ||B_J|| sqrt(delta m)  <=  sqrt(pi/2) ||B||_{inf->2}.

``decompose`` passes ``stop_ratio`` = sqrt(pi/2), and the descent stops
at the first best iterate whose measured f(mu) is at most target =
sqrt(pi/2) times the lower bound on ||B||_{inf->2} (exact enumeration
when m <= EXACT_LOWER_COLS = 12, the greedy bound otherwise; computed
before the descent and kept as ``lower_bound``); ``target_met`` records
that stop.  Each link of

    ||B_J|| sqrt(delta m)  <=  f  <=  target  <=  sqrt(pi/2) ||B||_{inf->2}

is then checked on computed values: the first by ``gp_submatrix``, with
||B_J|| from dense LAPACK on B_J; the second by the stop; the third
because the lower bound is at most ||B||_{inf->2}.  f is the value
``_certified_f`` measured, and the chain never needs it to bound the
true f(mu) from above.  ``_certified_f`` is one ``spectral_norm`` call:
exact by LAPACK when min(k, m) <= DENSE_SOLVE_LIMIT, otherwise a
Golub-Kahan value, which is a lower bound on f(mu).  Its
Kuczynski-Wozniakowski eps, kept as ``achieved_eps`` (0 when exact),
bounds f(mu) <= achieved_norm / (1 - eps) with probability 1 - 1e-3
(``spectral``).

Every descent also ends at its stall test: the first step at which the
best f(mu) improved by at most a relative _CONVERGED_TOL = 1e-4 over
the last _CONVERGED_WINDOW = 50 steps (``converged``), or at max_iter.
gp-check passes no stop_ratio, so the stall test ends its descents.

The subgradient oracle (``_oracle``) is one step function, chosen once
per descent from the block's shape and its dead columns.  When
min(k, m) <= DENSE_SOLVE_LIMIT it is exact: LAPACK dsyevd, the driver
np.linalg.eigh wraps, called directly on the smaller side of the scaled
Gram.  Otherwise (``_power_pair``) it runs a warm-started power
iteration, capped at 80 steps and stopped at a relative change of 1e-9,
one product by G = B^T B per step.  ``gp_weights`` forms G once per
call and hands it to the greedy lower bound and the oracle alike: f(mu)
depends on B through G alone.  ``gp_submatrix`` takes ||B_J||
from dsyevr, with only the top eigenvalue of the Gram on B_J's smaller
side computed.  The README's Grothendieck-Pietsch section gives the
timings behind these choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi, sqrt

import numpy as np

from . import _scipy
from ._seeding import aux_generator
from .errors import VerificationError
from .operators import LinearOp
from .spectral import (DENSE_SOLVE_LIMIT, inf_to_2_norm_exact,
                       inf_to_2_norm_lower, spectral_norm)

_MU_FLOOR = 1e-300
_DEFAULT_GP_SEED = 0x6155
# mirror descent counts as converged, and stops, once its best value
# improved by at most this relative amount over the last
# _CONVERGED_WINDOW steps
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
    target_met: bool = False       # stopped on a measured f <= target
    lower_bound: float | None = None  # on ||B||_{inf->2}, asserted against
    achieved_eps: float = 0.0  # KW eps of achieved_norm; 0 when exact

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
    achieved_norm: float       # f(mu) as measured, the right-hand side
    achieved_eps: float        # PietschWeights.achieved_eps
    ok: bool
    iterations: int            # mirror-descent steps behind the weights
    converged: bool            # PietschWeights.converged
    target: float | None       # PietschWeights.target
    target_met: bool           # PietschWeights.target_met


def _col_scale(mu, col_live):
    """Diagonal of D_mu^{-1/2}; dead (all-zero) columns pinned to zero."""
    return np.where(col_live, 1.0 / np.sqrt(mu), 0.0)


def _certified_f(B, mu, col_live, rng=None):
    """spectral_norm's NormEstimate of f(mu) = ||B D_mu^{-1/2}||.

    One spectral_norm call on the op B s, ``s`` the diagonal of
    D_mu^{-1/2} (zero on dead columns): exact by LAPACK when min(k, m)
    <= DENSE_SOLVE_LIMIT, otherwise the Golub-Kahan value, a lower
    bound on f(mu), taken once it moves by at most 1e-9 (relative) over
    10 steps.  That is all the proof chain needs (module docstring);
    the estimate's eps, kept as ``achieved_eps``, is the probabilistic
    upper side.  Without ``rng`` the start vector comes from
    spectral_norm's own stream.
    """
    s = _col_scale(mu, col_live)
    op = LinearOp(*B.shape, lambda x: B @ (s * x), lambda x: s * (B.T @ x))
    return spectral_norm(op, rng=rng)


def _top_singular_value(A):
    """||A||, the root of the top eigenvalue of the Gram on A's smaller
    side, by LAPACK dsyevr with only that eigenvalue computed; 0 for an
    empty A (a block with no row, or no column selected)."""
    k, m = A.shape
    if k == 0 or m == 0:
        return 0.0
    gram = A.T @ A if m <= k else A @ A.T
    n = gram.shape[0]
    # numpy forms A^T A and A A^T by syrk, exactly symmetric, so gram.T
    # is the same matrix in the Fortran order LAPACK reads: f2py hands
    # it over uncopied
    lams, _, _, _, info = _scipy.lapack().dsyevr(gram.T, compute_v=0,
                                                 range="I", il=n, iu=n,
                                                 overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"dsyevr failed: info {info}")
    return sqrt(max(float(lams[0]), 0.0))


def _oracle(B, G, col_live):
    """The subgradient oracle of one descent: ``top_pair(mu, v0)``, the
    top eigenpair (lambda, v) of M = D_mu^{-1/2} B^T B D_mu^{-1/2}.

    The route is chosen here, once per descent, from B's shape and its
    dead (all-zero) columns; ``G`` is B^T B and ``v0`` the previous
    step's vector.  D_mu^{-1/2} is 1/sqrt(mu) when every column is
    live, ``_col_scale`` otherwise.

    * Exact route, min(k, m) <= DENSE_SOLVE_LIMIT: LAPACK dsyevd, the
      driver np.linalg.eigh wraps, on the smaller side of the scaled
      Gram.  When k <= m that is (B s)(B s)^T (k x k), its top vector
      u mapped back by v = s B^T u / ||s B^T u||; when m < k it is
      s G s (m x m).  The result is bit for bit np.linalg.eigh's.
    * Power route otherwise (``_power_pair``).

    v is zero on dead columns.
    """
    k, m = B.shape
    if col_live.all():
        def scale(mu):
            return 1.0 / np.sqrt(mu)
    else:
        def scale(mu):
            return _col_scale(mu, col_live)
    if min(k, m) > DENSE_SOLVE_LIMIT:
        return lambda mu, v0: _power_pair(G, scale(mu), v0)
    dsyevd = _scipy.lapack().dsyevd

    def eigh(M):
        # dsyevd on the lower triangle of M, as np.linalg.eigh calls it
        lams, V, info = dsyevd(M, lower=1, overwrite_a=1)
        if info:
            raise np.linalg.LinAlgError(f"dsyevd failed: info {info}")
        return float(lams[-1]), V

    if k <= m:
        def top_pair(mu, v0):
            C = B * scale(mu)
            # numpy forms C C^T by syrk, exactly symmetric, so its
            # transpose is the same matrix in the Fortran order LAPACK
            # reads: f2py hands it over uncopied
            lam, V = eigh((C @ C.T).T)
            # u is read with eigh's stride, from a C-ordered copy:
            # OpenBLAS's dgemv sums a unit-stride vector in another
            # order, so C^T u would not round as with eigh's vector
            z = C.T @ np.ascontiguousarray(V)[:, -1]
            return lam, z / sqrt(z @ z)
    else:
        def top_pair(mu, v0):
            s = scale(mu)
            lam, V = eigh(s[:, None] * G * s)
            return lam, np.where(col_live, V[:, -1], 0.0)
    return top_pair


def _power_pair(G, s, v0, iters=80, tol=1e-9):
    """The power route of ``_oracle``: the top eigenpair of M = s G s.

    Up to ``iters`` steps from ``v0``, stopped at a relative change of
    ``tol``, each one product by G = B^T B.  The buffers are allocated
    once per call.  lambda = ||M v|| for the last unit v is a lower
    bound on lambda_max; mirror descent only needs an inexact
    subgradient, and f is measured again by ``_certified_f`` where it
    counts.
    """
    v = v0.copy()
    z, w = np.empty(v.size), np.empty(v.size)
    lam = 0.0
    for _ in range(iters):
        np.multiply(s, v, out=w)
        np.dot(G, w, out=z)
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
    measured by ``_certified_f`` on spectral_norm's own stream, and the
    descent stops if that value is <= target.  ``target_met`` records
    that stop: ``achieved_norm`` is then that value (``achieved_eps``
    its eps), and with gp_submatrix's check it closes the chain in the
    module docstring.  It does not claim that the true f(mu) is <=
    target.  Otherwise the descent runs to its stall test or to
    ``max_iter``, ends by measuring the best and the final iterate on
    the descent's stream, and returns what a call without
    ``stop_ratio`` returns, bit for bit.

    The stall test ends the descent at the first step t > _CONVERGED_WINDOW
    at which the running best improved by at most a relative
    _CONVERGED_TOL over the last _CONVERGED_WINDOW steps; ``converged``
    reports that stop.  The stop is a truncation: the call with
    ``max_iter`` set to the returned ``iterations`` returns the same
    result bit for bit.  ``converged`` is False when the cap (or a
    target) ended the descent first; callers treat False as a flag, not
    an error.

    B is read in C order, copied first only when it is not C-ordered,
    so the result does not depend on the caller's memory layout.
    """
    B = np.ascontiguousarray(B, dtype=float)
    if B.ndim != 2:
        raise ValueError("B must be a matrix")
    k, m = B.shape
    if m == 0:
        raise ValueError("B needs at least one column")
    rng = aux_generator(_DEFAULT_GP_SEED, 0, 4)
    col_sq = np.einsum("ij,ij->j", B, B)
    col_live = col_sq > 0.0
    if not col_live.any():
        mu = np.full(m, 1.0 / m)
        target = None if stop_ratio is None else 0.0
        return PietschWeights(mu, 0.0, True, 0, (0.0,), target,
                              target is not None, 0.0)
    G = B.T @ B
    mu = np.full(m, 1.0 / m)
    v = rng.standard_normal(m)
    v[~col_live] = 0.0
    v /= np.linalg.norm(v)
    if m <= EXACT_LOWER_COLS:
        lower = inf_to_2_norm_exact(B)
    else:
        lower = inf_to_2_norm_lower(B, trials=8, rng=rng, gram=G)
    target = None if stop_ratio is None else stop_ratio * lower
    top_pair = _oracle(B, G, col_live)
    best_mu = mu.copy()
    best_f = np.inf
    history = []
    achieved = None
    converged = False
    for t in range(1, max_iter + 1):
        lam, v = top_pair(mu, v)
        f = sqrt(max(lam, 0.0))
        if f < best_f:
            best_f = f
            best_mu = mu.copy()
            if target is not None and f <= target:
                # spectral_norm's own stream: a failed check leaves rng,
                # and so the rest of the descent, untouched
                measured = _certified_f(B, best_mu, col_live)
                if measured.value <= target:
                    achieved = measured
        history.append(best_f)
        converged = bool(t > _CONVERGED_WINDOW and
                         history[-1 - _CONVERGED_WINDOW] - history[-1]
                         <= _CONVERGED_TOL * max(history[-1], 1e-30))
        if achieved is not None or converged:
            break
        g = -lam * (v * v) / mu
        gmax = -g.min()  # lam >= 0, so g <= 0
        if gmax == 0.0:
            break
        mu = mu * np.exp(-(1.0 / sqrt(t)) * (g / gmax))
        mu /= mu.sum()
        mu = np.maximum(mu, _MU_FLOOR)
        mu /= mu.sum()
    iterations = len(history)
    target_met = achieved is not None
    if not target_met:
        # measure both candidates on the descent's stream
        achieved = _certified_f(B, best_mu, col_live, rng)
        final = _certified_f(B, mu, col_live, rng)
        if final.value < achieved.value:
            achieved, best_mu = final, mu.copy()
    if achieved.value < lower * (1.0 - 1e-8) - 1e-12:
        raise VerificationError(f"left factorization inequality violated: "
                                f"{achieved.value} < {lower}")
    return PietschWeights(best_mu, float(achieved.value), converged,
                          iterations, tuple(history), target, target_met,
                          float(lower), float(achieved.eps))


def gp_submatrix(B, delta, weights=None, **gp_kwargs):
    """Columns J = {j : mu_j <= 1/(delta m)} plus the certified bounds.

    Both guarantees are algebraic consequences of sum(mu) = 1 and are
    asserted on every call: |J| >= (1-delta)m by pigeonhole, and
    ||B_J|| sqrt(delta m) <= achieved_norm.  ||B_J|| is the root of the
    top eigenvalue of the Gram on B_J's smaller side, from dsyevr with
    that eigenvalue only (``_top_singular_value``); it agrees with a
    dense SVD to about 1e-15 relative.  B is read in C order, as in
    ``gp_weights``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("need 0 < delta < 1")
    B = np.ascontiguousarray(B, dtype=float)
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
                         achieved_norm=w.achieved_norm,
                         achieved_eps=w.achieved_eps, ok=bool(ok),
                         iterations=w.iterations, converged=w.converged,
                         target=w.target, target_met=w.target_met)
    if not ok:
        raise VerificationError(
            f"submatrix certificate failed: {lhs} > {w.achieved_norm}")
    return J, cert
