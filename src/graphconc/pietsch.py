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

``gp_submatrix`` without weights (``decompose``'s call) first draws the
lower bound on ||B||_{inf->2} as the descent would (``_descent_start``:
exact enumeration when m <= EXACT_LOWER_COLS = 12, the greedy bound on
G = B^T B otherwise) and sets target = sqrt(pi/2) times it.  Then it
takes one of two routes, chosen from the block alone:

* uniform: at mu = 1/m every column is selected, and the fact reads
  ||B|| sqrt(delta m) <= target.  dpotrf on t^2 I - G (``_norm_below``)
  decides ||B|| < t = (target (1 + 1e-8) + 1e-12) / sqrt(delta m); if
  that holds, it is the certificate: no descent, no oracle, no f(mu).
  Most sample blocks pass, at 0.49-0.91 of the target; the sparsest
  (d <= 1 at r = 3) and some of a skewed profile do not (README).
* descent, for a block that fails: gp-check's descent (``gp_weights``),
  then J = {j : mu_j <= 1/(delta m)} and a Cholesky proof of
  ||B_J|| sqrt(delta m) <= f (1 + 1e-8) + 1e-12.  Each link of

    ||B_J|| sqrt(delta m)  <=  f  <=  target  <=  sqrt(pi/2) ||B||_{inf->2}

  is then a computed fact, the second only when f <= target, which
  ``target_met`` records; the third because the lower bound is at most
  ||B||_{inf->2}.

f is the value ``_certified_f`` measured, one ``spectral_norm`` call:
exact by LAPACK when min(k, m) <= DENSE_SOLVE_LIMIT, otherwise the
root of a Lanczos value on the Gram of B D_mu^{-1/2}, a lower bound on
f(mu); the chain never needs an upper bound on it.  Its
Kuczynski-Wozniakowski eps, kept as ``achieved_eps`` (0 when exact),
bounds f(mu) <= achieved_norm / (1 - eps) with probability 1 - 1e-3
(``spectral``).  Every descent
ends at its stall test: the first step at which the best f(mu)
improved by at most a relative _CONVERGED_TOL = 1e-4 over the last
_CONVERGED_WINDOW = 50 steps (``converged``), or at max_iter.

The subgradient oracle (``_oracle``) is one step function, chosen once
per descent from the block's shape and its dead columns.  When
min(k, m) <= DENSE_SOLVE_LIMIT it is exact: LAPACK dsyevd, the driver
np.linalg.eigh wraps, called directly on the smaller side of the scaled
Gram.  Otherwise (``_lanczos_pair``) it runs LANCZOS_STEPS = 12
Lanczos steps, warm-started from the previous step's vector and fully
reorthogonalized, one product by G = B^T B per step, and takes the top
Ritz pair.  G is formed once per descent and serves the greedy lower
bound and the oracle alike: f(mu) depends on B through G alone.  The
uniform check overwrites its G, so a block that fails it forms G again
for the descent.  The README's Grothendieck-Pietsch section gives the
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
# products by G in one call of the oracle's Lanczos route
LANCZOS_STEPS = 12


@dataclass(frozen=True)
class PietschWeights:
    """Simplex weights with the norm they achieve."""

    mu: np.ndarray
    achieved_norm: float
    converged: bool
    iterations: int
    history: tuple = field(repr=False, default=())
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
    submatrix_bound: float     # t with ||B_J|| < t proved by Cholesky
    achieved_norm: float | None  # f(mu) as measured; None on "uniform"
    achieved_eps: float | None   # PietschWeights.achieved_eps; idem
    ok: bool
    iterations: int            # mirror-descent steps; 0 on "uniform"
    converged: bool | None     # PietschWeights.converged; None on "uniform"
    target: float | None       # sqrt(pi/2) * lower bound; None with weights
    target_met: bool           # ||B_J|| sqrt(delta m) <= target established
    route: str                 # "uniform" (no descent) or "descent"


def _col_scale(mu, col_live):
    """Diagonal of D_mu^{-1/2}; dead (all-zero) columns pinned to zero."""
    return np.where(col_live, 1.0 / np.sqrt(mu), 0.0)


def _certified_f(B, mu, col_live, rng):
    """spectral_norm's NormEstimate of f(mu) = ||B D_mu^{-1/2}||.

    One spectral_norm call on the op B s, ``s`` the diagonal of
    D_mu^{-1/2} (zero on dead columns): exact by LAPACK when min(k, m)
    <= DENSE_SOLVE_LIMIT, otherwise the root of spectral_norm's Lanczos
    value on the op's Gram, formed on its smaller side: a lower bound
    on f(mu), taken once that value moves by at most 1e-9 (relative)
    over 10 steps.  That is all the proof chain needs (module
    docstring); the estimate's eps, kept as ``achieved_eps``, is the
    probabilistic upper side.  The start vector is drawn from ``rng``.
    """
    s = _col_scale(mu, col_live)
    op = LinearOp(*B.shape, lambda x: B @ (s * x), lambda x: s * (B.T @ x))
    return spectral_norm(op, rng=rng)


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
    * Lanczos route otherwise (``_lanczos_pair``): LANCZOS_STEPS
      products by G from v0, B itself is not read.

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
        return lambda mu, v0: _lanczos_pair(G, scale(mu), v0)
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


def _lanczos_pair(G, s, v0):
    """The Lanczos route of ``_oracle``: the top Ritz pair of M = s G s.

    LANCZOS_STEPS Lanczos steps from the unit vector ``v0``, each one
    product by G = B^T B, each new vector orthogonalized against the
    whole basis so far (classical Gram-Schmidt, twice).  The Ritz pair
    is the top eigenpair of the tridiagonal of the alphas and betas, by
    LAPACK dstev.  The recurrence stops early once the Krylov space is
    invariant.  The Ritz value is a lower bound on lambda_max (Cauchy
    interlacing; up to rounding, as the tests check); mirror descent only
    needs an inexact subgradient, and f is measured again by
    ``_certified_f`` at the end.  v is a unit vector, zero wherever
    s and ``v0`` are.
    """
    m = v0.size
    Q = np.empty((LANCZOS_STEPS, m))  # the basis, one vector a row
    alpha, beta = np.empty(LANCZOS_STEPS), np.empty(LANCZOS_STEPS)
    w, z = np.empty(m), np.empty(m)
    Q[0] = v0
    for j in range(LANCZOS_STEPS):
        np.multiply(s, Q[j], out=w)
        np.dot(G, w, out=z)
        z *= s
        alpha[j] = Q[j] @ z  # >= 0: M is positive semidefinite
        basis = Q[:j + 1]
        z -= (basis @ z) @ basis
        z -= (basis @ z) @ basis
        beta[j] = sqrt(z @ z)
        # invariant space, M q = 0 included; the last step needs no q
        if beta[j] <= 1e-12 * alpha[j] or j + 1 == LANCZOS_STEPS:
            break
        np.divide(z, beta[j], out=Q[j + 1])
    k = j + 1
    lams, Y, info = _scipy.lapack().dstev(alpha[:k], beta[:max(k - 1, 1)])
    if info:
        raise np.linalg.LinAlgError(f"dstev failed: info {info}")
    v = Y[:, -1] @ Q[:k]
    return max(float(lams[-1]), 0.0), v / sqrt(v @ v)


def _norm_below(G, t):
    """Whether ||A|| < t, for a Gram matrix G of A (A^T A or A A^T).

    LAPACK dpotrf on t^2 I - G, written over G: the factorization runs
    to the end iff t^2 I - G is positive definite, that is, iff
    lambda_max(G) = ||A||^2 < t^2, up to rounding of about m u ||G||
    (m the order of G, u the unit roundoff).  No eigenvalue is
    computed: on the decompose blocks measured it cost at most what
    forming G did, half of it at order 2048.  An empty G (a block
    without rows or columns) belongs to an A of norm 0.
    """
    n = G.shape[0]
    if n == 0:
        return True
    np.negative(G, out=G)
    G.flat[::n + 1] += t * t
    # G is exactly symmetric (numpy forms A^T A and A A^T by syrk), so
    # G.T is the same matrix in the Fortran order LAPACK reads: f2py
    # hands it over uncopied
    _, info = _scipy.lapack().dpotrf(G.T, clean=0, overwrite_a=1)
    if info < 0:
        raise np.linalg.LinAlgError(f"dpotrf failed: info {info}")
    return info == 0


def _as_block(B):
    """B as a C-ordered float matrix with at least one column: read in C
    order, so no result depends on the caller's memory layout."""
    B = np.ascontiguousarray(B, dtype=float)
    if B.ndim != 2:
        raise ValueError("B must be a matrix")
    if B.shape[1] == 0:
        raise ValueError("B needs at least one column")
    return B


def _descent_start(B, G):
    """(rng, v, lower): the descent's stream after its draws, its random
    start ``v`` and the lower bound on ||B||_{inf->2}, drawn in that
    order: exact enumeration when m <= EXACT_LOWER_COLS, the greedy
    bound on the Gram ``G`` = B^T B otherwise."""
    m = B.shape[1]
    rng = aux_generator(_DEFAULT_GP_SEED, 0, 4)
    v = rng.standard_normal(m)
    if m <= EXACT_LOWER_COLS:
        lower = inf_to_2_norm_exact(B)
    else:
        lower = inf_to_2_norm_lower(B, trials=8, rng=rng, gram=G)
    return rng, v, lower


def _bound(rhs, delta, m):
    """t with ||B_J|| < t proving ||B_J|| sqrt(delta m) <= rhs, up to the
    slack rhs (1 + 1e-8) + 1e-12."""
    return (rhs * (1.0 + 1e-8) + 1e-12) / sqrt(delta * m)


def gp_weights(B, max_iter=500):
    """Entropic mirror descent for the Pietsch weights; best iterate kept.

    Step t moves by 1/sqrt(t) times the normalized subgradient.  The
    lower bound on ||B||_{inf->2} (``_descent_start``, on G = B^T B) is
    computed first and returned as ``lower_bound``; it serves the left
    inequality achieved_norm >= ||B||_{inf->2}, asserted on every call.
    The descent ends by measuring the best and the final iterate on
    the descent's stream and keeps the smaller.

    The stall test ends the descent at the first step t > _CONVERGED_WINDOW
    at which the running best improved by at most a relative
    _CONVERGED_TOL over the last _CONVERGED_WINDOW steps; ``converged``
    reports that stop.  The stop is a truncation: the call with
    ``max_iter`` set to the returned ``iterations`` returns the same
    result bit for bit.  ``converged`` is False when the cap ended the
    descent first; callers treat False as a flag, not an error.

    B is read in C order (``_as_block``).
    """
    B = _as_block(B)
    m = B.shape[1]
    col_sq = np.einsum("ij,ij->j", B, B)
    col_live = col_sq > 0.0
    mu = np.full(m, 1.0 / m)
    if not col_live.any():
        return PietschWeights(mu, 0.0, True, 0, (0.0,), 0.0)
    G = B.T @ B
    rng, v, lower = _descent_start(B, G)
    v[~col_live] = 0.0
    v /= np.linalg.norm(v)
    top_pair = _oracle(B, G, col_live)
    best_mu = mu.copy()
    best_f = np.inf
    history = []
    converged = False
    for t in range(1, max_iter + 1):
        lam, v = top_pair(mu, v)
        f = sqrt(max(lam, 0.0))
        if f < best_f:
            best_f = f
            best_mu = mu.copy()
        history.append(best_f)
        converged = bool(t > _CONVERGED_WINDOW and
                         history[-1 - _CONVERGED_WINDOW] - history[-1]
                         <= _CONVERGED_TOL * max(history[-1], 1e-30))
        if converged:
            break
        g = -lam * (v * v) / mu
        gmax = -g.min()  # lam >= 0, so g <= 0
        if gmax == 0.0:
            break
        mu = mu * np.exp(-(1.0 / sqrt(t)) * (g / gmax))
        mu /= mu.sum()
        mu = np.maximum(mu, _MU_FLOOR)
        mu /= mu.sum()
    achieved = _certified_f(B, best_mu, col_live, rng)
    final = _certified_f(B, mu, col_live, rng)
    if final.value < achieved.value:
        achieved, best_mu = final, mu.copy()
    if achieved.value < lower * (1.0 - 1e-8) - 1e-12:
        raise VerificationError(f"left factorization inequality violated: "
                                f"{achieved.value} < {lower}")
    return PietschWeights(best_mu, float(achieved.value), converged,
                          len(history), tuple(history), float(lower),
                          float(achieved.eps))


def gp_submatrix(B, delta, weights=None, max_iter=500):
    """Columns J with |J| >= (1-delta)m, with the certificate of their
    ||B_J|| sqrt(delta m).

    Without ``weights``: the uniform route, or for a block that fails
    its check ``gp_weights(B, max_iter)`` and the descent route (module
    docstring).  With ``weights`` (gp-check's call), or on the descent
    route, J = {j : mu_j <= 1/(delta m)}.  Both guarantees are then
    algebraic consequences of sum(mu) = 1, asserted on every call:
    |J| >= (1-delta)m by pigeonhole, and ||B_J|| sqrt(delta m) <=
    achieved_norm with the slack achieved_norm (1 + 1e-8) + 1e-12.  The
    second is decided, not measured: with t that slack over
    sqrt(delta m), dpotrf on t^2 I - G_J, G_J the Gram of B_J's smaller
    side, proves ||B_J|| < t, up to rounding of about m u ||G_J|| (u the
    unit roundoff), far inside the 1e-8.  Either route keeps its t as
    ``submatrix_bound``.  B is read in C order (``_as_block``).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("need 0 < delta < 1")
    B = _as_block(B)
    m = B.shape[1]
    threshold = 1.0 / (delta * m)
    cert = dict(m=m, delta=delta, threshold=threshold,
                size_bound=(1.0 - delta) * m, ok=True)
    w, target = weights, None
    if w is None:
        G = B.T @ B
        target = LITTLE_GROTHENDIECK * _descent_start(B, G)[2]
        bound = _bound(target, delta, m)
        if _norm_below(G, bound):
            return np.arange(m), GPCertificate(
                **cert, n_selected=m, submatrix_bound=bound,
                achieved_norm=None, achieved_eps=None, iterations=0,
                converged=None, target=target, target_met=True,
                route="uniform")
        del G  # dpotrf wrote over it; freed before the descent forms its own
        w = gp_weights(B, max_iter=max_iter)
    J = np.flatnonzero(w.mu <= threshold)
    if J.size < (1.0 - delta) * m - 1e-9:
        raise VerificationError("pigeonhole cardinality bound failed")
    bound = _bound(w.achieved_norm, delta, m)
    if J.size < m:
        B = B[:, J]
    G = B.T @ B if B.shape[1] <= B.shape[0] else B @ B.T
    if not _norm_below(G, bound):
        raise VerificationError(
            f"submatrix certificate failed: ||B_J|| < {bound}, which "
            f"||B_J|| sqrt(delta m) <= {w.achieved_norm} needs, is not "
            f"proved")
    return J, GPCertificate(
        **cert, n_selected=int(J.size), submatrix_bound=bound,
        achieved_norm=w.achieved_norm, achieved_eps=w.achieved_eps,
        iterations=w.iterations, converged=w.converged, target=target,
        target_met=target is not None and w.achieved_norm <= target,
        route="descent")
