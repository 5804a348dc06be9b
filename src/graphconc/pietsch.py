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

``gp_submatrix`` without weights (``decompose``'s call per pass) draws the
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
  going on from the check's G and draws (``_descend``), then J =
  {j : mu_j <= 1/(delta m)} and a Cholesky proof of ||B_J|| sqrt(delta
  m) <= f (1 + 1e-8) + 1e-12.  Each link of

    ||B_J|| sqrt(delta m)  <=  f  <=  target  <=  sqrt(pi/2) ||B||_{inf->2}

  is then a computed fact, the second only when f <= target, which
  ``target_met`` records; the third because the lower bound is at most
  ||B||_{inf->2}.

``gp_submatrix_both`` is ``decompose``'s call for a round whose every
row and column passes its filter, where the row pass's block is the
column pass's block transposed: it decides both uniform certificates
with one Gram and one dpotrf, at the smaller of the two sides' t, each
side's lower bound drawn without a Gram by sign-power iteration
(``inf_to_2_norm_power``; exact enumeration up to EXACT_LOWER_COLS
columns).  The trace names the bound behind each target
(``target_from``).  When that one decision fails, the dpotrf has left
the Gram as it was (``_norm_below``), the column side's
``gp_submatrix`` goes on from it, and ``decompose`` calls
``gp_submatrix`` on the row side.

Each route returns a ``GPCertificate``, whose fields are the block's
entry in a ``decompose`` trace, in the trace's key order.

f, kept as ``achieved``, is the value ``_certified_f`` measured, one
``spectral_norm`` call: exact by LAPACK when min(k, m) <=
DENSE_SOLVE_LIMIT, otherwise the root of a Lanczos value on the Gram of
B D_mu^{-1/2}, a lower bound on f(mu); the chain never needs an upper
bound on it.  Its Kuczynski-Wozniakowski eps, kept as ``achieved_eps``
(0 when exact), bounds f(mu) <= achieved / (1 - eps) with probability
1 - 1e-3 (``spectral``).  Every descent ends at its stall test: the
first step at which the best f(mu) improved by at most a relative
_CONVERGED_TOL = 1e-4 over the last _CONVERGED_WINDOW = 50 steps
(``converged``), or at max_iter.

The subgradient oracle (``_oracle``) is one step function, chosen once
per descent from the block's shape.  When
min(k, m) <= DENSE_SOLVE_LIMIT it is exact: LAPACK dsyevd, the driver
np.linalg.eigh wraps, called directly on the smaller side of the scaled
Gram.  Otherwise it runs one cycle of ``spectral.ritz_pairs``, the
package's Lanczos: LANCZOS_STEPS = 12 steps, warm-started from the
previous step's vector and fully reorthogonalized, one product by
G = B^T B per step, and takes the top Ritz pair.  G is formed once per
descent and serves the greedy lower bound and the oracle alike: f(mu)
depends on B through G alone.  A uniform check that fails leaves its G
as it was, and the descent goes on from it and from the start and
bound already drawn, so the block's Gram is formed once.  CHANGES.md
gives the timings behind these choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi, sqrt

import numpy as np

from . import _lapack
from ._seeding import aux_generator
from .errors import VerificationError
from .operators import LinearOp
from .spectral import (DENSE_SOLVE_LIMIT, inf_to_2_norm_exact,
                       inf_to_2_norm_lower, inf_to_2_norm_power, ritz_pairs,
                       spectral_norm)

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
# _norm_below mirrors a Gram back this many rows at a time
_MIRROR_ROWS = 256


@dataclass(frozen=True)
class PietschWeights:
    """Simplex weights with the norm they achieve."""

    mu: np.ndarray
    achieved: float
    converged: bool
    iterations: int
    history: tuple = field(repr=False, default=())
    lower_bound: float | None = None  # on ||B||_{inf->2}, asserted against
    achieved_eps: float = 0.0  # KW eps of achieved; 0 when exact

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
    """One GP block's certificate of ||B_J|| sqrt(delta m), as computed.

    Its fields, in order, are the block's entry in a ``decompose``
    trace (``gp_cols``, ``gp_rows``).  |J| >= (1 - delta) m holds too:
    ``gp_submatrix`` raises before it returns a J that fails it.
    """

    route: str                 # "uniform" (no descent) or "descent"
    achieved: float | None     # f(mu) as measured; None on "uniform"
    achieved_eps: float | None   # PietschWeights.achieved_eps; idem
    submatrix_bound: float     # t with ||B_J|| < t proved by Cholesky
    selected: int              # |J|
    iterations: int            # mirror-descent steps; 0 on "uniform"
    converged: bool | None     # PietschWeights.converged; None on "uniform"
    target: float | None       # sqrt(pi/2) * lower bound; None with weights
    target_from: str | None    # the bound: "exact", "greedy", "sign-power"
    target_met: bool           # ||B_J|| sqrt(delta m) <= target established

    @property
    def ok(self):
        """True: a certificate is returned only once it holds, and one
        that fails raises ``VerificationError`` instead."""
        return True


def _col_scale(mu, dead, out):
    """Diagonal of D_mu^{-1/2}, written into ``out`` and returned; the
    dead (all-zero) columns, at the positions ``dead``, pinned to zero."""
    np.divide(1.0, np.sqrt(mu, out=out), out=out)
    if dead.size:
        out[dead] = 0.0
    return out


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
    s = _col_scale(mu, np.flatnonzero(~col_live), np.empty(mu.size))
    op = LinearOp(*B.shape, lambda x: B @ (s * x), lambda x: s * (B.T @ x))
    return spectral_norm(op, rng=rng)


def _oracle(B, G, col_live):
    """The subgradient oracle of one descent: ``top_pair(mu, v0)``, the
    top eigenpair (lambda, v) of M = D_mu^{-1/2} B^T B D_mu^{-1/2}.

    The route is chosen here, once per descent, from B's shape; ``G``
    is B^T B and ``v0`` the previous step's vector.  D_mu^{-1/2} is
    ``_col_scale``, zero on B's dead (all-zero) columns, written into a
    vector of the oracle's own.

    * Exact route, min(k, m) <= DENSE_SOLVE_LIMIT: LAPACK dsyevd, the
      driver np.linalg.eigh wraps, on the smaller side of the scaled
      Gram, in an ``_lapack.Eigh`` of the oracle's own.  When k <= m
      that is (B s)(B s)^T (k x k), its top vector u mapped back by
      v = s B^T u / ||s B^T u||; when m < k it is s G s (m x m).  The
      result is bit for bit np.linalg.eigh's.  A step allocates
      nothing: B s, the scaled Gram (which dsyevd overwrites with its
      vectors), dsyevd's workspaces, u and v live in buffers of the
      oracle's own, so v is overwritten by the next call.
    * Lanczos route otherwise: one cycle of ``spectral.ritz_pairs`` on
      M, LANCZOS_STEPS products by G from v0 (tol infinite, so no
      restart), each formed in two vectors of the oracle's own, its H
      solved in an ``_lapack.Eigh`` of the oracle's own, and its top
      Ritz pair: the top eigenpair of M projected on the
      Krylov space, a lower bound on lambda_max (Cauchy interlacing; up
      to rounding, as the tests check).  The space may be invariant
      sooner, and the cycle then ends there: it is given no generator,
      whose fresh vector would not be zero on dead columns.  Mirror
      descent only needs an inexact subgradient, and f is measured
      again by ``_certified_f`` at the end.  B itself is not read.

    v is zero on dead columns.
    """
    k, m = B.shape
    s, dead = np.empty(m), np.flatnonzero(~col_live)

    if min(k, m) > DENSE_SOLVE_LIMIT:
        w, z = np.empty(m), np.empty(m)

        def product(x):  # s G s x, in two vectors of the oracle's own
            np.dot(G, np.multiply(s, x, out=w), out=z)
            return np.multiply(z, s, out=z)

        eigh = _lapack.Eigh(LANCZOS_STEPS)

        def top_pair(mu, v0):
            _col_scale(mu, dead, s)
            lam, V = ritz_pairs(product, v0, 1, np.negative, LANCZOS_STEPS,
                                np.inf, eigh=eigh)
            return max(float(lam[0]), 0.0), V[:, 0]
        return top_pair

    v, eigh = np.empty(m), _lapack.Eigh(min(k, m))
    M = eigh.matrix(min(k, m))  # dsyevd works in it, in place
    if k <= m:
        C, U = np.empty((k, m)), np.empty((k, k))
        C_T, M_T = C.T, M.T

        def top_pair(mu, v0):
            np.multiply(B, _col_scale(mu, dead, s), out=C)
            # numpy forms C C^T by syrk, exactly symmetric, so the
            # C-ordered M^T it is written into holds M
            np.dot(C, C_T, out=M_T)
            lams, V = eigh(k)
            # u is read with dsyevd's stride, from a C-ordered copy:
            # OpenBLAS's dgemv sums a unit-stride vector in another
            # order, so C^T u would not round as with dsyevd's vector
            np.copyto(U, V)
            np.matmul(C.T, U[:, -1], out=v)
            return float(lams[-1]), np.divide(v, sqrt(v.dot(v)), out=v)
    else:
        def top_pair(mu, v0):
            np.multiply(_col_scale(mu, dead, s)[:, None], G, out=M)
            np.multiply(M, s, out=M)
            lams, V = eigh(m)
            np.copyto(v, V[:, -1])
            v[dead] = 0.0
            return float(lams[-1]), v
    return top_pair


def _norm_below(G, t):
    """Whether ||A|| < t, for a Gram matrix G of A (A^T A or A A^T).

    LAPACK dpotrf on t^2 I - G, written over G: the factorization runs
    to the end iff t^2 I - G is positive definite, that is, iff
    lambda_max(G) = ||A||^2 < t^2, up to rounding of about m u ||G||
    (m the order of G, u the unit roundoff).  No eigenvalue is
    computed: on the decompose blocks measured it cost at most what
    forming G did, half of it at order 2048.  An empty G (a block
    without rows or columns) belongs to an A of norm 0.

    When the answer is no, G is left as it was, bit for bit, so that a
    caller can go on with it: dpotrf writes only G's lower triangle, the
    strict upper one still holds -G, and the diagonal was saved.
    """
    n = G.shape[0]
    if n == 0:
        return True
    diag = G.diagonal().copy()
    np.negative(G, out=G)
    G.flat[::n + 1] += t * t
    # G is exactly symmetric (numpy forms A^T A and A A^T by syrk), so
    # G.T is the same matrix in the Fortran order LAPACK reads, and
    # dpotrf's upper triangle of it is G's lower one
    if _lapack.cholesky(G.T) == 0:
        return True
    np.negative(G, out=G)
    G.flat[::n + 1] = diag
    for a in range(0, n, _MIRROR_ROWS):  # the lower triangle from the upper
        b = min(a + _MIRROR_ROWS, n)
        G[a:b, :a] = G[:a, a:b].T
        square = G[a:b, a:b]
        below = np.tril_indices(b - a, -1)
        square[below] = square.T[below]
    return False


def _as_block(B):
    """B as a C-ordered float matrix with at least one column: read in C
    order, so no result depends on the caller's memory layout."""
    B = np.ascontiguousarray(B, dtype=float)
    if B.ndim != 2:
        raise ValueError("B must be a matrix")
    if B.shape[1] == 0:
        raise ValueError("B needs at least one column")
    return B


def _descent_start(B, G=None):
    """(rng, v, lower, kind): the descent's stream after its draws, its
    random start ``v`` and the lower bound on ||B||_{inf->2}, drawn in
    that order, with the ``kind`` of bound it is: "exact" enumeration
    when m <= EXACT_LOWER_COLS, otherwise the "greedy" bound on the Gram
    ``G`` = B^T B, or without G the "sign-power" bound on B itself."""
    m = B.shape[1]
    rng = aux_generator(_DEFAULT_GP_SEED, 0, 4)
    v = rng.standard_normal(m)
    if m <= EXACT_LOWER_COLS:
        return rng, v, inf_to_2_norm_exact(B), "exact"
    if G is None:
        return rng, v, inf_to_2_norm_power(B, rng), "sign-power"
    return rng, v, inf_to_2_norm_lower(B, rng=rng, gram=G), "greedy"


def _bound(rhs, delta, m):
    """t with ||B_J|| < t proving ||B_J|| sqrt(delta m) <= rhs, up to the
    slack rhs (1 + 1e-8) + 1e-12.  Every route reads delta here first,
    so this is where a delta outside (0, 1) is refused."""
    if not 0.0 < delta < 1.0:
        raise ValueError("need 0 < delta < 1")
    return (rhs * (1.0 + 1e-8) + 1e-12) / sqrt(delta * m)


def _uniform(m, lower, kind, delta):
    """The uniform route's certificate on m columns, should ||B|| < t be
    proved: every column selected, target = sqrt(pi/2) ``lower`` (a
    ``kind`` bound) and t its ``_bound``."""
    target = LITTLE_GROTHENDIECK * lower
    return GPCertificate(
        route="uniform", achieved=None, achieved_eps=None,
        submatrix_bound=_bound(target, delta, m), selected=m, iterations=0,
        converged=None, target=target, target_from=kind, target_met=True)


def _submatrix_on(B, G, delta, max_iter):
    """``gp_submatrix``'s route on B's Gram G: the lower bound
    ``_descent_start`` draws on G and the uniform route's check at its
    t, or, when that fails, the descent route going on from G (which
    the check left as it was) and those draws."""
    rng, v, lower, kind = _descent_start(B, G)
    cert = _uniform(B.shape[1], lower, kind, delta)
    if _norm_below(G, cert.submatrix_bound):
        return np.arange(B.shape[1]), cert
    return _selected(B, delta, _descend(B, G, rng, v, lower, max_iter),
                     cert.target, kind)


def gp_weights(B, max_iter=500):
    """Entropic mirror descent for the Pietsch weights; best iterate kept.

    Step t moves by 1/sqrt(t) times the normalized subgradient.  The
    lower bound on ||B||_{inf->2} (``_descent_start``, on G = B^T B) is
    computed first and returned as ``lower_bound``; it serves the left
    inequality achieved >= ||B||_{inf->2}, asserted on every call.
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
    G = B.T @ B
    return _descend(B, G, *_descent_start(B, G)[:3], max_iter)


def _descend(B, G, rng, v, lower, max_iter):
    """``gp_weights`` of a C-ordered B, going on from B's Gram G = B^T B
    and ``_descent_start``'s draws on it (``rng``, ``v``, ``lower``),
    which a failed uniform check leaves as they were."""
    m = B.shape[1]
    col_sq = np.einsum("ij,ij->j", B, B)
    col_live = col_sq > 0.0
    mu = np.full(m, 1.0 / m)
    if not col_live.any():
        return PietschWeights(mu, 0.0, True, 0, (0.0,), 0.0)
    v[~col_live] = 0.0
    v /= np.linalg.norm(v)
    top_pair = _oracle(B, G, col_live)
    best_mu, g = mu.copy(), np.empty(m)
    # mu.sum() and g.min() without ndarray's Python frame around them
    add, least = np.add.reduce, np.minimum.reduce
    best_f = np.inf
    history = []
    converged = False
    for t in range(1, max_iter + 1):
        lam, v = top_pair(mu, v)
        f = sqrt(max(lam, 0.0))
        if f < best_f:
            best_f = f
            np.copyto(best_mu, mu)
        history.append(best_f)
        converged = bool(t > _CONVERGED_WINDOW and
                         history[-1 - _CONVERGED_WINDOW] - history[-1]
                         <= _CONVERGED_TOL * max(history[-1], 1e-30))
        if converged:
            break
        # g = -lam (v * v) / mu and mu <- mu exp(-(g / gmax) / sqrt(t)),
        # renormalized, floored at _MU_FLOOR and renormalized again: in
        # g and mu themselves, each operation as written, in its order
        np.multiply(v, v, out=g)
        g *= -lam
        g /= mu
        gmax = -least(g)  # lam >= 0, so g <= 0
        if gmax == 0.0:
            break
        g /= gmax
        g *= -(1.0 / sqrt(t))
        mu *= np.exp(g, out=g)
        mu /= add(mu)
        np.maximum(mu, _MU_FLOOR, out=mu)
        mu /= add(mu)
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
    its check the descent ``gp_weights(B, max_iter)`` runs, on the
    check's Gram and draws, and the descent route (module docstring).
    With ``weights`` (gp-check's call), or on the descent route, J =
    {j : mu_j <= 1/(delta m)}.  Both guarantees are then
    algebraic consequences of sum(mu) = 1, asserted on every call:
    |J| >= (1-delta)m by pigeonhole, and ||B_J|| sqrt(delta m) <=
    achieved with the slack achieved (1 + 1e-8) + 1e-12.  The
    second is decided, not measured: with t that slack over
    sqrt(delta m), dpotrf on t^2 I - G_J, G_J the Gram of B_J's smaller
    side, proves ||B_J|| < t, up to rounding of about m u ||G_J|| (u the
    unit roundoff), far inside the 1e-8.  Either route keeps its t as
    ``submatrix_bound`` and |J| as ``selected``, and returns its
    ``GPCertificate`` only once it holds; a failed one raises
    ``VerificationError``.  B is read in C order (``_as_block``).
    """
    B = _as_block(B)
    if weights is not None:
        return _selected(B, delta, weights, None, None)
    return _submatrix_on(B, B.T @ B, delta, max_iter)


def _selected(B, delta, w, target, kind):
    """The descent route's J = {j : mu_j <= 1/(delta m)} for the weights
    ``w``, with its certificate."""
    m = B.shape[1]
    bound = _bound(w.achieved, delta, m)
    J = np.flatnonzero(w.mu <= 1.0 / (delta * m))
    if J.size < (1.0 - delta) * m - 1e-9:
        raise VerificationError("pigeonhole cardinality bound failed")
    if J.size < m:
        B = B[:, J]
    G = B.T @ B if B.shape[1] <= B.shape[0] else B @ B.T
    if not _norm_below(G, bound):
        raise VerificationError(
            f"submatrix certificate failed: ||B_J|| < {bound}, which "
            f"||B_J|| sqrt(delta m) <= {w.achieved} needs, is not proved")
    return J, GPCertificate(
        route="descent", achieved=w.achieved, achieved_eps=w.achieved_eps,
        submatrix_bound=bound, selected=int(J.size),
        iterations=w.iterations, converged=w.converged, target=target,
        target_from=kind,
        target_met=target is not None and w.achieved <= target)


def gp_submatrix_both(B, delta, max_iter=500):
    """``gp_submatrix`` of B, and of B^T when one decision proves both
    uniform certificates: ((J, cert of B), (I, cert of B^T) or None).

    ``decompose``'s call for a round whose every row and column passes
    its filter: the row pass's block is then the column pass's block
    transposed, and ||B^T|| = ||B||.  Each side draws its lower bound on
    ||.||_{inf->2} as ``gp_submatrix`` would, but without a Gram: exact
    enumeration up to EXACT_LOWER_COLS columns, the sign-power bound
    (``inf_to_2_norm_power``) above, each on a C-ordered block of its
    own orientation, so a side's bound is that of the same block handed
    over transposed; B^T's copy is freed before the Gram.  Each side's
    target gives its t (``_bound``), and one dpotrf on t^2 I - G, G =
    B^T B, decides ||B|| < min(t_cols, t_rows): if that holds, it proves
    both sides' uniform certificates, each keeping its own t as
    ``submatrix_bound``.

    Otherwise ``_norm_below`` has left G as it was, and B's
    ``gp_submatrix`` goes on from it, field for field what the call
    gives on B; the second item is None, and the caller runs
    ``gp_submatrix`` on B^T.  A decision that fails thus costs its two
    sign-power bounds, B^T's copy and one dpotrf, not a Gram.

    G is B^T B for a square block too, so a block and its transpose do
    not decide on the same Gram: where ||B|| is within rounding of the
    smaller t (about m u ||G||, u the unit roundoff), the two can decide
    differently, and ``decompose`` on A^T can then differ from
    ``transposed`` of A's in that round's GP fields.
    """
    B = _as_block(B)
    k, m = B.shape
    cols = _uniform(m, *_descent_start(B)[2:], delta)
    BT = np.ascontiguousarray(B.T)
    rows = _uniform(k, *_descent_start(BT)[2:], delta)
    del BT
    G = B.T @ B
    if _norm_below(G, min(cols.submatrix_bound, rows.submatrix_bound)):
        return (np.arange(m), cols), (np.arange(k), rows)
    return _submatrix_on(B, G, delta, max_iter), None
