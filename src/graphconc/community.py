"""Regularized spectral clustering on the balanced two-block SBM.

The detector builds L(A_tau), extracts the eigenvector of the second
smallest eigenvalue, and thresholds its sign.  On the expected matrix
this vector is exactly block-constant (+1/sqrt(n) on one community,
-1/sqrt(n) on the other); the Davis-Kahan bound 2||X - Y|| / delta
controls how far the sample eigenvector can rotate away from it.

Labels are plain int8 vectors over {+1, -1}.  ``detect`` returns a
``Detection`` (the labels, v2, lambda_2, lambda_3, the operator
L(A_tau) and the products its solve took); ``davis_kahan_check`` runs
one whole sbm trial on a sample and returns its record, falling back
to best-effort labels when detect does not converge.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._seeding import aux_generator
from .errors import LengthMismatch, NoConvergence, ZeroGap
from .models import BlockTwo, sample
from .operators import LinearOp, compose_difference, owned
from .regularize import expected_laplacian, laplacian, tau_shift
from .spectral import spectral_norm, top_k_eigs

_DETECT_SEED = 0xC0DE  # fixed eigensolver seed; detect is deterministic
_DETECT_TOL = 1e-6  # top_k_eigs residual tol of detect's two eigenpairs


def _as_pm1(x):
    lab = np.asarray(x)
    if lab.ndim != 1 or (lab.size and not np.all(np.abs(lab) == 1)):
        raise ValueError("labels must be a vector over {+1, -1}")
    return lab.astype(np.int8)


def _sign_labels(v):
    """+1 where ``v`` >= 0, -1 elsewhere, as int8."""
    return np.where(v >= 0.0, 1, -1).astype(np.int8)


def sbm_instance(n, a, b, seed, stream=0):
    """A sample of BlockTwo(n, a, b) plus its balanced ground-truth
    labels (+1 on the first n/2 vertices, -1 on the rest).  BlockTwo
    refuses an odd n."""
    model = BlockTwo(n, a, b)
    return sample(model, seed, stream), model.labels().astype(np.int8)


class Detection(NamedTuple):
    """What detect() found: the labels, the v2 they are the sign of, the
    bottom of spec(L), the operator L(A_tau) itself and the products by
    the shifted op that the solve took, its residual checks included."""

    labels: np.ndarray
    v2: np.ndarray
    lam2: float
    lam3: float
    laplacian: LinearOp
    products: int


def detect(g, tau):
    """Community labels from the sign of v2(L(A_tau)), as a Detection.

    L's kernel vector q = D^{1/2}1 / ||D^{1/2}1|| is exact, so
    ``top_k_eigs``'s thick-restart Lanczos runs on M = 2I - L - 3qq^T,
    a rank-one Wielandt shift (Wilkinson 1965, ch. 9): q's eigenvalue
    moves to -1, below the [0, 2] that the rest of 2I - L occupies, and
    the top two Ritz pairs of M are (2 - lambda_2, v_2) and
    (2 - lambda_3, v_3), with v_2 and v_3 orthogonal to q.  Zero
    entries of v_2 map to +1.  ``products`` counts the products by M,
    the residual checks' included: a deterministic count of the
    solve's work.  NoConvergence propagates (the null model pushes
    lambda_2 into the bulk; callers that want a best-effort answer can
    use exc.best).
    """
    shifted = tau_shift(g, tau)
    L = laplacian(shifted)  # refuses a directed g, and zero degrees at tau 0
    q = np.sqrt(shifted.degrees())
    q /= np.linalg.norm(q)
    q3, scratch, products = 3.0 * q, np.empty(g.n), [0]

    def mv(x):  # 2 x - L x - 3 q (q^T x), bit for bit, in L x's vector
        products[0] += 1
        y = owned(L.matvec(x), x)
        np.subtract(np.multiply(x, 2.0, out=scratch), y, out=y)
        y -= np.multiply(q3, q @ x, out=scratch)
        return y

    M = LinearOp(g.n, g.n, mv, symmetric=True)
    vals, vecs = top_k_eigs(M, 2, mode="la", tol=_DETECT_TOL,
                            rng=aux_generator(_DETECT_SEED, 0, 0))
    v2 = vecs[:, 0]
    return Detection(_sign_labels(v2), v2, float(2.0 - vals[0]),
                     float(2.0 - vals[1]), L, products[0])


def misclassification(est, truth):
    """Fraction of disagreements after the best global label flip.

    Counted in integers, so a flip of ``est`` (the sign of an eigenvector
    is arbitrary) leaves the value unchanged bit for bit.
    """
    a = _as_pm1(est)
    b = _as_pm1(truth)
    if a.size != b.size:
        raise LengthMismatch(f"label lengths differ: {a.size} vs {b.size}")
    if a.size == 0:
        return 0.0
    wrong = int(np.count_nonzero(a != b))
    return min(wrong, a.size - wrong) / a.size


def davis_kahan_bound(norm_diff, spectral_gap):
    """2 ||X - Y|| / delta (Theorem 1.3 right-hand side)."""
    if spectral_gap <= 0.0:
        raise ZeroGap("Davis-Kahan needs a positive spectral gap")
    return 2.0 * float(norm_diff) / float(spectral_gap)


def expected_laplacian_eigs(model, tau):
    """(0, lambda_2, lambda_3) of L(EA_tau) for BlockTwo, closed form.

    EA_tau has constant row sums dbar = (a+b)/2 - a/n + tau, so
    L = I - EA_tau/dbar.  EA_tau eigenvalues: dbar on the ones vector,
    nu = (a-b)/2 - a/n on the block sign vector, -a/n on the (n-2)-dim
    complement.  lambda_2 <= lambda_3 always since a >= b.
    """
    if not isinstance(model, BlockTwo):
        raise TypeError("closed form only for BlockTwo")
    n, a, b = model.n, model.a, model.b
    dbar = (a + b) / 2.0 - a / n + tau
    nu = (a - b) / 2.0 - a / n
    lam2 = 1.0 - nu / dbar
    lam3 = 1.0 + (a / n) / dbar
    return 0.0, float(lam2), float(lam3)


def expected_laplacian_eigvec(model, tau):
    """Closed-form v2(L(EA_tau)) and its spectral gap.

    v2 is +1/sqrt(n) on block one and -1/sqrt(n) on block two; the gap
    is min(lambda_2 - 0, lambda_3 - lambda_2) = min(lambda_2,
    ((a-b)/2)/dbar), of order (a-b)/(a+b).  a == b gives gap 0 (the
    degenerate flag: v2 is then not identifiable).
    """
    _, lam2, lam3 = expected_laplacian_eigs(model, tau)
    v2 = model.labels() / np.sqrt(model.n)
    gap = min(lam2, lam3 - lam2)
    return v2, float(gap)


def eigvec_distance(x, y):
    """min over beta in {+1, -1} of ||x + beta y||."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(min(np.linalg.norm(x + y), np.linalg.norm(x - y)))


def davis_kahan_check(g, model, tau):
    """End-to-end Theorem 1.3 measurement on one SBM sample: its record.

    X = L(A_tau), Y = L(EA_tau).  The premise asks both second-smallest
    eigenvalues to be simple and delta-separated from the remaining
    eigenvalues of X and Y; with lambda_1 = 0 exact for both and the
    rest of each spectrum above lambda_3, that is

        delta = min(l2x, l2y, l3x - max(l2x, l2y), l3y - max(l2x, l2y)).

    X is the operator detect built, so a check builds L(A_tau) once.
    The record holds detect's ``labels``; ``converged`` (the norm
    solve's); delta and ``gap_valid`` (delta > 1e-12); ||X - Y||
    (``norm_diff``) with the ``norm_steps`` and ``norm_eps`` of its
    solve; the eigenvector ``distance`` and the ``bound`` 2||X - Y|| /
    delta it is held to; ``dk_holds``; X's ``lam2`` and ``lam3``; and
    ``detect_products``, the products by detect's shifted op.
    The bound is only measured when gap_valid and the norm solve
    converged; otherwise it is None and dk_holds vacuously True.  When
    detect itself does not converge, the labels are the signs of its
    best Ritz vector (all +1 without one) and every other field is
    unmeasured: None, or False for converged and gap_valid.
    """
    try:
        det = detect(g, tau)
    except NoConvergence as exc:
        v = (np.asarray(exc.best[1])[:, 0] if exc.best is not None
             else np.ones(g.n))
        return {"labels": _sign_labels(v), "converged": False, "delta": None,
                "gap_valid": False, "norm_diff": None, "norm_steps": None,
                "norm_eps": None, "distance": None, "bound": None,
                "dk_holds": True, "lam2": None, "lam3": None,
                "detect_products": None}
    _, l2y, l3y = expected_laplacian_eigs(model, tau)
    hi = max(det.lam2, l2y)
    delta = float(min(det.lam2, l2y, det.lam3 - hi, l3y - hi))
    gap_valid = delta > 1e-12
    diff = compose_difference(det.laplacian, expected_laplacian(model, tau))
    try:
        norm_diff, norm_steps, norm_eps = spectral_norm(diff)
    except NoConvergence:
        norm_diff = norm_steps = norm_eps = None
    dist = eigvec_distance(det.v2, expected_laplacian_eigvec(model, tau)[0])
    bound = (davis_kahan_bound(norm_diff, delta)
             if gap_valid and norm_diff is not None else None)
    return {"labels": det.labels, "converged": norm_diff is not None,
            "delta": delta, "gap_valid": gap_valid, "norm_diff": norm_diff,
            "norm_steps": norm_steps, "norm_eps": norm_eps, "distance": dist,
            "bound": bound,
            "dk_holds": bound is None or dist <= bound * (1 + 1e-9),
            "lam2": det.lam2, "lam3": det.lam3,
            "detect_products": det.products}
