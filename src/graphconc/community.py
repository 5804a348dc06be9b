"""Regularized spectral clustering on the balanced two-block SBM.

The detector builds L(A_tau), extracts the eigenvector of the second
smallest eigenvalue, and thresholds its sign.  On the expected matrix
this vector is exactly block-constant (+1/sqrt(n) on one community,
-1/sqrt(n) on the other); the Davis-Kahan bound 2||X - Y|| / delta
controls how far the sample eigenvector can rotate away from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._seeding import aux_generator
from .errors import InvalidRates, LengthMismatch, NoConvergence, ZeroGap
from .models import BlockTwo, sample
from .operators import LinearOp, compose_difference
from .regularize import expected_laplacian, laplacian, tau_shift
from .spectral import spectral_norm, top_k_eigs

_DETECT_SEED = 0xC0DE  # fixed eigensolver seed; detect is deterministic
_DETECT_TOL = 1e-6  # ARPACK residual tol of detect's two eigenpairs


@dataclass(frozen=True)
class CommunityLabels:
    """Vertex labels in {+1, -1}."""

    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int8)
        if lab.ndim != 1:
            raise ValueError("labels must be a vector")
        if lab.size and not np.all(np.abs(lab) == 1):
            raise ValueError("labels must take values in {+1, -1}")
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)

    @property
    def n(self):
        return self.labels.size

    def __len__(self):
        return self.labels.size


def _as_pm1(x):
    if isinstance(x, CommunityLabels):
        return x.labels
    lab = np.asarray(x)
    if lab.ndim != 1 or (lab.size and not np.all(np.abs(lab) == 1)):
        raise ValueError("labels must be a vector over {+1, -1}")
    return lab.astype(np.int8)


def sbm_instance(n, a, b, seed, stream=0):
    """A sample of BlockTwo(n, a, b) plus the balanced ground truth."""
    if n % 2:
        raise InvalidRates("the balanced two-block model needs even n")
    model = BlockTwo(n, a, b)
    g = sample(model, seed, stream)
    return g, CommunityLabels(model.labels())


@dataclass(frozen=True)
class DetectionDetail:
    """Eigen data behind a detect() call: v2, the bottom of spec(L) and
    the operator L(A_tau) itself."""

    v2: np.ndarray
    lam2: float
    lam3: float
    tau: float
    laplacian: LinearOp | None = field(default=None, repr=False,
                                       compare=False)

    def __post_init__(self):
        v = np.asarray(self.v2, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "v2", v)


def detect(g, tau, details=False):
    """Community labels from the sign of v2(L(A_tau)).

    L's kernel vector q = D^{1/2}1 / ||D^{1/2}1|| is exact, so ARPACK
    Lanczos runs on M = 2I - L - 3qq^T, a rank-one Wielandt shift
    (Wilkinson 1965, ch. 9): q's eigenvalue moves to -1, below the
    [0, 2] that the rest of 2I - L occupies, and the top two Ritz pairs
    of M are (2 - lambda_2, v_2) and (2 - lambda_3, v_3), with v_2 and
    v_3 orthogonal to q.  Zero entries of v_2 map to +1.  NoConvergence
    propagates (the null model pushes lambda_2 into the bulk; callers
    that want a best-effort answer can use exc.best).
    """
    L = laplacian(tau_shift(g, tau))  # refuses zero min degree at tau == 0
    q = np.sqrt(g.degrees() + tau)
    q /= np.linalg.norm(q)
    M = LinearOp(g.n, g.n,
                 lambda x: 2.0 * x - L.matvec(x) - 3.0 * q * (q @ x),
                 symmetric=True)
    vals, vecs = top_k_eigs(M, 2, mode="la", tol=_DETECT_TOL,
                            rng=aux_generator(_DETECT_SEED, 0, 0))
    v2 = vecs[:, 0]
    labels = CommunityLabels(np.where(v2 >= 0.0, 1, -1))
    if not details:
        return labels
    detail = DetectionDetail(v2=v2, lam2=float(2.0 - vals[0]),
                             lam3=float(2.0 - vals[1]), tau=float(tau),
                             laplacian=L)
    return labels, detail


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
    """End-to-end Theorem 1.3 measurement on one SBM sample.

    X = L(A_tau), Y = L(EA_tau).  The premise asks both second-smallest
    eigenvalues to be simple and delta-separated from the remaining
    eigenvalues of X and Y; with lambda_1 = 0 exact for both and the
    rest of each spectrum above lambda_3, that is

        delta = min(l2x, l2y, l3x - max(l2x, l2y), l3y - max(l2x, l2y)).

    X is the operator detect built (``DetectionDetail.laplacian``), so a
    check builds L(A_tau) once.  Returns a dict with the measured delta,
    ||X - Y|| (``norm_diff``, with the steps and eps of its solve), both
    sides of the inequality and a gap_valid flag; the bound is only
    asserted by callers when gap_valid.  NoConvergence from detect
    propagates; a norm solve that does not converge leaves norm_diff
    None, the bound infinite and holds vacuously True, so the detect
    labels survive.
    """
    labels, det = detect(g, tau, details=True)
    _, l2y, l3y = expected_laplacian_eigs(model, tau)
    l2x, l3x = det.lam2, det.lam3
    hi = max(l2x, l2y)
    delta = min(l2x, l2y, l3x - hi, l3y - hi)
    gap_valid = bool(delta > 1e-12)
    diff = compose_difference(det.laplacian, expected_laplacian(model, tau))
    try:
        norm_diff, norm_steps, norm_eps = spectral_norm(diff)
    except NoConvergence:
        norm_diff = norm_steps = norm_eps = None
    v2y, _ = expected_laplacian_eigvec(model, tau)
    dist = eigvec_distance(det.v2, v2y)
    out = {
        "labels": labels,
        "lam_x": (0.0, l2x, l3x),
        "lam_y": (0.0, l2y, l3y),
        "delta": float(delta),
        "gap_valid": gap_valid,
        "norm_diff": norm_diff,
        "norm_steps": norm_steps,
        "norm_eps": norm_eps,
        "distance": dist,
        "bound": (davis_kahan_bound(norm_diff, delta)
                  if gap_valid and norm_diff is not None else np.inf),
    }
    out["holds"] = bool(dist <= out["bound"] * (1 + 1e-9))
    return out
