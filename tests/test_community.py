"""Spectral clustering on the two-block SBM and Davis-Kahan plumbing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphconc.community
from graphconc import (
    BlockTwo,
    InvalidRates,
    LengthMismatch,
    NoConvergence,
    SparseGraph,
    ZeroGap,
    average_degree,
    davis_kahan_bound,
    davis_kahan_check,
    detect,
    expected_laplacian,
    expected_laplacian_eigs,
    expected_laplacian_eigvec,
    full_spectrum,
    laplacian,
    misclassification,
    sbm_instance,
    tau_shift,
)
from graphconc.community import eigvec_distance
from graphconc.spectral import NORM_TOL

from conftest import MASTER, assert_close


# a davis_kahan_check record: the sbm trial's fields after mis, in order
RECORD_KEYS = ["labels", "converged", "delta", "gap_valid", "norm_diff",
               "norm_steps", "norm_eps", "distance", "bound", "dk_holds",
               "lam2", "lam3"]


def two_cliques(half):
    """Two disjoint complete graphs on [0, half) and [half, 2 half)."""
    blocks = []
    for off in (0, half):
        i, j = np.triu_indices(half, k=1)
        blocks.append((i + off, j + off))
    i = np.concatenate([b[0] for b in blocks])
    j = np.concatenate([b[1] for b in blocks])
    return SparseGraph(2 * half, i, j, np.ones(i.size))


# ---------------------------------------------------------------------------
# containers and scalar helpers


def test_misclassification_refuses_non_pm1_labels():
    # labels are plain arrays: each side must be a vector over {+1, -1}
    for bad in (np.array([1, 0, -1]), np.array([1, 2]), np.ones((2, 2)),
                np.array(1)):
        good = np.ones(np.size(bad))
        with pytest.raises(ValueError, match="vector over"):
            misclassification(bad, good)
        with pytest.raises(ValueError, match="vector over"):
            misclassification(good, bad)


def test_sbm_instance():
    g, truth = sbm_instance(200, 12, 3, MASTER)
    assert g.n == 200 and truth.shape == (200,) and truth.dtype == np.int8
    assert np.all(truth[:100] == 1) and np.all(truth[100:] == -1)
    g2, _ = sbm_instance(200, 12, 3, MASTER)
    assert g == g2
    with pytest.raises(InvalidRates):
        sbm_instance(7, 3, 1, MASTER)


@given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=40),
       st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=40))
def test_misclassification_invariants(a, b):
    if len(a) != len(b):
        with pytest.raises(LengthMismatch):
            misclassification(np.array(a), np.array(b))
        return
    r = misclassification(np.array(a), np.array(b))
    assert 0.0 <= r <= 0.5
    flipped = misclassification(-np.array(a), np.array(b))
    assert r == pytest.approx(flipped, abs=1e-15)  # flip invariant
    assert misclassification(np.array(a), np.array(a)) == 0.0


def test_davis_kahan_bound_scalar():
    assert davis_kahan_bound(0.3, 0.2) == pytest.approx(3.0)
    with pytest.raises(ZeroGap):
        davis_kahan_bound(0.3, 0.0)


def test_eigvec_distance_sign_invariance():
    x = np.array([1.0, 2.0])
    assert eigvec_distance(x, -x) == 0.0
    assert eigvec_distance(x, x) == 0.0
    assert eigvec_distance(x, np.zeros(2)) == pytest.approx(np.linalg.norm(x))


# ---------------------------------------------------------------------------
# closed forms against the dense expected Laplacian


def test_expected_eigs_closed_form_residual():
    model = BlockTwo(200, 20, 4)
    tau = 12.0
    lam = expected_laplacian_eigs(model, tau)
    dense = full_spectrum(expected_laplacian(model, tau).to_dense())
    # spectrum is {0, lam2, lam3 x (n-2)}
    assert abs(dense[0] - lam[0]) <= 1e-10
    assert abs(dense[1] - lam[1]) <= 1e-10
    assert np.abs(dense[2:] - lam[2]).max() <= 1e-10
    v2, gap = expected_laplacian_eigvec(model, tau)
    L = expected_laplacian(model, tau)
    assert np.linalg.norm(L.matvec(v2) - lam[1] * v2) <= 1e-10
    assert gap == pytest.approx(min(lam[1], lam[2] - lam[1]))


def test_expected_eigs_null_has_zero_gap():
    model = BlockTwo(100, 10, 10)
    _, gap = expected_laplacian_eigvec(model, 5.0)
    assert abs(gap) <= 1e-12
    with pytest.raises(TypeError):
        expected_laplacian_eigs("not a model", 1.0)


# ---------------------------------------------------------------------------
# the detector


def test_detect_two_cliques_exact():
    g = two_cliques(20)
    truth = np.concatenate([np.ones(20), -np.ones(20)])
    det = detect(g, tau=average_degree(g))
    assert misclassification(det.labels, truth) == 0.0
    assert det.lam2 < det.lam3


@pytest.mark.parametrize("n,a,b", [(24, 12.0, 2.0), (300, 20.0, 4.0),
                                   (300, 5.0, 5.0)])
def test_detect_matches_dense_eigh(n, a, b):
    # n = 24 solves the shifted op by LAPACK, n = 300 runs ARPACK on it;
    # (5, 5) is the null model, where lambda_2 sits in the bulk
    g, _ = sbm_instance(n, a, b, MASTER)
    tau = average_degree(g)
    det = detect(g, tau)
    L = laplacian(tau_shift(g, tau)).to_dense()
    w = np.linalg.eigvalsh(L)
    assert det.lam2 == pytest.approx(w[1], rel=1e-9)
    assert det.lam3 == pytest.approx(w[2], rel=1e-9)
    q = np.sqrt(g.degrees() + tau)
    q /= np.linalg.norm(q)
    assert abs(det.v2 @ q) <= 1e-8
    assert np.linalg.norm(L @ det.v2 - det.lam2 * det.v2) <= 1e-6
    assert det.labels.dtype == np.int8
    assert np.array_equal(det.labels, np.where(det.v2 >= 0.0, 1, -1))


def test_misclassification_is_exactly_flip_invariant():
    # 2 of 2000 wrong either way; 1 - 0.999 rounds to 0.0010000000000000009
    truth = np.where(np.arange(2000) < 1000, 1, -1)
    est = truth.copy()
    est[[3, 1500]] *= -1
    assert misclassification(est, truth) == 0.001
    assert misclassification(-est, truth) == 0.001


def test_detect_deterministic():
    g, _ = sbm_instance(300, 20, 4, MASTER)
    tau = average_degree(g)
    a = detect(g, tau)
    b = detect(g, tau)
    assert np.array_equal(a.labels, b.labels)


def test_detect_sbm_signal():
    # measured at MASTER: 0 mislabeled vertices out of 400
    g, truth = sbm_instance(400, 25, 4, MASTER)
    det = detect(g, average_degree(g))
    assert misclassification(det.labels, truth) <= 0.05


def test_blocktwo_average_degree_window():
    # E avg degree = 999*30/2000 + 1000*5/2000 = 17.485; measured 17.528
    g, _ = sbm_instance(2000, 30, 5, MASTER)
    assert abs(average_degree(g) - 17.485) <= 0.5


def test_davis_kahan_check_end_to_end():
    g, truth = sbm_instance(400, 25, 4, MASTER)
    model = BlockTwo(400, 25, 4)
    out = davis_kahan_check(g, model, average_degree(g))
    assert list(out) == RECORD_KEYS
    assert out["gap_valid"]
    assert out["converged"] and out["dk_holds"]
    assert out["distance"] <= out["bound"]
    assert out["norm_diff"] > 0.0
    assert misclassification(out["labels"], truth) <= 0.05


def test_davis_kahan_check_builds_the_laplacian_once(monkeypatch):
    # detect's L(A_tau) is the X of ||X - Y||, not a second build of it
    g, _ = sbm_instance(300, 20.0, 4.0, MASTER)
    model = BlockTwo(300, 20.0, 4.0)
    tau = average_degree(g)
    built = []

    def counting(x):
        built.append(x)
        return laplacian(x)

    monkeypatch.setattr(graphconc.community, "laplacian", counting)
    out = davis_kahan_check(g, model, tau)
    assert len(built) == 1
    X = laplacian(tau_shift(g, tau)).to_dense()
    Y = expected_laplacian(model, tau).to_dense()
    assert out["norm_diff"] == pytest.approx(np.linalg.norm(X - Y, 2),
                                             rel=NORM_TOL)


@pytest.mark.parametrize("ritz", [True, False])
def test_davis_kahan_check_detect_failure(monkeypatch, ritz):
    # labels from the converged Ritz vector when there is one, all +1
    # otherwise; nothing else is measured
    n = 200
    g, _ = sbm_instance(n, 25.0, 4.0, MASTER)
    v = np.where(np.arange(n) % 3 == 0, -1.0, 1.0) / np.sqrt(n)

    def no_eigs(*args, **kwargs):
        raise NoConvergence("forced",
                            best=(np.array([1.9]), v[:, None]) if ritz else None)

    monkeypatch.setattr(graphconc.community, "top_k_eigs", no_eigs)
    out = davis_kahan_check(g, BlockTwo(n, 25.0, 4.0), average_degree(g))
    expect = np.where(v >= 0, 1, -1) if ritz else np.ones(n)
    assert out["labels"].dtype == np.int8
    assert np.array_equal(out["labels"], expect)
    assert list(out) == RECORD_KEYS
    assert out["converged"] is False and out["gap_valid"] is False
    assert out["dk_holds"] is True
    for key in ("delta", "norm_diff", "norm_steps", "norm_eps", "distance",
                "bound", "lam2", "lam3"):
        assert out[key] is None
