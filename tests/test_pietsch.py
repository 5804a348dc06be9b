"""Grothendieck-Pietsch weights and submatrix selection.

The rank-one cases have closed forms: for a single-row B the optimal
weights are mu_j = |b_j| / sum|b| and the achieved norm equals the l1
norm, with no sqrt(pi/2) slack.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import svds

from graphconc import (
    PietschWeights,
    VerificationError,
    gp_submatrix,
    gp_weights,
    inf_to_2_norm_exact,
    inf_to_2_norm_lower,
)
from graphconc import pietsch
from graphconc.pietsch import LITTLE_GROTHENDIECK, _col_scale, _top_pair

from conftest import assert_close


def test_weights_simplex_validation():
    with pytest.raises(VerificationError):
        PietschWeights(np.array([0.5, 0.6]), 1.0, True, 1)
    with pytest.raises(VerificationError):
        PietschWeights(np.array([1.0, 0.0]), 1.0, True, 1)


def test_weights_record_their_lower_bound():
    rng = np.random.default_rng(12)
    B = rng.uniform(-1.0, 1.0, size=(8, pietsch.EXACT_LOWER_COLS))
    assert gp_weights(B, max_iter=50).lower_bound == inf_to_2_norm_exact(B)
    wide = rng.uniform(-1.0, 1.0, size=(8, pietsch.EXACT_LOWER_COLS + 2))
    w = gp_weights(wide, max_iter=50)
    assert w.lower_bound <= inf_to_2_norm_exact(wide) * (1 + 1e-12)
    assert w.achieved_norm >= w.lower_bound * (1 - 1e-8)
    assert gp_weights(np.zeros((3, 4))).lower_bound == 0.0


def test_single_column_is_trivial():
    B = np.array([[3.0], [4.0]])
    w = gp_weights(B)
    assert_close(w.mu, [1.0], 1e-15)
    assert w.achieved_norm == pytest.approx(5.0)  # = ||b||_2 = ||B||_{inf->2}


def test_single_row_closed_form():
    B = np.array([[10.0, 1.0, 1.0, 1.0]])
    w = gp_weights(B, max_iter=800)
    # optimum: mu = |b|/sum|b|, achieved = sum|b| = 13 = ||B||_{inf->2}
    assert w.achieved_norm == pytest.approx(13.0, rel=1e-6)
    assert_close(w.mu, np.array([10.0, 1.0, 1.0, 1.0]) / 13.0, 5e-3)
    assert inf_to_2_norm_exact(B) == pytest.approx(13.0)


def test_single_row_submatrix_drops_heavy_column():
    B = np.array([[10.0, 1.0, 1.0, 1.0]])
    w = gp_weights(B, max_iter=800)
    J, cert = gp_submatrix(B, 0.5, weights=w)
    # threshold 1/(0.5*4) = 0.5 rejects only the weight-10 column
    assert list(J) == [1, 2, 3]
    assert cert.n_selected == 3 and cert.size_bound == 2.0
    assert cert.submatrix_norm == pytest.approx(np.sqrt(3.0))
    assert cert.norm_lhs == pytest.approx(np.sqrt(3.0) * np.sqrt(2.0))
    assert cert.ok


def test_equal_columns_keep_everything():
    B = np.tile(np.array([[1.0], [2.0], [-1.0]]), (1, 6))
    w = gp_weights(B)
    assert_close(w.mu, np.full(6, 1.0 / 6.0), 1e-9)
    for delta in (0.25, 0.5):
        J, cert = gp_submatrix(B, delta, weights=w)
        assert list(J) == list(range(6))
        assert cert.ok


def test_zero_matrix():
    w = gp_weights(np.zeros((3, 5)))
    assert w.achieved_norm == 0.0
    J, cert = gp_submatrix(np.zeros((3, 5)), 0.5, weights=w)
    assert list(J) == list(range(5)) and cert.ok


def test_history_is_monotone_best_so_far():
    rng = np.random.default_rng(21)
    B = rng.standard_normal((6, 10))
    w = gp_weights(B, max_iter=200)
    h = np.array(w.history)
    assert np.all(np.diff(h) <= 1e-15)
    assert w.iterations == h.size


def test_left_inequality_and_simplex_invariant():
    rng = np.random.default_rng(22)
    for _ in range(5):
        B = rng.standard_normal((6, 10))
        w = gp_weights(B, max_iter=300)
        assert w.mu.min() > 0.0
        assert w.mu.sum() == pytest.approx(1.0, abs=1e-12)
        exact = inf_to_2_norm_exact(B)
        assert w.achieved_norm >= exact * (1 - 1e-8)
        # mirror descent lands well inside the sqrt(pi/2) = 1.2533 slack
        assert w.achieved_norm <= 1.3 * exact


def test_pigeonhole_every_delta():
    rng = np.random.default_rng(23)
    B = rng.standard_normal((5, 16))
    w = gp_weights(B, max_iter=300)
    for delta in (0.1, 0.25, 0.5, 0.75):
        J, cert = gp_submatrix(B, delta, weights=w)
        assert J.size >= (1 - delta) * 16 - 1e-9
        assert cert.norm_lhs <= cert.achieved_norm * (1 + 1e-8) + 1e-12


def test_gp_submatrix_input_checks():
    B = np.ones((2, 4))
    with pytest.raises(ValueError):
        gp_submatrix(B, 0.0)
    with pytest.raises(ValueError):
        gp_submatrix(B, 1.0)
    with pytest.raises(ValueError):
        gp_weights(np.empty((3, 0)))
    with pytest.raises(ValueError):
        gp_weights(np.ones(3))


def oracle_inputs(shape, dead, seed):
    """A block with one all-zero column, its Gram, scale and a start vector."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal(shape)
    B[:, dead] = 0.0
    k, m = shape
    col_live = np.arange(m) != dead
    mu = rng.dirichlet(np.ones(m))
    s = _col_scale(mu, col_live)
    v0 = rng.standard_normal(m) * col_live
    G = B.T @ B
    lam_max = np.linalg.eigvalsh(s[:, None] * G * s)[-1]
    return B, G if m <= 2 * k else None, s, v0 / np.linalg.norm(v0), lam_max


@pytest.mark.parametrize("shape", [(40, 8), (8, 40)])
def test_top_pair_exact_route(shape):
    # tall blocks solve s G s (m x m), wide ones (B s)(B s)^T (k x k)
    B, G, s, v0, lam_max = oracle_inputs(shape, dead=3, seed=31)
    lam, v = _top_pair(B, G, s, v0)
    assert lam == pytest.approx(lam_max, rel=1e-12)
    assert v[3] == 0.0
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    M = s[:, None] * (B.T @ B) * s
    assert_close(M @ v, lam * v, 1e-10 * lam)


@pytest.mark.parametrize("shape", [(64, 64), (40, 100)])
def test_top_pair_power_route(shape):
    # G products on the square block, B and B^T ones when m > 2k
    B, G, s, v0, lam_max = oracle_inputs(shape, dead=5, seed=32)
    assert (G is None) == (shape[1] > 2 * shape[0])
    lam, v = _top_pair(B, G, s, v0)
    assert 0.0 < lam <= lam_max * (1 + 1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert v[5] == 0.0
    # started from the top eigenvector it stops at lambda_max
    top = np.linalg.eigh(s[:, None] * (B.T @ B) * s)[1][:, -1]
    lam, v = _top_pair(B, G, s, top)
    assert lam == pytest.approx(lam_max, rel=1e-9)
    assert abs(v @ top) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("shape", [(3, 60), (40, 100)])
def test_gp_weights_on_wide_blocks(shape):
    # m > 2k: no Gram; exact route on the 3 x 60 block, two products per
    # power step on the 40 x 100 one
    B = np.random.default_rng(33).standard_normal(shape)
    w = gp_weights(B, max_iter=100)
    lower = inf_to_2_norm_lower(B, trials=8, rng=np.random.default_rng(34))
    assert w.achieved_norm >= lower * (1 - 1e-8)
    assert w.mu.sum() == pytest.approx(1.0, abs=1e-12)


def test_converged_needs_a_full_window():
    # equal columns: the best value is flat from step 1, yet a descent
    # shorter than 51 steps has no 50-step window to judge
    B = np.tile(np.array([[1.0], [2.0], [-1.0]]), (1, 6))
    assert not gp_weights(B, max_iter=3).converged
    assert not gp_weights(B, max_iter=50).converged
    w = gp_weights(B, max_iter=60)
    assert w.iterations == 60 and w.converged


def centred_block():
    """A decompose-like block: centred Bernoulli(8/256), 250 x 256."""
    rng = np.random.default_rng(35)
    return (rng.random((250, 256)) < 8 / 256) - 8 / 256


def test_stop_once_the_constant_is_certified():
    B = centred_block()
    w = gp_weights(B, max_iter=120, stop_ratio=LITTLE_GROTHENDIECK)
    assert w.target_met and w.iterations < 20
    assert w.achieved_norm <= w.target * (1 + 1e-12)
    lower = w.target / LITTLE_GROTHENDIECK
    assert w.achieved_norm >= lower
    # the certified value is f(mu_best) itself
    f = np.linalg.norm(B / np.sqrt(w.mu), 2)
    assert w.achieved_norm == pytest.approx(f, rel=1e-9)
    # without the keyword: no target, the full descent, a smaller f
    full = gp_weights(B, max_iter=120)
    assert full.target is None and not full.target_met
    assert full.iterations == 120
    assert full.achieved_norm <= w.achieved_norm


def test_unreachable_target_changes_nothing():
    # f(mu) >= ||B||_{inf->2} = lower on a 6 x 10 block (exact
    # enumeration), so a target under it is never met.  (At stop_ratio
    # 1 this block stops at step 194: its descent reaches the lower
    # bound to 1e-15, as a k < m block may.)
    B = np.random.default_rng(36).standard_normal((6, 10))
    ref = gp_weights(B, max_iter=200)
    w = gp_weights(B, max_iter=200, stop_ratio=0.99)
    assert w.iterations == 200 and not w.target_met
    assert w.target == pytest.approx(0.99 * inf_to_2_norm_exact(B), rel=1e-15)
    assert np.array_equal(w.mu, ref.mu)
    assert w.achieved_norm == ref.achieved_norm
    assert w.history == ref.history


def test_failed_certifications_leave_the_descent_alone(monkeypatch):
    # every estimate is under a loose target, but each certification is
    # made to fail: the checks run on their own stream (no rng passed),
    # so the power-route descent, the greedy lower bound and the closing
    # re-evaluations draw exactly what they draw without a stop
    B = np.random.default_rng(37).standard_normal((40, 64))
    ref = gp_weights(B, max_iter=30)
    real = pietsch._certified_f
    calls = []

    def failing_check(B, G, mu, col_live, rng=None):
        if rng is None:
            calls.append(1)
            return np.inf
        return real(B, G, mu, col_live, rng)

    monkeypatch.setattr(pietsch, "_certified_f", failing_check)
    w = gp_weights(B, max_iter=30, stop_ratio=10.0)
    assert calls and not w.target_met and w.iterations == 30
    assert np.array_equal(w.mu, ref.mu)
    assert w.achieved_norm == ref.achieved_norm
    assert w.history == ref.history


def test_gp_submatrix_forwards_the_stop():
    B = centred_block()
    J, cert = gp_submatrix(B, 0.25, max_iter=120,
                           stop_ratio=LITTLE_GROTHENDIECK)
    assert cert.ok and cert.target_met
    assert cert.achieved_norm <= cert.target * (1 + 1e-12)
    assert cert.iterations < 20
    _, plain = gp_submatrix(B, 0.25, max_iter=5)
    assert plain.target is None and not plain.target_met


def eigh_exact_route(B, G, s):
    """The exact route of _top_pair as written on np.linalg.eigh: the
    reference the direct dsyevd call must match bit for bit."""
    k, m = B.shape
    if k <= m:
        C = B * s
        lams, U = np.linalg.eigh(C @ C.T)
        z = C.T @ U[:, -1]
        return float(lams[-1]), z / np.sqrt(z @ z)
    lams, V = np.linalg.eigh(s[:, None] * G * s)
    return float(lams[-1]), np.where(s > 0.0, V[:, -1], 0.0)


def test_exact_oracle_matches_eigh_bit_for_bit():
    # both branches: (B s)(B s)^T when k <= m, s G s when m < k
    rng = np.random.default_rng(38)
    for k in range(2, 33):
        for m in range(2, 33):
            B = rng.standard_normal((k, m))
            col_live = np.ones(m, dtype=bool)
            if (k + m) % 3 == 0:
                B[:, rng.integers(m)] = 0.0
                col_live = (B * B).sum(axis=0) > 0.0
            s = _col_scale(rng.dirichlet(np.ones(m)), col_live)
            G = B.T @ B if m <= 2 * k else None
            lam, v = _top_pair(B, G, s, None)
            ref_lam, ref_v = eigh_exact_route(B, G, s)
            assert lam == ref_lam, (k, m)
            assert np.array_equal(v, ref_v), (k, m)


@pytest.mark.parametrize("shape", [(8, 12), (6, 14), (40, 24)])
def test_gp_weights_exact_route_matches_eigh(monkeypatch, shape):
    # the 500-step descents of gp-check's shapes, the exact route on
    # every step, against the same descent on the eigh reference
    B = np.random.default_rng(39).standard_normal(shape)
    B[:, 3] = 0.0
    new = gp_weights(B)
    monkeypatch.setattr(pietsch, "_top_pair",
                        lambda B, G, s, v0: eigh_exact_route(B, G, s))
    ref = gp_weights(B)
    assert new.iterations == ref.iterations == 500
    assert np.array_equal(new.mu, ref.mu)
    assert new.history == ref.history
    assert new.achieved_norm == ref.achieved_norm


@pytest.mark.parametrize("shape,dead", [
    ((40, 12), None), ((8, 30), None), ((120, 100), 7), ((30, 90), 2),
    ((1, 9), None), ((25, 1), None)])
def test_submatrix_norm_matches_dense_svd(shape, dead):
    # tall and wide B_J, dead columns, and single-column J (m = 1)
    rng = np.random.default_rng(40)
    B = rng.standard_normal(shape)
    if dead is not None:
        B[:, dead] = 0.0
    w = gp_weights(B, max_iter=20)
    for delta in (0.25, 0.5):
        J, cert = gp_submatrix(B, delta, weights=w)
        ref = np.linalg.svd(B[:, J], compute_uv=False)[0]
        assert cert.submatrix_norm == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert gp_submatrix(np.zeros((4, 6)), 0.5)[1].submatrix_norm == 0.0


def test_gp_submatrix_on_a_block_without_rows():
    # a decompose pass whose every row fails the filter hands GP a 0 x m
    # block: all weights equal, every column selected, ||B_J|| = 0
    J, cert = gp_submatrix(np.zeros((0, 6)), 0.25)
    assert J.tolist() == list(range(6))
    assert cert.ok and cert.submatrix_norm == 0.0


def test_submatrix_certificate_still_fails_when_weights_fall_short():
    B = np.random.default_rng(41).standard_normal((10, 16))
    w = gp_weights(B, max_iter=20)
    short = PietschWeights(w.mu, 0.5 * w.lower_bound, w.converged,
                           w.iterations)
    with pytest.raises(VerificationError, match="submatrix certificate"):
        gp_submatrix(B, 0.25, weights=short)


def scaled_block(shape, seed):
    """A block with one dead column and random simplex weights."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal(shape)
    B[:, 5] = 0.0
    col_live = (B * B).sum(axis=0) > 0.0
    return B, rng.dirichlet(np.ones(shape[1])), col_live


@pytest.mark.parametrize("shape", [(40, 64), (64, 100), (100, 60),
                                   (250, 256)])
def test_gram_certification_matches_svds(shape):
    # min(k, m) > DENSE_SOLVE_LIMIT: ARPACK on s G s (G formed) and on
    # B s^2 B^T (G not formed), against scipy's svds on B D^{-1/2} and
    # dense LAPACK
    B, mu, col_live = scaled_block(shape, 42)
    gram = pietsch._certified_f(B, B.T @ B, mu, col_live)
    plain = pietsch._certified_f(B, None, mu, col_live)
    C = B * _col_scale(mu, col_live)
    v0 = np.random.default_rng(0).standard_normal(min(shape))
    ref = svds(C, k=1, tol=1e-12, v0=v0, return_singular_vectors=False)[0]
    for got in (gram, plain):
        assert got == pytest.approx(ref, rel=1e-10)
        assert got == pytest.approx(np.linalg.norm(C, 2), rel=1e-10)


@pytest.mark.parametrize("shape,column_gram", [
    # m <= 2k: s G s on the columns; wider: the k x k Gram on the rows;
    # min(k, m) <= 32: exact, by spectral_norm's LAPACK route on B D^{-1/2}
    ((64, 64), True), ((100, 60), True),
    ((40, 100), False), ((40, 24), False), ((8, 12), False),
    ((20, 40), False)])
def test_certification_routes(monkeypatch, shape, column_gram):
    B, _, _ = scaled_block(shape, 43)
    real_norm, real_eigs = pietsch.spectral_norm, pietsch.top_k_eigs
    seen = []

    def norm(op, **kw):
        seen.append("lapack")
        return real_norm(op, **kw)

    def eigs(op, k, mode, **kw):
        assert op.symmetric and (k, mode) == (1, "la")
        seen.append(op.n_rows)
        return real_eigs(op, k, mode, **kw)

    monkeypatch.setattr(pietsch, "spectral_norm", norm)
    monkeypatch.setattr(pietsch, "top_k_eigs", eigs)
    gp_weights(B, max_iter=5)
    k, m = shape
    want = ("lapack" if min(k, m) <= pietsch.DENSE_SOLVE_LIMIT
            else m if column_gram else k)
    assert seen == [want, want]
