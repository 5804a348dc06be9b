"""Grothendieck-Pietsch weights and submatrix selection.

The rank-one cases have closed forms: for a single-row B the optimal
weights are mu_j = |b_j| / sum|b| and the achieved norm equals the l1
norm, with no sqrt(pi/2) slack.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import svds

import graphconc._scipy
from graphconc import (
    PietschWeights,
    VerificationError,
    gp_submatrix,
    gp_weights,
    inf_to_2_norm_exact,
    inf_to_2_norm_lower,
)
from graphconc import pietsch
from graphconc.spectral import inf_to_2_norm_power
from graphconc._seeding import aux_generator
from graphconc.cli import run_command
from graphconc.pietsch import LITTLE_GROTHENDIECK, _col_scale, _oracle

from conftest import MASTER, assert_close


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
    assert w.achieved >= w.lower_bound * (1 - 1e-8)
    assert gp_weights(np.zeros((3, 4))).lower_bound == 0.0


def test_single_column_is_trivial():
    B = np.array([[3.0], [4.0]])
    w = gp_weights(B)
    assert_close(w.mu, [1.0], 1e-15)
    assert w.achieved == pytest.approx(5.0)  # = ||b||_2 = ||B||_{inf->2}


def test_single_row_closed_form():
    B = np.array([[10.0, 1.0, 1.0, 1.0]])
    w = gp_weights(B, max_iter=800)
    # optimum: mu = |b|/sum|b|, achieved = sum|b| = 13 = ||B||_{inf->2}
    assert w.achieved == pytest.approx(13.0, rel=1e-6)
    assert_close(w.mu, np.array([10.0, 1.0, 1.0, 1.0]) / 13.0, 5e-3)
    assert inf_to_2_norm_exact(B) == pytest.approx(13.0)


def test_single_row_submatrix_drops_heavy_column():
    B = np.array([[10.0, 1.0, 1.0, 1.0]])
    w = gp_weights(B, max_iter=800)
    J, cert = gp_submatrix(B, 0.5, weights=w)
    # threshold 1/(0.5*4) = 0.5 rejects only the weight-10 column
    assert list(J) == [1, 2, 3]
    assert cert.selected == 3
    # the proved bound t on ||B_J|| = sqrt(3): achieved's slack over
    # sqrt(delta m) = sqrt(2)
    assert cert.submatrix_bound == (
        (w.achieved * (1 + 1e-8) + 1e-12) / np.sqrt(2.0))
    assert np.sqrt(3.0) < cert.submatrix_bound
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
    assert w.achieved == 0.0
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
        assert w.achieved >= exact * (1 - 1e-8)
        # mirror descent lands well inside the sqrt(pi/2) = 1.2533 slack
        assert w.achieved <= 1.3 * exact


def test_pigeonhole_every_delta():
    rng = np.random.default_rng(23)
    B = rng.standard_normal((5, 16))
    w = gp_weights(B, max_iter=300)
    for delta in (0.1, 0.25, 0.5, 0.75):
        J, cert = gp_submatrix(B, delta, weights=w)
        assert J.size >= (1 - delta) * 16 - 1e-9
        lhs = np.linalg.norm(B[:, J], 2) * np.sqrt(delta * 16)
        assert lhs <= cert.achieved * (1 + 1e-8) + 1e-12


def test_gp_submatrix_input_checks():
    B = np.ones((2, 4))
    with pytest.raises(ValueError):
        gp_submatrix(B, 0.0)
    with pytest.raises(ValueError):
        gp_submatrix(B, 1.0)
    for gp in (gp_weights, lambda B: gp_submatrix(B, 0.5)):
        with pytest.raises(ValueError, match="at least one column"):
            gp(np.empty((3, 0)))
        with pytest.raises(ValueError, match="must be a matrix"):
            gp(np.ones(3))


def oracle_inputs(shape, dead, seed):
    """A block with one all-zero column, its Gram, the oracle of its
    descent, weights, their scale and a start vector."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal(shape)
    B[:, dead] = 0.0
    m = shape[1]
    col_live = np.arange(m) != dead
    mu = rng.dirichlet(np.ones(m))
    s = _col_scale(mu, col_live)
    v0 = rng.standard_normal(m) * col_live
    G = B.T @ B
    lam_max = np.linalg.eigvalsh(s[:, None] * G * s)[-1]
    return (B, G, _oracle(B, G, col_live), mu, s, v0 / np.linalg.norm(v0),
            lam_max)


@pytest.mark.parametrize("shape", [(40, 8), (8, 40)])
def test_top_pair_exact_route(shape):
    # tall blocks solve s G s (m x m), wide ones (B s)(B s)^T (k x k)
    B, G, top_pair, mu, s, v0, lam_max = oracle_inputs(shape, dead=3, seed=31)
    lam, v = top_pair(mu, v0)
    assert lam == pytest.approx(lam_max, rel=1e-12)
    assert v[3] == 0.0
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    M = s[:, None] * (B.T @ B) * s
    assert_close(M @ v, lam * v, 1e-10 * lam)


@pytest.mark.parametrize("shape", [(64, 64), (40, 100)])
def test_top_pair_lanczos_route(shape):
    # LANCZOS_STEPS products by G from a random start, on the square and
    # the wide block alike: the top Ritz pair, lambda from below
    B, G, top_pair, mu, s, v0, lam_max = oracle_inputs(shape, dead=5, seed=32)
    blind = _oracle(np.full(shape, np.nan), G, s > 0.0)  # B is not read
    lam, v = top_pair(mu, v0)
    blind_lam, blind_v = blind(mu, v0)
    assert blind_lam == lam and np.array_equal(blind_v, v)
    assert 0.0 < lam <= lam_max * (1 + 1e-12)
    assert lam == pytest.approx(lam_max, rel=1e-10)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert v[5] == 0.0
    # started from the top eigenvector, the space is invariant at once
    top = np.linalg.eigh(s[:, None] * (B.T @ B) * s)[1][:, -1]
    lam, v = top_pair(mu, top)
    assert lam == pytest.approx(lam_max, rel=1e-12)
    assert abs(v @ top) == pytest.approx(1.0, abs=1e-12)


def weights_fields(w):
    return (w.mu.tobytes(), w.achieved, w.converged, w.iterations,
            w.history, w.lower_bound)


@pytest.mark.parametrize("block", ["gp-check", "20x40", "decompose"])
def test_gp_results_ignore_memory_layout(block):
    # C- and Fortran-ordered copies of one matrix: the same weights and
    # certificate, bit for bit, whatever order a caller's block is in
    rng = np.random.default_rng(35)
    kwargs = {}
    if block == "gp-check":
        B = rng.uniform(-1.0, 1.0, size=(8, 12))
    elif block == "20x40":
        B = rng.uniform(-1.0, 1.0, size=(20, 40))
    else:  # a centred first-round block at n = 256, d = 8, as decompose runs it
        B = (rng.random((250, 256)) < 8 / 256) - 8 / 256
        kwargs = {"max_iter": 120}
    C, F = np.ascontiguousarray(B), np.asfortranarray(B)
    assert F.flags.f_contiguous and not F.flags.c_contiguous
    assert (weights_fields(gp_weights(C, **kwargs))
            == weights_fields(gp_weights(F, **kwargs)))
    J_c, cert_c = gp_submatrix(C, 0.25, **kwargs)
    J_f, cert_f = gp_submatrix(F, 0.25, **kwargs)
    assert np.array_equal(J_c, J_f) and cert_c == cert_f


@pytest.mark.parametrize("shape", [(3, 60), (40, 100)])
def test_gp_weights_on_wide_blocks(shape):
    # m > 2k: exact route on the 3 x 60 block, one G product per power
    # step on the 40 x 100 one
    B = np.random.default_rng(33).standard_normal(shape)
    w = gp_weights(B, max_iter=100)
    lower = inf_to_2_norm_lower(B, rng=np.random.default_rng(34))
    assert w.achieved >= lower * (1 - 1e-8)
    assert w.mu.sum() == pytest.approx(1.0, abs=1e-12)


def test_one_gram_serves_the_bound_and_the_oracle(monkeypatch):
    # a wide block too: G = B^T B is formed once per descent and that one
    # matrix goes to the greedy lower bound and to the oracle.  The
    # uniform route forms one G for the lower bound and its check; a
    # block that fails the check descends on that G, left as it was,
    # and the descent route's check gets the Gram of B_J's smaller side
    grams, copies = [], []
    real_lower, real_oracle = pietsch.inf_to_2_norm_lower, pietsch._oracle
    real_below = pietsch._norm_below

    def lower(B, gram=None, **kw):
        grams.append(gram)
        copies.append(gram.copy())
        return real_lower(B, gram=gram, **kw)

    def oracle(B, G, col_live):
        grams.append(G)
        return real_oracle(B, G, col_live)

    def below(G, t):
        grams.append(G)
        copies.append(G.copy())
        return real_below(G, t)

    monkeypatch.setattr(pietsch, "inf_to_2_norm_lower", lower)
    monkeypatch.setattr(pietsch, "_oracle", oracle)
    monkeypatch.setattr(pietsch, "_norm_below", below)
    B = np.random.default_rng(33).standard_normal((40, 100))
    gp_weights(B, max_iter=5)
    assert len(grams) == 2 and grams[0] is not None and grams[1] is grams[0]
    assert np.array_equal(copies[0], B.T @ B)

    grams.clear()
    copies.clear()
    J, cert = gp_submatrix(B, 0.25, max_iter=5)
    assert cert.route == "uniform" and J.size == 100
    assert len(grams) == 2 and grams[1] is grams[0]
    assert np.array_equal(copies[0], B.T @ B)
    assert np.array_equal(copies[1], B.T @ B)  # untouched until the check

    grams.clear()
    copies.clear()
    B = heavy_columns_block()
    J, cert = gp_submatrix(B, 0.25, max_iter=120)
    assert cert.route == "descent" and J.size == 61
    # one G for the bound, the check and the oracle, restored bit for
    # bit after the failed check
    assert len(grams) == 4 and grams[2] is grams[1] is grams[0]
    assert np.array_equal(copies[0], B.T @ B)
    assert np.array_equal(grams[0], B.T @ B)
    assert np.array_equal(copies[2], B[:, J] @ B[:, J].T)  # 40 x 40


def test_converged_needs_a_full_window():
    # equal columns: the best value is flat from step 1, yet a descent
    # shorter than 51 steps has no 50-step window to judge; the first
    # full window passes the test and ends the descent
    B = np.tile(np.array([[1.0], [2.0], [-1.0]]), (1, 6))
    for cap in (3, 50):
        w = gp_weights(B, max_iter=cap)
        assert w.iterations == cap and not w.converged
    w = gp_weights(B)
    assert w.iterations == 51 and w.converged


def stall_test(history, t):
    """The window test of gp_weights on the best values of steps 1..t."""
    w, tol = pietsch._CONVERGED_WINDOW, pietsch._CONVERGED_TOL
    return (t > w and history[t - 1 - w] - history[t - 1]
            <= tol * max(history[t - 1], 1e-30))


@pytest.mark.parametrize("shape", [(8, 12), (100, 90), (80, 200)])
def test_the_stall_stop_is_a_truncation(shape):
    # the exact route and the power route on G, on a tall and on a wide
    # block: the descent ends at the first step that passes the window
    # test, and ending it there by the cap gives the same result
    B = np.random.default_rng(42).uniform(-1.0, 1.0, shape)
    w = gp_weights(B)
    assert w.converged and w.iterations < 500
    assert stall_test(w.history, w.iterations)
    assert not any(stall_test(w.history, t) for t in range(1, w.iterations))
    cut = gp_weights(B, max_iter=w.iterations)
    assert cut.converged and cut.iterations == w.iterations
    assert np.array_equal(cut.mu, w.mu)
    assert cut.achieved == w.achieved
    assert cut.history == w.history


def centred_block():
    """A decompose-like block: centred Bernoulli(8/256), 250 x 256."""
    rng = np.random.default_rng(35)
    return (rng.random((250, 256)) < 8 / 256) - 8 / 256


def heavy_columns_block():
    """40 x 64, three unit columns over small noise: the low stable rank
    that fails the uniform check, and a descent that rejects columns
    0..2."""
    B = 0.05 * np.random.default_rng(44).standard_normal((40, 64))
    B[:, :3] = 1.0
    return B


def test_a_passing_block_takes_the_uniform_route(monkeypatch):
    # a decompose-like block passes ||B|| sqrt(m/4) <= sqrt(pi/2) lower at
    # uniform weights: every column, no descent, no f(mu); target keeps
    # the bits of sqrt(pi/2) times the descent's own lower bound, drawn
    # from the descent's stream after its start vector
    B = centred_block()
    lower = gp_weights(B, max_iter=1).lower_bound
    rng = aux_generator(pietsch._DEFAULT_GP_SEED, 0, 4)
    rng.standard_normal(256)
    assert lower == inf_to_2_norm_lower(B, rng=rng)

    def no_descent(*args, **kwargs):
        raise AssertionError("a descent ran")

    monkeypatch.setattr(pietsch, "_descend", no_descent)
    J, cert = gp_submatrix(B, 0.25, max_iter=120)
    assert J.tolist() == list(range(256))
    assert cert.route == "uniform" and cert.ok and cert.target_met
    assert cert.iterations == 0 and cert.selected == 256
    assert cert.achieved is None and cert.achieved_eps is None
    assert cert.converged is None
    assert cert.target == LITTLE_GROTHENDIECK * lower
    assert cert.submatrix_bound == (
        (cert.target * (1 + 1e-8) + 1e-12) / np.sqrt(64.0))
    assert np.linalg.norm(B, 2) < cert.submatrix_bound


def test_a_failing_block_takes_the_descent(monkeypatch):
    # heavy columns fail the uniform check: gp_submatrix runs the
    # descent gp-check runs, with the caller's max_iter, going on from
    # the check's Gram and draws, and selects and certifies J from its
    # weights exactly as with those weights
    B = heavy_columns_block()
    assert (np.linalg.norm(B, 2) * np.sqrt(64 / 4)
            > LITTLE_GROTHENDIECK * inf_to_2_norm_lower(B))
    w = gp_weights(B, max_iter=120)
    calls = []
    real = pietsch._descend

    def counting(B, start, max_iter):
        calls.append((start is not None, max_iter))
        return real(B, start, max_iter)

    monkeypatch.setattr(pietsch, "_descend", counting)
    J, cert = gp_submatrix(B, 0.25, max_iter=120)
    assert calls == [(True, 120)]
    J_w, cert_w = gp_submatrix(B, 0.25, weights=w)
    assert J.tolist() == J_w.tolist() == list(range(3, 64))
    assert cert.route == cert_w.route == "descent"
    assert cert.iterations == w.iterations > 0
    assert cert.achieved == w.achieved
    assert cert.submatrix_bound == cert_w.submatrix_bound
    assert cert.target == LITTLE_GROTHENDIECK * w.lower_bound
    assert cert.target_met == (w.achieved <= cert.target)
    assert cert_w.target is None and not cert_w.target_met
    # one step leaves f above the target: the certificate still holds
    _, short = gp_submatrix(B, 0.25, max_iter=1)
    assert short.ok and short.iterations == 1
    assert short.achieved > short.target and not short.target_met


def test_one_decision_proves_both_uniform_certificates(monkeypatch):
    # the block and its transpose: each side's target is sqrt(pi/2)
    # times the sign-power bound on a C-ordered block of its own
    # orientation, drawn from the descent's stream after its start
    # vector; one dpotrf proves ||B|| below both sides' t, each side
    # keeps its own t, and neither the greedy bound nor a descent runs
    def refuse(*args, **kwargs):
        raise AssertionError("a Gram-based bound or a descent ran")

    monkeypatch.setattr(pietsch, "_descend", refuse)
    monkeypatch.setattr(pietsch, "inf_to_2_norm_lower", refuse)
    B = centred_block()
    (J, cols), (I, rows) = pietsch.gp_submatrix_both(B, 0.25)
    assert J.tolist() == list(range(256)) and I.tolist() == list(range(250))
    for M, cert in ((B, cols), (np.ascontiguousarray(B.T), rows)):
        m = M.shape[1]
        rng = aux_generator(pietsch._DEFAULT_GP_SEED, 0, 4)
        rng.standard_normal(m)
        assert cert.target == LITTLE_GROTHENDIECK * inf_to_2_norm_power(
            M, rng=rng)
        assert (cert.route, cert.target_from) == ("uniform", "sign-power")
        assert cert.target_met and cert.ok and cert.selected == m
        assert cert.iterations == 0 and cert.achieved is None
        assert cert.submatrix_bound == (
            (cert.target * (1 + 1e-8) + 1e-12) / np.sqrt(m / 4))
        assert np.linalg.norm(B, 2) < cert.submatrix_bound
    # B^T handed over gives the same two certificates, exchanged
    (_, rows_t), (_, cols_t) = pietsch.gp_submatrix_both(
        np.ascontiguousarray(B.T), 0.25)
    assert (cols_t, rows_t) == (cols, rows)
    # up to EXACT_LOWER_COLS columns a side enumerates its bound
    small = np.random.default_rng(36).uniform(-1.0, 1.0, (12, 9))
    (_, c), (_, r) = pietsch.gp_submatrix_both(small, 0.25)
    assert (c.target_from, r.target_from) == ("exact", "exact")
    assert c.target == LITTLE_GROTHENDIECK * inf_to_2_norm_exact(small)
    assert r.target == LITTLE_GROTHENDIECK * inf_to_2_norm_exact(small.T)


def test_a_failing_decision_goes_on_from_its_gram(monkeypatch):
    # the heavy columns fail the check at the smaller t: the column
    # side's certificate is then gp_submatrix's field for field, its
    # greedy bound, uniform check and descent all on the Gram the
    # decision formed, and the row side is left to the caller
    B = heavy_columns_block()
    want = gp_submatrix(B, 0.25, max_iter=120)
    grams, checked = [], []
    real_lower, real_below = pietsch.inf_to_2_norm_lower, pietsch._norm_below
    real_oracle = pietsch._oracle

    def lower(M, gram=None, **kw):
        grams.append(gram)
        return real_lower(M, gram=gram, **kw)

    def below(G, t):
        checked.append(G)
        return real_below(G, t)

    def oracle(M, G, col_live):
        grams.append(G)
        return real_oracle(M, G, col_live)

    monkeypatch.setattr(pietsch, "inf_to_2_norm_lower", lower)
    monkeypatch.setattr(pietsch, "_norm_below", below)
    monkeypatch.setattr(pietsch, "_oracle", oracle)
    (J, cols), rows = pietsch.gp_submatrix_both(B, 0.25, max_iter=120)
    assert rows is None
    assert J.tolist() == want[0].tolist() and cols == want[1]
    assert cols.route == "descent" and cols.target_from == "greedy"
    # one Gram: the decision's, then the greedy bound's, the uniform
    # check's and the oracle's
    assert len(grams) == 2 and grams[0] is checked[0] is checked[1]
    assert grams[1] is grams[0]
    with pytest.raises(ValueError, match="0 < delta < 1"):
        pietsch.gp_submatrix_both(B, 1.0)


@pytest.mark.parametrize("n", [5, 40, 300, 600])
def test_a_failed_norm_check_leaves_the_gram_as_it_was(n):
    # dpotrf stops part way and writes over G's lower triangle; G comes
    # back bit for bit, across mirror blocks of _MIRROR_ROWS rows too,
    # and a check that holds still decides as before on it
    B = np.random.default_rng(n).standard_normal((n + 7, n))
    for G in (B.T @ B, B[:, :n // 2] @ B[:, :n // 2].T):
        want = G.copy()
        norm = np.sqrt(np.linalg.eigvalsh(want)[-1])
        assert not pietsch._norm_below(G, 0.5 * norm)
        assert np.array_equal(G, want)
        assert pietsch._norm_below(G, 1.01 * norm)


def test_achieved_eps_bounds_f_from_above():
    # Lanczos on the 250 x 256 block's Gram: the closing measurement keeps
    # its Kuczynski-Wozniakowski eps, and value / (1 - eps) is at least
    # the dense f(mu)
    B = centred_block()
    w = gp_weights(B, max_iter=120)
    assert 0.0 < w.achieved_eps < 1.0
    f = np.linalg.norm(B / np.sqrt(w.mu), 2)
    assert w.achieved / (1.0 - w.achieved_eps) >= f
    _, cert = gp_submatrix(B, 0.25, weights=w)
    assert cert.achieved_eps == w.achieved_eps
    # the exact route measures f(mu) by LAPACK: no eps
    small = np.random.default_rng(36).standard_normal((8, 12))
    assert gp_weights(small).achieved_eps == 0.0


def eigh_exact_route(B, G, s):
    """The exact route of _oracle as written on np.linalg.eigh: the
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
            mu = rng.dirichlet(np.ones(m))
            s = _col_scale(mu, col_live)
            G = B.T @ B
            lam, v = _oracle(B, G, col_live)(mu, None)
            ref_lam, ref_v = eigh_exact_route(B, G, s)
            assert lam == ref_lam, (k, m)
            assert np.array_equal(v, ref_v), (k, m)


@pytest.mark.parametrize("shape", [(8, 12), (6, 14), (40, 24)])
def test_gp_weights_exact_route_matches_eigh(monkeypatch, shape):
    # the default descents of gp-check's shapes, the exact route on
    # every step, against the same descent on the eigh reference; each
    # runs past the stall test's first window, with column 3 dead and
    # with every column live
    def eigh_oracle(B, G, col_live):
        return lambda mu, v0: eigh_exact_route(B, G, _col_scale(mu, col_live))

    for dead in (3, None):
        B = np.random.default_rng(39).standard_normal(shape)
        if dead is not None:
            B[:, dead] = 0.0
        new = gp_weights(B)
        with monkeypatch.context() as patch:
            patch.setattr(pietsch, "_oracle", eigh_oracle)
            ref = gp_weights(B)
        assert new.iterations == ref.iterations > pietsch._CONVERGED_WINDOW
        assert np.array_equal(new.mu, ref.mu)
        assert new.history == ref.history
        assert new.achieved == ref.achieved


@pytest.mark.parametrize("shape,dead", [
    ((40, 12), None), ((8, 30), None), ((120, 100), 7), ((30, 90), 2),
    ((1, 9), None), ((25, 1), None)])
def test_submatrix_norm_matches_dense_svd(shape, dead):
    # the check decides ||B_J|| < t by Cholesky, and the decision matches
    # the dense SVD's ||B_J||: it passes at t = ||B_J|| (1 + 1e-8) and
    # fails at t = ||B_J|| (1 - 1e-6).  Tall and wide B_J, dead columns,
    # J a subset or every column, single-column J (m = 1); on both
    # Grams of B_J, as when G = B^T B of a wide block is reused
    rng = np.random.default_rng(40)
    B = rng.standard_normal(shape)
    if dead is not None:
        B[:, dead] = 0.0
    m = shape[1]
    w = gp_weights(B, max_iter=20)
    # every column at delta = 1/4, a subset at 0.9 (except when m = 1)
    for delta in (0.25, 0.5, 0.9):
        J, _ = gp_submatrix(B, delta, weights=w)
        BJ = B[:, J]
        norm = np.linalg.svd(BJ, compute_uv=False)[0]
        for factor, passes in ((1 + 1e-8, True), (1 - 1e-6, False)):
            t = norm * factor
            for gram in (BJ.T @ BJ, BJ @ BJ.T):
                assert pietsch._norm_below(gram, t) == passes
            # weights whose achieved norm puts the check's bound at t
            achieved = (t * np.sqrt(delta * m) - 1e-12) / (1 + 1e-8)
            at = PietschWeights(w.mu, achieved, w.converged, w.iterations)
            if passes:
                J_t, cert = gp_submatrix(B, delta, weights=at)
                assert np.array_equal(J_t, J) and cert.ok
                assert cert.submatrix_bound == pytest.approx(t, rel=1e-14)
            else:
                with pytest.raises(VerificationError,
                                   match="submatrix certificate"):
                    gp_submatrix(B, delta, weights=at)
    zero = gp_submatrix(np.zeros((4, 6)), 0.5)[1]
    assert zero.ok and zero.submatrix_bound == 1e-12 / np.sqrt(3.0)


def test_gp_submatrix_on_a_block_without_rows():
    # a decompose pass whose every row fails the filter hands GP a 0 x m
    # block: all weights equal, every column selected, ||B_J|| = 0
    J, cert = gp_submatrix(np.zeros((0, 6)), 0.25)
    assert J.tolist() == list(range(6))
    assert cert.ok and cert.submatrix_bound == 1e-12 / np.sqrt(1.5)


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
    # min(k, m) > DENSE_SOLVE_LIMIT: Lanczos on the Gram of B D^{-1/2}
    # (applied, never formed), against scipy's svds on the same matrix
    # and dense LAPACK
    B, mu, col_live = scaled_block(shape, 42)
    got = pietsch._certified_f(B, mu, col_live,
                               np.random.default_rng(1)).value
    C = B * _col_scale(mu, col_live)
    v0 = np.random.default_rng(0).standard_normal(min(shape))
    ref = svds(C, k=1, tol=1e-12, v0=v0, return_singular_vectors=False)[0]
    assert got == pytest.approx(ref, rel=1e-10)
    assert got == pytest.approx(np.linalg.norm(C, 2), rel=1e-10)


def no_arpack():
    raise AssertionError("ARPACK was loaded")


@pytest.mark.parametrize("shape,dead", [
    # Lanczos when min(k, m) > DENSE_SOLVE_LIMIT, LAPACK otherwise;
    # the first two blocks have a dead column, which s zeroes
    ((64, 64), True), ((100, 60), True),
    ((40, 100), False), ((40, 24), False), ((8, 12), False),
    ((20, 40), False)])
def test_certification_routes(monkeypatch, shape, dead):
    # every certification is one spectral_norm call on B s, whatever
    # the shape; ARPACK is never loaded
    B = np.random.default_rng(43).standard_normal(shape)
    if dead:
        B[:, 5] = 0.0
    real_norm = pietsch.spectral_norm
    seen = []

    def norm(op, **kw):
        est = real_norm(op, **kw)
        seen.append((op.shape, est))
        return est

    monkeypatch.setattr(pietsch, "spectral_norm", norm)
    monkeypatch.setattr(graphconc._scipy, "sparse_linalg", no_arpack)
    w = gp_weights(B, max_iter=5)
    exact = min(shape) <= pietsch.DENSE_SOLVE_LIMIT
    # the closing re-evaluations of the best and of the last iterate
    assert len(seen) == 2
    for op_shape, est in seen:
        assert op_shape == shape
        assert (est.steps == 0) == exact
    assert w.achieved == min(est.value for _, est in seen)
    if dead:
        C = B * _col_scale(w.mu, B.any(axis=0))
        assert w.achieved == pytest.approx(np.linalg.norm(C, 2),
                                                rel=1e-10)


def test_gp_and_decompose_run_without_arpack(monkeypatch, tmp_path):
    # after the certifications moved to spectral_norm, only
    # community.detect needs scipy.sparse.linalg
    monkeypatch.setattr(graphconc._scipy, "sparse_linalg", no_arpack)
    for B in (centred_block(), heavy_columns_block()):
        J, cert = gp_submatrix(B, 0.25, max_iter=120)
        assert cert.ok and J.size >= 0.75 * B.shape[1]
    rep = run_command("decompose", {"n": 64, "d": 8.0, "r": 3.0,
                                    "gp_iters": 120, "write_files": False},
                      MASTER, str(tmp_path / "dec"))
    assert rep.flags["structural_all"] and not rep.summary["errors"]


def old_descent(B, max_iter=500):
    """``_descend`` as it was written before its step worked in its own
    buffers: every expression of the mu update as it stood, a new array
    per operation.  Returns the fields gp_weights reports."""
    m = B.shape[1]
    col_live = np.einsum("ij,ij->j", B, B) > 0.0
    mu = np.full(m, 1.0 / m)
    G = B.T @ B
    rng, v, lower, _ = pietsch._descent_start(B, G)
    v[~col_live] = 0.0
    v /= np.linalg.norm(v)
    top_pair = _oracle(B, G, col_live)
    best_mu, best_f, history, converged = mu.copy(), np.inf, [], False
    window, tol = pietsch._CONVERGED_WINDOW, pietsch._CONVERGED_TOL
    for t in range(1, max_iter + 1):
        lam, v = top_pair(mu, v)
        f = np.sqrt(max(lam, 0.0))
        if f < best_f:
            best_f = f
            best_mu = mu.copy()
        history.append(best_f)
        converged = bool(t > window and history[-1 - window] - history[-1]
                         <= tol * max(history[-1], 1e-30))
        if converged:
            break
        g = -lam * (v * v) / mu
        gmax = -g.min()
        if gmax == 0.0:
            break
        mu = mu * np.exp(-(1.0 / np.sqrt(t)) * (g / gmax))
        mu /= mu.sum()
        mu = np.maximum(mu, pietsch._MU_FLOOR)
        mu /= mu.sum()
    achieved = pietsch._certified_f(B, best_mu, col_live, rng)
    final = pietsch._certified_f(B, mu, col_live, rng)
    if final.value < achieved.value:
        achieved, best_mu = final, mu.copy()
    return (best_mu.tobytes(), float(achieved.value), converged,
            len(history), tuple(history), float(lower))


def test_descent_mu_update_matches_the_old_one_on_ac6_instances():
    # AC6's hundred 8 x 12 instances at the suite's seed: the in-place
    # update gives the weights, values and histories of the old one,
    # bit for bit
    for i in range(100):
        B = aux_generator(MASTER, i, 3).uniform(-1.0, 1.0, size=(8, 12))
        assert weights_fields(gp_weights(B)) == old_descent(B), i
