"""Eigensolvers and norm machinery against dense references.

The iterative routes are validated against LAPACK on desk-scale
matrices; the enumeration norms against brute force on tiny ones.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphconc.spectral
from graphconc import (
    DENSE_SOLVE_LIMIT,
    EntryOutOfRange,
    LinearOp,
    NoConvergence,
    SizeExceeded,
    SparseGraph,
    Uniform,
    WidthExceeded,
    adjacency_shifted_op,
    apply_scheme,
    compose_difference,
    expected_adjacency,
    full_spectrum,
    inf_to_2_norm_exact,
    inf_to_2_norm_lower,
    l1_operator_bound,
    l2_sparsity_bound,
    laplacian,
    sample,
    sample_directed,
    spectral_norm,
    top_k_eigs,
)
from graphconc._seeding import aux_generator
from graphconc.spectral import NORM_TOL

from conftest import assert_close, traced_peak


def sym(rng, n):
    M = rng.standard_normal((n, n))
    return (M + M.T) / 2


def with_spectrum(rng, vals):
    """A symmetric matrix with eigenvalues ``vals`` in a random basis."""
    Q, _ = np.linalg.qr(rng.standard_normal((len(vals), len(vals))))
    M = Q @ np.diag(vals) @ Q.T
    return (M + M.T) / 2


# ---------------------------------------------------------------------------
# spectral_norm


@given(st.integers(0, 2**32 - 1))
def test_spectral_norm_matches_svd(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((11, 7))
    ref = np.linalg.svd(M, compute_uv=False)[0]
    est = spectral_norm(LinearOp.from_dense(M))
    assert abs(est.value - ref) <= 1e-6 * ref
    assert est.steps == 0 and est.eps == 0.0  # the exact LAPACK route


def test_spectral_norm_symmetric_indefinite():
    # lambda_min ~ -lambda_max is the case plain power iteration fumbles;
    # LAPACK below DENSE_SOLVE_LIMIT, Lanczos above it
    M = np.diag([3.0, -2.9, 1.0])
    est = spectral_norm(LinearOp.from_dense(M)).value
    assert est == pytest.approx(3.0, abs=1e-8)
    rng = np.random.default_rng(22)
    op = LinearOp.from_dense(with_spectrum(
        rng, np.concatenate([[5.0, -4.999], rng.uniform(-1.0, 1.0, 98)])))
    assert op.symmetric and op.n_rows > DENSE_SOLVE_LIMIT
    assert spectral_norm(op).value == pytest.approx(5.0, rel=1e-9)


@pytest.mark.parametrize("top", [1.0, -1.0])
def test_spectral_norm_reads_both_ends_of_a_pm_pair(top):
    # the end of larger magnitude wins by 1e-4, either sign: a solver
    # that certifies one eigenvalue of the pair can return the other
    rng = np.random.default_rng(31)
    vals = np.concatenate([[top, -top * (1.0 + 1e-4)],
                           rng.uniform(-0.9, 0.9, 198)])
    op = LinearOp.from_dense(with_spectrum(rng, vals))
    assert op.symmetric and op.n_rows > DENSE_SOLVE_LIMIT
    est = spectral_norm(op)
    assert est.value == pytest.approx(1.0 + 1e-4, rel=NORM_TOL)
    assert est.value <= np.abs(np.linalg.eigvalsh(op.to_dense())).max() * (
        1 + 1e-12)


def test_spectral_norm_zero_and_empty():
    assert spectral_norm(LinearOp.from_dense(np.zeros((4, 4)))).value == 0.0
    assert spectral_norm(LinearOp.from_dense(np.empty((0, 0)))).value == 0.0
    # above the limit: the first step breaks down on beta = 0
    for M in (np.zeros((100, 100)), np.zeros((40, 100))):
        est = spectral_norm(LinearOp.from_dense(M, symmetric=M.shape[0] == 100))
        assert est == (0.0, 1, 0.0)


def test_spectral_norm_rank_one_stops_on_breakdown():
    # K_2 holds the range of a symmetric rank-one op, K_1 that of u v^T
    rng = np.random.default_rng(23)
    u, v = rng.standard_normal(200), rng.standard_normal(150)
    est = spectral_norm(LinearOp.from_dense(-np.outer(u, u)))
    assert est.steps <= 2 and est.eps == 0.0
    assert est.value == pytest.approx(u @ u, rel=1e-12)
    est = spectral_norm(LinearOp.from_dense(np.outer(u, v), symmetric=False))
    assert est.steps <= 2 and est.eps == 0.0
    assert est.value == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v),
                                      rel=1e-12)


def test_spectral_norm_is_a_lower_bound():
    # sigma_max of the extended tridiagonal (bidiagonal) is ||M Q_k||:
    # never above ||M|| but for rounding, on symmetric and rectangular
    # ops, with spread and clustered spectra
    rng = np.random.default_rng(24)
    for i in range(50):
        rows, cols = rng.integers(33, 120, size=2)
        if i % 2:
            M = rng.standard_normal((rows, cols))
            M[:, :cols // 3] *= 1e-3 if i % 4 == 1 else 1.0
        else:
            M = sym(rng, rows) + (4.0 * np.eye(rows) if i % 4 == 0 else 0.0)
        ref = np.linalg.norm(M, 2)
        est = spectral_norm(LinearOp.from_dense(M, symmetric=not i % 2))
        assert est.value <= ref * (1 + 1e-12)
        assert est.value >= ref * (1 - NORM_TOL)
        assert 0.0 < est.eps < 1.0 and est.steps % 10 == 0


def test_kw_eps_is_the_closed_form():
    # 300 Lanczos steps at n = 10^6 bound M^2 by j = 150 steps: eps about
    # 2.3e-3 on ||M||^2, about 1.1e-3 on ||M||
    root = np.log(1.648 * 1e3 / 1e-3) / 299
    assert root ** 2 == pytest.approx(2.29e-3, rel=1e-2)
    assert graphconc.spectral._kw_eps(150, 10 ** 6) == pytest.approx(
        1 - np.sqrt(1 - root ** 2), rel=1e-12)
    assert graphconc.spectral._kw_eps(1, 10 ** 6) == 1.0


def test_spectral_norm_deterministic_seeded():
    rng = np.random.default_rng(12)
    op = LinearOp.from_dense(sym(rng, 60))
    a = spectral_norm(op, rng=aux_generator(5, 0, 1))
    b = spectral_norm(op, rng=aux_generator(5, 0, 1))
    assert a == b and a.steps > 0


def test_spectral_norm_no_convergence_carries_best(monkeypatch):
    # above DENSE_SOLVE_LIMIT, so Lanczos runs, on M or on M^T M; one
    # step cannot see the value settle.  ||M^T M q|| is far above ||M||
    # here, so a best that misses the Gram's square root is caught
    rng = np.random.default_rng(3)
    monkeypatch.setattr(graphconc.spectral, "NORM_MAX_ITER", 1)
    for op in (LinearOp.from_dense(sym(rng, 200)),
               LinearOp.from_dense(rng.standard_normal((200, 150)),
                                   symmetric=False)):
        with pytest.raises(NoConvergence) as exc:
            spectral_norm(op)
        assert 0.0 < exc.value.best <= np.linalg.norm(op.to_dense(), 2)


@pytest.mark.parametrize("shape", [(120, 80), (60, 150)])
def test_spectral_norm_gram_lanczos_rectangular(shape):
    # Lanczos on the Gram of the smaller side, tall and wide: the value
    # is the root of the Gram's, and KW's j is the step count on the
    # smaller side's n
    assert min(shape) > DENSE_SOLVE_LIMIT
    M = np.random.default_rng(21).standard_normal(shape)
    est = spectral_norm(LinearOp.from_dense(M, symmetric=False))
    assert est.value == pytest.approx(np.linalg.norm(M, 2), rel=1e-9)
    assert est.steps > 0 and 0.0 < est.eps < 1.0
    assert est.eps == graphconc.spectral._kw_eps(est.steps, min(shape))


@pytest.mark.parametrize("product", [lambda x: x, lambda x: x[:],
                                     lambda x: x[::-1]],
                         ids=["input", "view", "reversed-view"])
@pytest.mark.parametrize("symmetric", [True, False])
def test_recurrences_copy_a_product_that_is_their_vector(product, symmetric):
    # the closure hands back its input or a view of it (an orthogonal op:
    # it and its Gram have norm 1): Lanczos updates each product, of the
    # op or of its Gram, in place, so it must copy it first and write
    # into no vector it passed
    passed = []

    def closure(x):
        passed.append((x, x.copy()))
        return product(x)

    n = 2 * DENSE_SOLVE_LIMIT
    op = LinearOp(n, n, closure, closure, symmetric=symmetric)
    est = spectral_norm(op)
    assert est.steps > 0
    assert est.value == pytest.approx(1.0, rel=1e-12)
    assert passed and all(np.array_equal(x, x0) for x, x0 in passed)


def old_lanczos(op, q, gram=False):
    """spectral._lanczos as it was written before its step allocated
    only its product, on scipy's LAPACK: the reference the present one
    must match bit for bit.  Each product is copied when it shares
    memory with q or q_prev (np.may_share_memory), dots are taken with
    ``@``, and the stop test and the value call scipy's f2py dstebz and
    dsbevx."""
    from scipy.linalg import lapack

    sp = graphconc.spectral
    cap = sp.NORM_MAX_ITER
    alpha, beta = np.empty(cap), np.empty(cap)
    q_prev, b, last = q, 0.0, None
    tmp = np.empty(q.size)

    def dstebz_one(d, e, i):
        return lapack.dstebz(d, e, 2, 0.0, 0.0, i, i, 0.0, "E")[1][0]

    def value(steps):
        a, e = alpha[:steps], beta[:steps]
        band = np.zeros((3, steps))
        band[2] = a * a + e * e
        band[2, 1:] += e[:-1] * e[:-1]
        band[1, 1:] = e[:-1] * (a[:-1] + a[1:])
        band[0, 2:] = e[:-2] * e[1:-1]
        top = lapack.dsbevx(band, 0.0, 0.0, steps, steps, compute_v=0,
                            range=2)[0][0]
        sigma = np.sqrt(max(top, 0.0))
        return np.sqrt(sigma) if gram else sigma

    for k in range(cap):
        w = op.rmatvec(op.matvec(q)) if gram else op.matvec(q)
        if any(np.may_share_memory(w, x) for x in (q, q_prev)):
            w = w.copy()
        if k:
            w -= np.multiply(q_prev, b, out=tmp)
        a = float(q @ w)
        w -= np.multiply(q, a, out=tmp)
        scale = np.sqrt(a * a + b * b)
        b = np.sqrt(float(w @ w))
        alpha[k], beta[k] = a, b
        steps = k + 1
        if b <= sp._BREAKDOWN * scale:
            return (value(steps), steps, 0.0)
        if steps % sp._NORM_CHECK == 0:
            d, e = alpha[:steps], beta[:steps - 1]
            top = max(-dstebz_one(d, e, 1), dstebz_one(d, e, steps))
            if last is not None and abs(top - last) <= sp._NORM_STOP * top:
                return (value(steps), steps, sp._kw_eps(
                    steps if gram else (steps + 1) // 2, op.n_cols))
            last = top
        w *= 1.0 / b
        q_prev, q = q, w
    raise AssertionError("the reference did not converge")


@pytest.mark.parametrize("chunk", [1 << 15, 96])
def test_lanczos_matches_the_old_recurrence_bit_for_bit(monkeypatch, chunk):
    # a trimmed concentration deviation (symmetric), a directed one
    # (Gram route), a rectangular dense op on its smaller side and an
    # orthogonal op whose closure returns a view of its input; with
    # the step's scaled vectors formed whole, and 96 entries at a time
    monkeypatch.setattr(graphconc.spectral, "_CHUNK", chunk)
    n = 1000
    model = Uniform(n, 3.0 / n)
    g = apply_scheme(sample(model, 1729), "trim", cap=6.0)
    gd = sample_directed(model, 1729)
    M = np.random.default_rng(3).standard_normal((90, 60))
    perm = np.random.default_rng(4).permutation(64)
    inv = np.argsort(perm)
    ops = [compose_difference(adjacency_shifted_op(g),
                              expected_adjacency(model)),
           compose_difference(adjacency_shifted_op(gd),
                              expected_adjacency(model)),
           LinearOp.from_dense(M),
           LinearOp(64, 64, lambda x: x[perm], lambda x: x[inv])]
    for op in ops:
        got = spectral_norm(op)
        if op.n_cols > op.n_rows:
            op = op.T
        start = aux_generator(0x5EED, 0, 1).standard_normal(op.n_cols)
        start /= np.sqrt(start @ start)
        want = old_lanczos(op, start, gram=not op.symmetric)
        assert got.steps > 0 and tuple(got) == want


def test_norm_of_a_trimmed_deviation_holds_two_vectors_and_one_product():
    # the solve keeps q and q_prev, a 2^15-entry scratch block, and a
    # product's vectors: the csr product and Uniform's EA product.  The
    # traced peak at n = 10^5 read 4.73 vectors of n floats, against
    # 5.40 while each step formed b q_prev and a q in an n-vector
    def deviation(n):
        model = Uniform(n, 3.0 / n)
        g = apply_scheme(sample(model, 1729), "trim", cap=6.0)
        return compose_difference(adjacency_shifted_op(g),
                                  expected_adjacency(model))

    spectral_norm(deviation(1000))  # scipy's LAPACK loads outside the trace
    n = 10 ** 5
    est, peak = traced_peak(spectral_norm, deviation(n))
    assert est.steps > 0 and peak <= 5.0 * 8 * n


# ---------------------------------------------------------------------------
# top_k_eigs


def test_lanczos_top5_vs_dense():
    rng = np.random.default_rng(100)
    M = sym(rng, 300)
    vals, vecs = top_k_eigs(LinearOp.from_dense(M), 5, mode="la", tol=1e-10,
                            max_dim=250)
    ref = np.linalg.eigvalsh(M)[-5:][::-1]
    assert_close(vals, ref, 1e-8, "top-5 la")
    for c in range(5):
        r = M @ vecs[:, c] - vals[c] * vecs[:, c]
        assert np.linalg.norm(r) <= 1e-8 * max(1.0, abs(vals[c]))
    # pairwise orthonormal
    assert_close(vecs.T @ vecs, np.eye(5), 1e-8)


def test_lanczos_modes():
    # n = 5 takes the LAPACK path, n = 100 the Lanczos one
    rng = np.random.default_rng(8)
    for bulk in ([-1.0, 0.5], rng.uniform(-1.0, 1.0, 97)):
        vals = np.concatenate([[-9.0, 2.0, 7.0], bulk])
        op = LinearOp.from_dense(with_spectrum(rng, vals))
        la, _ = top_k_eigs(op, 2, mode="la", tol=1e-12)
        assert_close(la, [7.0, 2.0], 1e-9)
        sa, _ = top_k_eigs(op, 2, mode="sa", tol=1e-12)
        assert_close(sa, [-9.0, min(bulk)], 1e-9)
        lm, vecs = top_k_eigs(op, 2, mode="lm", tol=1e-12)
        assert_close(lm, [-9.0, 7.0], 1e-9)
        assert_close(vecs.T @ vecs, np.eye(2), 1e-9)


def test_lanczos_multiplicity_plateau():
    # K5 adjacency: eigenvalues 4 (once) and -1 (four times), where a
    # Krylov space collapses after two steps; below DENSE_SOLVE_LIMIT the
    # LAPACK path answers
    d = np.full((5, 5), 1.0) - np.eye(5)
    vals, _ = top_k_eigs(LinearOp.from_dense(d), 2, mode="lm", tol=1e-10)
    assert vals[0] == pytest.approx(4.0, abs=1e-9)
    assert vals[1] == pytest.approx(-1.0, abs=1e-9)


def counted(op):
    """op with a count of its products, as (op, count)."""
    calls = []

    def mv(x):
        calls.append(1)
        return op.matvec(x)

    return LinearOp(op.n_rows, op.n_cols, mv, symmetric=True), calls


def test_lanczos_resolves_a_close_pair_across_restarts():
    # the null model's lambda_2/lambda_3 gap, 2e-4, at n = 2000 on a basis
    # of 20 vectors: the two top values come out within tol all the same
    rng = np.random.default_rng(12)
    top = [1.5, 1.5 - 2e-4]
    d = np.concatenate([top, rng.uniform(-1.5, 1.5 - 4e-4, 1998)])
    op, calls = counted(LinearOp(2000, 2000, lambda x: d * x,
                                 symmetric=True))
    vals, vecs = top_k_eigs(op, 2, mode="la", tol=1e-6, max_dim=20)
    assert np.all(np.abs(vals - top) <= 1e-6)
    assert len(calls) > 20  # restarted
    assert abs(vecs[0, 0]) == pytest.approx(1.0, abs=1e-5)
    assert abs(vecs[1, 1]) == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("mode", ["la", "sa", "lm"])
def test_lanczos_modes_match_dense_eigh(mode):
    rng = np.random.default_rng(13)
    M = sym(rng, 300)
    w, S = np.linalg.eigh(M)
    order = {"la": -w, "sa": w, "lm": -np.abs(w)}[mode]
    want = np.argsort(order)[:4]
    vals, vecs = top_k_eigs(LinearOp.from_dense(M), 4, mode=mode, tol=1e-10)
    assert_close(vals, w[want], 1e-9, f"mode {mode}")
    assert_close(np.abs(vecs.T @ S[:, want]), np.eye(4), 1e-7)


def test_lanczos_product_cap_raises_with_the_best_pairs(monkeypatch):
    # 25 products: one cycle of 20 and one restart of 10, not enough
    rng = np.random.default_rng(12)
    d = np.concatenate([[1.5, 1.5 - 2e-4], rng.uniform(-1.5, 1.4, 1998)])
    op, calls = counted(LinearOp(2000, 2000, lambda x: d * x,
                                 symmetric=True))
    monkeypatch.setattr(graphconc.spectral, "EIGS_MAX_PRODUCTS", 25)
    with pytest.raises(NoConvergence) as exc:
        top_k_eigs(op, 2, mode="la", tol=1e-10, max_dim=20)
    assert len(calls) == 30
    vals, vecs = exc.value.best
    assert vals.shape == (2,) and vecs.shape == (2000, 2)
    assert vals[0] >= vals[1] and vals[0] <= 1.5 * (1 + 1e-12)
    assert_close(vecs.T @ vecs, np.eye(2), 1e-10)
    for t, v in zip(vals, vecs.T):  # Ritz pairs of the operator itself
        assert t == pytest.approx(v @ (d * v), rel=1e-12)


@pytest.mark.parametrize("d", [np.r_[5.0, 5.0, 1.0, np.zeros(37)],
                               np.full(40, 3.0)])
def test_lanczos_finds_a_repeated_top_eigenvalue_twice(d):
    # few distinct values: a start's Krylov space is invariant after 3
    # steps (3 I: after one) and holds the top value once, so a fresh
    # vector must find its second copy
    op, calls = counted(LinearOp(40, 40, lambda x: d * x, symmetric=True))
    vals, vecs = top_k_eigs(op, 2)
    assert vals == pytest.approx([d[0], d[0]], abs=1e-12)
    assert_close(vecs.T @ vecs, np.eye(2), 1e-12)
    assert_close(d[:, None] * vecs, d[0] * vecs, 1e-12)
    assert len(calls) == 22  # one cycle of 20, then the residual check


@pytest.mark.xfail(strict=True, reason="a repeated eigenvalue whose copies "
                   "the start's Krylov space does not separate is returned "
                   "once (top_k_eigs' docstring)")
def test_lanczos_finds_both_copies_on_the_60_cycle():
    # the 60-cycle's adjacency has 2 once, then 2 cos(2 pi j / 60) twice
    # each: its 31 distinct values outnumber the basis, so no breakdown
    # draws a fresh vector, and the start's Krylov space holds one copy
    # of 2 cos(2 pi / 60); today k = 3 gives (2, 1.98904, 1.95630)
    n = 60
    i = np.arange(n - 1)
    ring = SparseGraph(n, np.r_[i, 0], np.r_[i + 1, n - 1], None,
                       directed=False)
    vals, _ = top_k_eigs(adjacency_shifted_op(ring), 3)
    second = 2.0 * np.cos(2.0 * np.pi / n)
    assert vals == pytest.approx([2.0, second, second], abs=1e-9)


def test_lanczos_input_checks():
    op = LinearOp.from_dense(np.ones((3, 2)))
    with pytest.raises(ValueError):
        top_k_eigs(op, 1)
    sym_op = LinearOp.from_dense(np.eye(4))
    with pytest.raises(ValueError):
        top_k_eigs(sym_op, 5)
    with pytest.raises(ValueError):
        top_k_eigs(sym_op, 1, mode="xx")


# ---------------------------------------------------------------------------
# full_spectrum


def test_full_spectrum_k5():
    A = np.ones((5, 5)) - np.eye(5)
    vals = full_spectrum(A)
    assert_close(vals, [-1.0, -1.0, -1.0, -1.0, 4.0], 1e-12)


def test_full_spectrum_accepts_linear_op():
    g = SparseGraph.from_dense(np.ones((3, 3)) - np.eye(3))
    vals = full_spectrum(laplacian(g))
    assert_close(vals, [0.0, 1.5, 1.5], 1e-12)


def test_full_spectrum_guards():
    with pytest.raises(SizeExceeded):
        full_spectrum(np.zeros((2049, 2049)))
    with pytest.raises(ValueError):
        full_spectrum(np.ones((3, 2)))
    with pytest.raises(ValueError):
        full_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_full_spectrum_trace_identity():
    rng = np.random.default_rng(11)
    M = sym(rng, 80)
    vals = full_spectrum(M)
    assert abs(vals.sum() - np.trace(M)) <= 1e-10 * 80 * np.abs(vals).max()


# ---------------------------------------------------------------------------
# infinity -> 2 norms


def brute_inf_to_2(B):
    m = B.shape[1]
    best = 0.0
    for bits in range(1 << m):
        x = np.array([1.0 if bits >> k & 1 else -1.0 for k in range(m)])
        best = max(best, float(np.linalg.norm(B @ x)))
    return best


def test_inf_to_2_exact_examples():
    assert inf_to_2_norm_exact(np.ones((2, 3))) == pytest.approx(3 * np.sqrt(2))
    assert inf_to_2_norm_exact(np.eye(3)) == pytest.approx(np.sqrt(3))
    col = np.array([[1.0], [2.0], [-2.0]])
    assert inf_to_2_norm_exact(col) == pytest.approx(3.0)
    assert inf_to_2_norm_exact(np.empty((0, 3))) == 0.0


@given(st.integers(0, 2**32 - 1))
def test_inf_to_2_exact_vs_brute_force(seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((4, int(rng.integers(1, 7))))
    assert inf_to_2_norm_exact(B) == pytest.approx(brute_inf_to_2(B), rel=1e-12)


def gray_code_inf_to_2(B):
    """The Gray-code walk inf_to_2_norm_exact replaced: one sign flip and
    a rank-one update of Bx per step, x ~ -x symmetry halving the walk."""
    k, m = B.shape
    x = np.ones(m)
    v = B @ x
    best = float(v @ v)
    for g in range(1, 1 << (m - 1)) if m > 1 else []:
        flip = (g & -g).bit_length() - 1  # lowest set bit = Gray-code flip
        x[flip] = -x[flip]
        v += (2.0 * x[flip]) * B[:, flip]
        best = max(best, float(v @ v))
    return float(np.sqrt(best))


@pytest.mark.parametrize("rows", [1, 8, 300, 5000])
def test_inf_to_2_exact_matches_gray_code_walk(rows):
    # P = X_lo B_lo^T tabulates 2^12 sign patterns at 1 and 8 rows, 2^7
    # at 300 and 2^3 at 5000; the signs of the other columns loop
    rng = np.random.default_rng(rows)
    for m in range(1, 17 if rows <= 300 else 11):
        B = rng.uniform(-1.0, 1.0, (rows, m))
        assert inf_to_2_norm_exact(B) == pytest.approx(gray_code_inf_to_2(B),
                                                       rel=1e-12)


def test_inf_to_2_width_guard():
    with pytest.raises(WidthExceeded):
        inf_to_2_norm_exact(np.ones((2, 25)))


def test_inf_to_2_sandwich():
    # ||B|| <= ||B||_{inf->2} <= sqrt(m) ||B||
    rng = np.random.default_rng(13)
    for _ in range(10):
        B = rng.standard_normal((6, 8))
        spec = np.linalg.svd(B, compute_uv=False)[0]
        val = inf_to_2_norm_exact(B)
        assert spec * (1 - 1e-12) <= val <= np.sqrt(8) * spec * (1 + 1e-12)


def test_inf_to_2_lower_bound():
    rng = np.random.default_rng(14)
    for _ in range(10):
        B = rng.standard_normal((5, 9))
        exact = inf_to_2_norm_exact(B)
        low = inf_to_2_norm_lower(B, rng=aux_generator(0, 0, 3))
        assert low <= exact * (1 + 1e-12)
        assert low >= 0.5 * exact  # greedy from random starts gets close


def serial_greedy_lower(B, trials, rng):
    """The one-start-at-a-time greedy: corr = B^T v recomputed per flip."""
    k, m = B.shape
    col_sq = (B * B).sum(axis=0)
    best = 0.0
    for _ in range(trials):
        x = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        v = B @ x
        improved = True
        while improved:
            improved = False
            corr = B.T @ v
            gains = 4.0 * (col_sq - x * corr)
            jbest = int(np.argmax(gains))
            if gains[jbest] > 1e-12:
                v -= (2.0 * x[jbest]) * B[:, jbest]
                x[jbest] = -x[jbest]
                improved = True
        best = max(best, float(np.linalg.norm(v)))
    return best


def centred_bernoulli(rng, k, m, p):
    return (rng.random((k, m)) < p) - p


@pytest.mark.parametrize("make", [
    lambda rng: rng.standard_normal((30, 40)),
    lambda rng: rng.standard_normal((12, 90)),
    # dyadic p, as in decompose at n = 2^j, d = 8: G and corr are exact
    lambda rng: centred_bernoulli(rng, 250, 256, 8 / 256),
    lambda rng: centred_bernoulli(rng, 120, 100, 1 / 16),
])
def test_inf_to_2_lower_batched_matches_serial(make):
    # the starts run batched on G = B^T B, given or formed inside; same
    # stream, same flips, same value as one start at a time
    B = make(np.random.default_rng(15))
    ref = serial_greedy_lower(B, 8, np.random.default_rng(16))
    for gram in (None, B.T @ B):
        low = inf_to_2_norm_lower(B, rng=np.random.default_rng(16),
                                  gram=gram)
        assert low == pytest.approx(ref, rel=1e-12)
    rng = np.random.default_rng(17)
    stacked = rng.random((3, 7))
    rng = np.random.default_rng(17)
    assert np.array_equal(stacked, [rng.random(7) for _ in range(3)])


def fancy_index_greedy_lower(B, trials, rng, live_sizes):
    """The batched greedy with fancy-index copies of X and corr on every
    flip, the reference for the copy-free loop; ``live_sizes`` collects
    the number of live starts before each flip."""
    col_sq = (B * B).sum(axis=0)
    G = B.T @ B
    X = np.where(rng.random((trials, B.shape[1])) < 0.5, -1.0, 1.0)
    corr = X @ G
    live = np.arange(trials)
    while live.size:
        live_sizes.append(live.size)
        gains = 4.0 * (col_sq - X[live] * corr[live])
        jbest = np.argmax(gains, axis=1)
        up = gains[np.arange(live.size), jbest] > 1e-12
        live, jbest = live[up], jbest[up]
        xj = X[live, jbest]
        corr[live] -= (2.0 * xj)[:, None] * G[jbest]
        X[live, jbest] = -xj
    return float(np.sqrt(((B @ X.T) ** 2).sum(axis=0).max()))


@pytest.mark.parametrize("make", [
    lambda rng: rng.standard_normal((30, 40)),
    lambda rng: rng.standard_normal((12, 90)),
    lambda rng: rng.standard_normal((200, 60)),
    lambda rng: centred_bernoulli(rng, 250, 256, 8 / 256),
    lambda rng: centred_bernoulli(rng, 250, 256, 0.1),
])
def test_inf_to_2_lower_matches_fancy_index_loop(make):
    # tall and wide blocks whose starts stop at different flips, so the
    # loop runs with all starts live and with some stopped
    B = make(np.random.default_rng(20))
    for seed in range(3):
        sizes = []
        ref = fancy_index_greedy_lower(B, 8, np.random.default_rng(seed),
                                       sizes)
        assert any(0 < n < 8 for n in sizes) and sizes[0] == 8
        for gram in (None, B.T @ B):
            low = inf_to_2_norm_lower(B, gram=gram,
                                      rng=np.random.default_rng(seed))
            assert low == ref


def test_inf_to_2_lower_batched_on_tied_gains():
    # at p = 0.1 the gains take few distinct values and tie often;
    # rounding, which differs between the serial and the batched
    # updates, picks among the tied flips, so the local optima may
    # differ (by at most 1.8 %, in either direction, on 120 centred
    # blocks at p = 0.05 and 0.1); both stay valid lower bounds
    rng = np.random.default_rng(18)
    for _ in range(4):
        B = centred_bernoulli(rng, 250, 256, 0.1)
        ref = serial_greedy_lower(B, 8, np.random.default_rng(19))
        low = inf_to_2_norm_lower(B, rng=np.random.default_rng(19))
        assert low == pytest.approx(ref, rel=0.02)
    B = centred_bernoulli(rng, 40, 14, 0.1)
    assert inf_to_2_norm_lower(B) <= inf_to_2_norm_exact(B) * (1 + 1e-12)


def test_both_lower_bounds_draw_one_sign_matrix():
    # LOWER_STARTS rows of rng.random(m) mapped to +/-1, drawn once for
    # the greedy and the sign-power bound alike, so a stream stands at
    # the same place after either
    m = 13
    X = graphconc.spectral._sign_starts(np.random.default_rng(9), m)
    U = np.random.default_rng(9).random((graphconc.spectral.LOWER_STARTS, m))
    assert X.tobytes() == np.where(U < 0.5, -1.0, 1.0).tobytes()
    B = np.random.default_rng(10).standard_normal((20, m))
    after = []
    for bound in (inf_to_2_norm_lower,
                  graphconc.spectral.inf_to_2_norm_power):
        rng = np.random.default_rng(9)
        bound(B, rng=rng)
        after.append(rng.random())
    assert after[0] == after[1]


@pytest.mark.parametrize("make", [
    lambda rng: rng.standard_normal((16, 12)),
    lambda rng: rng.uniform(-1.0, 1.0, (9, 16)),
    lambda rng: rng.standard_normal((3, 5)),
    lambda rng: centred_bernoulli(rng, 16, 16, 8 / 16),
    lambda rng: centred_bernoulli(rng, 14, 16, 1 / 16),
    lambda rng: centred_bernoulli(rng, 16, 10, 0.1),
])
def test_inf_to_2_power_is_a_lower_bound(make):
    # on B and on B^T, each at most 16 columns: the sign-power value
    # never passes the enumerated norm, and never falls below the best
    # of its starts (a step never lowers ||B x||)
    rng = np.random.default_rng(21)
    for _ in range(10):
        B = make(rng)
        for M in (B, np.ascontiguousarray(B.T)):
            starts = np.where(np.random.default_rng(22).random(
                (8, M.shape[1])) < 0.5, -1.0, 1.0)
            low = graphconc.spectral.inf_to_2_norm_power(
                M, rng=np.random.default_rng(22))
            assert low <= inf_to_2_norm_exact(M) * (1 + 1e-12)
            assert low >= (np.linalg.norm(M @ starts.T, axis=0).max()
                           * (1 - 1e-12))


# ---------------------------------------------------------------------------
# cheap norm bounds


def test_l1_bound_examples():
    B = np.ones((2, 3))
    # max row l1 = 3, max col l1 = 2; rank one means the bound is tight
    assert l1_operator_bound(B) == pytest.approx(np.sqrt(6))
    assert np.linalg.svd(B, compute_uv=False)[0] == pytest.approx(np.sqrt(6))
    assert l1_operator_bound(np.empty((0, 4))) == 0.0


@given(st.integers(0, 2**32 - 1))
def test_l1_bound_dominates_spectral(seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
    spec = np.linalg.svd(B, compute_uv=False)[0]
    assert l1_operator_bound(B) >= spec * (1 - 1e-12)


@given(st.integers(0, 2**32 - 1))
def test_l2_sparsity_bound_dominates_spectral(seed):
    rng = np.random.default_rng(seed)
    B = (rng.random((7, 7)) < 0.4) * rng.random((7, 7))
    spec = np.linalg.svd(B, compute_uv=False)[0]
    assert l2_sparsity_bound(B) >= spec * (1 - 1e-12)


def test_l2_sparsity_bound_rejects_out_of_range():
    with pytest.raises(EntryOutOfRange):
        l2_sparsity_bound(np.array([[1.5]]))
    with pytest.raises(EntryOutOfRange):
        l2_sparsity_bound(np.array([[-0.1]]))


def test_bounds_accept_sparse_input():
    g = SparseGraph.from_dense(
        np.triu((np.random.default_rng(4).random((20, 20)) < 0.3), 1) * 1.0)
    A = g.to_csr()
    dense = g.to_dense()
    assert l1_operator_bound(A) == pytest.approx(l1_operator_bound(dense))
    assert l2_sparsity_bound(A) == pytest.approx(l2_sparsity_bound(dense))
