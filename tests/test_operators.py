"""LinearOp plumbing: algebraic identities against dense references."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphconc.community
from graphconc import (
    BlockTwo,
    DimensionMismatch,
    LinearOp,
    SparseGraph,
    Uniform,
    adjacency_shifted_op,
    compose_difference,
    detect,
    expected_adjacency,
    expected_laplacian,
    laplacian,
    sample,
    sample_directed,
    sbm_instance,
    tau_shift,
)
from graphconc.regularize import _normalized_laplacian, _shifted

from conftest import MASTER, assert_close


def random_op(rng, rows, cols):
    M = rng.standard_normal((rows, cols))
    return M, LinearOp.from_dense(M)


@given(st.integers(0, 2**32 - 1))
def test_matvec_linearity(seed):
    rng = np.random.default_rng(seed)
    M, op = random_op(rng, 7, 5)
    x, y = rng.standard_normal(5), rng.standard_normal(5)
    a, b = rng.standard_normal(2)
    lhs = op.matvec(a * x + b * y)
    rhs = a * op.matvec(x) + b * op.matvec(y)
    scale = max(1.0, np.abs(lhs).max())
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


@given(st.integers(0, 2**32 - 1))
def test_symmetric_ops_self_adjoint(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((6, 6))
    op = LinearOp.from_dense(M + M.T)
    assert op.symmetric
    x, y = rng.standard_normal(6), rng.standard_normal(6)
    lhs, rhs = op.matvec(x) @ y, x @ op.matvec(y)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_shape_checks():
    op = LinearOp.from_dense(np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        op.matvec(np.ones(3))
    with pytest.raises(DimensionMismatch):
        op.rmatvec(np.ones(2))
    with pytest.raises(DimensionMismatch):
        LinearOp(3, 2, lambda x: x, symmetric=True)
    with pytest.raises(DimensionMismatch):
        compose_difference(op, LinearOp.from_dense(np.ones((2, 2))))
    with pytest.raises(DimensionMismatch, match="no rmatvec"):
        LinearOp(3, 2, lambda x: np.full(3, x.sum())).rmatvec(np.ones(3))


def test_transpose_and_dense_roundtrip():
    rng = np.random.default_rng(0)
    M, op = random_op(rng, 4, 7)
    assert_close(op.to_dense(), M, 0.0)
    assert_close(op.T.to_dense(), M.T, 0.0)


def test_combinators_match_dense():
    rng = np.random.default_rng(1)
    A, opa = random_op(rng, 5, 5)
    B, opb = random_op(rng, 5, 5)
    diff = compose_difference(opa, opb)
    assert_close(diff.to_dense(), A - B, 1e-13)
    assert_close(diff.T.to_dense(), (A - B).T, 1e-13)
    sym = compose_difference(LinearOp.from_dense(A + A.T),
                             LinearOp.from_dense(B + B.T))
    assert sym.symmetric and not diff.symmetric


def test_adjacency_ops_match_dense():
    g = sample(Uniform(30, 0.2), MASTER)
    A = g.to_dense()
    sh = tau_shift(g, 6.0)
    assert_close(adjacency_shifted_op(sh).to_dense(), A + 0.2, 1e-14)
    assert_close(adjacency_shifted_op(g).to_dense(), A, 0.0)
    assert adjacency_shifted_op(g).symmetric
    # a directed graph's transpose multiplies by A^T, shifted or not
    gd = sample_directed(Uniform(30, 0.2), MASTER)
    Ad = gd.to_dense()
    for x, ref in ((gd, Ad), (tau_shift(gd, 6.0), Ad + 0.2)):
        op = adjacency_shifted_op(x)
        assert not op.symmetric
        assert_close(op.to_dense(), ref, 1e-14)
        assert_close(op.T.to_dense(), ref.T, 1e-14)


# ---------------------------------------------------------------------------
# in-place products, each pinned bit for bit to the expression it replaced


def vectors(n, count=4, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            for _ in range(count)]


# closures of every kind a product may be: a new array, the input
# itself, a view of it, and a float32 result
PRODUCTS = {
    "new": lambda x: 2.5 * x[::-1],
    "input": lambda x: x,
    "view": lambda x: x[:],
    "float32": lambda x: (x * 0.5).astype(np.float32),
}


@pytest.mark.parametrize("kind", PRODUCTS)
def test_compose_difference_is_the_old_expression(kind):
    # amv(x) - bmv(x), for every kind of a's product, into a's vector
    # when it is a's own; the input is never written
    amv, n = PRODUCTS[kind], 50
    b = Uniform(n, 0.3).ea_op()
    for op in (compose_difference(LinearOp(n, n, amv, amv), b),
               compose_difference(LinearOp(n, n, amv, amv, symmetric=True),
                                  b)):
        for x in vectors(n):
            x0 = x.copy()
            want = amv(x0.copy()) - b._matvec(x0.copy())
            assert op.matvec(x).tobytes() == want.tobytes()
            assert op.rmatvec(x).tobytes() == want.tobytes()
            assert np.array_equal(x, x0)


def test_ea_products_are_the_old_expressions():
    # Uniform's p (sum(x) - x) and BlockTwo's block sums less a x, as
    # they were written, on odd and even n
    for n in (7, 100, 1001):
        p = 3.0 / n
        for x in vectors(n):
            assert (Uniform(n, p).ea_op().matvec(x).tobytes()
                    == (p * (x.sum() - x)).tobytes())
    for n, a, b in ((2, 1.0, 0.5), (100, 12.0, 4.0), (1000, 30.0, 5.0)):
        h, an, bn = n // 2, a / n, b / n
        for x in vectors(n):
            s0, s1 = x[:h].sum(), x[h:].sum()
            old = np.empty(n)
            old[:h] = an * s0 + bn * s1
            old[h:] = bn * s0 + an * s1
            old = old - an * x
            got = BlockTwo(n, a, b).ea_op().matvec(x)
            assert got.tobytes() == old.tobytes()


@pytest.mark.parametrize("kind", PRODUCTS)
def test_laplacian_and_shift_products_are_the_old_expressions(kind):
    # v - inv_sqrt * product(inv_sqrt * v) and product(v) + c * sum(v),
    # whatever the product hands back; the op's own input vector and the
    # caller's v are never returned nor written
    product, n = PRODUCTS[kind], 40
    d = np.random.default_rng(8).uniform(0.5, 4.0, n)
    inv_sqrt = 1.0 / np.sqrt(d)
    op = _normalized_laplacian(product, d)
    shifted = _shifted(product, 0.125)
    for v in vectors(n):
        v0 = v.copy()
        old = v0 - inv_sqrt * product(inv_sqrt * v0)
        assert op.matvec(v).tobytes() == old.tobytes()
        assert np.array_equal(v, v0)
        assert (shifted(v).tobytes()
                == (product(v0.copy()) + 0.125 * v0.sum()).tobytes())
        assert np.array_equal(v, v0)


def test_deviation_ops_of_the_package_are_the_old_expressions():
    # the concentration and laplacian deviations as cli builds them
    g = sample(Uniform(300, 0.02), MASTER)
    model = Uniform(300, 0.02)
    A, ea = adjacency_shifted_op(g), expected_adjacency(model)
    L, EL = laplacian(tau_shift(g, 3.0)), expected_laplacian(model, 3.0)
    for x in vectors(300):
        assert (compose_difference(A, ea).matvec(x).tobytes()
                == (A.matvec(x) - ea.matvec(x)).tobytes())
        assert (compose_difference(L, EL).matvec(x).tobytes()
                == (L.matvec(x) - EL.matvec(x)).tobytes())


def test_detect_shifted_product_is_the_old_expression(monkeypatch):
    # 2 x - L x - 3 q (q^T x) as detect wrote it, on the op ARPACK gets
    caught = []
    real = graphconc.community.top_k_eigs

    def catch(op, *args, **kwargs):
        caught.append(op)
        return real(op, *args, **kwargs)

    monkeypatch.setattr(graphconc.community, "top_k_eigs", catch)
    g, _ = sbm_instance(200, 20.0, 4.0, MASTER)
    tau = 2.0
    det = detect(g, tau)
    q = np.sqrt(tau_shift(g, tau).degrees())
    q /= np.linalg.norm(q)
    for x in vectors(200):
        x0 = x.copy()
        old = 2.0 * x0 - det.laplacian.matvec(x0) - 3.0 * q * (q @ x0)
        assert caught[0].matvec(x).tobytes() == old.tobytes()
        assert np.array_equal(x, x0)
