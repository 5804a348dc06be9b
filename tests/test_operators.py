"""LinearOp plumbing: algebraic identities against dense references."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphconc import (
    DimensionMismatch,
    LinearOp,
    SparseGraph,
    Uniform,
    adjacency_shifted_op,
    compose_difference,
    identity_op,
    op_combine,
    restrict,
    sample,
    spectral_norm,
    tau_shift,
)

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
        op_combine(op, LinearOp.from_dense(np.ones((2, 2))))


def test_transpose_and_dense_roundtrip():
    rng = np.random.default_rng(0)
    M, op = random_op(rng, 4, 7)
    assert_close(op.to_dense(), M, 0.0)
    assert_close(op.T.to_dense(), M.T, 0.0)


def test_combinators_match_dense():
    rng = np.random.default_rng(1)
    A, opa = random_op(rng, 5, 5)
    B, opb = random_op(rng, 5, 5)
    assert_close(identity_op(5).to_dense(), np.eye(5), 0.0)
    assert_close(op_combine(opa, opb, 2.0, 3.0).to_dense(), 2 * A + 3 * B, 1e-13)
    assert_close(compose_difference(opa, opb).to_dense(), A - B, 1e-13)


def test_adjacency_ops_match_dense():
    g = sample(Uniform(30, 0.2), MASTER)
    A = g.to_dense()
    sh = tau_shift(g, 6.0)
    assert_close(adjacency_shifted_op(sh).to_dense(), A + 0.2, 1e-14)
    assert_close(adjacency_shifted_op(g).to_dense(), A, 0.0)
    assert adjacency_shifted_op(g).symmetric


def test_restrict_zeroing_semantics():
    rng = np.random.default_rng(3)
    M, op = random_op(rng, 6, 8)
    I, J = [1, 4], [0, 2, 7]
    ref = np.zeros_like(M)
    ref[np.ix_(I, J)] = M[np.ix_(I, J)]
    assert_close(restrict(op, I, J).to_dense(), ref, 0.0)
    # None means keep-all on that side
    refr = np.zeros_like(M)
    refr[I, :] = M[I, :]
    assert_close(restrict(op, I, None).to_dense(), refr, 0.0)


def test_restrict_norm_monotone():
    rng = np.random.default_rng(4)
    M, op = random_op(rng, 12, 12)
    full = np.linalg.svd(M, compute_uv=False)[0]
    for seed in range(5):
        idx = np.random.default_rng(seed)
        I = np.flatnonzero(idx.random(12) < 0.6)
        J = np.flatnonzero(idx.random(12) < 0.6)
        if I.size == 0 or J.size == 0:
            continue
        sub = spectral_norm(restrict(op, I, J), tol=1e-9)
        assert sub <= full * (1 + 1e-7)


def test_restrict_symmetric_flag():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((7, 7))
    op = LinearOp.from_dense(M + M.T)
    assert restrict(op, [1, 2], [1, 2]).symmetric
    assert not restrict(op, [1, 2], [1, 3]).symmetric


def test_from_csr_matches_dense():
    g = sample(Uniform(20, 0.3), MASTER, 7)
    op = LinearOp.from_csr(g.to_csr(), symmetric=True)
    assert_close(op.to_dense(), g.to_dense(), 0.0)
    x = np.arange(20.0)
    assert_close(op.rmatvec(x), g.to_dense().T @ x, 1e-12)
