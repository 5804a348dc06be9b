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
    sample,
    sample_directed,
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
        compose_difference(op, LinearOp.from_dense(np.ones((2, 2))))


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
