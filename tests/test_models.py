"""Modelsuite: rates, expected adjacency, the seeded sampler, file formats.

Numeric oracles are frozen at MASTER = 1729; the measured values quoted
inline are those of sampling contract v2 (row-block streams).  The
binomial checks state their 3-sigma windows inline; the sampler checks
written for contract v2 use 5-sigma windows.
"""

import json
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphconc import (
    BlockTwo,
    Explicit,
    InvalidModel,
    InvalidRates,
    RankOne,
    SparseGraph,
    Uniform,
    decompose,
    degree_profile,
    expected_adjacency,
    expected_degrees,
    expected_dense,
    load_graph,
    max_expected_degree,
    model_from_dict,
    model_to_dict,
    proportional_reweight,
    sample,
    sample_directed,
    save_graph,
)

from graphconc import LinearOp, models
from graphconc._seeding import ROW_BLOCK, BlockWords

from conftest import MASTER, assert_close, traced_peak


# ---------------------------------------------------------------------------
# SparseGraph container


def test_sparsegraph_validation():
    with pytest.raises(InvalidModel):
        SparseGraph(4, [0], [0], [1.0])  # self-loop
    with pytest.raises(InvalidModel):
        SparseGraph(4, [0, 1], [1, 0], [1.0, 1.0])  # duplicate after canonicalizing
    with pytest.raises(InvalidModel):
        SparseGraph(4, [0], [5], [1.0])  # out of range
    with pytest.raises(InvalidModel):
        SparseGraph(4, [0], [1], [1.5])  # weight > 1
    with pytest.raises(InvalidModel):
        SparseGraph(4, [0], [1], [0.0])  # weight must be positive
    with pytest.raises(InvalidModel):
        SparseGraph(4, [0, 1], [1], [1.0])  # ragged arrays
    with pytest.raises(InvalidModel):
        SparseGraph(4, [0, 1], [1, 2], [1.0])  # ragged weights, all ones


def test_non_finite_entries_are_refused():
    # NaN fails every comparison, so range checks written as "x < low or
    # x > high" let it through
    for w in (np.nan, np.inf):
        with pytest.raises(InvalidModel):
            SparseGraph(3, [0], [1], [w])
    P = np.full((3, 3), 0.5)
    P[0, 1] = P[1, 0] = np.nan
    with pytest.raises(InvalidModel):
        Explicit(P)


def test_sparsegraph_canonical_order():
    g = SparseGraph(5, [3, 0], [1, 2], [0.5, 1.0])
    assert list(g.i) == [0, 1]
    assert list(g.j) == [2, 3]
    assert list(g.w) == [1.0, 0.5]
    assert not g.i.flags.writeable


def test_duplicate_check_codes_pairs_in_int64():
    # i*n + j of (42949, 67297) exceeds that of (0, 1) by exactly 2^32:
    # in int32 the two codes collide, and the graph would be refused
    n = 100000
    with pytest.raises(InvalidModel, match="duplicate"):
        SparseGraph(n, [99998, 99998], [99999, 99999])
    with pytest.raises(InvalidModel, match="duplicate"):
        SparseGraph(n, [99999, 99998], [99998, 99999])
    for directed in (False, True):
        g = SparseGraph(n, [42949, 99998, 0], [67297, 99999, 1],
                        directed=directed)
        assert list(zip(g.i.tolist(), g.j.tolist())) == [
            (0, 1), (42949, 67297), (99998, 99999)]


def test_entry_keys_fit_in_int64_or_the_graph_is_refused():
    # i * n + j sorts the entries: beyond KEY_N_LIMIT = 3037000499 it
    # wraps in int64, and (2^32, 1) would sort before (0, n - 1)
    limit = models.KEY_N_LIMIT
    assert limit ** 2 <= 2 ** 63 < (limit + 1) ** 2
    with pytest.raises(InvalidModel, match=f"exceeds {limit}, the largest"):
        SparseGraph(2 ** 33, [2 ** 32, 0], [1, 2 ** 33 - 1], directed=True)
    with pytest.raises(InvalidModel, match=f"exceeds {limit}"):
        SparseGraph(limit + 1, [1], [0])
    g = SparseGraph(limit, [limit - 1, 0], [0, limit - 1], directed=True)
    assert g.i.tolist() == [0, limit - 1] and g.j.tolist() == [limit - 1, 0]


def test_zero_one_graph_holds_int32_ids_and_no_weights():
    g = sample(Uniform(500, 0.02), MASTER)
    assert g.i.dtype == g.j.dtype == np.int32
    assert not g.weighted and g.w.strides == (0,) and g.w.shape == (g.nnz,)
    assert np.all(g.w == 1.0)
    # an all-ones weight array is not held either, and compares equal
    ones = SparseGraph(g.n, g.i, g.j, np.ones(g.nnz))
    assert not ones.weighted and ones == g
    h = SparseGraph(4, [0, 1], [1, 2], [1.0, 0.5])
    assert h.weighted and list(h.w) == [1.0, 0.5]
    assert not h.subset([0]).weighted and h.subset([1]).weighted
    assert SparseGraph(4, [0], [1], [1.0]) != SparseGraph(4, [0], [1], [0.5])


def test_with_weights_checks_only_the_weights():
    # the entries held are canonical; a new weight array is the
    # constructor's, bit for bit, and is refused as it refuses one
    rng = np.random.default_rng(11)
    g = sample(Uniform(300, 0.03), MASTER)
    h = SparseGraph(g.n, g.i, g.j, 1.0 - 0.9 * rng.random(g.nnz))
    for base in (g, h):
        for w in (1.0 - 0.9 * rng.random(g.nnz), np.ones(g.nnz)):
            out, ref = base.with_weights(w), SparseGraph(g.n, g.i, g.j, w)
            assert out.weighted == ref.weighted and out == ref
            assert out.i.dtype == ref.i.dtype and not out.i.flags.writeable
    for w in (np.ones(g.nnz + 1), np.zeros(g.nnz), np.full(g.nnz, 1.5),
              np.full(g.nnz, np.nan)):
        with pytest.raises(InvalidModel):
            g.with_weights(w)


def _coo_csr(g):
    """scipy's COO build of g's csr, which ``to_csr`` must equal."""
    import scipy.sparse as sp
    i, j, w = (np.asarray(a, dtype=t) for a, t in
               ((g.i, np.int64), (g.j, np.int64), (g.w, float)))
    if not g.directed:
        i, j, w = np.concatenate([i, j]), np.concatenate([j, i]), np.tile(w, 2)
    return sp.csr_matrix((w, (i, j)), shape=(g.n, g.n))


@pytest.mark.parametrize("directed", [False, True])
def test_to_csr_is_the_coo_build(directed):
    # the same indptr, indices and data, dtypes included, so every matvec
    # keeps its bits; weighted graphs, empty rows and edge-less graphs too
    rng = np.random.default_rng(5)
    draw = sample_directed if directed else sample
    for n, p in ((1, 0.0), (5, 0.0), (7, 1.0), (300, 0.03), (2000, 0.002)):
        g = draw(Uniform(n, p), MASTER)
        graphs = [g, g.with_weights(1.0 - 0.9 * rng.random(g.nnz))]
        for h in graphs:
            ours, ref = h.to_csr(), _coo_csr(h)
            for key in ("indptr", "indices", "data"):
                a, b = getattr(ours, key), getattr(ref, key)
                assert a.dtype == b.dtype and np.array_equal(a, b), (n, key)
            v = rng.standard_normal(n)
            assert np.array_equal(ours @ v, ref @ v)


def test_to_csr_scratch_per_edge():
    # n = 10^5, d = 3, the csr it returns included: 32.3 B/edge on the
    # 0/1 graph and 44.0 on its reweighting, traced (numpy 2.4, scipy
    # 1.17); bounded 3.7 and 2.0 B/edge above, and below the 40.0 and
    # 48.0 that placing U and U's csc transpose by a row mask took
    g = sample(Uniform(100000, 3e-5), MASTER)
    g.to_csr()  # so that scipy's lazy imports are not counted
    for h, bound in ((g, 36.0), (proportional_reweight(g, 2.0), 46.0)):
        _, peak = traced_peak(h.to_csr)
        assert peak / h.nnz <= bound, h.weighted


def test_degrees_match_dense():
    rng = np.random.default_rng(7)
    M = np.triu((rng.random((12, 12)) < 0.4).astype(float), 1)
    M = M + M.T
    g = SparseGraph.from_dense(M)
    assert_close(g.degrees(), M.sum(axis=1), 0.0, "undirected degrees")
    assert_close(g.to_dense(), M, 0.0, "dense round trip")


def test_directed_graph_out_degrees():
    g = SparseGraph(3, [0, 0, 2], [1, 2, 1], [1.0, 1.0, 1.0], directed=True)
    assert list(g.degrees()) == [2.0, 0.0, 1.0]
    D = g.to_dense()
    assert D[0, 1] == 1.0 and D[1, 0] == 0.0


@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_from_dense_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    M = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
    M = M + M.T
    g = SparseGraph.from_dense(M)
    assert np.array_equal(g.to_dense(), M)


# ---------------------------------------------------------------------------
# model-level rates


def test_max_rate_examples():
    assert Uniform(100, 0.05).max_rate() == pytest.approx(5.0)
    assert BlockTwo(2000, 30, 5).max_rate() == pytest.approx(30.0)
    c = 0.1
    assert RankOne(50, (c,) * 50).max_rate() == pytest.approx(50 * c * c)
    assert RankOne(1, [0.5]).max_rate() == 0.0  # no off-diagonal pair
    assert Uniform(1, 0.5).max_rate() == 0.0


def test_max_rate_rankone_clipped():
    # theta_i theta_j caps at probability 1, so d caps at n
    th = (2.0, 3.0, 0.1, 0.1)
    assert RankOne(4, th).max_rate() == pytest.approx(4.0)


def test_malformed_models_and_row_blocks_are_refused():
    with pytest.raises(InvalidModel, match="theta must have length n"):
        RankOne(3, [1.0, 2.0])
    with pytest.raises(InvalidModel, match="P must be square"):
        Explicit(np.zeros((2, 3)))
    for block in (-1, 2 ** 30):
        with pytest.raises(ValueError, match="row block index out of range"):
            BlockWords(MASTER, 0, block)


def test_max_expected_degree_examples():
    assert max_expected_degree(Uniform(100, 0.05)) == pytest.approx(4.95)
    assert max_expected_degree(BlockTwo(4, 2, 0)) == pytest.approx(0.5)
    assert max_expected_degree(Explicit(np.zeros((6, 6)))) == 0.0


def reference_rates(m):
    """p_ij written out per kind, diagonal zeroed: the reference EA."""
    n = m.n
    if isinstance(m, Uniform):
        P = np.full((n, n), m.p)
    elif isinstance(m, RankOne):
        th = np.asarray(m.theta)
        P = np.minimum(np.outer(th, th), 1.0)
    elif isinstance(m, BlockTwo):
        same = (np.arange(n) < m.half)[:, None] == (np.arange(n) < m.half)
        P = np.where(same, m.a / n, m.b / n)
    else:
        P = m.P.copy()
    np.fill_diagonal(P, 0.0)
    return P


REFERENCE_MODELS = [
    Uniform(37, 0.3),
    BlockTwo(20, 8, 2),
    RankOne(15, tuple(np.linspace(0.05, 1.4, 15))),  # includes clipped pairs
    RankOne(15, tuple(np.linspace(0.05, 0.9, 15))),  # no clipped pair
    Explicit(np.full((9, 9), 0.25)),
]


@pytest.mark.parametrize("m", REFERENCE_MODELS,
                         ids=["uniform", "blocktwo", "rankone-clipped",
                              "rankone", "explicit"])
def test_expected_dense_matches_reference(m):
    assert np.array_equal(expected_dense(m), reference_rates(m))


@pytest.mark.parametrize("m", [*REFERENCE_MODELS, Uniform(1, 0.5),
                               BlockTwo(1000, 30, 5),
                               RankOne(3, (1.2, 0.1, 0.1))],
                         ids=["uniform", "blocktwo", "rankone-clipped",
                              "rankone", "explicit", "uniform-1",
                              "blocktwo-1000", "rankone-self-clipped"])
def test_ea_triangle_is_the_strict_upper_triangle(m):
    # every kind gives U: U x and U^T y by cumulative sums of EA's
    # factors, a clipping RankOne's strip of the columns that clip, or
    # strips of Explicit's P, are triu(EA, 1) and its transpose to rounding
    U = m.ea_triangle()
    P = reference_rates(m)
    upper = np.triu(P, 1)
    assert_close(U.to_dense(), upper, 1e-15 * max(1.0, m.n * P.max()))
    assert_close(U.T.to_dense(), upper.T, 1e-15 * max(1.0, m.n * P.max()))


def test_clipping_rankone_triangle_does_not_cancel():
    # 40 heavy vertices clip with every other: theta theta^T's triangle
    # less the clipped excess cancels, up to 9.1e-14 of max |triu(EA, 1)
    # x| over 10 seeds, where the strip of the clipping columns reads
    # <= 1.9e-16.  Unit vectors, as to_dense uses, hide the cancellation
    n = 1024
    theta = np.full(n, 1 / 16)
    theta[984:] = np.linspace(4.0, 12.0, 40)
    m = RankOne(n, theta)
    U, upper = m.ea_triangle(), np.triu(reference_rates(m), 1)
    for seed in range(3):
        x = np.random.default_rng(seed).standard_normal(n)
        for got, ref in ((U.matvec(x), upper @ x),
                         (U.rmatvec(x), upper.T @ x)):
            assert_close(got, ref, 1e-15 * np.abs(ref).max())


def test_clipping_rankone_ea_op_does_not_cancel():
    # the same model: ea_op adds each p_ij once, theta x summed over the
    # partners that do not clip and x over those that do, where a rank
    # one product less the clipped excess read 4.6e-14 of max |EA x|
    # over 20 seeds, and this reads 4.4e-15
    n = 1024
    theta = np.full(n, 1 / 16)
    theta[984:] = np.linspace(4.0, 12.0, 40)
    m = RankOne(n, theta)
    E, P = m.ea_op(), reference_rates(m)
    for seed in range(20):
        x = np.random.default_rng(seed).standard_normal(n)
        ref = P @ x
        assert_close(E.matvec(x), ref, 1e-14 * np.abs(ref).max())


@pytest.mark.parametrize("m", [
    Uniform(37, 0.13),
    BlockTwo(40, 12, 3),
    RankOne(33, tuple(np.linspace(0.0, 0.95, 33))),
    degree_profile(200, (3.0, 10.0), (0.9, 0.1)),
    *REFERENCE_MODELS,
    RankOne(3, (1.2, 0.1, 0.1)),  # only theta_0^2 exceeds 1
    degree_profile(40, (7.0, 30.0), (0.9, 0.1)),
], ids=["uniform", "blocktwo", "rankone", "profile", "reference-uniform",
        "reference-blocktwo", "reference-rankone-clipped", "reference-rankone",
        "reference-explicit", "rankone-self-clipped", "profile-clipped"])
def test_factored_expected_dense_is_the_closure_bit_for_bit(m):
    # the entries ea_block states hold the bits of the matvec closure's
    # columns, clipped pairs included, for every kind
    closure = expected_adjacency(m).to_dense()
    dense = expected_dense(m)
    assert dense.tobytes() == closure.tobytes()
    # d = n times the largest off-diagonal p_ij
    assert m.max_rate() == (m.n * dense.max() if m.n >= 2 else 0.0)
    # each layout bound holds p_ij from above on its group pair: exactly
    # where no thinning follows, and the thinning is the kind's own
    # ea_block; a vertex in no group has p_ij = 0 throughout
    groups, bound, thin = m.layout()
    assert thin is None or thin == m.ea_block
    laid = np.concatenate(groups) if groups else np.empty(0, int)
    assert not dense[np.setdiff1d(np.arange(m.n), laid)].any()
    for k, R in enumerate(groups):
        for l, C in enumerate(groups):
            P = m.ea_block(R[:, None], C)
            assert np.all(P <= bound[k, l])
            if thin is None:
                assert np.all(P == bound[k, l])
                continue
            assert np.array_equal(thin(R[:, None], C), P)
            # RankOne's bins hold q_kl within a factor 4 of p_ij; Explicit's
            # one bound is P.max() over arbitrary p_ij (zeros too), so its
            # walk costs about 2 P.max() words a pair, not O(1) a hit
            # (test_explicit_words_scale_with_its_largest_rate)
            if not isinstance(m, Explicit):
                assert np.all(bound[k, l] <= 4.0 * P)


@dataclass(frozen=True)
class UniformRestated:
    """A kind stated only here: Uniform's p, through the four methods."""

    n: int
    p: float

    def max_rate(self):
        return self.n * self.p if self.n >= 2 else 0.0

    def ea_op(self):
        def mv(x):
            return self.p * (x.sum() - x)

        return LinearOp(self.n, self.n, mv, mv, symmetric=True)

    def ea_block(self, i, j):
        return np.full(np.broadcast(i, j).shape, self.p)

    def layout(self):
        return [np.arange(self.n)], np.array([[self.p]]), None


def test_a_new_kind_is_one_class():
    # nothing branches on the kind: a class of its own stating Uniform's
    # p samples, reads EA and decomposes as Uniform does, bit for bit
    n = 2 * ROW_BLOCK + 100
    new, old = UniformRestated(n, 3.0 / n), Uniform(n, 3.0 / n)
    assert sample(new, MASTER, 2) == sample(old, MASTER, 2)
    assert sample_directed(new, MASTER) == sample_directed(old, MASTER)
    new, old = UniformRestated(64, 0.1), Uniform(64, 0.1)
    assert (expected_adjacency(new).to_dense().tobytes()
            == expected_adjacency(old).to_dense().tobytes())
    assert expected_dense(new).tobytes() == expected_dense(old).tobytes()
    A = sample_directed(old, MASTER)
    got, want = (decompose(A, m, 1.0, 6.4, gp_iters=30) for m in (new, old))
    assert np.array_equal(got.class_of, want.class_of)
    assert got.block_trace == want.block_trace


def test_explicit_expected_dense_is_its_matrix(monkeypatch):
    # an op built from a dense matrix hands back a copy of it: no matvec
    calls = []
    matvec = LinearOp.matvec

    def counting(self, x):
        calls.append(1)
        return matvec(self, x)

    monkeypatch.setattr(LinearOp, "matvec", counting)
    P = _explicit_p10()
    dense = expected_dense(Explicit(P))
    np.fill_diagonal(P, 0.0)
    assert np.array_equal(dense, P) and not calls
    dense[0, 1] = 0.5  # a copy: the model keeps its own matrix
    assert expected_dense(Explicit(P))[0, 1] == P[0, 1]
    # the column-by-column route it skips gives the same bits
    op = expected_adjacency(Explicit(P))
    assert np.array_equal(LinearOp(10, 10, op.matvec).to_dense(), P)
    assert calls


def test_expected_degrees_vs_dense():
    for m in REFERENCE_MODELS:
        name = type(m).__name__
        deg = expected_degrees(m)
        assert_close(deg, reference_rates(m).sum(axis=1), 1e-12, name)
        assert_close(deg, expected_dense(m).sum(axis=1), 1e-10, name)


def test_model_validation():
    with pytest.raises(InvalidModel):
        Uniform(10, 1.5)
    with pytest.raises(InvalidRates):
        BlockTwo(11, 3, 1)  # odd n
    with pytest.raises(InvalidRates):
        BlockTwo(10, 3, 5)  # b > a
    with pytest.raises(InvalidModel):
        RankOne(3, (0.1, -0.2, 0.3))
    with pytest.raises(InvalidModel):
        Explicit(np.array([[0.0, 0.3], [0.4, 0.0]]))  # asymmetric


def test_every_model_refuses_an_empty_vertex_set():
    # Uniform's refusal, word for word, for the models that took n = 0
    for make in (lambda: Uniform(0, 0.5), lambda: RankOne(0, ()),
                 lambda: RankOne(-1, ()), lambda: Explicit(np.zeros((0, 0))),
                 lambda: degree_profile(0, (1.0,), (1.0,)),
                 lambda: degree_profile(-1, (1.0,), (1.0,))):
        with pytest.raises(InvalidModel, match="^n must be positive$"):
            make()


def test_explicit_stores_an_exactly_symmetric_p():
    # a P asymmetric within the 1e-12 tolerance is stored with its
    # strict lower triangle copied from the upper one; an exactly
    # symmetric P keeps every bit
    P = _explicit_p10()  # exactly symmetric
    kept = Explicit(P).P
    np.fill_diagonal(P, 0.0)
    assert kept.tobytes() == P.tobytes()
    nudged = P.copy()
    nudged[7, 2] += 5e-13
    stored = Explicit(nudged).P
    assert stored.tobytes() == P.tobytes()
    assert np.array_equal(stored, stored.T)


# ---------------------------------------------------------------------------
# expected adjacency operators


def test_expected_adjacency_matches_dense():
    models = [
        Uniform(61, 0.13),
        BlockTwo(40, 12, 3),
        RankOne(33, tuple(np.linspace(0.0, 1.3, 33))),
        Explicit(np.full((17, 17), 0.4)),
    ]
    for m in models:
        op = expected_adjacency(m)
        assert op.symmetric
        assert_close(op.to_dense(), reference_rates(m), 1e-12,
                     type(m).__name__)


def test_uniform_expected_adjacency_row_sums():
    m = Uniform(80, 0.07)
    y = expected_adjacency(m).matvec(np.ones(80))
    assert_close(y, np.full(80, 79 * 0.07), 1e-12, "EA @ 1")


def test_degree_profile_expected_degrees():
    m = degree_profile(1000, (7.0, 70.0), (0.9, 0.1))
    deg = expected_degrees(m)
    # e_i minus the theta_i^2 self-loop exclusion
    assert np.all(np.abs(deg[:900] - 7.0) < 0.01)
    assert np.all(np.abs(deg[900:] - 70.0) < 0.40)
    with pytest.raises(InvalidModel):
        degree_profile(100, (7.0, 70.0), (0.9, 0.2))  # fractions don't sum to 1


def test_rank_one_holds_theta_as_one_read_only_array():
    th = np.linspace(0.1, 0.5, 5)
    m = RankOne(5, th)
    th[0] = 9.0  # the model holds its own copy
    assert m.theta.dtype == np.float64 and not m.theta.flags.writeable
    assert m.theta[0] == 0.1
    back = model_from_dict(model_to_dict(m))
    assert back.theta.tobytes() == m.theta.tobytes()
    # n = 10^5: 2.50 MB traced, three float64 n-vectors (degree_profile's
    # e and theta, and the model's copy); bounded with 0.7 MB of margin,
    # and below the 9.60 MB that rebuilding theta through n Python
    # floats took
    prof, peak = traced_peak(degree_profile, 10**5, [2, 4], [0.5, 0.5])
    assert peak <= 3.2e6
    assert isinstance(prof, RankOne) and not prof.theta.flags.writeable


# ---------------------------------------------------------------------------
# the sampler


def test_sample_deterministic():
    m = Uniform(60, 0.1)
    g1 = sample(m, MASTER, 3)
    g2 = sample(m, MASTER, 3)
    assert g1 == g2
    assert g1 != sample(m, MASTER, 4)
    assert g1 != sample(m, MASTER + 1, 3)


def test_sample_complete_and_empty():
    g = sample(Uniform(5, 1.0), MASTER)
    assert g.nnz == 10  # all pairs
    assert sample(Uniform(5, 0.0), MASTER).nnz == 0


def test_sample_directed_complete():
    g = sample_directed(Uniform(3, 1.0), MASTER)
    assert g.nnz == 6
    assert g.directed


def test_directed_upper_half_matches_undirected():
    # the j > i half of a directed sample reuses the undirected draws
    m = Uniform(50, 0.2)
    gu = sample(m, MASTER, 1)
    gd = sample_directed(m, MASTER, 1)
    upper = {(a, b) for a, b in zip(gd.i, gd.j) if a < b}
    assert upper == set(zip(gu.i, gu.j))


def test_sample_binomial_mean():
    # Uniform(2000, 0.005): E edges = C(2000,2) * 0.005 = 9995 per draw;
    # the 30-seed mean is binomial with sigma = sqrt(9995 * 0.995 / 30) = 18.2,
    # so the +-3 sigma window is [9940.4, 10049.6].  Frozen seeds keep this
    # deterministic; measured mean at MASTER = 9978.3.
    m = Uniform(2000, 0.005)
    counts = [sample(m, MASTER, t).nnz for t in range(30)]
    mean = np.mean(counts)
    assert 9940.4 <= mean <= 10049.6


def test_sample_respects_blocktwo_rates():
    m = BlockTwo(400, 40, 4)
    g = sample(m, MASTER)
    half = 200
    same = np.sum((g.i < half) == (g.j < half))
    cross = g.nnz - same
    # E same = 2 * C(200,2) * 0.1 = 3980, sigma = 59.8; E cross = 200^2 * 0.01
    # = 400, sigma = 19.9.  3-sigma windows; measured at MASTER: 3912 and 417.
    assert 3800.6 <= same <= 4159.4
    assert 340.3 <= cross <= 459.7


def _pair_counts(model, streams):
    """Ordered-pair hit counts of directed samples over ``streams`` streams."""
    n = model.n
    counts = np.zeros((n, n))
    for t in range(streams):
        g = sample_directed(model, MASTER, t)
        np.add.at(counts, (g.i, g.j), 1.0)
    return counts


def _explicit_p10():
    rng = np.random.default_rng(11)
    P = rng.random((10, 10))
    P = (P + P.T) / 2
    P[P < 0.25] = 0.0
    P[P > 0.8] = 1.0
    return P


@pytest.mark.parametrize("model", [
    Uniform(10, 0.3),
    BlockTwo(10, 6.0, 2.0),  # half 5 falls inside the row block 3 .. 5
    RankOne(10, tuple(np.linspace(0.1, 1.6, 10))),  # theta_i theta_j > 1 clips
    Explicit(_explicit_p10()),
], ids=["uniform", "blocktwo", "rankone", "explicit"])
def test_pair_frequencies_match_probabilities(model, monkeypatch):
    # Row blocks of 3 cut n = 10 into 3 + 3 + 3 + 1 rows.  Over T streams
    # each ordered pair's hit count is Binomial(T, p_ij): every pair lies
    # within 5 sigma (+ 0.5, so p in {0, 1} must be exact), and the
    # chi-square sum over the K pairs with 0 < p < 1 within K + 5 sqrt(2K).
    monkeypatch.setattr(models, "ROW_BLOCK", 3)
    T = 1000
    P = expected_dense(model)
    counts = _pair_counts(model, T)
    var = T * P * (1.0 - P)
    assert np.all(np.abs(counts - T * P) <= 5.0 * np.sqrt(var) + 0.5)
    inner = var > 0
    chi2 = ((counts - T * P)[inner] ** 2 / var[inner]).sum()
    K = int(inner.sum())
    assert chi2 <= K + 5.0 * np.sqrt(2 * K), (chi2, K)


def test_row_block_boundaries_at_full_size():
    # n = 3000 is no multiple of ROW_BLOCK = 1024 and BlockTwo's half 1500
    # falls inside row block 1.  Edge counts per stretch of rows and per
    # orientation are Poisson-binomial; 5-sigma windows around their means.
    assert ROW_BLOCK == 1024
    m = BlockTwo(3000, 30.0, 6.0)
    n = m.n
    P = reference_rates(m)
    upper, lower = np.triu(P, 1).sum(axis=1), np.tril(P, -1).sum(axis=1)
    cuts = [0, 1024, 1500, 2048, 3000]
    g = sample_directed(m, MASTER, 0)
    for want, side in ((upper, g.i < g.j), (lower, g.i > g.j)):
        got = np.histogram(g.i[side], bins=cuts)[0]
        mean = np.add.reduceat(want, cuts[:-1])
        assert np.all(np.abs(got - mean) <= 5.0 * np.sqrt(mean)), (got, mean)


def test_sample_degenerate_rates_and_sizes():
    assert sample(Uniform(1, 1.0), MASTER).nnz == 0
    assert sample_directed(Uniform(1, 1.0), MASTER).nnz == 0
    g = sample(Uniform(2, 1.0), MASTER)
    assert list(g.i) == [0] and list(g.j) == [1]
    assert sample_directed(Uniform(2, 1.0), MASTER).nnz == 2
    assert sample_directed(Uniform(2, 0.0), MASTER).nnz == 0
    assert sample(BlockTwo(2, 2.0, 2.0), MASTER).nnz == 1  # p = 1 across
    assert sample(BlockTwo(2, 2.0, 0.0), MASTER).nnz == 0  # no pair within
    assert sample(RankOne(4, (2.0,) * 4), MASTER).nnz == 6  # clipped to 1
    assert sample_directed(RankOne(3, (0.0,) * 3), MASTER).nnz == 0
    assert sample_directed(Explicit(np.ones((4, 4))), MASTER).nnz == 12
    assert sample(Explicit(np.zeros((4, 4))), MASTER).nnz == 0
    # p = 1 across a row-block boundary: the complete graph, in order
    n = ROW_BLOCK + 76
    g = sample(Uniform(n, 1.0), MASTER)
    assert g.nnz == n * (n - 1) // 2
    assert np.all(np.diff(g.i * n + g.j) > 0)


def test_million_vertex_uniform_nnz():
    # Uniform(10^6, 3/10^6): nnz is Binomial(C(n, 2), p) with mean
    # 1499998.5 and sigma 1224.7; 5-sigma window.
    n = 10**6
    g = sample(Uniform(n, 3.0 / n), MASTER)
    assert abs(g.nnz - 1499998.5) <= 5.0 * 1224.7
    assert np.all(g.i < g.j) and np.all(np.diff(g.i * n + g.j) > 0)


def test_rankone_words_scale_with_edges(monkeypatch):
    # A clipped degree profile: hubs pair with probability 1.  Thinning
    # keeps the bound within a factor 4 of p_ij, so a sample reads at most
    # 2 words per candidate (gap and thinning) plus one overshoot word per
    # rectangle, far fewer than the n(n-1)/2 = 1999000 pairs.
    m = degree_profile(2000, (2.0, 400.0), (0.95, 0.05))
    assert m.max_rate() == pytest.approx(2000.0)
    read = []

    class Counted(models.BlockWords):
        def take(self, k):
            read.append(k)
            return super().take(k)

    monkeypatch.setattr(models, "BlockWords", Counted)
    g = sample(m, MASTER)
    groups = m.layout()[0]
    mean_nnz = expected_degrees(m).sum() / 2
    blocks = -(-m.n // ROW_BLOCK)
    assert sum(read) <= 8.0 * mean_nnz + blocks * len(groups) ** 2
    assert abs(g.nnz - mean_nnz) <= 5.0 * np.sqrt(mean_nnz)


def test_explicit_words_scale_with_its_largest_rate(monkeypatch):
    # Explicit is walked at q = P.max() and thinned to p_ij by its own
    # ea_block: a row block whose rows hold L pairs reads 2 words per hit
    # (gap and thinning) plus one overshoot word, the hits Binomial(L, q),
    # so at most 2qL + 10 sqrt(qL) + 64 words, not one word per entry.
    n = 2048
    s = np.linspace(0.2, 1.8, n)
    m = Explicit(np.minimum(8.0 * np.outer(s, s) / n, 1.0))
    q = m.P.max()
    read = {}

    class Counted(models.BlockWords):
        def __init__(self, master_seed, stream_index, block, lower=False):
            super().__init__(master_seed, stream_index, block, lower)
            self.key = (block, lower)

        def take(self, k):
            read[self.key] = read.get(self.key, 0) + k
            return super().take(k)

    monkeypatch.setattr(models, "BlockWords", Counted)
    for draw, sides in ((sample, (False,)), (sample_directed, (False, True))):
        read.clear()
        draw(m, MASTER)
        assert sorted(read) == [(b, lower) for b in range(2) for lower in sides]
        for (b, lower), words in read.items():
            rows = np.arange(b * ROW_BLOCK, min(n, (b + 1) * ROW_BLOCK))
            L = int((rows if lower else n - 1 - rows).sum())
            assert words <= 2 * q * L + 10 * np.sqrt(q * L) + 64, (b, lower)


def test_geometric_hits_reads_hits_plus_one_words():
    # Against a one-word-at-a-time walk of the same stream.
    words = BlockWords(MASTER, 0, 0)
    ref = BlockWords(MASTER, 0, 0)
    for length, q in ((50, 0.2), (7, 1.0), (1000, 0.001), (3, 0.5)):
        hits = models._geometric_hits(words, length, q)
        want, at = [], -1
        lam = np.log1p(-q) if q < 1.0 else -np.inf
        while True:
            at += 1 + int(np.floor(np.log(ref.take(1)[0]) / lam))
            if at >= length:
                break
            want.append(at)
        assert hits.tolist() == want
    assert np.array_equal(words.take(5), ref.take(5))

    class Ones:  # every gap 0: far more hits than the first guess
        taken = 0

        def peek(self, k):
            return np.ones(k)

        def take(self, k):
            self.taken += k

    ones = Ones()
    assert models._geometric_hits(ones, 500, 0.01).tolist() == list(range(500))
    assert ones.taken == 501


def test_sample_does_not_depend_on_read_ahead(monkeypatch):
    m = BlockTwo(3000, 30.0, 6.0)
    before = sample_directed(m, MASTER, 2)

    class Greedy(models.BlockWords):
        def peek(self, k):
            return super().peek(k + 777)[:k]

    monkeypatch.setattr(models, "BlockWords", Greedy)
    assert sample_directed(m, MASTER, 2) == before


# ---------------------------------------------------------------------------
# file formats


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    M = np.triu(rng.random((10, 10)) * (rng.random((10, 10)) < 0.5), 1)
    M = M + M.T
    g = SparseGraph.from_dense(M)
    path = tmp_path / "g.csv"
    save_graph(g, path)
    assert load_graph(path) == g
    header = path.read_text().splitlines()[0]
    assert '"weighted": true' in header


def test_save_load_unweighted_directed(tmp_path):
    g = SparseGraph(6, [0, 2, 5], [3, 1, 0], [1.0, 1.0, 1.0], directed=True)
    path = tmp_path / "d.csv"
    save_graph(g, path)
    back = load_graph(path)
    assert back == g and back.directed
    assert '"weighted": false' in path.read_text().splitlines()[0]


def _rowwise_save(g, path):
    """The edge-by-edge writer save_graph must match byte for byte."""
    weighted = bool(g.nnz and np.any(g.w != 1.0))
    with open(path, "w") as fh:
        fh.write(json.dumps({"n": g.n, "directed": g.directed,
                             "weighted": weighted}) + "\n")
        for a, b, w in zip(g.i, g.j, g.w):
            fh.write(f"{a},{b},{float(w)!r}\n")


def test_save_graph_bytes_and_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    graphs = [
        sample(Uniform(300, 0.05), MASTER),
        sample_directed(BlockTwo(60, 20.0, 4.0), MASTER),
        SparseGraph(7, [], [], []),
        SparseGraph(1, [], [], [], directed=True),
    ]
    i, j = np.nonzero(np.triu(rng.random((40, 40)) < 0.2, 1))
    graphs.append(SparseGraph(40, i, j, 1.0 - rng.random(i.size)))
    graphs.append(SparseGraph(5, [0, 4], [3, 1], [1e-300, 0.1 + 0.2], directed=True))
    for k, g in enumerate(graphs):
        ours, ref = tmp_path / f"g{k}.csv", tmp_path / f"r{k}.csv"
        save_graph(g, ours)
        _rowwise_save(g, ref)
        assert ours.read_bytes() == ref.read_bytes()
        assert load_graph(ours) == g


def _assert_written_like_rowwise(g, tmp_path):
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    save_graph(g, ours)
    _rowwise_save(g, ref)
    assert ours.read_bytes() == ref.read_bytes()
    assert load_graph(ours) == g


@pytest.mark.parametrize("directed", [False, True])
def test_save_graph_vertex_ids_across_digit_counts(tmp_path, directed):
    # every digit count from 1 to 6 on both endpoints, up to n - 1 = 999999
    n = 10**6
    ids = [0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000,
           123456, 999998, 999999]
    i, j = np.array([(a, b) for a in ids for b in ids if a != b]).T
    if not directed:
        i, j = i[i < j], j[i < j]
    _assert_written_like_rowwise(SparseGraph(n, i, j, np.ones(i.size),
                                             directed=directed), tmp_path)
    for n in (1, 2, 10, 11, 1000, 1001):  # the id fields' width follows n
        g = SparseGraph(n, [0], [n - 1], [1.0]) if n > 1 else SparseGraph(n, [], [], [])
        _assert_written_like_rowwise(g, tmp_path)


def test_save_graph_weight_texts(tmp_path):
    # the shortest and the longest reprs, subnormals, and 1.0 among others
    w = [5e-324, 1e-300, 0.1 + 0.2, 1.0, 2.5e-308, 1 / 3, 0.5, 1e-05,
         0.1, 1.0, 2.2250738585072014e-308, 0.9999999999999999, 1.0, 5e-324]
    n = len(w) + 1
    g = SparseGraph(n, np.arange(len(w)), np.arange(1, n), w)
    _assert_written_like_rowwise(g, tmp_path)
    assert '"weighted": true' in (tmp_path / "ours.csv").read_text()
    d = SparseGraph(n, np.arange(1, n), np.zeros(len(w), int), w, directed=True)
    _assert_written_like_rowwise(d, tmp_path)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_save_graph_chunk_boundaries(tmp_path, extra):
    # nnz = SAVE_CHUNK - 1, SAVE_CHUNK, SAVE_CHUNK + 1, with weights that
    # differ from chunk to chunk
    nnz = models.SAVE_CHUNK + extra
    n = 2000
    code = np.random.default_rng(11).choice(n * (n - 1) // 2, nnz, replace=False)
    i, j = np.triu_indices(n, 1)
    w = (1 + np.random.default_rng(12).integers(0, 1000, nnz)) / 1000
    _assert_written_like_rowwise(SparseGraph(n, i[code], j[code], w), tmp_path)


def test_save_graph_scratch_per_edge(tmp_path):
    # the benchmark's sample graph, about 12,000 edges: 36 B/edge traced
    # (numpy 2.4), bounded at 1.5 times that; 212 B/edge when a 65536-edge
    # chunk went through np.compress's int64 index of the bytes it kept
    g = sample(Uniform(8000, 3.0 / 8000), MASTER)
    assert g.nnz >= 12000
    _, peak = traced_peak(save_graph, g, tmp_path / "g.csv")
    assert peak / g.nnz <= 54.0


def test_load_graph_rejects_short_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('{"n": 3, "directed": false, "weighted": false}\n0,1,1.0\n1,2\n')
    with pytest.raises(ValueError, match="every edge line must read i,j,w"):
        load_graph(path)
    path.write_text('{"n": 3, "directed": false, "weighted": false}\n0,1,1.0\n1,2,1.0,4\n')
    with pytest.raises(ValueError, match="every edge line must read i,j,w"):
        load_graph(path)


@pytest.mark.parametrize("header", [
    "not json", "[3, false]", '{"n": 3}', '{"n": true, "directed": false}',
    '{"n": 3, "directed": 0}', '{"n": 3, "directed": false, "weighted": 1}',
    '{"n": 3, "directed": false, "extra": 1}'])
def test_load_graph_refuses_a_bad_header(tmp_path, header):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n0,1,1.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_graph(path)


@pytest.mark.parametrize("directed,body,error", [
    (False, "0,1,1.0\n1,2,0.5\n2,9,1.0\n3,3,1.0\n",
     "line 4: vertex index out of range"),
    (False, "0,1,1.0\n\n# a comment\n1,2,0.5\n3,3,1.0\n2,9,1.0\n",
     "line 6: self-loops are not allowed"),
    (False, "0,1,1.0\n2,3,1.0\n1,0,1.0\n", "line 4: duplicate entries"),
    (True, "0,1,1.0\n1,0,1.0\n2,3,1.5\n",
     "line 4: weights must lie in (0, 1]"),
], ids=["range", "self-loop-after-blank-and-comment", "duplicate", "weight"])
def test_load_graph_names_the_first_bad_edge_line(tmp_path, directed, body,
                                                  error):
    # the first line whose edge SparseGraph refuses, counted in the file
    path = tmp_path / "bad.csv"
    path.write_text(json.dumps({"n": 5, "directed": directed}) + "\n" + body)
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'{path}: {error}')}$"):
        load_graph(path)


def test_load_graph_header_without_weighted(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text('{"n": 3, "directed": false}\n0,1,1.0\n')
    assert load_graph(path) == SparseGraph(3, [0], [1], [1.0])


@pytest.mark.filterwarnings("error")
def test_load_graph_without_edges(tmp_path):
    for directed in (False, True):
        g = SparseGraph(5, [], [], [], directed=directed)
        path = tmp_path / "empty.csv"
        save_graph(g, path)
        assert load_graph(path) == g


def test_model_dict_roundtrip():
    models = [
        Uniform(12, 0.25),
        BlockTwo(8, 3, 1),
        RankOne(4, (0.1, 0.2, 0.3, 0.4)),
        Explicit(np.full((3, 3), 0.5)),
    ]
    for m in models:
        back = model_from_dict(model_to_dict(m))
        assert_close(expected_dense(back), expected_dense(m), 0.0,
                     type(m).__name__)
    prof = model_from_dict(
        {"kind": "profile", "n": 10, "values": [2, 4], "fractions": [0.5, 0.5]})
    assert isinstance(prof, RankOne)
    # an unknown kind, a spec that is no object, a spec lacking a field,
    # one holding a key its kind has not
    for spec in ({"kind": "nope"}, "uniform", ["uniform", 10, 0.2],
                 {"kind": "uniform", "n": 10}, {"kind": "explicit"},
                 {"kind": "uniform", "n": 10, "p": 0.2, "directed": True},
                 {"kind": "uniform", "n": 10, "p": 0.2, "theta": [0.1]}):
        with pytest.raises(InvalidModel):
            model_from_dict(spec)


@pytest.mark.parametrize("spec", [
    {"kind": "uniform", "n": 12, "p": 0.25},
    {"kind": "blocktwo", "n": 8, "a": 3.0, "b": 1.0},
    {"kind": "rankone", "n": 4, "theta": [0.1, 0.2, 0.3, 0.4]},
    {"kind": "explicit", "P": [[0.0, 0.5, 0.2], [0.5, 0.0, 0.1],
                               [0.2, 0.1, 0.0]]},
    {"kind": "profile", "n": 10, "values": [2, 4], "fractions": [0.5, 0.5]}],
    ids=["uniform", "blocktwo", "rankone", "explicit", "profile"])
def test_model_dict_round_trip_for_every_kind(spec):
    m = model_from_dict(spec)
    out = model_to_dict(m)
    if spec["kind"] == "profile":  # read only: written as its RankOne
        assert out == {"kind": "rankone", "n": 10, "theta": m.theta.tolist()}
    else:
        assert json.dumps(out) == json.dumps(spec)
    back = model_from_dict(out)
    assert type(back) is type(m) and model_to_dict(back) == out
    assert expected_dense(back).tobytes() == expected_dense(m).tobytes()


@pytest.mark.parametrize("values", [[0, 0], [-1, 5], [2, float("nan")],
                                    [2, float("inf")]],
                         ids=["zero-sum", "negative", "nan", "inf"])
def test_degree_profile_refuses_values_before_dividing(values):
    # refused before theta = e / sqrt(sum e) is formed: no numpy warning,
    # and the error names the values
    message = re.escape(f"values {[float(v) for v in values]} must be >= 0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidModel, match=message):
            degree_profile(10, values, [0.5, 0.5])
        with pytest.raises(InvalidModel, match=message):
            model_from_dict({"kind": "profile", "n": 10, "values": values,
                             "fractions": [0.5, 0.5]})


@pytest.mark.parametrize("spec,message", [
    ({"kind": "uniform", "n": 100.7, "p": 0.1}, "n must be an integer"),
    ({"kind": "uniform", "n": 100.0, "p": 0.1}, "n must be an integer"),
    ({"kind": "uniform", "n": "100", "p": 0.1}, "n must be an integer"),
    ({"kind": "uniform", "n": True, "p": 0.1}, "n must be an integer"),
    ({"kind": "uniform", "n": 100, "p": "0.1"}, "p must be a number"),
    ({"kind": "uniform", "n": 100, "p": False}, "p must be a number"),
    ({"kind": "blocktwo", "n": 10, "a": "3", "b": 1}, "a must be a number"),
    ({"kind": "rankone", "n": 2, "theta": [0.1, "0.2"]}, "list of numbers"),
    ({"kind": "rankone", "n": 2, "theta": "0.1"}, "list of numbers"),
    ({"kind": "profile", "n": 10, "values": [2, "4"],
      "fractions": [0.5, 0.5]}, "values must be a list of numbers"),
    ({"kind": "profile", "n": 10, "values": [2, 4],
      "fractions": [0.5, True]}, "fractions must be a list of numbers"),
    ({"kind": "explicit", "P": [[0, "0.5"], [0.5, 0]]}, "lists of numbers"),
    ({"kind": "explicit", "P": [0.5, 0.5]}, "lists of numbers")],
    ids=["n-float", "n-whole-float", "n-str", "n-bool", "p-str", "p-bool",
         "a-str", "theta-entry-str", "theta-str", "values-entry-str",
         "fractions-entry-bool", "P-entry-str", "P-flat"])
def test_model_spec_is_read_never_converted(spec, message):
    # a spec that would sample another model than the one config.json
    # records is refused
    with pytest.raises(InvalidModel, match=message):
        model_from_dict(spec)


def test_benchmark_model_specs_parse(monkeypatch):
    # every model spec the benchmark's workloads pass, full size and small
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__),
                                             os.pardir, "perfbench"))
    import workloads
    seen = 0
    for w in workloads.WORKLOADS.values():
        for step in w.steps:
            for small in (False, True):
                cfg = step.config_for(small)
                if "model" in cfg:
                    model = model_from_dict(cfg["model"])
                    assert model.n == cfg["model"]["n"]
                    seen += 1
    assert seen > 0
