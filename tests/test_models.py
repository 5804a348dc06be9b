"""Modelsuite: rates, expected adjacency, the seeded sampler, file formats.

Numeric oracles are frozen at MASTER = 1729; the measured values quoted
inline are those of sampling contract v2 (row-block streams).  The
binomial checks state their 3-sigma windows inline; the sampler checks
written for contract v2 use 5-sigma windows.
"""

import json
import os
import re

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
    degree_profile,
    ea_factors,
    expected_adjacency,
    expected_degrees,
    expected_dense,
    load_graph,
    max_expected_degree,
    max_rate,
    model_from_dict,
    model_to_dict,
    sample,
    sample_directed,
    save_graph,
)

from graphconc import LinearOp, models
from graphconc._seeding import ROW_BLOCK, BlockWords

from conftest import MASTER, assert_close


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
    assert max_rate(Uniform(100, 0.05)) == pytest.approx(5.0)
    assert max_rate(BlockTwo(2000, 30, 5)) == pytest.approx(30.0)
    c = 0.1
    assert max_rate(RankOne(50, (c,) * 50)) == pytest.approx(50 * c * c)


def test_max_rate_rankone_clipped():
    # theta_i theta_j caps at probability 1, so d caps at n
    th = (2.0, 3.0, 0.1, 0.1)
    assert max_rate(RankOne(4, th)) == pytest.approx(4.0)


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


@pytest.mark.parametrize("m", [
    Uniform(37, 0.13),
    BlockTwo(40, 12, 3),
    RankOne(33, tuple(np.linspace(0.0, 0.95, 33))),
    degree_profile(200, (3.0, 10.0), (0.9, 0.1)),
], ids=["uniform", "blocktwo", "rankone", "profile"])
def test_factored_expected_dense_is_the_closure_bit_for_bit(m):
    # one product of the factors holds the bits of the matvec closure's
    # columns
    assert ea_factors(m) is not None
    closure = expected_adjacency(m).to_dense()
    assert expected_dense(m).tobytes() == closure.tobytes()


def test_only_structured_unclipped_models_have_factors():
    clipped = RankOne(15, tuple(np.linspace(0.05, 1.4, 15)))
    self_clipped = RankOne(3, (1.2, 0.1, 0.1))  # only theta_0^2 exceeds 1
    for m in (clipped, self_clipped, Explicit(np.full((9, 9), 0.25))):
        assert ea_factors(m) is None


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
    assert max_rate(m) == pytest.approx(2000.0)
    read = []

    class Counted(models.BlockWords):
        def take(self, k):
            read.append(k)
            return super().take(k)

    monkeypatch.setattr(models, "BlockWords", Counted)
    g = sample(m, MASTER)
    groups = models._groups(m)[0]
    mean_nnz = expected_degrees(m).sum() / 2
    blocks = -(-m.n // ROW_BLOCK)
    assert sum(read) <= 8.0 * mean_nnz + blocks * len(groups) ** 2
    assert abs(g.nnz - mean_nnz) <= 5.0 * np.sqrt(mean_nnz)


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
    '{"n": 3, "directed": 0}', '{"n": 3, "directed": false, "weighted": 1}'])
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
    # an unknown kind, a spec that is no object, a spec lacking a field
    for spec in ({"kind": "nope"}, "uniform", ["uniform", 10, 0.2],
                 {"kind": "uniform", "n": 10}, {"kind": "explicit"}):
        with pytest.raises(InvalidModel):
            model_from_dict(spec)


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
