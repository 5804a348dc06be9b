"""Regularization schemes: feasibility, locality, and Laplacian algebra."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphconc import (
    BlockTwo,
    Explicit,
    RankOne,
    SparseGraph,
    Uniform,
    ZeroDegree,
    adjacency_shifted_op,
    apply_scheme,
    average_degree,
    detect,
    expected_dense,
    expected_laplacian,
    full_spectrum,
    high_degree_set,
    laplacian,
    proportional_reweight,
    remove_vertices,
    sample,
    sample_directed,
    tau_shift,
    trim_edges,
)

from graphconc import _scipy

from conftest import MASTER, assert_close


def star(n):
    """Star graph: center 0 joined to 1..n-1."""
    return SparseGraph(n, np.zeros(n - 1, dtype=int), np.arange(1, n),
                       np.ones(n - 1))


def complete(n):
    i, j = np.triu_indices(n, k=1)
    return SparseGraph(n, i, j, np.ones(i.size))


def empty(n):
    return SparseGraph(n, [], [], [])


# ---------------------------------------------------------------------------
# degrees / high-degree set


def test_degrees_examples():
    assert np.array_equal(empty(7).degrees(), np.zeros(7))
    assert np.array_equal(complete(5).degrees(), np.full(5, 4.0))
    d = star(10).degrees()
    assert d[0] == 9.0 and np.all(d[1:] == 1.0)


def test_average_degree_examples():
    assert average_degree(empty(4)) == 0.0
    assert average_degree(complete(5)) == 4.0
    assert average_degree(star(4)) == pytest.approx(1.5)


def test_high_degree_set():
    assert high_degree_set(complete(5), 4.0).size == 0  # <= cap stays
    assert list(high_degree_set(star(10), 5.0)) == [0]
    with pytest.raises(ValueError):
        high_degree_set(star(4), 0.0)


# ---------------------------------------------------------------------------
# remove_vertices


def test_remove_vertices_examples():
    g = sample(Uniform(30, 0.2), MASTER)
    assert remove_vertices(g, []) == g
    assert remove_vertices(g, np.arange(30)).nnz == 0
    assert remove_vertices(star(8), [0]).nnz == 0


def test_remove_vertices_zeroes_rows_and_cols():
    g = sample(Uniform(25, 0.3), MASTER, 1)
    S = [2, 7, 11]
    ref = g.to_dense()
    ref[S, :] = 0.0
    ref[:, S] = 0.0
    assert_close(remove_vertices(g, S).to_dense(), ref, 0.0)


def test_subgraph_schemes_keep_a_zero_one_graph_weightless():
    g = sample(Uniform(300, 0.03), MASTER)
    for out in (trim_edges(g, 6.0), remove_vertices(g, high_degree_set(g, 12.0))):
        assert 0 < out.nnz < g.nnz and not out.weighted
        assert out.i.dtype == out.j.dtype == np.int32


# ---------------------------------------------------------------------------
# trim_edges


def test_trim_noop_below_cap():
    g = complete(5)
    assert trim_edges(g, 4.0) == g


def test_trim_star_keeps_lowest_leaves():
    # center of an 11-star forced down to 5 edges; the policy deletes the
    # higher-indexed leaves first, so leaves 1..5 survive.
    out = trim_edges(star(11), 5.0)
    assert out.degrees()[0] == 5.0
    assert set(out.j) == {1, 2, 3, 4, 5}


def test_trim_feasible_and_local():
    cap = 10.0
    for t in range(3):
        g = sample(Uniform(1000, 5.0 / 1000), MASTER, t)
        out = trim_edges(g, cap)
        assert out.degrees().max() <= cap
        # entrywise dominated and only high-degree-incident edges touched
        before = set(zip(g.i, g.j))
        after = set(zip(out.i, out.j))
        assert after <= before
        hot = set(high_degree_set(g, cap))
        assert all(a in hot or b in hot for a, b in before - after)


def trim_edges_reference(g, cap):
    """The O(n x over-cap) trim: argmax over all degrees per vertex, sets."""
    deg = g.degrees()
    if not g.nnz or deg.max() <= cap:
        return g
    nbr = [set() for _ in range(g.n)]
    for a, b in zip(g.i, g.j):
        nbr[a].add(int(b))
        nbr[b].add(int(a))
    while True:
        u = int(np.argmax(deg))  # first maximum = lowest index on ties
        if deg[u] <= cap:
            break
        while deg[u] > cap:
            v = max(nbr[u], key=lambda x: (deg[x], x))
            nbr[u].remove(v)
            nbr[v].remove(u)
            deg[u] -= 1.0
            deg[v] -= 1.0
    ii, jj = [], []
    for a in range(g.n):
        for b in nbr[a]:
            if a < b:
                ii.append(a)
                jj.append(b)
    ii = np.array(ii, dtype=np.int64)
    jj = np.array(jj, dtype=np.int64)
    return SparseGraph(g.n, ii, jj, np.ones(ii.size), directed=False)


def planted_hubs(g, hubs, rng):
    """g plus edges from each hub to a random half of the vertices."""
    i, j = [g.i], [g.j]
    for h in hubs:
        v = rng.choice(g.n, size=g.n // 2, replace=False)
        v = v[v != h]
        i.append(np.full(v.size, h))
        j.append(v)
    i, j = np.concatenate(i), np.concatenate(j)
    code = np.unique(np.minimum(i, j) * g.n + np.maximum(i, j))
    return SparseGraph(g.n, code // g.n, code % g.n, np.ones(code.size))


def test_trim_matches_reference_bit_for_bit():
    # random graphs and planted hubs, integer and non-integer caps
    rng = np.random.default_rng(11)
    pairs = 0
    for t in range(60):
        n = int(rng.integers(2, 250))
        d = float(rng.uniform(0.5, 12.0))
        g = sample(Uniform(n, min(1.0, d / n)), MASTER, t)
        if t % 2 and n > 5:
            g = planted_hubs(g, rng.choice(n, size=3, replace=False), rng)
        for cap in (0.3, 1.0, 2.0, 3.5, 6.0, d, 2.0 * d):
            out, ref = trim_edges(g, cap), trim_edges_reference(g, cap)
            assert out == ref, (t, cap)
            assert out.i.dtype == ref.i.dtype and out.w.dtype == ref.w.dtype
            pairs += int(out is not g)
    assert pairs > 200


def test_trim_rejects_bad_input():
    with pytest.raises(ValueError):
        trim_edges(star(4), -1.0)
    with pytest.raises(ValueError):
        trim_edges(star(4), float("nan"))
    with pytest.raises(ValueError):
        trim_edges(SparseGraph(3, [0], [1], [0.5]), 1.0)  # weighted
    with pytest.raises(ValueError, match="trim_edges expects an undirected"):
        trim_edges(sample_directed(Uniform(12, 0.3), MASTER), 1.0)


def test_reweight_rejects_a_weighted_graph():
    with pytest.raises(ValueError,
                       match="proportional_reweight expects an unweighted"):
        proportional_reweight(SparseGraph(3, [0], [1], [0.5]), 1.0)


# ---------------------------------------------------------------------------
# proportional_reweight


def test_reweight_formula():
    # center degree 20 with cap 5: lambda = 1/4, leaves lambda = 1,
    # so every spoke gets weight sqrt(1/4) = 1/2.
    out = proportional_reweight(star(21), 5.0)
    assert_close(out.w, np.full(20, 0.5), 1e-15)


def test_reweight_noop_below_cap():
    g = complete(6)
    out = proportional_reweight(g, 5.0)
    assert out == g


def test_reweight_row_mass_and_locality():
    cap = 8.0
    for t in range(3):
        g = sample(Uniform(600, 6.0 / 600), MASTER, t)
        out = proportional_reweight(g, cap)
        M = out.to_dense()
        assert (M * M).sum(axis=1).max() <= cap + 1e-12
        assert np.all(M <= g.to_dense() + 1e-15)  # dominated
        hot = high_degree_set(g, cap)
        changed = np.flatnonzero(np.abs(out.w - g.w) > 0)
        touch = np.isin(out.i[changed], hot) | np.isin(out.j[changed], hot)
        assert touch.all()


@pytest.mark.parametrize("directed", [False, True])
def test_reweight_keeps_its_entries_unsorted(monkeypatch, directed):
    # the entries of g are canonical, so the result is the validated
    # construction on its weights bit for bit, with no argsort run: a
    # weighted result, and an all-ones one that holds no weight array
    cases = []
    for n, p, cap in ((500, 0.02, 6.0), (300, 0.01, 50.0), (40, 0.0, 1.0)):
        g = (sample_directed if directed else sample)(Uniform(n, p), MASTER)
        deg = g.degrees()
        lam = np.ones(n)
        lam[deg > 0] = np.minimum(cap / deg[deg > 0], 1.0)
        ref = SparseGraph(n, g.i, g.j, np.sqrt(lam[g.i] * lam[g.j]),
                          directed=directed)
        cases.append((g, cap, ref))
    assert cases[0][2].weighted and not cases[1][2].weighted

    def no_argsort(*args, **kwargs):
        raise AssertionError("argsort called")

    monkeypatch.setattr(np, "argsort", no_argsort)
    for g, cap, ref in cases:
        out = proportional_reweight(g, cap)
        assert out.weighted == ref.weighted and out.directed == directed
        for key in ("i", "j", "w"):
            a, b = getattr(out, key), getattr(ref, key)
            assert a.dtype == b.dtype and np.array_equal(a, b), key


# ---------------------------------------------------------------------------
# tau shift


def test_tau_shift_degrees():
    g = sample(Uniform(40, 0.2), MASTER)
    assert_close(tau_shift(g, 0.0).degrees(), g.degrees(), 0.0)
    assert_close(tau_shift(g, 3.5).degrees(), g.degrees() + 3.5, 0.0)
    assert_close(tau_shift(empty(12), 12.0).degrees(), np.full(12, 12.0), 0.0)
    with pytest.raises(ValueError):
        tau_shift(g, -1.0)


def test_non_finite_caps_and_taus_are_refused():
    # NaN fails every comparison, so "cap <= 0" let it through
    g = star(6)
    for scheme in (high_degree_set, proportional_reweight, trim_edges):
        with pytest.raises(ValueError, match="cap"):
            scheme(g, np.nan)
    for tau in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau"):
            tau_shift(g, tau)


def test_tau_shift_dense_matches_its_operator():
    # A_tau = A + (tau/n) 11^T, the diagonal included
    g = sample(Uniform(30, 0.2), MASTER)
    x = tau_shift(g, 2.5)
    D = x.to_dense()
    assert_close(D, g.to_dense() + 2.5 / 30, 0.0)
    assert_close(adjacency_shifted_op(x).to_dense(), D, 1e-14)
    assert_close(D.sum(axis=1), x.degrees(), 1e-12)


# ---------------------------------------------------------------------------
# laplacian


_UNDIRECTED = lambda: sample(Uniform(300, 6 / 300), MASTER)
# a 0/1 sample, its proportional reweighting, a directed sample's A^T,
# an edge-less graph and one with empty rows
CSR_CASES = {
    "zero-one": lambda: _UNDIRECTED().to_csr(),
    "reweighted": lambda: proportional_reweight(_UNDIRECTED(), 4.0).to_csr(),
    "directed-transpose": lambda: sample_directed(
        Uniform(200, 4 / 200), MASTER).to_csr().T.tocsr(),
    "edgeless": lambda: SparseGraph(40, [], [], []).to_csr(),
    "empty-rows": lambda: SparseGraph(50, [0, 3, 3], [7, 9, 40],
                                      np.ones(3)).to_csr()}


@pytest.mark.parametrize("case", list(CSR_CASES))
def test_csr_product_is_scipys_matmul_bit_for_bit(case):
    # _scipy.csr_product calls scipy's private csr kernel itself: it must
    # give A @ x bit for bit, so a scipy release that moves or changes
    # the kernel fails here; adjacency_shifted_op runs on it
    A = CSR_CASES[case]()
    rng = np.random.default_rng(len(case))
    product = _scipy.csr_product(A)
    for x in (rng.standard_normal(A.shape[1]), np.ones(A.shape[1]),
              rng.standard_normal(2 * A.shape[1])[::2]):
        assert product(x).tobytes() == (A @ x).tobytes()
        assert product(x) is not product(x)  # a fresh vector every call


def test_laplacian_triangle():
    vals = full_spectrum(laplacian(complete(3)).to_dense())
    assert_close(vals, [0.0, 1.5, 1.5], 1e-12)


def test_laplacian_empty_graph_shifted():
    n = 9
    vals = full_spectrum(laplacian(tau_shift(empty(n), 4.0)).to_dense())
    assert_close(vals, [0.0] + [1.0] * (n - 1), 1e-12)


def test_laplacian_kernel_vector():
    g = sample(Uniform(80, 0.15), MASTER)
    x = tau_shift(g, 2.0)
    L = laplacian(x)
    k = np.sqrt(x.degrees())
    assert np.linalg.norm(L.matvec(k)) <= 1e-10 * np.linalg.norm(k)


def test_laplacian_refuses_zero_degree():
    g = SparseGraph(4, [0], [1], [1.0])  # vertices 2, 3 isolated
    with pytest.raises(ZeroDegree, match="vertex 2 has zero shifted degree"):
        laplacian(g)
    laplacian(tau_shift(g, 0.5))  # the documented cure
    with pytest.raises(ZeroDegree, match="vertex 0 "):
        laplacian(SparseGraph(0, [], [], []))


def test_tau_shift_of_an_empty_graph_shifts_no_entry():
    # c = tau/n is 0 at n = 0, read by to_dense and adjacency_shifted_op
    x = tau_shift(SparseGraph(0, [], []), 1.0)
    assert x.shift == 0.0
    assert x.to_dense().shape == (0, 0)
    assert adjacency_shifted_op(x).matvec(np.zeros(0)).shape == (0,)
    assert tau_shift(empty(8), 2.0).shift == 0.25


@pytest.mark.parametrize("tau", [0.0, 2.5])
def test_laplacian_normalizes_the_shifted_adjacency(tau):
    # L(A_tau) = I - D^{-1/2} A_tau D^{-1/2}, A_tau the product of
    # adjacency_shifted_op and D the shifted degrees
    g = sample(Uniform(40, 0.2), MASTER)
    x = tau_shift(g, tau)
    s = np.diag(1.0 / np.sqrt(x.degrees()))
    ref = np.eye(40) - s @ adjacency_shifted_op(x).to_dense() @ s
    assert_close(laplacian(x).to_dense(), ref, 1e-14)


def test_laplacian_refuses_a_directed_graph():
    # its A_tau is not symmetric, so an op flagged symmetric would be a
    # wrong matrix: spectral_norm ran to its 20000-step cap on the
    # Laplacian of this shifted graph, whose dense norm is 1.81
    g = sample_directed(Uniform(60, 0.1), 3)
    for x in (g, tau_shift(g, 1.0)):
        with pytest.raises(ValueError, match="expects an undirected graph"):
            laplacian(x)
    with pytest.raises(ValueError, match="expects an undirected graph"):
        detect(g, 1.0)


@given(st.integers(0, 2**32 - 1))
def test_laplacian_spectrum_in_0_2(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    M = np.triu((rng.random((n, n)) < 0.3).astype(float), 1)
    g = SparseGraph.from_dense(M + M.T)
    vals = full_spectrum(laplacian(tau_shift(g, 1.0)).to_dense())
    assert vals.min() >= -1e-9 and vals.max() <= 2.0 + 1e-9


def _explicit_p(n):
    rng = np.random.default_rng(MASTER)
    P = np.triu(rng.random((n, n)) * 0.3, 1)
    return Explicit(P + P.T)


@pytest.mark.parametrize("tau", [0.5, 2.0])
@pytest.mark.parametrize("model", [
    Uniform(50, 0.1),
    BlockTwo(50, 12, 3),
    RankOne(40, np.linspace(0.05, 0.9, 40)),  # no theta_i theta_j clips
    RankOne(40, np.linspace(0.05, 1.4, 40)),  # theta_i theta_j > 1 clips
    _explicit_p(30),
], ids=["uniform", "blocktwo", "rankone", "rankone-clipped", "explicit"])
def test_expected_laplacian_matches_dense(model, tau):
    n = model.n
    P = expected_dense(model) + tau / n
    D = P.sum(axis=1)
    ref = np.eye(n) - P / np.sqrt(np.outer(D, D))
    assert_close(expected_laplacian(model, tau).to_dense(), ref, 1e-12)


def test_expected_laplacian_refuses_zero_degree():
    with pytest.raises(ZeroDegree, match="vertex 0 has zero shifted degree"):
        expected_laplacian(Uniform(10, 0.0), 0.0)
    P = np.full((5, 5), 0.5)
    P[3], P[:, 3] = 0.0, 0.0  # vertex 3 has no expected edge
    with pytest.raises(ZeroDegree, match="vertex 3 "):
        expected_laplacian(Explicit(P), 0.0)
    expected_laplacian(Explicit(P), 0.5)  # the documented cure


# ---------------------------------------------------------------------------
# scheme dispatch and shared invariants


def test_apply_scheme_dispatch():
    g = sample(Uniform(60, 0.1), MASTER)
    assert apply_scheme(g, "identity") is g
    assert apply_scheme(g, "tau", tau=3.0).tau == 3.0
    for name in ("remove", "trim", "reweight"):
        out = apply_scheme(g, name, cap=4.0)
        assert out.degrees().size == 60
    with pytest.raises(ValueError):
        apply_scheme(g, "trim")  # cap required
    with pytest.raises(ValueError):
        apply_scheme(g, "tau")  # tau required
    with pytest.raises(ValueError):
        apply_scheme(g, "banana", cap=1.0)


def test_schemes_preserve_symmetry_and_domination():
    g = sample(Uniform(120, 0.08), MASTER, 2)
    A = g.to_dense()
    cap = 6.0
    for name in ("remove", "trim", "reweight"):
        out = apply_scheme(g, name, cap=cap)
        M = out.to_dense()
        assert_close(M, M.T, 0.0, name)
        assert np.all(M <= A + 1e-15), name
        assert np.all(M >= 0.0), name
