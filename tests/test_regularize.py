"""Regularization schemes: feasibility, locality, and Laplacian algebra."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphconc import (
    SparseGraph,
    Uniform,
    ZeroDegree,
    adjacency_shifted_op,
    apply_scheme,
    average_degree,
    expected_dense,
    expected_laplacian,
    full_spectrum,
    high_degree_set,
    laplacian,
    proportional_reweight,
    remove_vertices,
    sample,
    tau_shift,
    trim_edges,
)

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
    with pytest.raises(ZeroDegree):
        laplacian(g)
    laplacian(tau_shift(g, 0.5))  # the documented cure


@given(st.integers(0, 2**32 - 1))
def test_laplacian_spectrum_in_0_2(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    M = np.triu((rng.random((n, n)) < 0.3).astype(float), 1)
    g = SparseGraph.from_dense(M + M.T)
    vals = full_spectrum(laplacian(tau_shift(g, 1.0)).to_dense())
    assert vals.min() >= -1e-9 and vals.max() <= 2.0 + 1e-9


def test_expected_laplacian_matches_dense():
    m = Uniform(50, 0.1)
    tau = 2.0
    L = expected_laplacian(m, tau)
    P = expected_dense(m) + tau / 50
    D = P.sum(axis=1)
    ref = np.eye(50) - P / np.sqrt(np.outer(D, D))
    assert_close(L.to_dense(), ref, 1e-12)
    with pytest.raises(ZeroDegree):
        expected_laplacian(Uniform(10, 0.0), 0.0)


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
