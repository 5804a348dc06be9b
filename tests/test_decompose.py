"""N/R/C edge decomposition: construction, verifier, serialization."""

import csv
import dataclasses
import importlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from graphconc.decompose import CLASS_C, CLASS_N, CLASS_R
from graphconc import (
    BlockTwo,
    EdgeDecomposition,
    Explicit,
    GPCertificate,
    LinearOp,
    RankOne,
    SizeExceeded,
    SparseGraph,
    Uniform,
    decompose,
    decomposition_to_csv,
    expected_dense,
    gp_submatrix,
    sample,
    sample_directed,
    trace_to_json,
    transposed,
    triangle_split,
    verify_decomposition,
)

from graphconc import _scipy
from graphconc.cli import run_command
from graphconc.models import model_from_dict
from graphconc.spectral import spectral_norm

from conftest import MASTER, traced_peak
from test_golden import RUNS, SEED, TRIALS

# the package's ``decompose`` attribute is the function; GP is counted at
# the name the module imports
dmod = importlib.import_module("graphconc.decompose")


def zero_ea(n):
    """The model whose EA is 0."""
    return Uniform(n, 0.0)


def directed_star_rows(n):
    """Row 0 owns every edge (0, j)."""
    return SparseGraph(n, np.zeros(n - 1, dtype=int), np.arange(1, n),
                       np.ones(n - 1), directed=True)


def empty_directed(n):
    return SparseGraph(n, [], [], [], directed=True)


# ---------------------------------------------------------------------------
# triangle split


def test_triangle_split_covers_graph():
    g = sample(Uniform(30, 0.2), MASTER)
    up, lo = triangle_split(g)
    assert up.directed and lo.directed
    assert np.all(up.i < up.j) and np.all(lo.i > lo.j)
    assert up.nnz == lo.nnz == g.nnz
    assert np.array_equal(up.to_dense() + lo.to_dense(), g.to_dense())


def test_triangle_split_refuses_a_directed_graph():
    with pytest.raises(ValueError, match="expects an undirected graph"):
        triangle_split(sample_directed(Uniform(12, 0.3), MASTER))


# ---------------------------------------------------------------------------
# one block round


def block_pass(A, alpha, r, d):
    """One round on the whole square of a directed 0/1 A, with EA = 0."""
    I = J = np.arange(A.n)
    zero = dmod._ea_reader(zero_ea(A.n), A.n, "full")
    return dmod._block_pass(A.to_csr(), zero, I, J, alpha, r, d, A.n)


def test_block_on_empty_graph_is_all_core():
    grid, I1, J1, _ = block_pass(empty_directed(16), 1.0, 1.0, 1.0)
    assert not I1.any() and not J1.any()
    assert np.all(grid == CLASS_N)  # whole rectangle covered by the core


def test_block_alpha_precondition():
    with pytest.raises(ValueError):
        block_pass(empty_directed(16), 0.5, 1.0, 1.0)


def test_block_partition_is_exact():
    n = 32
    up, _ = triangle_split(sample(Uniform(n, 4.0 / n), MASTER))
    grid, I1, J1, _ = block_pass(up, 1.0, 1.0, 4.0)
    hole = np.outer(I1, J1)
    # one class per pair outside the hole I1 x J1, none inside it
    assert np.isin(grid[~hole], (CLASS_N, CLASS_R, CLASS_C)).all()
    assert np.all(grid[hole] == -1)


# ---------------------------------------------------------------------------
# the driver


def test_single_heavy_row_lands_in_c():
    # a full row fails the 8 r alpha d filter, its entries become the
    # column class (each column holds one entry, far under 32r)
    n = 40
    A = directed_star_rows(n)
    dec = decompose(A, zero_ea(n), r=1.0, d=1.0)
    assert np.all(dec.class_of[0, 1:] == CLASS_C)
    assert verify_decomposition(A, zero_ea(n), dec)["structural_ok"]


def test_single_heavy_column_lands_in_r():
    n = 40
    A = directed_star_rows(n)
    At = SparseGraph(n, A.j, A.i, A.w, directed=True)
    dec = decompose(At, zero_ea(n), r=1.0, d=1.0)
    assert np.all(dec.class_of[1:, 0] == CLASS_R)
    assert verify_decomposition(At, zero_ea(n), dec)["structural_ok"]


def test_decompose_covers_every_pair():
    n = 64
    m = Uniform(n, 4.0 / n)
    g = sample(m, MASTER)
    up, lo = triangle_split(g)
    for part in (up, lo):
        dec = decompose(part, m, r=1.0, d=4.0)
        counts = dec.counts()
        assert sum(counts.values()) == n * n
        rep = verify_decomposition(part, m, dec)
        assert rep["structural_ok"]
        assert rep["r_footprint_ok"] and rep["c_footprint_ok"]


def test_cap_exceptional_keeps_the_worst_offenders():
    # GP-rejected first, then ones descending, then index ascending
    mask = np.array([1, 1, 1, 1, 0, 1], dtype=bool)
    rejected = np.array([0, 0, 1, 0, 0, 0], dtype=bool)
    ones = np.array([5, 7, 0, 7, 9, 5])
    kept, capped = dmod._cap_exceptional(mask, 3, rejected, ones)
    assert capped and np.flatnonzero(kept).tolist() == [1, 2, 3]
    same, capped = dmod._cap_exceptional(mask, 5, rejected, ones)
    assert not capped and np.array_equal(same, mask)


def test_planted_block_caps_the_exceptional_sets():
    # 40 heavy rows fail the 8-ones filter and put ~36 ones in almost
    # every column, far above 32r: ~60 exceptional columns, capped at
    # m/2 = 32.  Columns 0..2 are light in those rows but dense in the 24
    # filtered rows.  Against EA = 0.02 they carry the GP block's norm,
    # which fails the uniform check (at 1.31 of its target), so GP's
    # descent rejects them; they are kept first.
    n, cap = 64, 32
    M = np.zeros((n, n), dtype=bool)
    M[:40] = np.random.default_rng(5).random((40, n)) < 0.9
    M[:40, :3] = False
    M[40:, :3] = True
    np.fill_diagonal(M, False)
    A = SparseGraph(n, *np.nonzero(M), np.ones(M.sum()), directed=True)
    model = Uniform(n, 0.02)
    EA = expected_dense(model)
    dec = decompose(A, model, r=1.0, d=1.0, gp_iters=50)
    first = dec.block_trace[0]
    assert first["gp_cols"]["route"] == "descent"
    assert first["capped_J1"] and first["capped_I1"]
    assert len(first["J1"]) == len(first["I1"]) == cap

    good = M.sum(axis=1) <= first["row_cap"]
    J_gp, _ = dmod.gp_submatrix(M[good] - EA[good], 0.25, max_iter=50)
    rejected = ~np.isin(np.arange(n), J_gp)
    assert np.flatnonzero(rejected).tolist() == [0, 1, 2]
    ones = M[~good].sum(axis=0)
    exceptional = [j for j in range(n) if rejected[j] or ones[j] > 32]
    assert len(exceptional) > cap
    order = sorted(exceptional, key=lambda j: (not rejected[j], -ones[j], j))
    assert first["J1"] == sorted(order[:cap])
    assert verify_decomposition(A, model, dec)["structural_ok"]


def heavy_columns_and_rows(n=64):
    """(A, model): columns 0..2 hold 40 ones each (rows 10..49) and rows
    0..2 six each (columns 40..45), with EA = 0.01 off the diagonal.
    Every row and column passes GP's blocks, both fail the uniform
    check, and the descents reject columns 0..2 and rows 0..2."""
    M = np.zeros((n, n), dtype=bool)
    M[10:50, :3] = True
    M[:3, 40:46] = True
    return (SparseGraph(n, *np.nonzero(M), np.ones(M.sum()), directed=True),
            Uniform(n, 0.01))


def test_a_small_hole_goes_to_n_without_gp(monkeypatch):
    # GP rejects 3 rows and 3 columns, so round 2 holds a 3 x 3 block at
    # nominal m = 32: it is dumped into N by its size, and the classes
    # are those of a GP round on it
    A, model = heavy_columns_and_rows()
    calls = count_gp(monkeypatch)
    dec = decompose(A, model, r=1.0, d=1.0, gp_iters=60)
    first, second = dec.block_trace
    assert first["gp_cols"]["route"] == first["gp_rows"]["route"] == "descent"
    assert first["I1"] == first["J1"] == [0, 1, 2]
    assert (second["m"], second["rows"], second["cols"]) == (32, 3, 3)
    assert second["all_n"] and "gp_cols" not in second
    assert len(calls) == 2
    assert dec.counts()["R"] > 0
    assert verify_decomposition(A, model, dec)["structural_ok"]

    monkeypatch.setattr(dmod, "TINY_BLOCK", 0)  # GP on every block
    gp_everywhere = decompose(A, model, r=1.0, d=1.0, gp_iters=60)
    rounds = gp_everywhere.block_trace
    assert len(rounds) == 2 and rounds[1]["rows"] == rounds[1]["cols"] == 3
    assert rounds[1]["gp_cols"]["route"] == "uniform"
    assert np.array_equal(gp_everywhere.class_of, dec.class_of)


def test_a_failing_decision_runs_gp_submatrix_on_each_side():
    # every row and column is good, but three heavy columns fail the one
    # decision: the round's GP is then gp_submatrix on the block and on
    # its transpose, certificates and selections field for field
    B = 0.05 * np.random.default_rng(44).standard_normal((40, 64))
    B[:, :3] = 1.0
    assert dmod.gp_submatrix_both(B, 0.25, max_iter=120)[1] is None
    got = dmod._gp_both(B.copy(), np.ones(40, dtype=bool),
                        np.ones(64, dtype=bool), 120)
    want = (gp_submatrix(B, 0.25, max_iter=120),
            gp_submatrix(B.T, 0.25, max_iter=120))
    assert got[0][1].route == "descent"
    for (J, cert), (J_want, cert_want) in zip(got, want):
        assert J.tolist() == J_want.tolist() and cert == cert_want


def test_dense_ea_is_refused_above_the_limit():
    # refused before any n x n work: no block of EA is read
    n = dmod.DENSE_LIMIT + 1
    with pytest.raises(SizeExceeded):
        decompose(empty_directed(n), zero_ea(n), r=1.0, d=1.0)


def test_decompose_refuses_bad_r_and_d():
    # r = -1 made verify's r^{3/2} complex; NaN painted every row bad
    A = empty_directed(12)
    for r, d in ((np.nan, 1.0), (-1.0, 1.0), (0.0, 1.0), (np.inf, 1.0),
                 (1.0, np.nan), (1.0, 0.0)):
        with pytest.raises(ValueError, match="finite r > 0 and d > 0"):
            decompose(A, zero_ea(12), r=r, d=d)


def test_decompose_rejects_undirected():
    g = sample(Uniform(12, 0.3), MASTER)
    with pytest.raises(ValueError):
        decompose(g, zero_ea(12), r=1.0, d=1.0)
    A = SparseGraph(4, [0, 1], [1, 2], [0.5, 1.0], directed=True)
    with pytest.raises(ValueError, match="expects a 0/1 adjacency"):
        decompose(A, zero_ea(4), r=1.0, d=1.0)


def test_dense_block_recovers_via_row_filter_empty():
    # every row of a complete directed graph violates a tiny degree cap;
    # the driver flags the round and dumps the block into N eventually
    n = 12
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    A = SparseGraph(n, i, j, np.ones(i.size), directed=True)
    dec = decompose(A, zero_ea(n), r=1.0, d=0.001)
    assert sum(dec.counts().values()) == n * n
    assert any(t.get("row_filter_empty") for t in dec.block_trace)


def test_verifier_negative_control():
    # 33 ones in a single R row breaks the per-row bound at r = 1
    n = 40
    A = SparseGraph(n, np.zeros(33, dtype=int), np.arange(1, 34),
                    np.ones(33), directed=True)
    labels = np.zeros((n, n), dtype=np.int8)
    labels[0, 1:34] = CLASS_R
    dec = EdgeDecomposition(n, labels, r=1.0, d=1.0, block_trace=())
    rep = verify_decomposition(A, zero_ea(n), dec)
    assert rep["structural_ok"] is False
    assert rep["max_r_row_ones"] == 33 and rep["max_c_col_ones"] == 0


VERIFY_KEYS = ("structural_ok", "r_footprint_ok", "c_footprint_ok",
               "max_r_row_ones", "max_c_col_ones", "r_cols", "c_rows",
               "norm_n", "norm_steps", "norm_eps", "norm_ratio", "rounds",
               "gp_target_met")


def test_verify_returns_the_record_in_column_order():
    # the record of one part, under the decompose command's trial columns
    # in their order, with Python bools, ints and floats; d below the
    # sample's degree 8 gives both triangles R cells, the lower one C too
    n, r, d = 64, 0.25, 2.0
    model = Uniform(n, 8.0 / n)
    parts = [*zip(triangle_split(sample(model, MASTER)), ("upper", "lower")),
             (sample_directed(model, MASTER), "full")]
    for A, part in parts:
        dec = decompose(A, model, r, d, gp_iters=60, part=part)
        rep = verify_decomposition(A, model, dec)
        assert tuple(rep) == VERIFY_KEYS
        for keys, kind in ((VERIFY_KEYS[:3] + ("gp_target_met",), bool),
                           (VERIFY_KEYS[3:7] + ("norm_steps", "rounds"), int),
                           (("norm_n", "norm_eps", "norm_ratio"), float)):
            assert [type(rep[k]) for k in keys] == [kind] * len(keys)
        ones, labels = A.to_dense() != 0, dec.class_of
        assert rep["max_r_row_ones"] == (ones & (labels == CLASS_R)).sum(1).max()
        assert rep["max_c_col_ones"] == (ones & (labels == CLASS_C)).sum(0).max()
        assert rep["r_cols"] == (labels == CLASS_R).any(0).sum() > 0
        assert rep["c_rows"] == (labels == CLASS_C).any(1).sum()
        assert rep["structural_ok"] == (
            max(rep["max_r_row_ones"], rep["max_c_col_ones"]) <= 32 * r)
        assert rep["norm_ratio"] == rep["norm_n"] / (r ** 1.5 * np.sqrt(d))
        assert rep["rounds"] == len(dec.block_trace)
        assert rep["gp_target_met"] == all(b["target_met"]
                                           for b in gp_blocks(dec))


def mask_counts(A, labels):
    """The verifier's R and C counts by n x n masks of A's ones."""
    ones = A.to_dense() != 0
    is_r, is_c = labels == CLASS_R, labels == CLASS_C
    return {"max_r_row_ones": int((ones & is_r).sum(axis=1).max(initial=0)),
            "max_c_col_ones": int((ones & is_c).sum(axis=0).max(initial=0)),
            "r_cols": int(is_r.any(axis=0).sum()),
            "c_rows": int(is_c.any(axis=1).sum())}


def test_verifier_counts_r_and_c_at_the_edges():
    # the counts taken at A's edges are the n x n mask formulas, on the
    # planted corner and on r = 1/4, d = 2 samples: both triangles (L's
    # decomposition transposed from U's, and its own) and a directed one
    up, lo = triangle_split(planted_corner())
    upper = decompose(up, zero_ea(64), 0.25, 1.0, gp_iters=60, part="upper")
    cases = [(up, zero_ea(64), upper), (lo, zero_ea(64), transposed(upper))]
    n, r, d = 128, 0.25, 2.0
    model = Uniform(n, d / n)
    for t in range(2):
        up, lo = triangle_split(sample(model, MASTER, t))
        upper = decompose(up, model, r, d, gp_iters=120, part="upper")
        cases += [(up, model, upper), (lo, model, transposed(upper)),
                  (lo, model,
                   decompose(lo, model, r, d, gp_iters=120, part="lower"))]
        directed = sample_directed(model, MASTER, t)
        cases.append((directed, model,
                      decompose(directed, model, r, d, gp_iters=120)))
    seen = dict.fromkeys(("max_r_row_ones", "max_c_col_ones"), 0)
    for A, m, dec in cases:
        rep = verify_decomposition(A, m, dec)
        want = mask_counts(A, dec.class_of)
        assert {k: rep[k] for k in want} == want
        for k in seen:
            seen[k] = max(seen[k], rep[k])
    assert seen["max_r_row_ones"] > 0 and seen["max_c_col_ones"] > 0


def test_decomposition_carries_its_part(monkeypatch):
    # decompose records its part and transposed exchanges upper and
    # lower; an unknown part is refused, by decompose before any EA read
    n = 48
    model = Uniform(n, 4.0 / n)
    up, lo = triangle_split(sample(model, MASTER))
    for A, part, flipped in ((up, "upper", "lower"), (lo, "lower", "upper"),
                             (sample_directed(model, MASTER), "full", "full")):
        dec = decompose(A, model, 1.0, 4.0, gp_iters=20, part=part)
        assert dec.part == part and transposed(dec).part == flipped
        assert transposed(transposed(dec)).part == part
    labels = np.zeros((3, 3), dtype=np.int8)
    with pytest.raises(ValueError, match="part must be"):
        EdgeDecomposition(3, labels, 1.0, 1.0, (), part="diagonal")

    def no_read(*args):
        raise AssertionError("EA read for an unknown part")

    monkeypatch.setattr(dmod, "_ea_reader", no_read)
    for part in ("triangle", None):
        with pytest.raises(ValueError, match="part must be"):
            decompose(up, model, 1.0, 4.0, part=part)


def test_hand_built_decomposition_verifies_as_full():
    # a decomposition built without a part is of the full EA; one built
    # as "upper" is centred by triu(EA) alone
    n = 40
    model = Uniform(n, 0.2)
    A, P = sample_directed(model, MASTER), expected_dense(model)
    labels = np.zeros((n, n), dtype=np.int8)
    full = EdgeDecomposition(n, labels, r=1.0, d=8.0, block_trace=())
    upper = EdgeDecomposition(n, labels, 1.0, 8.0, (), part="upper")
    assert full.part == "full"
    for dec, EA in ((full, P), (upper, np.triu(P, 1))):
        rep = verify_decomposition(A, model, dec)
        ref = np.linalg.svd(A.to_dense() - EA, compute_uv=False)[0]
        assert rep["norm_n"] == pytest.approx(ref, rel=1e-9)


def test_verifier_norm_on_empty_graph():
    # with every pair in N, ||(A - EA)_N|| is just ||EA||
    n = 32
    m = Uniform(n, 2.0 / n)
    dec = decompose(empty_directed(n), m, r=1.0, d=2.0)
    rep = verify_decomposition(empty_directed(n), m, dec)
    assert sum(dec.counts().values()) == n * n
    assert rep["norm_n"] == pytest.approx((n - 1) * 2.0 / n, rel=1e-6)


def test_verifier_norm_matches_dense_svd():
    # 32 < n <= 1024: spectral_norm against LAPACK's SVD, on the
    # triangle parts, a directed sample and -EA, all by Lanczos on the
    # Gram: the verifier scans no part for a symmetry
    n = 96
    m = Uniform(n, 6.0 / n)
    EA = expected_dense(m)
    up, lo = triangle_split(sample(m, MASTER))
    for part in (up, lo, sample_directed(m, MASTER), empty_directed(n)):
        dec = decompose(part, m, r=1.0, d=6.0)
        rep = verify_decomposition(part, m, dec)
        dev_n = (part.to_dense() - EA) * (dec.class_of == CLASS_N)
        ref = np.linalg.svd(dev_n, compute_uv=False)[0]
        assert rep["norm_n"] == pytest.approx(ref, rel=1e-9)


def test_decompose_and_verify_leave_their_inputs_alone():
    # both work in place on arrays of their own: the caller's A and the
    # model's arrays, directed or a triangle, are read and never written
    n, d, r = 96, 8.0, 3.0
    uniform = Uniform(n, d / n)
    explicit = Explicit(expected_dense(uniform))
    rankone = RankOne(n, np.linspace(0.1, 0.4, n))
    up, lo = triangle_split(sample(uniform, MASTER))
    directed = sample_directed(uniform, MASTER)
    for A, model, part in ((directed, uniform, "full"),
                           (directed, explicit, "full"),
                           (up, rankone, "upper"), (lo, explicit, "lower")):
        inputs = (A.i, A.j, A.w, explicit.P, rankone.theta)
        before = [x.copy() for x in inputs]
        dec = decompose(A, model, r, d, gp_iters=60, part=part)
        verify_decomposition(A, model, dec)
        for old, new in zip(before, inputs):
            assert np.array_equal(old, new)


def test_factored_ea_decomposes_as_the_dense_one():
    # a structured model and the Explicit model of its dense EA give the
    # same classes and report, part by part, bit for bit
    n, d, r = 96, 8.0, 3.0
    model = BlockTwo(n, 12.0, 4.0)
    dense = Explicit(expected_dense(model))
    up, lo = triangle_split(sample(model, MASTER))
    for A, part in ((up, "upper"), (lo, "lower"),
                    (sample_directed(model, MASTER), "full")):
        got = decompose(A, model, r, d, gp_iters=60, part=part)
        want = decompose(A, dense, r, d, gp_iters=60, part=part)
        assert np.array_equal(got.class_of, want.class_of)
        # the verifier multiplies by BlockTwo's EA triangle, from its
        # factors, and by Explicit's, from strips of P: norm_n within
        # 1e-14, every other key equal
        rep = verify_decomposition(A, model, got)
        ref = verify_decomposition(A, dense, want)
        assert rep.pop("norm_n") == pytest.approx(ref.pop("norm_n"),
                                                  rel=1e-14, abs=0.0)
        ratio = rep.pop("norm_ratio") / ref.pop("norm_ratio")
        assert ratio == pytest.approx(1.0, rel=1e-14, abs=0.0)
        assert rep == ref
    with pytest.raises(ValueError, match="EA shape mismatch"):
        decompose(up, Uniform(n + 1, 0.1), r, d, part="upper")


def dense_route(A, model, dec):
    """spectral_norm of (A - EA)_N densified, EA read block by block as
    ``decompose`` centres A: the verifier's reference."""
    n = A.n
    every = np.arange(n)
    dev = dmod._centred(dmod._zero_one(A).to_csr(),
                        dmod._ea_reader(model, n, dec.part), every, every)
    dev *= dec.class_of == CLASS_N
    return spectral_norm(LinearOp.from_dense(dev, symmetric=False))


def assert_verified_as_dense(A, model, dec):
    """The verifier's norm_n within 1e-14 relative of the dense route's,
    with equal steps and eps; returns the record."""
    rep = verify_decomposition(A, model, dec)
    ref = dense_route(A, model, dec)
    assert rep["norm_n"] == pytest.approx(ref.value, rel=1e-14, abs=0.0)
    assert (rep["norm_steps"], rep["norm_eps"]) == (ref.steps, ref.eps)
    return rep


def test_verifier_agrees_with_the_dense_route_on_the_golden_configs():
    # every decompose run of the golden digests, both trials, each part
    # (L's decomposition transposed from U's, as the command does)
    # the kinds whose triangle is no product of factors, each with
    # whether it was directed: a directed part subtracts the model's
    # ea_op, an Explicit's P and a clipping RankOne's sorted sums
    seen = set()
    for label, command, cfg in RUNS:
        if command != "decompose":
            continue
        model = (model_from_dict(cfg["model"]) if "model" in cfg
                 else Uniform(cfg["n"], cfg["d"] / cfg["n"]))
        directed = cfg.get("directed", False)
        if isinstance(model, Explicit):
            seen.add(("explicit", directed))
        elif isinstance(model, RankOne) and model.max_rate() == model.n:
            seen.add(("clipping-rankone", directed))
        for t in range(TRIALS):
            if directed:
                parts = [("full", sample_directed(model, SEED, t))]
            else:
                parts = zip(("upper", "lower"),
                            triangle_split(sample(model, SEED, t)))
            dec = None
            for part, A in parts:
                dec = (transposed(dec) if part == "lower" else
                       decompose(A, model, cfg["r"], cfg["d"],
                                 gp_iters=cfg["gp_iters"], part=part))
                assert_verified_as_dense(A, model, dec)
    assert seen == {(kind, directed) for kind in ("explicit",
                                                  "clipping-rankone")
                    for directed in (False, True)}


def planted_parts():
    """(A, model, dec) of planted blocks that fill R and C: a directed
    part against EA = 0.02 and the corner's two triangles against EA = 0
    and 0.05."""
    n = 64
    M = np.zeros((n, n), dtype=bool)
    M[:40] = np.random.default_rng(5).random((40, n)) < 0.9
    M[:40, :3] = False
    M[40:, :3] = True
    np.fill_diagonal(M, False)
    A = SparseGraph(n, *np.nonzero(M), np.ones(M.sum()), directed=True)
    cases = [(A, Uniform(n, 0.02),
              decompose(A, Uniform(n, 0.02), r=1.0, d=1.0, gp_iters=50))]
    up, lo = triangle_split(planted_corner())
    for model in (zero_ea(n), Uniform(n, 0.05)):
        upper = decompose(up, model, 0.25, 1.0, gp_iters=60, part="upper")
        cases += [(up, model, upper), (lo, model, transposed(upper))]
    return cases


def test_verifier_agrees_with_the_dense_route_on_planted_blocks():
    # the planted blocks fill R and C, so the EA strips of R's columns
    # and C's rows are read
    filled = dict.fromkeys(("r_cols", "c_rows"), 0)
    for A, model, dec in planted_parts():
        rep = assert_verified_as_dense(A, model, dec)
        for k in filled:
            filled[k] += rep[k]
    assert filled["r_cols"] > 0 and filled["c_rows"] > 0
    # heavy_columns_and_rows (R cells in 3 columns) agrees in value only:
    # its Gram Lanczos loses orthogonality from step 8 on, so the two
    # routes' last-bit differences grow into other recurrences; the
    # dense one ends on beta / scale = 6.5e-13, below the 1e-12
    # breakdown test, at step 19, this one on the stop test at step 20
    A, model = heavy_columns_and_rows()
    dec = decompose(A, model, r=1.0, d=1.0, gp_iters=60)
    rep, ref = verify_decomposition(A, model, dec), dense_route(A, model, dec)
    assert rep["r_cols"] == 3
    assert rep["norm_n"] == pytest.approx(ref.value, rel=1e-14, abs=0.0)


def csr_deviation(A_N, ea, strips):
    """(A - EA)_N's products as the verifier once wrote them itself:
    scipy's csr kernel on A_N's csr and on its transpose's, less the
    part's EA operator, plus the EA strips of R's columns and C's rows;
    the reference for the composed operator of ``_sparse_deviation``."""
    (cols, on_r), (rows, on_c) = strips
    csr = A_N.to_csr()
    a, a_t = _scipy.csr_product(csr), _scipy.csr_product(csr.T.tocsr())

    def product(x, a, e, cells, on, lines, across):
        y = a(x)
        y -= e(x)
        if cells.size:
            y += on @ x[cells]
        if lines.size:
            y[lines] += across @ x
        return y

    return (lambda x: product(x, a, ea._matvec, cols, on_r, rows, on_c),
            lambda x: product(x, a_t, ea._rmatvec, rows, on_c.T, cols,
                              on_r.T))


def test_verifier_deviation_is_the_csr_formulation_bit_for_bit():
    # the verifier's (A - EA)_N is compose_difference of the N edges'
    # adjacency_shifted_op and the part's EA, plus the R and C strips:
    # every product and transposed product equals the hand-written csr
    # pair's, on a directed part and on both triangles, R and C filled
    rng = np.random.default_rng(6)
    for A, model, dec in planted_parts():
        labels = dec.class_of
        r_cols = np.flatnonzero((labels == CLASS_R).any(axis=0))
        c_rows = np.flatnonzero((labels == CLASS_C).any(axis=1))
        assert r_cols.size and c_rows.size
        A_N = A.subset(labels[A.i, A.j] == CLASS_N)
        ea = dmod._PARTS[dec.part][2](model)
        strips = dmod._ea_strips(dmod._ea_reader(model, A.n, dec.part),
                                 labels, r_cols, c_rows)
        op = dmod._sparse_deviation(A_N, ea, strips)
        mv, rmv = csr_deviation(A_N, ea, strips)
        for _ in range(3):
            x = rng.standard_normal(A.n)
            assert op.matvec(x).tobytes() == mv(x).tobytes()
            assert op.rmatvec(x).tobytes() == rmv(x).tobytes()


def explicit_rows(n, d):
    """Explicit model of a row-scaled P, max n p_ij about d."""
    rng = np.random.default_rng(3)
    P = rng.random((n, n)) * (0.5 + rng.random(n))[:, None]
    P = (P + P.T) * (d / (2 * n))
    return Explicit(P)


def clipping_heavy(n):
    """RankOne whose last 40 vertices clip with every vertex."""
    theta = np.full(n, 1 / 16)
    theta[-40:] = np.linspace(4.0, 12.0, 40)
    return RankOne(n, theta)


def warm_verifier():
    """Verify a small part of each kind of part, so that imports and
    first-call caches land outside a later trace."""
    warm = Uniform(48, 0.1)
    labels = np.zeros((48, 48), np.int8)
    for part, A in (("upper", triangle_split(sample(warm, MASTER))[0]),
                    ("full", sample_directed(warm, MASTER))):
        verify_decomposition(A, warm, EdgeDecomposition(
            48, labels, 3.0, 8.0, (), part=part))


def test_verifying_a_part_holds_no_dense_array():
    # the verifier multiplies by the part's csr and its EA operator (EA's
    # triangle, or the model's ea_op for a directed part): its traced
    # peak on an n = 1024 upper and directed part of a Uniform, an
    # Explicit and a clipping RankOne stays below one n x n float array
    # (8 MB), which the dense route built for (A - EA)_N.  Each model,
    # Explicit's P among them, is built outside the trace
    warm_verifier()
    n = 1024
    labels = np.zeros((n, n), dtype=np.int8)
    for model in (Uniform(n, 8.0 / n), explicit_rows(n, 8.0),
                  clipping_heavy(n)):
        for part, A in (("upper", triangle_split(sample(model, MASTER))[0]),
                        ("full", sample_directed(model, MASTER))):
            dec = EdgeDecomposition(n, labels, 3.0, 8.0, (), part=part)
            rep, peak = traced_peak(verify_decomposition, A, model, dec)
            assert rep["norm_steps"] > 0 and peak < 8 * n * n, \
                (model.kind, part)


def test_verifier_scans_the_labels_in_row_strips():
    # R's columns and C's rows are read off LABEL_ROWS rows of the
    # labels at a time: the traced peak of an n = 4096 Uniform upper
    # part, its labels built outside the trace, stays within n^2 / 4
    # bytes, where the n x n booleans labels == R and labels == C set
    # it at 16.0 MB
    warm_verifier()
    n = 4096
    model = Uniform(n, 8.0 / n)
    up, _ = triangle_split(sample(model, MASTER))
    dec = EdgeDecomposition(n, np.zeros((n, n), np.int8), 3.0, 8.0, (),
                            part="upper")
    rep, peak = traced_peak(verify_decomposition, up, model, dec)
    assert rep["norm_steps"] > 0 and peak <= n * n / 4


def clipping_rankone(n):
    """Config fields of a RankOne whose theta_i theta_j clip at 1, run at
    its max n p_ij = n."""
    return {"n": n, "d": n, "r": 1, "gp_iters": 30,
            "model": {"kind": "rankone", "n": n,
                      "theta": np.linspace(0.1, 1.5, n).tolist()}}


@pytest.mark.parametrize("directed, fields", [
    pytest.param(False, None, id="False"), pytest.param(True, None, id="True"),
    pytest.param(False, clipping_rankone, id="clipping-rankone"),
    pytest.param(True, clipping_rankone, id="clipping-rankone-directed")])
def test_decompose_trial_holds_few_dense_arrays(tmp_path, directed, fields):
    # traced peak of one decompose + verify trial at n = 256, in units of
    # one n x n float array: 3.45 (undirected) and 3.48 (directed) when
    # this bound was set, against 4.45 and 4.48 with a dense EA per part
    # and 8.45 and 6.48 when P, both triangles, the GP block copies and
    # the B * B temporaries were all alive; one more n x n copy anywhere
    # in the trial exceeds it.  Now 2.34 and 2.37, and the clipping
    # RankOne, a nearly complete sample, 3.27 and 3.87: 3.76 and 4.58
    # while the first round copied A's csr (12 B an entry), 4.78
    # undirected when the command held a dense EA
    n = 256

    def config(n):
        return {"n": n, "d": 8, "r": 3, "gp_iters": 120, "write_files": False,
                "directed": directed, **(fields(n) if fields else {})}

    # imports and first-call caches land outside the trace
    run_command("decompose", config(48), MASTER, str(tmp_path / "warm"))
    tracemalloc.start()
    try:
        run_command("decompose", config(n), MASTER, str(tmp_path / "run"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * 8 * n * n


def test_edge_decomposition_validation():
    with pytest.raises(ValueError):
        EdgeDecomposition(3, np.zeros((2, 2), dtype=np.int8), 1.0, 1.0, ())
    bad = np.zeros((3, 3), dtype=np.int8)
    bad[0, 0] = 5
    with pytest.raises(ValueError):
        EdgeDecomposition(3, bad, 1.0, 1.0, ())
    # r and d enter the verifier's 32r cap, KAPPA n/d limit and
    # r^{3/2} sqrt(d) target, so each must be finite and positive
    labels = np.zeros((3, 3), dtype=np.int8)
    for r, d in ((0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0), (1.0, np.inf),
                 (1.0, 0.0)):
        with pytest.raises(ValueError, match="r and d must be finite"):
            EdgeDecomposition(3, labels, r, d, ())


def test_csv_and_trace_roundtrip(tmp_path):
    n = 16
    g = sample(Uniform(n, 0.2), MASTER)
    up, _ = triangle_split(g)
    dec = decompose(up, zero_ea(n), r=1.0, d=3.2)
    csv_path = tmp_path / "classes.csv"
    decomposition_to_csv(dec, csv_path)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "j", "class"]
    assert len(rows) == n * n + 1
    back = np.zeros((n, n), dtype=np.int8)
    names = {"N": CLASS_N, "R": CLASS_R, "C": CLASS_C}
    for i, j, cls in rows[1:]:
        back[int(i), int(j)] = names[cls]
    assert np.array_equal(back, dec.class_of)

    routes = set()
    fields = [f.name for f in dataclasses.fields(GPCertificate)]
    # the sample's blocks pass the uniform check, the planted ones fail it
    for dec in (dec, decompose(*heavy_columns_and_rows(), r=1.0, d=1.0,
                               gp_iters=60)):
        trace_path = tmp_path / "trace.json"
        trace_to_json(dec, trace_path)
        blob = json.loads(trace_path.read_text())
        assert blob["n"] == dec.n
        assert len(blob["rounds"]) == len(dec.block_trace)
        gp_rounds = [rnd for rnd in blob["rounds"] if "gp_cols" in rnd]
        assert gp_rounds
        for rnd, side in ((rnd, side) for rnd in gp_rounds
                          for side in ("gp_cols", "gp_rows")):
            gp = rnd[side]
            routes.add(gp["route"])
            # a block's entry is its certificate, field for field in order
            assert list(gp) == fields
            # the chain the decomposition uses, with delta = 1/4:
            # ||B_J|| sqrt(m/4) <= rhs (1 + 1e-8) + 1e-12, where ||B_J|| <
            # submatrix_bound; rhs is the target itself on the uniform
            # route and f(mu) on the descent route
            m = rnd["cols"] if side == "gp_cols" else rnd["rows"]
            lhs = gp["submatrix_bound"] * np.sqrt(m / 4)
            assert gp["target"] >= 0.0 and isinstance(gp["target_met"], bool)
            if gp["route"] == "uniform":
                assert gp["selected"] == m and gp["iterations"] == 0
                assert gp["achieved"] is gp["achieved_eps"] is None
                assert gp["converged"] is None and gp["target_met"]
                rhs = gp["target"]
            else:
                assert gp["route"] == "descent" and gp["iterations"] >= 1
                assert isinstance(gp["converged"], bool)
                assert 0.0 <= gp["achieved_eps"] < 1.0
                assert gp["target_met"] == (gp["achieved"] <= gp["target"])
                rhs = gp["achieved"]
            assert lhs == pytest.approx(rhs * (1 + 1e-8) + 1e-12, rel=1e-14)
            if gp["target_met"]:
                assert lhs <= (gp["target"] * (1 + 1e-8)
                               + 1e-12) * (1 + 1e-14)
    assert routes == {"uniform", "descent"}


def test_csv_bytes_match_rowwise_writer(tmp_path):
    # reference: one csv.writer line per ordered pair
    n = 16
    labels = np.random.default_rng(16).integers(0, 3, (n, n)).astype(np.int8)
    assert set(np.unique(labels)) == {CLASS_N, CLASS_R, CLASS_C}
    dec = EdgeDecomposition(n, labels, r=1.0, d=1.0, block_trace=())
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["i", "j", "class"])
    for i in range(n):
        for j in range(n):
            writer.writerow([i, j, "NRC"[labels[i, j]]])
    path = tmp_path / "classes.csv"
    decomposition_to_csv(dec, path)
    assert path.read_bytes() == buf.getvalue().encode()


def _rowwise_csv(dec, path):
    """The row-by-row writer decomposition_to_csv must match byte for
    byte: one join per row over its cells ``j,class``."""
    n = dec.n
    cells = np.array([[f"{j},{name}" for name in "NRC"] for j in range(n)],
                     dtype=object).reshape(n, 3)
    cols = np.arange(n)
    with open(path, "w", newline="") as fh:
        fh.write("i,j,class\r\n")
        for i in range(n):
            fh.write(f"{i}," + f"\r\n{i},".join(
                cells[cols, dec.class_of[i]].tolist()) + "\r\n")


def _assert_written_like_rowwise(dec, tmp_path):
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    decomposition_to_csv(dec, ours)
    _rowwise_csv(dec, ref)
    assert ours.read_bytes() == ref.read_bytes()
    return ours.read_bytes()


@pytest.mark.parametrize("chunk", [dmod.CSV_CHUNK, 1])
@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 99, 100, 101, 1000])
def test_csv_bytes_match_the_row_join_writer(tmp_path, monkeypatch, n, chunk):
    # every band of rows with one digit count, formatted in one chunk
    # per band or one row per chunk; n = 0 writes the header alone
    monkeypatch.setattr(dmod, "CSV_CHUNK", chunk)
    labels = np.random.default_rng(n).integers(0, 3, (n, n)).astype(np.int8)
    dec = EdgeDecomposition(n, labels, r=1.0, d=1.0, block_trace=())
    written = _assert_written_like_rowwise(dec, tmp_path)
    if n == 0:
        assert written == b"i,j,class\r\n"


def test_csv_bytes_of_a_decomposition_match_the_row_join_writer(tmp_path):
    # d below the sample's degree 8 makes rows and columns heavy, so
    # both triangles have R cells and the lower one C cells as well
    n = 64
    model = Uniform(n, 8.0 / n)
    classes = set()
    for A, part in zip(triangle_split(sample(model, MASTER)),
                       ("upper", "lower")):
        dec = decompose(A, model, r=0.25, d=2.0, gp_iters=60, part=part)
        classes.update(np.unique(dec.class_of).tolist())
        _assert_written_like_rowwise(dec, tmp_path)
    assert classes == {CLASS_N, CLASS_R, CLASS_C}


# ---------------------------------------------------------------------------
# the lower triangle's decomposition is the upper one's transposed


def count_gp(monkeypatch):
    """The shapes of the blocks decompose hands GP, one entry per call of
    either entry point: ``gp_submatrix`` (one block) or
    ``gp_submatrix_both`` (a block and its transpose at once)."""
    calls = []
    for name in ("gp_submatrix", "gp_submatrix_both"):
        def counting(B, *args, real=getattr(dmod, name), **kwargs):
            calls.append(B.shape)
            return real(B, *args, **kwargs)

        monkeypatch.setattr(dmod, name, counting)
    return calls


def gp_blocks(dec):
    return [rnd[k] for rnd in dec.block_trace for k in ("gp_cols", "gp_rows")
            if k in rnd]


@pytest.mark.parametrize("n, d, gp_iters, target_met", [
    pytest.param(48, 8.0, 120, True, id="48"),
    pytest.param(256, 8.0, 120, True, id="256"),
    pytest.param(128, 0.5, 20, False, id="128-descent")])
def test_undirected_cli_solves_each_gp_block_once(tmp_path, monkeypatch, n,
                                                  d, gp_iters, target_met):
    # the command runs GP on U's blocks only, and writes for L exactly
    # what decompose and verify give on L itself; at d = 0.5 with 20
    # steps every block descends and misses its target
    r = 3.0
    model = Uniform(n, d / n)
    up, lo = triangle_split(sample(model, MASTER, 0))
    calls = count_gp(monkeypatch)
    rep = run_command("decompose", {"n": n, "d": d, "r": r,
                                    "gp_iters": gp_iters},
                      MASTER, str(tmp_path / "cli"))
    cli_calls = list(calls)
    calls.clear()
    upper = decompose(up, model, r, d, gp_iters=gp_iters, part="upper")
    assert cli_calls and calls == cli_calls
    lower = decompose(lo, model, r, d, gp_iters=gp_iters, part="lower")
    found = verify_decomposition(lo, model, lower)
    assert {k: rep.trials[0][f"lower_{k}"] for k in found} == found
    decomposition_to_csv(lower, tmp_path / "classes.csv")
    trace_to_json(lower, tmp_path / "trace.json")
    for mine, cli in (("classes.csv", "classes_t0_lower.csv"),
                      ("trace.json", "trace_t0_lower.json")):
        assert ((tmp_path / mine).read_bytes()
                == (tmp_path / "cli" / cli).read_bytes())
    blocks = gp_blocks(upper)
    assert rep.flags["gp_target_met_all"] is target_met
    if not target_met:
        assert all(b["route"] == "descent" and not b["target_met"]
                   for b in blocks)


def planted_corner(n=64):
    """An undirected 0/1 graph whose upper triangle, at r = 1/4 and d = 1
    (row filter 2 ones, 32r = 8) against EA = 0, has R and C cells and
    one cell in both a C and an R rectangle: (9, 50).  Rows 0..8 and
    columns 40..48 form a 9 x 9 block of ones, so they are bad and
    heavy; row 9 (ones at 40, 41, 50) and column 50 (ones at 0, 1, 9)
    are bad and 32r-light.  Every one lies in a bad row and a bad
    column, so both GP blocks are zero."""
    M = np.zeros((n, n), dtype=bool)
    M[:9, 40:49] = True
    M[9, [40, 41, 50]] = True
    M[[0, 1], 50] = True
    return SparseGraph(n, *np.nonzero(M), np.ones(M.sum()), directed=False)


def test_transposed_differs_from_decompose_on_the_planted_corner():
    up, lo = triangle_split(planted_corner())
    model, r, d = zero_ea(64), 0.25, 1.0
    upper = decompose(up, model, r, d, gp_iters=60, part="upper")
    assert upper.counts()["R"] and upper.counts()["C"]
    assert upper.class_of[9, 50] == CLASS_R
    lower = transposed(upper)
    own = decompose(lo, model, r, d, gp_iters=60, part="lower")
    assert np.argwhere(lower.class_of != own.class_of).tolist() == [[50, 9]]
    assert (lower.class_of[50, 9], own.class_of[50, 9]) == (CLASS_C, CLASS_R)
    assert lower.block_trace == own.block_trace
    for dec in (lower, own):
        found = verify_decomposition(lo, model, dec)
        assert found["structural_ok"] and found["r_footprint_ok"]
        assert found["c_footprint_ok"]


ROW_COL_KEYS = (("rows", "cols"), ("I", "J"), ("I_prime", "J_prime"),
                ("I44", "J44"), ("I1", "J1"), ("capped_I1", "capped_J1"),
                ("gp_rows", "gp_cols"))


def test_transposed_exchanges_every_row_and_column_key():
    # a round whose every row key differs from its column key
    rnd = {"m": 4, "alpha": 0.5, "rows": 1, "cols": 2, "I": [0], "J": [1, 2],
           "I_prime": [0], "J_prime": [1], "J44": [2], "I44": [],
           "I1": [], "J1": [1], "row_cap": 3.0, "capped_I1": True,
           "capped_J1": False, "gp_cols": {"selected": 1},
           "gp_rows": {"selected": 0}, "row_filter_empty": False,
           "all_n": False}
    labels = np.array([[CLASS_N, CLASS_R, CLASS_C]] * 3, dtype=np.int8)
    dec = EdgeDecomposition(3, labels, r=1.0, d=2.0, block_trace=(rnd,))
    (got,) = transposed(dec).block_trace
    assert list(got) == list(rnd)
    for row_key, col_key in ROW_COL_KEYS:
        assert (got[row_key], got[col_key]) == (rnd[col_key], rnd[row_key])
    assert all(got[k] == rnd[k] for k in ("m", "alpha", "row_cap",
                                          "row_filter_empty", "all_n"))
    back = transposed(transposed(dec))
    assert np.array_equal(back.class_of, labels)
    assert back.block_trace == dec.block_trace
    want = np.array([[CLASS_N] * 3, [CLASS_C] * 3, [CLASS_R] * 3])
    assert np.array_equal(transposed(dec).class_of, want)


@pytest.mark.parametrize("cls, message", [(CLASS_R, "R rows"),
                                          (CLASS_C, "C columns")])
def test_r_rows_and_c_columns_are_disjoint_across_rounds(monkeypatch, cls,
                                                         message):
    # each round paints one more R (or C) cell into its block's first
    # row (column), outside the hole; round 2's block lies in round 1's
    # hole, so the second paints a row (column) round 1 holds already
    A, model = heavy_columns_and_rows()
    monkeypatch.setattr(dmod, "TINY_BLOCK", 0)  # two GP rounds
    real = dmod._block_pass

    def painting(*args, **kwargs):
        grid, I1, J1, trace = real(*args, **kwargs)
        grid = grid.copy()
        i, j = (0, -1) if cls == CLASS_R else (-1, 0)
        assert grid[i, j] != -1
        grid[i, j] = cls
        return grid, I1, J1, trace

    monkeypatch.setattr(dmod, "_block_pass", painting)
    with pytest.raises(AssertionError, match=message):
        decompose(A, model, r=1.0, d=1.0, gp_iters=60)
