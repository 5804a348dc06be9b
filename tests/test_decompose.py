"""N/R/C edge decomposition: construction, verifier, serialization."""

import csv
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
    SizeExceeded,
    SparseGraph,
    Uniform,
    decompose,
    decomposition_to_csv,
    ea_factors,
    expected_dense,
    sample,
    sample_directed,
    trace_to_json,
    transposed,
    triangle_split,
    verify_decomposition,
)

from graphconc.cli import run_command

from conftest import MASTER

# the package's ``decompose`` attribute is the function; GP is counted at
# the name the module imports
dmod = importlib.import_module("graphconc.decompose")


def zero_ea(n):
    return np.zeros((n, n))


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


# ---------------------------------------------------------------------------
# one block round


def block_pass(A, alpha, r, d):
    """One round on the whole square of a directed 0/1 A, with EA = 0."""
    I = J = np.arange(A.n)
    zero = dmod._ea_reader(np.zeros((A.n, A.n)), A.n)
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
    EA = expected_dense(m)
    for part in (up, lo):
        dec = decompose(part, EA, r=1.0, d=4.0)
        counts = dec.counts()
        assert sum(counts.values()) == n * n
        rep = verify_decomposition(part, EA, dec)
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
    EA = np.full((n, n), 0.02)
    np.fill_diagonal(EA, 0.0)
    dec = decompose(A, EA, r=1.0, d=1.0, gp_iters=50)
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
    assert verify_decomposition(A, EA, dec)["structural_ok"]


def heavy_columns_and_rows(n=64):
    """(A, EA): columns 0..2 hold 40 ones each (rows 10..49) and rows
    0..2 six each (columns 40..45), with EA = 0.01 off the diagonal.
    Every row and column passes GP's blocks, both fail the uniform
    check, and the descents reject columns 0..2 and rows 0..2."""
    M = np.zeros((n, n), dtype=bool)
    M[10:50, :3] = True
    M[:3, 40:46] = True
    EA = np.full((n, n), 0.01)
    np.fill_diagonal(EA, 0.0)
    return SparseGraph(n, *np.nonzero(M), np.ones(M.sum()), directed=True), EA


def test_a_small_hole_goes_to_n_without_gp(monkeypatch):
    # GP rejects 3 rows and 3 columns, so round 2 holds a 3 x 3 block at
    # nominal m = 32: it is dumped into N by its size, and the classes
    # are those of a GP round on it
    A, EA = heavy_columns_and_rows()
    calls = count_gp(monkeypatch)
    dec = decompose(A, EA, r=1.0, d=1.0, gp_iters=60)
    first, second = dec.block_trace
    assert first["gp_cols"]["route"] == first["gp_rows"]["route"] == "descent"
    assert first["I1"] == first["J1"] == [0, 1, 2]
    assert (second["m"], second["rows"], second["cols"]) == (32, 3, 3)
    assert second["all_n"] and "gp_cols" not in second
    assert len(calls) == 2
    assert dec.counts()["R"] > 0
    assert verify_decomposition(A, EA, dec)["structural_ok"]

    monkeypatch.setattr(dmod, "TINY_BLOCK", 0)  # GP on every block
    gp_everywhere = decompose(A, EA, r=1.0, d=1.0, gp_iters=60)
    rounds = gp_everywhere.block_trace
    assert len(rounds) == 2 and rounds[1]["rows"] == rounds[1]["cols"] == 3
    assert rounds[1]["gp_cols"]["route"] == "uniform"
    assert np.array_equal(gp_everywhere.class_of, dec.class_of)


def test_dense_ea_is_refused_above_the_limit():
    # a dense EA gets the same refusal as factors, before any n x n work
    n = dmod.DENSE_LIMIT + 1
    EA = np.broadcast_to(0.0, (n, n))  # a view: no n x n allocation
    with pytest.raises(SizeExceeded):
        decompose(empty_directed(n), EA, r=1.0, d=1.0)


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
    F = ea_factors(model)
    parts = [*zip(triangle_split(sample(model, MASTER)), ("upper", "lower")),
             (sample_directed(model, MASTER), "full")]
    for A, part in parts:
        dec = decompose(A, F, r, d, gp_iters=60, part=part)
        rep = verify_decomposition(A, F, dec, part=part)
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


def test_verifier_norm_on_empty_graph():
    # with every pair in N, ||(A - EA)_N|| is just ||EA||
    n = 32
    m = Uniform(n, 2.0 / n)
    dec = decompose(empty_directed(n), ea_factors(m), r=1.0, d=2.0)
    rep = verify_decomposition(empty_directed(n), ea_factors(m), dec)
    assert sum(dec.counts().values()) == n * n
    assert rep["norm_n"] == pytest.approx((n - 1) * 2.0 / n, rel=1e-6)


def test_verifier_norm_matches_dense_svd():
    # 32 < n <= 1024: spectral_norm against LAPACK's SVD, on the
    # non-symmetric triangle parts and a directed sample (Lanczos on
    # the Gram) and a symmetric -EA (Lanczos)
    n = 96
    m = Uniform(n, 6.0 / n)
    EA = expected_dense(m)
    up, lo = triangle_split(sample(m, MASTER))
    for part in (up, lo, sample_directed(m, MASTER), empty_directed(n)):
        dec = decompose(part, EA, r=1.0, d=6.0)
        rep = verify_decomposition(part, EA, dec)
        dev_n = (part.to_dense() - EA) * (dec.class_of == CLASS_N)
        ref = np.linalg.svd(dev_n, compute_uv=False)[0]
        assert rep["norm_n"] == pytest.approx(ref, rel=1e-9)


def test_decompose_and_verify_leave_their_inputs_alone():
    # both work in place on arrays of their own: the caller's A and EA,
    # dense or factors, directed or a triangle, are read and never written
    n, d, r = 96, 8.0, 3.0
    model = Uniform(n, d / n)
    P, F = expected_dense(model), ea_factors(model)
    up, lo = triangle_split(sample(model, MASTER))
    directed = sample_directed(model, MASTER)
    for A, EA, part in ((directed, P, "full"), (directed, F, "full"),
                        (up, np.triu(P, 1), "full"), (lo, F, "lower")):
        inputs = (A.i, A.j, A.w, P, F.U, F.C) + (
            (EA,) if isinstance(EA, np.ndarray) else ())
        before = [x.copy() for x in inputs]
        dec = decompose(A, EA, r, d, gp_iters=60, part=part)
        verify_decomposition(A, EA, dec, part=part)
        for old, new in zip(before, inputs):
            assert np.array_equal(old, new)


def test_factored_ea_decomposes_as_the_dense_one():
    # EA handed over as the model's factors and a part gives the classes
    # and the report of the dense EA of that part, bit for bit
    n, d, r = 96, 8.0, 3.0
    model = BlockTwo(n, 12.0, 4.0)
    F, P = ea_factors(model), expected_dense(model)
    up, lo = triangle_split(sample(model, MASTER))
    for A, part, dense in ((up, "upper", np.triu(P, 1)),
                           (lo, "lower", np.tril(P, -1)),
                           (sample_directed(model, MASTER), "full", P)):
        got = decompose(A, F, r, d, gp_iters=60, part=part)
        want = decompose(A, dense, r, d, gp_iters=60)
        assert np.array_equal(got.class_of, want.class_of)
        assert (verify_decomposition(A, F, got, part=part)
                == verify_decomposition(A, dense, want))
    with pytest.raises(ValueError, match="EA shape mismatch"):
        decompose(up, ea_factors(Uniform(n + 1, 0.1)), r, d, part="upper")


@pytest.mark.parametrize("directed", [False, True])
def test_decompose_trial_holds_few_dense_arrays(tmp_path, directed):
    # traced peak of one decompose + verify trial at n = 256, in units of
    # one n x n float array: 3.45 (undirected) and 3.48 (directed) when
    # this bound was set, against 4.45 and 4.48 with a dense EA per part
    # and 8.45 and 6.48 when P, both triangles, the GP block copies and
    # the B * B temporaries were all alive; one more n x n copy anywhere
    # in the trial exceeds it
    n = 256
    cfg = {"n": n, "d": 8, "r": 3, "gp_iters": 120, "write_files": False,
           "directed": directed}
    # imports and first-call caches land outside the trace
    run_command("decompose", {**cfg, "n": 48}, MASTER, str(tmp_path / "warm"))
    tracemalloc.start()
    try:
        run_command("decompose", cfg, MASTER, str(tmp_path / "run"))
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
    F = ea_factors(model)
    classes = set()
    for A, part in zip(triangle_split(sample(model, MASTER)),
                       ("upper", "lower")):
        dec = decompose(A, F, r=0.25, d=2.0, gp_iters=60, part=part)
        classes.update(np.unique(dec.class_of).tolist())
        _assert_written_like_rowwise(dec, tmp_path)
    assert classes == {CLASS_N, CLASS_R, CLASS_C}


# ---------------------------------------------------------------------------
# the lower triangle's decomposition is the upper one's transposed


def count_gp(monkeypatch):
    calls = []
    real = dmod.gp_submatrix

    def counting(B, *args, **kwargs):
        calls.append(B.shape)
        return real(B, *args, **kwargs)

    monkeypatch.setattr(dmod, "gp_submatrix", counting)
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
    F = ea_factors(model)
    up, lo = triangle_split(sample(model, MASTER, 0))
    calls = count_gp(monkeypatch)
    rep = run_command("decompose", {"n": n, "d": d, "r": r,
                                    "gp_iters": gp_iters},
                      MASTER, str(tmp_path / "cli"))
    cli_calls = list(calls)
    calls.clear()
    upper = decompose(up, F, r, d, gp_iters=gp_iters, part="upper")
    assert cli_calls and calls == cli_calls
    lower = decompose(lo, F, r, d, gp_iters=gp_iters, part="lower")
    found = verify_decomposition(lo, F, lower, part="lower")
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
    EA, r, d = zero_ea(64), 0.25, 1.0
    upper = decompose(up, EA, r, d, gp_iters=60, part="upper")
    assert upper.counts()["R"] and upper.counts()["C"]
    assert upper.class_of[9, 50] == CLASS_R
    lower = transposed(upper)
    own = decompose(lo, EA, r, d, gp_iters=60, part="lower")
    assert np.argwhere(lower.class_of != own.class_of).tolist() == [[50, 9]]
    assert (lower.class_of[50, 9], own.class_of[50, 9]) == (CLASS_C, CLASS_R)
    assert lower.block_trace == own.block_trace
    for dec in (lower, own):
        found = verify_decomposition(lo, EA, dec, part="lower")
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
    A, EA = heavy_columns_and_rows()
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
        decompose(A, EA, r=1.0, d=1.0, gp_iters=60)
