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
    LinearOp,
    SizeExceeded,
    SparseGraph,
    Uniform,
    decompose,
    decomposition_to_csv,
    ea_factors,
    expected_adjacency,
    expected_dense,
    sample,
    sample_directed,
    trace_to_json,
    triangle_split,
    verify_decomposition,
)

from graphconc.cli import run_command

from conftest import MASTER

# the package's ``decompose`` attribute is the function; GP is counted at
# the name the module imports
dmod = importlib.import_module("graphconc.decompose")


def zero_ea(n):
    return LinearOp.from_dense(np.zeros((n, n)), symmetric=True)


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
    rep = verify_decomposition(A, zero_ea(n), dec)
    assert rep.structural_ok


def test_single_heavy_column_lands_in_r():
    n = 40
    A = directed_star_rows(n)
    At = SparseGraph(n, A.j, A.i, A.w, directed=True)
    dec = decompose(At, zero_ea(n), r=1.0, d=1.0)
    assert np.all(dec.class_of[1:, 0] == CLASS_R)
    rep = verify_decomposition(At, zero_ea(n), dec)
    assert rep.structural_ok


def test_decompose_covers_every_pair():
    n = 64
    m = Uniform(n, 4.0 / n)
    g = sample(m, MASTER)
    up, lo = triangle_split(g)
    EA = expected_adjacency(m)
    for part in (up, lo):
        dec = decompose(part, EA, r=1.0, d=4.0)
        counts = dec.counts()
        assert sum(counts.values()) == n * n
        rep = verify_decomposition(part, EA, dec)
        assert rep.partition_ok and rep.r_rows_ok and rep.c_cols_ok
        assert rep.r_footprint_ok and rep.c_footprint_ok
        assert rep.structural_ok


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
    # filtered rows, so GP rejects them; they are kept first.
    n, cap = 64, 32
    M = np.zeros((n, n), dtype=bool)
    M[:40] = np.random.default_rng(5).random((40, n)) < 0.9
    M[:40, :3] = False
    M[40:, :3] = True
    np.fill_diagonal(M, False)
    A = SparseGraph(n, *np.nonzero(M), np.ones(M.sum()), directed=True)
    EA = np.full((n, n), 0.05)
    np.fill_diagonal(EA, 0.0)
    dec = decompose(A, EA, r=1.0, d=1.0, gp_iters=50)
    first = dec.block_trace[0]
    assert first["capped_J1"] and first["capped_I1"]
    assert len(first["J1"]) == len(first["I1"]) == cap

    good = M.sum(axis=1) <= first["row_cap"]
    J_gp, _ = dmod.gp_submatrix(M[good] - EA[good], 0.25, max_iter=50,
                                stop_ratio=dmod.LITTLE_GROTHENDIECK)
    rejected = ~np.isin(np.arange(n), J_gp)
    assert np.flatnonzero(rejected).tolist() == [0, 1, 2]
    ones = M[~good].sum(axis=0)
    exceptional = [j for j in range(n) if rejected[j] or ones[j] > 32]
    assert len(exceptional) > cap
    order = sorted(exceptional, key=lambda j: (not rejected[j], -ones[j], j))
    assert first["J1"] == sorted(order[:cap])
    assert verify_decomposition(A, EA, dec).structural_ok


def test_dense_ea_is_refused_above_the_limit():
    # a dense EA gets the same refusal as a LinearOp, before any n x n work
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
    assert not rep.r_rows_ok
    assert rep.max_r_row_ones == 33 and rep.ones_cap == 32.0
    assert not rep.structural_ok


def test_verifier_norm_on_empty_graph():
    # with every pair in N, ||(A - EA)_N|| is just ||EA||
    n = 32
    m = Uniform(n, 2.0 / n)
    dec = decompose(empty_directed(n), expected_adjacency(m), r=1.0, d=2.0)
    rep = verify_decomposition(empty_directed(n), expected_adjacency(m), dec)
    assert sum(dec.counts().values()) == n * n
    assert rep.norm_n == pytest.approx((n - 1) * 2.0 / n, rel=1e-6)


def test_verifier_norm_matches_dense_svd():
    # 32 < n <= 1024: spectral_norm against LAPACK's SVD, on the
    # non-symmetric triangle parts and a directed sample (Golub-Kahan)
    # and a symmetric -EA (Lanczos)
    n = 96
    m = Uniform(n, 6.0 / n)
    EA = expected_adjacency(m)
    up, lo = triangle_split(sample(m, MASTER))
    for part in (up, lo, sample_directed(m, MASTER), empty_directed(n)):
        dec = decompose(part, EA, r=1.0, d=6.0)
        rep = verify_decomposition(part, EA, dec)
        dev_n = ((part.to_dense() - EA.to_dense())
                 * (dec.class_of == CLASS_N))
        ref = np.linalg.svd(dev_n, compute_uv=False)[0]
        assert rep.norm_n == pytest.approx(ref, rel=1e-9)


def test_decompose_and_verify_leave_their_inputs_alone():
    # both work in place on arrays of their own: the caller's A and EA,
    # dense or an op, directed or a triangle, are read and never written
    n, d, r = 96, 8.0, 3.0
    model = Uniform(n, d / n)
    P = expected_dense(model)
    up, lo = triangle_split(sample(model, MASTER))
    directed = sample_directed(model, MASTER)
    for A, EA in ((directed, P), (directed, LinearOp.from_dense(P)),
                  (up, np.triu(P, 1)), (lo, np.tril(P, -1))):
        dense_ea = EA.to_dense() if isinstance(EA, LinearOp) else EA
        before = [x.copy() for x in (A.i, A.j, A.w, dense_ea, P)]
        dec = decompose(A, EA, r, d, gp_iters=60)
        rep = verify_decomposition(A, EA, dec)
        Ad = A.to_dense()
        assert verify_decomposition(Ad, EA, dec) == rep
        assert np.array_equal(Ad, A.to_dense())
        after = (A.i, A.j, A.w,
                 EA.to_dense() if isinstance(EA, LinearOp) else EA, P)
        for old, new in zip(before, after):
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

    trace_path = tmp_path / "trace.json"
    trace_to_json(dec, trace_path)
    blob = json.loads(trace_path.read_text())
    assert blob["n"] == n and len(blob["rounds"]) == len(dec.block_trace)
    gp_rounds = [rnd for rnd in blob["rounds"] if "gp_cols" in rnd]
    assert gp_rounds
    for rnd in gp_rounds:
        for side in ("gp_cols", "gp_rows"):
            assert rnd[side]["iterations"] >= 1
            assert isinstance(rnd[side]["converged"], bool)
            assert 0.0 <= rnd[side]["achieved_eps"] < 1.0
            # decompose asks GP to stop at sqrt(pi/2) times its lower bound
            assert rnd[side]["target"] >= 0.0
            assert isinstance(rnd[side]["target_met"], bool)
            if rnd[side]["target_met"]:
                assert rnd[side]["achieved"] <= rnd[side]["target"] * (1 + 1e-12)
                # the chain the decomposition uses, with delta = 1/4:
                # ||B_J|| sqrt(m/4) <= f(mu) <= target, where ||B_J|| <
                # submatrix_bound, f's slack over sqrt(m/4)
                m = rnd["cols"] if side == "gp_cols" else rnd["rows"]
                lhs = rnd[side]["submatrix_bound"] * np.sqrt(m / 4)
                assert lhs == pytest.approx(
                    rnd[side]["achieved"] * (1 + 1e-8) + 1e-12, rel=1e-14)
                assert lhs <= (rnd[side]["target"] * (1 + 1e-8)
                               + 1e-12) * (1 + 1e-14)


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
# GP results shared between the triangles of one sample


def count_gp(monkeypatch):
    calls = []
    real = dmod.gp_submatrix

    def counting(B, *args, **kwargs):
        calls.append(B.shape)
        return real(B, *args, **kwargs)

    monkeypatch.setattr(dmod, "gp_submatrix", counting)
    return calls


def triangle_parts(n, d):
    model = Uniform(n, d / n)
    P = expected_dense(model)
    up, lo = triangle_split(sample(model, MASTER, 0))
    return [("upper", up, np.triu(P, 1)), ("lower", lo, np.tril(P, -1))]


def assert_same_decomposition(a, b):
    assert np.array_equal(a.class_of, b.class_of)
    assert a.block_trace == b.block_trace


@pytest.mark.parametrize("n", [48, 256])
def test_undirected_cli_solves_each_gp_block_once(tmp_path, monkeypatch, n):
    d, r, gp_iters = 8.0, 3.0, 120
    calls = count_gp(monkeypatch)
    cfg = {"n": n, "d": d, "r": r, "gp_iters": gp_iters}
    run_command("decompose", cfg, MASTER, str(tmp_path / "cli"))
    cli_calls = len(calls)

    calls.clear()
    plain = {name: decompose(part, EA, r, d, gp_iters=gp_iters)
             for name, part, EA in triangle_parts(n, d)}
    assert cli_calls > 0 and 2 * cli_calls == len(calls)

    calls.clear()
    memo = {}
    for name, part, EA in triangle_parts(n, d):
        shared = decompose(part, EA, r, d, gp_iters=gp_iters, gp_memo=memo)
        assert_same_decomposition(shared, plain[name])
        assert (verify_decomposition(part, EA, shared)
                == verify_decomposition(part, EA, plain[name]))
        trace_to_json(plain[name], tmp_path / f"plain_{name}.json")
        assert ((tmp_path / "cli" / f"trace_t0_{name}.json").read_bytes()
                == (tmp_path / f"plain_{name}.json").read_bytes())
    assert len(calls) == cli_calls


def test_gp_memo_misses_on_directed_input(monkeypatch):
    n, d, r = 96, 8.0, 3.0
    model = Uniform(n, d / n)
    A, EA = sample_directed(model, MASTER), expected_dense(model)
    calls = count_gp(monkeypatch)
    plain = decompose(A, EA, r, d, gp_iters=60)
    plain_calls = len(calls)
    memo = {}
    shared = decompose(A, EA, r, d, gp_iters=60, gp_memo=memo)
    assert len(calls) == 2 * plain_calls and len(memo) == plain_calls
    assert_same_decomposition(shared, plain)


def test_gp_memo_misses_when_the_lower_ea_differs(monkeypatch):
    # one entry of tril(EA) moved: every block of L that GP sees differs
    # from U's transposed blocks, so nothing may be reused
    n, d, r = 96, 8.0, 3.0
    (_, up, EA_up), (_, lo, EA_lo) = triangle_parts(n, d)
    EA_lo = EA_lo.copy()
    EA_lo[60, 7] += 1e-3
    calls = count_gp(monkeypatch)
    plain = decompose(lo, EA_lo, r, d, gp_iters=60)
    plain_calls = len(calls)
    for rnd in plain.block_trace:  # (60, 7) lies in both GP blocks
        assert 60 in rnd["I_prime"] and 7 in rnd["J_prime"]
    memo = {}
    decompose(up, EA_up, r, d, gp_iters=60, gp_memo=memo)
    calls.clear()
    shared = decompose(lo, EA_lo, r, d, gp_iters=60, gp_memo=memo)
    assert len(calls) == plain_calls
    assert_same_decomposition(shared, plain)
