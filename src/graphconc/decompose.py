"""Constructive N/R/C decomposition of the edge set [n] x [n].

One block round (on a rectangle I x J with nominal size m and
alpha >= sqrt(m/n)) runs two symmetric passes:

pass 1 (columns)
    I'   = rows of A_{IxJ} with <= 8 r alpha d ones (row filter);
    J_gp = GP submatrix selection with delta = 1/4 on (A - EA)_{I'xJ},
           keeping >= 3m/4 columns (pigeonhole, certified);
    J44  = columns with <= 32r ones in the bad-row block (I\\I') x J;
    J1   = J \\ (J_gp & J44)   -- the exceptional columns.

pass 2 is pass 1 applied to the transpose (J' = light columns, I1 =
exceptional rows).  Classes are painted in priority order C < R < N
(an entry qualifying for several lands in N, then R):

    C = (I\\I') x ((J\\J1) & J44)      column class, <= 32r ones per col
    R = ((I\\I1) & I44) x (J\\J')      row class,    <= 32r ones per row
    N = I' x (J\\J1)  and  (I\\I1) x J'  (the GP-certified core), plus
        the filter leftovers (bad rows/cols that also fail the 32r test
        outside the exceptional block) which carry no structural claim
        and are only ever measured.

Everything outside the hole I1 x J1 is covered: pairs with j not in J1
by pass 1, pairs with j in J1 but i not in I1 by pass 2.  The driver
recurses into I1 x J1 with m halved; a block whose nominal size or
whose larger side is at most TINY_BLOCK = 8 is dumped into N (GP on
near-empty blocks is noise).  I1 and J1 are capped
at floor(m/2) keeping the worst offenders, so exceptional dimensions
are at most m/2 x m/2 unconditionally; capped-out indices simply fall
back into the pass-1/pass-2 cover.

An undirected sample is decomposed as its two triangles U and L = U^T
(``triangle_split``).  The algorithm is stated for a directed matrix,
and its guarantees hold for A^T with R and C exchanged, so L's
decomposition is read off U's (``transposed``) rather than computed
again; the verifier still checks it on L's own edges and EA.

A round centres its own densified copy of A's block in place; GP's
column pass runs on it uncopied when every row passes the filter, and
the row pass on a C-ordered copy of the transpose's good rows, made
before the centred block is dropped.  EA is subtracted ``EA_CHUNK``
entries at a time, read from the model's factors (``EAFactors.block``)
or sliced from a dense EA, so neither the centring nor the verifier's
(A - EA)_N holds an n x n EA of its own, and neither writes into the
caller's A or EA.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import RowFilterEmpty, SizeExceeded
from .models import EAFactors, SparseGraph, part_mask
from .operators import LinearOp
from .pietsch import gp_submatrix
from .spectral import spectral_norm

CLASS_N, CLASS_R, CLASS_C = 0, 1, 2
CLASS_NAMES = ("N", "R", "C")
TINY_BLOCK = 8
DENSE_LIMIT = 4096
EA_CHUNK = 1 << 14  # entries of EA read per chunk when subtracting it
CSV_CHUNK = 1 << 20  # bytes of class CSV rows formatted per write
# footprint slack of Theorem 2.6: the halving rounds spend
# sum_i 2^{-i/2} ~ 3.41 of the single-round column budget
KAPPA = 4.0


@dataclass(frozen=True)
class EdgeDecomposition:
    """Assignment of every ordered pair to N (0), R (1) or C (2)."""

    n: int
    class_of: np.ndarray
    r: float
    d: float
    block_trace: tuple

    def __post_init__(self):
        if not (0 < self.r < np.inf and 0 < self.d < np.inf):  # NaN too
            raise ValueError("r and d must be finite and positive")
        labels = np.asarray(self.class_of, dtype=np.int8)
        if labels.shape != (self.n, self.n):
            raise ValueError("class_of must be n x n")
        if labels.size and (labels.min() < 0 or labels.max() > 2):
            raise ValueError("every ordered pair needs a class in {N, R, C}")
        labels.setflags(write=False)
        object.__setattr__(self, "class_of", labels)

    def counts(self):
        return {CLASS_NAMES[c]: int((self.class_of == c).sum()) for c in range(3)}


def _ea_reader(EA, n):
    """``read(I, J, part)``: EA[I x J] as ``part`` keeps it, a new array.

    EA comes in the two forms the ``decompose`` command passes: the
    model's ``EAFactors``, read directly, or a dense n x n array (for a
    model without factors), sliced; the dense reads of "full" keep EA's
    diagonal as it is.  Refuses n > DENSE_LIMIT in either form, before
    any n x n work.
    """
    if n > DENSE_LIMIT:
        raise SizeExceeded(f"decompose holds n x n arrays; n <= {DENSE_LIMIT}")
    shape = (EA.U.shape[0],) * 2 if isinstance(EA, EAFactors) else np.shape(EA)
    if shape != (n, n):
        raise ValueError("EA shape mismatch")
    if isinstance(EA, EAFactors):
        return EA.block
    dense = np.asarray(EA, dtype=float)

    def read(I, J, part):
        out = dense[np.ix_(I, J)]
        if part != "full":
            out *= part_mask(I, J, part)
        return out

    return read


def _subtract_ea(out, read, I, J, part):
    """out -= EA[I x J] as ``part`` keeps it, ``EA_CHUNK`` entries at a
    time: no EA block larger than one chunk exists."""
    step = max(1, EA_CHUNK // max(J.size, 1))
    for s in range(0, I.size, step):
        out[s:s + step] -= read(I[s:s + step], J, part)


def _ones_csr(A):
    """0/1 csr of a directed SparseGraph, validated."""
    if not A.directed:
        raise ValueError("decompose expects a directed graph; "
                         "split undirected input into triangles first")
    if A.nnz and np.any(A.w != 1.0):
        raise ValueError("decompose expects a 0/1 adjacency")
    return A.to_csr().tocsr()


def _cap_exceptional(mask, cap, gp_rejected, ones):
    """Trim an exceptional set to ``cap``, keeping the worst offenders.

    Order: GP-rejected first, then ones count descending, then position
    ascending.  Returns (new_mask, capped?).
    """
    if int(mask.sum()) <= cap:
        return mask, False
    pos = np.flatnonzero(mask)
    order = np.lexsort((pos, -ones[pos], -gp_rejected[pos].astype(int)))
    out = np.zeros_like(mask)
    out[pos[order[:cap]]] = True
    return out, True


def _round_trace(m_nom, alpha, I, J, **found):
    """One round's trace entry: the block it ran on, then what it found."""
    return {"m": int(m_nom), "alpha": float(alpha), "rows": int(I.size),
            "cols": int(J.size), "I": I.tolist(), "J": J.tolist(), **found}


def _gp_rows(cent, good_rows):
    """The GP block cent[good_rows], C-ordered; ``cent`` itself when every
    row is good and it is C-ordered already (no n x n copy)."""
    return np.ascontiguousarray(cent if good_rows.all() else cent[good_rows])


def _column_pass(sub, B, good_rows, r, cap, gp_iters):
    """Pass 1 of a round: the block's columns; pass 2 runs it on the transpose.

    ``good_rows`` are the rows that passed the filter and ``B`` is the
    centred block on them (``_gp_rows``); GP's descent, when a block
    needs one (``pietsch``), runs at most ``gp_iters`` steps.  Returns
    (exceptional mask J1, 32r-light mask J44, GP certificate, capped?).
    """
    m = B.shape[1]
    J_gp, cert = gp_submatrix(B, 0.25, max_iter=gp_iters)
    gp_col = np.zeros(m, dtype=bool)
    gp_col[J_gp] = True
    bad_rows = ~good_rows
    ones_bad = (sub[bad_rows].getnnz(axis=0) if bad_rows.any()
                else np.zeros(m, dtype=np.int64))
    light = ones_bad <= 32 * r
    J1_mask, capped = _cap_exceptional(~(gp_col & light), cap, ~gp_col,
                                       ones_bad)
    return J1_mask, light, cert, capped


def _gp_trace(cert):
    return {"route": cert.route, "achieved": cert.achieved_norm,
            "achieved_eps": cert.achieved_eps,
            "submatrix_bound": cert.submatrix_bound,
            "selected": cert.n_selected,
            "iterations": cert.iterations, "converged": cert.converged,
            "target": cert.target, "target_met": cert.target_met}


def _block_pass(A01, read_ea, I, J, alpha, r, d, m_nom, gp_iters=500,
                part="full"):
    """One round of the block decomposition (Lemma 5.1, constructive).

    Runs on the 0/1 csr A01 and EA's blocks as ``read_ea`` reads them
    for ``part`` (``_ea_reader``).
    Returns (grid, I1_mask, J1_mask, trace): grid is the |I| x |J| class
    array of the block, -1 exactly on the exceptional hole I1 x J1.
    Raises RowFilterEmpty on a degenerate block (the driver treats the
    whole block as exceptional).
    """
    mI, mJ = I.size, J.size
    n = A01.shape[0]
    if alpha < np.sqrt(max(mI, mJ, 1) / n) - 1e-12:
        raise ValueError("alpha must be at least sqrt(m/n)")
    sub = A01[I][:, J].tocsr()
    row_cap = 8.0 * r * alpha * d
    good_rows = sub.getnnz(axis=1) <= row_cap
    good_cols = sub.getnnz(axis=0) <= row_cap
    if not good_rows.any():
        raise RowFilterEmpty(
            f"no row of the {mI}x{mJ} block passes the {row_cap:.3g}-ones filter",
            block=(I, J))
    # A - EA on the block, centred in place
    cent = sub.toarray()
    _subtract_ea(cent, read_ea, I, J, part)
    cap = int(m_nom) // 2
    J1_mask, j44, cert_cols, capped_j = _column_pass(
        sub, _gp_rows(cent, good_rows), good_rows, r, cap, gp_iters)
    # the row pass needs only its own C-ordered copy of cent^T's rows
    B_rows = _gp_rows(cent.T, good_cols)
    del cent
    I1_mask, i44, cert_rows, capped_i = _column_pass(
        sub.T, B_rows, good_cols, r, cap, gp_iters)

    bad_rows, bad_cols = ~good_rows, ~good_cols
    keep_i, keep_j = ~I1_mask, ~J1_mask
    grid = np.full((mI, mJ), -1, dtype=np.int8)
    for rows, cols, cls in (
            (bad_rows, keep_j & j44, CLASS_C),
            (keep_i & i44, bad_cols, CLASS_R),
            (good_rows, keep_j, CLASS_N),
            (keep_i, good_cols, CLASS_N),
            (bad_rows, keep_j & ~j44, CLASS_N),
            (keep_i & ~i44, bad_cols, CLASS_N)):
        grid[np.ix_(rows, cols)] = cls
    hole = np.outer(I1_mask, J1_mask)
    assert np.array_equal(grid == -1, hole), "cover mismatch in block pass"

    trace = _round_trace(
        m_nom, alpha, I, J,
        I_prime=I[good_rows].tolist(), J_prime=J[good_cols].tolist(),
        J44=J[j44].tolist(), I44=I[i44].tolist(),
        I1=I[I1_mask].tolist(), J1=J[J1_mask].tolist(),
        row_cap=row_cap, capped_I1=capped_i, capped_J1=capped_j,
        gp_cols=_gp_trace(cert_cols), gp_rows=_gp_trace(cert_rows),
        row_filter_empty=False, all_n=False)
    return grid, I1_mask, J1_mask, trace


def decompose(A, EA, r, d, gp_iters=500, part="full"):
    """Full iterative decomposition of a directed sample; an undirected
    sample's lower triangle takes ``transposed`` of the upper one's.

    EA is the model's ``EAFactors`` (``models.ea_factors``) or, for a
    model without factors, the dense n x n EA.  ``part`` says which of
    its entries A is centred by: "full" for a directed sample, "upper"
    or "lower" for a triangle of an undirected one (``triangle_split``),
    the others read as 0; factors are never densified.

    Starts from the whole square with m = n, alpha = 1; each round
    paints (I x J) \\ (I1 x J1) and recurses into the exceptional block
    with m halved and alpha = sqrt(m/n), until the exceptional block is
    empty or tiny: m or max(|I|, |J|) at most TINY_BLOCK (then it goes
    to N wholesale).  A RowFilterEmpty round marks its whole block
    exceptional and continues shrinking.  R rows and C columns are each
    disjoint across rounds by construction (asserted).  r and d must be
    finite and positive; this is checked before any work starts.
    """
    if not (0 < r < np.inf and 0 < d < np.inf):  # NaN too
        raise ValueError("decompose needs finite r > 0 and d > 0")
    A01 = _ones_csr(A)
    n = A.n
    read_ea = _ea_reader(EA, n)
    labels = np.full((n, n), -1, dtype=np.int8)
    I = np.arange(n, dtype=np.int64)
    J = np.arange(n, dtype=np.int64)
    m_nom = n
    trace = []
    r_rows_seen, c_cols_seen = np.zeros((2, n), dtype=bool)
    while I.size and J.size:
        if m_nom <= TINY_BLOCK or max(I.size, J.size) <= TINY_BLOCK:
            labels[np.ix_(I, J)] = CLASS_N
            trace.append(_round_trace(m_nom, np.sqrt(m_nom / n), I, J,
                                      all_n=True, row_filter_empty=False))
            break
        alpha = float(np.sqrt(max(m_nom, I.size, J.size) / n))
        try:
            grid, I1_mask, J1_mask, round_trace = _block_pass(
                A01, read_ea, I, J, alpha, r, d, m_nom, gp_iters=gp_iters,
                part=part)
        except RowFilterEmpty:
            trace.append(_round_trace(m_nom, alpha, I, J,
                                      row_filter_empty=True, all_n=False))
        else:
            # the hole's -1s are painted over by the next rounds
            labels[np.ix_(I, J)] = grid
            new_r_rows = I[(grid == CLASS_R).any(axis=1)]
            assert not r_rows_seen[new_r_rows].any(), \
                "R rows must be disjoint across rounds"
            r_rows_seen[new_r_rows] = True
            new_c_cols = J[(grid == CLASS_C).any(axis=0)]
            assert not c_cols_seen[new_c_cols].any(), \
                "C columns must be disjoint across rounds"
            c_cols_seen[new_c_cols] = True
            trace.append(round_trace)
            I, J = I[I1_mask], J[J1_mask]
        m_nom //= 2
    assert labels.min() >= 0, "decomposition left unassigned pairs"
    return EdgeDecomposition(n=n, class_of=labels, r=float(r), d=float(d),
                             block_trace=tuple(trace))


# a round's trace keys for rows, each with its column key
_ROW_COL = dict(rows="cols", I="J", I_prime="J_prime", I44="J44", I1="J1",
                capped_I1="capped_J1", gp_rows="gp_cols")
_SWAP = {**_ROW_COL, **{c: r for r, c in _ROW_COL.items()}}


def transposed(dec):
    """The decomposition of A^T read off ``dec``, that of A: ``class_of``
    transposed with R and C exchanged, and each round's trace entry, in
    its key order, with each row key's value swapped with its column
    key's (``_ROW_COL``).  Its GP certificates are A^T's when A^T is
    centred by EA^T bit for bit (tril(EA) = triu(EA)^T).

    ``decompose`` on A^T gives the same but in two corners, both needing
    rows and columns that fail the 8 r alpha d filter: a cell in both a
    round's C and R rectangles is R in either run, so C here; and a
    round where some row passes the filter but no column does goes on
    for A, while A^T's run raises RowFilterEmpty (or the reverse).  Both
    forms pass ``verify_decomposition``.  Seen once at seed 1729 (r =
    0.25, n = 128, d = 2, trial 0): U's (17, 79) is R, and so is L's
    (79, 17) by ``decompose``.
    """
    swap_rc = np.array([CLASS_N, CLASS_C, CLASS_R], dtype=np.int8)
    trace = tuple({k: rnd[_SWAP.get(k, k)] for k in rnd}
                  for rnd in dec.block_trace)
    return EdgeDecomposition(dec.n, swap_rc[dec.class_of.T], dec.r, dec.d,
                             trace)


# ---------------------------------------------------------------------------
# verification


def verify_decomposition(A, EA, dec, part="full"):
    """The record of one decomposition: its certified properties checked,
    the rest measured.

    A is the directed 0/1 ``SparseGraph`` that was decomposed; EA and
    ``part`` as in ``decompose``; r and d are the decomposition's own.
    Every ordered pair carries exactly one class already
    (``EdgeDecomposition`` refuses any other label).  The record's keys,
    in this order, are the ``decompose`` command's trial columns without
    their part prefix:

    structural_ok
        every row of A restricted to R has <= 32r ones
        (max_r_row_ones), and so has every column restricted to C
        (max_c_col_ones);
    r_footprint_ok, c_footprint_ok
        R touches <= KAPPA n/d columns (r_cols) and C <= KAPPA n/d rows
        (c_rows); reported, not raised;
    norm_n, norm_steps, norm_eps, norm_ratio
        ||(A - EA)_N|| by spectral_norm, with its steps and eps, and its
        ratio to r^{3/2} sqrt(d); recorded only;
    rounds
        the decomposition's block rounds;
    gp_target_met
        every GP block of those rounds met its target (the trace's
        ``target_met``).

    Flags are Python bools, counts Python ints.
    """
    n, d, r = dec.n, dec.d, dec.r
    labels = dec.class_of
    read_ea = _ea_reader(EA, n)
    # a copy of A that is ours to overwrite with (A - EA)_N below
    Ad = _ones_csr(A).toarray()
    ones = Ad != 0
    max_r_row = int((ones & (labels == CLASS_R)).sum(axis=1).max(initial=0))
    max_c_col = int((ones & (labels == CLASS_C)).sum(axis=0).max(initial=0))
    r_cols = int(np.any(labels == CLASS_R, axis=0).sum())
    c_rows = int(np.any(labels == CLASS_C, axis=1).sum())
    limit = KAPPA * n / d

    everything = np.arange(n)
    _subtract_ea(Ad, read_ea, everything, everything, part)
    Ad *= labels == CLASS_N
    norm_n, norm_steps, norm_eps = spectral_norm(LinearOp.from_dense(Ad))
    met = all(rnd[k]["target_met"] for rnd in dec.block_trace
              for k in ("gp_cols", "gp_rows") if k in rnd)
    return {"structural_ok": bool(max(max_r_row, max_c_col) <= 32.0 * r),
            "r_footprint_ok": bool(r_cols <= limit),
            "c_footprint_ok": bool(c_rows <= limit),
            "max_r_row_ones": max_r_row, "max_c_col_ones": max_c_col,
            "r_cols": r_cols, "c_rows": c_rows,
            "norm_n": norm_n, "norm_steps": norm_steps, "norm_eps": norm_eps,
            "norm_ratio": float(norm_n / (r ** 1.5 * np.sqrt(d))),
            "rounds": len(dec.block_trace), "gp_target_met": met}


# ---------------------------------------------------------------------------
# serialization


def decomposition_to_csv(dec, path):
    """One line ``i,j,class`` per ordered pair, csv's ``\\r\\n`` line ends.

    The rows whose i has w digits form a band with one byte template:
    the cells ``0..0,j,N\\r\\n`` of j = 0..n-1, w zeros standing for i.
    A band is formatted ``CSV_CHUNK`` bytes of rows at a time (at least
    one row): the template is copied to every row, then each digit of i
    is scattered to its place in every cell of its row, and the class
    letters of the row's labels to theirs.
    """
    n = dec.n
    letters = np.frombuffer("".join(CLASS_NAMES).encode(), np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"i,j,class\r\n")
        lo = 0
        while lo < n:
            w = len(str(lo))
            hi = min(n, 10 ** w)
            cells = [f"{'0' * w},{j},N\r\n" for j in range(n)]
            template = np.frombuffer("".join(cells).encode(), np.uint8)
            lens = np.fromiter(map(len, cells), np.intp, n)
            ends = np.cumsum(lens)
            digit_at = ends - lens + np.arange(w)[:, None]
            rows = max(1, CSV_CHUNK // template.size)
            for r0 in range(lo, hi, rows):
                i = np.arange(r0, min(hi, r0 + rows))
                block = np.empty((i.size, template.size), np.uint8)
                block[:] = template
                for k in range(w):
                    block[:, digit_at[k]] = (i // 10 ** (w - 1 - k) % 10
                                             + 48)[:, None]
                block[:, ends - 3] = np.take(letters,
                                             dec.class_of[r0:r0 + i.size])
                fh.write(block)
            lo = hi


def trace_to_json(dec, path):
    # one dumps and one write: json.dump would write piece by piece, and
    # indent would swap the C encoder for the pure-Python one
    with open(path, "w") as fh:
        fh.write(json.dumps({"n": dec.n, "r": dec.r, "d": dec.d,
                             "rounds": list(dec.block_trace)}))


def triangle_split(g):
    """Upper and lower triangles of an undirected graph, as directed graphs.

    The decomposition is stated for directed samples; an undirected A is
    the sum U + U^T of its triangles, centred by triu(EA) and tril(EA)
    (``decompose``'s part="upper" and part="lower").
    """
    if g.directed:
        raise ValueError("triangle_split expects an undirected graph")
    upper = SparseGraph(g.n, g.i, g.j, g.w, directed=True)
    lower = SparseGraph(g.n, g.j, g.i, g.w, directed=True)
    return upper, lower
