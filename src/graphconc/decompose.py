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
again; the verifier still checks it on L's own edges and EA.  The
decomposition carries its part, so the verifier centres A by the
entries of EA that ``decompose`` did.

A round centres its own densified copy of A's block (the first round
reads A's csr itself, no block copy).  When every row and column passes
the filter, the row pass's block is the column pass's transposed and
GP decides both at once (``_gp_both``); otherwise, or when that
decision fails, the column pass runs on the centred block, uncopied
when every row passes the filter, and the row pass on a C-ordered copy
of the transpose's good rows, made before the centred block is
dropped.  The round's trace entry keeps each pass's
``pietsch.GPCertificate`` as a dict of its fields, in field order
(``gp_cols``, ``gp_rows``).  EA is subtracted ``EA_CHUNK`` entries at
a time (``_centred``), each chunk read from the model
(its ``ea_block``) and masked by the part (``_ea_reader``), so the
centring holds no n x n EA and writes into neither the caller's A nor
the model.  The verifier multiplies by (A - EA)_N with no n x n array
(``_sparse_deviation``): the operator of A's edges in N less the
part's EA operator as ``_PARTS`` names it (the model's ``ea_op`` for a
directed part, its strict upper triangle ``ea_triangle`` or that
transposed for a triangle), composed as every deviation in the package
is (``compose_difference`` of ``adjacency_shifted_op``), plus the
part's EA on R's columns and C's rows, the cells N leaves out, which it
finds reading the labels ``LABEL_ROWS`` rows at a time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import SizeExceeded
from .models import SparseGraph
from .operators import LinearOp, compose_difference
from .pietsch import gp_submatrix, gp_submatrix_both
from .regularize import adjacency_shifted_op
from .spectral import spectral_norm

CLASS_N, CLASS_R, CLASS_C = 0, 1, 2
CLASS_NAMES = ("N", "R", "C")
TINY_BLOCK = 8
DENSE_LIMIT = 4096
EA_CHUNK = 1 << 14  # entries of EA read per chunk when subtracting it
LABEL_ROWS = 256  # rows of the labels scanned at a time for R and C
CSV_CHUNK = 1 << 20  # bytes of class CSV rows formatted per write
# footprint slack of Theorem 2.6: the halving rounds spend
# sum_i 2^{-i/2} ~ 3.41 of the single-round column budget
KAPPA = 4.0
# the parts a decomposition may be of: which pairs (i, j) of a block
# keep their EA entry (all but the diagonal, or one strict triangle),
# the part of the transpose, and the part's EA as a model's operator:
# EA itself, its strict upper triangle U, or U^T
_PARTS = {"full": (np.not_equal, "full", lambda m: m.ea_op()),
          "upper": (np.less, "lower", lambda m: m.ea_triangle()),
          "lower": (np.greater, "upper", lambda m: m.ea_triangle().T)}


def _check_part(part):
    if part not in _PARTS:
        raise ValueError(f"part must be 'full', 'upper' or 'lower', "
                         f"not {part!r}")


@dataclass(frozen=True)
class EdgeDecomposition:
    """Assignment of every ordered pair to N (0), R (1) or C (2).

    ``part`` names the entries of EA that centre A: "full" for a
    directed sample, "upper" or "lower" for a triangle (``decompose``).
    """

    n: int
    class_of: np.ndarray
    r: float
    d: float
    block_trace: tuple
    part: str = "full"

    def __post_init__(self):
        if not (0 < self.r < np.inf and 0 < self.d < np.inf):  # NaN too
            raise ValueError("r and d must be finite and positive")
        _check_part(self.part)
        labels = np.asarray(self.class_of, dtype=np.int8)
        if labels.shape != (self.n, self.n):
            raise ValueError("class_of must be n x n")
        if labels.size and (labels.min() < 0 or labels.max() > 2):
            raise ValueError("every ordered pair needs a class in {N, R, C}")
        labels.setflags(write=False)
        object.__setattr__(self, "class_of", labels)

    def counts(self):
        return {CLASS_NAMES[c]: int((self.class_of == c).sum()) for c in range(3)}


def _ea_reader(model, n, part):
    """``read(I, J)``: the model's EA[I x J], its ``ea_block`` of
    I[:, None] and J, times the mask of the pairs ``part`` keeps
    (``_PARTS``, read under the same broadcasting), as a new array; the
    one place where a part selects EA's entries, so EA's diagonal reads
    0 in every part.  Refuses n > DENSE_LIMIT and a model of another n,
    before any n x n work.
    """
    if n > DENSE_LIMIT:
        raise SizeExceeded(f"decompose holds n x n arrays; n <= {DENSE_LIMIT}")
    if model.n != n:
        raise ValueError(f"EA shape mismatch: the model has n = {model.n}, "
                         f"A has n = {n}")
    keep = _PARTS[part][0]

    def read(I, J):
        out = model.ea_block(I[:, None], J)
        out *= keep(I[:, None], J)
        return out

    return read


def _centred(ones, read, I, J):
    """A - EA on I x J as a new dense array: the 0/1 csr block ``ones``
    densified, less EA as ``read`` gives it (``_ea_reader``),
    ``EA_CHUNK`` entries at a time: no EA block larger than one chunk
    exists."""
    out = ones.toarray()
    step = max(1, EA_CHUNK // max(J.size, 1))
    for s in range(0, I.size, step):
        out[s:s + step] -= read(I[s:s + step], J)
    return out


def _zero_one(A):
    """A itself, once checked to be a directed 0/1 SparseGraph."""
    if not A.directed:
        raise ValueError("decompose expects a directed graph; "
                         "split undirected input into triangles first")
    if A.weighted:
        raise ValueError("decompose expects a 0/1 adjacency")
    return A


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


def _exceptional(sub, good_rows, J_gp, r, cap):
    """The rest of pass 1 once GP kept the columns ``J_gp`` of the block's
    good rows; pass 2 runs it on the transpose.

    Returns (exceptional mask J1, 32r-light mask J44, capped?).
    """
    m = sub.shape[1]
    gp_col = np.zeros(m, dtype=bool)
    gp_col[J_gp] = True
    bad_rows = ~good_rows
    ones_bad = (sub[bad_rows].getnnz(axis=0) if bad_rows.any()
                else np.zeros(m, dtype=np.int64))
    light = ones_bad <= 32 * r
    J1_mask, capped = _cap_exceptional(~(gp_col & light), cap, ~gp_col,
                                       ones_bad)
    return J1_mask, light, capped


def _gp_both(cent, good_rows, good_cols, gp_iters):
    """GP on both passes' blocks: ((J_gp, cert), (I_gp, cert)).

    When every row and column is good, the row pass's block is the
    column pass's transposed: ``gp_submatrix_both`` runs GP on the
    column pass's block and, when its one decision proves both uniform
    certificates, answers for the row pass's too.  Otherwise
    ``gp_submatrix`` runs on the column pass's block.  A row pass's
    block not answered yet goes to ``gp_submatrix``: a C-ordered copy of
    cent^T's good rows, made before ``cent`` is dropped.  A block's
    descent (``pietsch``), when it needs one, runs at most ``gp_iters``
    steps.  Consumes ``cent``.
    """
    rows = None
    if good_rows.all() and good_cols.all():
        cols, rows = gp_submatrix_both(cent, 0.25, max_iter=gp_iters)
    else:
        cols = gp_submatrix(_gp_rows(cent, good_rows), 0.25,
                            max_iter=gp_iters)
    if rows is None:
        B_rows = _gp_rows(cent.T, good_cols)
        del cent
        rows = gp_submatrix(B_rows, 0.25, max_iter=gp_iters)
    return cols, rows


def _block_pass(A01, read_ea, I, J, alpha, r, d, m_nom, gp_iters=500):
    """One round of the block decomposition (Lemma 5.1, constructive).

    Runs on the 0/1 csr A01 and EA's blocks as ``read_ea`` reads them
    (``_ea_reader``, which holds the part).
    Returns (grid, I1_mask, J1_mask, trace): grid is the |I| x |J| class
    array of the block, -1 exactly on the exceptional hole I1 x J1;
    trace's ``gp_cols`` and ``gp_rows`` hold the passes' certificates'
    fields, in field order.
    Returns None when no row of the block passes the filter (the driver
    treats the whole block as exceptional).
    """
    mI, mJ = I.size, J.size
    n = A01.shape[0]
    if alpha < np.sqrt(max(mI, mJ, 1) / n) - 1e-12:
        raise ValueError("alpha must be at least sqrt(m/n)")
    # the first round's block is A01 itself: no copy of a dense sample
    sub = A01 if mI == mJ == n else A01[I][:, J].tocsr()
    row_cap = 8.0 * r * alpha * d
    good_rows = sub.getnnz(axis=1) <= row_cap
    good_cols = sub.getnnz(axis=0) <= row_cap
    if not good_rows.any():
        return None
    (J_gp, cert_cols), (I_gp, cert_rows) = _gp_both(
        _centred(sub, read_ea, I, J), good_rows, good_cols, gp_iters)
    cap = int(m_nom) // 2
    J1_mask, j44, capped_j = _exceptional(sub, good_rows, J_gp, r, cap)
    I1_mask, i44, capped_i = _exceptional(sub.T, good_cols, I_gp, r, cap)

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
        gp_cols=asdict(cert_cols), gp_rows=asdict(cert_rows),
        row_filter_empty=False, all_n=False)
    return grid, I1_mask, J1_mask, trace


def decompose(A, model, r, d, gp_iters=500, part="full"):
    """Full iterative decomposition of a directed sample; an undirected
    sample's lower triangle takes ``transposed`` of the upper one's.

    A is centred by the EA of ``model``, the model A was drawn from,
    read block by block (``_ea_reader``).  ``part`` says which of EA's
    entries centre A: "full" for a directed sample, "upper" or "lower"
    for a triangle of an undirected one (``triangle_split``), the others
    read as 0.  The decomposition records ``part``; any other value is
    refused, as r and d are, before any work starts.

    Starts from the whole square with m = n, alpha = 1; each round
    paints (I x J) \\ (I1 x J1) and recurses into the exceptional block
    with m halved and alpha = sqrt(m/n), until the exceptional block is
    empty or tiny: m or max(|I|, |J|) at most TINY_BLOCK (then it goes
    to N wholesale).  A round in which no row passes the filter marks
    its whole block exceptional and continues shrinking.  R rows and C
    columns are each disjoint across rounds by construction (asserted).
    r and d must be finite and positive.
    """
    if not (0 < r < np.inf and 0 < d < np.inf):  # NaN too
        raise ValueError("decompose needs finite r > 0 and d > 0")
    _check_part(part)
    A01 = _zero_one(A).to_csr()
    n = A.n
    read_ea = _ea_reader(model, n, part)
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
        found = _block_pass(A01, read_ea, I, J, alpha, r, d, m_nom,
                            gp_iters=gp_iters)
        if found is None:
            trace.append(_round_trace(m_nom, alpha, I, J,
                                      row_filter_empty=True, all_n=False))
        else:
            grid, I1_mask, J1_mask, round_trace = found
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
    return EdgeDecomposition(n=n, class_of=labels, r=float(r), d=float(d),
                             block_trace=tuple(trace), part=part)


# a round's trace keys for rows, each with its column key
_ROW_COL = dict(rows="cols", I="J", I_prime="J_prime", I44="J44", I1="J1",
                capped_I1="capped_J1", gp_rows="gp_cols")
_SWAP = {**_ROW_COL, **{c: r for r, c in _ROW_COL.items()}}


def transposed(dec):
    """The decomposition of A^T read off ``dec``, that of A: ``class_of``
    transposed with R and C exchanged, each round's trace entry, in its
    key order, with each row key's value swapped with its column key's
    (``_ROW_COL``), and the part transposed ("upper" <-> "lower",
    "full" kept).  Its GP certificates are A^T's when A^T is centred by
    EA^T bit for bit (tril(EA) = triu(EA)^T).

    ``decompose`` on A^T gives the same but in two corners, both needing
    rows and columns that fail the 8 r alpha d filter: a cell in both a
    round's C and R rectangles is R in either run, so C here; and a
    round where some row passes the filter but no column does goes on
    for A, while A^T's run finds no row that passes the filter (or the
    reverse).  Both forms pass ``verify_decomposition``.  Seen once at
    seed 1729 (r = 0.25, n = 128, d = 2, trial 0): U's (17, 79) is R,
    and so is L's (79, 17) by ``decompose``.  The GP fields can differ
    too, though no run has shown it: a round whose one decision
    (``pietsch.gp_submatrix_both``) finds ||B|| within rounding of its t
    may decide it on B^T B for A and on B B^T for A^T, and one run can
    then record sign-power certificates where the other falls back.
    """
    swap_rc = np.array([CLASS_N, CLASS_C, CLASS_R], dtype=np.int8)
    trace = tuple({k: rnd[_SWAP.get(k, k)] for k in rnd}
                  for rnd in dec.block_trace)
    return EdgeDecomposition(dec.n, swap_rc[dec.class_of.T], dec.r, dec.d,
                             trace, _PARTS[dec.part][1])


# ---------------------------------------------------------------------------
# verification


def verify_decomposition(A, model, dec):
    """The record of one decomposition: its certified properties checked,
    the rest measured.

    A is the directed 0/1 ``SparseGraph`` that was decomposed and
    ``model`` the model whose EA centres it, as in ``decompose``; r, d
    and the part that selects EA's entries are the decomposition's own.
    Every ordered pair carries exactly one class already
    (``EdgeDecomposition`` refuses any other label).  The record's keys,
    in this order, are the ``decompose`` command's trial columns without
    their part prefix:

    structural_ok
        every row of A restricted to R has <= 32r ones
        (max_r_row_ones), and so has every column restricted to C
        (max_c_col_ones), both counted at A's edges;
    r_footprint_ok, c_footprint_ok
        R touches <= KAPPA n/d columns (r_cols) and C <= KAPPA n/d rows
        (c_rows); reported, not raised;
    norm_n, norm_steps, norm_eps, norm_ratio
        ||(A - EA)_N|| by spectral_norm, with its steps and eps, and its
        ratio to r^{3/2} sqrt(d); recorded only.  The operator is
        ``_sparse_deviation``, built on the part's EA operator
        (``_PARTS``);
    rounds
        the decomposition's block rounds;
    gp_target_met
        every GP block of those rounds met its target (the trace's
        ``target_met``).

    Flags are Python bools, counts Python ints.
    """
    n, d, r = dec.n, dec.d, dec.r
    labels = dec.class_of
    read_ea = _ea_reader(model, n, dec.part)
    at_edges = labels[A.i, A.j]
    max_r_row = int(np.bincount(A.i[at_edges == CLASS_R]).max(initial=0))
    max_c_col = int(np.bincount(A.j[at_edges == CLASS_C]).max(initial=0))
    in_r, in_c = np.zeros((2, n), dtype=bool)
    for s in range(0, n, LABEL_ROWS):  # no n x n boolean of a class
        strip = labels[s:s + LABEL_ROWS]
        in_r |= (strip == CLASS_R).any(axis=0)
        in_c[s:s + LABEL_ROWS] = (strip == CLASS_C).any(axis=1)
    r_cols, c_rows = np.flatnonzero(in_r), np.flatnonzero(in_c)
    limit = KAPPA * n / d

    # no part is scanned for a symmetry: a triangle has one only when it
    # is zero, and no directed sample measured has had one
    norm_n, norm_steps, norm_eps = spectral_norm(_sparse_deviation(
        _zero_one(A).subset(at_edges == CLASS_N), _PARTS[dec.part][2](model),
        _ea_strips(read_ea, labels, r_cols, c_rows)))
    met = all(rnd[k]["target_met"] for rnd in dec.block_trace
              for k in ("gp_cols", "gp_rows") if k in rnd)
    return {"structural_ok": bool(max(max_r_row, max_c_col) <= 32.0 * r),
            "r_footprint_ok": bool(r_cols.size <= limit),
            "c_footprint_ok": bool(c_rows.size <= limit),
            "max_r_row_ones": max_r_row, "max_c_col_ones": max_c_col,
            "r_cols": int(r_cols.size), "c_rows": int(c_rows.size),
            "norm_n": norm_n, "norm_steps": norm_steps, "norm_eps": norm_eps,
            "norm_ratio": float(norm_n / (r ** 1.5 * np.sqrt(d))),
            "rounds": len(dec.block_trace), "gp_target_met": met}


def _ea_strips(read_ea, labels, r_cols, c_rows):
    """The part's EA on R's cells, as the n x |r_cols| strip of R's
    columns, and on C's cells, as the |c_rows| x n strip of C's rows,
    each 0 off its class."""
    every = np.arange(labels.shape[0])
    on_r = read_ea(every, r_cols)
    on_r *= labels[:, r_cols] == CLASS_R
    on_c = read_ea(c_rows, every)
    on_c *= labels[c_rows] == CLASS_C
    return (r_cols, on_r), (c_rows, on_c)


def _sparse_deviation(A_N, ea, strips):
    """(A - EA)_N as A_N - EA_part + EA_part's R and C cells, with no
    n x n array: ``A_N`` the directed graph of A's edges in N, less
    ``ea``, the part's EA as one operator (``_PARTS``), the package's
    deviation operator (``compose_difference`` of
    ``adjacency_shifted_op``), plus ``strips``, the part's EA on R's
    columns and C's rows (``_ea_strips``), added back because N leaves
    those cells out.  The rmatvec is its transpose term by term."""
    (cols, on_r), (rows, on_c) = strips
    dev = compose_difference(adjacency_shifted_op(A_N), ea)

    def product(x, d, cells, on, lines, across):
        y = d(x)
        if cells.size:
            y += on @ x[cells]
        if lines.size:
            y[lines] += across @ x
        return y

    return LinearOp(
        A_N.n, A_N.n,
        lambda x: product(x, dev._matvec, cols, on_r, rows, on_c),
        lambda x: product(x, dev._rmatvec, rows, on_c.T, cols, on_r.T))


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
    # g's entries, sorted by (i, j), are the upper triangle's as they stand
    upper = SparseGraph(g.n, g.i, g.j, g.w, directed=True, _checked=True)
    lower = SparseGraph(g.n, g.j, g.i, g.w, directed=True)
    return upper, lower
