"""Inhomogeneous Erdos-Renyi models and the seeded edge sampler.

A model is a symmetric matrix of connection probabilities (p_ij); the
diagonal is always treated as zero (no self-loops anywhere).
``expected_adjacency`` states p_ij; ``expected_dense`` and
``expected_degrees`` (EA 1) are read off it, and only ``ea_factors``,
the sampler's ``_groups`` and ``max_rate`` restate rates.

The paper's structured models are low rank up to the diagonal, and
``ea_factors`` states that as ``EAFactors``: EA = U C U^T with the
diagonal zeroed,

* Uniform:  U = 1, C = p, so EA = p 11^T - p I;
* BlockTwo: U = the two block indicators, C = [[a, b], [b, a]] / n,
  so EA = U C U^T - (a/n) I;
* RankOne:  U = theta, C = 1, so EA = theta theta^T - diag(theta^2),
  when no theta_i theta_j (i = j included) exceeds 1.

Explicit and a RankOne that clips have no factors (``ea_factors`` gives
None).  ``expected_adjacency``'s matvec closures are not built on the
factors, and only the consumers that need more than a matvec build
them: ``expected_dense`` as one product, and decompose, which reads
EA's restriction to a block I x J (``block``) in O(|I| |J|) with no
n x n array.

Two sparsity scales are exposed and every experiment states which one
it uses:

* ``max_rate(model)``            -- d     = max_ij n * p_ij,
* ``max_expected_degree(model)`` -- d_ave = max_i sum_{j != i} p_ij.

Sampling contract (v2)
----------------------
Rows are cut into blocks of ``ROW_BLOCK`` = 1024.  The pairs (i, j),
j > i, whose row i lies in block b are decided by the Philox stream
keyed ``(master_seed, stream_index, b)``, read word by word as doubles
u in (0, 1]; see ``_seeding``.  No draw depends on another block, on
the thread count or on how far ahead a stream is read, so a graph is a
pure function of (model, seed, stream) and is bit-for-bit reproducible
across platforms.

Uniform, BlockTwo and RankOne split the vertices into groups: all of
them; the two halves; theta-descending bins whose theta lie within a
factor 2 of the bin's top.  For each group pair (k, l) in turn, block
b's rows of group k times the group-l columns beyond each row form a
rectangle of constant rate q_kl, linearized row by row and walked with
geometric gaps (Batagelj & Brandes 2005): word u skips
floor(log u / log(1 - q_kl)) pairs after the last hit, and the word that
overshoots the rectangle is consumed as well.  For Uniform and BlockTwo
q_kl is p_ij itself.  For RankOne q_kl = min(top_k * top_l, 1) bounds
p_ij, and once a rectangle's hits are found, one more word u' per hit
keeps it iff u' * q_kl <= p_ij (Miller & Hagberg 2011).  The bins keep
q_kl < 4 p_ij, so a sample reads O(n / ROW_BLOCK * bins^2 + E nnz)
words.  Explicit reads one word per entry of the block's rows x n
rectangle, row-major, and keeps (i, j), j > i, iff u <= p_ij.

Directed sampling draws the j > i half exactly as above and the j < i
half the same way from each block's lower-orientation stream, so the
upper half of a directed sample is the undirected sample at the same
seed.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from . import _scipy
from ._seeding import ROW_BLOCK, BlockWords
from .errors import InvalidModel, InvalidRates
from .operators import LinearOp

EXPLICIT_N_LIMIT = 4096  # guard rail: Explicit stores a dense matrix


class SparseGraph:
    """Weighted graph stored as entry arrays (i, j, w), weights in (0, 1].

    Undirected graphs store each edge once with i < j; ``to_csr`` and
    ``degrees`` account for both orientations.  Self-loops are not
    representable.
    """

    def __init__(self, n, i, j, w, directed=False, _checked=False):
        self.n = int(n)
        self.directed = bool(directed)
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if not _checked:
            if not (i.shape == j.shape == w.shape) or i.ndim != 1:
                raise InvalidModel("entry arrays must be 1-d and equally long")
            if i.size:
                if i.min() < 0 or j.min() < 0 or i.max() >= n or j.max() >= n:
                    raise InvalidModel("vertex index out of range")
                if np.any(i == j):
                    raise InvalidModel("self-loops are not allowed")
                if not (w.min() > 0.0 and w.max() <= 1.0 + 1e-12):  # NaN too
                    raise InvalidModel("weights must lie in (0, 1]")
                if not self.directed:
                    i, j = np.minimum(i, j), np.maximum(i, j)
                code = i * n + j
                order = np.argsort(code, kind="stable")
                if np.any(np.diff(code[order]) == 0):
                    raise InvalidModel("duplicate entries")
                i, j, w = i[order], j[order], w[order]
        for a in (i, j, w):
            a.setflags(write=False)
        self.i, self.j, self.w = i, j, w

    @property
    def nnz(self):
        return self.i.size

    def degrees(self):
        """Weighted degree vector (both endpoints for undirected edges)."""
        deg = np.bincount(self.i, weights=self.w, minlength=self.n).astype(float)
        if self.directed:
            return deg  # out-degrees
        deg += np.bincount(self.j, weights=self.w, minlength=self.n)
        return deg

    def to_csr(self):
        if self.directed:
            return _scipy.sparse().csr_matrix((self.w, (self.i, self.j)),
                                              shape=(self.n, self.n))
        ii = np.concatenate([self.i, self.j])
        jj = np.concatenate([self.j, self.i])
        ww = np.concatenate([self.w, self.w])
        return _scipy.sparse().csr_matrix((ww, (ii, jj)),
                                          shape=(self.n, self.n))

    def to_dense(self):
        return self.to_csr().toarray()

    def with_entries(self, i, j, w):
        """Same n and directedness, new entry arrays (re-validated)."""
        return SparseGraph(self.n, i, j, w, directed=self.directed)

    @classmethod
    def from_dense(cls, M, directed=False, tol=0.0):
        M = np.asarray(M, dtype=float)
        n = M.shape[0]
        if directed:
            i, j = np.nonzero(np.abs(M) > tol)
            keep = i != j
            i, j = i[keep], j[keep]
        else:
            i, j = np.nonzero(np.triu(np.abs(M) > tol, k=1))
        return cls(n, i, j, M[i, j], directed=directed)

    def __eq__(self, other):
        if not isinstance(other, SparseGraph):
            return NotImplemented
        return (self.n == other.n and self.directed == other.directed
                and np.array_equal(self.i, other.i)
                and np.array_equal(self.j, other.j)
                and np.array_equal(self.w, other.w))

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"SparseGraph(n={self.n}, nnz={self.nnz}, {kind})"


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class Uniform:
    """G(n, p): every pair connected independently with probability p."""

    n: int
    p: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidModel("n must be positive")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidModel("p must lie in [0, 1]")


@dataclass(frozen=True)
class RankOne:
    """Degree-profile model: p_ij = min(theta_i * theta_j, 1), theta >= 0."""

    n: int
    theta: tuple

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        if th.shape != (self.n,):
            raise InvalidModel("theta must have length n")
        if th.size and (th.min() < 0.0 or not np.all(np.isfinite(th))):
            raise InvalidModel("theta must be finite and nonnegative")
        object.__setattr__(self, "theta", tuple(float(t) for t in th))
        th = np.array(self.theta)
        th.setflags(write=False)
        object.__setattr__(self, "_theta_array", th)

    def _th(self):
        return self._theta_array


@dataclass(frozen=True)
class BlockTwo:
    """Two equal blocks; p = a/n within blocks, b/n across, 0 <= b <= a.

    Vertices 0 .. n/2-1 form block 0, the rest block 1.
    """

    n: int
    a: float
    b: float

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise InvalidRates("n must be even and >= 2")
        if not 0.0 <= self.b <= self.a <= self.n:
            raise InvalidRates("need 0 <= b <= a <= n")

    @property
    def half(self):
        return self.n // 2

    def labels(self):
        """Ground-truth community labels: +1 on block 0, -1 on block 1."""
        return np.where(np.arange(self.n) < self.half, 1, -1)


@dataclass(frozen=True)
class Explicit:
    """Arbitrary symmetric probability matrix; diagonal ignored; n <= 4096."""

    P: np.ndarray

    def __post_init__(self):
        P = np.array(self.P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise InvalidModel("P must be square")
        if P.shape[0] > EXPLICIT_N_LIMIT:
            raise InvalidModel(f"Explicit models are capped at n = {EXPLICIT_N_LIMIT}")
        if P.size and np.abs(P - P.T).max() > 1e-12:
            raise InvalidModel("P must be symmetric")
        np.fill_diagonal(P, 0.0)
        if P.size and not (P.min() >= 0.0 and P.max() <= 1.0):  # NaN too
            raise InvalidModel("probabilities must lie in [0, 1]")
        P.setflags(write=False)
        object.__setattr__(self, "P", P)

    @property
    def n(self):
        return self.P.shape[0]


def degree_profile(n, values, fractions):
    """RankOne model whose expected degrees are (almost) the given values.

    theta_i = e_i / sqrt(sum_j e_j) makes E[deg_i] = e_i up to the
    self-loop exclusion.  Low indices get the first listed value:
    fractions (f_1, ..., f_k) allocate the first round(f_1 * n) vertices
    to values[0], the next block to values[1], and so on.
    """
    values = [float(v) for v in values]
    fractions = [float(f) for f in fractions]
    if len(values) != len(fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise InvalidModel("fractions must match values and sum to 1")
    e = np.empty(n)
    start = 0
    for v, f in zip(values, fractions):
        stop = min(n, start + int(round(f * n)))
        e[start:stop] = v
        start = stop
    e[start:] = values[-1]
    theta = e / np.sqrt(e.sum())
    return RankOne(n, tuple(theta))


# ---------------------------------------------------------------------------
# model-level quantities


def max_rate(model):
    """d = max_ij n * p_ij over off-diagonal pairs."""
    n = model.n
    if isinstance(model, Uniform):
        return n * model.p
    if isinstance(model, RankOne):
        if n < 2:
            return 0.0
        top2 = np.partition(model._th(), n - 2)[-2:]
        return n * min(top2[0] * top2[1], 1.0)
    if isinstance(model, BlockTwo):
        return float(model.a) if n >= 4 else float(model.b)
    if isinstance(model, Explicit):
        return n * model.P.max() if n >= 2 else 0.0
    raise TypeError(f"unknown model {type(model).__name__}")


def max_expected_degree(model):
    """d_ave = max_i sum_{j != i} p_ij."""
    deg = expected_degrees(model)
    return float(deg.max()) if deg.size else 0.0


# which pairs (i, j) of a block a decompose part keeps EA on: all but
# the diagonal, or one strict triangle of it
_PARTS = {"full": np.not_equal, "upper": np.less, "lower": np.greater}


def part_mask(I, J, part):
    """Boolean |I| x |J| mask of the pairs (i, j) that ``part`` keeps:
    i != j for "full", i < j for "upper" and i > j for "lower"."""
    return _PARTS[part](np.asarray(I)[:, None], np.asarray(J)[None, :])


@dataclass(frozen=True, eq=False)
class EAFactors:
    """EA = U C U^T with its diagonal zeroed (see the module docstring).

    ``U`` is n x k and ``C`` k x k, k <= 2.  Every entry U[i] C U[j]^T
    is one product or a sum of exact ones, so a block read holds the
    same bits as the matvec closure's columns.
    """

    U: np.ndarray
    C: np.ndarray

    def block(self, I, J, part="full"):
        """EA[I x J] as ``part`` keeps it (``part_mask``), the other
        entries 0: a new |I| x |J| array and nothing larger."""
        out = (self.U[I] @ self.C) @ self.U[J].T
        out *= part_mask(I, J, part)
        return out

    def dense(self):
        """EA as a dense n x n array: one product, diagonal zeroed."""
        out = (self.U @ self.C) @ self.U.T
        np.fill_diagonal(out, 0.0)
        return out


def _clip_partners(th):
    """(order, th sorted, idx) of RankOne's theta: theta_i theta_j clips
    at 1 exactly for the j at sorted positions >= idx[i] (n: none)."""
    order = np.argsort(th)
    th_s = th[order]
    with np.errstate(divide="ignore"):
        thresh = np.where(th > 0, 1.0 / np.where(th > 0, th, 1.0), np.inf)
    return order, th_s, np.searchsorted(th_s, thresh, side="right")


def ea_factors(model):
    """The model's ``EAFactors``, or None for Explicit and for a RankOne
    with a clipped pair (i = j included).  Built afresh on each call."""
    n = model.n
    if isinstance(model, Uniform):
        return EAFactors(np.ones((n, 1)), np.array([[model.p]]))
    if isinstance(model, BlockTwo):
        a, b = model.a / model.n, model.b / model.n
        U = np.zeros((n, 2))
        U[:model.half, 0] = U[model.half:, 1] = 1.0
        return EAFactors(U, np.array([[a, b], [b, a]]))
    if isinstance(model, RankOne):
        th = model._th()
        if np.all(_clip_partners(th)[2] == n):
            return EAFactors(th[:, None], np.ones((1, 1)))
    return None


def expected_adjacency(model):
    """EA as a symmetric matrix-free operator (diagonal zeroed).

    Structured kinds never materialize a dense matrix: Uniform and
    RankOne are rank-one up to diagonal (and clipping) corrections,
    BlockTwo is block-constant.
    """
    n = model.n
    if isinstance(model, Uniform):
        p = model.p

        def mv(x):
            return p * (x.sum() - x)

        return LinearOp(n, n, mv, mv, symmetric=True)
    if isinstance(model, RankOne):
        th = model._th()
        order, th_s, idx = _clip_partners(th)
        diag = np.minimum(th * th, 1.0)

        def mv(x):
            xs = x[order]
            txs = th_s * xs
            # suffix sums over the sorted order for the clipped partners
            suff_tx = np.concatenate([np.cumsum(txs[::-1])[::-1], [0.0]])
            suff_x = np.concatenate([np.cumsum(xs[::-1])[::-1], [0.0]])
            full = th * (th @ x)
            clip_corr = th * suff_tx[idx] - suff_x[idx]  # sum (th_i th_j - 1) x_j over clipped j
            return full - clip_corr - diag * x

        return LinearOp(n, n, mv, mv, symmetric=True)
    if isinstance(model, BlockTwo):
        h, a, b = model.half, model.a / model.n, model.b / model.n

        def mv(x):
            s0, s1 = x[:h].sum(), x[h:].sum()
            out = np.empty(n)
            out[:h] = a * s0 + b * s1
            out[h:] = b * s0 + a * s1
            return out - a * x

        return LinearOp(n, n, mv, mv, symmetric=True)
    if isinstance(model, Explicit):
        return LinearOp.from_dense(model.P, symmetric=True)
    raise TypeError(f"unknown model {type(model).__name__}")


def expected_dense(model):
    """EA as a dense array: one product of the factors, or the op's
    ``to_dense`` for a model without them (Explicit, clipping RankOne)."""
    f = ea_factors(model)
    return f.dense() if f is not None else expected_adjacency(model).to_dense()


def expected_degrees(model):
    """Expected degrees EA 1, i.e. sum_{j != i} p_ij for each i."""
    return expected_adjacency(model).matvec(np.ones(model.n))


# ---------------------------------------------------------------------------
# sampling


def sample(model, master_seed, stream_index=0):
    """Draw one undirected graph from the model under the seeding contract.

    Row block b's stream decides every pair (i, j), j > i, whose row i
    lies in block b; see the module docstring.
    """
    return _sample(model, master_seed, stream_index, directed=False)


def sample_directed(model, master_seed, stream_index=0):
    """Directed sample: every ordered pair (i, j), i != j, independent.

    The j > i half is the undirected sample at the same seed; the j < i
    half comes from the row blocks' lower-orientation streams.
    """
    return _sample(model, master_seed, stream_index, directed=True)


def _sample(model, master_seed, stream_index, directed):
    n = model.n
    layout = None if isinstance(model, Explicit) else _groups(model)
    parts = []
    for b in range(-(-n // ROW_BLOCK)):
        r0, r1 = b * ROW_BLOCK, min(n, (b + 1) * ROW_BLOCK)
        block = []
        for lower in ((False, True) if directed else (False,)):
            words = BlockWords(master_seed, stream_index, b, lower)
            block += ([_dense_block(model.P, words, r0, r1, lower)] if layout is None
                      else _skip_block(words, r0, r1, lower, *layout))
        if len(block) > 1:
            i = np.concatenate([bi for bi, _ in block])
            j = np.concatenate([bj for _, bj in block])
            order = np.argsort(i * n + j)
            block = [(i[order], j[order])]
        parts += block
    i_idx = np.concatenate([i for i, _ in parts]) if parts else np.empty(0, dtype=np.int64)
    j_idx = np.concatenate([j for _, j in parts]) if parts else np.empty(0, dtype=np.int64)
    w = np.ones(i_idx.size)
    return SparseGraph(n, i_idx, j_idx, w, directed=directed, _checked=True)


def _groups(model):
    """(groups, bound, p) laying a structured model out for skipping.

    ``groups`` are sorted vertex-index arrays and ``bound[k, l]`` bounds
    p_ij from above on group k x group l.  ``p(i, j)`` gives the pairs'
    own probabilities to thin by, or is None where the bound is exact.
    """
    n = model.n
    if isinstance(model, Uniform):
        return [np.arange(n)], np.array([[model.p]]), None
    if isinstance(model, BlockTwo):
        a, b = model.a / n, model.b / n
        return ([np.arange(model.half), np.arange(model.half, n)],
                np.array([[a, b], [b, a]]), None)
    if isinstance(model, RankOne):
        th = model._th()
        live = np.flatnonzero(th > 0)
        if not live.size:
            return [], None, None
        # theta-descending bins, each within a factor 2 of its top value
        level = np.floor(np.log2(th.max() / th[live]))
        order = np.argsort(level, kind="stable")
        groups = np.split(live[order], np.flatnonzero(np.diff(level[order])) + 1)
        top = np.array([th[g].max() for g in groups])
        return (groups, np.minimum(np.outer(top, top), 1.0),
                lambda i, j: np.minimum(th[i] * th[j], 1.0))
    raise TypeError(f"unknown model {type(model).__name__}")


def _skip_block(words, r0, r1, lower, groups, bound, p):
    """Hits of rows r0 .. r1-1, group pair by group pair, as (i, j) parts.

    Group k's rows in the block times group l's columns beyond (or, for
    ``lower``, before) each row form one constant-rate rectangle; its
    pairs are linearized row by row and walked with geometric gaps.
    """
    parts = []
    for k, R in enumerate(groups):
        R = R[np.searchsorted(R, r0):np.searchsorted(R, r1)]
        for l, C in enumerate(groups):
            q = bound[k, l]
            if lower:
                c0, c1 = np.zeros_like(R), np.searchsorted(C, R)
            else:
                c0, c1 = np.searchsorted(C, R, side="right"), np.full_like(R, C.size)
            off = np.concatenate(([0], np.cumsum(c1 - c0)))
            if q <= 0.0 or off[-1] == 0:
                continue
            pos = _geometric_hits(words, int(off[-1]), q)
            r = np.searchsorted(off, pos, side="right") - 1
            i, j = R[r], C[c0[r] + pos - off[r]]
            if p is not None:
                keep = words.take(i.size) * q <= p(i, j)
                i, j = i[keep], j[keep]
            parts.append((i, j))
    return parts


def _geometric_hits(words, length, q):
    """Hit positions among ``length`` Bernoulli(q) trials (Batagelj-Brandes).

    Word u skips floor(log u / log(1 - q)) trials after the last hit,
    so P(skip >= g) = (1 - q)^g.  The word overshooting ``length`` is
    consumed and no later one.
    """
    with np.errstate(divide="ignore"):
        lam = np.log1p(-q)  # -inf at q = 1: every gap is 0
    mean = q * length
    m = min(length, int(mean + 4.0 * np.sqrt(mean))) + 16  # a first guess only
    while True:
        pos = np.cumsum(np.floor(np.log(words.peek(m)) / lam) + 1.0) - 1.0
        if pos[-1] >= length:
            break
        m *= 2
    hits = int(np.searchsorted(pos, length))
    words.take(hits + 1)
    return pos[:hits].astype(np.int64)


def _dense_block(P, words, r0, r1, lower):
    """One word per entry of rows r0 .. r1-1 of P, row-major; u <= p_ij hits."""
    n = P.shape[0]
    u = words.take((r1 - r0) * n).reshape(r1 - r0, n)
    rows = np.arange(r0, r1)[:, None]
    side = np.arange(n) < rows if lower else np.arange(n) > rows
    i, j = np.nonzero((u <= P[r0:r1]) & side)
    return i + r0, j


# ---------------------------------------------------------------------------
# file formats


SAVE_CHUNK = 1 << 16  # edges per formatted block: save_graph's scratch is O(chunk)

# "ddd," for k = 0 .. 999, one uint32 word each: the bytes of a
# three-digit group of a vertex id and the comma that may follow it
_DIGIT_GROUPS = np.frombuffer(
    "".join(f"{k:03d}," for k in range(1000)).encode(), np.uint32)
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
_EDGE_DTYPE = [("i", np.int64), ("j", np.int64), ("w", np.float64)]


def save_graph(g, path):
    """JSON header line {"n","directed","weighted"} then lines i,j,repr(w).

    The edge lines are formatted in numpy, ``SAVE_CHUNK`` edges at a
    time, as one rows x width byte block: each vertex id as right-aligned
    "ddd," groups, then the text repr(w) + "\n" padded to whole words
    (repr runs once per distinct weight of the chunk).  One boolean mask
    drops the leading zeros, the inner commas and the padding; the bytes
    it keeps are the lines.  ``load_graph`` reads every value back bit
    for bit.
    """
    weighted = bool(g.nnz and np.any(g.w != 1.0))
    header = {"n": g.n, "directed": g.directed, "weighted": weighted}
    id_keep = _id_keep(-(-len(str(max(g.n - 1, 0))) // 3))
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for s in range(0, g.nnz, SAVE_CHUNK):
            e = slice(s, s + SAVE_CHUNK)
            fh.write(_edge_lines(g.i[e], g.j[e], g.w[e], id_keep))


def _id_keep(groups):
    """Row d - 1: the bytes of a ``groups`` x "ddd," field that a d-digit
    id keeps (its d digits and the last comma), one uint32 per group."""
    place = np.empty((groups, 4), np.int64)
    place[:, :3] = np.arange(3 * groups - 1, -1, -1).reshape(groups, 3)
    place[:, 3] = 3 * groups  # inner commas: never kept
    place[-1, 3] = -1         # the comma after the id: always kept
    keep = place.ravel() < np.arange(1, 3 * groups + 1)[:, None]
    return keep.view(np.uint32)


def _edge_lines(i, j, w, id_keep):
    """The bytes of the lines i,j,repr(w) of one chunk of edges."""
    rows, groups = i.size, id_keep.shape[1]
    uniq, inv = np.unique(w.view(np.uint64), return_inverse=True)
    text = [repr(x) + "\n" for x in uniq.view(np.float64).tolist()]
    lens = np.fromiter(map(len, text), np.intp, len(text))
    words = -(-int(lens.max()) // 8)
    text_keep = np.arange(8 * words) < lens[:, None]
    text_bytes = np.zeros(text_keep.shape, np.uint8)
    text_bytes[text_keep] = np.frombuffer("".join(text).encode(), np.uint8)

    f = 8 * groups  # bytes of the two id fields
    block = np.empty((rows, f + 8 * words), np.uint8)
    keep = np.empty(block.shape, bool)
    v = np.stack([i, j], axis=1)
    # d - 1 for a d-digit id: the powers 10, 100, ... it reaches
    tens = np.searchsorted(_POW10[:3 * groups - 1], v, side="right")
    v = v.astype(np.uint64)
    id_words = block[:, :f].view(np.uint32).reshape(rows, 2, groups)
    id_masks = keep[:, :f].view(np.uint32).reshape(rows, 2, groups)
    for k in range(groups - 1, -1, -1):
        id_words[:, :, k] = np.take(_DIGIT_GROUPS, v % 1000)
        id_masks[:, :, k] = np.take(id_keep[:, k], tens)
        v //= 1000
    w_words = block[:, f:].view(np.uint64)
    w_masks = keep[:, f:].view(np.uint64)
    for c in range(words):
        w_words[:, c] = np.take(text_bytes.view(np.uint64)[:, c], inv)
        w_masks[:, c] = np.take(text_keep.view(np.uint64)[:, c], inv)
    return np.compress(keep.ravel(), block.ravel()).tobytes()


# what each save_graph header field must hold; weighted may be absent
_HEADER_FIELDS = {
    "n": ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    "directed": ("true or false", lambda v: isinstance(v, bool)),
    "weighted": ("true or false", lambda v: isinstance(v, bool)),
}


def _read_header(path, line):
    """The header object of a graph file, checked field by field; a
    ValueError naming the file and the field otherwise."""
    try:
        header = json.loads(line)
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: line 1 must be a JSON object header")
    for key, (desc, admits) in _HEADER_FIELDS.items():
        if key not in header and key != "weighted":
            raise ValueError(f"{path}: header has no field {key!r}")
        if key in header and not admits(header[key]):
            raise ValueError(f"{path}: header field {key!r} must be {desc}, "
                             f"not {header[key]!r}")
    return header


def _refusal(n, edges, directed):
    """SparseGraph's InvalidModel on these edges, or None if it takes them."""
    try:
        SparseGraph(n, edges["i"], edges["j"], edges["w"], directed=directed)
    except InvalidModel as err:
        return err
    return None


def load_graph(path):
    """Read a ``save_graph`` file; every value comes back bit for bit.

    The header must be a JSON object with ``n`` a non-negative integer,
    ``directed`` a bool and ``weighted``, if present, a bool.  An edge
    set that ``SparseGraph`` refuses (an id out of range, a self-loop, a
    weight outside (0, 1], a duplicate) is a ValueError naming the file
    and the first line that makes it so.
    """
    with open(path) as fh:
        header = _read_header(path, fh.readline())
        body = fh.read()
    edges = np.empty(0, dtype=_EDGE_DTYPE)
    if body.strip():
        try:
            edges = np.loadtxt(io.StringIO(body), delimiter=",",
                               dtype=_EDGE_DTYPE, ndmin=1)
        except ValueError as err:
            raise ValueError(f"{path}: every edge line must read i,j,w") from err
    n, directed = header["n"], header["directed"]
    try:
        return SparseGraph(n, edges["i"], edges["j"], edges["w"],
                           directed=directed)
    except InvalidModel:
        pass
    # the shortest refused prefix of the edges ends on the first bad line
    lo, hi = 0, edges.size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _refusal(n, edges[:mid], directed) else (mid, hi)
    # the file lines np.loadtxt read an edge from (it skips blank lines
    # and # comments); line 1 is the header
    lines = [no for no, text in enumerate(body.split("\n"), 2)
             if text.split("#")[0].strip()]
    raise ValueError(f"{path}: line {lines[hi - 1]}: "
                     f"{_refusal(n, edges[:hi], directed)}")


def model_to_dict(model):
    if isinstance(model, Uniform):
        return {"kind": "uniform", "n": model.n, "p": model.p}
    if isinstance(model, RankOne):
        return {"kind": "rankone", "n": model.n, "theta": list(model.theta)}
    if isinstance(model, BlockTwo):
        return {"kind": "blocktwo", "n": model.n, "a": model.a, "b": model.b}
    if isinstance(model, Explicit):
        return {"kind": "explicit", "P": model.P.tolist()}
    raise TypeError(f"unknown model {type(model).__name__}")


def is_number(v):
    """Whether ``v`` is a JSON number: an int or a float, not a bool."""
    return type(v) is int or isinstance(v, float)


def _is_numbers(v):
    return isinstance(v, list) and all(map(is_number, v))


# what each spec field must hold.  A field is checked, never coerced:
# reading n = 100.7 as 100 would sample another model than the one
# config.json records.
_SPEC_FIELDS = {
    "n": ("an integer", lambda v: type(v) is int),
    "p": ("a number", is_number),
    "a": ("a number", is_number),
    "b": ("a number", is_number),
    "theta": ("a list of numbers", _is_numbers),
    "values": ("a list of numbers", _is_numbers),
    "fractions": ("a list of numbers", _is_numbers),
    "P": ("a list of lists of numbers",
          lambda v: isinstance(v, list) and all(map(_is_numbers, v))),
}


def model_from_dict(spec):
    """A model from its JSON spec; InvalidModel for a spec that is no
    object, names no known kind, lacks a field or holds a field of the
    wrong type (a bool or a string is no number, and n is an integer)."""
    if not isinstance(spec, dict):
        raise InvalidModel(f"a model spec is a JSON object, not {spec!r}")
    kind = spec.get("kind")

    def field(key):
        if key not in spec:
            raise InvalidModel(f"{kind} model spec lacks field {key!r}")
        desc, admits = _SPEC_FIELDS[key]
        if not admits(spec[key]):
            raise InvalidModel(f"{kind} model spec's {key} must be {desc}, "
                               f"not {spec[key]!r}")
        return spec[key]

    if kind == "uniform":
        return Uniform(field("n"), float(field("p")))
    if kind == "rankone":
        return RankOne(field("n"), tuple(float(t) for t in field("theta")))
    if kind == "blocktwo":
        return BlockTwo(field("n"), float(field("a")), float(field("b")))
    if kind == "explicit":
        return Explicit(np.asarray(field("P"), dtype=float))
    if kind == "profile":
        return degree_profile(field("n"), field("values"), field("fractions"))
    raise InvalidModel(f"unknown model kind {kind!r}")
