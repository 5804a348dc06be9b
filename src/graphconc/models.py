"""Inhomogeneous Erdos-Renyi models and the seeded edge sampler.

A model is a symmetric matrix of connection probabilities (p_ij); the
diagonal is always treated as zero (no self-loops anywhere).  Each kind
is one frozen dataclass that states its p_ij once, through five
methods, plus ``n``, its spec ``kind`` and its dataclass fields (the
spec's fields, in constructor order):

* ``max_rate()``      -- d = max_ij n * p_ij over off-diagonal pairs;
* ``ea_op()``         -- EA as a symmetric matvec closure, diagonal
  zeroed, whose product allocates the one vector it returns (RankOne's
  also x sorted by theta and two cumulative sums);
* ``ea_block(i, j)``  -- p_ij as a new array, read under numpy
  broadcasting: ``ea_block(I[:, None], J)`` is EA[I x J] for index
  arrays I and J, and 1-d i and j give the pairs' own rates; the
  pairs i = j read p_ii as the kind states it (theta_i^2 clipped,
  say), not 0: zeroing them is the caller's;
* ``ea_triangle()``   -- EA's strict upper triangle U as a LinearOp
  (``matvec`` U x, ``rmatvec`` U^T y), every kind's: O(n rank) a
  product for a kind that is low rank off the diagonal (Uniform,
  BlockTwo, RankOne), a clipping RankOne adding the n x |H| strip of
  its clipping columns H, and row strips of P for Explicit;
* ``layout()``        -- the sampler's (groups, bound, thin), below.

The kinds:

* Uniform:  p everywhere;
* BlockTwo: a/n within a block, b/n across;
* RankOne:  min(theta_i theta_j, 1);
* Explicit: P's own entries, the one kind with an n x n EA.

No function here branches on the kind: ``expected_adjacency`` is
``ea_op``, ``expected_degrees`` (EA 1) is read off it,
``expected_dense`` (EA on the whole square, diagonal zeroed) off
``ea_block``, the sampler walks each ``layout``, and
``model_to_dict`` writes ``kind`` and the fields.  Decompose reads EA
block by block through ``ea_block`` in O(|I| |J|), and its verifier
multiplies by ``ea_op`` for a directed part and by ``ea_triangle``
for a triangle.  A new kind is one class; only
``model_from_dict`` needs it listed in ``_MODEL_KINDS``.

Two sparsity scales are exposed and every experiment states which one
it uses:

* ``model.max_rate()``           -- d     = max_ij n * p_ij,
* ``max_expected_degree(model)`` -- d_ave = max_i sum_{j != i} p_ij.

Sampling contract (v3)
----------------------
Rows are cut into blocks of ``ROW_BLOCK`` = 1024.  The pairs (i, j),
j > i, whose row i lies in block b are decided by the Philox stream
keyed ``(master_seed, stream_index, b)``, read word by word as doubles
u in (0, 1]; see ``_seeding``.  No draw depends on another block, on
the thread count or on how far ahead a stream is read, so a graph is a
pure function of (model, seed, stream) and is bit-for-bit reproducible
across platforms.

A ``layout()`` of (groups, bound, thin) splits the vertices into
groups, sorted index arrays: Uniform's and Explicit's one group of all
of them, BlockTwo's two halves, RankOne's theta-descending bins whose
theta lie within a factor 2 of the bin's top.  ``bound[k, l]`` = q_kl
bounds p_ij from above on group k x group l, and ``thin`` is the
kind's own ``ea_block``, or None where q_kl is exact.  For each group
pair (k, l) in turn, block b's rows of group k times the group-l
columns beyond each row form a rectangle of constant rate q_kl,
linearized row by row and walked with geometric gaps (Batagelj &
Brandes 2005): word u skips floor(log u / log(1 - q_kl)) pairs after
the last hit, and the word that overshoots the rectangle is consumed
as well.  For Uniform and BlockTwo q_kl is p_ij itself.  For RankOne
q_kl = min(top_k * top_l, 1) bounds p_ij, for Explicit q = P.max(),
and once a rectangle's hits are found, one more word u' per hit keeps
it iff u' * q_kl <= thin(i, j) (Miller & Hagberg 2011).  RankOne's
bins keep q_kl < 4 p_ij, so its sample reads O(n / ROW_BLOCK * bins^2
+ E nnz) words; Explicit's reads O(n / ROW_BLOCK + P.max() n^2), about
2 P.max() words per pair walked.  A sample needs n <= ``KEY_N_LIMIT``
and refuses a larger n before it builds any array.

Directed sampling draws the j > i half exactly as above and the j < i
half the same way from each block's lower-orientation stream, so the
upper half of a directed sample is the undirected sample at the same
seed.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import _scipy
from ._seeding import ROW_BLOCK, BlockWords
from .errors import InvalidModel, InvalidRates
from .operators import LinearOp

EXPLICIT_N_LIMIT = 4096  # guard rail: Explicit stores a dense matrix
TRIANGLE_ROWS = 128  # rows of P per strip of Explicit's EA triangle
# the largest n whose entry keys i * n + j, at most n^2 - 1, fit in int64
KEY_N_LIMIT = math.isqrt(1 << 63)


def _check_key_n(n):
    """InvalidModel unless the entry keys i * n + j of an n-vertex
    graph fit in int64: n <= ``KEY_N_LIMIT``."""
    if n > KEY_N_LIMIT:
        raise InvalidModel(f"n = {n} exceeds {KEY_N_LIMIT}, the largest "
                           f"n whose entry keys i * n + j fit in int64")


def _index_dtype(n):
    """Entry index dtype of an n-vertex graph: int32 while every id fits."""
    return np.int32 if n <= 1 << 31 else np.int64


class SparseGraph:
    """Weighted graph stored as entry arrays (i, j, w), weights in (0, 1].

    Entries are unique and sorted by (i, j).  Undirected graphs store
    each edge once with i < j; ``to_csr`` and ``degrees`` account for
    both orientations.  Self-loops are not representable.  i and j are
    int32 while n <= 2^31.  A 0/1 graph holds no weight array:
    ``weighted`` is False and ``w`` reads as ones (a zero-stride view).
    The weights are always checked; ``_checked`` entries i, j of the
    index dtype are taken as canonical, unchecked.  Unchecked entries
    are sorted by the int64 key i * n + j, so they need n <=
    ``KEY_N_LIMIT``.
    """

    def __init__(self, n, i, j, w=None, directed=False, _checked=False):
        self.n = int(n)
        self.directed = bool(directed)
        w = None if w is None else np.asarray(w, dtype=np.float64)
        if not _checked:
            i = np.asarray(i, dtype=np.int64)
            j = np.asarray(j, dtype=np.int64)
        if (i.shape != j.shape or i.ndim != 1
                or (w is not None and w.shape != i.shape)):
            raise InvalidModel("entry arrays must be 1-d and equally long")
        if w is not None and not np.any(w != 1.0):
            w = None  # a 0/1 graph
        if w is not None and not (w.min() > 0.0 and w.max() <= 1.0 + 1e-12):
            raise InvalidModel("weights must lie in (0, 1]")  # NaN too
        if not _checked and i.size:
            _check_key_n(n)
            if i.min() < 0 or j.min() < 0 or i.max() >= n or j.max() >= n:
                raise InvalidModel("vertex index out of range")
            if np.any(i == j):
                raise InvalidModel("self-loops are not allowed")
            if not self.directed:
                i, j = np.minimum(i, j), np.maximum(i, j)
            code = i * n + j  # int64: in int32 it wraps beyond n = 46340
            order = np.argsort(code, kind="stable")
            if np.any(np.diff(code[order]) == 0):
                raise InvalidModel("duplicate entries")
            i, j = i[order], j[order]
            w = w[order] if w is not None else None
        idx = _index_dtype(self.n)
        i, j = np.asarray(i, dtype=idx), np.asarray(j, dtype=idx)
        for a in (i, j, w):
            if a is not None:
                a.setflags(write=False)
        self.i, self.j, self._w = i, j, w

    @property
    def nnz(self):
        return self.i.size

    @property
    def weighted(self):
        """Whether some weight is not 1 (a weight array is held)."""
        return self._w is not None

    @property
    def w(self):
        """The weights: the array held, or ones for a 0/1 graph."""
        if self._w is not None:
            return self._w
        return np.broadcast_to(np.float64(1.0), self.i.shape)

    def subset(self, keep):
        """The graph of the entries ``keep`` selects (a mask or ascending
        positions), the entries not re-validated: a subset of canonical
        entries is canonical."""
        return SparseGraph(self.n, self.i[keep], self.j[keep],
                           self._w[keep] if self.weighted else None,
                           directed=self.directed, _checked=True)

    def degrees(self):
        """Weighted degree vector (both endpoints for undirected edges)."""
        deg = np.bincount(self.i, weights=self._w, minlength=self.n).astype(float)
        if self.directed:
            return deg  # out-degrees
        deg += np.bincount(self.j, weights=self._w, minlength=self.n)
        return deg

    def to_csr(self):
        """The n x n csr_matrix, an undirected edge in both orientations,
        in scipy's canonical form (each row's columns ascending).

        The entries are sorted by (i, j), so they are the csr rows as
        they stand: a directed graph's matrix, or an undirected graph's
        upper triangle U, whose canonical sum U + U^T is its matrix.
        """
        sparse = _scipy.sparse()
        n, m = self.n, self.nnz
        idx = np.int32 if max(n, m) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(n + 1, idx)
        np.cumsum(np.bincount(self.i, minlength=n), out=indptr[1:])
        if self.directed:
            data = np.array(self.w, dtype=np.float64)
            return sparse.csr_matrix((data, self.j.astype(idx), indptr),
                                     shape=(n, n))
        U = sparse.csr_matrix(
            (self._w if self.weighted else np.ones(m, bool), self.j, indptr),
            shape=(n, n))
        A = U + U.T
        if not self.weighted:
            A.data = np.ones(A.nnz)
        return A

    def to_dense(self):
        return self.to_csr().toarray()

    def with_weights(self, w):
        """The same entries, weighted ``w``: only the weights are checked
        (one per entry, in (0, 1]), as ``subset`` trusts its entries."""
        return SparseGraph(self.n, self.i, self.j, w,
                           directed=self.directed, _checked=True)

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


def _triangle(F, C):
    """The strict upper triangle U of F C F^T (n x rank F, rank x rank C)
    as a LinearOp: (U x)_i = F_i C sum_{j>i} F_j^T x_j, reverse
    cumulative sums of F's columns times x, and (U^T y)_j = F_j C^T
    sum_{i<j} F_i^T y_i, forward ones (``_partial_sums`` less its first
    or last entry): O(n rank) a product."""
    n = F.shape[0]
    FT = np.ascontiguousarray(F.T)
    left, right = (np.ascontiguousarray((F @ M).T) for M in (C, C.T))

    def product(x, scale, reverse):
        out = None
        for f, w in zip(FT, scale):
            s = _partial_sums(f * x, reverse)
            s = s[1:] if reverse else s[:n]
            s *= w
            out = s if out is None else np.add(out, s, out=out)
        return out

    return LinearOp(n, n, lambda x: product(x, left, True),
                    lambda y: product(y, right, False))


def _partial_sums(v, reverse):
    """s[k], k = 0 .. n, the sum of v over j >= k (``reverse``) or
    j < k, by one cumulative sum into a new array."""
    s = np.zeros(v.size + 1)
    if reverse:
        np.cumsum(v[::-1], out=s[-2::-1])
    else:
        np.cumsum(v, out=s[1:])
    return s


def _clip_partners(th):
    """(order, th sorted, idx) of RankOne's theta: theta_i theta_j clips
    at 1 exactly for the j at sorted positions >= idx[i] (n: none)."""
    order = np.argsort(th)
    th_s = th[order]
    with np.errstate(divide="ignore"):
        thresh = np.where(th > 0, 1.0 / np.where(th > 0, th, 1.0), np.inf)
    return order, th_s, np.searchsorted(th_s, thresh, side="right")


@dataclass(frozen=True)
class Uniform:
    """G(n, p): every pair connected independently with probability p."""

    n: int
    p: float
    kind = "uniform"

    def __post_init__(self):
        if self.n < 1:
            raise InvalidModel("n must be positive")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidModel("p must lie in [0, 1]")

    def max_rate(self):
        return self.n * self.p if self.n >= 2 else 0.0

    def ea_op(self):
        p = self.p

        def mv(x):  # p (sum(x) - x), in the one vector it returns
            out = np.subtract(x.sum(), x)
            out *= p
            return out

        return LinearOp(self.n, self.n, mv, mv, symmetric=True)

    def ea_block(self, i, j):
        return np.full(np.broadcast(i, j).shape, self.p, dtype=float)

    def ea_triangle(self):
        return _triangle(np.ones((self.n, 1)), np.array([[self.p]]))

    def layout(self):
        return [np.arange(self.n)], np.array([[self.p]]), None


@dataclass(frozen=True, eq=False)
class RankOne:
    """Degree-profile model: p_ij = min(theta_i * theta_j, 1), theta >= 0.

    ``theta`` is held as a read-only float64 copy of what was given, so
    two models compare (and hash) by identity.
    """

    n: int
    theta: np.ndarray
    kind = "rankone"

    def __post_init__(self):
        if self.n < 1:
            raise InvalidModel("n must be positive")
        th = np.array(self.theta, dtype=float)
        if th.shape != (self.n,):
            raise InvalidModel("theta must have length n")
        if th.min() < 0.0 or not np.all(np.isfinite(th)):
            raise InvalidModel("theta must be finite and nonnegative")
        th.setflags(write=False)
        object.__setattr__(self, "theta", th)

    def max_rate(self):
        n = self.n
        if n < 2:
            return 0.0
        top2 = np.partition(self.theta, n - 2)[-2:]
        return n * min(top2[0] * top2[1], 1.0)

    def ea_op(self):
        """EA x with each p_ij added once: (EA x)_i = theta_i times the
        sum of theta_j x_j over the j that do not clip with i, plus the
        sum of x_j over those that do, less min(theta_i^2, 1) x_i.  Over
        theta's sorted order (``_clip_partners``) the first is a prefix
        sum of theta x and the second a suffix sum of x
        (``_partial_sums``): no clipped excess is subtracted, nothing
        cancels.  A product allocates x's sorted copy and the two sums
        besides the vector it returns."""
        th = self.theta
        order, th_s, idx = _clip_partners(th)
        diag = np.minimum(th * th, 1.0)

        def mv(x):
            xs = x[order]
            clipped = _partial_sums(xs, True)
            rest = _partial_sums(np.multiply(xs, th_s, out=xs), False)
            out = th * np.take(rest, idx, out=xs)
            out += np.take(clipped, idx, out=xs)
            out -= np.multiply(diag, x, out=xs)
            return out

        return LinearOp(self.n, self.n, mv, mv, symmetric=True)

    def ea_block(self, i, j):
        return np.minimum(self.theta[i] * self.theta[j], 1.0)

    def ea_triangle(self):
        """theta theta^T's strict triangle on the columns outside H, the
        vertices that clip with some vertex (theta_i theta_max > 1), and
        on H's columns the n x |H| strip of p_ij, 0 unless i < j.  No
        pair outside H's columns clips, so the sum is exact: no clipped
        excess is subtracted, nothing cancels.  A lone vertex of H is
        the top one clipping with itself only, so H is taken empty."""
        n, th = self.n, self.theta
        tri = _triangle(th[:, None], np.ones((1, 1)))
        H = np.flatnonzero(th * th.max() > 1.0)
        if H.size < 2:
            return tri
        every = np.arange(n)
        strip = self.ea_block(every[:, None], H)
        strip *= every[:, None] < H

        def mv(x):
            rest = x.copy()
            rest[H] = 0.0
            y = tri._matvec(rest)
            y += strip @ x[H]
            return y

        def rmv(y):
            out = tri._rmatvec(y)
            out[H] = y @ strip
            return out

        return LinearOp(n, n, mv, rmv)

    def layout(self):
        """theta-descending bins, each within a factor 2 of its top
        value, bounded by the tops' product and thinned to p_ij."""
        th = self.theta
        live = np.flatnonzero(th > 0)
        if not live.size:
            return [], None, None
        level = np.floor(np.log2(th.max() / th[live]))
        order = np.argsort(level, kind="stable")
        groups = np.split(live[order], np.flatnonzero(np.diff(level[order])) + 1)
        top = np.array([th[g].max() for g in groups])
        return groups, np.minimum(np.outer(top, top), 1.0), self.ea_block


@dataclass(frozen=True)
class BlockTwo:
    """Two equal blocks; p = a/n within blocks, b/n across, 0 <= b <= a.

    Vertices 0 .. n/2-1 form block 0, the rest block 1.
    """

    n: int
    a: float
    b: float
    kind = "blocktwo"

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

    def max_rate(self):
        return float(self.a) if self.n >= 4 else float(self.b)

    def ea_op(self):
        n, h, a, b = self.n, self.half, self.a / self.n, self.b / self.n

        def mv(x):  # block sums less a x, in the one vector it returns
            s0, s1 = x[:h].sum(), x[h:].sum()
            out = np.multiply(x, -a)  # c - a x is c + (-a) x, bit for bit
            out[:h] += a * s0 + b * s1
            out[h:] += b * s0 + a * s1
            return out

        return LinearOp(n, n, mv, mv, symmetric=True)

    def ea_block(self, i, j):
        same = np.less(i, self.half) == np.less(j, self.half)
        return np.where(same, self.a / self.n, self.b / self.n)

    def ea_triangle(self):
        F = np.zeros((self.n, 2))
        F[:self.half, 0] = F[self.half:, 1] = 1.0
        a, b = self.a / self.n, self.b / self.n
        return _triangle(F, np.array([[a, b], [b, a]]))

    def layout(self):
        a, b = self.a / self.n, self.b / self.n
        return ([np.arange(self.half), np.arange(self.half, self.n)],
                np.array([[a, b], [b, a]]), None)


@dataclass(frozen=True)
class Explicit:
    """Arbitrary symmetric probability matrix; diagonal ignored; n <= 4096."""

    P: np.ndarray
    kind = "explicit"

    def __post_init__(self):
        P = np.array(self.P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise InvalidModel("P must be square")
        if P.shape[0] < 1:
            raise InvalidModel("n must be positive")
        if P.shape[0] > EXPLICIT_N_LIMIT:
            raise InvalidModel(f"Explicit models are capped at n = {EXPLICIT_N_LIMIT}")
        if np.abs(P - P.T).max() > 1e-12:
            raise InvalidModel("P must be symmetric")
        np.fill_diagonal(P, 0.0)
        if not (P.min() >= 0.0 and P.max() <= 1.0):  # NaN too
            raise InvalidModel("probabilities must lie in [0, 1]")
        # exactly symmetric: the strict lower triangle is the upper's
        P = np.where(np.tri(P.shape[0], k=-1, dtype=bool), P.T, P)
        P.setflags(write=False)
        object.__setattr__(self, "P", P)

    @property
    def n(self):
        return self.P.shape[0]

    def max_rate(self):
        return self.n * self.P.max() if self.n >= 2 else 0.0

    def ea_op(self):
        return LinearOp.from_dense(self.P, symmetric=True)

    def ea_block(self, i, j):
        return self.P[i, j]

    def ea_triangle(self):
        """P's strict upper triangle, ``TRIANGLE_ROWS`` rows of P at a
        time: (U x)[a:b] = P[a:b, b:] x[b:] + triu(P[a:b, a:b], 1) x[a:b],
        and (U^T y)[a:b] from P[a:b, :a] and the strip's strict lower
        triangle, P's lower triangle being the upper's transpose bit for
        bit (``__post_init__``).  P is read through views; a strip's
        diagonal block is the one copy."""
        P, n = self.P, self.n

        def product(x, upper):
            y = np.empty(n)
            for a in range(0, n, TRIANGLE_ROWS):
                b = min(n, a + TRIANGLE_ROWS)
                rest = slice(b, n) if upper else slice(0, a)
                block = (np.triu(P[a:b, a:b], 1) if upper
                         else np.tril(P[a:b, a:b], -1))
                y[a:b] = P[a:b, rest] @ x[rest]
                y[a:b] += block @ x[a:b]
            return y

        return LinearOp(n, n, lambda x: product(x, True),
                        lambda y: product(y, False))

    def layout(self):
        """One group of all the vertices, bounded by P's largest entry
        and thinned to p_ij."""
        return [np.arange(self.n)], np.array([[self.P.max()]]), self.ea_block


def degree_profile(n, values, fractions):
    """RankOne model whose expected degrees are (almost) the given values.

    theta_i = e_i / sqrt(sum_j e_j) makes E[deg_i] = e_i up to the
    self-loop exclusion.  Low indices get the first listed value:
    fractions (f_1, ..., f_k) allocate the first round(f_1 * n) vertices
    to values[0], the next block to values[1], and so on.  A negative
    value, or values whose degree sum is not positive and finite, is an
    InvalidModel naming them, raised before any division; so is n < 1.
    """
    if n < 1:
        raise InvalidModel("n must be positive")
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
    if min(values) < 0.0 or not 0.0 < e.sum() < np.inf:  # NaN too
        raise InvalidModel(f"values {values} must be >= 0, degree sum in (0, inf)")
    theta = e / np.sqrt(e.sum())
    return RankOne(n, theta)


# ---------------------------------------------------------------------------
# model-level quantities


def max_expected_degree(model):
    """d_ave = max_i sum_{j != i} p_ij."""
    deg = expected_degrees(model)
    return float(deg.max()) if deg.size else 0.0


def expected_adjacency(model):
    """EA as a symmetric matrix-free operator (diagonal zeroed)."""
    return model.ea_op()


def expected_dense(model):
    """EA as a dense n x n array: ``ea_block`` on the whole square,
    diagonal zeroed."""
    ids = np.arange(model.n)
    out = model.ea_block(ids[:, None], ids)
    np.fill_diagonal(out, 0.0)
    return out


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
    _check_key_n(n)  # a directed block is sorted by i * n + j
    try:
        idx = _index_dtype(n)
        layout = model.layout()
        parts = []
        for b in range(-(-n // ROW_BLOCK)):
            r0, r1 = b * ROW_BLOCK, min(n, (b + 1) * ROW_BLOCK)
            block = []
            for lower in ((False, True) if directed else (False,)):
                words = BlockWords(master_seed, stream_index, b, lower)
                block += _skip_block(words, r0, r1, lower, *layout)
            if len(block) > 1:
                i = np.concatenate([bi for bi, _ in block])
                j = np.concatenate([bj for _, bj in block])
                order = np.argsort(i * n + j)
                block = [(i[order], j[order])]
            parts += [(i.astype(idx), j.astype(idx)) for i, j in block]
        i_idx = np.concatenate([i for i, _ in parts]) if parts else np.empty(0, idx)
        j_idx = np.concatenate([j for _, j in parts]) if parts else np.empty(0, idx)
        return SparseGraph(n, i_idx, j_idx, directed=directed, _checked=True)
    except MemoryError as exc:  # numpy's message names no field
        raise MemoryError(f"sampling n = {n} vertices: {exc}") from exc


def _skip_block(words, r0, r1, lower, groups, bound, thin):
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
            if thin is not None:
                keep = words.take(i.size) * q <= thin(i, j)
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


# ---------------------------------------------------------------------------
# JSON values


_FLOAT_MAX = float(np.finfo(np.float64).max)  # an int compares exactly


def _is_number(v):
    """Whether ``v`` is a JSON number that a float64 holds: a float, or
    an int (not a bool) of magnitude at most ``_FLOAT_MAX``."""
    return isinstance(v, float) or type(v) is int and abs(v) <= _FLOAT_MAX


def _is_numbers(v):
    return isinstance(v, list) and all(map(_is_number, v))


def _is_int(v, low, high=1 << 63):
    """Whether ``v`` is an int (not a bool) in [low, high)."""
    return type(v) is int and low <= v < high


# The kinds of JSON value that a config, model spec, graph header or
# run field holds: name -> (description, test).  The config annotations
# ("int", "float", "positive", ...) are names too; a config's int counts
# something, so it is positive, and the range kinds state a field's
# range once, refusing NaN and +-inf.  No number kind takes an int that
# no float64 holds, and no integer kind one that no int64 holds (the
# seed's "u64" aside).  A value is checked, never converted: reading
# n = 100.7 as 100 would sample another model than the one config.json
# records.
_KINDS = {
    "int": ("a positive integer within the int64 range",
            lambda v: _is_int(v, 1)),
    "count": ("a non-negative integer within the int64 range",
              lambda v: _is_int(v, 0)),
    "integer": ("an integer within the int64 range",
                lambda v: _is_int(v, -1 << 63)),
    "u64": ("an integer within the uint64 range",
            lambda v: _is_int(v, 0, 1 << 64)),
    "float": ("a number within the float64 range", _is_number),
    "positive": ("a finite number > 0",
                 lambda v: _is_number(v) and 0 < v <= _FLOAT_MAX),
    "nonnegative": ("a finite number >= 0",
                    lambda v: _is_number(v) and 0 <= v <= _FLOAT_MAX),
    "unit": ("a number in (0, 1)", lambda v: _is_number(v) and 0 < v < 1),
    "floats": ("a list of numbers within the float64 range", _is_numbers),
    "matrix": ("a list of lists of numbers within the float64 range",
               lambda v: isinstance(v, list) and all(map(_is_numbers, v))),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "dict": ("an object", lambda v: isinstance(v, dict)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check(value, kind, what, error=ValueError):
    """``value``, if it is of ``kind``: a ``_KINDS`` name, which
    " | None" appended extends to null.  Otherwise ``error``, naming
    ``what``."""
    name, _, nullable = kind.partition(" | ")
    desc, admits = _KINDS[name]
    if not (admits(value) or (nullable and value is None)):
        raise error(f"{what} must be {desc}"
                    f"{' or null' if nullable else ''}, not {value!r}")
    return value


def check_object(obj, kinds, what, error=ValueError, required=None,
                 field="{what}'s {key}"):
    """``obj``, if it is a JSON object whose keys are keys of ``kinds``,
    among them every ``required`` one (default: all), and whose values
    are of their kinds (``check``; a kind None is the caller's to
    check).  Otherwise ``error``, naming the object ``what`` and a
    value ``field`` formatted with ``what`` and its key."""
    if not isinstance(obj, dict):
        raise error(f"{what} must be a JSON object, not {obj!r}")
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        raise error(f"{what} may hold only the keys {sorted(kinds)}, "
                    f"not {unknown}")
    for key in kinds if required is None else required:
        if key not in obj:
            raise error(f"{what} lacks key {key!r}")
    for key, kind in kinds.items():
        if key in obj and kind is not None:
            check(obj[key], kind, field.format(what=what, key=key), error)
    return obj


# ---------------------------------------------------------------------------
# file formats


SAVE_CHUNK = 1 << 12  # edges per formatted block: save_graph's scratch is O(chunk)

# "ddd," for k = 0 .. 999, one uint32 word each: the bytes of a
# three-digit group of a vertex id and the comma that may follow it
_DIGIT_GROUPS = np.frombuffer(
    "".join(f"{k:03d}," for k in range(1000)).encode(), np.uint32)
_POW10 = 10 ** np.arange(1, 19, dtype=np.uint64)
_EDGE_DTYPE = [("i", np.int64), ("j", np.int64), ("w", np.float64)]


def save_graph(g, path):
    """JSON header line {"n","directed","weighted"} then lines i,j,repr(w).

    The edge lines are formatted in numpy, ``SAVE_CHUNK`` edges at a
    time, as one rows x width byte block: each vertex id (as uint32
    below n = 2^32) as right-aligned "ddd," groups, then the text
    repr(w) + "\n" padded to whole words (repr runs once per distinct
    weight of the chunk; a 0/1 graph's is one constant column).  A
    boolean mask drops the leading zeros, the inner commas and the
    padding; the bytes it keeps are the chunk's lines, written as soon
    as they are selected.  ``load_graph`` reads every value back bit for
    bit.
    """
    header = {"n": g.n, "directed": g.directed, "weighted": g.weighted}
    groups = -(-len(str(max(g.n - 1, 0))) // 3)
    ids = np.uint32 if g.n <= 1 << 32 else np.uint64
    # d - 1 for a d-digit id: the powers 10, 100, ... it reaches
    pow10 = _POW10[:3 * groups - 1]
    pow10 = pow10[pow10 <= np.iinfo(ids).max].astype(ids)
    id_keep = _id_keep(groups)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for s in range(0, g.nnz, SAVE_CHUNK):
            e = slice(s, s + SAVE_CHUNK)
            _write_lines(fh, g.i[e], g.j[e], g.w[e] if g.weighted else None,
                         pow10, id_keep)


def _id_keep(groups):
    """Row d - 1: the bytes of a ``groups`` x "ddd," field that a d-digit
    id keeps (its d digits and the last comma), one uint32 per group."""
    place = np.empty((groups, 4), np.int64)
    place[:, :3] = np.arange(3 * groups - 1, -1, -1).reshape(groups, 3)
    place[:, 3] = 3 * groups  # inner commas: never kept
    place[-1, 3] = -1         # the comma after the id: always kept
    keep = place.ravel() < np.arange(1, 3 * groups + 1)[:, None]
    return keep.view(np.uint32)


def _write_lines(fh, i, j, w, pow10, id_keep):
    """Write the lines i,j,repr(w) of one chunk of edges (w None: 1.0);
    the ids are formatted in ``pow10``'s dtype."""
    rows, groups = i.size, id_keep.shape[1]
    if w is None:
        text, inv = ["1.0\n"], None
    else:
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
    v = np.empty((rows, 2), pow10.dtype)
    v[:, 0], v[:, 1] = i, j
    tens = np.searchsorted(pow10, v, side="right")
    id_words = block[:, :f].view(np.uint32).reshape(rows, 2, groups)
    id_masks = keep[:, :f].view(np.uint32).reshape(rows, 2, groups)
    for k in range(groups - 1, -1, -1):
        id_words[:, :, k] = np.take(_DIGIT_GROUPS, v % 1000)
        id_masks[:, :, k] = np.take(id_keep[:, k], tens)
        v //= 1000
    w_words = block[:, f:].view(np.uint64)
    w_masks = keep[:, f:].view(np.uint64)
    for c in range(words):
        texts = text_bytes.view(np.uint64)[:, c]
        masks = text_keep.view(np.uint64)[:, c]
        w_words[:, c] = texts[0] if inv is None else np.take(texts, inv)
        w_masks[:, c] = masks[0] if inv is None else np.take(masks, inv)
    fh.write(block[keep])


# the kind of each save_graph header field; weighted may be absent
_HEADER_FIELDS = {"n": "count", "directed": "bool", "weighted": "bool"}


def _read_header(path, line):
    """The header object of a graph file, checked field by field; a
    ValueError naming the file and the field otherwise."""
    try:
        header = json.loads(line)
    except json.JSONDecodeError:  # refused as the text it is
        header = line.strip()
    return check_object(header, _HEADER_FIELDS, f"{path}: header",
                        required=("n", "directed"),
                        field="{what} field {key!r}")


def graph_header(path):
    """The header object of a ``save_graph`` file, checked as
    ``load_graph`` checks it; no edge line is read."""
    with open(path) as fh:
        return _read_header(path, fh.readline())


def _refusal(n, edges, directed):
    """SparseGraph's InvalidModel on these edges, or None if it takes them."""
    try:
        SparseGraph(n, edges["i"], edges["j"], edges["w"], directed=directed)
    except InvalidModel as err:
        return err
    return None


def load_graph(path):
    """Read a ``save_graph`` file; every value comes back bit for bit.

    The header must be a JSON object with ``n`` a non-negative integer
    within the int64 range, ``directed`` a bool and ``weighted``, if
    present, a bool, and no other key.  An edge set that ``SparseGraph``
    refuses (an id out of range, a self-loop, a weight outside (0, 1], a
    duplicate) is a ValueError naming the file and the first line that
    makes it so.
    """
    with open(path) as fh:
        header = _read_header(path, fh.readline())
        try:
            with warnings.catch_warnings():  # an edge-less file is valid
                warnings.filterwarnings("ignore", ".*input contained no data")
                edges = np.loadtxt(fh, delimiter=",", dtype=_EDGE_DTYPE,
                                   ndmin=1)
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
    with open(path) as fh:
        lines = [no for no, text in enumerate(fh, 1)
                 if no > 1 and text.split("#")[0].strip()]
    raise ValueError(f"{path}: line {lines[hi - 1]}: "
                     f"{_refusal(n, edges[:hi], directed)}")


# the kind of each model spec field; a "float" field is read as a float
_SPEC_FIELDS = {"n": "integer", "p": "float", "a": "float", "b": "float",
                "theta": "floats", "values": "floats", "fractions": "floats",
                "P": "matrix"}

# model kind -> (class, its spec fields in constructor order): a
# class's kind and dataclass fields; "profile" is read only, as the
# RankOne that degree_profile builds
_MODEL_KINDS = {cls.kind: (cls, tuple(f.name for f in fields(cls)))
                for cls in (Uniform, RankOne, BlockTwo, Explicit)}
_MODEL_KINDS["profile"] = (degree_profile, ("n", "values", "fractions"))


def model_to_dict(model):
    """The JSON spec of a model, its arrays as nested lists."""
    return {"kind": model.kind,
            **{f.name: np.asarray(getattr(model, f.name)).tolist()
               for f in fields(model)}}


def model_from_dict(spec):
    """A model from its JSON spec; InvalidModel for a spec that is no
    object, names no known kind, lacks a field, holds a key its kind
    does not have or a field of the wrong kind (a bool or a string is
    no number, and n is an integer within the int64 range)."""
    # any spec field may be present until the kind says which are its own
    kind = check_object(spec, {"kind": "str", **dict.fromkeys(_SPEC_FIELDS)},
                        "a model spec", InvalidModel, ("kind",))["kind"]
    if kind not in _MODEL_KINDS:
        raise InvalidModel(f"unknown model kind {kind!r}")
    make, keys = _MODEL_KINDS[kind]
    check_object(spec, {"kind": "str", **{k: _SPEC_FIELDS[k] for k in keys}},
                 f"{kind} model spec", InvalidModel)
    return make(*(float(spec[k]) if _SPEC_FIELDS[k] == "float" else spec[k]
                  for k in keys))
