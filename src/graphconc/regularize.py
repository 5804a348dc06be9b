"""Degree regularization schemes and normalized Laplacians.

All subgraph schemes map a SparseGraph to a new SparseGraph on the same
n vertices (removal zeroes rows/columns, it never reindexes) and are
entrywise dominated by the input.  The tau-shift is the one scheme that
adds mass: A_tau = A + (tau/n)11^T, kept lazy in ``ShiftedGraph``
because it is dense.  The shift includes the diagonal, so the shifted
degree vector is exactly g.degrees() + tau.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from . import _scipy
from .errors import ZeroDegree
from .models import SparseGraph, expected_adjacency
from .operators import LinearOp

SCHEMES = ("identity", "remove", "trim", "reweight", "tau")


def average_degree(g):
    return float(g.degrees().mean()) if g.n else 0.0


def high_degree_set(g, cap):
    """Vertices with weighted degree strictly above the cap."""
    if not cap > 0:  # NaN too: it would select no vertex
        raise ValueError("cap must be positive")
    return np.flatnonzero(g.degrees() > cap)


def remove_vertices(g, S):
    """Drop every edge incident to a vertex in S (rows/cols zeroed)."""
    S = np.asarray(S, dtype=np.int64)
    drop = np.zeros(g.n, dtype=bool)
    drop[S] = True
    return g.subset(~(drop[g.i] | drop[g.j]))


def trim_edges(g, cap):
    """Remove just enough edges to force every degree <= cap.

    Policy (the choice of edges is otherwise arbitrary): process
    vertices in decreasing degree order, ties broken toward the lower
    index; for an over-cap vertex, repeatedly delete the incident edge
    whose opposite endpoint currently has the highest degree, ties
    broken toward the higher index, until the vertex meets the cap.
    Only edges incident to originally over-cap vertices are ever
    touched, since degrees never increase.

    While u is trimmed its remaining neighbours' degrees do not change,
    so its cut is the top deg(u) - floor(cap) neighbours by (degree,
    index), taken at once.  The over-cap vertices wait in a max-heap
    keyed (-degree, index) with lazy deletion, and only their edges are
    laid out as CSR neighbour lists, so the cost is O(m log n): 0.7 s
    at n = 10^6, d = 3, cap 6, where the argmax-per-vertex loop it
    replaced took 16 s (2-core VM).
    """
    if not cap > 0:  # NaN too: the cut size below needs floor(cap)
        raise ValueError("cap must be positive")
    if g.directed:
        raise ValueError("trim_edges expects an undirected graph")
    if g.weighted:
        raise ValueError("trim_edges expects an unweighted graph")
    deg = g.degrees()
    if not g.nnz or deg.max() <= cap:
        return g
    deg = deg.astype(np.int64)
    limit = int(np.floor(cap))  # an integer degree exceeds cap iff it exceeds floor(cap)
    hot = deg > limit
    # every edge at an over-cap vertex, both ways, as CSR with edge ids
    eid = np.flatnonzero(hot[g.i] | hot[g.j])
    src = np.concatenate([g.i[eid], g.j[eid]])
    nbr = np.concatenate([g.j[eid], g.i[eid]])
    eid = np.concatenate([eid, eid])
    order = np.argsort(src, kind="stable")
    nbr, eid = nbr[order], eid[order]
    ptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=g.n), out=ptr[1:])
    alive = np.ones(g.nnz, dtype=bool)
    heap = list(zip((-deg[hot]).tolist(), np.flatnonzero(hot).tolist()))
    heapq.heapify(heap)
    while heap:
        negd, u = heapq.heappop(heap)
        if -negd != deg[u]:
            continue  # stale entry: u lost edges since it was pushed
        span = slice(ptr[u], ptr[u + 1])
        es = eid[span]
        live = alive[es]
        vs, es = nbr[span][live], es[live]
        k = -negd - limit
        key = deg[vs] * g.n + vs
        cut = ([key.argmax()] if k == 1 else
               np.argpartition(key, -k)[-k:] if k < vs.size else slice(None))
        alive[es[cut]] = False
        vs = vs[cut]
        deg[vs] -= 1
        deg[u] = limit
        for v in vs[deg[vs] > limit].tolist():
            heapq.heappush(heap, (-int(deg[v]), v))
    return g.subset(alive)


def proportional_reweight(g, cap):
    """Scale entry (i, j) by sqrt(lambda_i lambda_j), lambda_i = min(cap/d_i, 1).

    Zero-degree vertices get lambda_i = 1 (vacuous).  For 0/1 inputs
    this pins the squared l2 mass of every row at or below cap:
    sum_j (w'_ij)^2 = lambda_i sum_j lambda_j A_ij <= lambda_i d_i <= cap.
    """
    if not cap > 0:  # NaN too: it would make every weight NaN
        raise ValueError("cap must be positive")
    if g.weighted:
        raise ValueError("proportional_reweight expects an unweighted graph")
    deg = g.degrees()
    lam = np.ones(g.n)
    pos = deg > 0
    lam[pos] = np.minimum(cap / deg[pos], 1.0)
    scale = np.sqrt(lam[g.i] * lam[g.j])
    return g.with_entries(g.i, g.j, scale)


@dataclass(frozen=True)
class ShiftedGraph:
    """Lazy A_tau = A + (tau/n) 11^T (diagonal entries equal tau/n)."""

    base: SparseGraph
    tau: float

    def __post_init__(self):
        if not 0.0 <= self.tau < np.inf:
            raise ValueError("tau must be finite and nonnegative")

    @property
    def n(self):
        return self.base.n

    @property
    def shift(self):
        """The per-entry shift c = tau/n; 0 on an empty graph, which has
        no entry to shift."""
        return self.tau / self.n if self.n else 0.0

    def degrees(self):
        return self.base.degrees() + self.tau

    def to_dense(self):
        return self.base.to_dense() + self.shift


def tau_shift(g, tau):
    return ShiftedGraph(g, float(tau))


def _shifted(product, c):
    """The product by M + c 11^T, given M's; ``product`` itself at c = 0."""
    if c == 0.0:
        return product
    return lambda v: product(v) + c * v.sum()


def adjacency_shifted_op(x):
    """A_tau as a LinearOp (or plain adjacency for an unshifted graph).

    At tau = 0 the matvec is the csr product alone, scipy's kernel
    called without its dispatch (``_scipy.csr_product``).  A directed
    graph's rmatvec multiplies by A^T.
    """
    g, c = (x.base, x.shift) if isinstance(x, ShiftedGraph) else (x, 0.0)
    A = g.to_csr()
    mv = _shifted(_scipy.csr_product(A), c)
    rmv = (_shifted(_scipy.csr_product(A.T.tocsr()), c) if g.directed
           else mv)
    return LinearOp(g.n, g.n, mv, rmv, symmetric=not g.directed)


def _normalized_laplacian(product, d):
    """I - D^{-1/2} M D^{-1/2} for M given by its product, D = diag(d).

    A non-positive degree is refused -- the cure for isolated vertices
    is the tau shift, so the caller is sent there.
    """
    if d.size == 0 or d.min() <= 0.0:
        bad = int(np.argmin(d)) if d.size else 0
        raise ZeroDegree(f"vertex {bad} has zero shifted degree; regularize first")
    inv_sqrt = 1.0 / np.sqrt(d)

    def mv(v):
        return v - inv_sqrt * product(inv_sqrt * v)

    return LinearOp(d.size, d.size, mv, mv, symmetric=True)


def laplacian(x):
    """Normalized Laplacian L = I - D^{-1/2} A D^{-1/2} as a LinearOp.

    Accepts a SparseGraph or a ShiftedGraph (where A means A_tau, the
    product of ``adjacency_shifted_op``, and D the shifted degrees
    ``x.degrees()``).  A directed graph is refused: the op is symmetric
    only on a symmetric A.  So are zero degrees.  D^{1/2} 1 is an exact
    kernel vector of the result.
    """
    A = adjacency_shifted_op(x)
    if not A.symmetric:
        raise ValueError("laplacian expects an undirected graph")
    return _normalized_laplacian(A.matvec, x.degrees())


def expected_laplacian(model, tau):
    """L(EA_tau) matrix-free; its degrees EA 1 + tau come from the same EA."""
    ea = expected_adjacency(model)
    return _normalized_laplacian(_shifted(ea.matvec, tau / model.n),
                                 ea.matvec(np.ones(model.n)) + tau)


def apply_scheme(g, scheme, cap=None, tau=None):
    """Dispatch a scheme by name; 'tau' returns a ShiftedGraph."""
    if scheme == "identity":
        return g
    if scheme == "tau":
        if tau is None:
            raise ValueError("scheme 'tau' needs tau")
        return tau_shift(g, tau)
    if cap is None:
        raise ValueError(f"scheme {scheme!r} needs a degree cap")
    if scheme == "remove":
        return remove_vertices(g, high_degree_set(g, cap))
    if scheme == "trim":
        return trim_edges(g, cap)
    if scheme == "reweight":
        return proportional_reweight(g, cap)
    raise ValueError(f"unknown scheme {scheme!r}; options: {SCHEMES}")
