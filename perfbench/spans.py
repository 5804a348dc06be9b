"""Spans around graphconc's layers, recorded from outside the package.

``Tracer.installed()`` rebinds each wrapped function at the names the
calling modules imported it under (``graphconc.cli.sample``,
``graphconc.community.sample``, ...) and patches ``LinearOp.matvec`` /
``rmatvec``; leaving the block restores every original.  Nothing under
``src/`` is edited.  Spans are kept in memory and turned into the
per-layer metrics by ``layer_metrics``.

A span's self time is its duration minus the time its child spans and
its own outermost matvecs cover.  The trial loop is single-threaded
(``threads=1``), so children nest strictly inside their parent.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

# (span name, [(module, attribute), ...]): every binding a caller uses.
WRAPPED = (
    ("models.sample", [("graphconc.cli", "sample"),
                       ("graphconc.cli", "sample_directed"),
                       ("graphconc.community", "sample")]),
    ("models.expected", [("graphconc.cli", "expected_adjacency"),
                         ("graphconc.cli", "expected_dense"),
                         ("graphconc.regularize", "expected_adjacency")]),
    ("models.save_graph", [("graphconc.cli", "save_graph")]),
    ("regularize.apply_scheme", [("graphconc.cli", "apply_scheme")]),
    ("regularize.adjacency_shifted_op",
     [("graphconc.cli", "adjacency_shifted_op")]),
    ("regularize.laplacian", [("graphconc.cli", "laplacian"),
                              ("graphconc.community", "laplacian")]),
    ("regularize.expected_laplacian",
     [("graphconc.cli", "expected_laplacian"),
      ("graphconc.community", "expected_laplacian")]),
    ("spectral.spectral_norm", [("graphconc.cli", "spectral_norm"),
                                ("graphconc.community", "spectral_norm"),
                                ("graphconc.pietsch", "spectral_norm"),
                                ("graphconc.decompose", "spectral_norm")]),
    ("spectral.top_k_eigs", [("graphconc.community", "top_k_eigs")]),
    ("spectral.inf_to_2", [("graphconc.cli", "inf_to_2_norm_exact"),
                           ("graphconc.pietsch", "inf_to_2_norm_exact"),
                           ("graphconc.pietsch", "inf_to_2_norm_lower")]),
    ("pietsch.gp_weights", [("graphconc.cli", "gp_weights"),
                            ("graphconc.pietsch", "gp_weights")]),
    ("pietsch.gp_submatrix", [("graphconc.cli", "gp_submatrix"),
                              ("graphconc.decompose", "gp_submatrix")]),
    ("decompose.decompose", [("graphconc.cli", "decompose")]),
    ("decompose.verify_decomposition",
     [("graphconc.cli", "verify_decomposition")]),
    ("decompose.write", [("graphconc.cli", "decomposition_to_csv"),
                         ("graphconc.cli", "trace_to_json")]),
    ("community.davis_kahan_check", [("graphconc.cli", "davis_kahan_check")]),
    ("community.detect", [("graphconc.community", "detect")]),
    ("reports.run_trials", [("graphconc.cli", "run_trials")]),
    ("reports.write_csv", [("graphconc.cli", "write_csv")]),
    ("reports.write", [("graphconc.reports", "ExperimentReport.write")]),
)

RUN_COMMAND = "reports.run_command"
MATVEC = "operators.matvec"


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "child_s", "mv", "mv_s",
                 "mv_bytes", "info", "error")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.child_s = 0.0      # time covered by child spans
        self.mv = 0             # outermost matvecs made directly in this span
        self.mv_s = 0.0
        self.mv_bytes = 0
        self.info = {}
        self.error = None

    @property
    def dur(self):
        return self.t1 - self.t0

    @property
    def self_s(self):
        return self.dur - self.child_s - self.mv_s

    def within(self, name):
        """Whether this span or one of its ancestors is called ``name``."""
        s = self
        while s is not None:
            if s.name == name:
                return True
            s = s.parent
        return False


def _csr_nnz(g):
    """Stored entries of ``g.to_csr()``: undirected edges are stored twice."""
    return int(g.nnz) if g.directed else 2 * int(g.nnz)


def _resolve(modname, attr):
    """(owner, attribute name) of a binding, or None if it is gone."""
    owner = sys.modules.get(modname)
    if owner is None:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, last) if hasattr(owner, last) else None


class Tracer:
    """Records spans while installed; one tracer per traced rep set."""

    def __init__(self):
        self.spans = []
        self.fired = set()
        self.unbound = set()    # bindings that no longer exist
        self.broken = set()     # spans with such a binding: partial times
        self._stack = []
        self._mv_depth = 0
        self._graph = (0, 0)    # (n, csr nnz) of the latest graph built

    # -- recording -------------------------------------------------------

    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self.fired.add(name)
        self._stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span):
        span.t1 = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.dur

    def span(self, name, fn, *args, **kwargs):
        span = self._open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)
        self._note(span, args, out)
        return out

    def _note(self, span, args, out):
        """Counts taken from a layer call's arguments and result."""
        name = span.name
        if name == "models.sample":
            n = out.n
            pairs = n * (n - 1) if out.directed else n * (n - 1) // 2
            span.info.update(pairs=pairs, edges=int(out.nnz))
            self._graph = (n, _csr_nnz(out))
        elif name == "regularize.apply_scheme":
            g_in = args[0]
            base = getattr(out, "base", out)
            span.info["removed"] = int(g_in.nnz) - int(base.nnz)
            self._graph = (base.n, _csr_nnz(base))
        elif name == "pietsch.gp_weights":
            span.info["md_steps"] = int(out.iterations)
        elif name == "pietsch.gp_submatrix":
            span.info["cert_failed"] = not out[1].ok
        elif name == "decompose.decompose":
            span.info["rounds"] = len(out.block_trace)
        elif name == "decompose.write":
            span.info["bytes"] = os.path.getsize(args[1])

    def matvec(self, fn, op, x):
        if self._mv_depth:
            return fn(op, x)
        self.fired.add(MATVEC)
        self._mv_depth = 1
        t0 = time.perf_counter()
        try:
            return fn(op, x)
        finally:
            dt = time.perf_counter() - t0
            self._mv_depth = 0
            span = self._stack[-1] if self._stack else None
            if span is not None:
                span.mv += 1
                span.mv_s += dt
                span.mv_bytes += self._matvec_bytes(span, op)

    def _matvec_bytes(self, span, op):
        """Computed, not measured: bytes one matvec must move at least.

        Inside GP the operator is a dense k x m block (8 bytes an
        entry); elsewhere it is a csr adjacency of the latest graph
        (8-byte value + 4-byte column index per stored entry) plus
        three length-n float vectors.
        """
        if span.within("pietsch.gp_weights"):
            return 8 * op.n_rows * op.n_cols
        n, nnz = self._graph
        return 12 * nnz + 24 * max(n, op.n_rows)

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        import graphconc  # noqa: F401  (loads every layer module)
        from graphconc.operators import LinearOp

        saved = []
        try:
            for name, bindings in WRAPPED:
                for modname, attr in bindings:
                    target = _resolve(modname, attr)
                    if target is None:
                        self.unbound.add(f"{modname}.{attr}")
                        self.broken.add(name)
                        continue
                    owner, last = target
                    orig = getattr(owner, last)
                    saved.append((owner, last, orig))
                    setattr(owner, last, self._wrapper(name, orig))
            for meth in ("matvec", "rmatvec"):
                orig = LinearOp.__dict__[meth]
                saved.append((LinearOp, meth, orig))
                setattr(LinearOp, meth, self._mv_wrapper(orig))
            yield self
        finally:
            for owner, last, orig in reversed(saved):
                setattr(owner, last, orig)

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _mv_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(op, x):
            return self.matvec(fn, op, x)
        return traced

    def run_command(self, fn, *args, **kwargs):
        """The benchmark's own span around one ``run_command`` call."""
        return self.span(RUN_COMMAND, fn, *args, **kwargs)


# ---------------------------------------------------------------------------
# per-layer metrics

# name, the spans it is computed from, and the end-to-end metric and
# workload it should move.  Units and directions are in BENCHMARK.json.
# Measured shares of solve's rep wall time (seeds 1 and 1729, seven reps): GP
# mirror descent with its re-evaluation 55-75 %, the trim step's Gram
# norm 6-30 % (median 9 %); GP makes 46-87 % (median 80 %) of the
# outermost matvecs.
LAYER_METRICS = (
    ("models.sample_s", ("models.sample",),
     "wall_ref on sample, barely on solve"),
    ("models.pairs_drawn", ("models.sample",),
     "wall_ref on sample (n(n-1)/2 per undirected graph, computed)"),
    ("models.edges", ("models.sample",),
     "nothing: a check that the same graphs are drawn"),
    ("models.ns_per_pair", ("models.sample",),
     "wall_ref on sample"),
    ("models.ns_per_edge", ("models.sample",),
     "wall_ref on sample"),
    ("models.expected_s", ("models.expected",),
     "wall_ref and peak_rss_mb on solve (decompose step)"),
    ("models.save_s", ("models.save_graph",),
     "wall_ref on sample"),
    ("regularize.scheme_s", ("regularize.apply_scheme",),
     "wall_ref on solve (trim step)"),
    ("regularize.edges_removed", ("regularize.apply_scheme",),
     "nothing: a check that the same edges are trimmed"),
    ("regularize.laplacian_s",
     ("regularize.laplacian", "regularize.expected_laplacian"),
     "wall_ref on solve (sbm step)"),
    ("regularize.shift_op_s", ("regularize.adjacency_shifted_op",),
     "wall_ref on solve (trim step)"),
    ("operators.matvecs", (MATVEC,),
     "wall_ref on solve, mostly through GP re-evaluation (decompose and "
     "gp-check steps), then the trim step; outermost calls only"),
    ("operators.matvec_s", (MATVEC,),
     "wall_ref on solve (GP re-evaluation, then the trim step)"),
    ("operators.matvec_us", (MATVEC,),
     "wall_ref on solve (GP re-evaluation, then the trim step)"),
    ("operators.matvec_bytes", (MATVEC,),
     "wall_ref on solve (computed from nnz and n, not measured)"),
    ("spectral.norm_calls", ("spectral.spectral_norm",),
     "wall_ref on solve (trim and decompose steps)"),
    ("spectral.norm_self_s", ("spectral.spectral_norm",),
     "wall_ref on solve (GP re-evaluation, then trim and sbm steps)"),
    ("spectral.norm_matvecs", ("spectral.spectral_norm",),
     "wall_ref on solve (GP re-evaluation, then trim and sbm steps)"),
    ("spectral.norm_unconverged", ("spectral.spectral_norm",),
     "fail_frac on solve"),
    ("spectral.eigs_s", ("spectral.top_k_eigs",),
     "wall_ref and peak_rss_mb on solve (sbm step)"),
    ("spectral.eigs_matvecs", ("spectral.top_k_eigs",),
     "wall_ref on solve (sbm step)"),
    ("spectral.inf2_s", ("spectral.inf_to_2",),
     "wall_ref on solve (gp-check and decompose steps)"),
    ("pietsch.gp_s", ("pietsch.gp_weights",),
     "wall_ref on solve (decompose: large blocks; gp-check: tiny)"),
    ("pietsch.gp_self_s", ("pietsch.gp_weights",),
     "wall_ref on solve (decompose and gp-check steps)"),
    ("pietsch.md_steps", ("pietsch.gp_weights",),
     "wall_ref on solve (sum of PietschWeights.iterations)"),
    ("pietsch.ms_per_step", ("pietsch.gp_weights",),
     "wall_ref on solve (decompose and gp-check steps)"),
    ("pietsch.reeval_s", ("pietsch.gp_weights",),
     "wall_ref on solve (decompose step)"),
    ("pietsch.reeval_matvecs", ("pietsch.gp_weights",),
     "wall_ref on solve (decompose step)"),
    ("pietsch.submatrix_s", ("pietsch.gp_submatrix",),
     "wall_ref on solve (decompose and gp-check steps)"),
    ("pietsch.cert_failures", ("pietsch.gp_submatrix",),
     "fail_frac on solve"),
    ("decompose.self_s", ("decompose.decompose",),
     "wall_ref and peak_rss_mb on solve (decompose step)"),
    ("decompose.rounds", ("decompose.decompose",),
     "wall_ref on solve (decompose step)"),
    ("decompose.verify_s", ("decompose.verify_decomposition",),
     "wall_ref and peak_rss_mb on solve (decompose step)"),
    ("decompose.write_s", ("decompose.write",),
     "wall_ref on solve (decompose step)"),
    ("decompose.bytes_written", ("decompose.write",),
     "wall_ref on solve (decompose step)"),
    ("community.detect_self_s", ("community.detect",),
     "wall_ref and peak_rss_mb on solve (sbm step)"),
    ("community.dk_check_self_s", ("community.davis_kahan_check",),
     "wall_ref on solve (sbm step)"),
    ("community.detect_matvecs", ("community.detect",),
     "wall_ref on solve (sbm step)"),
    ("reports.write_s", ("reports.write", "reports.write_csv"),
     "wall_ref on every workload"),
    ("reports.out_bytes", ("reports.write",),
     "wall_ref on solve and sample"),
    ("reports.harness_s", ("reports.run_trials",),
     "wall_ref on every workload (run_command minus the trial loop)"),
    ("reports.speedup_threads2", (),
     "wall_ref at --threads 2 (ROADMAP item 5)"),
    ("trace.overhead_frac", (),
     "nothing: the cost of tracing itself"),
)


def layer_metrics(tracer, reps, expected, declared, out_bytes, speedup,
                  overhead):
    """Per-layer metrics, averaged per traced rep.

    ``declared`` is BENCHMARK.json's per-layer list (name, unit, better).
    ``expected`` names the spans the workload must fire.  A metric whose
    spans are expected but did not fire, or lost one of their bindings,
    is *missing*: it is left out and its name returned in the second
    value, as is a declared metric this file does not compute.  A metric
    of a layer the workload does not exercise by design reads 0.
    """
    spans = tracer.spans
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def dur(name):
        return sum(s.dur for s in by.get(name, ()))

    def self_s(name):
        return sum(s.self_s for s in by.get(name, ()))

    def info(name, key):
        return sum(s.info.get(key, 0) for s in by.get(name, ()))

    def subtree_mv(pred):
        return sum(s.mv for s in spans if pred(s))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    mv_n = sum(s.mv for s in spans)
    mv_s = sum(s.mv_s for s in spans)
    sample_s = dur("models.sample")
    pairs = info("models.sample", "pairs")
    edges = info("models.sample", "edges")
    gp_self = self_s("pietsch.gp_weights")
    md = info("pietsch.gp_weights", "md_steps")
    reeval = [s for s in by.get("spectral.spectral_norm", ())
              if s.parent is not None and s.parent.name == "pietsch.gp_weights"]
    totals = {
        "models.sample_s": sample_s,
        "models.pairs_drawn": pairs,
        "models.edges": edges,
        "models.expected_s": dur("models.expected"),
        "models.save_s": dur("models.save_graph"),
        "regularize.scheme_s": dur("regularize.apply_scheme"),
        "regularize.edges_removed": info("regularize.apply_scheme", "removed"),
        "regularize.laplacian_s": (dur("regularize.laplacian")
                                   + dur("regularize.expected_laplacian")),
        "regularize.shift_op_s": dur("regularize.adjacency_shifted_op"),
        "operators.matvecs": mv_n,
        "operators.matvec_s": mv_s,
        "operators.matvec_bytes": sum(s.mv_bytes for s in spans),
        "spectral.norm_calls": len(by.get("spectral.spectral_norm", ())),
        "spectral.norm_self_s": self_s("spectral.spectral_norm"),
        "spectral.norm_matvecs": sum(s.mv for s in
                                     by.get("spectral.spectral_norm", ())),
        "spectral.norm_unconverged": sum(
            s.error == "NoConvergence" for s in by.get("spectral.spectral_norm", ())),
        "spectral.eigs_s": dur("spectral.top_k_eigs"),
        "spectral.eigs_matvecs": subtree_mv(
            lambda s: s.within("spectral.top_k_eigs")),
        "spectral.inf2_s": dur("spectral.inf_to_2"),
        "pietsch.gp_s": dur("pietsch.gp_weights"),
        "pietsch.gp_self_s": gp_self,
        "pietsch.md_steps": md,
        "pietsch.reeval_s": sum(s.dur for s in reeval),
        "pietsch.reeval_matvecs": sum(s.mv for s in reeval),
        "pietsch.submatrix_s": self_s("pietsch.gp_submatrix"),
        "pietsch.cert_failures": (info("pietsch.gp_submatrix", "cert_failed")
                                  + sum(s.error == "VerificationError"
                                        for s in by.get("pietsch.gp_submatrix", ()))),
        "decompose.self_s": self_s("decompose.decompose"),
        "decompose.rounds": info("decompose.decompose", "rounds"),
        "decompose.verify_s": dur("decompose.verify_decomposition"),
        "decompose.write_s": dur("decompose.write"),
        "decompose.bytes_written": info("decompose.write", "bytes"),
        "community.detect_self_s": self_s("community.detect"),
        "community.dk_check_self_s": self_s("community.davis_kahan_check"),
        "community.detect_matvecs": subtree_mv(
            lambda s: s.within("community.detect")),
        "reports.write_s": dur("reports.write") + dur("reports.write_csv"),
        "reports.harness_s": dur(RUN_COMMAND) - dur("reports.run_trials"),
    }
    reps = max(int(reps), 1)
    values = {k: v / reps for k, v in totals.items()}
    values.update({
        "models.ns_per_pair": ratio(sample_s, pairs, 1e9),
        "models.ns_per_edge": ratio(sample_s, edges, 1e9),
        "operators.matvec_us": ratio(mv_s, mv_n, 1e6),
        "pietsch.ms_per_step": ratio(gp_self, md, 1e3),
        "reports.out_bytes": out_bytes / reps,
        "reports.speedup_threads2": speedup,
        "trace.overhead_frac": overhead,
    })
    missing_spans = sorted((set(expected) - tracer.fired) | tracer.broken)
    needs = {name: spans for name, spans, _ in LAYER_METRICS}
    missing = [m["name"] for m in declared
               if m["name"] not in needs or m["name"] not in values
               or any(s in missing_spans for s in needs[m["name"]])]
    metrics = {m["name"]: (float(values[m["name"]]), m["unit"])
               for m in declared if m["name"] not in missing}
    return metrics, missing, missing_spans
