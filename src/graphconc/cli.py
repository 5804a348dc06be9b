"""Seeded experiment harness.

    graphconc COMMAND --seed U64 [--config PATH] [--out DIR]
                      [--trials N] [--threads N]

Commands: sample | spectrum | concentration | laplacian | sbm |
decompose | gp-check.  Each run reads one JSON config of experiment
parameters (solver settings are module constants; an unknown key, or a
value not of its field's type and range, is an error), writes
config.json / report.json / CSV artifacts into its own output
directory, and is reproducible byte-for-byte from config + master seed
(wall clock aside).  seed/trials/threads/out may also be config keys;
flags win, and a config value or a ``run_command`` argument gets its
flag's check.
--trials N runs trials 0..N-1 (gp-check: N random matrices), each on
its own RNG stream, so --threads changes the schedule, never the
numbers.  Trial t draws stream t, except in concentration and
laplacian, where trial t of grid cell c draws stream c*N + t, and in
spectrum on a saved graph, which draws none; report.json's
seeds.streams lists the streams drawn.  A command checks its config,
runs its trial function (module level, picklable) through ``_run``,
which names a failed certificate's trial and stream, and returns the
records, summary and flags for ``run_command``'s one ExperimentReport."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from ._seeding import aux_generator
from .community import (BlockTwo, davis_kahan_check, misclassification,
                        sbm_instance)
from .decompose import (DENSE_LIMIT, decompose, decomposition_to_csv,
                        trace_to_json, transposed, triangle_split,
                        verify_decomposition)
from .errors import (GraphconcError, NoConvergence, SizeExceeded,
                     VerificationError, WidthExceeded)
from .models import (Uniform, check, check_object, expected_adjacency,
                     graph_header, load_graph, model_from_dict, sample,
                     sample_directed, save_graph)
from .models import expected_dense  # unused: perfbench/spans.py wraps it here
from .operators import compose_difference
from .pietsch import EXACT_LOWER_COLS, gp_submatrix, gp_weights
from .regularize import (SCHEMES, adjacency_shifted_op, apply_scheme,
                         average_degree, expected_laplacian, laplacian,
                         tau_shift)
from .reports import (ExperimentReport, config_hash, run_trials, summarize,
                      write_csv, write_histogram)
from .spectral import (ENUMERATION_LIMIT, FULL_SPECTRUM_LIMIT, full_spectrum,
                       inf_to_2_norm_exact, spectral_norm)


@dataclass(frozen=True)
class RunContext:
    seed: int
    out_dir: str
    trials: int = 1
    threads: int = 1


def _path(out_dir, name):
    """Where artifact ``name`` goes; the output directory is made on the
    first write, so a command that refuses its config leaves none."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _norm_or_best(op):
    """{norm, norm_steps, norm_eps, converged} of one deviation norm.

    NoConvergence is downgraded to its best estimate, with no steps or
    eps recorded.
    """
    try:
        est = spectral_norm(op)
    except NoConvergence as exc:
        return {"norm": float(exc.best if exc.best is not None else np.nan),
                "norm_steps": None, "norm_eps": None, "converged": False}
    return {"norm": est.value, "norm_steps": est.steps, "norm_eps": est.eps,
            "converged": True}


# ---------------------------------------------------------------------------
# configs


def _checked(raw, kinds):
    """``raw``, a config object of ``kinds``' keys, each optional; a
    value is named by its key alone."""
    return check_object(raw, kinds, "config", required=(), field="{key}")


def _config_from_dict(cls, raw):
    # the annotations name the kinds
    return cls(**_checked(raw, {f.name: f.type
                                for f in dataclasses.fields(cls)}))


@dataclass(frozen=True)
class SampleConfig:
    model: dict = field(default_factory=lambda: {"kind": "uniform",
                                                 "n": 100, "p": 0.05})
    directed: bool = False


@dataclass(frozen=True)
class SpectrumConfig:
    model: dict | None = None
    graph: str | None = None        # path to a saved graph (overrides model)
    scheme: str = "reweight"
    cap: positive | None = None     # None -> average degree of the sample
    tau: nonnegative | None = None
    tail_threshold: nonnegative | None = None  # None -> 2 sqrt(average degree)


@dataclass(frozen=True)
class ConcentrationConfig:
    cells: list = field(default_factory=lambda: [{"n": 1000, "d": 8.0}])
    scheme: str = "identity"
    cap_mult: positive = 2.0        # cap = cap_mult * d for capped schemes


@dataclass(frozen=True)
class LaplacianConfig:
    ns: list = field(default_factory=lambda: [1000])
    d: nonnegative = 5.0
    taus: list | None = None        # None -> [d]


@dataclass(frozen=True)
class SbmConfig:
    n: int = 2000
    a: float = 30.0
    b: float = 5.0
    tau: nonnegative | None = None  # None -> average degree, per trial


@dataclass(frozen=True)
class DecomposeConfig:
    n: int = 512
    d: positive = 8.0
    r: positive = 3.0
    model: dict | None = None       # None -> Uniform(n, d/n); else of size
                                    # n with max n p_ij <= d
    directed: bool = False          # undirected input is triangle-split
    gp_iters: int = 500
    write_files: bool = True


@dataclass(frozen=True)
class GpCheckConfig:
    rows: int = 8                   # >= 1: a 0 x m matrix would pass
    cols: int = 12                  # every certificate vacuously
    deltas: list = field(default_factory=lambda: [0.25, 0.5])
    ratio_limit: positive = 1.379   # sqrt(pi/2) * 1.10 solver slack


# ---------------------------------------------------------------------------
# commands


def _trial(fn, args, t):
    """``fn(*args, t)``; a failed certificate ends the run, named by
    trial t's row in trials.csv and stream t, the one it drew."""
    try:
        return fn(*args, t)
    except VerificationError as exc:
        raise VerificationError(f"trial {t} (stream {t}): {exc}") from exc


def _run(fn, ctx, *inputs, count=None):
    """Records ``fn(*inputs, seed, out_dir, trials, t)`` of trials
    t < count (default ``ctx.trials``), merged in index order."""
    args = (*inputs, ctx.seed, ctx.out_dir, ctx.trials)
    return run_trials(functools.partial(_trial, fn, args),
                      count or ctx.trials, ctx.threads)


def _sample_trial(model, cfg, seed, out_dir, trials, t):
    g = (sample_directed if cfg.directed else sample)(model, seed, t)
    name = "graph.csv" if trials == 1 else f"graph_t{t}.csv"
    save_graph(g, _path(out_dir, name))
    deg = g.degrees()
    return {"trial": t, "file": name, "n": g.n, "nnz": int(g.nnz),
            "max_degree": float(deg.max()) if deg.size else 0.0,
            "average_degree": float(deg.mean()) if deg.size else 0.0}


def cmd_sample(cfg, ctx):
    trials = _run(_sample_trial, ctx, model_from_dict(cfg.model), cfg)
    return (trials, {"nnz": summarize([t["nnz"] for t in trials])},
            {"wrote_files": True})


def _spectrum_trial(model, graph, cfg, seed, out_dir, trials, t):
    g = graph if graph is not None else sample(model, seed, t)
    avg = average_degree(g)
    cap = cfg.cap if cfg.cap is not None else avg
    thr = (cfg.tail_threshold if cfg.tail_threshold is not None
           else 2.0 * np.sqrt(max(avg, 0.0)))
    # the scheme before the O(n^3) spectra: it refuses an edgeless
    # sample's default cap, its average degree 0
    h = apply_scheme(g, cfg.scheme, cap=cap, tau=cfg.tau)
    before, after = (full_spectrum(x.to_dense()) for x in (g, h))
    sfx = "" if trials == 1 else f"_t{t}"
    for tag, eigs in (("before", before), ("after", after)):
        write_csv(_path(out_dir, f"eigs_{tag}{sfx}.csv"), ["eigenvalue"],
                  [[repr(float(v))] for v in eigs])
        write_histogram(_path(out_dir, f"hist_{tag}{sfx}.csv"), eigs)
    return {"trial": t, "cap": float(cap), "tail_threshold": float(thr),
            "max_abs_before": float(np.abs(before).max()),
            "max_abs_after": float(np.abs(after).max()),
            "tail_before": int((np.abs(before) > thr).sum()),
            "tail_after": int((np.abs(after) > thr).sum())}


def _check_scheme(scheme, tau=0.0, caps=()):
    """Refuse, before any trial, a scheme that ``SCHEMES`` does not
    name, spectrum's 'tau' without tau, and a concentration cell whose
    cap cap_mult * d (tau, for 'tau') the scheme would refuse: a capped
    scheme needs cap > 0, so no cell of d = 0."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, not {scheme!r}")
    if scheme == "tau" and tau is None:
        raise ValueError("scheme 'tau' needs tau")
    for ci, cap in enumerate(caps if scheme != "identity" else ()):
        check(cap, "nonnegative" if scheme == "tau" else "positive",
              f"cell {ci}'s cap_mult * d")


def cmd_spectrum(cfg, ctx):
    if cfg.model is None and cfg.graph is None:
        raise ValueError("spectrum needs 'model' or 'graph' in config")
    _check_scheme(cfg.scheme, cfg.tau)
    if cfg.graph is not None and ctx.trials > 1:  # each would read it again
        raise ValueError("spectrum on a saved graph runs one trial, not "
                         f"{ctx.trials}")
    # a saved graph is checked from its header, before any edge is parsed
    header = graph_header(cfg.graph) if cfg.graph is not None else None
    if header is not None and header["directed"]:
        raise ValueError("spectrum expects an undirected graph")
    model = model_from_dict(cfg.model) if cfg.model is not None else None
    n = header["n"] if header is not None else model.n
    if n < 1:
        raise ValueError("spectrum needs a graph of at least one vertex")
    if n > FULL_SPECTRUM_LIMIT:  # before any n x n array is built
        raise SizeExceeded(f"spectrum takes dense spectra; n = {n} exceeds "
                           f"{FULL_SPECTRUM_LIMIT}")
    fixed = load_graph(cfg.graph) if header is not None else None
    trials = _run(_spectrum_trial, ctx, model, fixed, cfg)
    summary = {key: summarize([t[key] for t in trials])
               for key in ("max_abs_before", "max_abs_after", "tail_before",
                           "tail_after")}
    flags = {"max_abs_shrank_every_trial":
                 all(t["max_abs_after"] < t["max_abs_before"] for t in trials),
             "tail_decreased_every_trial":
                 all(t["tail_after"] < t["tail_before"] for t in trials)}
    if fixed is not None:  # a saved graph is read, not drawn
        return trials, summary, flags, []
    return trials, summary, flags


def _grid(ctx, cfg, cells, trial, value, csv_name, header):
    """(trials, summary, flags) of grid trial function ``trial``: cell
    c = (summary key, n, d, x) runs trials t < N = ctx.trials, each one
    deviation norm of Uniform(n, d/n) drawn from stream c*N + t (no
    local name holds the sample while the norm is solved).  ``csv_name``
    gets a row [n, x, median, q1, q3] of each cell's ``value``s."""
    N = ctx.trials
    trials = _run(trial, ctx, cells, cfg, count=len(cells) * N)
    summary, rows = {}, []
    for ci, (key, n, _, x) in enumerate(cells):
        s = summary[key] = summarize(
            [r[value] for r in trials[ci * N:(ci + 1) * N]])
        rows.append([n, x, s.get("median"), s.get("q1"), s.get("q3")])
    write_csv(_path(ctx.out_dir, csv_name), header, rows)
    return trials, summary, {"all_converged": all(t["converged"]
                                                  for t in trials)}


def _distinct(values, name, key, shares="the summary key {}"):
    """{key(value): value} of ``values``, or a ValueError if the axis
    ``name`` is empty (a grid of no cells runs no trials, a gp-check of
    no delta checks no certificate) or if an entry repeats another
    one's key: its cell's summary, or its columns, would be lost."""
    if not values:
        raise ValueError(f"{name} must hold at least one entry")
    seen = {}
    for value in values:
        k = key(value)
        if k in seen:
            raise ValueError(
                f"{name} repeats {value!r}" if seen[k] == value else
                f"{name} entries {seen[k]!r} and {value!r} would share "
                + shares.format(k))
        seen[k] = value
    return seen


def _concentration_trial(cells, cfg, seed, out_dir, trials, flat):
    ci, t = divmod(flat, trials)
    _, n, d, _ = cells[ci]
    model = Uniform(n, d / n)
    cap = cfg.cap_mult * d  # 'tau' reads it as tau, 'identity' not at all
    rec = _norm_or_best(compose_difference(adjacency_shifted_op(apply_scheme(
        sample(model, seed, flat), cfg.scheme, cap=cap, tau=cap)),
        expected_adjacency(model)))
    return {"cell": ci, "n": n, "d": d, "trial": t, **rec,
            "ratio": float(rec["norm"] / np.sqrt(d) if d > 0 else 0.0)}


def cmd_concentration(cfg, ctx):
    if not cfg.cells:  # a grid of no cells runs no trials
        raise ValueError("cells must hold at least one cell")
    cells = []
    for c in cfg.cells:
        c = check_object(c, {"n": "int", "d": "float"}, "a cell")
        n, d = c["n"], float(c["d"])
        if not 0 <= d <= n:  # NaN too; Uniform(n, d/n) needs p in [0, 1]
            raise ValueError(f"cell {len(cells)}'s d must lie in [0, n] = "
                             f"[0, {n}], not {c['d']!r}")
        cells.append((f"cell_{len(cells)}_n{n}_d{d:g}", n, d, d))
    _check_scheme(cfg.scheme, caps=[cfg.cap_mult * d for _, _, d, _ in cells])
    return _grid(ctx, cfg, cells, _concentration_trial, "ratio", "cells.csv",
                 ["n", "d", "median_ratio", "q1", "q3"])


def _laplacian_trial(cells, cfg, seed, out_dir, trials, flat):
    ci, t = divmod(flat, trials)
    _, n, d, tau = cells[ci]
    model = Uniform(n, d / n)
    rec = _norm_or_best(compose_difference(
        laplacian(tau_shift(sample(model, seed, flat), tau)),
        expected_laplacian(model, tau)))
    return {"n": n, "tau": tau, "trial": t,
            "value": float(np.sqrt(d) * rec.pop("norm")), **rec}


def cmd_laplacian(cfg, ctx):
    taus = ([float(check(t, "positive", "each tau")) for t in cfg.taus]
            if cfg.taus is not None
            else [float(check(cfg.d, "positive", "d (the default tau)"))])
    d = float(cfg.d)
    ns = _distinct([check(n, "int", "an ns entry") for n in cfg.ns], "ns",
                   str).values()
    if not all(0 <= d <= n for n in ns):  # NaN too
        raise ValueError(f"d must lie in [0, n] for every n in ns, not "
                         f"{cfg.d!r} with n = {min(ns)}")
    taus = _distinct(taus, "taus", "{:g}".format).values()
    cells = [(f"n{n}_tau{tau:g}", n, d, tau) for n in ns for tau in taus]
    return _grid(ctx, cfg, cells, _laplacian_trial, "value", "curve.csv",
                 ["n", "tau", "median_sqrt_d_deviation", "q1", "q3"])


def _sbm_trial(model, cfg, seed, out_dir, trials, t):
    g, truth = sbm_instance(cfg.n, cfg.a, cfg.b, seed, stream=t)
    tau = float(cfg.tau) if cfg.tau is not None else average_degree(g)
    rec = davis_kahan_check(g, model, tau)
    return {"trial": t, "tau": tau,
            "mis": misclassification(rec.pop("labels"), truth), **rec}


def cmd_sbm(cfg, ctx):
    trials = _run(_sbm_trial, ctx, BlockTwo(cfg.n, cfg.a, cfg.b), cfg)
    # the Davis-Kahan flag covers the trials where the bound was measured
    checked = [t for t in trials if t["gap_valid"] and t["converged"]]
    return (trials, {"mis": summarize([t["mis"] for t in trials]),
                     "norm_diff": summarize([t["norm_diff"] for t in trials
                                             if t["norm_diff"] is not None]),
                     "gap_valid_trials": len(checked)},
            {"all_converged": all(t["converged"] for t in trials),
             "dk_holds_every_gap_valid_trial":
                 all(t["dk_holds"] for t in checked)})


def _decompose_trial(model, cfg, seed, out_dir, trials, t):
    parts = ([("full", sample_directed(model, seed, t))] if cfg.directed else
             zip(("upper", "lower"), triangle_split(sample(model, seed, t))))
    rec, dec = {"trial": t}, None
    for name, gd in parts:
        if name == "lower" and dec is None:  # U's decompose failed
            rec["lower_error"] = rec["upper_error"]
            continue
        try:  # L = U^T: its decomposition is U's, transposed
            dec = (transposed(dec) if name == "lower" else
                   decompose(gd, model, cfg.r, cfg.d, gp_iters=cfg.gp_iters,
                             part=name))
            found = verify_decomposition(gd, model, dec)
        except VerificationError as exc:  # a certificate failed: name where
            raise VerificationError(f"part {name}: {exc}") from exc
        except GraphconcError as exc:
            rec[f"{name}_error"] = f"{type(exc).__name__}: {exc}"
            continue
        if cfg.write_files:
            decomposition_to_csv(dec,
                                 _path(out_dir, f"classes_t{t}_{name}.csv"))
            trace_to_json(dec, _path(out_dir, f"trace_t{t}_{name}.json"))
        rec.update({f"{name}_{k}": v for k, v in found.items()})
    return rec


def cmd_decompose(cfg, ctx):
    if cfg.model is None:
        if cfg.d > cfg.n:
            raise ValueError(f"d must lie in (0, n] = (0, {cfg.n}] for the "
                             f"default Uniform(n, d/n), not {cfg.d!r}")
        model = Uniform(cfg.n, cfg.d / cfg.n)
    else:  # n and d set the row filter, the footprint limit and the ratio
        model = model_from_dict(cfg.model)
        if model.n != cfg.n:
            raise ValueError(f"model n = {model.n} differs from the config's "
                             f"n = {cfg.n}")
        # the paper's d is max n p_ij; the tolerance forgives its rounding
        rate = float(model.max_rate())
        if rate * (1.0 - 1e-12) > cfg.d:
            raise ValueError(f"model max n p_ij = {rate!r} exceeds the "
                             f"config's d = {cfg.d}")
    if model.n > DENSE_LIMIT:  # before any n x n array is built
        raise SizeExceeded(f"decompose holds n x n arrays; n <= {DENSE_LIMIT}")
    trials = _run(_decompose_trial, ctx, model, cfg)
    names = ["full"] if cfg.directed else ["upper", "lower"]
    ratios = [t[f"{nm}_norm_ratio"] for t in trials for nm in names
              if f"{nm}_norm_ratio" in t]
    errors = [t[k] for t in trials for k in t if k.endswith("_error")]

    def every(*keys):  # each key of each part of each trial is true
        return all(t.get(f"{nm}_{k}", False)
                   for t in trials for nm in names for k in keys)

    return (trials, {"norm_ratio": summarize(ratios), "errors": errors},
            {"structural_all": every("structural_ok"),
             "footprint_all": every("r_footprint_ok", "c_footprint_ok"),
             "max_norm_ratio": float(max(ratios)) if ratios else 0.0,
             "gp_target_met_all": every("gp_target_met")})


def _gp_check_trial(deltas, cfg, seed, out_dir, trials, i):
    B = aux_generator(seed, i, 3).uniform(-1.0, 1.0, size=(cfg.rows, cfg.cols))
    w = gp_weights(B)  # asserts the left inequality internally
    exact = (w.lower_bound if cfg.cols <= EXACT_LOWER_COLS
             else inf_to_2_norm_exact(B))
    rec = {"trial": i, "achieved": float(w.achieved_norm),
           "inf_to_2": float(exact),
           "ratio": float(w.achieved_norm / exact) if exact > 0 else 1.0,
           "converged": w.converged, "iterations": w.iterations}
    for key, delta in deltas.items():
        J, cert = gp_submatrix(B, delta, weights=w)
        rec[f"cert_ok_d{key}"] = cert.ok
        rec[f"selected_d{key}"] = cert.n_selected
    return rec


def cmd_gp_check(cfg, ctx):
    deltas = _distinct([check(x, "unit", "each delta") for x in cfg.deltas],
                       "deltas", lambda x: f"{x:g}".replace(".", "p"),
                       "the columns *_d{}")  # column suffix -> delta
    if cfg.cols > ENUMERATION_LIMIT:  # each ||B||_{inf->2} enumerates signs
        raise WidthExceeded(f"cols = {cfg.cols} exceeds the enumeration "
                            f"limit {ENUMERATION_LIMIT}")
    trials = _run(_gp_check_trial, ctx, deltas, cfg)
    ratios = [t["ratio"] for t in trials]
    cert_keys = [f"cert_ok_d{key}" for key in deltas]
    return (trials, {"ratio": summarize(ratios)},
            {"all_certificates_ok":
                 all(t[k] for t in trials for k in cert_keys),
             "ratio_within_limit_fraction":
                 float(np.mean([x <= cfg.ratio_limit for x in ratios]))
                 if ratios else 1.0,
             "all_converged": all(t["converged"] for t in trials)})


# ---------------------------------------------------------------------------
# driver

_COMMANDS = {
    "sample": (SampleConfig, cmd_sample, "draw a graph and save it"),
    "spectrum": (SpectrumConfig, cmd_spectrum,
                 "dense spectrum before/after a regularization scheme"),
    "concentration": (ConcentrationConfig, cmd_concentration,
                      "median ||A' - EA||/sqrt(d) over an (n, d) grid"),
    "laplacian": (LaplacianConfig, cmd_laplacian,
                  "median sqrt(d) ||L(A_tau) - L(EA_tau)|| over a grid"),
    "sbm": (SbmConfig, cmd_sbm,
            "two-block SBM detection with Davis-Kahan diagnostics"),
    "decompose": (DecomposeConfig, cmd_decompose,
                  "N/R/C edge decomposition plus verifier report"),
    "gp-check": (GpCheckConfig, cmd_gp_check,
                 "Grothendieck-Pietsch factorization ratio statistics"),
}


def _int_in(low, high, what):
    """Parser of an int in [low, high), from a flag's text or a JSON value."""
    def parse(value):
        try:
            value = int(value, 0) if isinstance(value, str) else value
        except ValueError:
            pass
        if type(value) is not int or not low <= value < high:
            raise argparse.ArgumentTypeError(f"{what}, not {value!r}")
        return value
    return parse


_u64 = _int_in(0, 2 ** 64, "seed must fit in a u64")
_positive = _int_in(1, float("inf"), "must be a positive integer")
_RUN_FIELDS = (("seed", _u64), ("trials", _positive), ("threads", _positive))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphconc",
        description="seeded random-graph concentration experiments")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config; flags override its fields")
        p.add_argument("--seed", type=_u64,
                       help="master seed (required here or in the config)")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--trials", type=_positive,
                       help="number of trials (gp-check: instances)")
        p.add_argument("--threads", type=_positive, help="worker threads")
    return parser


def _resolve(name, raw_config, seed, trials):
    """(config, parameters): report.json records and hashes the latter."""
    cfg = _config_from_dict(_COMMANDS[name][0], raw_config)
    return cfg, {"command": name, "config": dataclasses.asdict(cfg),
                 "seed": seed, "trials": trials}


def _refuse_other_config(out_dir, digest):
    """ValueError if ``out_dir`` holds the report.json of another config."""
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            held = json.load(fh).get("config_hash")
    except FileNotFoundError:
        return
    if held != digest:
        raise ValueError(f"{out_dir} holds the report of config_hash {held}; "
                         f"this run's config_hash is {digest}")


def run_command(name, raw_config, seed, out_dir, trials=1, threads=1):
    """Programmatic entry point; returns the ExperimentReport.

    Refuses (ValueError) a seed, trials or threads that its flag
    refuses, and an ``out_dir`` whose report.json was written for
    another config hash; rerunning the same config is allowed.
    """
    checked = []
    for (key, parse), value in zip(_RUN_FIELDS, (seed, trials, threads)):
        try:
            checked.append(parse(value))
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{key}: {exc}") from None
    seed, trials, threads = checked
    runner = _COMMANDS[name][1]
    cfg, params = _resolve(name, raw_config, seed, trials)
    _refuse_other_config(out_dir, config_hash(params))
    ctx = RunContext(seed=seed, out_dir=out_dir, trials=trials,
                     threads=threads)
    start = time.perf_counter()
    records, summary, flags, *drawn = runner(cfg, ctx)
    # trial t draws stream t unless the command lists the streams it drew
    streams = drawn[0] if drawn else list(range(len(records)))
    report = ExperimentReport(
        command=name, parameters=params,
        seeds={"master_seed": seed, "streams": streams}, trials=records,
        summary=summary, flags=flags,
        wall_clock_s=time.perf_counter() - start)
    os.makedirs(out_dir, exist_ok=True)
    report.write(out_dir)
    return report


def _read_config(path, name):
    """The JSON object in the file at ``path``: command ``name``'s config
    fields, whose values ``run_command`` checks, and the run fields,
    which ``main`` parses; ``out`` is checked here."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not JSON: {exc}") from None
    fields = dataclasses.fields(_COMMANDS[name][0])
    kinds = dict.fromkeys([f.name for f in fields] + list(dict(_RUN_FIELDS)))
    return _checked(raw, {**kinds, "out": "str | None"})


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        raw = _read_config(args.config, args.command) if args.config else {}
        run = {"seed": None, "trials": 1, "threads": 1}
        for key, parse in _RUN_FIELDS:
            if key in raw:
                try:
                    run[key] = parse(raw.pop(key))
                except argparse.ArgumentTypeError as exc:
                    parser.error(f"config field {key!r}: {exc}")
            if getattr(args, key) is not None:
                run[key] = getattr(args, key)
        seed, trials, threads = run["seed"], run["trials"], run["threads"]
        cfg_out = raw.pop("out", None)
        out_dir = args.out if args.out is not None else cfg_out
        if seed is None:
            parser.error("--seed is required (flag or config field)")
        if out_dir is None:
            params = _resolve(args.command, raw, seed, trials)[1]
            out_dir = os.path.join(
                "runs", f"{args.command}-{config_hash(params)[:10]}")
        report = run_command(args.command, raw, seed, out_dir,
                             trials=trials, threads=threads)
    except (GraphconcError, ValueError, OSError) as exc:
        print(f"graphconc {args.command}: error: {exc}", file=sys.stderr)
        return 1
    line = ", ".join(f"{k}={v}" for k, v in sorted(report.flags.items()))
    print(f"graphconc {args.command}: wrote {out_dir} "
          f"({report.wall_clock_s:.1f}s) {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
