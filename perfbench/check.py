"""Correctness gate: every trial's flags, each command's AC window, and an
independent scipy reference for one reported value per run.

Two kinds of trouble are told apart:

* a *failed* trial: its norm or eigen solve did not converge, or its
  command raised.  This is an operation that did not finish, and it
  counts in ``failed`` / ``fail_frac``;
* a *wrong* result: a certificate or structural flag is false, the
  step's acceptance window (AC2, AC6/AC7, AC8, AC10, judged on the
  converged trials) is missed, or the reference disagrees.  A wrong
  trial counts as failed too, and any wrong result makes the run
  incorrect (exit code 1).

gp-check's mirror-descent ``converged`` is a flag, not a failure
(``gp_weights`` documents it so), and an SBM trial whose spectral gap
premise does not hold (``gap_valid`` false) is a measurement, not a
failure.
"""

from __future__ import annotations

import csv
import os

import numpy as np

REFERENCE_RTOL = 1e-4


def _median(values):
    return float(np.median(values)) if values else float("nan")


def check_step(step, cfg, report, out_dir):
    """(attempted, failed trials, wrong-result messages, failure messages)
    for one step of one rep run at ``cfg``."""
    trials = report.trials
    unconverged, wrong, window = set(), set(), []
    if step.command == "concentration":
        unconverged = {k for k, t in enumerate(trials) if not t["converged"]}
        ok = [t["ratio"] for t in trials if t["converged"]]
        if cfg.get("scheme") == "trim" and ok and not _median(ok) <= 3.5:
            window.append(f"AC2 trim median ratio {_median(ok):.4f} > 3.5")
    elif step.command == "sample":
        n, p = cfg["model"]["n"], cfg["model"]["p"]
        pairs = n * (n - 1) / 2
        mean, sd = pairs * p, np.sqrt(pairs * p * (1 - p))
        wrong = {k for k, t in enumerate(trials)
                 if abs(t["nnz"] - mean) > 6 * sd
                 or not os.path.isfile(os.path.join(out_dir, t["file"]))}
    elif step.command == "decompose":
        parts = ["full"] if cfg.get("directed") else ["upper", "lower"]
        errors = False
        for k, t in enumerate(trials):
            for nm in parts:
                err = t.get(f"{nm}_error")
                if err is not None:
                    errors = True
                    (unconverged if err.startswith("NoConvergence") else wrong).add(k)
                elif not (t[f"{nm}_structural_ok"] and t[f"{nm}_r_footprint_ok"]
                          and t[f"{nm}_c_footprint_ok"]):
                    wrong.add(k)
        flags = report.flags
        if not errors and not (flags["structural_all"] and flags["footprint_all"]):
            window.append(f"AC8 flags {flags}")
        if not flags["max_norm_ratio"] <= 10.0:
            window.append(f"AC8 max norm ratio {flags['max_norm_ratio']} > 10")
    elif step.command == "sbm":
        unconverged = {k for k, t in enumerate(trials) if not t["converged"]}
        wrong = {k for k, t in enumerate(trials) if not t["dk_holds"]}
        ok = [t["mis"] for t in trials if t["converged"]]
        if ok and not _median(ok) <= 0.05:
            window.append(f"AC10 median misclassification {_median(ok):.4f} > 0.05")
    elif step.command == "gp-check":
        for k, t in enumerate(trials):
            certs = [v for key, v in t.items() if key.startswith("cert_ok_")]
            if not all(certs) or t["achieved"] < t["inf_to_2"] * (1 - 1e-9):
                wrong.add(k)
        frac = report.flags["ratio_within_limit_fraction"]
        if not frac >= 0.95:
            window.append(f"AC6 ratio <= {cfg['ratio_limit']} in {frac:.0%} < 95%")
    else:
        raise ValueError(f"no check for command {step.command!r}")
    if window:
        wrong = set(range(len(trials)))
    problems = [f"{step.command} trial {k}: wrong flags or certificate"
                for k in sorted(wrong)] + window
    notes = [f"{step.command} trial {k}: did not converge"
             for k in sorted(unconverged - wrong)]
    return len(trials), len(unconverged | wrong), problems, notes


# ---------------------------------------------------------------------------
# independent references, rebuilt from graphconc's public functions


def _top_abs_eig(matvec, n, seed):
    """Largest |eigenvalue| of a symmetric operator by ARPACK."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(n)
    vals = eigsh(op, k=1, which="LM", v0=v0, tol=1e-12,
                 return_eigenvectors=False)
    return float(abs(vals[0]))


def _read_trial0(out_dir):
    with open(os.path.join(out_dir, "trials.csv"), newline="") as fh:
        return next(csv.DictReader(fh))


def reference_ready(step, report):
    """Whether this step has a reference and its trial 0 finished."""
    if step.command == "gp-check" or isinstance(report, Exception):
        return False
    t0 = report.trials[0]
    if step.command in ("concentration", "sbm"):
        return bool(t0["converged"])
    if step.command == "decompose":
        return "upper_error" not in t0
    return True


def reference(step, cfg, master, out_dir):
    """(ok, detail) comparing trial 0 of a step run at ``cfg`` to an
    independent solve.  Runs outside the timed region, on the artifacts
    of the first rep whose trial 0 finished.
    """
    import graphconc as gc
    from scipy.sparse.linalg import svds

    row = _read_trial0(out_dir)
    if step.command == "concentration":
        n, d = int(cfg["cells"][0]["n"]), float(cfg["cells"][0]["d"])
        g = gc.sample(gc.Uniform(n, d / n), master, 0)
        g = gc.trim_edges(g, cfg["cap_mult"] * d) if cfg["scheme"] == "trim" else g
        A, p = g.to_csr(), d / n
        ref = _top_abs_eig(lambda x: A @ x - p * (x.sum() - x), n, master)
        got = float(row["norm"])
    elif step.command == "sample":
        model = gc.model_from_dict(cfg["model"])
        same = gc.load_graph(os.path.join(out_dir, row["file"])) == \
            gc.sample(model, master, 0)
        return same, f"saved graph {'equals' if same else 'differs from'} a fresh sample"
    elif step.command == "decompose":
        n, d = int(cfg["n"]), float(cfg["d"])
        model = gc.Uniform(n, d / n)
        upper, _ = gc.triangle_split(gc.sample(model, master, 0))
        labels = np.loadtxt(os.path.join(out_dir, "classes_t0_upper.csv"),
                            delimiter=",", skiprows=1, usecols=2,
                            dtype=str).reshape(n, n)
        dev = (upper.to_csr().toarray() - np.triu(gc.expected_dense(model), 1))
        dev_n = dev * (labels == "N")
        rng = np.random.default_rng(master)
        ref = float(svds(dev_n, k=1, v0=rng.standard_normal(n), tol=1e-12,
                         return_singular_vectors=False)[0])
        got = float(row["upper_norm_n"])
    elif step.command == "sbm":
        n, a, b = int(cfg["n"]), float(cfg["a"]), float(cfg["b"])
        g, _ = gc.sbm_instance(n, a, b, master, stream=0)
        tau = gc.average_degree(g)
        X = gc.laplacian(gc.tau_shift(g, tau))
        Y = gc.expected_laplacian(gc.BlockTwo(n, a, b), tau)
        ref = _top_abs_eig(lambda x: X.matvec(x) - Y.matvec(x), n, master)
        got = float(row["norm_diff"])
    else:
        raise ValueError(f"no reference for command {step.command!r}")
    err = abs(got - ref) / max(abs(ref), 1e-300)
    return err <= REFERENCE_RTOL, (f"{step.command} trial 0: reported {got:.10g}, "
                                   f"scipy {ref:.10g}, relative error {err:.2e}")
