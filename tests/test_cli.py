"""CLI harness: determinism, report plumbing, per-command smoke runs."""

import csv
import importlib
import json
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import graphconc
import graphconc.cli as cli
import graphconc.community
import graphconc.pietsch
from graphconc import (DecompositionError, NoConvergence, SizeExceeded,
                       VerificationError, gp_weights, inf_to_2_norm_exact,
                       load_graph)
from graphconc._seeding import aux_generator
from graphconc.cli import main, run_command
from graphconc.reports import canonical_json, config_hash, summarize, write_histogram
from graphconc.spectral import NORM_TOL

from conftest import MASTER

dmod = importlib.import_module("graphconc.decompose")
# max n p_ij = 32 but for rounding
PROFILE_32 = {"kind": "profile", "n": 256, "values": [2, 12],
              "fractions": [0.75, 0.25]}


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# report helpers


def test_canonical_json_is_order_free():
    a = canonical_json({"b": 1, "a": [np.int64(2), np.float64(0.5)]})
    b = canonical_json({"a": [2, 0.5], "b": 1})
    assert a == b


def test_config_hash_stable_and_sensitive():
    h1 = config_hash({"x": 1})
    assert h1 == config_hash({"x": 1})
    assert h1 != config_hash({"x": 2})
    assert len(h1) == 40  # sha1 hex


def test_summarize():
    s = summarize([3.0, 1.0, 2.0, np.nan])
    assert s["count"] == 3 and s["median"] == 2.0
    assert s["min"] == 1.0 and s["max"] == 3.0


def test_write_histogram_edge_cases(tmp_path):
    p = tmp_path / "h.csv"
    write_histogram(p, np.array([]))
    assert len(read_csv(p)) == 1  # single empty row
    write_histogram(p, np.full(5, 2.0))
    rows = read_csv(p)
    assert len(rows) == 1 and float(rows[0]["count"]) == 5


# ---------------------------------------------------------------------------
# run_command plumbing


def test_sample_roundtrip_and_report(tmp_path):
    out = tmp_path / "run"
    rep = run_command("sample", {"model": {"kind": "uniform", "n": 40,
                                           "p": 0.2}}, MASTER, str(out))
    g = load_graph(out / "graph.csv")
    assert g.n == 40 and g.nnz == rep.trials[0]["nnz"]
    blob = json.loads((out / "report.json").read_text())
    assert blob["parameters"]["seed"] == MASTER
    assert blob["config_hash"] == rep.config_hash
    assert (out / "config.json").exists() and (out / "trials.csv").exists()


def test_rerun_is_byte_identical(tmp_path):
    cfg = {"cells": [{"n": 150, "d": 4.0}], "scheme": "trim"}
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_command("concentration", cfg, MASTER, str(out), trials=3)
        outs.append((out / "trials.csv").read_bytes())
    assert outs[0] == outs[1]


def test_threads_do_not_change_results(tmp_path):
    cfg = {"cells": [{"n": 120, "d": 4.0}, {"n": 80, "d": 3.0}],
           "scheme": "reweight"}
    blobs = []
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        run_command("concentration", cfg, MASTER, str(out), trials=4,
                    threads=threads)
        blobs.append((out / "trials.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_threads_do_not_change_gp_results(tmp_path):
    # GP's LAPACK and BLAS calls run inside the thread pool
    runs = [("gp-check", {"rows": 8, "cols": 12}, 6),
            ("decompose", {"n": 48, "d": 4.0, "r": 2.0, "gp_iters": 20}, 4)]
    for name, cfg, trials in runs:
        blobs = []
        for threads in (1, 4):
            out = tmp_path / f"{name}{threads}"
            run_command(name, cfg, MASTER, str(out), trials=trials,
                        threads=threads)
            blobs.append((out / "trials.csv").read_bytes())
        assert blobs[0] == blobs[1], name


def test_unknown_config_key_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown config key"):
        run_command("sample", {"modle": {}}, MASTER, str(tmp_path / "x"))


@pytest.mark.parametrize("name,key", [
    ("spectrum", "bins"), ("concentration", "tol"),
    ("concentration", "max_iter"), ("laplacian", "tol"),
    ("laplacian", "max_iter"), ("sbm", "detect_tol"),
    ("decompose", "kappa"), ("gp-check", "entries"), ("gp-check", "count")])
def test_solver_settings_are_not_config_keys(tmp_path, name, key):
    with pytest.raises(ValueError, match="unknown config key"):
        run_command(name, {key: 1}, MASTER, str(tmp_path / "x"))


def test_unknown_scheme_is_an_error(tmp_path):
    with pytest.raises(ValueError):
        run_command("concentration",
                    {"cells": [{"n": 30, "d": 2.0}], "scheme": "banana"},
                    MASTER, str(tmp_path / "x"))


# ---------------------------------------------------------------------------
# per-command smoke runs at desk scale


def test_spectrum_k5_masses(tmp_path):
    # K5 via an explicit model with p = 1: identity scheme keeps the
    # spectrum {4, -1 x 4}
    out = tmp_path / "spec"
    P = (np.ones((5, 5)) - np.eye(5)).tolist()
    rep = run_command("spectrum",
                      {"model": {"kind": "explicit", "P": P},
                       "scheme": "identity", "tail_threshold": 10.0},
                      MASTER, str(out))
    eigs = sorted(float(r["eigenvalue"]) for r in read_csv(out / "eigs_before.csv"))
    assert eigs[0] == pytest.approx(-1.0) and eigs[-1] == pytest.approx(4.0)
    assert rep.trials[0]["tail_before"] == 0


def test_spectrum_of_a_saved_graph(tmp_path):
    # the graph input reads back what sample saved: the same spectrum as
    # drawing the model at the same seed
    model = {"kind": "uniform", "n": 60, "p": 0.1}
    run_command("sample", {"model": model}, MASTER, str(tmp_path / "s"))
    runs = [run_command("spectrum", cfg, MASTER, str(tmp_path / name))
            for name, cfg in (("m", {"model": model}),
                              ("g", {"graph": str(tmp_path / "s" / "graph.csv")}))]
    before = [rep.trials[0]["max_abs_before"] for rep in runs]
    assert before[0] > 0.0 and before[0] == before[1]


def test_spectrum_reweight_run(tmp_path):
    out = tmp_path / "spec2"
    rep = run_command("spectrum",
                      {"model": {"kind": "profile", "n": 300,
                                 "values": [5.0, 50.0],
                                 "fractions": [0.9, 0.1]},
                       "scheme": "reweight"},
                      MASTER, str(out), trials=2)
    assert (out / "eigs_after_t1.csv").exists()
    assert (out / "hist_before_t0.csv").exists()
    assert set(rep.flags) == {"max_abs_shrank_every_trial",
                              "tail_decreased_every_trial"}


def test_laplacian_run(tmp_path):
    out = tmp_path / "lap"
    rep = run_command("laplacian", {"ns": [128], "d": 4.0, "taus": [4.0]},
                      MASTER, str(out), trials=2)
    rows = read_csv(out / "curve.csv")
    assert len(rows) == 1
    med = float(rows[0]["median_sqrt_d_deviation"])
    assert 0.0 < med < 3.0
    assert rep.flags["all_converged"]
    with pytest.raises(ValueError):
        run_command("laplacian", {"ns": [16], "d": 2.0, "taus": [0.0]},
                    MASTER, str(tmp_path / "bad"))


def test_sbm_run(tmp_path):
    out = tmp_path / "sbm"
    rep = run_command("sbm", {"n": 200, "a": 25.0, "b": 4.0}, MASTER,
                      str(out), trials=2)
    rows = read_csv(out / "trials.csv")
    assert len(rows) == 2
    assert all(float(r["mis"]) <= 0.05 for r in rows)
    assert rep.flags["dk_holds_every_gap_valid_trial"]


def test_sbm_trial_keys_keep_their_order(tmp_path):
    # report.json stores each trial's fields in this order
    rep = run_command("sbm", {"n": 200, "a": 25.0, "b": 4.0}, MASTER,
                      str(tmp_path / "sbm"), trials=2)
    keys = ["trial", "tau", "mis", "converged", "delta", "gap_valid",
            "norm_diff", "norm_steps", "norm_eps", "distance", "bound",
            "dk_holds", "lam2", "lam3"]
    assert [list(t) for t in rep.trials] == [keys, keys]
    with open(tmp_path / "sbm" / "report.json") as fh:
        assert [list(t) for t in json.load(fh)["trials"]] == [keys, keys]


@pytest.mark.parametrize("directed", [False, True])
def test_decompose_trial_keys_keep_their_order(tmp_path, directed):
    # report.json stores each trial's fields in this order: the trial,
    # then each part's verifier record under the part's prefix
    rep = run_command("decompose", {"n": 48, "d": 4.0, "r": 2.0,
                                    "gp_iters": 20, "write_files": False,
                                    "directed": directed},
                      MASTER, str(tmp_path / "dec"), trials=2)
    fields = ["structural_ok", "r_footprint_ok", "c_footprint_ok",
              "max_r_row_ones", "max_c_col_ones", "r_cols", "c_rows",
              "norm_n", "norm_steps", "norm_eps", "norm_ratio", "rounds",
              "gp_target_met"]
    parts = ["full"] if directed else ["upper", "lower"]
    keys = ["trial"] + [f"{p}_{k}" for p in parts for k in fields]
    assert [list(t) for t in rep.trials] == [keys, keys]
    with open(tmp_path / "dec" / "report.json") as fh:
        assert [list(t) for t in json.load(fh)["trials"]] == [keys, keys]


def test_sbm_norm_failure_keeps_detect_labels(tmp_path, monkeypatch):
    def no_norm(*args, **kwargs):
        raise NoConvergence("forced", best=1.0)

    monkeypatch.setattr(graphconc.community, "spectral_norm", no_norm)
    rep = run_command("sbm", {"n": 200, "a": 25.0, "b": 4.0}, MASTER,
                      str(tmp_path / "sbm"), trials=2)
    for t in rep.trials:
        assert not t["converged"]
        assert t["mis"] <= 0.05  # the detect labels survived
        assert t["norm_diff"] is None and t["bound"] is None
        assert t["lam2"] is not None
    assert not rep.flags["all_converged"]
    assert rep.summary["gap_valid_trials"] == 0


def test_report_streams_are_the_streams_drawn(tmp_path):
    # concentration draws cells x trials streams, gp-check one per
    # instance, and spectrum on a saved graph none at all
    graph = tmp_path / "g.csv"
    graphconc.save_graph(graphconc.sample(graphconc.Uniform(30, 0.2), MASTER),
                         str(graph))
    runs = [("concentration", {"cells": [{"n": 60, "d": 3.0},
                                         {"n": 80, "d": 3.0}]}, 2, [0, 1, 2, 3]),
            ("gp-check", {"rows": 4, "cols": 5, "deltas": [0.5]},
             3, [0, 1, 2]),
            ("spectrum", {"graph": str(graph)}, 1, [])]
    for name, cfg, trials, streams in runs:
        out = tmp_path / name
        rep = run_command(name, cfg, MASTER, str(out), trials=trials)
        assert rep.seeds["streams"] == streams
        blob = json.loads((out / "report.json").read_text())
        assert blob["seeds"]["streams"] == streams


def test_decompose_run(tmp_path):
    out = tmp_path / "dec"
    rep = run_command("decompose", {"n": 48, "d": 4.0, "r": 2.0}, MASTER,
                      str(out))
    assert rep.flags["structural_all"] and rep.flags["footprint_all"]
    assert (out / "classes_t0_upper.csv").exists()
    assert (out / "trace_t0_lower.json").exists()


def test_decompose_directed_run(tmp_path):
    # a directed sample is decomposed whole, into the full_* columns
    out = tmp_path / "dec"
    rep = run_command("decompose", {"n": 48, "d": 4.0, "r": 2.0,
                                    "directed": True, "gp_iters": 20},
                      MASTER, str(out))
    (row,) = read_csv(out / "trials.csv")
    for key in ("structural_ok", "r_footprint_ok", "c_footprint_ok",
                "max_r_row_ones", "max_c_col_ones", "r_cols", "c_rows",
                "norm_n", "norm_steps", "norm_eps", "norm_ratio", "rounds"):
        assert row[f"full_{key}"] != ""
    assert not any(k.startswith(("upper_", "lower_")) for k in row)
    assert rep.flags["structural_all"] and rep.flags["footprint_all"]
    assert rep.summary["norm_ratio"]["count"] == 1
    assert (out / "classes_t0_full.csv").exists()
    assert (out / "trace_t0_full.json").exists()


@pytest.mark.parametrize("spec", [
    {"kind": "uniform", "n": 40, "p": 0.1},
    {"kind": "rankone", "n": 40, "theta": [0.05 + 0.02 * i for i in range(40)]},
    {"kind": "blocktwo", "n": 40, "a": 6.0, "b": 2.0},
    {"kind": "profile", "n": 40, "values": [7, 30], "fractions": [0.9, 0.1]},
    {"kind": "explicit",
     "P": (np.add.outer(np.arange(12), np.arange(12)) % 5 / 10).tolist()}])
def test_decompose_parts_build_the_triangles_of_ea(spec):
    # each part's block read of EA, as the decompose command hands EA
    # over (the model's factors, or the dense EA of a model without
    # them), is a slice of np.triu/np.tril of the dense EA bit for bit,
    # on the whole square and on random blocks I x J; and "lower" reads
    # "upper" transposed, as L's decomposition (U's, transposed) needs
    model = graphconc.model_from_dict(spec)
    n = model.n
    P = graphconc.expected_dense(model)
    F = graphconc.ea_factors(model)
    assert (F is None) == (spec["kind"] in ("profile", "explicit"))
    read = dmod._ea_reader(F if F is not None else P, n)
    rng = np.random.default_rng(7)
    blocks = [(np.arange(n), np.arange(n))] + [
        tuple(np.sort(rng.choice(n, size=k, replace=False))
              for k in rng.integers(1, n, size=2)) for _ in range(6)]
    for part, want in (("full", P), ("upper", np.triu(P, 1)),
                       ("lower", np.tril(P, -1))):
        for I, J in blocks:
            got = read(I, J, part)
            assert got.tobytes() == want[np.ix_(I, J)].tobytes()
    for I, J in blocks:
        assert (read(J, I, "lower").tobytes()
                == read(I, J, "upper").T.tobytes())


def test_decompose_error_is_recorded_per_triangle(tmp_path, monkeypatch):
    # verify fails on the lower triangle: the upper one is still
    # verified, written and reported
    real = graphconc.cli.verify_decomposition

    def lower_fails(A, EA, dec, part="full"):
        if part == "lower":
            raise DecompositionError("forced")
        return real(A, EA, dec, part=part)

    monkeypatch.setattr(graphconc.cli, "verify_decomposition", lower_fails)
    out = tmp_path / "dec"
    cfg = {"n": 48, "d": 4.0, "r": 2.0, "gp_iters": 20}
    rep = run_command("decompose", cfg, MASTER, str(out))
    (row,) = read_csv(out / "trials.csv")
    assert row["lower_error"] == "DecompositionError: forced"
    assert row["upper_structural_ok"] == "True"
    assert "lower_structural_ok" not in row
    assert rep.summary["errors"] == ["DecompositionError: forced"]
    assert not rep.flags["structural_all"]
    assert (out / "classes_t0_upper.csv").exists()
    assert not (out / "classes_t0_lower.csv").exists()
    blob = json.loads((out / "report.json").read_text())
    assert blob["trials"][0]["lower_error"] == "DecompositionError: forced"

    # U's decompose fails: L, its transpose, records the same error
    def upper_fails(*args, **kwargs):
        raise DecompositionError("forced upper")

    monkeypatch.setattr(graphconc.cli, "decompose", upper_fails)
    rep = run_command("decompose", cfg, MASTER, str(tmp_path / "both"))
    assert rep.summary["errors"] == ["DecompositionError: forced upper"] * 2
    assert rep.trials[0]["lower_error"] == rep.trials[0]["upper_error"]


def test_decompose_certificate_failure_ends_the_run(tmp_path, monkeypatch,
                                                   capsys):
    # a failed certificate is not recorded per triangle: the run ends on
    # the error line, naming the trial, its stream and the part
    real, calls = graphconc.cli.verify_decomposition, []

    def third_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:  # trial 1, upper triangle
            raise VerificationError("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(graphconc.cli, "verify_decomposition", third_fails)
    cfg = {"n": 48, "d": 4.0, "r": 2.0, "gp_iters": 20,
           "write_files": False}
    with pytest.raises(VerificationError,
                       match=r"^trial 1 \(stream 1\), part upper: forced$"):
        run_command("decompose", cfg, MASTER, str(tmp_path / "api"),
                    trials=2)
    calls.clear()
    cfg_path = tmp_path / "dec.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["decompose", "--seed", "1", "--trials", "2", "--config",
               str(cfg_path), "--out", str(tmp_path / "cli")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "graphconc decompose: error: trial 1 (stream 1), part upper: "
        "forced\n")
    assert not (tmp_path / "cli" / "report.json").exists()


def test_gp_check_certificate_failure_ends_the_run(tmp_path, monkeypatch,
                                                  capsys):
    # a failed certificate in gp_weights or gp_submatrix ends the run on
    # the error line, naming the instance and its stream
    real, calls = graphconc.cli.gp_submatrix, []

    def third_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:  # instance 1, its first delta
            raise VerificationError("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(graphconc.cli, "gp_submatrix", third_fails)
    cfg = {"rows": 4, "cols": 5, "deltas": [0.25, 0.5]}
    with pytest.raises(VerificationError,
                       match=r"^trial 1 \(stream 1\): forced$"):
        run_command("gp-check", cfg, MASTER, str(tmp_path / "api"),
                    trials=2)
    calls.clear()
    cfg_path = tmp_path / "gp.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["gp-check", "--seed", "1", "--trials", "2", "--config",
               str(cfg_path), "--out", str(tmp_path / "cli")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "graphconc gp-check: error: trial 1 (stream 1): forced\n")
    assert not (tmp_path / "cli" / "report.json").exists()

    def weights_fail(B, *args, **kwargs):
        raise VerificationError("left inequality")

    monkeypatch.setattr(graphconc.cli, "gp_weights", weights_fail)
    with pytest.raises(VerificationError,
                       match=r"^trial 0 \(stream 0\): left inequality$"):
        run_command("gp-check", cfg, MASTER, str(tmp_path / "w"))


def test_decompose_runs_a_model_at_its_max_rate(tmp_path):
    # max n p_ij of this profile rounds to 32.00000000000001: d = 32 fits
    model = graphconc.model_from_dict(PROFILE_32)
    assert graphconc.max_rate(model) > 32.0
    rep = run_command("decompose", {"n": 256, "d": 32.0, "model": PROFILE_32,
                                    "gp_iters": 20, "write_files": False},
                      MASTER, str(tmp_path / "dec"))
    assert rep.flags["structural_all"] and not rep.summary["errors"]
    trial = rep.trials[0]
    assert trial["upper_norm_ratio"] == (trial["upper_norm_n"]
                                         / (3.0 ** 1.5 * np.sqrt(32.0)))


@pytest.mark.parametrize("d, met", [(0.5, False), (8.0, True)])
def test_decompose_target_flag_is_read_off_the_records(tmp_path, d, met):
    # each part records whether its GP blocks met their targets, so the
    # flag survives a pool: at d = 0.5 the 20-step descents miss
    rep = run_command("decompose", {"n": 128, "d": d, "gp_iters": 20,
                                    "write_files": False},
                      MASTER, str(tmp_path / "dec"), trials=2, threads=2)
    found = [t[f"{p}_gp_target_met"] for t in rep.trials
             for p in ("upper", "lower")]
    assert found == [met] * 4
    assert rep.flags["gp_target_met_all"] is met
    (row, _) = read_csv(tmp_path / "dec" / "trials.csv")
    assert row["upper_gp_target_met"] == str(met)


def test_decompose_refuses_n_above_the_dense_limit(tmp_path, monkeypatch):
    # refused before the n x n expected matrix is built
    def no_dense(model):
        raise AssertionError(f"expected_dense built at n = {model.n}")

    monkeypatch.setattr(graphconc.cli, "expected_dense", no_dense)
    with pytest.raises(SizeExceeded):
        run_command("decompose", {"n": 4200, "gp_iters": 5,
                                  "write_files": False},
                    MASTER, str(tmp_path / "big"))


@pytest.mark.parametrize("best", [2.5, None])
def test_unconverged_norm_reports_its_best(tmp_path, monkeypatch, best):
    def no_norm(*args, **kwargs):
        raise NoConvergence("forced", best=best)

    monkeypatch.setattr(graphconc.cli, "spectral_norm", no_norm)
    out = tmp_path / "conc"
    rep = run_command("concentration", {"cells": [{"n": 60, "d": 4.0}]},
                      MASTER, str(out), trials=2)
    rows = read_csv(out / "trials.csv")
    assert len(rows) == 2 and all(r["converged"] == "False" for r in rows)
    assert all(r["norm_steps"] == r["norm_eps"] == "" for r in rows)
    for t in rep.trials:
        if best is None:
            assert np.isnan(t["norm"]) and np.isnan(t["ratio"])
        else:
            assert t["norm"] == best and t["ratio"] == best / 2.0
    assert not rep.flags["all_converged"]


@pytest.mark.parametrize("best", [True, False])
def test_sbm_detect_failure_falls_back(tmp_path, monkeypatch, best):
    # labels from the converged Ritz vector when there is one, all +1
    # otherwise; every Davis-Kahan field is left unmeasured
    n = 200
    truth = np.where(np.arange(n) < n // 2, 1.0, -1.0)

    def no_eigs(*args, **kwargs):
        pair = (np.array([1.9]), truth[:, None] / np.sqrt(n))
        raise NoConvergence("forced", best=pair if best else None)

    monkeypatch.setattr(graphconc.community, "top_k_eigs", no_eigs)
    out = tmp_path / "sbm"
    rep = run_command("sbm", {"n": n, "a": 25.0, "b": 4.0}, MASTER,
                      str(out), trials=2)
    assert len(read_csv(out / "trials.csv")) == 2
    for t in rep.trials:
        assert t["mis"] == (0.0 if best else 0.5)
        assert not t["converged"] and not t["gap_valid"] and t["dk_holds"]
        for key in ("delta", "norm_diff", "distance", "bound", "lam2",
                    "lam3"):
            assert t[key] is None
    assert not rep.flags["all_converged"]
    assert rep.summary["gap_valid_trials"] == 0


def test_gp_check_run(tmp_path):
    out = tmp_path / "gp"
    rep = run_command("gp-check", {"rows": 5, "cols": 8, "deltas": [0.5]},
                      MASTER, str(out), trials=4)
    rows = read_csv(out / "trials.csv")
    assert len(rows) == 4
    assert all(r["cert_ok_d0p5"] == "True" for r in rows)
    assert rep.flags["all_certificates_ok"]
    # each instance's descent length, where it stopped
    for i, row in enumerate(rows):
        B = aux_generator(MASTER, i, 3).uniform(-1.0, 1.0, size=(5, 8))
        w = gp_weights(B)
        assert int(row["iterations"]) == w.iterations
        assert row["converged"] == str(w.converged)


def test_gp_check_instance_count_is_trials(tmp_path):
    out = tmp_path / "gp1"
    rep = run_command("gp-check", {"rows": 4, "cols": 5, "deltas": [0.5]},
                      MASTER, str(out), trials=1)
    assert len(read_csv(out / "trials.csv")) == 1
    assert rep.seeds["streams"] == [0]


@pytest.mark.parametrize("cols", [8, 14])
def test_gp_check_enumerates_once_per_instance(tmp_path, monkeypatch, cols):
    # gp_weights enumerates ||B||_{inf->2} for its bound when cols <= 12
    # and gp-check reads it back; wider blocks are enumerated by gp-check
    counted = []

    def counting(B, *args, **kwargs):
        counted.append(B.shape)
        return inf_to_2_norm_exact(B, *args, **kwargs)

    monkeypatch.setattr(graphconc.cli, "inf_to_2_norm_exact", counting)
    monkeypatch.setattr(graphconc.pietsch, "inf_to_2_norm_exact", counting)
    cfg = {"rows": 4, "cols": cols, "deltas": [0.5]}
    run_command("gp-check", cfg, MASTER, str(tmp_path / "gp"), trials=3)
    assert len(counted) == 3
    rows = read_csv(tmp_path / "gp" / "trials.csv")
    monkeypatch.undo()
    for i, row in enumerate(rows):
        B = aux_generator(MASTER, i, 3).uniform(-1.0, 1.0, size=(4, cols))
        assert float(row["inf_to_2"]) == inf_to_2_norm_exact(B)


# ---------------------------------------------------------------------------
# argv entry point


@pytest.mark.parametrize("name,cfg,message", [
    ("laplacian", {"ns": [16], "d": 2.0, "taus": [float("nan")]}, "tau"),
    ("laplacian", {"ns": [16], "d": 2.0, "taus": [float("inf")]}, "tau"),
    ("spectrum", {"scheme": "reweight", "cap": float("nan")}, "cap"),
    ("spectrum", {"scheme": "remove", "cap": float("nan")}, "cap"),
    ("spectrum", {"scheme": "tau", "tau": float("nan")}, "tau"),
    ("spectrum", {"tail_threshold": float("nan")}, "tail_threshold"),
    ("gp-check", {"ratio_limit": float("nan")}, "ratio_limit"),
    ("decompose", {"n": 48, "r": float("nan"), "gp_iters": 5}, "r > 0")])
def test_non_finite_config_values_are_refused(tmp_path, capsys, name, cfg,
                                              message):
    # json writes NaN and Infinity, and json.load reads them back
    if name == "spectrum":
        cfg["model"] = {"kind": "uniform", "n": 30, "p": 0.2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main([name, "--seed", "1", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error" in err and message in err


@pytest.mark.parametrize("text", [
    pytest.param(None, id="missing-file"),
    pytest.param("{bad", id="malformed-json"),
    pytest.param("[1, 2]", id="top-level-array"),
    pytest.param('{"model": "x"}', id="model-not-an-object"),
    pytest.param('{"model": {"kind": "uniform", "n": 10}}', id="model-lacks-p")])
def test_config_file_errors_end_in_the_error_line(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    rc = main(["sample", "--seed", "1", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("graphconc sample: error: ")


@pytest.mark.parametrize("name,cfg,message", [
    ("concentration", {"cells": [{"n": 100}]}, "n and d"),
    ("concentration", {"cells": "x"}, "cells must be a list"),
    ("concentration", {"cells": [{"n": 0, "d": 3.0}]}, "cell's n"),
    ("laplacian", {"ns": [0]}, "ns entry"),
    ("decompose", {"n": 64.5}, "n must be a positive integer"),
    ("gp-check", {"rows": 0}, "rows"),
    ("gp-check", {"cols": 0}, "cols"),
    ("gp-check", {"deltas": "x"}, "deltas must be a list"),
    ("gp-check", {"deltas": 0.5}, "deltas must be a list"),
    ("gp-check", {"deltas": [0.5, "0.25"]}, "delta must be a number"),
    ("gp-check", {"deltas": [None]}, "delta must be a number"),
    ("gp-check", {"deltas": [0.0]}, "in (0, 1)"),
    ("gp-check", {"deltas": [0.25, 1]}, "in (0, 1)"),
    ("gp-check", {"deltas": [-0.5]}, "in (0, 1)"),
    ("gp-check", {"deltas": [float("nan")]}, "in (0, 1)"),
    ("gp-check", {"deltas": [0.5, 0.5000001]}, "share the columns"),
    # every trial would read the same graph; refused before it is read
    ("spectrum", {"graph": "none.csv", "trials": 3},
     "spectrum on a saved graph runs one trial, not 3"),
    # n and d set decompose's row filter, footprint limit and norm ratio
    ("decompose", {"n": 512, "d": 200.0, "model": PROFILE_32},
     "model n = 256 differs from the config's n = 512"),
    ("decompose", {"n": 256, "d": 8.0, "model": PROFILE_32},
     "model max n p_ij = 32.00000000000001 exceeds the config's d = 8.0")])
def test_out_of_range_experiment_parameters_are_refused(tmp_path, capsys, name,
                                                        cfg, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main([name, "--seed", "1", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"graphconc {name}: error: ") and message in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("cfg,message", [
    ({"cells": [{"n": 100, "d": 3, "scheme": "trim"}]}, "not ['scheme']"),
    ({"cells": [{"n": 100, "d": 3}, {"n": 50, "d": 3, "cap": 2}]},
     "not ['cap']")])
def test_a_cell_holds_n_and_d_only(tmp_path, cfg, message):
    # a key the cell loop would not read (a scheme meant for the whole
    # run, say) is refused rather than silently ignored
    with pytest.raises(ValueError, match=re.escape(message)):
        run_command("concentration", cfg, MASTER, str(tmp_path / "c"))
    assert not (tmp_path / "c" / "report.json").exists()


@pytest.mark.parametrize("cfg,message", [
    ({"ns": [100, 64, 100]}, "ns repeats 100"),
    ({"ns": [64], "taus": [2, 3, 2.0]}, "taus repeats 2.0"),
    ({"ns": [64], "taus": [1.0, 1.0000001]},
     "taus entries 1.0 and 1.0000001 would share the summary key 1")])
def test_laplacian_refuses_cells_that_share_a_summary(tmp_path, cfg,
                                                      message):
    # the summary is keyed by (n, tau) as f"n{n}_tau{tau:g}": a repeated
    # entry would overwrite a cell's summary
    with pytest.raises(ValueError, match=re.escape(message)):
        run_command("laplacian", {"d": 4.0, **cfg}, MASTER,
                    str(tmp_path / "lap"))
    assert not (tmp_path / "lap" / "report.json").exists()


@pytest.mark.parametrize("name,cfg,message", [
    ("concentration", {"cells": []}, "cells must hold at least one cell"),
    ("laplacian", {"ns": []}, "ns must hold at least one entry"),
    ("laplacian", {"ns": [64], "taus": []}, "taus must hold at least one entry"),
    ("gp-check", {"rows": 4, "cols": 5, "deltas": []},
     "deltas must hold at least one entry"),
], ids=["cells", "ns", "taus", "deltas"])
def test_empty_grid_is_refused(tmp_path, name, cfg, message):
    # a grid of no cells would run no trials, write no trials.csv and
    # report all_converged vacuously; gp-check with no delta would check
    # no certificate and report all_certificates_ok vacuously
    with pytest.raises(ValueError, match=re.escape(message)):
        run_command(name, cfg, MASTER, str(tmp_path / "grid"))
    assert not (tmp_path / "grid" / "report.json").exists()


@pytest.mark.parametrize("name,cfg,message", [
    ("sbm", {"n": 200.0}, "n must be a positive integer, not 200.0"),
    ("decompose", {"gp_iters": 2.5}, "gp_iters must be a positive integer"),
    ("decompose", {"gp_iters": 0}, "gp_iters must be a positive integer"),
    ("concentration", {"cap_mult": "2"}, "cap_mult must be a number, not '2'"),
    ("gp-check", {"ratio_limit": "1.3"}, "ratio_limit must be a number"),
    ("gp-check", {"rows": True}, "rows must be a positive integer, not True"),
    ("spectrum", {"model": {"kind": "uniform", "n": 30, "p": 0.2},
                  "cap": "3"}, "cap must be a number or null, not '3'"),
    ("sample", {"directed": "no"}, "directed must be true or false"),
    ("laplacian", {"d": "5"}, "d must be a number, not '5'"),
    ("concentration", {"cells": [{"n": 100, "d": "3"}]}, "a cell's d"),
    ("sample", {"out": 5}, "out must be a string or null"),
    ("laplacian", {"ns": [64], "d": 4, "taus": [4]}, None)],
    ids=["sbm-n-float", "decompose-gp_iters-float", "decompose-gp_iters-0",
         "concentration-cap_mult-str", "gp-check-ratio_limit-str",
         "gp-check-rows-bool", "spectrum-cap-str", "sample-directed-str",
         "laplacian-d-str", "concentration-cell-d-str", "sample-out-int",
         "laplacian-int-d-accepted"])
def test_config_fields_are_checked_against_their_types(tmp_path, capsys, name,
                                                       cfg, message):
    # every field is checked against its annotation before a run starts:
    # one error line, no traceback, nothing written.  An int is a number,
    # and config.json records it as given.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main([name, "--seed", "1", "--config", str(cfg_path),
               "--out", str(out)])
    err = capsys.readouterr().err
    if message is None:
        assert rc == 0 and err == ""
        recorded = json.loads((out / "config.json").read_text())["config"]
        assert json.dumps(recorded) == json.dumps({**recorded, **cfg})
        return
    assert rc == 1
    assert err.startswith(f"graphconc {name}: error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "report.json").exists()


def readme_examples():
    """(command, config, seed, trials) of each README example that passes
    a config file: the file is the one its ``echo '<json>' > file`` wrote,
    with shell for-loops unrolled."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    script = "\n".join(re.findall(r"```sh\n(.*?)```", text, re.S))

    def unroll(m):
        var, values, body = m.groups()
        return "\n".join(body.replace(f"'${var}'", v).replace(f"${var}", v)
                         for v in values.split())

    script = re.sub(r"for (\w+) in ([^;\n]+); do\n(.*?)\ndone", unroll,
                    script, flags=re.S)
    files, found = {}, []
    commands = r"echo '((?s:.*?))' > (\S+)|graphconc ([\w-]+)((?:\\\n|.)*)"
    for m in re.finditer(commands, script):
        if m.group(2):
            files[m.group(2)] = json.loads(m.group(1))
            continue
        args = dict(re.findall(r"--(\w+) (\S+)", m.group(4)))
        if "config" in args:
            found.append((m.group(3), files.pop(args["config"]),
                          int(args.get("seed", 0)), int(args.get("trials", 1))))
    assert not files, f"configs no example uses: {sorted(files)}"
    return found


def test_readme_examples_pass_the_config_check():
    # every documented config resolves as main would resolve it, unrun
    examples = readme_examples()
    # one example per command but gp-check, which needs no config, and
    # the n = 10^6 loop's two configs
    assert {name for name, *_ in examples} >= set(cli._COMMANDS) - {"gp-check"}
    assert sum(name == "concentration" for name, *_ in examples) >= 3
    for name, raw, seed, trials in examples:
        for key in ("seed", "trials", "threads", "out"):
            raw.pop(key, None)
        cfg, params = cli._resolve(name, raw, seed, trials)
        assert params["config"] == {**params["config"], **raw}


def test_start_up_loads_no_scipy(tmp_path):
    # importing graphconc and running a command with no solver load
    # numpy alone; the solvers load scipy at their first call
    code = textwrap.dedent(f"""
        import sys
        import numpy as np
        import graphconc
        from graphconc.cli import main

        assert main(["sample", "--seed", "1", "--out", {str(tmp_path)!r}]) == 0
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert not loaded, loaded
        M = np.random.default_rng(1).standard_normal((40, 40))
        M = M + M.T
        op = graphconc.LinearOp.from_dense(M)
        want = np.abs(np.linalg.eigvalsh(M))
        assert abs(graphconc.spectral_norm(op).value - want.max()) < 1e-8
        theta, _ = graphconc.top_k_eigs(op, 1, "lm")
        assert abs(abs(theta[0]) - want.max()) < 1e-8
        print("ok")
    """)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(graphconc.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("ok")


def scipy_openblas():
    """The OpenBLAS scipy bundles in scipy.libs, or None."""
    import ctypes
    import glob

    import scipy
    libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)),
                        "scipy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            if hasattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads"):
                return path
        except OSError:
            pass
    return None


def test_scipy_blas_pool_runs_one_thread():
    # the first load of scipy's LAPACK sets scipy's own OpenBLAS pool to
    # one thread, unless the environment sets a thread count
    path = scipy_openblas()
    if path is None:
        pytest.skip("scipy bundles no OpenBLAS with a thread setter")
    code = textwrap.dedent(f"""
        import ctypes
        from graphconc import _scipy

        lib = ctypes.CDLL({path!r})
        before = lib.scipy_openblas_get_num_threads()
        _scipy.lapack()
        print(before, lib.scipy_openblas_get_num_threads())
    """)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(graphconc.__file__))

    def threads(**extra):
        done = subprocess.run([sys.executable, "-c", code],
                              env=dict(env, **extra), capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return [int(x) for x in done.stdout.split()]

    assert threads()[1] == 1
    before, after = threads(OPENBLAS_NUM_THREADS="2")
    assert after == before
    assert before == 2 or len(os.sched_getaffinity(0)) < 2


def test_main_smoke(tmp_path, capsys):
    out = tmp_path / "cli"
    rc = main(["sample", "--seed", str(MASTER), "--out", str(out)])
    assert rc == 0
    assert (out / "graph.csv").exists()
    assert "graphconc sample: wrote" in capsys.readouterr().out


def test_main_config_file_and_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"kind": "uniform", "n": 30, "p": 0.2},
        "seed": 7, "out": str(tmp_path / "from_config")}))
    rc = main(["sample", "--config", str(cfg_path),
               "--seed", str(MASTER), "--out", str(tmp_path / "flag_wins")])
    assert rc == 0
    assert (tmp_path / "flag_wins" / "report.json").exists()
    blob = json.loads((tmp_path / "flag_wins" / "report.json").read_text())
    assert blob["parameters"]["seed"] == MASTER  # flag overrides config


def test_default_out_dir_is_the_config_hash(tmp_path, monkeypatch, capsys):
    # an empty config and its defaults written out name one directory,
    # the one report.json's config_hash names
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--seed", "7"]) == 0
    (made,) = (tmp_path / "runs").iterdir()
    blob = json.loads((made / "report.json").read_text())
    assert made.name == "sample-" + blob["config_hash"][:10]
    cfg_path = tmp_path / "defaults.json"
    cfg_path.write_text(json.dumps(blob["parameters"]["config"]))
    assert main(["sample", "--seed", "7", "--config", str(cfg_path)]) == 0
    assert [p.name for p in (tmp_path / "runs").iterdir()] == [made.name]


@pytest.mark.parametrize("header,edge,error", [
    ('{"directed": false, "weighted": false}', "0,1,1.0",
     "header has no field 'n'"),
    ('{"n": 3, "directed": "false", "weighted": false}', "0,1,1.0",
     "header field 'directed' must be true or false, not 'false'"),
    ('{"n": 2.5, "directed": false, "weighted": false}', "0,1,1.0",
     "header field 'n' must be a non-negative integer, not 2.5"),
    ('{"n": -3, "directed": false, "weighted": false}', "0,1,1.0",
     "header field 'n' must be a non-negative integer, not -3"),
    ('{"n": 1, "directed": false}', "0,1,1.0",
     "line 2: vertex index out of range"),
    ('{"n": 1, "directed": false}', "0,0,1.0",
     "line 2: self-loops are not allowed"),
], ids=["no-n", "directed-str", "n-float", "n-negative", "id-out-of-range",
        "self-loop"])
def test_spectrum_refuses_a_bad_graph_header(tmp_path, capsys, header, edge,
                                             error):
    # a bad header, or a valid one that the first edge line breaks
    graph = tmp_path / "g.csv"
    graph.write_text(f"{header}\n{edge}\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"graph": str(graph)}))
    rc = main(["spectrum", "--seed", "1", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("graphconc spectrum: error: ")
    assert f"{graph}: {error}" in err


def test_main_error_paths(tmp_path, capsys):
    rc = main(["spectrum", "--seed", "1", "--out", str(tmp_path / "e")])
    assert rc == 1  # needs model or graph
    assert "error" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["sample"])  # seed is required
    # seed, trials and threads get the same check from a flag or the config
    cfg_path = tmp_path / "cfg.json"
    bad = [["--seed", "-1"], ["--seed", "1", "--trials", "0"],
           ["--seed", "1", "--threads", "-3"]]
    for cfg in ({"seed": -1}, {"seed": 1.5}, {"seed": 2 ** 64},
                {"seed": 1, "trials": 0}, {"seed": 1, "trials": 2.0},
                {"seed": 1, "threads": -3}, {"seed": 1, "threads": True}):
        cfg_path.write_text(json.dumps(cfg))
        bad.append(["--config", str(cfg_path)])
    for args in bad:
        with pytest.raises(SystemExit):
            main(["sample", "--out", str(tmp_path / "bad"), *args])
        assert "error" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    # a config value parses like the flag's text
    cfg_path.write_text(json.dumps({"trials": "2", "seed": "0x10"}))
    assert main(["sample", "--config", str(cfg_path),
                 "--out", str(tmp_path / "two")]) == 0
    blob = json.loads((tmp_path / "two" / "report.json").read_text())
    assert blob["parameters"]["seed"] == 16
    assert blob["parameters"]["trials"] == 2


# ---------------------------------------------------------------------------
# deviation norms against dense LAPACK


def dense_norm(M):
    """max(|lambda_min|, lambda_max) of a symmetric M, by LAPACK."""
    return float(np.abs(np.linalg.eigvalsh(M)[[0, -1]]).max())


@pytest.mark.parametrize("scheme", ["identity", "trim", "reweight", "remove",
                                    "tau"])
def test_concentration_norms_match_dense(tmp_path, scheme):
    n, d = 600, 5.0
    rep = run_command("concentration", {"cells": [{"n": n, "d": d}],
                                        "scheme": scheme},
                      MASTER, str(tmp_path / scheme), trials=2)
    model = graphconc.Uniform(n, d / n)
    EA = graphconc.expected_dense(model)
    for t in rep.trials:
        g = graphconc.apply_scheme(graphconc.sample(model, MASTER, t["trial"]),
                                   scheme, cap=2 * d,
                                   tau=2 * d if scheme == "tau" else None)
        ref = dense_norm(g.to_dense() - EA)
        assert t["converged"] and t["norm_steps"] > 0
        assert 0.0 < t["norm_eps"] < 1.0
        assert t["norm"] == pytest.approx(ref, rel=NORM_TOL)
        assert t["norm"] <= ref * (1 + 1e-12)


def test_laplacian_norms_match_dense(tmp_path):
    n, d, tau = 500, 5.0, 5.0
    rep = run_command("laplacian", {"ns": [n], "d": d, "taus": [tau]},
                      MASTER, str(tmp_path / "lap"), trials=2)
    model = graphconc.Uniform(n, d / n)
    Y = graphconc.expected_laplacian(model, tau).to_dense()
    for t in rep.trials:
        g = graphconc.sample(model, MASTER, t["trial"])
        X = graphconc.laplacian(graphconc.tau_shift(g, tau)).to_dense()
        ref = dense_norm(X - Y)
        assert t["converged"] and t["norm_steps"] > 0
        assert t["value"] == pytest.approx(np.sqrt(d) * ref, rel=NORM_TOL)


def sbm_dense_norm(n, a, b, seed, stream):
    g, _ = graphconc.sbm_instance(n, a, b, seed, stream=stream)
    tau = graphconc.average_degree(g)
    X = graphconc.laplacian(graphconc.tau_shift(g, tau)).to_dense()
    Y = graphconc.expected_laplacian(graphconc.BlockTwo(n, a, b),
                                     tau).to_dense()
    return dense_norm(X - Y)


@pytest.mark.parametrize("n,seed,trials", [
    (600, MASTER, 2),
    # the top of spec(L(A_tau) - L(EA_tau)) is a +/- pair here, the
    # negative end larger by 3.9e-4 relative
    (2000, 8, 1)])
def test_sbm_norms_match_dense(tmp_path, n, seed, trials):
    rep = run_command("sbm", {"n": n, "a": 30.0, "b": 5.0}, seed,
                      str(tmp_path / "sbm"), trials=trials)
    for t in rep.trials:
        ref = sbm_dense_norm(n, 30.0, 5.0, seed, t["trial"])
        assert t["converged"] and t["norm_steps"] > 0
        assert t["norm_diff"] == pytest.approx(ref, rel=NORM_TOL)


# ---------------------------------------------------------------------------
# output directories


def test_out_dir_of_another_config_is_refused(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = {"model": {"kind": "uniform", "n": 50, "p": 0.1}}
    first = run_command("sample", cfg, MASTER, str(out))
    before = (out / "report.json").read_bytes()
    again = run_command("sample", cfg, MASTER, str(out))  # same config: fine
    assert again.config_hash == first.config_hash
    other = {"model": {"kind": "uniform", "n": 60, "p": 0.1}}
    with pytest.raises(ValueError) as exc:
        run_command("sample", other, MASTER, str(out))
    theirs = run_command("sample", other, MASTER, str(tmp_path / "other"))
    assert first.config_hash in str(exc.value)
    assert theirs.config_hash in str(exc.value)
    # a different seed is a different config too; main reports the refusal
    assert main(["sample", "--seed", "1", "--out", str(out)]) == 1
    assert "config_hash" in capsys.readouterr().err
    assert json.loads((out / "report.json").read_bytes())["config_hash"] == \
        json.loads(before)["config_hash"]
