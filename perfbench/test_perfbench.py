"""The benchmark's own tests, on tiny inputs.

    python3 -m pytest perfbench -q
"""

import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import WORKLOADS, load_graphconc, load_spec, rep_seed  # noqa: E402

load_graphconc(ROOT)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 7


@pytest.fixture(scope="module")
def spec():
    return load_spec()


def small_runner(name, tmp_path):
    return run.Runner(WORKLOADS[name], str(tmp_path), small=True)


def test_names_are_valid_and_every_workload_exists(spec):
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric(name, spec, tmp_path):
    runner = small_runner(name, tmp_path)
    res = run.run_untraced(runner, SEED, reps=1, reference=Reference(),
                           probe=run.setup_probe(WORKLOADS[name], SEED))
    e2e = run.end_to_end(res)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    # each step over the mean of the reference times right around it
    steps, refs = res["step_times"][0], res["ref_times"][0]
    assert len(refs) == len(steps) + 1
    assert res["wall_refs"][0] == pytest.approx(
        sum(w / ((refs[k] + refs[k + 1]) / 2) for k, (w, _) in enumerate(steps)))
    assert all(v > 0 for v, _ in e2e.values())
    assert runner.failed == 0, runner.problems

    traced = run.run_traced(small_runner(name, tmp_path / "t"), SEED, reps=1,
                            declared=spec["per_layer"])
    assert traced["missing"] == [], traced["missing_spans"]
    assert traced["unbound"] == []
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}


def renamed(span, binding):
    """spans.WRAPPED with one binding of ``span`` renamed away."""
    out = []
    for name, bindings in spans.WRAPPED:
        if name == span:
            bindings = [(mod, attr + "_renamed") if (mod, attr) == binding
                        else (mod, attr) for mod, attr in bindings]
        out.append((name, bindings))
    return tuple(out)


@pytest.mark.parametrize("span, binding, metric", [
    # the trim step's only binding: the span never fires
    ("regularize.apply_scheme", ("graphconc.cli", "apply_scheme"),
     "regularize.scheme_s"),
    # one of three bindings: the span still fires through cli, but the
    # SBM step's draws would drop out of its time
    ("models.sample", ("graphconc.community", "sample"), "models.sample_s"),
])
def test_span_that_lost_a_binding_is_missing_not_zero(
        span, binding, metric, spec, monkeypatch, tmp_path):
    monkeypatch.setattr(spans, "WRAPPED", renamed(span, binding))
    res = run.run_traced(small_runner("solve", tmp_path), SEED, reps=1,
                         declared=spec["per_layer"])
    assert res["missing_spans"] == [span]
    assert metric in res["missing"]
    assert metric not in res["metrics"]
    assert res["unbound"] == [".".join(binding) + "_renamed"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_trials_csv_matches_untraced(name, tmp_path):
    runner = small_runner(name, tmp_path)
    master = rep_seed(SEED, 3)
    plain = runner.rep(master, "plain").out
    tracer = spans.Tracer()
    with tracer.installed():
        traced = runner.rep(master, "traced", tracer=tracer).out
    assert tracer.spans
    for k in range(len(WORKLOADS[name].steps)):
        with open(os.path.join(plain, str(k), "trials.csv"), "rb") as fa, \
                open(os.path.join(traced, str(k), "trials.csv"), "rb") as fb:
            assert fa.read() == fb.read()


def test_tracer_restores_every_binding():
    import graphconc.cli as cli
    from graphconc.operators import LinearOp

    before = (cli.sample, LinearOp.matvec, LinearOp.rmatvec)
    with spans.Tracer().installed():
        assert cli.sample is not before[0]
    assert (cli.sample, LinearOp.matvec, LinearOp.rmatvec) == before


def test_compare_rule():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "gain"
    assert compare.verdict(parent, parent, "lower", 0.1)[0] == "within bound"
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "REGRESSION"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    # fewer than ten pairs never counts as a gain
    assert compare.verdict(parent[:5], faster[:5], "lower", 0.1)[0] != "gain"
