"""Golden digests: every artifact of a fixed list of runs, at seed 1729
and ``--trials 2``, on one and on two trial threads, against the SHA-256
digests stored in golden.json.

``report.json`` is hashed with ``wall_clock_s`` dropped, the one value
of a run that is not seeded.  Digests depend on the BLAS build and its
thread count, so golden.json also records the numpy and scipy versions,
numpy's OpenBLAS (which runs every BLAS and LAPACK call) and the thread
count they were taken with (the suite runs one BLAS thread,
``conftest.py``).

A change that moves outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and lists each artifact that changed, and why, in CHANGES.md.
"""

import hashlib
import json
import os
import sys
import tempfile

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
import scipy

from graphconc.cli import run_command

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden.json")
SEED, TRIALS = 1729, 2
_P40 = 0.3 * (np.add.outer(np.arange(40), np.arange(40)) % 7) / 6


def _decompose(label, **cfg):
    return [(f"{label}-{kind}", "decompose", {**cfg, "directed": directed})
            for kind, directed in (("undirected", False), ("directed", True))]


# (label, command, config): each run writes into a directory of its label
RUNS = (
    *_decompose("dec-256", n=256, d=8, r=3, gp_iters=120),
    *_decompose("dec-128-r0.25", n=128, d=2, r=0.25, gp_iters=120),
    ("dec-512-d0.5", "decompose", {"n": 512, "d": 0.5, "r": 3,
                                   "gp_iters": 120}),
    ("dec-blocktwo", "decompose",
     {"n": 256, "d": 12, "r": 3, "gp_iters": 120,
      "model": {"kind": "blocktwo", "n": 256, "a": 12.0, "b": 4.0}}),
    ("dec-profile", "decompose",
     {"n": 256, "d": 40, "r": 1, "gp_iters": 120,
      "model": {"kind": "profile", "n": 256, "values": [2, 12],
                "fractions": [0.75, 0.25]}}),
    *_decompose("dec-explicit", n=40, d=12, r=1, gp_iters=60,
                model={"kind": "explicit", "P": _P40.tolist()}),
    *_decompose("dec-clipping-rankone", n=64, d=64, r=1, gp_iters=120,
                model={"kind": "rankone", "n": 64,
                       "theta": np.linspace(0.1, 1.5, 64).tolist()}),
    ("gp-check", "gp-check", {"rows": 8, "cols": 12}),
    *[(f"conc-{scheme}", "concentration",
       {"cells": [{"n": 1000, "d": 3}, {"n": 10000, "d": 3}],
        "scheme": scheme, "cap_mult": 2.0})
      for scheme in ("identity", "trim")],
    *[(f"conc-{scheme}", "concentration",
       {"cells": [{"n": 1000, "d": 3}], "scheme": scheme, "cap_mult": 2.0})
      for scheme in ("remove", "reweight", "tau")],
    ("laplacian", "laplacian", {"ns": [1000, 4000], "d": 5, "taus": [5]}),
    ("laplacian-two-taus", "laplacian",
     {"ns": [1000], "d": 5, "taus": [2.5, 10]}),
    ("sbm", "sbm", {"n": 2000, "a": 30, "b": 5}),
    ("spectrum", "spectrum",
     {"model": {"kind": "profile", "n": 1000, "values": [7, 70],
                "fractions": [0.9, 0.1]}, "scheme": "reweight"}),
    *[(f"spectrum-{scheme}", "spectrum",
       {"model": {"kind": "profile", "n": 300, "values": [7, 70],
                  "fractions": [0.9, 0.1]}, "scheme": scheme, **extra})
      for scheme, extra in (("trim", {}), ("tau", {"tau": 5.0}))],
    ("sample", "sample", {"model": {"kind": "uniform", "n": 2000,
                                    "p": 0.004}}),
    ("sample-directed", "sample",
     {"model": {"kind": "uniform", "n": 500, "p": 0.01}, "directed": True}),
)


def environment():
    blas = lambda config: (config["Build Dependencies"]["blas"]
                           ["openblas configuration"])
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_openblas": blas(np.__config__.CONFIG),
            "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def environment_mismatch(recorded, running):
    """'key: recorded a, running b; ' for each environment key whose
    values differ, or '' when the environments agree."""
    keys = sorted(recorded.keys() | running.keys())
    return "".join(f"{k}: recorded {recorded.get(k)}, running "
                   f"{running.get(k)}; " for k in keys
                   if recorded.get(k) != running.get(k))


def _digest(path):
    with open(path, "rb") as fh:
        body = fh.read()
    if os.path.basename(path) == "report.json":
        report = json.loads(body)
        report.pop("wall_clock_s")
        body = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(body).hexdigest()


def digests(root, threads=1):
    """{label/file: SHA-256} of every artifact of ``RUNS``, run in ``root``
    on ``threads`` trial threads."""
    out = {}
    for label, command, config in RUNS:
        run_dir = os.path.join(root, label)
        run_command(command, config, SEED, run_dir, trials=TRIALS,
                    threads=threads)
        for name in sorted(os.listdir(run_dir)):
            out[f"{label}/{name}"] = _digest(os.path.join(run_dir, name))
    return out


@pytest.mark.parametrize("threads", [1, 2])
def test_outputs_match_the_golden_digests(tmp_path, threads):
    # threads reorder the trials, never a byte of their artifacts
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = digests(str(tmp_path), threads)
    differ = sorted(f for f in got.keys() | golden["digests"].keys()
                    if got.get(f) != golden["digests"].get(f))
    assert not differ, (
        environment_mismatch(golden["environment"], environment())
        + f"{len(differ)} artifacts differ from golden.json: {differ}")


def test_environment_mismatch_names_only_the_keys_that_differ():
    recorded = {"numpy": "2.4.6", "openblas_num_threads": "1"}
    assert environment_mismatch(recorded, dict(recorded)) == ""
    assert environment_mismatch(
        recorded, {**recorded, "openblas_num_threads": "2"}) == (
        "openblas_num_threads: recorded 1, running 2; ")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        found = digests(root)
    with open(GOLDEN, "w") as fh:
        json.dump({"seed": SEED, "trials": TRIALS,
                   "environment": environment(), "digests": found},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(found)} digests written to {GOLDEN}", file=sys.stderr)
