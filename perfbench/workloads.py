"""The benchmark's workloads: what each one runs.

A workload is a list of steps, each one ``graphconc.cli.run_command``
call; running every step once is one *rep*.  Rep ``r`` of a run with
workload seed ``s`` passes master seed ``rep_seed(s, r)`` to every step,
so a rep draws graphs no other rep of any run draws, and the same
``--seed`` always gives the same inputs.  A run makes a fixed number of
reps (``Workload.reps_for``), so two checkouts run on the same seed
draw the same graphs however fast either one is.  Why each workload was
chosen is in ``BENCHMARK.json``.

Two workloads and long runs: the solvers' iteration counts swing with
the sampled graph, so a run must cover many graphs for its median rep
to be steady from seed to seed.  The speed of a shared 2-core VM drifts
by 15-25 % over tens of seconds as well; ``run.py`` takes that out by
timing each step against a fixed reference kernel (``reference.py``).  One n = 8000 trimmed norm takes 0.7 s or
5 s depending on the seed; at n = 1000 one trial in a hundred takes ten
times the median.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

ACCEPTANCE_SEED = 1729
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    """BENCHMARK.json: the metrics' names, units, directions and bounds,
    the workloads' reasons and ``run_seconds``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_graphconc(root):
    """Import graphconc from ``root/src`` and nowhere else.

    Raises ImportError if that tree is absent or another copy of the
    package would be measured instead.
    """
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import graphconc

    where = os.path.dirname(os.path.abspath(graphconc.__file__))
    if where != os.path.join(os.path.abspath(src), "graphconc"):
        raise ImportError(f"graphconc was imported from {where}, not {src}")
    return graphconc


@dataclass(frozen=True)
class Step:
    command: str
    config: dict
    trials: int
    # config overrides for the tiny warm-up and smoke-test variant
    small: dict = field(default_factory=dict)

    def config_for(self, small=False):
        return {**self.config, **self.small} if small else dict(self.config)


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple
    # spans that must fire in a traced run of this workload; one that
    # does not is reported as missing (see spans.py)
    spans: tuple
    # reps of an untraced run, reference kernel included, and cycles
    # (untraced, traced, --threads 2 rep on one input) of a traced run,
    # that filled run_seconds = 45 at the commit the benchmark was added
    # to, on a 2-core VM at its slower speed
    reps: int
    traced_reps: int

    def reps_for(self, seconds, run_seconds, traced=False):
        """The fixed rep count of a ``seconds``-long run: it depends on
        ``seconds`` only, never on how fast the reps go."""
        planned = self.traced_reps if traced else self.reps
        return max(1, round(planned * seconds / run_seconds))


def rep_seed(seed, rep):
    """Master seed of rep ``rep``: rep 0 runs at the workload seed itself."""
    return (int(seed) + (int(rep) << 32)) % (1 << 64)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="solve",
            steps=(
                # AC2's trim arm: Gram power iteration on the trimmed deviation
                Step("concentration",
                     {"cells": [{"n": 1000, "d": 3.0}], "scheme": "trim",
                      "cap_mult": 2.0},
                     trials=8, small={"cells": [{"n": 200, "d": 3.0}]}),
                # AC10's signal SBM: Lanczos on tau-Laplacians, Davis-Kahan
                Step("sbm", {"n": 2000, "a": 30.0, "b": 5.0}, trials=1,
                     small={"n": 200}),
                # AC6/AC7: tiny GP factorizations, per-call overhead
                Step("gp-check",
                     {"rows": 8, "cols": 12, "deltas": [0.25, 0.5],
                      "ratio_limit": 1.379},
                     trials=2, small={"rows": 4, "cols": 6}),
                # AC8 with its artifacts: GP on dense 256-column blocks, its
                # tol = 1e-11 re-evaluation, the verifier, the class CSV
                Step("decompose",
                     {"n": 256, "d": 8.0, "r": 3.0, "gp_iters": 120,
                      "write_files": True},
                     trials=1, small={"n": 48, "gp_iters": 20}),
            ),
            spans=("models.sample", "models.expected", "regularize.apply_scheme",
                   "regularize.adjacency_shifted_op", "regularize.laplacian",
                   "regularize.expected_laplacian", "operators.matvec",
                   "spectral.spectral_norm", "spectral.top_k_eigs",
                   "spectral.inf_to_2", "pietsch.gp_weights",
                   "pietsch.gp_submatrix", "decompose.decompose",
                   "decompose.verify_decomposition", "decompose.write",
                   "community.davis_kahan_check", "community.detect",
                   "reports.run_trials", "reports.write", "reports.write_csv"),
            reps=8, traced_reps=3,
        ),
        Workload(
            name="sample",
            steps=(Step("sample",
                        {"model": {"kind": "uniform", "n": 8000,
                                   "p": 3.0 / 8000}},
                        trials=2,
                        small={"model": {"kind": "uniform", "n": 300,
                                         "p": 3.0 / 300}}),),
            spans=("models.sample", "models.save_graph", "reports.run_trials",
                   "reports.write"),
            reps=30, traced_reps=10,
        ),
    )
}


def streams_drawn(step, master_seed):
    """The Philox streams one step's trials draw, derived from its config.

    ``rows`` is the range of stream indices whose per-row streams build
    graphs under ``master_seed``; ``aux`` lists auxiliary generators as
    ``[seed, stream, subkey purpose]`` (see ``graphconc._seeding``),
    including solver start vectors drawn from a fixed internal seed.
    ``report.json``'s ``seeds.streams`` lists ``0 .. trials - 1``
    whatever the command, which is wrong for concentration and gp-check.
    """
    trials = step.trials
    if step.command == "concentration":
        rows, aux = len(step.config["cells"]) * trials, [[0x5EED, 0, 1]]
    elif step.command == "sample":
        rows, aux = trials, []
    elif step.command == "decompose":
        rows, aux = trials, [[0x6155, 0, 4]]
    elif step.command == "sbm":
        rows, aux = trials, [[0xC0DE, 0, 0], [0x5EED, 0, 1]]
    elif step.command == "gp-check":
        rows = 0
        aux = [[master_seed, i, 3] for i in range(trials)] + [[0x6155, 0, 4]]
    else:
        raise ValueError(f"no stream map for command {step.command!r}")
    return {"command": step.command, "master_seed": master_seed,
            "rows": [0, rows], "aux": aux}
