"""graphconc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; graphconc is imported from its
``src/`` directory.  With ``--trace 0`` the run makes the workload's
fixed number of reps for ``--seconds`` (``Workload.reps_for``; each rep
with its own master seed, see ``workloads.rep_seed``), times fresh
interpreters' set-up between reps, checks every trial, compares one
reported value per step against an independent scipy solve, and reports
the end-to-end metrics of the median rep: its wall and CPU time as
multiples of a fixed reference kernel timed around each step
(``wall_ref``, ``cpu_ref``; see reference.py), set-up time and peak
RSS.  With ``--trace 1`` it
alternates untraced and traced reps on the same inputs (plus one
untraced ``--threads 2`` rep each) and reports the per-layer metrics,
the tracing overhead and the thread speed-up.  Reps stop early, and the
record says ``capped``, only once they have taken ``CAP_FACTOR`` times
``--seconds``.

The last line of stdout is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
``record: {...}``, adds the machine facts, per-rep times and the RNG
streams drawn.  Trials that did not converge or raised count in
``failed``; a wrong result (see ``check.py``) makes ``correct`` false.
The exit code is 0 only if the run is correct and (when traced) every
expected span fired and every wrapped binding still exists.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One BLAS thread, set before numpy loads OpenBLAS.  With its default of
# one thread per core, BLAS calls on a shared 2-core VM wait for the
# second core whenever a neighbour holds it: solve's per-rep time then
# spread 0.09-0.14 across seeds, against 0.055 with one thread, while the
# second thread saved only about 10 % of wall time and cost 20 % more CPU.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import spans  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import (ACCEPTANCE_SEED, WORKLOADS, load_graphconc,  # noqa: E402
                       load_spec, rep_seed, streams_drawn)

SETUP_PROBES = 5
CAP_FACTOR = 2.0
THREADS = 1


Rep = collections.namedtuple(
    "Rep", "wall cpu out reports wall_ref cpu_ref refs steps")


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def blas_facts():
    """Every OpenBLAS library loaded in this process, with its thread count."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and ".so" in path:
                libs.add(path)
    out = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        fact = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in fact:
                    threads.restype = ctypes.c_int
                    fact["threads"] = threads()
                if config is not None and "config" not in fact:
                    config.restype = ctypes.c_char_p
                    fact["config"] = config().decode()
        out.append(fact)
    return out


def machine_facts():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_facts(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS") if k in os.environ},
    }


def setup_probe(workload, seed):
    """A probe that times one fresh interpreter importing graphconc and
    building the workload's inputs."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"),
           "--workload", workload.name, "--seed", str(seed)]

    def probe():
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    return probe


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Runner:
    """Executes reps of one workload inside a private work directory."""

    def __init__(self, workload, work, small=False):
        from graphconc.cli import run_command

        self.workload = workload
        self.work = work
        self.small = small
        self.run_command = run_command
        self.attempted = 0
        self.failed = 0
        self.problems = []      # wrong results: the run is incorrect
        self.notes = []         # operations that did not finish

    def rep(self, master, tag, threads=THREADS, tracer=None, small=None,
            reference=None, first_ref=None):
        """Run every step once.

        With a ``reference`` (see reference.py) it is timed before the
        first step (unless ``first_ref``, a time taken just before this
        rep, is given) and after each step, and ``wall_ref``/``cpu_ref``
        add up each step's wall and CPU time over the mean of the two
        reference times around it; otherwise they are None.
        """
        small = self.small if small is None else small
        out = os.path.join(self.work, tag)
        reports = []
        refs = []
        if reference:
            refs.append(first_ref if first_ref is not None else reference())
        wall = cpu = wall_ref = cpu_ref = 0.0
        steps = []              # (wall, cpu) of each step
        for k, step in enumerate(self.workload.steps):
            args = (step.command, step.config_for(small), master,
                    os.path.join(out, str(k)))
            kwargs = {"trials": step.trials, "threads": threads}
            t0, c0 = time.perf_counter(), cpu_seconds()
            try:
                if tracer is None:
                    reports.append(self.run_command(*args, **kwargs))
                else:
                    reports.append(tracer.run_command(self.run_command,
                                                      *args, **kwargs))
            except Exception as exc:  # a failed step is counted, not fatal
                reports.append(exc)
            step_wall = time.perf_counter() - t0
            step_cpu = cpu_seconds() - c0
            wall += step_wall
            cpu += step_cpu
            steps.append((step_wall, step_cpu))
            if reference:
                refs.append(reference())
                around = (refs[-2] + refs[-1]) / 2
                wall_ref += step_wall / around
                cpu_ref += step_cpu / around
        if not reference:
            wall_ref = cpu_ref = None
        return Rep(wall, cpu, out, reports, wall_ref, cpu_ref, refs, steps)

    def check(self, out, reports):
        """Apply the correctness gate to one rep's reports."""
        for k, (step, rep) in enumerate(zip(self.workload.steps, reports)):
            if isinstance(rep, Exception):
                self.attempted += step.trials
                self.failed += step.trials
                self.notes.append(f"{step.command} raised "
                                  f"{type(rep).__name__}: {rep}")
                continue
            attempted, failed, problems, notes = check.check_step(
                step, step.config_for(self.small), rep,
                os.path.join(out, str(k)))
            self.attempted += attempted
            self.failed += failed
            self.problems += problems
            self.notes += notes

    def same_trials(self, out_a, out_b, what):
        """trials.csv of every step must match byte for byte (a step that
        raised on both sides wrote none, and is already counted failed)."""
        for k, step in enumerate(self.workload.steps):
            texts = []
            for out in (out_a, out_b):
                try:
                    with open(os.path.join(out, str(k), "trials.csv"), "rb") as fh:
                        texts.append(fh.read())
                except FileNotFoundError:
                    texts.append(None)
            if texts[0] != texts[1]:
                self.failed += step.trials
                self.problems.append(f"{step.command}: trials.csv differs "
                                     f"between {what}")


def capped(times, cap_s):
    """Whether the reps so far have used up the run's safety cap."""
    return sum(times) >= cap_s


def run_untraced(runner, seed, reps, reference, cap_s=float("inf"),
                 probe=None):
    """``reps`` timed reps with distinct inputs (fewer if they take ``cap_s``),
    each step timed against ``reference`` (see ``Runner.rep``).

    The set-up probes run between reps, spread evenly over the run, so
    that their median sees the same machine as the reps do.
    """
    walls, cpus, wall_refs, cpu_refs, ref_times, masters = [], [], [], [], [], []
    step_times = []
    out_bytes, setup_times = [], []
    steps = runner.workload.steps
    refs = {}                   # step index -> (master, out dir) to check
    last_ref = None             # the reference time that ended the last rep
    while len(walls) < reps and not capped(walls, cap_s):
        if probe and len(walls) * SETUP_PROBES >= len(setup_times) * reps:
            setup_times.append(probe())
            last_ref = None
        r = len(walls)
        master = rep_seed(seed, r)
        wall, cpu, out, reports, wall_ref, cpu_ref, times, per_step = runner.rep(
            master, f"rep{r}", reference=reference, first_ref=last_ref)
        last_ref = times[-1]
        step_times.append(per_step)
        walls.append(wall)
        cpus.append(cpu)
        wall_refs.append(wall_ref)
        cpu_refs.append(cpu_ref)
        ref_times.append(times)
        masters.append(master)
        runner.check(out, reports)
        out_bytes.append(dir_bytes(out))
        keep = False
        for k, (step, report) in enumerate(zip(steps, reports)):
            if k not in refs and check.reference_ready(step, report):
                refs[k] = (master, os.path.join(out, str(k)))
                keep = True
        if not keep:
            shutil.rmtree(out)
    while probe and len(setup_times) < SETUP_PROBES:
        setup_times.append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    references = []
    for k, ref in sorted(refs.items()):
        ok, detail = check.reference(steps[k], steps[k].config_for(runner.small),
                                     *ref)
        references.append(detail)
        if not ok:
            runner.failed += 1
            runner.problems.append(f"reference missed: {detail}")
    return {"walls": walls, "cpus": cpus, "wall_refs": wall_refs,
            "cpu_refs": cpu_refs, "ref_times": ref_times,
            "step_times": step_times, "masters": masters,
            "out_bytes": out_bytes, "peak_rss_mb": peak_rss_mb,
            "setup_times": setup_times, "references": references,
            "capped": len(walls) < reps}


def run_traced(runner, seed, reps, declared, cap_s=float("inf")):
    """``reps`` cycles of untraced, traced and threads=2 reps on the same
    inputs, alternating (fewer if they take ``cap_s``).  ``declared`` is
    BENCHMARK.json's per-layer metric list."""
    tracer = spans.Tracer()
    plain, traced, threads2, masters, out_bytes = [], [], [], [], 0
    cycles = []
    while len(cycles) < reps and not capped(cycles, cap_s):
        r = len(masters)
        master = rep_seed(seed, r)
        masters.append(master)
        order = ("plain", "traced") if r % 2 == 0 else ("traced", "plain")
        outs = {}
        for kind in order:
            if kind == "plain":
                wall, _, outs[kind], reports, *_ = runner.rep(master,
                                                              f"plain{r}")
                plain.append(wall)
                runner.check(outs[kind], reports)
            else:
                with tracer.installed():
                    wall, _, outs[kind], *_ = runner.rep(master, f"traced{r}",
                                                         tracer=tracer)
                traced.append(wall)
                out_bytes += dir_bytes(outs[kind])
        wall, _, outs["threads2"], *_ = runner.rep(master, f"threads2_{r}",
                                                   threads=2)
        threads2.append(wall)
        runner.same_trials(outs["plain"], outs["traced"], "traced and untraced reps")
        runner.same_trials(outs["plain"], outs["threads2"], "--threads 1 and 2")
        for out in outs.values():
            shutil.rmtree(out)
        cycles.append(plain[-1] + traced[-1] + threads2[-1])
    metrics, missing, missing_spans = spans.layer_metrics(
        tracer, reps=len(masters), expected=runner.workload.spans,
        declared=declared, out_bytes=out_bytes,
        speedup=sum(plain) / sum(threads2),
        overhead=sum(traced) / sum(plain) - 1.0)
    return {"walls": plain, "traced_walls": traced, "threads2_walls": threads2,
            "masters": masters, "metrics": metrics, "missing": missing,
            "missing_spans": missing_spans, "unbound": sorted(tracer.unbound),
            "capped": len(cycles) < reps}


def end_to_end(res):
    return {
        "wall_ref": (statistics.median(res["wall_refs"]), "ratio"),
        "cpu_ref": (statistics.median(res["cpu_refs"]), "ratio"),
        "setup_s": (statistics.median(res["setup_times"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def parse_args(argv, run_seconds):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, spec["run_seconds"])
    try:
        load_graphconc(ROOT)
    except ImportError as exc:
        print(f"perfbench: cannot import graphconc from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reps = workload.reps_for(args.seconds, spec["run_seconds"],
                             traced=bool(args.trace))
    cap_s = CAP_FACTOR * args.seconds
    work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        runner = Runner(workload, work)
        # warm-up: lazy imports and first-call costs, on tiny inputs
        runner.rep(rep_seed(args.seed, 0), "warmup", small=True)
        if args.trace:
            res = run_traced(runner, args.seed, reps, spec["per_layer"], cap_s)
            metrics = res["metrics"]
        else:
            reference = Reference()
            reference()         # warm-up
            res = run_untraced(runner, args.seed, reps, reference, cap_s,
                               probe=setup_probe(workload, args.seed))
            metrics = end_to_end(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fail_frac = runner.failed / max(runner.attempted, 1)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"{workload.name} median rep: wall {statistics.median(res['walls']):.4g} s, "
              f"cpu {statistics.median(res['cpus']):.4g} s, reference kernel "
              f"{statistics.median(t for ts in res['ref_times'] for t in ts):.4g} s "
              f"(as measured; not metrics, see reference.py)")
    print(f"{workload.name} fail_frac = {fail_frac:.6g} ratio "
          f"({runner.failed}/{runner.attempted})")
    for problem in runner.problems:
        print(f"WRONG: {problem}")
    for note in runner.notes:
        print(f"FAILED: {note}")
    if res["capped"]:
        print(f"CAPPED: {len(res['masters'])} of {reps} reps ran within "
              f"{cap_s:g} s; a run of other code on this seed draws more graphs")
    missing = res.get("missing", [])
    if res.get("unbound"):
        print(f"UNBOUND: {res['unbound']} no longer exist; their spans "
              f"would lose part of their time")
    if missing:
        print(f"MISSING spans {res['missing_spans']}: metrics {missing} "
              f"not reported")
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "reps": reps,
        "trace": args.trace, "machine": machine_facts(),
        "fail_frac": fail_frac,
        "problems": runner.problems, "failures": runner.notes,
        "streams": [streams_drawn(step, m) for m in res["masters"]
                    for step in workload.steps],
        **{k: v for k, v in res.items() if k != "metrics"},
    }
    print("record: " + json.dumps(record, sort_keys=True))
    correct = not runner.problems
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct and not missing and not res.get("unbound") else 1


if __name__ == "__main__":
    sys.exit(main())
