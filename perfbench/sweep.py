"""Run the benchmark over workloads x seeds, for one checkout or two.

    python3 perfbench/sweep.py --out DIR [--checkout LABEL=PATH ...]
        [--seeds N ...] [--trace 0|1]

Runs every workload of BENCHMARK.json for its ``run_seconds``.  Writes
``DIR/LABEL.jsonl``, one line per run: the run's result line, its
``record`` line and where it ran.  With two checkouts (say
``parent=../base change=.``) the runs are made in pairs on the same
seed, alternating which side goes first, as the comparison rule in
``compare.py`` requires.  Default: the checkout this file is in.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import load_spec  # noqa: E402


def run_once(path, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = record = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    for line in lines:
        if line.startswith("record: "):
            record = json.loads(line[len("record: "):])
    return {"exit": proc.returncode, "result": result, "record": record,
            "stderr": proc.stderr[-2000:] if proc.returncode else ""}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--checkout", action="append", default=[],
                   metavar="LABEL=PATH")
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = load_spec()
    sides = [c.split("=", 1) for c in args.checkout] or [["current", os.path.dirname(HERE)]]
    if any(len(s) != 2 for s in sides) or len(sides) > 2:
        p.error("give one or two --checkout LABEL=PATH")
    os.makedirs(args.out, exist_ok=True)
    files = {label: open(os.path.join(args.out, f"{label}.jsonl"), "a")
             for label, _ in sides}
    try:
        for workload in [w["name"] for w in spec["workloads"]]:
            for pair, seed in enumerate(args.seeds):
                order = sides if pair % 2 == 0 else sides[::-1]
                for position, (label, path) in enumerate(order):
                    run = run_once(os.path.abspath(path), workload, seed,
                                   spec["run_seconds"], args.trace)
                    run.update(label=label, workload=workload, seed=seed,
                               trace=args.trace, pair=pair, position=position)
                    files[label].write(json.dumps(run, sort_keys=True) + "\n")
                    files[label].flush()
                    ok = run["exit"] == 0 and run["result"] is not None
                    print(f"{workload} seed {seed} {label}: "
                          f"{'ok' if ok else 'FAILED exit %d' % run['exit']}",
                          flush=True)
    finally:
        for fh in files.values():
            fh.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
