"""Set-up probe: a fresh interpreter imports graphconc and builds one
workload's inputs (configs, models and its reps' master seeds).

    python3 perfbench/probe.py --workload NAME --seed N

``run.py`` times several of these and reports the median as setup_s.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, load_graphconc, rep_seed  # noqa: E402


def build_inputs(workload, seed):
    import graphconc as gc

    inputs = []
    for step in workload.steps:
        cfg = step.config
        if "model" in cfg:
            model = gc.model_from_dict(cfg["model"])
        elif step.command == "concentration":
            model = [gc.Uniform(int(c["n"]), c["d"] / c["n"]) for c in cfg["cells"]]
        elif step.command == "sbm":
            model = gc.BlockTwo(cfg["n"], cfg["a"], cfg["b"])
        elif step.command == "decompose":
            model = gc.Uniform(cfg["n"], cfg["d"] / cfg["n"])
        else:
            model = None
        inputs.append((step, model, [rep_seed(seed, r) for r in range(workload.reps)]))
    return inputs


if __name__ == "__main__":
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    load_graphconc(os.path.dirname(HERE))
    build_inputs(WORKLOADS[args.workload], args.seed)
