"""Compare two results sets, or summarize one, under the benchmark's rule.

    python3 perfbench/compare.py PARENT.jsonl [CHANGE.jsonl]

Results sets are the ``.jsonl`` files ``sweep.py`` writes.  With one
set, prints each workload's end-to-end medians and their spread (the
distance between the first and third quartile as a share of the
median) next to the metric's bound.

With two, runs of the same workload and seed form a pair.  For each
workload (one row each) and end-to-end metric:

* ``gain``: at least ten pairs, the change wins at least 9/10 of them
  (ties count for neither side), and the medians differ by more than
  the parent's own quartile spread;
* ``unresolved``: the parent's spread exceeds the metric's bound, unless
  every change run is better than every parent run;
* ``REGRESSION``: the change's median is worse than the parent's by
  more than the bound;
* ``within bound`` otherwise.

A change that fails more trials than its parent is flagged, since a
gain does not count when more operations fail.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    """{(workload, seed): result} of the untraced runs in a results set."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            run = json.loads(line)
            if run.get("trace") == 0 and run.get("result") is not None:
                runs[(run["workload"], run["seed"])] = run["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(parent, change, better, bound):
    """One metric on one workload: (label, wins, pairs)."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = len(parent)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    improved = sign * (c_med - p_med) < 0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and improved
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "gain", wins, pairs
    if spread(parent) > bound and not all_better:
        return "unresolved", wins, pairs
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "REGRESSION", wins, pairs
    return "within bound", wins, pairs


def summarize(runs, metrics):
    print(f"{'workload':<12} {'metric':<12} {'runs':>4} {'median':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload in sorted({w for w, _ in runs}):
        results = [r for (w, _), r in sorted(runs.items()) if w == workload]
        failed = sum(r["failed"] for r in results)
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            print(f"{workload:<12} {m['name']:<12} {len(vals):>4} "
                  f"{quartiles(vals)[1]:>12.6g} {spread(vals):>7.3f} "
                  f"{m['bound']:>6}")
        print(f"{workload:<12} {'failed':<12} {len(results):>4} {failed:>12}")


def compare(parent_runs, change_runs, metrics):
    keys = sorted(set(parent_runs) & set(change_runs))
    print(f"{'workload':<12} {'metric':<12} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'delta':>8} {'wins':>6}  verdict")
    for workload in sorted({w for w, _ in keys}):
        pk = [k for k in keys if k[0] == workload]
        p_fail = sum(parent_runs[k]["failed"] for k in pk)
        c_fail = sum(change_runs[k]["failed"] for k in pk)
        for m in metrics:
            p = [parent_runs[k]["metrics"][m["name"]]["value"] for k in pk]
            c = [change_runs[k]["metrics"][m["name"]]["value"] for k in pk]
            label, wins, pairs = verdict(p, c, m["better"], m["bound"])
            if label == "gain" and c_fail > p_fail:
                label = "gain void: more failures"
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
            print(f"{workload:<12} {m['name']:<12} "
                  f"{pq[1]:>10.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(60)
                  + f"{cq[1]:>10.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(34)
                  + f" {delta:>+8.1%} {wins:>2}/{pairs:<3}  {label}")
        if c_fail > p_fail:
            print(f"{workload:<12} failed trials: parent {p_fail}, change {c_fail}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        metrics = json.load(fh)["end_to_end"]
    runs = [load_runs(path) for path in argv]
    if len(runs) == 1:
        summarize(runs[0], metrics)
    else:
        compare(runs[0], runs[1], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
