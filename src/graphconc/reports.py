"""Experiment report plumbing: config hashing, trial running, artifacts.

Reports are reproducible from config + master seed: the config hash is
the git blob sha1 of the canonical (sorted-key) JSON, trials run in a
thread pool over stream indices and are merged back in index order, and
the only non-reproducible field is the wall clock (kept out of the CSV
artifacts so those are byte-identical across reruns).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

HIST_BINS = 100  # bins of the spectrum histograms


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_jsonable)


def _jsonable(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return dataclasses.asdict(x)
    raise TypeError(f"not JSON serializable: {type(x)}")


def config_hash(config):
    """Git-style blob hash of the canonical config JSON."""
    body = canonical_json(config).encode()
    return hashlib.sha1(b"blob %d\0" % len(body) + body).hexdigest()


def summarize(values):
    """Median/quartile summary of a list of numbers (NaNs dropped)."""
    arr = np.asarray([v for v in values if v == v], dtype=float)
    if arr.size == 0:
        return {"count": 0}
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return {"count": int(arr.size), "median": float(med), "q1": float(q1),
            "q3": float(q3), "min": float(arr.min()), "max": float(arr.max()),
            "mean": float(arr.mean())}


def run_trials(fn, n_trials, threads=1):
    """fn(trial_index) -> dict, run in a pool, merged in index order."""
    if threads <= 1 or n_trials <= 1:
        return [fn(t) for t in range(n_trials)]
    with ThreadPoolExecutor(max_workers=min(threads, n_trials)) as pool:
        return list(pool.map(fn, range(n_trials)))


@dataclasses.dataclass
class ExperimentReport:
    command: str
    parameters: dict
    seeds: dict
    trials: list
    summary: dict
    flags: dict
    wall_clock_s: float = 0.0

    @property
    def config_hash(self):
        return config_hash(self.parameters)

    def to_dict(self):
        return {"command": self.command, "parameters": self.parameters,
                "config_hash": self.config_hash, "seeds": self.seeds,
                "trials": self.trials, "summary": self.summary,
                "flags": self.flags, "wall_clock_s": self.wall_clock_s}

    def write(self, out_dir):
        """report.json, config.json and trials.csv, into an existing
        ``out_dir``."""
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(json.dumps(self.to_dict(), indent=2, default=_jsonable))
        with open(os.path.join(out_dir, "config.json"), "w") as fh:
            json.dump(self.parameters, fh, indent=2, default=_jsonable)
        if self.trials:
            keys = sorted({k for t in self.trials for k in t
                           if np.isscalar(t[k]) or t[k] is None})
            write_csv(os.path.join(out_dir, "trials.csv"), keys,
                      [[t.get(k) for k in keys] for t in self.trials])


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_histogram(path, eigs):
    """Counts in HIST_BINS bins over [min, max]; a degenerate range, or
    no eigenvalue at all, collapses to one bin."""
    eigs = np.asarray(eigs, dtype=float)
    lo, hi = 0.0, 0.0
    if eigs.size:
        lo, hi = float(eigs.min()), float(eigs.max())
    if hi - lo <= 0.0:
        rows = [[lo, hi, int(eigs.size)]]
    else:
        counts, edges = np.histogram(eigs, bins=HIST_BINS, range=(lo, hi))
        rows = [[edges[k], edges[k + 1], int(counts[k])]
                for k in range(len(counts))]
    write_csv(path, ["bin_lo", "bin_hi", "count"], rows)
