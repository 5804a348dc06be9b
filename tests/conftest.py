"""Shared test helpers: seeds, dense reference builders, hypothesis profile."""

import os
import tracemalloc

# numpy's OpenBLAS pool reads its thread count when numpy is first
# imported, which is below: the suite's small products gain no wall time
# from a second thread and spend CPU spinning it, so one thread unless
# the environment sets a count.  test_scipy_blas_pool_runs_one_thread
# strips the variable for its own subprocesses.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Master seed for every sampled graph in the suite.  All Monte Carlo
# assertions below were locked against runs at this seed; changing it
# invalidates the frozen thresholds.
MASTER = 1729


@pytest.fixture
def master_seed():
    return MASTER


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes of its allocations that
    tracemalloc traces (numpy's arrays among them), above those live
    when it was called)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - live
    finally:
        if started:
            tracemalloc.stop()


def assert_close(a, b, tol, msg=""):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    err = np.abs(a - b).max() if a.size else 0.0
    assert err <= tol, f"{msg} max err {err} > {tol}"


# ---------------------------------------------------------------------------
# acceptance pass/fail ledger: test_acceptance records one line per
# criterion; the terminal summary prints them after the run so the lines
# survive pytest's output capture.

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
