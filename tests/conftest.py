"""Shared fixtures and reporting hooks for the regscan test suite."""

import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from regscan import grid
from regscan.synth import SolverConfig, run_solver


@pytest.fixture(scope="session")
def tg_run():
    """A short, resolved decaying vortex run reused across suites."""
    cfg = SolverConfig(n=32, nu=0.05, dt=0.01, t_end=0.3, save_every=3)
    return run_solver(cfg)


@pytest.fixture(scope="session")
def tg_field(tg_run):
    return tg_run.field


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def worker_pool(monkeypatch):
    """The package's worker thread (grid._submit), whatever this process's
    CPUs and threads would pick."""
    with ThreadPoolExecutor(1) as pool:
        monkeypatch.setattr(grid, "_submit", pool.submit)
        yield


@pytest.fixture(params=["worker", "inline"])
def solver_pool(request, monkeypatch):
    """The worker thread, then every job run inline by grid._now."""
    if request.param == "worker":
        request.getfixturevalue("worker_pool")
    else:
        monkeypatch.setattr(grid, "_submit", grid._now)


@pytest.fixture
def in_a_forked_child():
    """check() run in a forked child, which has no copy of the worker thread:
    True if it returned a true value within a minute, without hanging."""
    def run(check):
        pid = os.fork()
        if pid == 0:    # the child reports by exit code
            code = 1
            try:
                code = 0 if check() else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        return done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion."""
    severity = {"failed": 0, "error": 0, "skipped": 1, "passed": 2}
    status = {}
    for outcome in ("failed", "error", "skipped", "passed"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if name not in status or severity[outcome] < severity[status[name]]:
                status[name] = outcome
    if not status:
        return
    label = {"failed": "FAIL", "error": "FAIL", "skipped": "SKIP", "passed": "PASS"}
    terminalreporter.section("acceptance criteria")
    for name in sorted(status):
        terminalreporter.write_line(f"{label[status[name]]}  {name}")
