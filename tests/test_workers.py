"""Forked workers: sharing items through the claim queue, errors across the
process boundary, and worker lifetime."""
import ctypes
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from kinoplan import planner, workers
from kinoplan.geometry import Vec2
from kinoplan.homotopy import HomotopySignature, SeedPath
from kinoplan.optimizer import OptimizationError, optimize_candidate
from kinoplan.planner import CandidateInfo, plan_once
from kinoplan.scenario_io import parse_scenario
from kinoplan.workers import WorkerPool

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def use_workers(monkeypatch, n):
    monkeypatch.setattr(workers, "extra_cpus", lambda: n)


def alive(pid):
    """True while ``pid`` runs; a zombie has exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _pids(items):
    return [(item, os.getpid()) for item in items]


def _slow_pids(items):
    time.sleep(0.05)
    return _pids(items)


@pytest.fixture
def pool():
    p = WorkerPool(_pids)
    yield p
    p.close()


class TestWorkerPool:
    @pytest.mark.parametrize("n", [1, 2])
    def test_results_in_item_order(self, pool, monkeypatch, n):
        use_workers(monkeypatch, n)
        got = pool.map(list(range(7)))
        assert len(pool.pids) == n
        assert [item for item, _ in got] == list(range(7))
        assert {pid for _, pid in got} <= {os.getpid(), *pool.pids}

    def test_items_are_shared(self, monkeypatch):
        """Items of 50 ms each: whichever side is free claims the next, so
        both sides get some."""
        use_workers(monkeypatch, 1)
        p = WorkerPool(_slow_pids)
        try:
            p.map([0, 1])  # start the worker
            got = p.map(list(range(6)))
            assert [item for item, _ in got] == list(range(6))
            assert {pid for _, pid in got} == {os.getpid(), *p.pids}
        finally:
            p.close()

    def test_capped_at_one_worker_fewer_than_items(self, pool, monkeypatch):
        use_workers(monkeypatch, 3)
        pool.map([0, 1])
        assert len(pool.pids) == 1
        assert pool.map([0]) == [(0, os.getpid())]

    def test_one_cpu_runs_here(self, pool, monkeypatch):
        use_workers(monkeypatch, 0)
        assert pool.map([0, 1, 2]) == [(i, os.getpid()) for i in range(3)]
        assert pool.pids == ()

    def test_spare_cpus_looked_up_only_when_a_worker_starts(self, pool, monkeypatch):
        use_workers(monkeypatch, 1)
        calls = []
        real = workers._current_cpu
        monkeypatch.setattr(workers, "_current_cpu", lambda: calls.append(1) or real())
        pool.map([0, 1])
        pool.map([0, 1])
        assert len(pool.pids) == 1
        assert len(calls) == 1

    def test_too_many_items(self, pool):
        with pytest.raises(ValueError, match="at most"):
            pool.map(range(workers.MAX_ITEMS + 1))

    def test_dead_worker_items_run_here_and_it_is_replaced(self, pool, monkeypatch):
        use_workers(monkeypatch, 1)
        pool.map([0, 1])
        (first,) = pool.pids
        os.kill(first, signal.SIGKILL)
        os.waitpid(first, 0)
        assert pool.map([0, 1]) == [(0, os.getpid()), (1, os.getpid())]
        assert pool.pids == ()
        pool.map([0, 1])
        assert pool.pids[0] != first

    def test_failure_here_drops_the_busy_worker(self, monkeypatch):
        use_workers(monkeypatch, 1)
        main = os.getpid()

        def task(items):
            if os.getpid() == main and items != [-1]:
                raise KeyError("here")
            return _slow_pids(items)

        p = WorkerPool(task)
        try:
            p.map([-1, -1])
            (first,) = p.pids
            with pytest.raises(KeyError):
                p.map(list(range(8)))
            assert p.pids == ()
            assert not alive(first)
            got = p.map([-1, -1])
            assert [item for item, _ in got] == [-1, -1]
            assert p.pids[0] != first
        finally:
            p.close()

    def test_failure_there_is_raised_here(self, monkeypatch):
        use_workers(monkeypatch, 1)
        main = os.getpid()

        def task(items):
            if os.getpid() != main:
                raise LookupError("there")
            return _slow_pids(items)

        p = WorkerPool(task)
        try:
            with pytest.raises(LookupError, match="there"):
                p.map(list(range(4)))
            (worker,) = p.pids
            with pytest.raises(LookupError, match="there"):
                p.map(list(range(4)))
            assert p.pids == (worker,)
        finally:
            p.close()

    def test_close_stops_workers(self, pool, monkeypatch):
        use_workers(monkeypatch, 2)
        pool.map([0, 1, 2])
        pids = pool.pids
        assert len(pids) == 2
        pool.close()
        assert pool.pids == ()
        assert not any(alive(pid) for pid in pids)

    def test_close_does_not_wait_on_a_later_worker(self, monkeypatch):
        """A worker forked later inherits the earlier workers' sockets and
        must close them, or closing an earlier pool would block on it."""
        use_workers(monkeypatch, 1)
        first, second = WorkerPool(_pids), WorkerPool(_pids)
        try:
            first.map([0, 1])
            second.map([0, 1])
            (pid,) = first.pids
            closing = threading.Thread(target=first.close, daemon=True)
            closing.start()
            closing.join(5.0)
            hung = closing.is_alive()
            if hung:
                os.kill(pid, signal.SIGKILL)
                closing.join()
            assert not hung
        finally:
            second.close()


def main_is_slow(monkeypatch):
    """Make this process sleep 0.3 s before its first descent, so that a
    worker claims the other seeds; returns the seeds optimized here."""
    real = planner.optimize_arrays
    here = []

    def slow(seed, *args, **kwargs):
        if not here:
            time.sleep(0.3)
        here.append(seed)
        return real(seed, *args, **kwargs)

    monkeypatch.setattr(planner, "optimize_arrays", slow)
    return here


class TestErrorsCrossTheBoundary:
    @pytest.fixture
    def scenario(self, scenario_paths):
        return parse_scenario(str(scenario_paths["scenario1"]))

    def test_optimization_error_gives_the_same_candidate(self, scenario, monkeypatch):
        """The shortest seed's descent raises ``OptimizationError``, in a
        worker forked after the patch, and then here."""
        use_workers(monkeypatch, 1)
        real = planner.optimize_arrays
        seeds = planner.enumerate_seed_paths(
            scenario.start, scenario.goal, scenario.obstacles, scenario.max_classes,
            scenario.margin, conflict_speed=scenario.limits.v_max,
        )
        shortest = min(range(len(seeds)), key=lambda i: seeds[i].length)
        bad = seeds[shortest].signature
        main = os.getpid()

        def failing(seed, *args, **kwargs):
            if seed.signature == bad and os.getpid() != main:
                raise OptimizationError("non-finite cost")
            return real(seed, *args, **kwargs)

        monkeypatch.setattr(planner, "optimize_arrays", failing)
        fresh = WorkerPool(planner._solve_seeds)
        monkeypatch.setattr(planner, "_pool", fresh)
        try:
            plan_once(scenario, scenario.obstacles)  # fork the worker first
            here = main_is_slow(monkeypatch)
            there = plan_once(scenario, scenario.obstacles)
            assert len(fresh.pids) == 1
        finally:
            fresh.close()
        assert seeds[shortest] not in here

        def failing_here(seed, *args, **kwargs):
            if seed.signature == bad:
                raise OptimizationError("non-finite cost")
            return real(seed, *args, **kwargs)

        monkeypatch.setattr(planner, "optimize_arrays", failing_here)
        use_workers(monkeypatch, 0)
        here_only = plan_once(scenario, scenario.obstacles)
        info = CandidateInfo(bad.windings, math.inf, False, False, 0)
        assert there.candidates[shortest] == info
        assert there.candidates == here_only.candidates
        assert there.chosen == here_only.chosen

    @pytest.mark.parametrize("n", [0, 1])
    def test_other_exceptions_keep_their_type(self, scenario, monkeypatch, n):
        """``_seed_arrays`` raises ValueError on a zero-length seed, here
        (no worker) or in the worker; the plan raises it, and the next plan
        runs normally."""
        use_workers(monkeypatch, n)
        real = planner.enumerate_seed_paths
        zero = SeedPath((Vec2(-5, 0), Vec2(-5, 0)), HomotopySignature((0.0,) * 3), 0.0)

        def with_zero_seed(*args, **kwargs):
            return real(*args, **kwargs) + [zero]

        expected = plan_once(scenario, scenario.obstacles)
        monkeypatch.setattr(planner, "enumerate_seed_paths", with_zero_seed)
        here = main_is_slow(monkeypatch) if n else []
        with pytest.raises(ValueError, match="zero length"):
            plan_once(scenario, scenario.obstacles)
        if n:
            assert zero not in here
        monkeypatch.undo()
        use_workers(monkeypatch, n)
        again = plan_once(scenario, scenario.obstacles)
        assert again.candidates == expected.candidates
        assert again.chosen == expected.chosen

    @pytest.mark.parametrize("n", [1, 2])
    def test_on_accept_replays_the_serial_sequence(self, scenario, monkeypatch, n):
        use_workers(monkeypatch, n)
        seeds = planner.enumerate_seed_paths(
            scenario.start, scenario.goal, scenario.obstacles, scenario.max_classes,
            scenario.margin, conflict_speed=scenario.limits.v_max,
        )
        serial = []
        for seed in seeds:
            optimize_candidate(
                seed, scenario.obstacles, scenario.weights, scenario.limits, scenario.density,
                on_accept=lambda before, after: serial.append((before, after)),
            )
        got = []
        plan_once(scenario, scenario.obstacles,
                  on_accept=lambda before, after: got.append((before, after)))
        assert len(seeds) > n
        assert serial
        assert got == serial


LIFETIME_SCRIPT = textwrap.dedent("""
    import importlib, os, signal, sys
    sys.path.insert(0, {src!r})
    pids = []
    for _ in range(2):
        for name in [n for n in sys.modules if n == "kinoplan" or n.startswith("kinoplan.")]:
            del sys.modules[name]
        kp = importlib.import_module("kinoplan")
        importlib.import_module("kinoplan.workers").extra_cpus = lambda: 1
        sc = importlib.import_module("kinoplan.scenario_io").parse_scenario({scenario!r})
        kp.plan_once(sc, sc.obstacles)
        pids += kp.planner._pool.pids
    print(*pids, flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
""")


def _adopt_orphans(on):
    """Make this process the parent of its descendants' orphans (Linux
    PR_SET_CHILD_SUBREAPER), so that it can reap the workers of a killed
    child; False where that is unavailable."""
    try:
        return ctypes.CDLL(None, use_errno=True).prctl(36, int(on), 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _exited(pid):
    """True once ``pid`` has exited; reaps it when it is our child."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:
        return not alive(pid)


def test_workers_exit_when_their_parent_is_killed(tmp_path, scenario_paths):
    """A SIGKILLed parent runs no clean-up; its workers must still exit."""
    if not os.path.isdir("/proc/self"):
        pytest.skip("needs /proc")
    script = tmp_path / "plan_and_die.py"
    script.write_text(LIFETIME_SCRIPT.format(
        src=os.path.join(ROOT, "src"), scenario=str(scenario_paths["scenario1"]),
    ))
    out = tmp_path / "out.txt"
    adopted = _adopt_orphans(True)
    pids = []
    try:
        # A file, not a pipe: a surviving worker holding a pipe would hang the read.
        with open(out, "w") as fh:
            proc = subprocess.run([sys.executable, str(script)], stdout=fh,
                                  stderr=subprocess.STDOUT, timeout=120)
        text = out.read_text()
        pids = [int(p) for p in text.split()]
        assert proc.returncode == -signal.SIGKILL, text
        assert len(pids) == 2
        running = set(pids)
        deadline = time.monotonic() + 2.0
        while running and time.monotonic() < deadline:
            running = {pid for pid in running if not _exited(pid)}
            time.sleep(0.02)
        assert not running
    finally:
        for pid in pids:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
        if adopted:
            _adopt_orphans(False)
