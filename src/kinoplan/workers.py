"""Forked worker processes that share a list of independent jobs with the
calling process.

``WorkerPool(task).map(items, *args)`` runs ``task([item], *args)`` for every
item, in the calling process and in one worker per extra CPU, capped at one
worker fewer than there are items, and returns the results in item order.
The calling process and the workers claim items one at a time, in list
order, from a queue they share (a pipe of item indices; reading a record
claims it), so whichever side is free takes the next item. Each side runs
the same ``task`` on the same inputs, so the results are those of running
every item here, as long as ``task`` returns one result per item and treats
items independently.

Descent is many small NumPy calls that hold the GIL, so threads cannot run
two candidates at once; separate processes can. A worker is started with a
raw ``os.fork`` and a ``socketpair`` (about 1 ms), once per pool, and then
serves jobs until its socket reaches EOF: when the pool is closed or
garbage-collected, or when the calling process dies, even by SIGKILL. A
worker keeps no inherited file descriptor but its socket and the queue,
ignores SIGINT and leaves through ``os._exit``. Items, arguments and results
cross the socket as pickles; the task, and any code it calls, is the one the
worker inherited at fork time.

Each worker is pinned to one CPU other than the one the calling process ran
on when the worker started. A kernel whose cpusets switch load balancing
off (some virtual machines are set up so) never moves a forked child off its
parent's CPU, and an unpinned worker there only time-shares that CPU with
its parent.
"""
from __future__ import annotations

import gc
import logging
import os
import pickle
import signal
import socket
import threading
import weakref
from array import array
from typing import Any, Callable, Optional, Sequence

log = logging.getLogger(__name__)

# Descriptors above the worker's own socket are closed up to this bound.
_MAXFD = os.sysconf("SC_OPEN_MAX") if hasattr(os, "sysconf") else 256
# The queue holds one 2-byte index per item and is filled before anyone
# reads it, so a call's items must fit in a pipe's 64 KiB buffer.
MAX_ITEMS = 32768
_MISSING = object()


def extra_cpus() -> int:
    """CPUs this process may use besides its own; 0 where fork is unavailable."""
    if not hasattr(os, "fork"):
        return 0
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


def _claim(queue: int) -> Optional[int]:
    """Take the next item index off the queue; None once it is empty."""
    try:
        return int.from_bytes(os.read(queue, 2), "little")
    except BlockingIOError:
        return None


class _Worker:
    __slots__ = ("pid", "sock", "reader", "writer")

    def __init__(self, pid: int, sock: socket.socket) -> None:
        self.pid = pid
        self.sock = sock
        self.reader = sock.makefile("rb")
        self.writer = sock.makefile("wb")

    def close(self, reap: bool = True) -> None:
        """Close this end, which the worker reads as EOF, and wait for it."""
        for f in (self.writer, self.reader, self.sock):
            try:
                f.close()
            except OSError:
                pass
        if reap:
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:
                pass


def _close_all(workers: list[_Worker], fds: list[int]) -> None:
    while workers:
        workers.pop().close()
    while fds:
        os.close(fds.pop())


def _serve(sock: socket.socket, task: Callable[..., list], queue: int) -> None:
    """A worker's loop: read ``(items, args)``, claim items off the queue
    until it is empty, and reply ``(True, [(index, result), ...])``, or
    ``(False, exception)`` when ``task`` raised."""
    reader = sock.makefile("rb")
    writer = sock.makefile("wb")
    while True:
        try:
            items, args = pickle.load(reader)
        except EOFError:
            return
        try:
            done = []
            while (i := _claim(queue)) is not None:
                done.append((i, task([items[i]], *args)[0]))
            reply = (True, done)
        except Exception as exc:
            reply = (False, exc)
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps(
                (False, RuntimeError(f"worker result cannot be pickled: {exc!r}")),
                pickle.HIGHEST_PROTOCOL,
            )
        writer.write(data)
        writer.flush()


def _current_cpu() -> Optional[int]:
    """The CPU this process last ran on (Linux ``/proc``), else None."""
    try:
        with open("/proc/self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _spare_cpus() -> list[Optional[int]]:
    """CPUs to pin workers to, in turn: every allowed CPU except the one this
    process runs on; ``[None]`` (no pinning) where that is unknown."""
    cpu = _current_cpu()
    if cpu is None or not hasattr(os, "sched_getaffinity"):
        return [None]
    return sorted(os.sched_getaffinity(0) - {cpu}) or [None]


def _spawn(task: Callable[..., list], queue: int, cpu: Optional[int]) -> _Worker:
    ours, theirs = socket.socketpair()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            ours.close()
            # Drop every other inherited descriptor, the calling process's
            # ends of other workers' sockets included: each worker must see
            # EOF as soon as the process that started it lets go.
            keep = sorted((theirs.fileno(), queue))
            os.closerange(3, keep[0])
            os.closerange(keep[0] + 1, keep[1])
            os.closerange(keep[1] + 1, _MAXFD)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            # The collector would touch every inherited object and so copy
            # every page shared with the calling process.
            gc.freeze()
            if cpu is not None:
                try:
                    os.sched_setaffinity(0, {cpu})
                except OSError:
                    pass
            _serve(theirs, task, queue)
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    theirs.close()
    return _Worker(pid, ours)


class WorkerPool:
    """Worker processes that run ``task``, started on first need and kept for
    later calls.

    One call at a time uses the workers; a call made while another thread
    holds them runs all its items here. A process forked from the owner
    (other than a worker) starts workers of its own.
    """

    def __init__(self, task: Callable[..., list]) -> None:
        self._task = task
        self._workers: list[_Worker] = []
        self._fds: list[int] = []   # the queue's read and write ends, once made
        self._owner = os.getpid()
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._workers, self._fds)

    @property
    def pids(self) -> tuple[int, ...]:
        return tuple(w.pid for w in self._workers)

    def close(self) -> None:
        """Stop every worker; the next ``map`` starts new ones."""
        _close_all(self._workers, self._fds)

    def map(self, items: Sequence[Any], *args: Any) -> list:
        """``task([item], *args)[0]`` for every item, shared with the workers.
        Raises ValueError beyond ``MAX_ITEMS`` items."""
        task = self._task
        if len(items) > MAX_ITEMS:
            raise ValueError(f"at most {MAX_ITEMS} items per call, got {len(items)}")
        want = min(extra_cpus(), len(items) - 1)
        if want < 1 or not self._lock.acquire(blocking=False):
            return task(items, *args)
        try:
            self._start(want)
            if not self._workers:
                return task(items, *args)
            return self._share(self._workers[:want], items, args)
        finally:
            self._lock.release()

    def _share(self, workers: list[_Worker], items: Sequence[Any], args: tuple) -> list:
        queue_in, queue_out = self._fds
        os.write(queue_out, array("H", range(len(items))).tobytes())
        results = [_MISSING] * len(items)
        job = pickle.dumps((items, args), pickle.HIGHEST_PROTOCOL)
        busy: list[_Worker] = []
        try:
            for worker in workers:
                if self._send(worker, job):
                    busy.append(worker)
            while (i := _claim(queue_in)) is not None:
                results[i] = self._task([items[i]], *args)[0]
            while busy:
                for i, result in self._receive(busy.pop(0)):
                    results[i] = result
        except BaseException:
            # Empty the queue, so the busy workers stop after their current
            # item, and drop them: no later call may read a stale reply.
            while _claim(queue_in) is not None:
                pass
            for worker in busy:
                self._drop(worker)
            raise
        # Items that a worker claimed before it died run here.
        for i, result in enumerate(results):
            if result is _MISSING:
                results[i] = self._task([items[i]], *args)[0]
        return results

    def _start(self, want: int) -> None:
        if self._owner != os.getpid():
            # Inherited through someone else's fork: the workers and the
            # queue belong to the parent, so only drop this copy of them.
            while self._workers:
                self._workers.pop().close(reap=False)
            while self._fds:
                os.close(self._fds.pop())
            self._owner = os.getpid()
        if not self._fds:
            queue_in, queue_out = os.pipe()
            os.set_blocking(queue_in, False)
            self._fds += (queue_in, queue_out)
        if len(self._workers) >= want:
            return
        spare = _spare_cpus()  # reads /proc, so only when a worker starts
        while len(self._workers) < want:
            try:
                cpu = spare[len(self._workers) % len(spare)]
                self._workers.append(_spawn(self._task, self._fds[0], cpu))
            except OSError as exc:
                log.warning("cannot start a worker process: %s", exc)
                return

    def _send(self, worker: _Worker, job: bytes) -> bool:
        """Hand the pickled call to ``worker``; False if it has died, and is
        dropped."""
        try:
            worker.writer.write(job)
            worker.writer.flush()
        except OSError:
            self._drop(worker)
            return False
        return True

    def _receive(self, worker: _Worker) -> list:
        """The worker's ``(index, result)`` pairs; none if it has died."""
        try:
            ok, value = pickle.load(worker.reader)
        except (EOFError, OSError):
            log.warning("worker %d exited; its items run here", worker.pid)
            self._drop(worker)
            return []
        if not ok:
            raise value
        return value

    def _drop(self, worker: _Worker) -> None:
        self._workers.remove(worker)
        worker.close()
