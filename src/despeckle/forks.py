"""The one parallel layer, contiguous runs of a range on forked processes: the
task blocks of harness.run_protocol and the row bands of nmfilter.filter_image."""

from __future__ import annotations

import os
import pickle
import signal
import sys

from .errors import DespeckleError, InvalidArgumentError, check_integer


def _usable_cpus() -> int:
    """The CPUs this process may run on (os.cpu_count() where the affinity
    call is missing)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(threads: int, jobs: int) -> int:
    """The processes a parallel path runs on: min(threads, jobs, usable CPUs),
    once threads is an integer >= 1."""
    check_integer(threads, "threads")
    if threads < 1:
        raise InvalidArgumentError(f"threads must be >= 1, got {threads}")
    return min(threads, jobs, _usable_cpus())


def _forked_spans(fn, count: int, parts: int) -> list:
    """[fn(start, stop)] for the `parts` contiguous runs that split
    range(count) in order, their lengths differing by at most one.

    This process runs the first run itself; a child forked from it (POSIX
    only) runs each other run and sends its result back pickled through a
    pipe.  A child's exception reaches the caller with its class and message;
    a child that ends without a result raises DespeckleError naming its exit
    status.  No child outlives the call: when it raises, in this process's run
    or from a child, the children not yet collected are killed, and every
    child is reaped.  Python 3.12 and later may warn (DeprecationWarning) that
    forking a process with live threads can deadlock: numpy's OpenBLAS starts
    native threads at import.
    """
    edges = [count * p // parts for p in range(parts + 1)]
    # a buffered line would otherwise be written again by each child
    sys.stdout.flush()
    sys.stderr.flush()
    results = [None] * parts
    children = {}  # run -> (pid, read end of its pipe), until reaped
    try:
        for run in range(1, parts):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _run_child(fn, edges[run], edges[run + 1], write)
            os.close(write)
            children[run] = pid, os.fdopen(read, "rb")
        results[0] = fn(edges[0], edges[1])
        for run, (pid, pipe) in list(children.items()):
            payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[run]
            pipe.close()
            if not payload:
                raise DespeckleError(
                    f"worker process {pid} exited with status {status} and no result")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results[run] = value
        return results
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_child(fn, start: int, stop: int, write: int):
    """A forked child's whole life: run fn(start, stop), write (True, result)
    or (False, exception) to the pipe, and exit, never returning into the
    caller's stack.  An interrupt, or a reply that cannot be pickled, ends it
    with status 1 and no payload."""
    status = 1
    try:
        try:
            reply = True, fn(start, stop)
        except Exception as exc:
            reply = False, exc
        payload = pickle.dumps(reply)
        with open(write, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)
