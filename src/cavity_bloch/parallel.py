"""Work split across forked processes: how many, and the fork, pipe and reap
of each.

A split of n items runs on P processes, P the CPUs this process may run on
(_available_cpus) // its BLAS threads (_blas_threads), at least 1 and at
most n, so that BLAS threads do not oversubscribe the CPUs; with no BLAS
thread variable set, BLAS runs one thread per CPU and P is 1.
qed_bloch.sweep splits its axis values this way, and output's CSV and JSON
writers split the axis values of the spectrum they write.
"""

import os
import pickle
import signal
import threading
import traceback

#: the variables OpenBLAS (the BLAS of numpy's wheels) reads its thread count
#: from, in the order it reads them
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _available_cpus():
    """CPUs this process may run on: its affinity mask, which `taskset`
    narrows; 1 where the platform has no fork or no affinity mask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _blas_threads():
    """BLAS threads per process, read as OpenBLAS reads them: the first of
    BLAS_THREAD_VARIABLES that holds a positive integer, else one per
    available CPU, OpenBLAS's own default."""
    values = (os.environ.get(name, "").strip() for name in BLAS_THREAD_VARIABLES)
    return next((int(v) for v in values if v.isdecimal() and int(v) > 0), _available_cpus())


def process_count(items):
    """P, the processes a split of `items` items runs on."""
    return min(max(1, _available_cpus() // _blas_threads()), items)


class _ShareTraceback(Exception):
    """The traceback text of an exception raised in a forked process, set as
    the cause of that exception where the split re-raises it."""


def _deliver_share(solve_share, share, procs, read_fd, write_fd):
    """Body of a forked process: send solve_share(share, procs), or the
    exception it raised, as one pickle through the pipe `write_fd`.  Ends the
    process; never returns into the stack it was forked from."""
    status = 1
    try:
        os.close(read_fd)
        try:
            message = ("share", solve_share(share, procs))
        except BaseException as exc:  # not swallowed: the parent re-raises it
            message = ("error", exc, traceback.format_exc())
        try:
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        except Exception:  # an exception whose arguments do not pickle
            data = pickle.dumps(("error", RuntimeError(repr(message[1])), message[2]))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _received_share(data, status, share, procs, lost):
    """The dict a forked process sent, or the exception it raised."""
    try:
        message = pickle.loads(data) if status == 0 else None
    except Exception:  # a share cut short, or an exception that does not unpickle
        message = None
    if message is None:
        code = os.waitstatus_to_exitcode(status)
        raise lost(share, procs, f"killed by signal {-code}" if code < 0 else f"exit status {code}")
    if message[0] == "error":
        raise message[1] from _ShareTraceback(message[2])
    return message[1]


def _forked_shares(solve_share, procs, lost):
    """solve_share(share, procs) for every share in range(procs), merged into
    one dict in share order: share 0 in this process, each other share in a
    forked child.  None, with the children already started ended, if a fork
    fails."""
    children = []  # (pid, read end of its pipe, share) of each child not yet reaped
    try:
        for share in range(1, procs):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                return None
            if pid == 0:
                _deliver_share(solve_share, share, procs, read_fd, write_fd)
            os.close(write_fd)  # so that the pipe ends when the child does
            children.append((pid, os.fdopen(read_fd, "rb"), share))
        shares = solve_share(0, procs)
        while children:
            pid, pipe, share = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            shares.update(_received_share(data, status, share, procs, lost))
        return shares
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def split(solve_share, procs, lost):
    """solve_share(share, procs) for every share in range(procs), each a dict,
    merged into one in share order: share 0 in this process, each other
    share in a forked child that sends its dict back as one pickle through a
    pipe.

    The split runs in this process alone, as solve_share(0, 1), when procs
    is 1, when other threads run (fork copies only the calling thread) and
    when a fork fails; the children started before a failed fork are ended
    first.  An exception raised in a child is raised here with its type, the
    child's traceback text as its cause; a child that ends without
    delivering its share raises lost(share, procs, how), `how` naming its
    exit status or signal.  Every child is reaped before this returns or
    raises; when this process's own share, or reading a child's, raises,
    the other children are killed."""
    shares = None
    if procs > 1 and threading.active_count() == 1:
        shares = _forked_shares(solve_share, procs, lost)
    return solve_share(0, 1) if shares is None else shares
