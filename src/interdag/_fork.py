"""One forked child that shares a command's work on a second core, and the
frames it sends back.

Its users are the CSV reader and writer (``cli.ingest_csv``, ``cli.emit_csv``)
and the exact search's scoring (``search._dp_scores``).  Each decides
whether its work is worth a second process; this module decides whether a
second process may start at all.
"""

import contextlib
import os
import signal
import sys
import threading
import warnings


@contextlib.contextmanager
def _forked(worth: bool, work):
    """Run ``work()`` in a child started with ``os.fork`` and yield the
    frames it sends, read by ``_frames``; yield None, and start nothing,
    unless the caller finds the work ``worth`` a second process, the
    platform forks, two cores are usable, no other thread runs, as a fork
    copies only the calling thread, and this process is not a worker of a
    multiprocessing pool, such as the grid's, whose workers own the cores.

    The child collects every buffer ``work()`` yields before it writes
    any, as the parent may read none before it has done its own share, and
    a full pipe would stall the child until then.  It then writes each as a
    frame, its length in 8 little-endian bytes and then its bytes, and ends
    with an empty frame; ``work()`` yields no empty buffer, so an empty
    frame can only be the end.  The child always leaves through
    ``os._exit``, so it neither flushes inherited buffers nor returns into
    the caller; on every exit, an exception or an interrupt included, the
    parent kills the child and reaps it."""
    if not (worth and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and not _pool_worker() and len(os.sched_getaffinity(0)) >= 2):
        yield None
        return
    read_fd, write_fd = os.pipe()
    with contextlib.suppress(ImportError, OSError):
        # Linux's largest pipe for any user: a child whose frames fit exits
        # while the parent works, so reaping it does not wait
        from fcntl import F_SETPIPE_SZ, fcntl
        fcntl(write_fd, F_SETPIPE_SZ, 1 << 20)
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns of native threads too, such as a BLAS pool,
            # which hold no lock the child takes
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            buffers = list(work())
            with open(write_fd, "wb") as out:
                for buffer in buffers:
                    out.write(memoryview(buffer).nbytes.to_bytes(8, "little"))
                    out.write(buffer)
                out.write(bytes(8))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    if pid is None:
        os.close(read_fd)
        yield None
        return
    try:
        with open(read_fd, "rb") as child:
            yield _frames(child)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _pool_worker() -> bool:
    """Whether this process is a worker of a multiprocessing pool.  A process
    that never imported multiprocessing is none, so it is not imported here."""
    multiprocessing = sys.modules.get("multiprocessing")
    return multiprocessing is not None and multiprocessing.parent_process() is not None


def _frames(child):
    """Each frame read from the binary file ``child``, as bytes, up to the
    empty frame that ends them; then None, once, if the stream ends first."""
    while len(head := child.read(8)) == 8:
        size = int.from_bytes(head, "little")
        if not size:
            return
        frame = child.read(size)
        if len(frame) < size:
            break
        yield frame
    yield None
