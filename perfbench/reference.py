"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the same operation can take half again as long from one
minute to the next, and the machine's speed swings by a factor of two within
a second.  Each timed operation therefore times this kernel in the same
process, once every ``SAMPLE_INTERVAL_S`` during the CLI call, from a timer
signal, so that the samples cover the call evenly.  The benchmark divides the
operation's wall time by the kernel's mean time, as the operation's own time
is the sum of its work at each moment.  The kernel does not touch interdag,
so a change to interdag moves the operation but not the kernel.  Its work
mixes what interdag's hot paths do: small-matrix numpy solves on gathered
submatrices, Python loops over tuples and dicts, and text parsing into
floats.

    python3 perfbench/reference.py      # print the time of a few repetitions
"""

import contextlib
import signal
import statistics
import time

import numpy as np

# Kernel time per repetition, in seconds, on the 2-core machine the benchmark
# was written on at its fast steady speed.  Scaled times are reported as
# ``wall time * REFERENCE_S / measured kernel time``.
REFERENCE_S = 0.004
SAMPLE_INTERVAL_S = 0.1
MIN_SAMPLES = 10  # a call too short for this many is topped up after it ends

_P = 12
_ROWS = 20
_rng = np.random.default_rng(20130314)
_DATA = _rng.standard_normal((200, _P))
_GRAM = _DATA.T @ _DATA / len(_DATA) + np.eye(_P)
_TEXT = "\n".join(",".join(f"{v:.6f}" for v in row) for row in _DATA[:_ROWS])


def kernel() -> float:
    """One repetition of fixed work; returns a checksum so nothing is skipped."""
    total = 0.0
    cache: dict[tuple[int, tuple[int, ...]], float] = {}
    for i in range(150):
        k = i % _P
        parents = tuple(sorted({(k + 1 + j * (1 + i % 7)) % _P for j in range(1 + i % 6)} - {k}))
        total += cache.get((k, parents), 0.0)
        idx = list(parents)
        block = _GRAM[np.ix_(idx, idx)]
        beta = np.linalg.solve(block, _GRAM[idx, k])
        resid = float(_GRAM[k, k] - _GRAM[k, idx] @ beta)
        cache[k, parents] = resid
        total += resid
    for line in _TEXT.splitlines():
        total += sum(float(cell) for cell in line.split(","))
    return total


def timed_reps(reps: int) -> list[float]:
    """Wall time of each of ``reps`` kernel repetitions."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def speed(times: list[float]) -> float:
    """Mean kernel time over the samples, topped up to ``MIN_SAMPLES`` first."""
    return statistics.fmean(times + timed_reps(MIN_SAMPLES - len(times)))


@contextlib.contextmanager
def sampled(times: list[float], interval: float = SAMPLE_INTERVAL_S):
    """Time one kernel repetition every ``interval`` seconds while the block runs.

    Each repetition's time is appended to ``times``.  The handler runs in the
    main thread between bytecodes, so the block's own wall time includes the
    repetitions; the caller subtracts ``sum(times)``.
    """

    def handler(signum, frame):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


if __name__ == "__main__":
    kernel()  # warm-up
    print(" ".join(f"{t:.4f}" for t in timed_reps(MIN_SAMPLES)))
