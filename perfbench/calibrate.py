"""Fixed reference loops that measure how fast the host runs right now.

The host this benchmark was built on is a shared 2-core VM whose speed
drifts by 30% and more within seconds to minutes.  Process CPU time follows
wall time exactly there, so the drift is contention for the core, not stolen
time, and no choice of clock removes it.  The benchmark therefore times
reference loops all through each pass and reports times scaled to a host on
which the loops take their :data:`REF_S` seconds: a slow stretch of the host
then no longer reads as a slow program, while a change of the program still
moves the scaled time in full.

Contention slows different kinds of work by different amounts, so there is
one loop per kind of work the program does, and each workload is scaled by
the loops of the kinds it spends its time in (:data:`MIX`).  The loops never
call ``algconn``, so no change of the program can move them:

* ``orbit`` - whole-array numpy work on ~20 000-element arrays, as in the
  orbit dedup behind the enumeration;
* ``python`` - tuple, dict and sort work, as in canonical forms and the
  verifiers;
* ``jacobi`` - rotations on the rows of an 8x8 array, as in the Jacobi
  eigensolver;
* ``dp`` - the integer subset DP, as in the matching number.
"""

from __future__ import annotations

import itertools
import math
import signal
import statistics
import time

import numpy as np

#: Every 18th permutation of 9 points, as rows.
_PERM = np.array(list(itertools.islice(itertools.permutations(range(9)), 0, None, 18)))
_TABLE = np.arange(81, dtype=np.int64).reshape(9, 9) % 36
_NBR = [
    (1 << ((v + 1) % 12)) | (1 << ((v + 5) % 12)) | (1 << ((v - 1) % 12)) | (1 << ((v - 5) % 12))
    for v in range(12)
]


def _orbit() -> int:
    acc = np.zeros(_PERM.shape[0], dtype=np.uint64)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 4)):
        lo = np.minimum(_PERM[:, u], _PERM[:, v])
        hi = np.maximum(_PERM[:, u], _PERM[:, v])
        acc |= np.left_shift(np.uint64(1), _TABLE[lo, hi].astype(np.uint64))
    return int(np.unique(acc)[0])


def _python() -> int:
    seen: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(1500):
        key = ((i * 2654435761) & 0xFF, i % 7)
        seen[key] = seen.get(key, 0) + 1
        acc ^= key[0] << (i & 7)
    return acc + len(sorted(seen.items(), key=lambda kv: (kv[1], kv[0])))


def _jacobi() -> float:
    A = np.add.outer(np.arange(8.0), np.arange(8.0)) + np.eye(8)
    for k in range(320):
        p, q = k % 7, 7
        c, s = math.cos(0.1 * k), math.sin(0.1 * k)
        row_p = c * A[p] - s * A[q]
        row_q = s * A[p] + c * A[q]
        A[p] = row_p
        A[q] = row_q
        A[:, p] = row_p
        A[:, q] = row_q
    return float(A[0, 0])


def _dp() -> int:
    size = 1 << len(_NBR)
    table = bytearray(size)
    for mask in range(1, size):
        vbit = mask & -mask
        rest = mask ^ vbit
        best = table[rest]
        avail = _NBR[vbit.bit_length() - 1] & rest
        while avail:
            ubit = avail & -avail
            cand = table[rest ^ ubit] + 1
            if cand > best:
                best = cand
            avail ^= ubit
        table[mask] = best
    return table[-1]


LOOPS = {"orbit": _orbit, "python": _python, "jacobi": _jacobi, "dp": _dp}

#: Seconds each loop takes on the reference host: the 2-core VM the
#: benchmark was built on (Python 3.11, numpy 2.4) in its faster stretches.
REF_S = {"orbit": 0.0025, "python": 0.002, "jacobi": 0.0018, "dp": 0.0015}

#: The loops that stand for each workload's work, and for ``setup``
#: (interpreter start and imports, which touch every kind).
MIX = {
    "exhaustive": ("orbit",),
    "sampling": ("jacobi",),
    "stream": ("jacobi", "dp"),
    "setup": ("orbit", "python", "jacobi", "dp"),
}

#: Wall seconds between two samples taken inside a worker.
INTERVAL_S = 0.2

#: Samples the parent takes back to back next to a short child process.
PARENT_SAMPLES = 4


def slowness(mix: str) -> float:
    """One sample: how many times longer than on the reference host the
    loops of ``mix`` take now, averaged over the loops."""
    total = 0.0
    for name in MIX[mix]:
        start = time.perf_counter()
        LOOPS[name]()
        total += (time.perf_counter() - start) / REF_S[name]
    return total / len(MIX[mix])


def samples(mix: str, count: int = PARENT_SAMPLES) -> list[float]:
    return [slowness(mix) for _ in range(count)]


def scaled(seconds: float, taken: list[float]) -> float:
    """``seconds`` measured while ``taken`` were sampled, in seconds on the
    reference host.

    The host switches between a fast and a slow state (~1.9x apart for the
    ``jacobi`` loop), often within a pass, so the divisor is the mean sample:
    it weighs each state by the time spent in it, where the median would
    snap to one state.  The highest and lowest 5% of the samples are left
    out: one preemption of a few milliseconds multiplies a 2 ms loop but
    costs a pass only a small share of its time."""
    trim = len(taken) // 20
    return seconds / statistics.fmean(sorted(taken)[trim : len(taken) - trim])


class Sampler:
    """Takes one sample every :data:`INTERVAL_S` wall seconds from a
    ``SIGALRM`` handler, so the samples cover a pass evenly, and adds up the
    seconds the handler took so the caller can leave them out of the pass's
    time."""

    def __init__(self, mix: str | None) -> None:
        self.mix = mix
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(slowness(self.mix))
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
