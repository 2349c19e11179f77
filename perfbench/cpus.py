"""Machine speed: pinning to the fastest CPU and a reference piece of work.

On a shared virtual machine each virtual CPU slows down and speeds up on
its own, for spells of seconds to minutes, when its host core is busy with
other guests; the same Python code can take twice as long from one second
to the next. Two measures act against this, on the benchmark's own
processes only:

- Before each timed step the benchmark runs the reference work on every
  CPU it may use and pins itself to the fastest one.
- Every timed step is bracketed by the reference work on the same CPU, and
  the step's time is divided by the reference's. The slowdowns of a spell
  act on both alike, so the ratio holds still where the wall time does not.
  ``REFERENCE_S`` turns the ratio back into seconds.
"""

from __future__ import annotations

import os
import time

PINNABLE = hasattr(os, "sched_setaffinity")

# The nominal time of reference(): about its fastest time on a 2-vCPU Intel
# Xeon at 2.0 GHz with Python 3.11. A timed step of ratio r to the reference
# is reported as r * REFERENCE_S seconds.
REFERENCE_S = 0.003


def allowed() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if PINNABLE else []


def reference() -> float:
    """Seconds taken by a fixed piece of plain Python work of the kinds the
    program does: string formatting, splits and joins, dict and set
    updates, tuples and small sorts. It calls nothing of the program, so a
    change to the program leaves it as it is."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    seen = set()
    rows = []
    for i in range(1600):
        words = ("w%d x%d y%d" % (i % 37, i % 11, i)).split()
        for w in words:
            counts[w] = counts.get(w, 0) + 1
        key = (words[0], len(words), i & 7)
        if key not in seen:
            seen.add(key)
            rows.append(key)
        if i % 50 == 49:
            rows.sort()
            " ".join(w for w, _, _ in rows[-20:]).lower()
    return time.perf_counter() - start


def bracketed(step):
    """(result of step(), its wall seconds, the mean of the reference work
    timed just before and just after it)."""
    before = reference()
    start = time.perf_counter()
    result = step()
    elapsed = time.perf_counter() - start
    return result, elapsed, (before + reference()) / 2


def pin_fastest(cpus: list[int]) -> int | None:
    """Pin the calling process to the CPU whose reference work (best of
    two) ran fastest; returns that CPU, or None when there is nothing to
    choose."""
    if len(cpus) < 2:
        return None
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        took = min(reference(), reference())
        if best is None or took < best[0]:
            best = (took, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[1]


def unpin(cpus: list[int]) -> None:
    if PINNABLE and cpus:
        os.sched_setaffinity(0, set(cpus))
