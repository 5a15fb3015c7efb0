"""The reference work that benchmark times are scaled by.

On a shared machine the CPU alternates between a quiet state and a loaded
one in which everything runs slower, and at times stays loaded for a whole
run. A run therefore also times work that runs no package code and that a
loaded CPU slows about as much as it slows the package: `calibrate()`, a
pure-Python mix, for operations inside the worker process, and `spawn_ms`
of a bare interpreter start for CLI processes and worker set-up. A time is
reported scaled by the reference time on the machine where the bounds were
set over the reference time in the run. No package change can move the
reference work, so a slower or faster package still shows in full.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

# The 2-vCPU Xeon (Sapphire Rapids) KVM guest where the bounds were set:
# fastest calibrate() and median bare interpreter start there, ms.
CALIB_REF_MS = 2.40
SPAWN_REF_MS = 70.0

_RNG = random.Random(0)
_PAIRS = [(_RNG.randrange(1 << 20), _RNG.randrange(64)) for _ in range(4000)]


class _Node:
    __slots__ = ("left", "right", "size")

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.size = 1 if left is None else left.size + right.size


def calibrate() -> float:
    """Time of a fixed mix of pure-Python work: integer arithmetic, a dict and
    a set of tuples, and building and walking a tree of slotted objects. A
    loaded CPU slows this mix about as much as the package's operations
    (integer arithmetic alone, clearly less), ms."""
    t0 = time.perf_counter()
    x = 0
    for i in range(15_000):
        x += i * i % 7
    counts, seen = {}, set()
    for a, b in _PAIRS:
        key = (a >> 3, b)
        counts[key] = counts.get(key, 0) + 1
        if b & 1:
            seen.add(a)
    level = [_Node(None, None) for _ in range(512)]
    while len(level) > 1:
        level = [_Node(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    stack, walked = [level[0]], 0
    while stack:
        v = stack.pop()
        walked += v.size
        if v.left is not None:
            stack += [v.left, v.right]
    return 1000.0 * (time.perf_counter() - t0)


def spawn_ms(code: str, env: dict | None = None) -> float:
    """Time from spawn to exit of `python -c code`, ms. No timeout: with one,
    subprocess polls for the exit with sleeps growing to 50 ms, and the time
    reads 64 or 114 ms for a 60 ms start."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return 1000.0 * (time.perf_counter() - t0)
