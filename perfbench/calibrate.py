"""Host-speed calibration.

The benchmark shares a few cores of a host whose speed changes several-fold
from minute to minute with the load of other tenants.  Process CPU time
slows as much as wall time, so the process is not merely descheduled and
CPU time is no way out.  Between operations the benchmark runs ``unit()``, a fixed
piece of pure-Python work that does not touch bethpal: memoized evaluation
of 40 fixed formulas over a fixed 24-node preorder, with tuples, frozensets
and dict look-ups like the program's evaluator.  The ratio of its time to
``REFERENCE_UNIT_S`` says how fast the host runs at that moment, and
``run.py`` scales its timings by it.  A change to bethpal cannot change the
unit's time, so a faster program still shows as faster.
"""
from __future__ import annotations

import gc
import random
import time

# Time of one unit on the reference host (README, "Calibration").
REFERENCE_UNIT_S = 0.002


def _build():
    rng = random.Random(12345)
    n = 24
    up = {i: frozenset(j for j in range(i, n) if j == i or rng.random() < 0.3)
          for i in range(n)}
    val = {i: frozenset(a for a in "pqr" if rng.random() < 0.4) for i in range(n)}

    def formula(depth: int) -> tuple:
        if depth == 0 or rng.random() < 0.2:
            return ("atom", rng.choice("pqr"))
        kind = rng.choice(("not", "and", "or", "imp", "box"))
        if kind in ("not", "box"):
            return (kind, formula(depth - 1))
        return (kind, formula(depth - 1), formula(depth - 1))

    return n, up, val, [formula(4) for _ in range(40)]


_N, _UP, _VAL, _FORMULAS = _build()


def _holds(f: tuple, i: int, memo: dict) -> bool:
    key = (f, i)
    r = memo.get(key)
    if r is not None:
        return r
    tag = f[0]
    if tag == "atom":
        r = f[1] in _VAL[i]
    elif tag == "not":
        r = all(not _holds(f[1], j, memo) for j in _UP[i])
    elif tag == "and":
        r = _holds(f[1], i, memo) and _holds(f[2], i, memo)
    elif tag == "or":
        r = _holds(f[1], i, memo) or _holds(f[2], i, memo)
    elif tag == "imp":
        r = all((not _holds(f[1], j, memo)) or _holds(f[2], j, memo) for j in _UP[i])
    else:
        r = all(_holds(f[1], j, memo) for j in _UP[i])
    memo[key] = r
    return r


def unit() -> int:
    """One calibration unit; returns the number of (formula, node) pairs
    that hold, which is the same on every call."""
    memo: dict = {}
    # A collection of the program's heap inside the unit would time the
    # program, not the host; the unit itself makes no reference cycles.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return sum(_holds(f, i, memo) for f in _FORMULAS for i in range(_N))
    finally:
        if enabled:
            gc.enable()


def unit_times(n: int) -> list[float]:
    """Run ``n`` units; returns the time of each (s)."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        unit()
        times.append(time.perf_counter() - t0)
    return times
