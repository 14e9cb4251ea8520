"""Host speed probe: a fixed pure-Python loop timed around each measurement.

On a shared host the same code does not always run at the same speed.
For spells of a few seconds to half a minute everything (the solver,
this loop, numpy FFTs) runs 1.4-1.9x slower, so a one-minute run's wall
times depend on how much of it fell in slow spells. The probe loop is
timed just before and just after each measurement, and the measurement is
multiplied by ``factor(probe)`` = ``REFERENCE_S / probe``: it is then
given in seconds at the reference speed, at which the loop takes
``REFERENCE_S`` (about its time on a 2-core Xeon VM outside slow spells).
The probe touches no solver code, so a change to the solver moves the
scaled times as much as the wall times. The correction is not exact:
set-up (imports) slows less than the loop in slow spells, and is
over-corrected there. Standard library only, so that it can run before
numpy is imported.
"""
from __future__ import annotations

from time import perf_counter

REFERENCE_S = 1.5e-3
LOOP = 8_000
REPEATS = 3

_TABLE = {i: i * i for i in range(512)}


def _loop() -> int:
    # Dictionary look-ups, integer arithmetic and small allocations, the
    # interpreter work the solver does most; it tracked the solver's slow
    # spells more closely than numpy FFTs or memory sweeps did.
    table = _TABLE
    acc = 0
    kept = {}
    for i in range(LOOP):
        acc += table[i & 511] * i
        if i & 3 == 0:
            kept[str(i)] = (i, acc)
    return len(kept)


def probe_seconds() -> float:
    """The fastest of ``REPEATS`` timings of the probe loop."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        _loop()
        best = min(best, perf_counter() - start)
    return best


def factor(probe_s: float) -> float:
    """What a wall time measured at probe time ``probe_s`` is scaled by."""
    return REFERENCE_S / probe_s
