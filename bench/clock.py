"""CPU time scaled to a reference machine speed.

On a shared machine the speed of a core changes from one second to the
next with the load that other processes put on the caches and cores it
shares, by up to a factor of two; CPU time does not remove that.  So every
measured stretch of work is bracketed by two runs of :func:`calibrate`, a
fixed piece of pure-Python work like the program's own, and scaled by how
much slower than :data:`REFERENCE_S` those ran.  The scaled times read as
seconds on a machine on which ``calibrate`` takes ``REFERENCE_S`` of CPU
time, about an idle core of the 2-core x86-64 container the benchmark was
written on.
"""

from __future__ import annotations

from time import process_time

REFERENCE_S = 0.004

_TERMS = {
    (i, j): (7919 * i + 104729 * j) % 1000003 for i in range(12) for j in range(12)
}


def calibrate() -> float:
    """CPU time of one fixed product of two dictionary polynomials."""
    start = process_time()
    out: dict = {}
    for (i, j), c in _TERMS.items():
        for (k, m), d in _TERMS.items():
            e = (i + k, j + m)
            out[e] = out.get(e, 0) + c * d
    return process_time() - start


def scale(before: float, after: float) -> float:
    """Factor that turns CPU time measured between two calibrations into
    reference seconds."""
    return 2 * REFERENCE_S / (before + after)
