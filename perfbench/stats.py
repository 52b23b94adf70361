"""Percentiles under a sample-count rule, and open-loop lateness accounting.

A percentile above the median is reported only when at least
``MIN_BEYOND`` samples lie beyond it: with fewer, the value is one of the
last few samples and moves from run to run with them.
"""

from __future__ import annotations

import math
import time

__all__ = [
    "MIN_BEYOND",
    "percentile",
    "reportable",
    "highest_reportable",
    "median",
    "Arrival",
    "lateness",
]

#: samples that must lie strictly beyond a reported tail percentile
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) of ``values``; ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def median(values) -> float:
    return percentile(values, 0.5)


def reportable(count: int, q: float) -> bool:
    """Whether the ``q`` percentile of ``count`` samples has enough samples beyond it.

    The median needs no tail: it is reportable from any non-empty sample.
    """
    if count <= 0:
        return False
    if q <= 0.5:
        return True
    return count * (1.0 - q) >= MIN_BEYOND - 1e-9


def highest_reportable(count: int, candidates=(0.99, 0.95, 0.9)) -> float | None:
    """The highest of ``candidates`` that :func:`reportable` allows, else ``None``."""
    for q in sorted(candidates, reverse=True):
        if reportable(count, q):
            return q
    return None


class Arrival:
    """One open-loop request: when it was due, sent and answered (seconds)."""

    __slots__ = ("due", "noticed", "sent", "done", "ok")

    def __init__(self, due: float):
        self.due = due
        self.noticed: float | None = None  # when the generator got round to it
        self.sent: float | None = None  # when a connection was free to send it
        self.done: float | None = None
        self.ok = False


def lateness(arrivals: list[Arrival]) -> dict[str, list[float]]:
    """Per-arrival latency, queueing and generator lag, all measured from ``due``.

    Latency runs from the due time, not the send time, so a stall charges
    every request that was due behind it.  ``queue`` is due-to-sent (waiting
    for a free connection); ``lag`` is due-to-noticed (the generator itself
    running late).  Unanswered arrivals have no latency.
    """
    latency, queue, lag = [], [], []
    for a in arrivals:
        if a.noticed is not None:
            lag.append(max(0.0, a.noticed - a.due))
        if a.sent is not None:
            queue.append(max(0.0, a.sent - a.due))
        if a.done is not None and a.ok:
            latency.append(a.done - a.due)
    return {"latency": latency, "queue": queue, "lag": lag}


#: wall seconds one :func:`speed_probe` takes at the reference speed
PROBE_REFERENCE_S = 0.007

_PROBE_ARRAY = None


def speed_probe() -> float:
    """Wall seconds of a fixed loop of interpreted Python and small numpy calls.

    On a shared machine the interpreter's speed drifts by tens of percent
    over seconds to minutes, and a probe run next to an op slows down with
    it.  The probe mixes the two kinds of work the ops do; it calls no
    library code, so a change to the library cannot move it.  Scaling an
    op's time by ``PROBE_REFERENCE_S / probe`` reports it at the reference
    speed.
    """
    import numpy as np

    global _PROBE_ARRAY
    if _PROBE_ARRAY is None:
        _PROBE_ARRAY = np.random.default_rng(1).integers(0, 256, 256)
    values = _PROBE_ARRAY
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(26_000):
        total += i * i % 7
        table[i & 1023] = total
    for _ in range(250):
        repeated = np.repeat(values[:32], 3)
        np.argsort(values, kind="stable")
        gathered = values[values]
        gathered[1:][gathered[1:] != gathered[:-1]]
        np.cumsum(repeated)
    return time.perf_counter() - start


def scaled(elapsed: float, probes) -> float:
    """``elapsed`` at the reference speed, given the probes taken around it."""
    return elapsed * PROBE_REFERENCE_S * len(probes) / sum(probes)
