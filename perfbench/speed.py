"""Times scaled to a fixed machine speed.

The machine this benchmark was built on shares its cores with other
tenants: the same pure-Python loop runs anywhere from 0.7x to 2x its usual
time, and the speed drifts over seconds.  Raw seconds of one run then say as
much about the neighbours as about dualgraph.  So every end-to-end time is
scaled by the machine's speed while it was measured: work is timed in
windows of at least WINDOW_S, a fixed reference loop is timed between
windows, and a window's seconds are multiplied by NOMINAL_S over the mean of
the reference times on either side of it.  On a machine where the loop
takes NOMINAL_S the scaled seconds are the raw ones.

The loop parses text into a dict and links it into adjacency lists, the
kind of work dualgraph does, but with no dualgraph code in it, so a change
to dualgraph cannot change the scale.  It runs with the garbage collector
off, so the objects dualgraph keeps alive do not change its time either.
"""

from __future__ import annotations

import gc
from time import perf_counter

NOMINAL_S = 0.005
WINDOW_S = 0.15
_LINES = 4500  # 5 to 8 ms on the 2.1 GHz cores it was built on, Python 3.11


_TEXT = "\n".join(f"v {i * 7919 % 100003} {-2 - i % 7}" for i in range(_LINES))


def _loop() -> int:
    """Parse vertex lines into a dict, sort them and link neighbours: the
    kind of work dualgraph does, with no dualgraph code in it."""
    weights: dict[int, int] = {}
    for line in _TEXT.splitlines():
        _, vid, weight = line.split()
        weights[int(vid)] = int(weight)
    order = sorted(weights.items())
    adj: dict[int, list[int]] = {v: [] for v in weights}
    for (u, _), (v, _) in zip(order, order[1:]):
        adj[u].append(v)
        adj[v].append(u)
    return len(adj)


def reference_s() -> float:
    """Seconds the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Scaled:
    """Raw and speed-scaled seconds of each timed operation, in order."""

    def __init__(self):
        self.metrics: list[str] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._window_s = 0.0
        self._ref = reference_s()

    def add(self, metric: str, seconds: float) -> None:
        self.metrics.append(metric)
        self.raw.append(seconds)
        self._window_s += seconds
        if self._window_s >= WINDOW_S:
            self.close()

    def close(self) -> None:
        """End the current window: time the loop and scale the window."""
        ref = reference_s()
        factor = NOMINAL_S / ((self._ref + ref) / 2)
        self.scaled += [s * factor for s in self.raw[len(self.scaled):]]
        self._window_s = 0.0
        self._ref = ref
