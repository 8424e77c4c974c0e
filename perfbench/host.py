"""A probe of the host's current speed.

On a host shared with other tenants, everything this process runs can
slow down at once, by 1.6-1.7x, for seconds to minutes.  The probe times
a small fixed workload that shares no code with the program (dictionary
probes and a sort over a few MB, pure Python) right before and after a
timed region; the ratio of its time to :data:`REFERENCE_S` is the
host's slowdown during that region.
"""

from __future__ import annotations

import random
import time

#: The probe's time in the host's fast state, measured on a 2-CPU Xeon
#: VM; adjusted times are scaled to it.
REFERENCE_S = 0.0135
#: Entries in the probe's table, and probes per sample.
KEYS = 60_000


class HostProbe:
    """The probe's data, built once per process, and its timing."""

    def __init__(self) -> None:
        rng = random.Random(0)
        universe = [rng.randrange(1 << 40) for _ in range(KEYS)]
        self._table = {key: (key, key & 7) for key in universe}
        self._probes = [rng.choice(universe) for _ in range(KEYS)]

    def sample(self) -> float:
        start = time.perf_counter()
        table = self._table
        total = 0
        for key in self._probes:
            total += table[key][1]
        sorted(self._probes[: len(self._probes) // 4])
        return time.perf_counter() - start

    def slowdown(self) -> float:
        """The host's slowdown now: the faster of two samples over the
        reference time."""
        return min(self.sample(), self.sample()) / REFERENCE_S
