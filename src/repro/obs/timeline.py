"""Per-process resource timeline: ring-buffered time series of CPU/RSS/GC.

One :class:`ResourceTimeline` lives inside the sampling profiler
(:mod:`repro.obs.prof`) and records, on every profiler tick, a fixed
set of process-resource series plus a mirror of the registry's
snapshot/delta gauges:

* ``cpu_seconds`` — cumulative process CPU time (``time.process_time``);
* ``rss_bytes`` — resident set size (``/proc/self/statm``, with a
  ``resource.getrusage`` peak-RSS fallback off Linux);
* ``gc_gen0``/``gc_gen1``/``gc_gen2`` — collector generation counts;
* ``gc_collections_total`` — cumulative collections across generations;
* ``gc_pause_seconds_total`` — cumulative stop-the-world GC pause time,
  measured by a ``gc.callbacks`` hook while the timeline is open;
* every registry series whose name starts with a mirrored prefix
  (``repro_snapshot_``, ``repro_frozen_``), so
  memory-footprint and serving-path gauges line up on the same clock
  as the profiler's stacks.

Storage is a bounded ring per series (``capacity`` samples; the oldest
fall off, counted in ``dropped``).  Timestamps use the tracer clock
(:func:`repro.obs.spans.now_us`), so timeline samples land on the same
timeline as spans in the Chrome trace, where the exporter renders each
series as a Perfetto counter track.

Crossing the process-pool boundary mirrors the metrics registry's
snapshot algebra: a worker ships :func:`subtract_timeline` deltas per
task, and the parent grafts them in submission order
(:meth:`ResourceTimeline.merge`), rebasing worker timestamps — which
are not comparable with the parent's — onto the end of the parent's
timeline, exactly like :func:`repro.obs.spans.graft_outcomes` does for
spans.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from typing import Any, Mapping

from repro.obs.metrics import _LOCK as _METRICS_LOCK
from repro.obs.metrics import registry
from repro.obs.spans import now_us

#: Series every open timeline records unconditionally on each tick —
#: the scheduling-invariant part of a profile's structure
#: (``structure_of`` keeps exactly these; the mirrored registry gauges
#: appear only once the run has published them).
FIXED_SERIES: tuple[str, ...] = (
    "cpu_seconds",
    "rss_bytes",
    "gc_gen0",
    "gc_gen1",
    "gc_gen2",
    "gc_collections_total",
    "gc_pause_seconds_total",
)

#: Registry series mirrored into the timeline (prefix match on the
#: serialized series key).
MIRRORED_PREFIXES: tuple[str, ...] = (
    "repro_snapshot_",
    "repro_frozen_",
)

#: Default ring capacity per series (~40 s of history at the default
#: 97 Hz profiling rate).
DEFAULT_CAPACITY = 4096

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _rss_bytes() -> float:
    """Resident set size in bytes (0.0 when unreadable)."""
    try:
        with open("/proc/self/statm", "rb") as statm:
            return float(int(statm.read().split()[1]) * _PAGE_SIZE)
    except (OSError, ValueError, IndexError):
        try:
            import resource

            # ru_maxrss is KiB on Linux (peak, not current — best effort).
            return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
        except Exception:
            return 0.0


class ResourceTimeline:
    """Ring-buffered per-process resource time series."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("timeline capacity must be >= 1")
        self.capacity = capacity
        #: series name -> list of ``[t_us, value]`` rows, oldest first.
        self._series: dict[str, list[list[float]]] = {}
        #: series name -> total samples ever appended (ring drops do not
        #: decrement; ``total - len(samples)`` = dropped).  This is the
        #: bookkeeping :func:`subtract_timeline` diffs against, the same
        #: role histogram ``count`` plays in the metrics algebra.
        self._total: dict[str, int] = {}
        self._gc_pause_start: float | None = None
        self._gc_pause_total = 0.0
        self._open = False
        #: record() runs on the profiler thread; snapshot()/merge() on
        #: whatever thread drives the pool — one lock keeps the rings
        #: consistent.
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> None:
        """Start GC-pause measurement and record the first tick."""
        if not self._open:
            self._open = True
            gc.callbacks.append(self._gc_callback)
        self.record()

    def close(self) -> None:
        """Record a final tick and unhook from the collector."""
        if self._open:
            self.record()
            self._open = False
            try:
                gc.callbacks.remove(self._gc_callback)
            except ValueError:
                pass

    def _gc_callback(self, phase: str, info: Mapping[str, Any]) -> None:
        if phase == "start":
            self._gc_pause_start = time.perf_counter()
        elif phase == "stop" and self._gc_pause_start is not None:
            self._gc_pause_total += time.perf_counter() - self._gc_pause_start
            self._gc_pause_start = None

    # -- sampling ----------------------------------------------------------

    def record(self) -> None:
        """Append one sample to every series (one profiler tick)."""
        stamp = float(now_us())
        gen0, gen1, gen2 = gc.get_count()
        collections = float(sum(s["collections"] for s in gc.get_stats()))
        values: list[tuple[str, float]] = [
            ("cpu_seconds", time.process_time()),
            ("rss_bytes", _rss_bytes()),
            ("gc_gen0", float(gen0)),
            ("gc_gen1", float(gen1)),
            ("gc_gen2", float(gen2)),
            ("gc_collections_total", collections),
            ("gc_pause_seconds_total", self._gc_pause_total),
        ]
        reg = registry()
        with _METRICS_LOCK:
            for key, gauge in reg._gauges.items():
                if key.startswith(MIRRORED_PREFIXES):
                    values.append((key, float(gauge.value)))
            for key, counter in reg._counters.items():
                if key.startswith(MIRRORED_PREFIXES):
                    values.append((key, float(counter.value)))
        with self._lock:
            for name, value in values:
                self._append(name, stamp, value)

    def _append(self, name: str, stamp: float, value: float) -> None:
        rows = self._series.setdefault(name, [])
        rows.append([stamp, value])
        self._total[name] = self._total.get(name, 0) + 1
        if len(rows) > self.capacity:
            del rows[: len(rows) - self.capacity]

    # -- snapshot / merge (the cross-process currency) ---------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-able form: per-series samples + append totals."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "series": {
                    name: {
                        "samples": [list(row) for row in rows],
                        "total": self._total.get(name, len(rows)),
                    }
                    for name, rows in sorted(self._series.items())
                },
            }

    def merge(self, delta: Mapping[str, Any]) -> None:
        """Graft a worker's timeline delta onto this timeline.

        Worker clocks are not comparable with the parent's, so incoming
        samples are rebased as one block onto the end of the parent
        timeline (relative spacing inside the delta is preserved) —
        called in submission order, like every other cross-process
        merge, so the result is scheduling-independent in structure.
        """
        series = delta.get("series", {})
        if not series:
            return
        starts = [
            data["samples"][0][0]
            for data in series.values()
            if data.get("samples")
        ]
        if not starts:
            return
        base = min(starts)
        with self._lock:
            cursor = 0.0
            for rows in self._series.values():
                if rows:
                    cursor = max(cursor, rows[-1][0])
            offset = cursor - base
            for name, data in sorted(series.items()):
                for stamp, value in data.get("samples", ()):
                    self._append(name, stamp + offset, value)


def subtract_timeline(after: Mapping[str, Any],
                      before: Mapping[str, Any]) -> dict[str, Any]:
    """``after - before``: the samples appended since ``before`` was
    taken (per series, via the append totals — exact even across ring
    drops).  Series with nothing new are omitted."""
    series: dict[str, Any] = {}
    before_series = before.get("series", {})
    for name, data in after.get("series", {}).items():
        fresh = data.get("total", 0) - before_series.get(name, {}).get("total", 0)
        if fresh <= 0:
            continue
        samples = data.get("samples", [])
        kept = samples[-fresh:] if fresh < len(samples) else samples
        if kept:
            series[name] = {"samples": [list(row) for row in kept],
                            "total": len(kept)}
    return {"series": series} if series else {}


__all__ = [
    "DEFAULT_CAPACITY",
    "FIXED_SERIES",
    "MIRRORED_PREFIXES",
    "ResourceTimeline",
    "subtract_timeline",
]
