"""Per-layer timing for the traced run.

:class:`LayerTimer` wraps, from outside the program, the public
functions of each layer and times every call into them.  Times go into
the program's own metrics registry (``repro.obs.metrics``) as one
histogram per layer; the process pool already ships registry deltas
back from its workers, so calls made in a forked worker are counted
too.  In the calling process the timer also sums the time spent in
outermost wrapped calls, so that a run call's wall time minus that sum
is the time no layer accounts for.

Operator self time comes from the program's span tracer
(``repro.obs.spans``): an operator span's duration minus the part of
it that operator spans started inside it cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

from repro.engine import merge_counters
from repro.exec import WorkerPool
from repro.graph.frozen import FreezeManager
from repro.graph.store import SocialGraph
from repro.obs.metrics import registry, series_key
from repro.params.curation import ParameterGenerator
from repro.queries.bi import ALL_QUERIES
from repro.queries.interactive.deletes import ALL_DELETES
from repro.queries.interactive.updates import ALL_UPDATES

SECONDS = "perfbench_layer_seconds"
ERRORS = "perfbench_layer_errors"

#: Operators that open spans (``repro.engine.operators``).
OPERATORS = ("scan_messages", "scan_forum_posts", "scan_persons",
             "scan_forums", "scan_likes", "expand", "group_count",
             "group_agg")

#: Exact engine counters reported per layer.
ENGINE_COUNTERS = ("rows_scanned", "index_scans", "full_scans",
                   "edges_expanded", "groups_created", "heap_inserts")

#: (module, attribute, layer) for module-level functions.  A function
#: is patched in every loaded ``repro`` module that bound it by name.
FUNCTIONS = (
    ("repro.datagen.generator", "generate", "datagen.generate"),
    ("repro.graph.frozen", "freeze", "graph.freeze"),
    ("repro.graph.snapfile", "write_snapshot", "graph.snapfile_write"),
    ("repro.graph.snapfile", "rebuild_store", "graph.rebuild"),
    ("repro.exec.snapshot", "provide_snapshot", "exec.provide"),
    ("repro.driver.bi_driver", "build_microbatches", "driver.microbatches"),
)

#: (class, attribute, layer) for methods.
METHODS = (
    (SocialGraph, "from_data", "graph.load"),
    (FreezeManager, "frozen", "graph.frozen_view"),
    (FreezeManager, "compact", "graph.delta_compaction"),
    (ParameterGenerator, "__init__", "params.curate"),
    (ParameterGenerator, "bi", "params.bind"),
)


def query_layer(number: int) -> str:
    return f"queries.bi.q{number:02d}"


class LayerTimer:
    """Times calls into the program's layers while installed."""

    def __init__(self) -> None:
        self.depth = 0
        #: Seconds spent in outermost wrapped calls, in this process.
        self.attributed = 0.0
        #: Every ``WorkerPool.run`` result, in call order.
        self.pool_results: list[Any] = []
        self._undo: list[Callable[[], None]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, layer: str, fn: Callable) -> Callable:
        timer = self
        histogram = registry().histogram(SECONDS, layer=layer)
        errors = registry().counter(ERRORS, layer=layer)

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            outermost = timer.depth == 0
            timer.depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors.inc()
                raise
            finally:
                elapsed = time.perf_counter() - start
                timer.depth -= 1
                histogram.observe(elapsed)
                if outermost:
                    timer.attributed += elapsed

        return timed

    def _set(self, owner: Any, name: str, value: Any) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, original))

    def _patch_function(self, module_name: str, name: str, layer: str) -> None:
        original = getattr(importlib.import_module(module_name), name)
        wrapped = self.wrap(layer, original)
        for module_key, module in list(sys.modules.items()):
            if module_key.split(".")[0] == "repro" and getattr(module, name, None) is original:
                self._set(module, name, wrapped)

    def _patch_method(self, cls: type, name: str, layer: str) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            self._set(cls, name, classmethod(self.wrap(layer, raw.__func__)))
        else:
            self._set(cls, name, self.wrap(layer, raw))

    def _patch_table(self, table: dict, layer: Callable[[int], str]) -> None:
        for key, (fn, *rest) in list(table.items()):
            original = table[key]
            table[key] = (self.wrap(layer(key), fn), *rest)
            self._undo.append(
                lambda key=key, original=original: table.__setitem__(key, original)
            )

    def install(self) -> "LayerTimer":
        for module_name, name, layer in FUNCTIONS:
            self._patch_function(module_name, name, layer)
        for cls, name, layer in METHODS:
            self._patch_method(cls, name, layer)
        run = WorkerPool.__dict__["run"]
        timed_run = self.wrap("exec.pool_run", run)

        def pool_run(pool: WorkerPool, tasks: Iterable) -> Any:
            result = timed_run(pool, tasks)
            self.pool_results.append(result)
            return result

        self._set(WorkerPool, "run", pool_run)
        self._patch_table(ALL_QUERIES, query_layer)
        self._patch_table(ALL_UPDATES, lambda _: "graph.write")
        self._patch_table(ALL_DELETES, lambda _: "graph.write")
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading -------------------------------------------------------------

    def mark(self) -> dict[str, Any]:
        """A reading to take :meth:`since` against later."""
        return {
            "registry": registry().snapshot(),
            "attributed": self.attributed,
            "pools": len(self.pool_results),
        }

    def since(self, mark: dict[str, Any]) -> dict[str, Any]:
        """Per-layer seconds, calls and errors since ``mark``, plus the
        pool results and attributed seconds of the same interval."""
        now = registry().snapshot()
        before = mark["registry"]
        layers: dict[str, dict[str, float]] = {}
        prefix = SECONDS + "{"
        for key, data in now["histograms"].items():
            if not key.startswith(prefix):
                continue
            old = before["histograms"].get(key, {"sum": 0.0, "count": 0})
            layer = key[len(prefix) + len('layer="'):-2]
            errors_key = series_key(ERRORS, {"layer": layer})
            layers[layer] = {
                "seconds": data["sum"] - old["sum"],
                "calls": data["count"] - old["count"],
                "errors": now["counters"].get(errors_key, 0)
                - before["counters"].get(errors_key, 0),
            }
        return {
            "layers": layers,
            "attributed": self.attributed - mark["attributed"],
            "pools": self.pool_results[mark["pools"]:],
        }


def pool_figures(pools: list[Any]) -> dict[str, float]:
    """Totals over ``WorkerPool.run`` results: tasks, failures, task
    time, and pool time not covered by task time spread over workers."""
    figures = {"tasks": 0, "failures": 0, "retries": 0, "timeouts": 0,
               "crashes": 0, "task_s": 0.0, "overhead_s": 0.0}
    for result in pools:
        task_s = sum(outcome.duration for outcome in result.outcomes)
        figures["tasks"] += len(result.outcomes)
        figures["failures"] += result.failures
        figures["retries"] += result.retries
        figures["timeouts"] += result.timeouts
        figures["crashes"] += result.crashes
        figures["task_s"] += task_s
        figures["overhead_s"] += result.elapsed - task_s / result.workers
    counters = merge_counters(result.counters for result in pools)
    for name in ENGINE_COUNTERS:
        figures[f"engine.{name}"] = counters.get(name, 0)
    return figures


def operator_self_us(roots: Iterable[Any]) -> dict[str, float]:
    """Self time per operator name, in microseconds, over span trees.

    Operator spans are leaves under their task span, and an operator
    that consumes another's output (``group_count`` over a scan) is
    open while the other runs.  So among sibling operator spans, one
    that starts inside another counts as its child: the outer span's
    self time excludes the part of its interval the inner one covers.
    """
    totals: dict[str, float] = defaultdict(float)

    def visit(span: Any) -> None:
        operators = sorted(
            (c for c in span.children if c.kind == "operator"),
            key=lambda c: (c.start_us, -(c.duration_us or 0)),
        )
        covered: dict[int, int] = defaultdict(int)
        stack: list[Any] = []
        for op in operators:
            while stack and stack[-1].end_us <= op.start_us:
                stack.pop()
            if stack:
                outer = stack[-1]
                covered[id(outer)] += min(op.end_us, outer.end_us) - op.start_us
            stack.append(op)
        for op in operators:
            totals[op.name] += max(0, (op.duration_us or 0) - covered[id(op)])
        for child in span.children:
            visit(child)

    for root in roots:
        visit(root)
    return totals
