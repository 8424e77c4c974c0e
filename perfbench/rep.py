"""One step of a benchmark run, in a fresh process.

Run by ``perfbench/run.py``; prints one JSON object as its last line.

``--role reference`` sets up the workload's graph, redoes the run's
writes on it with plain serial calls and records the expected results
of the run's bindings (``repro.driver.validation``).  With ``--live``
it also times the run's work on that live store: the live-serial
baseline.

``--role run`` sets up, makes timed run calls for ``--seconds``, reads
the peak memory, then checks the graph the calls left against the
reference read from standard input.  With ``--trace`` it makes
untraced calls first and then as many with layer timing and the span
tracer on, and reports per-layer figures.

Every timed region is bracketed by host probes (``host.HostProbe``).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from host import HostProbe  # noqa: E402
from layers import (  # noqa: E402
    ENGINE_COUNTERS,
    OPERATORS,
    LayerTimer,
    operator_self_us,
    pool_figures,
    query_layer,
)
from workloads import NUMBERS, WORKLOADS, Call, datagen_counts, setup  # noqa: E402

from repro.obs.spans import disable_tracing, enable_tracing, tracer  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest of its
    finished child processes (the pool's workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def timed_calls(workload, bench, seed: int, seconds: float, at_least: int,
                probe: HostProbe):
    """Timed run calls: at least ``at_least``, then another only while,
    judged by the previous one, the calls' summed time stays within
    ``seconds``.  A workload that changes the graph gets a freshly
    set-up graph for each call after the first.  Returns the graph, the
    calls, the further set-ups as [seconds, adjusted seconds] and the
    peak memory after the first call."""
    calls: list[Call] = []
    setups: list[list[float]] = []
    peak_mb = 0.0
    spent = 0.0
    while len(calls) < at_least or spent + calls[-1].run_s <= seconds:
        if calls and workload.mutates:
            bench = None
            gc.collect()
            bench, setup_s, adjusted = setup(seed, probe)
            setups.append([setup_s, adjusted])
        gc.collect()
        before = probe.slowdown()
        call = workload.call(bench)
        call.slowdown = (before + probe.slowdown()) / 2
        calls.append(call)
        spent += call.run_s
        if len(calls) == 1:
            # Later calls of a workload that changes the graph would
            # carry over memory from the earlier ones.
            peak_mb = peak_rss_mb()
    return bench, calls, setups, peak_mb


def reference(args, workload, probe: HostProbe) -> dict:
    bench, setup_s, adjusted = setup(args.seed, probe)
    out = {"setups": [[setup_s, adjusted]], "datagen": datagen_counts(bench)}
    if not args.live:
        _, bindings = workload.replay(bench, reads=False)
    else:
        # A workload that changes the graph can be replayed only once.
        out["live"] = []
        for _ in range(1 if workload.mutates else args.passes):
            before = probe.slowdown()
            seconds, bindings = workload.replay(bench, reads=True)
            out["live"].append([seconds, (before + probe.slowdown()) / 2])
    out["reference"] = workload.reference(bench, bindings)
    return out


def layer_figures(delta: dict, setup_delta: dict, calls: list[Call],
                  spans_us: dict) -> dict:
    """The per-layer figures of the traced calls, per call."""
    n = len(calls)
    layers = delta["layers"]

    def seconds(layer: str, source: dict = layers) -> float:
        return source.get(layer, {}).get("seconds", 0.0)

    def count(layer: str, key: str = "calls") -> float:
        return layers.get(layer, {}).get(key, 0)

    pools = pool_figures(delta["pools"])
    writes = count("graph.write")
    skipped = count("graph.write", "errors")
    figures = {
        "datagen.generate_s": seconds("datagen.generate", setup_delta["layers"]),
        "graph.load_s": seconds("graph.load", setup_delta["layers"]),
        "params.curate_s": seconds("params.curate", setup_delta["layers"]),
        "graph.freeze_s": seconds("graph.freeze") / n,
        "graph.freeze_calls": count("graph.freeze") / n,
        "graph.frozen_view_s": seconds("graph.frozen_view") / n,
        "graph.frozen_view_calls": count("graph.frozen_view") / n,
        "graph.delta_compactions": count("graph.delta_compaction") / n,
        "graph.write_s": seconds("graph.write") / n,
        "graph.writes_attempted": writes / n,
        "graph.writes_applied": (writes - skipped) / n,
        "graph.writes_skipped": skipped / n,
        "graph.writes_applied_ratio": (writes - skipped) / writes if writes else 0.0,
        "graph.snapfile_write_s": seconds("graph.snapfile_write") / n,
        "graph.rebuild_s": seconds("graph.rebuild") / n,
        "params.bind_s": seconds("params.bind") / n,
        "driver.microbatches_s": seconds("driver.microbatches") / n,
        "exec.provide_s": seconds("exec.provide") / n,
        "exec.pool_runs": count("exec.pool_run") / n,
        "exec.pool_run_s": seconds("exec.pool_run") / n,
        "exec.task_s": pools["task_s"] / n,
        "exec.pool_overhead_s": pools["overhead_s"] / n,
        "exec.tasks": pools["tasks"] / n,
        "exec.failures": pools["failures"] / n,
        "exec.retries": pools["retries"] / n,
        "exec.timeouts": pools["timeouts"] / n,
        "exec.crashes": pools["crashes"] / n,
    }
    for name in ENGINE_COUNTERS:
        figures[f"engine.{name}"] = pools[f"engine.{name}"] / n
    for name in OPERATORS:
        figures[f"engine.{name}.self_ms"] = spans_us.get(name, 0.0) / 1000.0 / n
    for number in NUMBERS:
        layer = layers.get(query_layer(number), {})
        per_call = layer["seconds"] / layer["calls"] if layer.get("calls") else 0.0
        figures[f"queries.bi.q{number:02d}_ms"] = 1000.0 * per_call
    run_s = sum(call.run_s for call in calls) / n
    figures["driver.unattributed_s"] = run_s - delta["attributed"] / n
    return figures


def run(args, workload, reference_set: dict, probe: HostProbe) -> dict:
    traced = args.trace
    timer = LayerTimer()
    setup_mark = timer.install().mark() if traced else None
    try:
        bench, setup_s, adjusted = setup(args.seed, probe)
        setup_delta = timer.since(setup_mark) if traced else None
    finally:
        timer.uninstall()
    bench, calls, more, peak_mb = timed_calls(
        workload, bench, args.seed, args.seconds, args.passes, probe
    )
    out = {"setups": [[setup_s, adjusted], *more], "datagen": datagen_counts(bench),
           "calls": [call.as_dict() for call in calls], "peak_rss_mb": peak_mb}
    if traced:
        if workload.mutates:
            bench = None
            gc.collect()
            setup_mark = timer.install().mark()
            try:
                bench, _, _ = setup(args.seed, probe)
            finally:
                setup_delta = timer.since(setup_mark)
                timer.uninstall()
        enable_tracing()
        mark = timer.install().mark()
        try:
            bench, traced_calls, _, _ = timed_calls(
                workload, bench, args.seed, 0.0, args.passes, probe
            )
            delta = timer.since(mark)
        finally:
            timer.uninstall()
            spans_us = operator_self_us(tracer().roots)
            disable_tracing()
        out["traced_calls"] = [call.as_dict() for call in traced_calls]
        out["layers"] = layer_figures(delta, setup_delta, traced_calls, spans_us)
    out["checked"], out["mismatches"] = workload.check(bench, reference_set)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("reference", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=1,
                        help="least number of timed calls or live passes")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--live", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]()
    probe = HostProbe()
    if args.role == "reference":
        out = reference(args, workload, probe)
    else:
        out = run(args, workload, json.load(sys.stdin), probe)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
