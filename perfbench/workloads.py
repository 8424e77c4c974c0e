"""The benchmark's workloads: set-up, the timed run call, the plain
serial replay on a live store, and the output check.

Every workload is driven through the program's public run envelope,
``SocialNetworkBenchmark.run(RunRequest(...))``, with the program's
default configuration: no ``REPRO_*`` variable and no snapshot config.
The replays in this file call the query and update functions directly
on a live ``SocialGraph``; they are the reference the outputs are
checked against and the live-serial baseline the run is compared with.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from host import HostProbe

from repro.core.api import SocialNetworkBenchmark
from repro.core.run import RunRequest
from repro.datagen import generator
from repro.datagen.config import DatagenConfig
from repro.driver.bi_driver import build_microbatches
from repro.driver.validation import create_validation_set, validate
from repro.queries.bi import ALL_QUERIES
from repro.queries.interactive.deletes import ALL_DELETES
from repro.queries.interactive.updates import ALL_UPDATES

#: SF 0.1 by the Table 2.12 scaling law, default activity scale.
PERSONS = 1500
#: Curated bindings per query in a power pass.
POWER_BINDINGS = 2
#: Bindings per query that the throughput test and the streams rotate
#: through (both call ``params.bi(n, count=3)``).
ROTATION_BINDINGS = 3
READS_PER_BATCH = 5
#: The refresh workload's stated input size: seed 42 makes 51 daily
#: microbatches, but the count varies with the seed (44-66 for seeds
#: 1-10), so its run time is reported scaled to this many.
MICROBATCHES = 51
STREAMS = 2
QUERIES_PER_STREAM = 100
#: Step between the streams' starting points (``_run_stream``'s de-phase).
STREAM_DEPHASE = 7

NUMBERS = sorted(ALL_QUERIES)

#: Nodes and edges of a generated network, as list attributes of
#: ``SocialNetworkData``.
NODE_LISTS = ("places", "organisations", "tag_classes", "tags", "persons",
              "forums", "posts", "comments")
EDGE_LISTS = ("study_at", "work_at", "knows", "memberships", "likes")


def setup(seed: int, probe: HostProbe) -> tuple[SocialNetworkBenchmark, float, float]:
    """Datagen, then load and parameter curation, with the host probed
    before, between and after.  Returns the benchmark, the set-up time in
    seconds and the same adjusted for the host's slowdown."""
    before = probe.slowdown()
    start = time.perf_counter()
    network = generator.generate(DatagenConfig(num_persons=PERSONS, seed=seed))
    generate_s = time.perf_counter() - start
    between = probe.slowdown()
    start = time.perf_counter()
    bench = SocialNetworkBenchmark(network)
    load_s = time.perf_counter() - start
    after = probe.slowdown()
    adjusted = generate_s * 2 / (before + between) + load_s * 2 / (between + after)
    return bench, generate_s + load_s, adjusted


def datagen_counts(bench: SocialNetworkBenchmark) -> dict[str, int]:
    network = bench.network
    return {
        "nodes": sum(len(getattr(network, name)) for name in NODE_LISTS),
        "edges": sum(len(getattr(network, name)) for name in EDGE_LISTS),
    }


@dataclass
class Call:
    """What one timed run call did, as the benchmark measures it."""

    run_s: float
    reads: int
    #: Seconds the reads took, without the freeze, snapshot and writes
    #: around them: the summed query runtimes (power), the pool run
    #: (streams) or the summed read blocks (refresh).
    read_s: float
    writes: int = 0
    write_s: float = 0.0
    #: Terminal pool failures (errors, timeouts, crashes), in operations.
    failed: int = 0
    #: Per-query runtimes (power) or read-block times (refresh), in ms.
    latencies_ms: tuple[float, ...] = ()
    #: Per-query runtimes by query number, in ms (power only).
    query_ms: dict[int, float] | None = None
    #: Exact counts that must repeat on every call with one seed.
    counts: Any = None
    #: Factor that scales ``run_s`` to the workload's stated input size.
    scale: float = 1.0
    #: The host's slowdown around the call (``host.HostProbe``).
    slowdown: float = 1.0

    def as_dict(self) -> dict[str, Any]:
        return dict(self.__dict__)


class Workload:
    """One benchmark workload; subclasses fill in the specifics."""

    name = ""
    #: Whether a run call changes the graph, so that every timed call
    #: needs a freshly loaded one.
    mutates = False

    def request(self) -> RunRequest:
        raise NotImplementedError

    def call(self, bench: SocialNetworkBenchmark) -> Call:
        """One timed run call through the public run envelope."""
        request = self.request()
        start = time.perf_counter()
        report = bench.run(request)
        return self.measure(report, time.perf_counter() - start)

    def measure(self, report: Any, run_s: float) -> Call:
        raise NotImplementedError

    def bindings(self, bench: SocialNetworkBenchmark) -> dict[int, list[tuple]]:
        """The curated bindings the run call reads with, by query."""
        return {n: bench.params.bi(n, count=ROTATION_BINDINGS) for n in NUMBERS}

    def read_sequence(self, bindings: dict[int, list[tuple]]) -> list[tuple]:
        """The reads of one run call, in order, as (query, binding)."""
        raise NotImplementedError

    def replay(self, bench: SocialNetworkBenchmark, reads: bool) -> tuple[float, dict]:
        """Redo a run call's work on ``bench.graph`` with plain serial
        calls: the binding lookup, the writes and, with ``reads``, the
        reads.  Returns the seconds taken and the bindings."""
        start = time.perf_counter()
        bindings = self.bindings(bench)
        if reads:
            for number, binding in self.read_sequence(bindings):
                ALL_QUERIES[number][0](bench.graph, *binding)
        return time.perf_counter() - start, bindings

    # -- output check ----------------------------------------------------

    def reference(self, bench: SocialNetworkBenchmark, bindings: dict) -> dict[str, Any]:
        """The expected results of ``bindings`` on ``bench.graph`` (the
        reference graph), in ``repro.driver.validation`` form.  A binding
        whose entity a replayed delete removed raises ``KeyError``; it is
        kept apart, and the checked graph must raise it too."""
        entries: list[dict] = []
        missing: list[list] = []
        for number, choices in bindings.items():
            for binding in choices:
                try:
                    part = create_validation_set(
                        bench.graph, {("bi", number): [tuple(binding)]}
                    )
                except KeyError:
                    missing.append([number, list(binding)])
                    continue
                entries.extend(part["entries"])
        return {"version": 1, "entries": entries, "missing": missing}

    def check(self, bench: SocialNetworkBenchmark, reference: dict) -> tuple[int, int]:
        """Check the graph a run left against the reference; returns
        (bindings checked, mismatches)."""
        mismatches = len(validate(bench.graph, reference))
        for number, binding in reference["missing"]:
            try:
                ALL_QUERIES[number][0](bench.graph, *binding)
            except KeyError:
                continue
            mismatches += 1
        return len(reference["entries"]) + len(reference["missing"]), mismatches


class Power(Workload):
    name = "bi-power"

    def request(self) -> RunRequest:
        return RunRequest(
            workload="bi", mode="power",
            options={"bindings_per_query": POWER_BINDINGS},
        )

    def measure(self, report: Any, run_s: float) -> Call:
        stats = report.exec_stats
        query_ms = {n: 1000.0 * t for n, t in sorted(report.runtimes.items())}
        return Call(
            run_s=run_s,
            reads=stats["tasks"],
            # Each runtime is the mean over the query's bindings.
            read_s=POWER_BINDINGS * sum(report.runtimes.values()),
            failed=stats["failures"],
            latencies_ms=tuple(query_ms.values()),
            query_ms=query_ms,
            counts={"operators": report.operator_stats, "tasks": stats["tasks"]},
        )

    def bindings(self, bench: SocialNetworkBenchmark) -> dict[int, list[tuple]]:
        return {n: bench.params.bi(n, count=POWER_BINDINGS) for n in NUMBERS}

    def read_sequence(self, bindings: dict[int, list[tuple]]) -> list[tuple]:
        return [
            (number, tuple(binding))
            for number, choices in bindings.items()
            for binding in choices
        ]


class Streams(Workload):
    name = "bi-streams"

    def request(self) -> RunRequest:
        return RunRequest(
            workload="bi", mode="concurrent",
            options={"streams": STREAMS, "queries_per_stream": QUERIES_PER_STREAM},
        )

    def measure(self, report: Any, run_s: float) -> Call:
        stats = report.exec_stats
        return Call(
            run_s=run_s,
            reads=report.total_queries,
            read_s=report.elapsed,
            failed=stats["failures"] * QUERIES_PER_STREAM,
            counts={"operators": report.operator_counters, "tasks": stats["tasks"]},
        )

    def read_sequence(self, bindings: dict[int, list[tuple]]) -> list[tuple]:
        reads = []
        for stream in range(STREAMS):
            cursor = stream * STREAM_DEPHASE
            for _ in range(QUERIES_PER_STREAM):
                number = NUMBERS[cursor % len(NUMBERS)]
                choices = bindings[number]
                reads.append((number, tuple(choices[cursor % len(choices)])))
                cursor += 1
        return reads


class Refresh(Workload):
    name = "bi-refresh"
    mutates = True

    def request(self) -> RunRequest:
        return RunRequest(
            workload="bi", mode="throughput",
            options={"reads_per_batch": READS_PER_BATCH},
        )

    def measure(self, report: Any, run_s: float) -> Call:
        stats = report.exec_stats
        reads = stats["tasks"]
        return Call(
            run_s=run_s,
            reads=reads,
            read_s=sum(report.read_seconds),
            writes=report.operations - reads,
            write_s=sum(report.batch_seconds),
            failed=stats["failures"],
            latencies_ms=tuple(1000.0 * t for t in report.read_seconds),
            counts={"operations": report.operations, "tasks": reads},
            scale=MICROBATCHES / len(report.batch_seconds),
        )

    def replay(self, bench: SocialNetworkBenchmark, reads: bool) -> tuple[float, dict]:
        """The throughput test's microbatches and read blocks, replayed
        through ``ALL_UPDATES``/``ALL_DELETES`` and direct query calls."""
        start = time.perf_counter()
        graph = bench.graph
        bindings = self.bindings(bench)
        batches = build_microbatches(bench.network, include_deletes=True)
        cursor = 0
        for batch in batches:
            for insert in batch.inserts:
                try:
                    ALL_UPDATES[insert.operation_id][0](graph, insert.params)
                except (KeyError, ValueError):
                    pass  # the program skips these writes the same way
            for delete in batch.deletes:
                ALL_DELETES[delete.operation_id][0](graph, delete.params)
            if not reads:
                continue
            for _ in range(READS_PER_BATCH):
                number = NUMBERS[cursor % len(NUMBERS)]
                choices = bindings[number]
                try:
                    ALL_QUERIES[number][0](graph, *choices[cursor % len(choices)])
                except KeyError:
                    pass  # a delete removed the binding's entity
                cursor += 1
        return time.perf_counter() - start, bindings


WORKLOADS: dict[str, Callable[[], Workload]] = {
    cls.name: cls for cls in (Power, Refresh, Streams)
}
