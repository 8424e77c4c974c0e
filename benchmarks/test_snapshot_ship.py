"""Experiment SHIP — what a mapped snapshot costs to ship and attach.

The self-contained snapfile replaces the per-worker object-state pickle
with a token of buffer coordinates; workers rebuild entity state from
the mapped entity section.  This experiment binds the >= 10x
ship-payload shrink, times the cold attach of both schemes, and checks
that a whole power test over a mapped snapshot on a process pool is
counter-identical to the serial inline baseline.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time

from benchmarks._record import record
from repro.exec import SnapshotConfig, provide_snapshot
from repro.graph.frozen import freeze
from repro.params.curation import ParameterGenerator

_ROUNDS = 5


def _median_seconds(fn, rounds=_ROUNDS):
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def test_ship_payload_shrinks_and_attaches(base_net):
    """Measures the payload sizes of both shipping schemes and the
    cold-attach latency of each path, and binds the >= 10x
    ship-payload shrink claim."""
    from repro.graph import snapfile
    from repro.graph.frozen import FrozenGraph
    from repro.graph.store import SocialGraph

    frozen = freeze(SocialGraph.from_data(base_net, until=base_net.cutoff))
    handle = provide_snapshot(
        frozen, config=SnapshotConfig(provider="mmap_file")
    )
    try:
        wire = pickle.dumps(handle.ship())
        ship_bytes = len(wire)
        # What the pre-entity-section token shipped per worker: the
        # pickled object-state remainder (plus negligible coordinates).
        state_blob = pickle.dumps(snapfile.object_state(frozen))
        pickle_bytes = len(state_blob)
        assert pickle_bytes >= 10 * ship_bytes, (pickle_bytes, ship_bytes)

        def entity_attach():
            pickle.loads(wire).materialize().close()

        def pickle_attach():
            mapped = snapfile.open_snapshot(handle.path)
            try:
                FrozenGraph._attached(
                    pickle.loads(state_blob), dict(mapped.columns)
                )
            finally:
                mapped.close()

        entity_s = _median_seconds(entity_attach)
        pickle_s = _median_seconds(pickle_attach)
    finally:
        handle.close()
    print(
        f"\nship payload: {ship_bytes} B token vs {pickle_bytes} B"
        f" object-state pickle ({pickle_bytes / ship_bytes:.0f}x);"
        f" cold attach: entity {1000 * entity_s:.2f} ms,"
        f" pickle {1000 * pickle_s:.2f} ms"
    )
    record(
        "snapshot_ship",
        ship_payload_bytes=ship_bytes,
        object_state_pickle_bytes=pickle_bytes,
        payload_shrink=round(pickle_bytes / ship_bytes, 1),
        cold_attach_entity_ms=round(1000 * entity_s, 3),
        cold_attach_pickle_ms=round(1000 * pickle_s, 3),
    )


def test_mapped_power_test_matches_inline(base_net):
    """The whole power test over a mapped snapshot on a process pool is
    counter-identical to the serial inline baseline.  The mapped leg
    uses ``REPRO_SNAPSHOT_PROVIDER`` when it names a mapped provider,
    else ``mmap_file``."""
    from repro.driver.bi_driver import power_test
    from repro.graph.store import SocialGraph

    provider = SnapshotConfig().resolved().provider
    if provider == "inline":
        provider = "mmap_file"
    graph = SocialGraph.from_data(base_net, until=base_net.cutoff)
    params = ParameterGenerator(graph, base_net.config)
    serial = power_test(
        graph, params, 0.1, workers=1,
        snapshot=SnapshotConfig(provider="inline"),
    )
    mapped = power_test(
        graph, params, 0.1, workers=max(2, min(4, os.cpu_count() or 1)),
        snapshot=SnapshotConfig(provider=provider),
    )
    assert mapped.operator_stats == serial.operator_stats
    record(
        "mapped_power",
        provider=provider,
        serial_geomean_ms=round(1000 * serial.geometric_mean, 3),
        mapped_geomean_ms=round(1000 * mapped.geometric_mean, 3),
    )
