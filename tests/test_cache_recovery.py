"""Tests for the CP-6.1 result cache and the §6.3 durability/recovery."""

import stat

import pytest

from repro.datagen.delete_streams import build_delete_streams
from repro.datagen.update_streams import build_update_streams
from repro.driver import recovery
from repro.driver.recovery import DurableSut, checkpoint_position, recover
from repro.graph.cache import CachedQueryExecutor
from repro.graph.store import SocialGraph
from repro.queries.bi import bi6, bi12
from repro.queries.interactive.complex import ic9
from repro.queries.interactive.updates import AddFriendshipParams, iu8
from repro.util.dates import make_date


class TestCachedQueryExecutor:
    @pytest.fixture
    def executor(self, small_net):
        return CachedQueryExecutor(SocialGraph.from_data(small_net))

    def test_rejects_bad_capacity(self, small_net):
        with pytest.raises(ValueError):
            CachedQueryExecutor(SocialGraph.from_data(small_net), capacity=0)

    def test_repeated_query_hits(self, executor):
        params = (make_date(2012, 6, 1), 2)
        first = executor.run("bi12", bi12, *params)
        second = executor.run("bi12", bi12, *params)
        assert first == second
        assert executor.hits == 1 and executor.misses == 1
        assert executor.hit_rate == 0.5

    def test_different_params_miss(self, executor):
        executor.run("bi12", bi12, make_date(2012, 6, 1), 2)
        executor.run("bi12", bi12, make_date(2012, 6, 2), 2)
        assert executor.hits == 0 and executor.misses == 2

    def test_write_invalidates(self, executor):
        graph = executor.graph
        persons = sorted(graph.persons)
        loner_pair = None
        for a in persons:
            for b in persons:
                if a < b and b not in graph.friends_of(a):
                    loner_pair = (a, b)
                    break
            if loner_pair:
                break
        start = loner_pair[0]
        before = executor.run("ic9", ic9, start, make_date(2012, 6, 1))
        executor.write(
            iu8, AddFriendshipParams(*loner_pair, make_date(2012, 6, 1) * 86400000)
        )
        after = executor.run("ic9", ic9, start, make_date(2012, 6, 1))
        assert executor.invalidations == 1
        assert executor.misses == 2  # the post-write run recomputed

    def test_results_match_uncached(self, executor, small_graph):
        tag = small_graph.tags[0].name
        assert executor.run("bi6", bi6, tag) == bi6(small_graph, tag)

    def test_capacity_eviction(self, small_net):
        executor = CachedQueryExecutor(
            SocialGraph.from_data(small_net), capacity=2
        )
        for day in (1, 2, 3):
            executor.run("bi12", bi12, make_date(2012, 6, day), 2)
        # The first entry was evicted; re-running it misses again (and
        # evicts the day-2 entry in turn).
        executor.run("bi12", bi12, make_date(2012, 6, 1), 2)
        assert executor.misses == 4
        assert executor.evictions == 2
        assert executor.invalidations == 0  # LRU drops aren't write drops

    def test_eviction_accounting_at_capacity(self, small_net):
        """The stats() snapshot the driver logs: entries never exceed
        capacity and every overflow is tallied as an eviction."""
        executor = CachedQueryExecutor(
            SocialGraph.from_data(small_net), capacity=3
        )
        for day in range(1, 9):
            executor.run("bi12", bi12, make_date(2012, 6, day), 2)
        stats = executor.stats()
        assert stats["entries"] == 3
        assert stats["evictions"] == 5
        assert stats["misses"] == 8 and stats["hits"] == 0
        # A hit refreshes recency without touching the eviction counter.
        executor.run("bi12", bi12, make_date(2012, 6, 8), 2)
        assert executor.stats()["hits"] == 1
        assert executor.stats()["evictions"] == 5


def _replayed(net, ops):
    """The loaded graph with ``ops`` applied straight, no durability."""
    graph = SocialGraph.from_data(net, until=net.cutoff)
    for op in ops:
        recovery._apply(graph, op)
    return graph


def _fingerprint(graph):
    """Every entity id and relation endpoint pair, order-free."""
    return (
        sorted(graph.persons),
        sorted(graph.forums),
        sorted(graph.posts),
        sorted(graph.comments),
        sorted((e.person1, e.person2) for e in graph.knows_edges),
        sorted((e.person_id, e.message_id) for e in graph.likes_edges),
        sorted((m.forum_id, m.person_id) for m in graph.memberships),
    )


class TestDurability:
    @pytest.fixture
    def writes(self, small_net):
        updates = build_update_streams(small_net)[:300]
        deletes = [
            op
            for op in build_delete_streams(small_net)
            if updates and op.timestamp <= updates[-1].timestamp
        ]
        merged = sorted(
            list(updates) + list(deletes), key=lambda op: op.timestamp
        )
        return merged

    def test_recovery_after_crash(self, small_net, writes, tmp_path):
        sut = DurableSut(
            SocialGraph.from_data(small_net, until=small_net.cutoff),
            tmp_path,
            checkpoint_every=100,
        )
        for op in writes:
            sut.apply(op)
        committed = sut.committed_writes
        sut.crash()
        with pytest.raises(RuntimeError):
            sut.apply(writes[0])

        recovered, recovered_writes = recover(tmp_path)
        assert recovered_writes == committed

        # The recovered state equals a straight replay of the same ops.
        reference = SocialGraph.from_data(small_net, until=small_net.cutoff)
        from repro.driver.recovery import _apply

        for op in writes:
            _apply(reference, op)
        assert recovered.node_count() == reference.node_count()
        assert len(recovered.knows_edges) == len(reference.knows_edges)
        assert len(recovered.likes_edges) == len(reference.likes_edges)

    def test_last_committed_update_present(self, small_net, writes, tmp_path):
        """The §6.3 check: the last committed update is in the database."""
        from repro.datagen.update_streams import UpdateOperation

        sut = DurableSut(
            SocialGraph.from_data(small_net, until=small_net.cutoff),
            tmp_path,
            checkpoint_every=97,  # crash lands between checkpoints
        )
        last_insert = None
        for op in writes:
            sut.apply(op)
            if isinstance(op, UpdateOperation) and op.operation_id in (6, 7):
                last_insert = op
        sut.crash()
        recovered, _ = recover(tmp_path)
        assert last_insert is not None
        message_id = (
            last_insert.params.post_id
            if last_insert.operation_id == 6
            else last_insert.params.comment_id
        )
        # Present unless a later delete in the same run cascaded over it
        # (the reference replay below decides which).
        reference = SocialGraph.from_data(small_net, until=small_net.cutoff)
        from repro.driver.recovery import _apply

        for op in writes:
            _apply(reference, op)
        assert recovered.has_message(message_id) == reference.has_message(
            message_id
        )

    def test_checkpoint_interval_respected(self, small_net, writes, tmp_path):
        sut = DurableSut(
            SocialGraph.from_data(small_net, until=small_net.cutoff),
            tmp_path,
            checkpoint_every=50,
        )
        for op in writes[:120]:
            sut.apply(op)
        covered = checkpoint_position(tmp_path)
        assert covered == 100  # last multiple of 50 reached
        sut.close()

    def test_torn_wal_tail_dropped(self, small_net, writes, tmp_path):
        """A final WAL record cut mid-line was never acknowledged:
        recovery drops it and returns exactly the committed prefix."""
        sut = DurableSut(
            SocialGraph.from_data(small_net, until=small_net.cutoff),
            tmp_path,
            checkpoint_every=50,
        )
        for op in writes[:120]:
            sut.apply(op)
        sut.crash()
        wal = tmp_path / "wal.log"
        data = wal.read_bytes()
        last_start = data.rindex(b"\n", 0, len(data) - 1) + 1
        wal.write_bytes(data[: last_start + (len(data) - last_start) // 2])

        recovered, recovered_writes = recover(tmp_path)
        assert recovered_writes == 119
        assert _fingerprint(recovered) == _fingerprint(
            _replayed(small_net, writes[:119])
        )

    @pytest.mark.parametrize("failure", ["torn_dump", "before_replace"])
    def test_interrupted_checkpoint_keeps_committed_state(
        self, small_net, writes, tmp_path, monkeypatch, failure
    ):
        """A checkpoint that fails partway leaves the previous one in
        force, so recovery neither loses nor re-applies WAL entries."""
        sut = DurableSut(
            SocialGraph.from_data(small_net, until=small_net.cutoff),
            tmp_path,
            checkpoint_every=50,
        )
        for op in writes[:130]:
            sut.apply(op)
        if failure == "torn_dump":
            real_dumps = recovery.pickle.dumps

            def dump(obj, handle):
                data = real_dumps(obj)
                handle.write(data[: len(data) // 2])
                raise OSError("disk full")

            monkeypatch.setattr(recovery.pickle, "dump", dump)
        else:
            def replace(src, dst):
                raise OSError("crashed before publishing")

            monkeypatch.setattr(recovery.os, "replace", replace)
        with pytest.raises(OSError):
            sut.checkpoint()
        monkeypatch.undo()
        sut.crash()

        assert checkpoint_position(tmp_path) == 100
        recovered, recovered_writes = recover(tmp_path)
        assert recovered_writes == 130
        assert _fingerprint(recovered) == _fingerprint(
            _replayed(small_net, writes[:130])
        )

    def test_checkpoint_fsynced_before_publish(
        self, small_net, tmp_path, monkeypatch
    ):
        """The staging file reaches the disk before ``os.replace``
        publishes it, and the directory entry is fsynced afterwards —
        otherwise a power loss can leave a published but empty
        checkpoint."""
        sut = DurableSut(
            SocialGraph.from_data(small_net, until=small_net.cutoff),
            tmp_path,
        )
        events = []
        real_fsync, real_replace = recovery.os.fsync, recovery.os.replace

        def fsync(fd):
            info = recovery.os.fstat(fd)
            kind = "dir" if stat.S_ISDIR(info.st_mode) else "file"
            events.append(("fsync", kind, info.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", recovery.os.stat(src).st_ino))
            real_replace(src, dst)

        monkeypatch.setattr(recovery.os, "fsync", fsync)
        monkeypatch.setattr(recovery.os, "replace", replace)
        sut.checkpoint()
        monkeypatch.undo()
        sut.close()

        staged = (tmp_path / recovery.CHECKPOINT_FILE).stat().st_ino
        assert events == [
            ("fsync", "file", staged),
            ("replace", staged),
            ("fsync", "dir", tmp_path.stat().st_ino),
        ]

    def test_rejects_bad_interval(self, small_net, tmp_path):
        with pytest.raises(ValueError):
            DurableSut(
                SocialGraph.from_data(small_net), tmp_path, checkpoint_every=0
            )


class TestWarmup:
    def test_warmup_reads_do_not_appear_in_log(self, small_net):
        from repro.core.api import SocialNetworkBenchmark
        from repro.datagen.update_streams import build_update_streams
        from repro.driver.mix import frequencies_for_scale_factor
        from repro.driver.runner import Driver
        from repro.driver.scheduler import Scheduler
        from repro.params.curation import ParameterGenerator

        graph = SocialGraph.from_data(small_net, until=small_net.cutoff)
        params = ParameterGenerator(graph, small_net.config)
        updates = build_update_streams(small_net)[:200]
        schedule = Scheduler(
            updates,
            frequencies_for_scale_factor(1.0),
            {n: params.interactive(n, count=2) for n in range(1, 15)},
        ).build()
        cold = Driver(graph, seed=5).run(schedule, warmup_reads=0)
        graph2 = SocialGraph.from_data(small_net, until=small_net.cutoff)
        warm = Driver(graph2, seed=5).run(schedule, warmup_reads=5)
        # Same logged operation sequence either way.
        assert [e.operation for e in cold.log] == [
            e.operation for e in warm.log
        ]
