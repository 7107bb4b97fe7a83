"""repro.commit: the async WRITE + COMMIT write path.

Server side (:class:`~repro.commit.path.AsyncCommitWritePath`): unstable
writes acked from the volatile :class:`~repro.commit.path.UnstableLog`,
COMMIT flushes and returns the boot verifier, a background flusher opens
under memory pressure.  Client side
(:class:`~repro.commit.tracker.UncommittedTracker`): held ranges, window
pressure, and verifier-mismatch replay — including across a replica
promotion, where the resend lands on the promoted backup.  Plus the
dup-cache contract for retransmitted COMMITs and the ``repro commit``
experiment smoke.
"""

import pytest

from repro.commit.experiment import CommitConfig
from repro.commit.path import UnstableLog
from repro.experiments import ExperimentSpec, Testbed, TestbedConfig, run
from repro.net import FDDI
from repro.nfs.protocol import CommitArgs, WriteArgs
from repro.overload.window import WriteWindow
from repro.rpc import RpcCall
from repro.server.config import WritePath
from repro.workload import patterned_chunk, write_file

KB = 1024


def make_bed(unstable_limit_bytes=None, nbiods=4, write_window=None):
    config = TestbedConfig(
        netspec=FDDI,
        write_path="async_commit",
        nbiods=nbiods,
        unstable_limit_bytes=unstable_limit_bytes,
    )
    testbed = Testbed(config)
    client = testbed.add_client(write_window=write_window)
    return testbed, client


# -- satellite: CLI/coercion surface ---------------------------------------------


class TestWritePathSurface:
    def test_coerce_accepts_async_commit(self):
        assert WritePath.coerce("async_commit") is WritePath.ASYNC_COMMIT

    def test_coerce_error_enumerates_every_member(self):
        """The --write-path error names every valid value, async_commit
        included — nobody should have to read the source to spell it."""
        with pytest.raises(ValueError) as err:
            WritePath.coerce("bogus")
        message = str(err.value)
        for member in WritePath:
            assert member.value in message

    def test_async_clients_are_v3_with_a_window(self):
        _testbed, client = make_bed()
        assert client.nfs_version == 3
        assert client.write_window is not None


# -- the server's volatile log ---------------------------------------------------


class _FakeVnode:
    def __init__(self, ino):
        self.ino = ino


class TestUnstableLog:
    def test_record_accumulates_bytes(self):
        log = UnstableLog()
        vnode = _FakeVnode(7)
        log.record(vnode, 0, b"a" * 100)
        log.record(vnode, 100, b"b" * 50)
        assert log.buffered_bytes == 150

    def test_take_removes_intersecting_pieces(self):
        log = UnstableLog()
        vnode = _FakeVnode(7)
        log.record(vnode, 0, b"a" * 100)
        log.record(vnode, 200, b"b" * 100)
        pieces, low, high = log.take(7, 0, 100)
        assert [offset for offset, _d in pieces] == [0]
        assert (low, high) == (0, 100)
        assert log.buffered_bytes == 100  # the piece at 200 survives

    def test_take_widens_to_whole_pieces(self):
        """A COMMIT range that splits a piece widens to include all of
        it — a flush can only sync whole cached pieces."""
        log = UnstableLog()
        log.record(_FakeVnode(7), 0, b"a" * (8 * KB))
        pieces, low, high = log.take(7, 4 * KB, 5 * KB)
        assert len(pieces) == 1
        assert (low, high) == (0, 8 * KB)

    def test_take_miss_returns_requested_range(self):
        log = UnstableLog()
        log.record(_FakeVnode(7), 0, b"a" * 100)
        pieces, low, high = log.take(7, 500, 600)
        assert pieces == []
        assert (low, high) == (500, 600)
        assert log.buffered_bytes == 100

    def test_heaviest_prefers_the_fattest_file(self):
        log = UnstableLog()
        log.record(_FakeVnode(1), 0, b"a" * 100)
        log.record(_FakeVnode(2), 0, b"b" * 900)
        assert log.heaviest().vnode.ino == 2
        log.clear()
        assert log.heaviest() is None
        assert log.buffered_bytes == 0


# -- pressure valves -------------------------------------------------------------


class TestPressure:
    def test_server_flushes_past_the_volatile_ceiling(self):
        """Once the unstable log outgrows unstable_limit_bytes, the
        background flusher drains the heaviest file without any COMMIT."""
        testbed, client = make_bed(unstable_limit_bytes=16 * KB)
        env = testbed.env
        env.run(until=env.process(write_file(env, client, "fat", 96 * KB)))
        env.run()
        path = testbed.server.write_path
        assert path.pressure_flushes.value >= 1
        assert path.flushed_bytes.value >= 16 * KB
        assert path.log.buffered_bytes == 0  # close committed the rest
        ufs = testbed.server.ufs
        ino = ufs.root.entries["fat"]
        expected = b"".join(patterned_chunk(i) for i in range(12))
        assert ufs.durable_read(ino, 0, 96 * KB) == expected

    def test_client_commits_under_window_pressure(self):
        """A pinned 2-slot window caps the pressure limit at 8 ranges, so
        a 96 KB (12-range) file COMMITs mid-stream, not just at close."""
        testbed, client = make_bed(write_window=WriteWindow(initial=2, maximum=2))
        env = testbed.env
        env.run(until=env.process(write_file(env, client, "squeezed", 96 * KB)))
        env.run()
        assert client.tracker.pressure_commits.value >= 1
        assert client.tracker.commits_sent.value >= 2  # pressure + close
        assert client.tracker.uncommitted_bytes() == 0


# -- verifier lifecycle ----------------------------------------------------------


class TestVerifierLifecycle:
    def test_crash_mismatch_forces_full_resend(self):
        """A crash between the unstable writes and the COMMIT bumps the
        verifier; the close-time COMMIT mismatches, every held range is
        resent, and the file is durable and intact afterwards."""
        testbed, client = make_bed()
        env = testbed.env

        def driver(env):
            open_file = yield from client.create("phoenix")
            for index in range(8):
                yield from client.write_stream(open_file, patterned_chunk(index))
            yield env.timeout(0.1)  # every unstable WRITE answered
            testbed.server.simulate_crash()
            yield from client.close(open_file)  # COMMIT -> mismatch -> replay
            return open_file

        proc = env.process(driver(env))
        env.run(until=proc)
        assert client.tracker.ranges_replayed.value == 8
        assert client.tracker.commits_sent.value == 2  # mismatch, then clean
        assert not client.tracker.has_ranges(proc.value.fhandle)
        ufs = testbed.server.ufs
        ino = ufs.root.entries["phoenix"]
        expected = b"".join(patterned_chunk(i) for i in range(8))
        assert ufs.durable_read(ino, 0, 64 * KB) == expected

    def test_promotion_resends_into_the_promoted_backup(self):
        """Killing the primary of a K=1 group promotes its backup, whose
        verifier is higher than any member's; the client's COMMIT train
        mismatches and replays into the *promoted* server."""
        from repro.cluster.failover import FailoverController, ShardCrash
        from repro.cluster.fleet import Cluster, ClusterConfig
        from repro.cluster.oracle import ClusterOracle

        cluster = Cluster(
            ClusterConfig(servers=2, write_path="async_commit", replicas=1, seed=0)
        )
        env = cluster.env
        oracle = ClusterOracle(cluster)
        client = cluster.add_client()
        oracle.attach(client)
        state = {}

        def driver(env):
            open_file = yield from client.create("failover")
            for index in range(8):
                yield from client.write_stream(open_file, patterned_chunk(index))
            yield env.timeout(0.1)  # all ranges held, none committed
            pin = next(iter(set(client.rpc.router.pins().values())))
            shard = next(
                i for i, s in enumerate(cluster.servers) if s.host == pin
            )
            state["old_primary"] = cluster.servers[shard]
            controller = FailoverController(
                cluster,
                [ShardCrash(at=env.now, shard=shard, promote=True)],
                oracle=oracle,
            ).start()
            yield env.timeout(0.05)  # promotion lands
            state["controller"] = controller
            state["group"] = cluster.group_for_shard(shard)
            yield from client.close(open_file)  # COMMIT -> mismatch -> replay

        env.run(until=env.process(driver(env)))
        env.run()
        oracle.check("final")
        controller, group = state["controller"], state["group"]
        assert controller.promotions == 1
        promoted = group.primary
        assert promoted is not state["old_primary"]
        assert promoted.boot_verifier > state["old_primary"].boot_verifier
        assert client.tracker.ranges_replayed.value == 8
        assert client.tracker.uncommitted_bytes() == 0
        assert oracle.violations == []
        # The replayed bytes are durable on the *promoted* backup.
        ino = promoted.ufs.root.entries["failover"]
        expected = b"".join(patterned_chunk(i) for i in range(8))
        assert promoted.ufs.durable_read(ino, 0, 64 * KB) == expected

    def test_clean_run_commits_once_and_never_replays(self):
        testbed, client = make_bed()
        env = testbed.env
        env.run(until=env.process(write_file(env, client, "calm", 64 * KB)))
        env.run()
        assert client.tracker.commits_sent.value == 1
        assert client.tracker.ranges_replayed.value == 0
        assert testbed.server.write_path.commits.value == 1


# -- satellite: dup-cache handles retransmitted COMMITs --------------------------


class TestDupCacheCommit:
    def test_retransmitted_commit_replays_cached_reply(self):
        """A COMMIT retransmission after the original completed must get
        the cached verifier reply — never a second flush or a second
        bump of the server's commit counter."""
        testbed, setup = make_bed()
        env = testbed.env
        raw = testbed.segment.attach("raw")
        created = {}

        def creator(env):
            open_file = yield from setup.create("victim")
            created["fhandle"] = open_file.fhandle

        env.run(until=env.process(creator(env)))
        fhandle = created["fhandle"]
        replies = []

        def collector(env):
            while True:
                datagram = yield raw.recv()
                replies.append(datagram.payload)

        env.process(collector(env), name="reply-collector")

        def driver(env):
            data = b"\xa1" * (8 * KB)
            write = RpcCall(
                xid=501,
                proc="write",
                args=WriteArgs(fhandle, 0, data, stable=False),
                size=160 + len(data),
                client="raw",
            )
            raw.send("server", write, write.size)
            yield env.timeout(0.05)  # the unstable WRITE is acked
            commit = RpcCall(
                xid=502,
                proc="commit",
                args=CommitArgs(fhandle, 0, 8 * KB),
                size=160,
                client="raw",
            )
            raw.send("server", commit, commit.size)
            yield env.timeout(0.1)  # the COMMIT completes and is cached
            dup = RpcCall(
                xid=502,
                proc="commit",
                args=CommitArgs(fhandle, 0, 8 * KB),
                size=160,
                client="raw",
                attempt=2,
            )
            raw.send("server", dup, dup.size)
            yield env.timeout(0.1)

        env.run(until=env.process(driver(env)))
        env.run()
        commit_replies = [r for r in replies if r.xid == 502]
        assert len(commit_replies) == 2  # original + cached replay
        verifiers = {r.result for r in commit_replies}
        assert len(verifiers) == 1  # same cached verifier both times
        assert testbed.server.svc.duplicates_replayed.value >= 1
        assert testbed.server.write_path.commits.value == 1  # no re-flush


# -- CommitConfig validation -----------------------------------------------------


class TestCommitConfig:
    def test_needs_the_async_arm(self):
        with pytest.raises(ValueError, match="async_commit"):
            CommitConfig(write_paths=("standard", "gather"))

    def test_needs_the_standard_baseline(self):
        with pytest.raises(ValueError, match="standard"):
            CommitConfig(write_paths=("async_commit",))

    def test_rejects_nonpositive_file_mb(self):
        with pytest.raises(ValueError, match="file_mb"):
            CommitConfig(file_mb=0)

    def test_rejects_bad_pressure_limit(self):
        with pytest.raises(ValueError, match="pressure_limit_bytes"):
            CommitConfig(pressure_limit_bytes=0)


# -- experiment smoke ------------------------------------------------------------


class TestCommitExperiment:
    def test_small_run_is_clean_and_async_wins(self):
        report = run(ExperimentSpec("commit", CommitConfig(file_mb=0.25)))
        assert report.clean
        assert report.async_beats_standard
        assert report.ok
        assert report.comparison["p50_vs_standard"] < 1.0
        assert report.comparison["throughput_vs_standard"] > 1.0
        assert report.pressure["pressure_flushes"] >= 1
        assert report.pressure["client_pressure_commits"] >= 1
        for arm in report.replica.values():
            assert arm["promotions"] >= 1
        probes = {p["name"]: p for p in report.probes}
        assert set(probes) == {
            "crash_mid_unstable_window",
            "crash_between_write_and_commit",
            "promotion_mid_commit",
        }
        for probe in probes.values():
            assert probe["clean"]
            assert probe["ranges_replayed"] > 0
        payload = report.to_dict()
        assert payload["schema"] == "repro.commit/1"
        assert payload["violations"] == []
