"""Tests for repro.replica: groups, quorum commit, promotion, the storm."""

import json

import pytest

from repro.cluster import ClusterConfig, ClusterOracle, ClusterParams, ShardCrash, build_cluster
from repro.cluster.failover import FailoverController
from repro.cluster.fleet import INO_STRIDE
from repro.experiments import ExperimentSpec, run
from repro.replica import replica_storm, run_replica_arm
from repro.replica.experiment import ReplicaParams
from repro.rpc.messages import RpcCall
from repro.workload.sequential import write_file

KB = 1024


def _write(cluster, client, name, nbytes=8 * KB):
    env = cluster.env
    proc = env.process(write_file(env, client, name, nbytes), name=f"w:{name}")
    env.run(until=proc)
    return proc.value


def _run_storm(config, **params):
    """One ``kind="replica"`` sweep over ``config``."""
    return run(ExperimentSpec("replica", ReplicaParams(cluster=config, **params)))


def _replicated(servers=1, replicas=1, quorum=1, seed=0, **kw):
    return ClusterConfig(
        servers=servers, replicas=replicas, quorum=quorum, seed=seed, **kw
    )


class TestConstruction:
    def test_k0_builds_no_replication_machinery(self):
        cluster = build_cluster(ClusterConfig(servers=2), clients=0)
        assert len(cluster.groups) == 2
        for group in cluster.groups:
            assert group.replicas == 0
            assert group.members == [group.primary]
            assert group.primary.replicator is None

    def test_k0_cluster_run_unchanged_by_replica_layer(self):
        # The replica layer must be invisible at K=0: same seed, same JSON
        # as an identically-configured cluster run.
        def cluster_json(config):
            params = ClusterParams(cluster=config, clients=2)
            return run(ExperimentSpec("cluster", params)).to_json()

        config = ClusterConfig(servers=2, seed=0)
        assert cluster_json(config) == cluster_json(ClusterConfig(servers=2, seed=0))

    def test_backups_are_full_shards_on_distinct_disks(self):
        cluster = build_cluster(_replicated(servers=2, replicas=2), clients=0)
        for index, group in enumerate(cluster.groups):
            assert group.replicas == 2
            assert [m.host for m in group.members] == [
                f"server-{index}",
                f"server-{index}.b1",
                f"server-{index}.b2",
            ]
            # Same inode range as the primary (handles replay verbatim),
            # but a private UFS and private spindles.
            assert len({id(m.ufs) for m in group.members}) == 3
            for member in group.members[1:]:
                assert member.config.ino_base == (index + 1) * INO_STRIDE
            assert group.primary.replicator.active
            for backup in group.backups():
                assert not backup.replicator.active
        disk_names = [
            disk.name
            for shard in cluster.backup_disks
            for backup in shard
            for disk in backup
        ]
        assert len(disk_names) == len(set(disk_names)) == 4
        # Backups never appear in the shard map: they are not routable.
        assert set(cluster.shard_map.servers) == {"server-0", "server-1"}

    def test_config_validation(self):
        with pytest.raises(ValueError, match="replicas must be >= 0"):
            ClusterConfig(replicas=-1)
        with pytest.raises(ValueError, match="quorum .* cannot exceed"):
            ClusterConfig(replicas=1, quorum=2)
        with pytest.raises(ValueError, match="siva path is not supported"):
            ClusterConfig(replicas=1, write_path="siva")
        # A replicated config must be able to re-resolve stranded calls.
        assert _replicated().failover_attempts == 3


class TestQuorumCommit:
    def test_backup_converges_to_primary_image(self):
        cluster = build_cluster(_replicated(), clients=1)
        client = cluster.clients[0]
        _write(cluster, client, "f0", 16 * KB)
        cluster.env.run()  # drain replication sessions
        group = cluster.groups[0]
        primary, backup = group.primary, group.backups()[0]
        assert backup.replicator.applied_seq >= 1
        assert backup.replicator.applied_seq == primary.replicator.applied_seq
        # The backup holds the identical durable bytes under the same ino.
        ino = primary.ufs.get_inode(2).entries["f0"]
        assert ino >= INO_STRIDE
        size = primary.ufs.cache.durable.inodes[ino].size
        assert size == 16 * KB
        assert backup.ufs.cache.durable.inodes[ino].size == size
        assert backup.ufs.durable_read(ino, 0, size) == primary.ufs.durable_read(
            ino, 0, size
        )
        # And its dup cache was primed with the clients' write replies.
        assert any(
            entry.proc == "write" and entry.reply is not None
            for entry in backup.svc.dup_cache._entries.values()
        )

    def test_commit_waits_for_the_backup_ack(self):
        cluster = build_cluster(_replicated(), clients=1)
        _write(cluster, cluster.clients[0], "f0", 16 * KB)
        replicator = cluster.groups[0].primary.replicator
        assert replicator.batches.value >= 1
        assert replicator.wait.count >= 1
        # Quorum=1 over one live peer: every commit stalls a real round
        # trip, never the K=0 fast path.
        assert replicator.wait.min > 0

    def test_k0_commit_never_stalls(self):
        cluster = build_cluster(_replicated(replicas=0), clients=1)
        _write(cluster, cluster.clients[0], "f0", 16 * KB)
        assert cluster.groups[0].primary.replicator is None

    def test_namespace_ops_replicate(self):
        cluster = build_cluster(_replicated(), clients=1)
        client = cluster.clients[0]
        env = cluster.env

        def ops():
            handle = yield from client.create("doomed")
            yield from client.remove("doomed")
            yield from client.create("kept")
            return handle

        proc = env.process(ops(), name="ns")
        env.run(until=proc)
        env.run()
        backup = cluster.groups[0].backups()[0]
        root = backup.ufs.get_inode(2)
        assert "kept" in root.entries
        assert "doomed" not in root.entries


class TestPromotion:
    def _promote_group0(self, cluster):
        """Crash shard 0's primary and fail over to its freshest backup."""
        group = cluster.groups[0]
        primary = group.primary
        segment = cluster.segment_of(primary.host)
        primary.simulate_crash()
        segment.partition(primary.host)
        segment.partition(primary.replicator.endpoint_host)
        promoted = group.freshest_backup()
        group.promote(promoted)
        cluster.router.repoint(group.logical_host, promoted.host)
        promoted.replicator.activate(resync=True)
        return promoted

    def test_dup_cache_replays_across_promotion(self):
        # A WRITE acked by the old primary, retransmitted after promotion,
        # must get the *cached* reply from the promoted backup — replayed,
        # not re-executed.
        cluster = build_cluster(_replicated(), clients=1)
        client = cluster.clients[0]
        env = cluster.env
        _write(cluster, client, "f0", 16 * KB)
        env.run()
        backup = cluster.groups[0].backups()[0]
        xid = next(
            key[1]
            for key, entry in backup.svc.dup_cache._entries.items()
            if entry.proc == "write" and entry.reply is not None
        )
        promoted = self._promote_group0(cluster)
        assert promoted is backup
        ino = backup.ufs.get_inode(2).entries["f0"]
        executed_before = backup.ufs.cache.durable.inodes[ino].size
        # Handcraft the retransmission the client's biod would send after
        # its timer fires: same xid, same client host, aimed at the host
        # the alias table now resolves the shard to.
        call = RpcCall(
            xid=xid,
            proc="write",
            args=None,
            size=KB,
            client=client.rpc.endpoint.host,
        )
        target = cluster.router.resolve("server-0")
        assert target == backup.host
        client.rpc.endpoint.send(target, call, call.size)
        env.run()
        assert backup.svc.duplicates_replayed.value == 1
        # Replay, not re-execution: the durable image did not change.
        assert backup.ufs.cache.durable.inodes[ino].size == executed_before

    def test_promotion_preserves_acked_writes(self):
        cluster = build_cluster(_replicated(), clients=1)
        client = cluster.clients[0]
        oracle = ClusterOracle(cluster)
        oracle.attach(client)
        _write(cluster, client, "f0", 16 * KB)
        cluster.env.run()
        self._promote_group0(cluster)
        assert oracle.check("post-promotion") == []
        assert oracle.acked_writes == 2

    def test_freshest_backup_wins(self):
        cluster = build_cluster(_replicated(replicas=2), clients=0)
        group = cluster.groups[0]
        b1, b2 = group.backups()
        b2.replicator.applied_seq = 5
        b1.replicator.applied_seq = 3
        assert group.freshest_backup() is b2
        # Ties break to the earliest member, deterministically.
        b1.replicator.applied_seq = 5
        assert group.freshest_backup() is b1


class TestShardCrashValidation:
    def test_negative_times_rejected(self):
        with pytest.raises(ValueError, match="crash time"):
            ShardCrash(at=-0.1, shard=0)
        with pytest.raises(ValueError, match="outage must be >= 0"):
            ShardCrash(at=0.1, shard=0, outage=-1.0)

    def test_redirect_requires_an_outage(self):
        with pytest.raises(ValueError, match="requires a positive outage"):
            ShardCrash(at=0.1, shard=0, redirect=True)

    def test_promote_excludes_redirect_and_outage(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            ShardCrash(at=0.1, shard=0, outage=0.1, redirect=True, promote=True)
        with pytest.raises(ValueError, match="ignores outage"):
            ShardCrash(at=0.1, shard=0, outage=0.1, promote=True)

    def test_skipped_redirect_is_recorded(self):
        params = ClusterParams(
            cluster=ClusterConfig(servers=1, seed=0),
            clients=2,
            crashes=[ShardCrash(at=0.02, shard=0, outage=0.1, redirect=True)],
        )
        result = run(ExperimentSpec("cluster", params))
        assert result.clean
        assert not result.faults[0]["redirected"]
        assert result.faults[0]["redirect_skipped"]


class TestRedirectRecovery:
    def test_heal_reclaims_exactly_the_old_arcs(self):
        # Property: dropping a shard and healing it must restore the ring
        # bit-for-bit — every probe key maps to the same shard afterwards.
        cluster = build_cluster(ClusterConfig(servers=3, seed=0), clients=1)
        client = cluster.clients[0]
        env = cluster.env
        probes = [f"probe-{index}" for index in range(256)]
        before = {name: cluster.shard_map.server_for(name) for name in probes}
        controller = FailoverController(
            cluster, [ShardCrash(at=0.01, shard=1, outage=0.25, redirect=True)]
        ).start()
        mid_outage = {}

        def during_outage():
            yield env.timeout(0.05)
            assert "server-1" not in cluster.shard_map.servers
            mid_outage["snapshot"] = {
                name: cluster.shard_map.server_for(name) for name in probes
            }
            handle = yield from client.create("born-in-outage")
            yield from client.write_at(handle, 0, b"x" * 4096)
            yield from client.close(handle)
            mid_outage["fhandle"] = handle.fhandle

        proc = env.process(during_outage(), name="outage-writer")
        env.run(until=proc)
        env.run()
        after = {name: cluster.shard_map.server_for(name) for name in probes}
        assert after == before
        assert controller.log[0]["redirected"]
        # Mid-outage, keys on the dead shard's arcs moved to survivors...
        moved = [n for n in probes if mid_outage["snapshot"][n] != before[n]]
        assert moved and all(before[n] == "server-1" for n in moved)
        # ...and the file created then stays reachable through its pinned
        # handle after the heal (no migration, pins outlive the outage).
        fhandle = mid_outage["fhandle"]
        pinned = cluster.router.server_for_fhandle(fhandle)
        assert pinned != "server-1"

        def reread():
            fattr = yield from client.getattr(fhandle)
            return fattr

        check = env.process(reread(), name="reread")
        env.run(until=check)
        assert check.value.size == 4096


class TestReplicaExperiment:
    def test_promote_storm_holds_the_guarantee(self):
        # Acceptance: a K=1 storm with >= 3 primary crashes mid-workload
        # finishes oracle-clean with byte-identical surviving images.
        arm = run_replica_arm(
            _replicated(servers=3, replicas=1),
            clients=4,
            files_per_client=2,
            file_kb=32,
            crashes=replica_storm(3, 3, promote=True),
        )
        assert arm.crashes == 3
        assert arm.promotions == 3
        assert arm.clean
        assert arm.violations == []
        assert arm.acked_writes > 0
        assert set(arm.acting_primaries.values()) == {
            "server-0.b1",
            "server-1.b1",
            "server-2.b1",
        }

    def test_sweep_reports_the_cost_of_k(self):
        result = _run_storm(
            ClusterConfig(servers=2, seed=0),
            replica_counts=[0, 1],
            clients=2,
            files_per_client=1,
            file_kb=16,
            storm_crashes=2,
        )
        assert result.clean
        payload = json.loads(result.to_json())
        assert payload["schema"] == "repro.replica/1"
        assert [arm["replicas"] for arm in payload["arms"]] == [0, 1]
        assert payload["arms"][0]["promotions"] == 0
        assert payload["arms"][1]["promotions"] == 2
        (row,) = payload["comparison"]
        assert row["replicas"] == 1
        assert row["p99_write_latency_vs_k0"] > 0

    def test_json_is_byte_identical_across_reruns(self):
        kwargs = dict(
            replica_counts=[1],
            clients=2,
            files_per_client=1,
            file_kb=16,
            storm_crashes=2,
        )
        first = _run_storm(ClusterConfig(servers=2, seed=3), **kwargs).to_json()
        second = _run_storm(ClusterConfig(servers=2, seed=3), **kwargs).to_json()
        assert first == second
