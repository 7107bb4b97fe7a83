"""Integration tests for repro.cluster: fleet, router, failover, experiments."""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterOracle,
    ShardCrash,
    build_cluster,
)
from repro.cluster.experiment import ClusterParams
from repro.cluster.fleet import INO_STRIDE
from repro.commit.experiment import CommitConfig, _probe_promotion_mid_commit
from repro.experiments import ExperimentSpec, run
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.integrity.experiment import ScrubConfig, run_scrub_arm
from repro.replica import run_replica_arm
from repro.tiering.experiment import TieringConfig, _run_arm, _run_storm
from repro.workload.sequential import write_file

KB = 1024


def _run_fleet(config, **params):
    """One ``kind="cluster"`` run; a sweep when given server/client counts."""
    return run(ExperimentSpec("cluster", ClusterParams(cluster=config, **params)))


def _write(cluster, client, name, nbytes=8 * KB):
    env = cluster.env
    proc = env.process(write_file(env, client, name, nbytes), name=f"w:{name}")
    env.run(until=proc)


class TestFleetConstruction:
    def test_shards_share_nothing_but_the_wire(self):
        cluster = build_cluster(ClusterConfig(servers=3), clients=0)
        assert len(cluster.servers) == 3
        assert len({id(s.ufs) for s in cluster.servers}) == 3
        assert len({d.name for shard in cluster.disks for d in shard}) == 3
        assert len(cluster.segments) == 1

    def test_disjoint_inode_ranges(self):
        cluster = build_cluster(ClusterConfig(servers=3), clients=1)
        client = cluster.clients[0]
        for index in range(9):
            _write(cluster, client, f"f{index}")
        pins = cluster.router.pins()
        assert pins  # every created file pinned its handle
        for (ino, _generation), host in pins.items():
            shard = int(host.split("-")[1])
            base = (shard + 1) * INO_STRIDE
            assert base <= ino < base + INO_STRIDE

    def test_racks_split_the_wire(self):
        cluster = build_cluster(ClusterConfig(servers=4, racks=2), clients=1)
        assert len(cluster.segments) == 2
        assert {cluster.segment_of(f"server-{i}").name for i in range(4)} == {
            "fddi.rack0",
            "fddi.rack1",
        }
        client = cluster.clients[0]
        for index in range(8):
            _write(cluster, client, f"f{index}")
        oracle = ClusterOracle(cluster)
        assert oracle.check("racks") == []


class TestRouting:
    def test_files_land_where_the_map_says(self):
        cluster = build_cluster(ClusterConfig(servers=3, seed=1), clients=1)
        client = cluster.clients[0]
        names = [f"routed-{index}" for index in range(12)]
        for name in names:
            _write(cluster, client, name)
        rollup = {shard["host"]: shard["files_created"] for shard in cluster.per_shard_rollup()}
        expected = cluster.shard_map.load(names)
        assert rollup == expected
        assert sum(rollup.values()) == len(names)

    def test_unpinned_handle_is_an_error(self):
        cluster = build_cluster(ClusterConfig(servers=2), clients=0)
        with pytest.raises(KeyError, match="not pinned"):
            cluster.router.server_for_fhandle((INO_STRIDE + 1, 0))

    def test_root_handle_routes_home(self):
        cluster = build_cluster(ClusterConfig(servers=4), clients=0)
        assert cluster.router.server_for_fhandle((2, 0)) == cluster.router.home
        assert cluster.router.home in cluster.shard_map.servers


class TestGrow:
    def test_grow_routes_new_files_without_moving_old_pins(self):
        cluster = build_cluster(ClusterConfig(servers=2, seed=0), clients=1)
        client = cluster.clients[0]
        old_names = [f"old-{index}" for index in range(6)]
        for name in old_names:
            _write(cluster, client, name)
        pins_before = cluster.router.pins()
        placement_before = {n: cluster.shard_map.server_for(n) for n in old_names}

        newcomer = cluster.grow()
        assert newcomer.host == "server-2"
        assert len(cluster.shard_map) == 3
        # Existing pins are untouched — growth redirects future placement.
        assert cluster.router.pins() == pins_before

        moved = [
            n for n in old_names
            if cluster.shard_map.server_for(n) != placement_before[n]
        ]
        for name in moved:
            assert cluster.shard_map.server_for(name) == "server-2"

        # A name that now maps to the newcomer is actually served there.
        target = next(
            f"new-{index}"
            for index in range(1000)
            if cluster.shard_map.server_for(f"new-{index}") == "server-2"
        )
        _write(cluster, client, target)
        rollup = cluster.per_shard_rollup()
        assert rollup[2]["host"] == "server-2"
        assert rollup[2]["files_created"] == 1


class TestRunCluster:
    def test_basic_run_is_clean_and_accounted(self):
        result = _run_fleet(ClusterConfig(servers=2, seed=0), clients=4)
        assert result.clean
        assert result.acked_writes == 4 * 2 * (64 // 8)
        assert sum(result.placement.values()) == 4 * 2
        assert result.aggregate["files_created"] == 4 * 2
        assert result.total_bytes == 4 * 2 * 64 * KB

    def test_json_is_byte_identical_across_reruns(self):
        config = ClusterConfig(servers=4, seed=3)
        first = _run_fleet(config, clients=8).to_json()
        second = _run_fleet(config, clients=8).to_json()
        assert first == second

    def test_different_seeds_change_placement(self):
        a = _run_fleet(ClusterConfig(servers=4, seed=0), clients=4)
        b = _run_fleet(ClusterConfig(servers=4, seed=9), clients=4)
        assert a.placement != b.placement

    def test_shard_crash_holds_the_contract(self):
        crash = ShardCrash(at=0.05, shard=1, outage=0.3, redirect=True)
        result = _run_fleet(
            ClusterConfig(servers=3, seed=0), clients=6, crashes=[crash]
        )
        assert result.clean
        assert result.crashes == 1
        assert result.faults[0]["host"] == "server-1"
        assert result.faults[0]["redirected"]
        assert result.retransmissions > 0
        # The shard rejoined: the map ends at full strength.
        assert result.servers == 3

    def test_crash_without_outage(self):
        crash = ShardCrash(at=0.02, shard=0)
        result = _run_fleet(
            ClusterConfig(servers=2, seed=0), clients=2, crashes=[crash]
        )
        assert result.clean
        assert result.crashes == 1
        assert not result.faults[0]["redirected"]

    def test_crash_shard_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="names shard 5"):
            _run_fleet(
                ClusterConfig(servers=2),
                clients=1,
                crashes=[ShardCrash(at=0.01, shard=5)],
            )


class TestScaling:
    def test_sweep_shows_dilution_and_monotonic_throughput(self):
        # The headline trade: sharding multiplies spindles (throughput up)
        # but thins each server's request stream (gather ratio down).
        sweep = _run_fleet(
            ClusterConfig(servers=1, write_path="gather", seed=0),
            server_counts=[1, 4],
            client_counts=[8],
        )
        assert sweep.clean
        one, four = sweep.rows
        assert four.aggregate_kb_per_sec > one.aggregate_kb_per_sec
        assert four.mean_gather_ratio() <= one.mean_gather_ratio()
        table = sweep.table()
        assert table[0]["scaling_efficiency"] == 1.0
        assert 0 < table[1]["scaling_efficiency"] < 1.0

    def test_sweep_json_round_trips(self):
        import json

        sweep = _run_fleet(
            ClusterConfig(servers=1, seed=0),
            server_counts=[1, 2],
            client_counts=[2],
            files_per_client=1,
            file_kb=16,
        )
        payload = json.loads(sweep.to_json())
        assert payload["server_counts"] == [1, 2]
        assert len(payload["rows"]) == 2
        assert len(payload["table"]) == 2


class TestTestbedAddClient:
    def test_auto_hosts_never_collide_with_explicit_names(self):
        testbed = Testbed(TestbedConfig())
        testbed.add_client(host="client-0")
        auto = testbed.add_client()  # must skip the taken name
        assert auto.rpc.endpoint.host == "client-1"
        assert testbed.add_client().rpc.endpoint.host == "client-2"

    def test_repeated_auto_hosts_are_unique(self):
        testbed = Testbed(TestbedConfig())
        hosts = [testbed.add_client().rpc.endpoint.host for _ in range(4)]
        assert len(set(hosts)) == 4


def _cluster_arm():
    config = ClusterConfig(servers=2, replicas=1)
    return _run_fleet(config, clients=2, files_per_client=1, file_kb=16).clean


def _replica_arm():
    return run_replica_arm(ClusterConfig(servers=2, replicas=1), clients=2, file_kb=16).clean


def _scrub_arm():
    return run_scrub_arm(ScrubConfig(clients=2, files_per_client=1), 0.25, 4 << 20, 1).clean


def _tiering_arm():
    config = TieringConfig(tenants=2, files_per_tenant=2, ops_per_tenant=8)
    arm = _run_arm(config, "mixed", "hot-first", ClusterConfig(tiers=config.mixed_tiers()))
    return arm.clean


def _tiering_storm():
    return _run_storm(TieringConfig(tenants=3, files_per_tenant=2, ops_per_tenant=16))["clean"]


def _commit_promotion_probe():
    return _probe_promotion_mid_commit(CommitConfig())["clean"]


@pytest.mark.parametrize(
    "arm",
    [_cluster_arm, _replica_arm, _scrub_arm, _tiering_arm, _tiering_storm, _commit_promotion_probe],
    ids=lambda arm: arm.__name__.lstrip("_"),
)
def test_every_fleet_arm_quiesces_with_one_divergence_check(arm, monkeypatch):
    """Every fleet experiment ends the same way: drain, the final crash
    check, then exactly one post-quiesce replica byte-compare."""
    labels = []
    check_divergence = ClusterOracle.check_divergence

    def counted(oracle, label="quiesce"):
        labels.append(label)
        return check_divergence(oracle, label)

    monkeypatch.setattr(ClusterOracle, "check_divergence", counted)
    assert arm()
    assert labels == ["quiesce"]
