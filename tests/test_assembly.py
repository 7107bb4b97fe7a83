"""One assembly path: a testbed, a fleet shard and the LADDIS generator
give their clients the same NFS layer for the same configuration."""

import pytest

from repro.cluster.fleet import Cluster, ClusterConfig
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.nfs.cache import CacheStack
from repro.workload.laddis import LaddisGenerator


def _wiring(client) -> tuple:
    window = client.write_window
    return (
        client.nbiods,
        client.write_cpu,
        client.nfs_version,
        None if window is None else window.cwnd,
        client.cache is not None,
    )


@pytest.mark.parametrize("lease_ttl", [None, 5.0], ids=["no-leases", "ttl-5s"])
@pytest.mark.parametrize("write_path", ["standard", "gather", "siva", "async_commit"])
def test_testbed_cluster_and_laddis_clients_are_wired_alike(write_path, lease_ttl):
    shared = dict(write_path=write_path, lease_ttl=lease_ttl, nbiods=6)
    testbed = Testbed(TestbedConfig(**shared))
    cluster = Cluster(ClusterConfig(servers=1, **shared))
    assert _wiring(testbed.add_client()) == _wiring(cluster.add_client())

    is_async = write_path == "async_commit"
    generator = LaddisGenerator(testbed, clients=2, procs_per_client=1)
    for client in generator.clients:
        assert client.nfs_version == (3 if is_async else 2)
        assert (client.write_window is not None) == is_async
        assert isinstance(client.cache, CacheStack) == (lease_ttl is not None)
    assert [c.rpc.endpoint.host for c in generator.clients] == [
        "laddis-client-0",
        "laddis-client-1",
    ]
