"""repro.cluster — scale-out NFS service: shards, routing, failover.

The paper studies write gathering at *one* server; this package puts N of
those servers behind a deterministic shard map and a client-side mount
router, so the multi-server workload family (scaling sweeps, shard
crashes, rebalancing) can be measured against the same oracle-checked
crash contract as the single-server experiments.

Layout:

* :mod:`~repro.cluster.shardmap` — consistent hashing with virtual nodes
  (seeded, balanced, minimal movement on grow/shrink);
* :mod:`~repro.cluster.router` — the client-side mount map: names hash,
  handles pin, zero placement RPCs;
* :mod:`~repro.cluster.fleet` — :class:`ClusterConfig` / :class:`Cluster`
  construction (per-shard disks, NVRAM, nfsd pools, disjoint inode
  ranges);
* :mod:`~repro.cluster.oracle` — per-shard crash-contract oracles with
  router-driven ack dispatch;
* :mod:`~repro.cluster.failover` — scripted shard crashes with outage
  windows and mount-map redirect;
* :mod:`~repro.cluster.experiment` — ``kind="cluster"``: one fleet run
  or the servers × clients scaling sweep.
"""

from repro.cluster.experiment import ClusterParams, ClusterRunResult, ScalingSweepResult
from repro.cluster.failover import FailoverController, ShardCrash
from repro.cluster.fleet import Cluster, ClusterConfig, build_cluster
from repro.cluster.oracle import ClusterOracle
from repro.cluster.router import ClusterRpc, MountRouter
from repro.cluster.shardmap import ShardMap

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterOracle",
    "ClusterParams",
    "ClusterRpc",
    "ClusterRunResult",
    "FailoverController",
    "MountRouter",
    "ScalingSweepResult",
    "ShardCrash",
    "ShardMap",
    "build_cluster",
]
