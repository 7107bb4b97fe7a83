"""The replication experiment: what does K-safety cost, and does it hold?

``repro replica`` runs the same seeded sharded write workload once per
replication factor (arms K=0, 1, 2 by default) under a crash-and-promote
storm: every storm event kills a shard's *acting primary* mid-workload
and (for K>0) promotes its freshest backup.  Each arm reports

* client-observed write latency (p50/p99) and aggregate throughput —
  the replicated-commit round trip is pure added commit latency, so the
  K=0 arm is the paper's baseline and the deltas are the cost of safety;
* acked-write survival: the group-level oracle contract (no acked write
  missing from the surviving replica set) checked at every crash and at
  the end, plus the post-quiesce divergence check (surviving replica
  images byte-identical);
* promotion bookkeeping (crashes, promotions, who is acting primary).

Everything is seeded; ``--json`` output is byte-identical across reruns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.cluster.experiment import CLUSTER_THINK_TIME, file_writer, run_fleet
from repro.cluster.failover import ShardCrash
from repro.cluster.fleet import ClusterConfig
from repro.experiments.runner import register
from repro.payload import PAYLOAD_FULL, coerce_payload_mode

__all__ = ["ReplicaParams", "ReplicaRunResult", "replica_storm", "run_replica_arm"]

REPLICA_SCHEMA = "repro.replica/1"

#: First storm crash lands after the workload has acked some writes...
STORM_START = 0.04
#: ...and subsequent crashes are spaced widely enough that promotion and
#: client rerouting settle between events.
STORM_SPACING = 0.05


def replica_storm(
    servers: int, crashes: int, promote: bool
) -> List[ShardCrash]:
    """The seeded crash plan: ``crashes`` primary kills, round-robin over
    shards.  With ``promote`` each kill fails over to the freshest backup;
    without (the K=0 baseline) the shard crash-reboots in place, the
    paper's fast-restart assumption."""
    return [
        ShardCrash(
            at=STORM_START + index * STORM_SPACING,
            shard=index % servers,
            promote=promote,
        )
        for index in range(crashes)
    ]


@dataclass
class ReplicaArm:
    """One replication factor's measured run."""

    replicas: int
    quorum: int
    elapsed: float
    total_bytes: int
    aggregate_kb_per_sec: float
    write_latency_ms: dict
    acked_writes: int
    crashes: int
    promotions: int
    replication: dict
    acting_primaries: dict
    oracle_checks: int
    stable_violations: int
    faults: List[dict] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations and self.stable_violations == 0

    def to_dict(self) -> dict:
        return {
            "replicas": self.replicas,
            "quorum": self.quorum,
            "elapsed": round(self.elapsed, 9),
            "total_bytes": self.total_bytes,
            "aggregate_kb_per_sec": round(self.aggregate_kb_per_sec, 2),
            "write_latency_ms": self.write_latency_ms,
            "acked_writes": self.acked_writes,
            "crashes": self.crashes,
            "promotions": self.promotions,
            "replication": self.replication,
            "acting_primaries": self.acting_primaries,
            "oracle_checks": self.oracle_checks,
            "stable_violations": self.stable_violations,
            "clean": self.clean,
            "faults": self.faults,
            "violations": list(self.violations),
        }


def run_replica_arm(
    config: ClusterConfig,
    clients: int = 6,
    files_per_client: int = 2,
    file_kb: int = 64,
    think_time: float = CLUSTER_THINK_TIME,
    crashes: Optional[Sequence[ShardCrash]] = None,
    payload: str = PAYLOAD_FULL,
) -> ReplicaArm:
    """One arm: the sharded write workload at one replication factor."""
    fleet = run_fleet(
        config,
        clients,
        file_writer(files_per_client, file_kb, think_time, payload),
        crashes=crashes,
    )
    fleet.quiesce()
    cluster, oracle, controller = fleet.cluster, fleet.oracle, fleet.controller
    total_bytes = clients * files_per_client * file_kb * 1024
    replication = {"batches": 0, "ops": 0, "acks": 0, "resyncs": 0}
    waits: List[float] = []
    for group in cluster.groups:
        for member in group.members:
            replicator = member.replicator
            if replicator is None:
                continue
            replication["batches"] += int(replicator.batches.value)
            replication["ops"] += int(replicator.ops.value)
            replication["acks"] += int(replicator.acks.value)
            replication["resyncs"] += int(replicator.resyncs.value)
            if replicator.wait.count:
                waits.append(replicator.wait.mean)
    replication["mean_commit_wait_ms"] = (
        round(sum(waits) / len(waits) * 1000.0, 4) if waits else 0.0
    )
    return ReplicaArm(
        replicas=config.replicas,
        quorum=min(config.quorum, config.replicas) if config.replicas else 0,
        elapsed=fleet.elapsed,
        total_bytes=total_bytes,
        aggregate_kb_per_sec=total_bytes / fleet.elapsed / 1024.0,
        write_latency_ms=fleet.write_latency_ms(),
        acked_writes=oracle.acked_writes,
        crashes=controller.crashes if controller else 0,
        promotions=controller.promotions if controller else 0,
        replication=replication,
        acting_primaries={
            group.logical_host: group.primary.host for group in cluster.groups
        },
        oracle_checks=oracle.checks,
        stable_violations=cluster.stable_violations_total(),
        faults=controller.log if controller else [],
        violations=oracle.violations,
    )


@dataclass
class ReplicaRunResult:
    """The K-sweep: replication cost vs acked-write survival."""

    servers: int
    clients: int
    files_per_client: int
    file_kb: int
    seed: int
    write_path: str
    quorum: int
    storm_crashes: int
    arms: List[ReplicaArm]

    @property
    def clean(self) -> bool:
        return all(arm.clean for arm in self.arms)

    def comparison(self) -> List[dict]:
        """Each K>0 arm's latency/throughput cost relative to K=0."""
        baseline = next((arm for arm in self.arms if arm.replicas == 0), None)
        if baseline is None:
            return []
        out = []
        base_p99 = baseline.write_latency_ms["p99"]
        base_throughput = baseline.aggregate_kb_per_sec
        for arm in self.arms:
            if arm.replicas == 0:
                continue
            out.append(
                {
                    "replicas": arm.replicas,
                    "p99_write_latency_vs_k0": (
                        round(arm.write_latency_ms["p99"] / base_p99, 4)
                        if base_p99
                        else None
                    ),
                    "throughput_vs_k0": (
                        round(arm.aggregate_kb_per_sec / base_throughput, 4)
                        if base_throughput
                        else None
                    ),
                }
            )
        return out

    def to_dict(self) -> dict:
        return {
            "schema": REPLICA_SCHEMA,
            "servers": self.servers,
            "clients": self.clients,
            "files_per_client": self.files_per_client,
            "file_kb": self.file_kb,
            "seed": self.seed,
            "write_path": self.write_path,
            "quorum": self.quorum,
            "storm_crashes": self.storm_crashes,
            "arms": [arm.to_dict() for arm in self.arms],
            "comparison": self.comparison(),
            "clean": self.clean,
        }

    def to_json(self) -> str:
        """Canonical (byte-stable under a fixed seed) JSON form."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass
class ReplicaParams:
    """``kind="replica"``: one storm arm per K in ``replica_counts``."""

    cluster: ClusterConfig = field(default_factory=lambda: ClusterConfig(servers=3))
    replica_counts: Sequence[int] = (0, 1, 2)
    clients: int = 6
    files_per_client: int = 2
    file_kb: int = 64
    storm_crashes: int = 3
    payload: str = PAYLOAD_FULL

    def __post_init__(self) -> None:
        for replicas in self.replica_counts:
            self.cluster.variant(replicas=replicas)  # e.g. quorum <= K for every arm
        if self.clients < 1 or self.files_per_client < 1 or self.file_kb < 1:
            raise ValueError("clients, files_per_client and file_kb must be >= 1")
        if self.storm_crashes < 0:
            raise ValueError(f"storm_crashes must be >= 0, got {self.storm_crashes}")
        self.payload = coerce_payload_mode(self.payload)


@register("replica", ReplicaParams)
def _run_replica(params: ReplicaParams, progress=None) -> ReplicaRunResult:
    """Sweep the replication factor under the crash-and-promote storm.

    Each arm is a fresh, independently seeded cluster; the storm is the
    same shape in every arm (identical times and shard order), differing
    only in whether a backup exists to promote.
    """
    base = params.cluster
    arms: List[ReplicaArm] = []
    for replicas in params.replica_counts:
        config = base.variant(replicas=replicas)
        crashes = replica_storm(
            config.servers, params.storm_crashes, promote=replicas > 0
        )
        arm = run_replica_arm(
            config,
            clients=params.clients,
            files_per_client=params.files_per_client,
            file_kb=params.file_kb,
            think_time=CLUSTER_THINK_TIME,
            crashes=crashes,
            payload=params.payload,
        )
        arms.append(arm)
        if progress is not None:
            progress(arm)
    return ReplicaRunResult(
        servers=base.servers,
        clients=params.clients,
        files_per_client=params.files_per_client,
        file_kb=params.file_kb,
        seed=base.seed,
        write_path=str(base.write_path),
        quorum=base.quorum,
        storm_crashes=params.storm_crashes,
        arms=arms,
    )
