"""Cluster-wide experiments: the sharded write workload and scaling sweeps.

``kind="cluster"`` (:class:`ClusterParams`) is the fleet analogue of the paper's file copy: every
client writes its own set of files, the shard map spreads those files
across the fleet, and the result records aggregate throughput next to
*per-shard* gathering efficacy — the tension this subsystem exists to
measure.  Sharding multiplies spindles and nfsd pools, but it also thins
each server's request stream, and write gathering (§5-§6) feeds on a
busy server: fewer same-file companions in the socket buffer means more
singleton batches.  Given ``server_counts``/``client_counts`` the same
kind runs a scaling sweep that quantifies exactly that trade as servers ×
clients grow.

Everything is seeded: the same :class:`ClusterConfig` produces the same
placement, the same sim timeline, and byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional, Sequence

from repro.cluster.failover import FailoverController, ShardCrash, check_plan
from repro.cluster.fleet import Cluster, ClusterConfig
from repro.cluster.oracle import ClusterOracle
from repro.experiments.runner import register
from repro.nfs.client import NfsClient
from repro.obs import registry_for
from repro.payload import PAYLOAD_FULL, coerce_payload_mode
from repro.sim import AllOf, Environment
from repro.workload.sequential import write_file

__all__ = [
    "ClusterParams",
    "ClusterRunResult",
    "FleetRun",
    "ScalingSweepResult",
    "client_files",
    "file_writer",
    "run_fleet",
]

#: A per-client writer: ``workload(env, client, index)`` is the body of
#: client ``index``'s process.
Workload = Callable[[Environment, NfsClient, int], Generator]


@dataclass
class ClusterRunResult:
    """Everything one cluster run measured, JSON-stable under a seed."""

    servers: int
    clients: int
    vnodes: int
    racks: int
    write_path: str
    presto: bool
    seed: int
    file_kb: int
    files_per_client: int
    elapsed: float
    total_bytes: int
    aggregate_kb_per_sec: float
    per_shard: List[dict]
    aggregate: dict
    placement: dict
    acked_writes: int
    retransmissions: int
    crashes: int
    oracle_checks: int
    stable_violations: int
    faults: List[dict] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations and self.stable_violations == 0

    def mean_gather_ratio(self) -> Optional[float]:
        """Write-weighted mean of the per-shard gather ratios."""
        total = sum(s.get("gather_writes", 0) for s in self.per_shard)
        if not total:
            return None
        gathered = sum(
            s.get("gather_ratio", 0.0) * s.get("gather_writes", 0)
            for s in self.per_shard
        )
        return gathered / total

    def to_dict(self) -> dict:
        payload = {
            "servers": self.servers,
            "clients": self.clients,
            "vnodes": self.vnodes,
            "racks": self.racks,
            "write_path": self.write_path,
            "presto": self.presto,
            "seed": self.seed,
            "file_kb": self.file_kb,
            "files_per_client": self.files_per_client,
            "elapsed": round(self.elapsed, 9),
            "total_bytes": self.total_bytes,
            "aggregate_kb_per_sec": round(self.aggregate_kb_per_sec, 2),
            "per_shard": self.per_shard,
            "aggregate": self.aggregate,
            "placement": self.placement,
            "acked_writes": self.acked_writes,
            "retransmissions": self.retransmissions,
            "crashes": self.crashes,
            "oracle_checks": self.oracle_checks,
            "stable_violations": self.stable_violations,
            "clean": self.clean,
            "faults": self.faults,
            "violations": list(self.violations),
        }
        ratio = self.mean_gather_ratio()
        if ratio is not None:
            payload["mean_gather_ratio"] = round(ratio, 4)
        return payload

    def to_json(self) -> str:
        """Canonical (byte-stable under a fixed seed) JSON form."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def client_files(host: str, files_per_client: int) -> List[str]:
    """The deterministic file names one client writes."""
    return [f"{host}-f{index}" for index in range(files_per_client)]


#: Default producer think time for cluster workloads.  Deliberately a
#: touch *slower* than FDDI's 5 ms procrastination interval: a saturating
#: fast producer gathers 100% everywhere (the biod train always fills a
#: batch), hiding the sharding effect.  At 6 ms the gatherer only wins
#: when server-side queueing holds same-file writes together — which is
#: exactly the per-server concurrency that sharding dilutes.
CLUSTER_THINK_TIME = 0.006


def file_writer(
    files_per_client: int,
    file_kb: int,
    think_time: float = CLUSTER_THINK_TIME,
    payload: str = PAYLOAD_FULL,
) -> Workload:
    """The sharded write workload: each client writes its own
    :func:`client_files` in turn, ``file_kb`` each."""

    def workload(env: Environment, client: NfsClient, index: int) -> Generator:
        for name in client_files(client.rpc.endpoint.host, files_per_client):
            yield from write_file(
                env, client, name, file_kb * 1024, think_time=think_time, payload=payload
            )

    return workload


def _timed(env: Environment, body: Generator) -> Generator:
    yield from body
    return env.now


@dataclass
class FleetRun:
    """One seeded fleet run, driven until its writers finish.

    Every cluster experiment arm is one of these: :func:`run_fleet` builds
    the fleet and its oracle, arms the caller's extras, starts one writer
    per client (plus an optional crash plan) and runs until the last
    writer returns.  The arm then adds its own phases, if any, and calls
    :meth:`quiesce` — the one drain-and-check every arm ends with.
    """

    cluster: Cluster
    oracle: ClusterOracle
    #: Whatever the ``arm`` hook returned (policy, scrubber, engine...).
    armed: Any
    controller: Optional[FailoverController]
    #: Sim time the last writer finished.
    elapsed: float

    def quiesce(self) -> List[str]:
        """Drain in-flight completions, replication sessions, NVRAM
        destage and watchdogs, then assert the crash contract and byte-
        compare surviving replicas; returns the violations found."""
        self.cluster.env.run()
        found = self.oracle.check("final")
        found.extend(self.oracle.check_divergence("quiesce"))
        return found

    def write_latency_ms(self) -> dict:
        """Client-observed write latency over every client.  Floor rank,
        not :meth:`Tally.percentile`'s ceil rank: the seeded replica and
        tiering outputs pin this rule."""
        samples = sorted(
            sample for client in self.cluster.clients for sample in client.write_latency.samples
        )

        def at(q: float) -> float:
            if not samples:
                return 0.0
            return samples[min(len(samples) - 1, int(q * len(samples)))]

        return {
            "mean": round((sum(samples) / len(samples) * 1000.0) if samples else 0.0, 4),
            "p50": round(at(0.50) * 1000.0, 4),
            "p99": round(at(0.99) * 1000.0, 4),
        }


def run_fleet(
    config: ClusterConfig,
    clients: int,
    workload: Workload,
    arm: Optional[Callable[[Cluster, ClusterOracle], Any]] = None,
    crashes: Optional[Sequence[ShardCrash]] = None,
) -> FleetRun:
    """Build, arm and drive one fleet (see :class:`FleetRun`).

    ``arm(cluster, oracle)`` hooks in placement, scrubbers, fault storms
    or migration engines before any client exists.  Clients are then
    added, attached and started one at a time, in index order — heap
    order decides the seeded timeline — and ``crashes`` (if any) drive a
    :class:`FailoverController` once every writer is running.
    """
    if clients < 1:
        raise ValueError(f"need at least one client, got {clients}")
    cluster = Cluster(config)
    oracle = ClusterOracle(cluster)
    env = cluster.env
    # Pre-register the clients' write-latency tallies *with samples*
    # before the clients build (registration is get-or-create), so
    # percentiles are computable without touching the client code.
    registry = registry_for(env)
    for index in range(clients):
        registry.tally(f"nfs.client-{index}.write_latency", keep_samples=True)
    armed = arm(cluster, oracle) if arm is not None else None
    writers = []
    for index in range(clients):
        client = cluster.add_client()
        oracle.attach(client)
        writers.append(
            env.process(
                _timed(env, workload(env, client, index)),
                name=f"workload:{client.rpc.endpoint.host}",
            )
        )
    controller = None
    if crashes:
        controller = FailoverController(cluster, crashes, oracle=oracle).start()
    env.run(until=AllOf(env, writers))
    return FleetRun(
        cluster=cluster,
        oracle=oracle,
        armed=armed,
        controller=controller,
        elapsed=max(proc.value for proc in writers),
    )


@dataclass
class ClusterParams:
    """``kind="cluster"``: one fleet run, or a scaling sweep when
    ``server_counts``/``client_counts`` is given (a missing axis holds at
    ``cluster.servers``/``clients``)."""

    cluster: ClusterConfig = field(
        default_factory=lambda: ClusterConfig(write_path="standard")
    )
    clients: int = 4
    files_per_client: int = 2
    file_kb: int = 64
    #: ShardCrash plan for a single-cell run.
    crashes: Optional[Sequence[ShardCrash]] = None
    payload: str = PAYLOAD_FULL
    server_counts: Optional[Sequence[int]] = None
    client_counts: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        for clients in self.client_counts or (self.clients,):
            if clients < 1:
                raise ValueError(f"need at least one client, got {clients}")
        for servers in self.server_counts or ():
            self.cluster.variant(servers=servers)  # each swept fleet must be valid
        if self.files_per_client < 1 or self.file_kb < 1:
            raise ValueError("files_per_client and file_kb must be >= 1")
        if self.crashes and self.sweep:
            raise ValueError("crashes only apply to single-cell runs")
        check_plan(self.crashes or (), self.cluster.servers)
        self.payload = coerce_payload_mode(self.payload)

    @property
    def sweep(self) -> bool:
        return self.server_counts is not None or self.client_counts is not None


def _run_cell(params: ClusterParams, config: ClusterConfig, clients: int) -> ClusterRunResult:
    """Run the sharded write workload on ``config`` with ``clients``
    writers (under ``params.crashes``, if any)."""
    fleet = run_fleet(
        config,
        clients,
        file_writer(params.files_per_client, params.file_kb, payload=params.payload),
        crashes=params.crashes,
    )
    fleet.quiesce()
    cluster, oracle, controller = fleet.cluster, fleet.oracle, fleet.controller
    total_bytes = clients * params.files_per_client * params.file_kb * 1024
    placement = {server.host: 0 for server in cluster.servers}
    for client in cluster.clients:
        for name in client_files(client.rpc.endpoint.host, params.files_per_client):
            placement[cluster.router.server_for_name(name)] += 1
    return ClusterRunResult(
        servers=len(cluster.servers),
        clients=clients,
        vnodes=config.vnodes,
        racks=config.racks,
        write_path=str(config.write_path),
        presto=bool(config.presto_bytes),
        seed=config.seed,
        file_kb=params.file_kb,
        files_per_client=params.files_per_client,
        elapsed=fleet.elapsed,
        total_bytes=total_bytes,
        aggregate_kb_per_sec=total_bytes / fleet.elapsed / 1024.0,
        per_shard=cluster.per_shard_rollup(),
        aggregate=cluster.aggregate_rollup(),
        placement=placement,
        acked_writes=oracle.acked_writes,
        retransmissions=int(
            sum(client.rpc.retransmissions_total for client in cluster.clients)
        ),
        crashes=controller.crashes if controller else 0,
        oracle_checks=oracle.checks,
        stable_violations=cluster.stable_violations_total(),
        faults=controller.log if controller else [],
        violations=oracle.violations,
    )


@dataclass
class ScalingSweepResult:
    """The servers × clients grid and its scaling-efficiency table."""

    server_counts: List[int]
    client_counts: List[int]
    rows: List[ClusterRunResult]

    def table(self) -> List[dict]:
        """One summary row per (servers, clients) cell.

        ``scaling_efficiency`` is throughput relative to perfect linear
        scaling from the 1-server cell at the same client count (absent
        when the sweep does not include 1 server).
        """
        base: dict = {}
        for row in self.rows:
            if row.servers == 1:
                base[row.clients] = row.aggregate_kb_per_sec
        out = []
        for row in self.rows:
            summary = {
                "servers": row.servers,
                "clients": row.clients,
                "aggregate_kb_per_sec": round(row.aggregate_kb_per_sec, 2),
                "mean_gather_ratio": (
                    round(row.mean_gather_ratio(), 4)
                    if row.mean_gather_ratio() is not None
                    else None
                ),
                "clean": row.clean,
            }
            reference = base.get(row.clients)
            if reference:
                summary["scaling_efficiency"] = round(
                    row.aggregate_kb_per_sec / (row.servers * reference), 4
                )
            out.append(summary)
        return out

    def to_dict(self) -> dict:
        return {
            "server_counts": list(self.server_counts),
            "client_counts": list(self.client_counts),
            "table": self.table(),
            "rows": [row.to_dict() for row in self.rows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @property
    def clean(self) -> bool:
        return all(row.clean for row in self.rows)


@register("cluster", ClusterParams)
def _run_cluster(params: ClusterParams, progress=None):
    """One cell, or the servers × clients sweep: each cell a fresh,
    independently seeded cluster, reported to ``progress`` as it ends."""
    if not params.sweep:
        return _run_cell(params, params.cluster, params.clients)
    server_counts = list(params.server_counts or [params.cluster.servers])
    client_counts = list(params.client_counts or [params.clients])
    rows: List[ClusterRunResult] = []
    for servers in server_counts:
        for clients in client_counts:
            rows.append(_run_cell(params, params.cluster.variant(servers=servers), clients))
            if progress is not None:
                progress(rows[-1])
    return ScalingSweepResult(server_counts=server_counts, client_counts=client_counts, rows=rows)
