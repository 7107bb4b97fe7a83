"""The ``repro cache`` experiment: what lease caching buys, and what it risks.

Three sections, one report:

* **Sweep** — the headline shared-read/private-write workload over a grid
  of lease TTL × sharing ratio, leases on vs off, measuring
  *RPCs per user operation* (the number client caching exists to shrink:
  Gray & Cheriton's consistency argument is only interesting because the
  cache it protects deletes most of the wire traffic).
* **Workloads** — the same before/after on compact profiles of the repo's
  other experiment families: the sequential ``copy``, the SFS ``laddis``
  mix, the sharded ``cluster`` fleet, and a paced ``overload``-style
  write fleet.
* **Chaos** — the staleness contract under adversity, checked by the
  omniscient :class:`~repro.lease.oracle.StalenessOracle`: a server crash
  in the middle of a recall-and-flush, a recall callback severed from its
  holder, and a holder partitioned past its lease TTL.

Everything is seeded; same-seed reruns produce byte-identical JSON (the
report carries no wall-clock-derived field).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import register
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.faults.controller import FaultController
from repro.faults.events import AtTime, FaultPlan, NetworkPartition, ServerCrash
from repro.lease.oracle import StalenessOracle
from repro.net.spec import FDDI
from repro.nfs.client import NfsError
from repro.sim import AllOf
from repro.workload.sequential import patterned_chunk, write_file

__all__ = ["CacheConfig", "CacheReport", "WORKLOADS"]

WORKLOADS = ("copy", "laddis", "cluster", "overload")

CHUNK = 8192


@dataclass
class CacheConfig:
    """One cache sweep: the TTL and sharing axes, the fleet, the probes."""

    #: Lease TTL axis (seconds), swept against the off arm.
    lease_ttls: Sequence[float] = (1.0, 5.0, 30.0)
    #: Fraction of each client's operations aimed at the *shared* read
    #: set (the rest are private write-behind appends).
    sharing_ratios: Sequence[float] = (0.25, 0.5, 0.9)
    clients: int = 4
    ops_per_client: int = 30
    shared_files: int = 4
    #: The cell the acceptance criterion reads.  None = the top of each
    #: axis; explicit values must lie on the axis.
    headline_ttl: Optional[float] = None
    headline_sharing: Optional[float] = None
    #: Required RPCs-per-op reduction (off/on) at the headline cell.
    min_reduction: float = 3.0
    #: Per-op pacing.  Deliberately slow enough that the run outlives the
    #: short end of the TTL axis (30 ops x 50 ms = 1.5 s), so a 1 s lease
    #: actually expires mid-run and the TTL sweep has a shape.
    think_time: float = 0.05
    netspec: object = FDDI
    write_path: str = "standard"
    seed: int = 0
    #: Workload profiles to run before/after (subset of WORKLOADS).
    workloads: Sequence[str] = WORKLOADS
    #: Run the chaos probes (crash mid-recall, lost callback, partition
    #: past TTL) under the staleness oracle.
    chaos: bool = True
    #: TTL for the chaos probes.  Deliberately short: the probes lean on
    #: expiry as the recall fallback, and a promoted/rebooted server's
    #: grace period blocks write-class ops one full TTL.
    chaos_ttl: float = 2.0

    def __post_init__(self) -> None:
        if self.clients < 2:
            raise ValueError(f"sharing needs at least two clients, got {self.clients}")
        if self.ops_per_client < 1:
            raise ValueError("ops_per_client must be >= 1")
        if not self.lease_ttls or any(ttl <= 0 for ttl in self.lease_ttls):
            raise ValueError(f"lease_ttls must be positive, got {self.lease_ttls!r}")
        if any(not 0.0 <= ratio <= 1.0 for ratio in self.sharing_ratios):
            raise ValueError("sharing ratios must be in [0, 1]")
        if self.headline_ttl is None:
            self.headline_ttl = max(self.lease_ttls)
        elif self.headline_ttl not in self.lease_ttls:
            raise ValueError(
                f"headline_ttl {self.headline_ttl} must be one of {self.lease_ttls!r}"
            )
        if self.headline_sharing is None:
            self.headline_sharing = max(self.sharing_ratios)
        elif self.headline_sharing not in self.sharing_ratios:
            raise ValueError(
                f"headline_sharing {self.headline_sharing} must be one of "
                f"{self.sharing_ratios!r}"
            )
        if self.chaos_ttl <= 0:
            raise ValueError(f"chaos_ttl must be positive, got {self.chaos_ttl}")
        unknown = set(self.workloads) - set(WORKLOADS)
        if unknown:
            raise ValueError(f"unknown workloads {sorted(unknown)!r}")

    def testbed_config(self, ttl: Optional[float]) -> TestbedConfig:
        return TestbedConfig(
            netspec=self.netspec,
            write_path=self.write_path,
            seed=self.seed,
            lease_ttl=ttl,
        )


# -- measurement helpers --------------------------------------------------------


def _fleet_rpcs_per_op(clients) -> dict:
    """Aggregate RPCs / user ops over a client fleet (one shared ratio)."""
    rpcs = sum(c.rpcs_per_op.numerator.value for c in clients)
    user_ops = sum(c.rpcs_per_op.denominator.value for c in clients)
    return {
        "rpcs": int(rpcs),
        "user_ops": int(user_ops),
        "rpcs_per_op": round(rpcs / user_ops, 4) if user_ops else 0.0,
    }


def _cache_totals(clients) -> Optional[dict]:
    stacks = [c.cache for c in clients if c.cache is not None]
    if not stacks:
        return None
    return {
        "attr_hits": sum(s.attr_hits.value for s in stacks),
        "dirent_hits": sum(s.dirent_hits.value for s in stacks),
        "negative_hits": sum(s.negative_hits.value for s in stacks),
        "data_hits": sum(s.data_hits.value for s in stacks),
        "deferred_writes": sum(s.deferred_writes.value for s in stacks),
        "flushed_blocks": sum(s.flushed_blocks.value for s in stacks),
        "recalls_served": sum(s.recalls_served.value for s in stacks),
        "reregistrations": sum(s.reregistrations.value for s in stacks),
    }


def _lease_totals(managers) -> Optional[dict]:
    managers = [m for m in managers if m is not None]
    if not managers:
        return None
    return {
        "granted": sum(m.granted.value for m in managers),
        "recalls": sum(m.recalls_sent.value for m in managers),
        "recall_acks": sum(m.recall_acks.value for m in managers),
        "recall_expirations": sum(m.recall_expirations.value for m in managers),
        "grace_delays": sum(m.grace_delays.value for m in managers),
    }


def _arm_record(clients, managers, oracle, errors) -> dict:
    record = _fleet_rpcs_per_op(clients)
    cache = _cache_totals(clients)
    if cache is not None:
        record["cache"] = cache
    leases = _lease_totals(managers)
    if leases is not None:
        record["leases"] = leases
    if oracle is not None:
        record["oracle"] = {
            "hits_checked": oracle.hits_checked,
            "mutations_checked": oracle.mutations_checked,
            "violations": list(oracle.violations),
        }
    record["errors"] = sorted(errors)
    return record


def _reduction(off: dict, on: dict) -> float:
    if not on["rpcs_per_op"]:
        return 0.0
    return round(off["rpcs_per_op"] / on["rpcs_per_op"], 2)


# -- the shared-read / private-write workload -----------------------------------


def _setup_shared(env, client, count: int):
    """Client 0 creates and fills the shared read set; returns the names."""
    names = []
    for index in range(count):
        name = f"shared-{index}"
        open_file = yield from client.create(name)
        yield from client.write_stream(open_file, patterned_chunk(index, CHUNK))
        yield from client.write_stream(open_file, patterned_chunk(index + 1, CHUNK))
        yield from client.close(open_file)
        names.append(name)
    return names


def _shared_worker(env, client, shared, sharing, ops, think, rng, errors):
    """One client: shared open/read/getattr/close or a private append."""
    host = client.rpc.endpoint.host
    try:
        private = yield from client.create(f"priv-{host}")
    except NfsError as exc:
        errors.append(f"{host}: create {exc}")
        return
    block = 0
    for _ in range(ops):
        yield env.timeout(think)
        try:
            if rng.random() < sharing:
                name = shared[rng.randrange(len(shared))]
                open_file = yield from client.open(name)
                yield from client.read(open_file, 0, CHUNK)
                yield from client.getattr(open_file.fhandle)
                yield from client.close(open_file)
            else:
                yield from client.write_stream(private, patterned_chunk(block, CHUNK))
                block += 1
        except NfsError as exc:
            errors.append(f"{host}: {exc}")
    try:
        yield from client.close(private)
    except NfsError as exc:
        errors.append(f"{host}: close {exc}")


def _drive_shared(env, clients, config: CacheConfig, sharing: float, errors, ops=None):
    """Setup then run one worker per client; returns when all finish."""
    setup = env.process(
        _setup_shared(env, clients[0], config.shared_files), name="cache-setup"
    )
    env.run(until=setup)
    shared = setup.value
    workers = [
        env.process(
            _shared_worker(
                env,
                client,
                shared,
                sharing,
                config.ops_per_client if ops is None else ops,
                config.think_time,
                random.Random(config.seed * 7919 + index),
                errors,
            ),
            name=f"cache-worker:{index}",
        )
        for index, client in enumerate(clients)
    ]
    env.run(until=AllOf(env, workers))
    env.run()  # drain destage, recalls, watchdogs


def _run_shared_arm(config: CacheConfig, ttl: Optional[float], sharing: float) -> dict:
    """One (ttl, sharing) cell on a single-server testbed."""
    testbed = Testbed(config.testbed_config(ttl))
    for _ in range(config.clients):
        testbed.add_client()
    oracle = None
    if ttl is not None:
        oracle = StalenessOracle(testbed.env)
        oracle.attach_testbed(testbed)
    errors: List[str] = []
    _drive_shared(testbed.env, testbed.clients, config, sharing, errors)
    managers = [testbed.server.leases]
    record = _arm_record(testbed.clients, managers, oracle, errors)
    record["stable_violations"] = len(testbed.server.stable_violations)
    return record


# -- workload profiles ----------------------------------------------------------


def _profile_copy(config: CacheConfig, ttl: Optional[float]) -> dict:
    """A compact sequential file copy (the paper's §7.1 shape)."""
    testbed = Testbed(config.testbed_config(ttl))
    client = testbed.add_client()
    env = testbed.env
    proc = env.process(
        write_file(env, client, "copyfile", 256 * 1024, think_time=0.0005),
        name="cache-copy",
    )
    env.run(until=proc)
    env.run()
    return _arm_record([client], [testbed.server.leases], None, [])


def _profile_laddis(config: CacheConfig, ttl: Optional[float]) -> dict:
    """A compact SFS mix point (lookup/getattr-heavy, 15% writes)."""
    from repro.nfs.cache import CacheStack
    from repro.workload.laddis import LaddisGenerator

    testbed = Testbed(config.testbed_config(ttl))
    env = testbed.env
    generator = LaddisGenerator(
        env,
        testbed.segment,
        server_host=testbed.server.host,
        clients=2,
        procs_per_client=2,
        file_count=8,
        file_blocks=2,
        seed=config.seed + 12345,
    )
    if ttl is not None:
        # The generator builds bare clients; a leased server requires the
        # recall handler, so give each one the full cache stack.
        for client in generator.clients:
            CacheStack(env, client)
    setup = env.process(generator.setup(), name="cache-laddis-setup")
    env.run(until=setup)
    point = env.process(
        generator.run_point(offered_ops=120.0, duration=1.5, warmup=0.25),
        name="cache-laddis",
    )
    env.run(until=point)
    env.run()
    return _arm_record(generator.clients, [testbed.server.leases], None, [])


def _profile_cluster(config: CacheConfig, ttl: Optional[float]) -> dict:
    """The shared workload against a two-shard fleet."""
    from repro.cluster.fleet import Cluster, ClusterConfig

    cluster = Cluster(
        ClusterConfig(servers=2, seed=config.seed, lease_ttl=ttl)
    )
    for _ in range(max(2, config.clients - 1)):
        cluster.add_client()
    oracle = None
    if ttl is not None:
        oracle = StalenessOracle(cluster.env)
        oracle.attach_cluster(cluster)
    errors: List[str] = []
    _drive_shared(cluster.env, cluster.clients, config, 0.5, errors, ops=20)
    managers = [server.leases for server in cluster.servers]
    record = _arm_record(cluster.clients, managers, oracle, errors)
    record["stable_violations"] = cluster.stable_violations_total()
    return record


def _profile_overload(config: CacheConfig, ttl: Optional[float]) -> dict:
    """A write-heavy paced fleet (the overload experiment's shape, scaled
    down and without the storm: the cache must not distort a hot write
    path even when there is little for it to serve)."""
    testbed = Testbed(config.testbed_config(ttl))
    for _ in range(config.clients):
        testbed.add_client()
    errors: List[str] = []
    saved = config.think_time
    try:
        config.think_time = 0.0005
        _drive_shared(testbed.env, testbed.clients, config, 0.1, errors, ops=20)
    finally:
        config.think_time = saved
    record = _arm_record(testbed.clients, [testbed.server.leases], None, errors)
    record["stable_violations"] = len(testbed.server.stable_violations)
    return record


_PROFILES = {
    "copy": _profile_copy,
    "laddis": _profile_laddis,
    "cluster": _profile_cluster,
    "overload": _profile_overload,
}


# -- chaos probes ---------------------------------------------------------------


def _probe_harness(config: CacheConfig, plan: FaultPlan, script) -> dict:
    """Two clients, the oracle, one fault plan, one scripted scenario.

    ``script(env, clients, errors)`` returns the worker processes."""
    testbed = Testbed(config.testbed_config(config.chaos_ttl))
    testbed.add_client()
    testbed.add_client()
    env = testbed.env
    oracle = StalenessOracle(env)
    oracle.attach_testbed(testbed)
    controller = FaultController(testbed, plan, oracle=oracle).start()
    errors: List[str] = []
    workers = script(env, testbed.clients, errors)
    env.run(until=AllOf(env, workers))
    env.run()
    record = _arm_record(testbed.clients, [testbed.server.leases], oracle, errors)
    record["stable_violations"] = len(testbed.server.stable_violations)
    record["faults"] = [entry["kind"] for entry in controller.log]
    record["clean"] = (
        not oracle.violations
        and not errors
        and not testbed.server.stable_violations
    )
    return record


def _probe_crash_mid_recall(config: CacheConfig) -> dict:
    """Holder sits on a deep dirty set; a conflicting writer triggers the
    recall-and-flush; the server dies in the middle of it.  Grace (one
    TTL) must drain the pre-crash leases before the writer executes."""

    def script(env, clients, errors):
        def holder(client):
            try:
                open_file = yield from client.create("hot")
                for index in range(32):
                    yield from client.write_stream(
                        open_file, patterned_chunk(index, CHUNK)
                    )
                yield env.timeout(2.0)  # hold the dirty set across the crash
                yield from client.close(open_file)
            except NfsError as exc:
                errors.append(f"holder: {exc}")

        def writer(client):
            yield env.timeout(0.2)
            try:
                open_file = yield from client.open("hot")
                yield from client.write_stream(open_file, patterned_chunk(99, CHUNK))
                yield from client.close(open_file)
            except NfsError as exc:
                errors.append(f"writer: {exc}")

        return [
            env.process(holder(clients[0]), name="probe-holder"),
            env.process(writer(clients[1]), name="probe-writer"),
        ]

    plan = FaultPlan(
        name="crash-mid-recall",
        events=(ServerCrash(AtTime(0.21), reboot_delay=0.05),),
    )
    record = _probe_harness(config, plan, script)
    record["name"] = "crash_mid_recall"
    return record


def _probe_lost_callback(config: CacheConfig) -> dict:
    """The callback path (``server.cb``) is partitioned, so the recall can
    never reach its holder: the writer must fall back to lease expiry,
    and the holder's hits must stop at that same instant."""

    def script(env, clients, errors):
        def reader(client):
            try:
                open_file = yield from client.create("hot")
                yield from client.write_stream(open_file, patterned_chunk(0, CHUNK))
                yield from client.close(open_file)
                open_file = yield from client.open("hot")
                deadline = 3.0
                while env.now < deadline:
                    yield from client.read(open_file, 0, CHUNK)
                    yield env.timeout(0.1)
                yield from client.close(open_file)
            except NfsError as exc:
                errors.append(f"reader: {exc}")

        def writer(client):
            yield env.timeout(0.2)
            try:
                open_file = yield from client.open("hot")
                yield from client.write_stream(open_file, patterned_chunk(7, CHUNK))
                yield from client.close(open_file)
            except NfsError as exc:
                errors.append(f"writer: {exc}")

        return [
            env.process(reader(clients[0]), name="probe-reader"),
            env.process(writer(clients[1]), name="probe-writer"),
        ]

    plan = FaultPlan(
        name="lost-callback",
        events=(
            NetworkPartition(AtTime(0.1), hosts=("server.cb",), duration=2.5),
        ),
    )
    record = _probe_harness(config, plan, script)
    record["name"] = "lost_callback"
    return record


def _probe_partition_expiry(config: CacheConfig) -> dict:
    """The holder itself is partitioned past its TTL with dirty data in
    hand.  The writer proceeds at expiry; the healed holder's late flush
    is last-writer-wins (legal) — what would be illegal, and what the
    oracle watches for, is the holder serving its stale cache after the
    writer's mutation."""

    def script(env, clients, errors):
        def holder(client):
            try:
                open_file = yield from client.create("hot")
                for index in range(4):
                    yield from client.write_stream(
                        open_file, patterned_chunk(index, CHUNK)
                    )
                yield env.timeout(3.5)  # partitioned well past the TTL
                yield from client.close(open_file)
            except NfsError as exc:
                errors.append(f"holder: {exc}")

        def writer(client):
            yield env.timeout(0.2)
            try:
                open_file = yield from client.open("hot")
                yield from client.write_stream(open_file, patterned_chunk(42, CHUNK))
                yield from client.close(open_file)
            except NfsError as exc:
                errors.append(f"writer: {exc}")

        return [
            env.process(holder(clients[0]), name="probe-holder"),
            env.process(writer(clients[1]), name="probe-writer"),
        ]

    plan = FaultPlan(
        name="partition-expiry",
        events=(
            NetworkPartition(AtTime(0.1), hosts=("client-0",), duration=3.0),
        ),
    )
    record = _probe_harness(config, plan, script)
    record["name"] = "partition_expiry"
    return record


_PROBES = (_probe_crash_mid_recall, _probe_lost_callback, _probe_partition_expiry)


# -- the report -----------------------------------------------------------------


@dataclass
class CacheReport:
    """Aggregated sweep outcome, canonically serializable."""

    config: CacheConfig
    baselines: Dict[float, dict] = field(default_factory=dict)
    grid: List[dict] = field(default_factory=list)
    workloads: List[dict] = field(default_factory=list)
    probes: List[dict] = field(default_factory=list)

    @property
    def headline(self) -> Optional[dict]:
        for cell in self.grid:
            if (
                cell["ttl"] == self.config.headline_ttl
                and cell["sharing"] == self.config.headline_sharing
            ):
                return cell
        return None

    @property
    def meets_target(self) -> bool:
        cell = self.headline
        return cell is not None and cell["reduction"] >= self.config.min_reduction

    @property
    def violations(self) -> List[str]:
        out: List[str] = []

        def _scan(prefix: str, record: dict) -> None:
            oracle = record.get("oracle")
            if oracle:
                out.extend(f"{prefix}: {v}" for v in oracle["violations"])
            out.extend(f"{prefix}: {e}" for e in record.get("errors", ()))
            if record.get("stable_violations"):
                out.append(
                    f"{prefix}: {record['stable_violations']} "
                    "stable-before-reply violations"
                )

        for sharing, record in sorted(self.baselines.items()):
            _scan(f"baseline/sharing={sharing}", record)
        for cell in self.grid:
            _scan(f"ttl={cell['ttl']}/sharing={cell['sharing']}", cell["on"])
        for arm in self.workloads:
            _scan(f"{arm['name']}/off", arm["off"])
            _scan(f"{arm['name']}/on", arm["on"])
        for probe in self.probes:
            _scan(f"chaos/{probe['name']}", probe)
        return out

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        config = self.config
        return {
            "seed": config.seed,
            "clients": config.clients,
            "ops_per_client": config.ops_per_client,
            "lease_ttls": [round(t, 9) for t in config.lease_ttls],
            "sharing_ratios": [round(s, 9) for s in config.sharing_ratios],
            "baselines": {
                str(sharing): record
                for sharing, record in sorted(self.baselines.items())
            },
            "grid": self.grid,
            "headline": {
                "ttl": config.headline_ttl,
                "sharing": config.headline_sharing,
                "min_reduction": config.min_reduction,
                "reduction": (
                    self.headline["reduction"] if self.headline is not None else 0.0
                ),
                "meets_target": self.meets_target,
            },
            "workloads": self.workloads,
            "chaos": self.probes,
            "clean": self.clean,
            "violations": self.violations,
        }

    def to_json(self) -> str:
        """Canonical (byte-stable under a fixed seed) JSON form."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@register("cache", CacheConfig)
def _run_cache(config: CacheConfig, progress=None) -> CacheReport:
    """Run the whole sweep; ``progress`` (if given) is called with a line
    of text after every completed section."""
    report = CacheReport(config=config)
    for sharing in config.sharing_ratios:
        report.baselines[sharing] = _run_shared_arm(config, None, sharing)
    for ttl in config.lease_ttls:
        for sharing in config.sharing_ratios:
            on = _run_shared_arm(config, ttl, sharing)
            off = report.baselines[sharing]
            cell = {
                "ttl": ttl,
                "sharing": sharing,
                "off_rpcs_per_op": off["rpcs_per_op"],
                "on": on,
                "reduction": _reduction(off, on),
            }
            report.grid.append(cell)
            if progress is not None:
                progress(
                    f"ttl={ttl:g}s sharing={sharing:g}: rpc/op "
                    f"{off['rpcs_per_op']} -> {on['rpcs_per_op']} "
                    f"(x{cell['reduction']:g})"
                )
    for name in config.workloads:
        profile = _PROFILES[name]
        off = profile(config, None)
        on = profile(config, config.headline_ttl)
        arm = {"name": name, "off": off, "on": on, "reduction": _reduction(off, on)}
        report.workloads.append(arm)
        if progress is not None:
            progress(
                f"workload {name}: rpc/op {off['rpcs_per_op']} -> "
                f"{on['rpcs_per_op']} (x{arm['reduction']:g})"
            )
    if config.chaos:
        for probe in _PROBES:
            record = probe(config)
            report.probes.append(record)
            if progress is not None:
                status = "clean" if record["clean"] else "VIOLATED"
                progress(f"chaos {record['name']}: {status}")
    return report

