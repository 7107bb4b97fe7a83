"""The ``repro commit`` experiment: is the async WRITE + COMMIT path a
win, and does its replay contract hold?

Four sections, one report:

* **Bench** — the seeded sequential copy per write path (standard /
  gather / async_commit) × Presto off/on: client throughput, p50/p99
  write latency, disk writes per MB.  The headline verdict
  (``async_beats_standard``) reads the plain cells: async must beat the
  standard path on both p50 write latency and throughput.
* **Pressure** — a multi-client fleet against a deliberately small
  ``unstable_limit_bytes``, proving both pressure valves open: the
  server's background flusher (``pressure_flushes``) and the client's
  window-pressure COMMITs (``pressure_commits``), with the crash oracle
  attached throughout.
* **Replica** — the K=1 crash-and-promote storm (repro.replica) run on
  the standard and async_commit paths: promotion bumps the verifier, so
  async clients must replay into the promoted backup, and the group
  oracle asserts no COMMIT-acked write is ever lost.
* **Chaos** — three named probes of the verifier lifecycle: a crash in
  the middle of the unstable write window, a crash parked between the
  last WRITE and the COMMIT, and a promotion landing mid-COMMIT-train.

Everything is seeded; ``--json`` output is byte-identical across reruns
(no wall-clock-derived field is emitted).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.bench import PRESTO_BYTES, run_bench_cell
from repro.experiments.runner import register
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.faults.controller import FaultController
from repro.faults.events import FaultPlan, OnSpan, ServerCrash
from repro.faults.oracle import Oracle
from repro.net.spec import FDDI
from repro.obs import PHASE_REPLY
from repro.payload import PAYLOAD_FLYWEIGHT, PAYLOAD_FULL
from repro.sim import AllOf
from repro.workload.sequential import patterned_chunk, write_file

__all__ = ["CommitConfig", "CommitReport"]

COMMIT_SCHEMA = "repro.commit/1"

#: The three-way comparison the experiment exists for.
BENCH_PATHS = ("standard", "gather", "async_commit")


@dataclass
class CommitConfig:
    """One commit experiment: the bench grid, the valves, the probes."""

    #: Write paths for the bench grid (async_commit must be present for
    #: the verdict; standard must be present as its baseline).
    write_paths: Sequence[str] = BENCH_PATHS
    presto_modes: Sequence[bool] = (False, True)
    file_mb: float = 1.0
    biods: int = 7
    netspec: object = FDDI
    seed: int = 0
    #: Pressure section: fleet size and per-file size (KB).  With the
    #: shrunken ceiling below, both pressure valves must open.
    pressure_clients: int = 3
    pressure_file_kb: int = 96
    #: Deliberately small volatile ceiling (bytes) for the pressure
    #: section — about one client's file, so the background flusher runs.
    pressure_limit_bytes: int = 64 * 1024
    #: Replica section: shard count and storm size for the K=1 arms.
    replica_servers: int = 2
    replica_clients: int = 3
    replica_file_kb: int = 32
    replica_crashes: int = 2
    #: Run the chaos probes (crash mid-window, crash before COMMIT,
    #: promotion mid-COMMIT).
    chaos: bool = True

    def __post_init__(self) -> None:
        if "async_commit" not in self.write_paths:
            raise ValueError("the commit experiment needs the async_commit arm")
        if "standard" not in self.write_paths:
            raise ValueError("the verdict needs the standard baseline arm")
        if self.file_mb <= 0:
            raise ValueError(f"file_mb must be positive, got {self.file_mb}")
        if self.biods < 0:
            raise ValueError(f"biods must be >= 0, got {self.biods}")
        if self.pressure_limit_bytes < 1:
            raise ValueError(
                f"pressure_limit_bytes must be >= 1, got {self.pressure_limit_bytes}"
            )
        if self.replica_servers < 1 or self.replica_clients < 1:
            raise ValueError("replica section needs at least one server and client")


# -- the bench grid -------------------------------------------------------------


def _bench_cells(config: CommitConfig, progress=None) -> List[dict]:
    cells = []
    for write_path in config.write_paths:
        for presto in config.presto_modes:
            testbed_config = TestbedConfig(
                netspec=config.netspec,
                write_path=write_path,
                nbiods=config.biods,
                presto_bytes=PRESTO_BYTES if presto else None,
                seed=config.seed,
            )
            cell = run_bench_cell(
                testbed_config, config.file_mb, payload=PAYLOAD_FLYWEIGHT
            )
            # The one wall-clock-derived field; everything else in the
            # cell is simulated and byte-stable under the seed.
            cell.pop("sim_ops_per_sec", None)
            # The simulator's event ledger belongs to the perf baseline
            # (repro bench); this report keeps its own schema.
            cell.pop("events", None)
            cell.pop("events_per_op", None)
            cells.append(cell)
            if progress is not None:
                progress(
                    f"bench {cell['write_path']}/"
                    f"{'presto' if presto else 'plain'}: "
                    f"{cell['client_kb_per_sec']:g} KB/s, "
                    f"p50 {cell['write_latency_ms']['p50']:g} ms"
                )
    return cells


# -- the pressure section -------------------------------------------------------


def _run_pressure(config: CommitConfig) -> dict:
    """A fleet against a tiny volatile ceiling: both valves must open."""
    from repro.overload.window import WriteWindow

    testbed = Testbed(
        TestbedConfig(
            netspec=config.netspec,
            write_path="async_commit",
            nbiods=2,
            seed=config.seed,
            unstable_limit_bytes=config.pressure_limit_bytes,
        )
    )
    env = testbed.env
    oracle = Oracle(testbed)
    writers = []
    nbytes = config.pressure_file_kb * 1024
    for index in range(config.pressure_clients):
        # Pin the window (a clean wire would ramp it past the file size):
        # with 2 slots the client COMMITs every 8 uncommitted ranges.
        client = testbed.add_client(
            write_window=WriteWindow(initial=2, maximum=2)
        )
        oracle.attach(client)
        for file_index in range(2):
            writers.append(
                env.process(
                    write_file(
                        env,
                        client,
                        f"pressure-{index}-{file_index}",
                        nbytes,
                        think_time=0.0005,
                    ),
                    name=f"pressure:{index}:{file_index}",
                )
            )
    env.run(until=AllOf(env, writers))
    env.run()  # drain flushers, destage, watchdogs
    oracle.check("final")
    path = testbed.server.write_path
    trackers = [c.tracker for c in testbed.clients if c.tracker is not None]
    return {
        "clients": config.pressure_clients,
        "file_kb": config.pressure_file_kb,
        "unstable_limit_bytes": config.pressure_limit_bytes,
        "unstable_writes": int(path.unstable_writes.value),
        "commits": int(path.commits.value),
        "pressure_flushes": int(path.pressure_flushes.value),
        "flushed_bytes": int(path.flushed_bytes.value),
        "client_commits": sum(int(t.commits_sent.value) for t in trackers),
        "client_pressure_commits": sum(
            int(t.pressure_commits.value) for t in trackers
        ),
        "residual_uncommitted_bytes": sum(
            t.uncommitted_bytes() for t in trackers
        ),
        "committed_acks": oracle.committed_acks,
        "violations": list(oracle.violations),
        "clean": oracle.clean,
    }


# -- the replica section --------------------------------------------------------


def _run_replica_arms(config: CommitConfig, progress=None) -> Dict[str, dict]:
    """The K=1 promote storm on the standard and async_commit paths."""
    from repro.cluster.fleet import ClusterConfig
    from repro.replica.experiment import replica_storm, run_replica_arm

    arms: Dict[str, dict] = {}
    for write_path in ("standard", "async_commit"):
        arm = run_replica_arm(
            ClusterConfig(
                servers=config.replica_servers,
                write_path=write_path,
                replicas=1,
                seed=config.seed,
            ),
            clients=config.replica_clients,
            files_per_client=2,
            file_kb=config.replica_file_kb,
            crashes=replica_storm(
                config.replica_servers, config.replica_crashes, promote=True
            ),
            payload=PAYLOAD_FULL,
        )
        arms[write_path] = arm.to_dict()
        if progress is not None:
            progress(
                f"replica {write_path}: {arm.crashes} crashes, "
                f"{arm.promotions} promotions, "
                f"{'clean' if arm.clean else 'VIOLATIONS'}"
            )
    return arms


# -- the chaos probes -----------------------------------------------------------


def _async_testbed(config: CommitConfig, tracing: bool = False) -> Testbed:
    return Testbed(
        TestbedConfig(
            netspec=config.netspec,
            write_path="async_commit",
            nbiods=4,
            seed=config.seed,
            tracing=tracing,
        )
    )


def _probe_record(name: str, oracle, client, extra: dict) -> dict:
    tracker = client.tracker
    record = {
        "name": name,
        "unstable_acks": oracle.unstable_acks,
        "committed_acks": oracle.committed_acks,
        "commits_sent": int(tracker.commits_sent.value),
        "ranges_replayed": int(tracker.ranges_replayed.value),
        "violations": list(oracle.violations),
    }
    record.update(extra)
    record["clean"] = not record["violations"]
    return record


def _probe_crash_mid_window(config: CommitConfig) -> dict:
    """The server dies the instant an unstable WRITE is acked — data is
    sitting in the volatile log mid-stream.  The close-time COMMIT sees
    the new verifier and replays everything."""
    testbed = _async_testbed(config, tracing=True)
    client = testbed.add_client()
    oracle = Oracle(testbed)
    oracle.attach(client)
    plan = FaultPlan(
        name="crash-mid-window",
        events=(ServerCrash(OnSpan(PHASE_REPLY, occurrence=3), reboot_delay=0.0),),
    )
    controller = FaultController(testbed, plan, oracle=oracle).start()
    env = testbed.env
    proc = env.process(
        write_file(env, client, "midwindow", 64 * 1024, think_time=0.0005),
        name="probe-midwindow",
    )
    env.run(until=proc)
    env.run()
    oracle.check("final")
    return _probe_record(
        "crash_mid_unstable_window",
        oracle,
        client,
        {"crashes": controller.crashes},
    )


def _probe_crash_before_commit(config: CommitConfig) -> dict:
    """Every WRITE acked, nothing COMMITted, then the crash: the widest
    possible window of client-held volatile data.  The close must land
    the entire file under the new verifier."""
    testbed = _async_testbed(config)
    client = testbed.add_client()
    oracle = Oracle(testbed)
    oracle.attach(client)
    env = testbed.env
    state = {"crashes": 0}

    def driver(env):
        open_file = yield from client.create("parked")
        for index in range(8):
            yield from client.write_stream(open_file, patterned_chunk(index))
        yield env.timeout(0.1)  # every unstable WRITE answered, none committed
        testbed.server.simulate_crash()
        state["crashes"] += 1
        oracle.check("crash")  # legal: pending ranges carry no promise yet
        yield from client.close(open_file)  # COMMIT -> mismatch -> replay

    env.run(until=env.process(driver(env), name="probe-parked"))
    env.run()
    oracle.check("final")
    return _probe_record(
        "crash_between_write_and_commit", oracle, client, {"crashes": state["crashes"]}
    )


def _probe_promotion_mid_commit(config: CommitConfig) -> dict:
    """A replicated shard's primary dies mid-workload and its backup is
    promoted; the promotion bumps the verifier, so every in-flight
    COMMIT train mismatches and replays into the promoted backup."""
    from repro.cluster.experiment import run_fleet
    from repro.cluster.failover import ShardCrash
    from repro.cluster.fleet import ClusterConfig

    def promoted_file(env, client, index):
        # 4x the replica-arm size so the write trains are still in
        # flight when the promotion lands and the verifier bump forces a
        # mid-train replay.
        nbytes = config.replica_file_kb * 4 * 1024
        return write_file(env, client, f"promoted-{index}", nbytes, think_time=0.0005)

    # The workload runs ~0.6s and every client holds its full file
    # uncommitted between t=0.2 and t=0.3; firing the promotion inside
    # that window guarantees in-flight ranges tagged with the dead
    # primary's verifier.
    fleet = run_fleet(
        ClusterConfig(
            servers=config.replica_servers,
            write_path="async_commit",
            replicas=1,
            seed=config.seed,
        ),
        config.replica_clients,
        promoted_file,
        crashes=[ShardCrash(at=0.25, shard=0, promote=True)],
    )
    fleet.quiesce()
    cluster, oracle, controller = fleet.cluster, fleet.oracle, fleet.controller
    trackers = [c.tracker for c in cluster.clients if c.tracker is not None]
    record = {
        "name": "promotion_mid_commit",
        "crashes": controller.crashes,
        "promotions": controller.promotions,
        "unstable_acks": sum(
            oracle.shard(s.host).unstable_acks for s in cluster.servers
        ),
        "committed_acks": sum(
            oracle.shard(s.host).committed_acks for s in cluster.servers
        ),
        "commits_sent": sum(int(t.commits_sent.value) for t in trackers),
        "ranges_replayed": sum(int(t.ranges_replayed.value) for t in trackers),
        "violations": list(oracle.violations),
    }
    record["clean"] = not record["violations"]
    return record


# -- the report -----------------------------------------------------------------


@dataclass
class CommitReport:
    """Aggregated commit-experiment outcome, canonically serializable."""

    config: CommitConfig
    bench: List[dict] = field(default_factory=list)
    pressure: Optional[dict] = None
    replica: Dict[str, dict] = field(default_factory=dict)
    probes: List[dict] = field(default_factory=list)

    def _plain_cell(self, write_path: str) -> Optional[dict]:
        for cell in self.bench:
            if cell["write_path"] == write_path and not cell["presto"]:
                return cell
        return None

    @property
    def comparison(self) -> Optional[dict]:
        """The plain async_commit cell against the plain standard cell."""
        standard = self._plain_cell("standard")
        async_cell = self._plain_cell("async_commit")
        if standard is None or async_cell is None:
            return None
        base_p50 = standard["write_latency_ms"]["p50"]
        base_throughput = standard["client_kb_per_sec"]
        return {
            "p50_vs_standard": (
                round(async_cell["write_latency_ms"]["p50"] / base_p50, 4)
                if base_p50
                else None
            ),
            "throughput_vs_standard": (
                round(async_cell["client_kb_per_sec"] / base_throughput, 4)
                if base_throughput
                else None
            ),
        }

    @property
    def async_beats_standard(self) -> bool:
        comparison = self.comparison
        return (
            comparison is not None
            and comparison["p50_vs_standard"] is not None
            and comparison["p50_vs_standard"] < 1.0
            and comparison["throughput_vs_standard"] is not None
            and comparison["throughput_vs_standard"] > 1.0
        )

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        if self.pressure is not None:
            out.extend(f"pressure: {v}" for v in self.pressure["violations"])
        for write_path, arm in sorted(self.replica.items()):
            out.extend(f"replica/{write_path}: {v}" for v in arm["violations"])
            if arm["stable_violations"]:
                out.append(
                    f"replica/{write_path}: {arm['stable_violations']} "
                    "stable-before-reply violations"
                )
        for probe in self.probes:
            out.extend(f"chaos/{probe['name']}: {v}" for v in probe["violations"])
        return out

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def ok(self) -> bool:
        """The exit-status verdict: contract held *and* the path wins."""
        return self.clean and self.async_beats_standard

    def to_dict(self) -> dict:
        config = self.config
        return {
            "schema": COMMIT_SCHEMA,
            "seed": config.seed,
            "file_mb": config.file_mb,
            "biods": config.biods,
            "write_paths": list(config.write_paths),
            "bench": self.bench,
            "comparison": self.comparison,
            "async_beats_standard": self.async_beats_standard,
            "pressure": self.pressure,
            "replica": self.replica,
            "chaos": self.probes,
            "clean": self.clean,
            "ok": self.ok,
            "violations": self.violations,
        }

    def to_json(self) -> str:
        """Canonical (byte-stable under a fixed seed) JSON form."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@register("commit", CommitConfig)
def _run_commit(config: CommitConfig, progress=None) -> CommitReport:
    """Run the whole comparison; ``progress`` (if given) is called with a
    line of text after every completed section."""
    report = CommitReport(config=config)
    report.bench = _bench_cells(config, progress=progress)
    report.pressure = _run_pressure(config)
    if progress is not None:
        valves = (
            f"{report.pressure['pressure_flushes']} server flushes, "
            f"{report.pressure['client_pressure_commits']} client pressure COMMITs"
        )
        progress(f"pressure: {valves}")
    report.replica = _run_replica_arms(config, progress=progress)
    if config.chaos:
        for probe in (
            _probe_crash_mid_window,
            _probe_crash_before_commit,
            _probe_promotion_mid_commit,
        ):
            record = probe(config)
            report.probes.append(record)
            if progress is not None:
                status = "clean" if record["clean"] else "VIOLATED"
                progress(
                    f"chaos {record['name']}: {status} "
                    f"({record['ranges_replayed']} ranges replayed)"
                )
    return report

