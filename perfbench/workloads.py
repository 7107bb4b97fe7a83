"""The benchmark's three workloads: seeded inputs, the load they offer, measurement.

A workload pass has three steps, timed apart by the runner:

* ``inputs(seed)`` draws every random choice the pass will make (think
  times, arrival times, the SFS operation mix).  The simulated program only
  ever sees these generated inputs.
* ``setup(seed, inputs)`` builds the testbed, attaches the crash oracle to
  every client and creates the working set.  Its host time is set-up time.
* ``drive(harness, inputs)`` runs the timed window and returns the
  simulated metrics of the pass.

Every operation goes through ``NfsClient``'s public calls; the
metrics come from the registry, ``IoStats`` and the testbed's meters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.tables import PAPER, TABLES
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.faults.oracle import Oracle
from repro.net.spec import FDDI
from repro.nfs.client import OpenFile
from repro.nfs.protocol import (
    PROC_CREATE,
    PROC_GETATTR,
    PROC_LOOKUP,
    PROC_READ,
    PROC_READDIR,
    PROC_READLINK,
    PROC_REMOVE,
    PROC_SETATTR,
    PROC_STATFS,
    PROC_WRITE,
    NfsError,
)
from repro.obs import registry_for
from repro.payload import Extent
from repro.sim import AllOf, Tally
from repro.workload.laddis import (
    SFS_LATENCY_BOUND_MS,
    SFS_MIX,
    WRITE_SIZE_BLOCKS,
    WRITE_SIZE_WEIGHTS,
)

__all__ = ["WORKLOADS", "Harness", "BenchOracle", "PassResult"]

MB = 1024 * 1024
BLOCK = 8192


class BenchOracle(Oracle):
    """The crash-contract oracle, extended for workloads that truncate.

    A truncation the server acknowledged voids every promise past the new
    size, so the shadow image is cut back to match.
    """

    def record_truncate(self, fhandle, size: int) -> None:
        ino = fhandle[0]
        for table in (self._images, self._acked):
            shadow = table.get(ino)
            if shadow is not None:
                del shadow[size:]


class Harness:
    """One testbed with its clients, each shadowed by the oracle.

    Every client's WRITE latency tally is replaced by one pooled tally that
    keeps its samples, so percentiles cover all clients together.
    """

    def __init__(self, config: TestbedConfig, clients: int) -> None:
        self.testbed = Testbed(config)
        self.env = self.testbed.env
        self.server = self.testbed.server
        self.registry = registry_for(self.env)
        self.oracle = BenchOracle(self.testbed)
        self.clients = [self.testbed.add_client() for _ in range(clients)]
        for client in self.clients:
            self.oracle.attach(client)
        self.reset_write_latency()

    def reset_write_latency(self) -> None:
        """Start a fresh pooled tally (the timed window excludes set-up)."""
        self.write_latency = Tally("bench.write_latency", keep_samples=True)
        for client in self.clients:
            client.write_latency = self.write_latency

    def settle(self) -> None:
        """Run until nothing is scheduled: write-behind and destage drain."""
        self.env.run()

    def counters(self) -> Dict[str, float]:
        """Cumulative simulated counts; the difference of two is a window."""
        disks = self.testbed.disks
        out = {
            "now": self.env.now,
            "client_bytes": sum(c.bytes_written.value for c in self.clients),
            "write_rpcs": self.write_latency.count,
            "acked_writes": self.oracle.acked_writes + self.oracle.unstable_acks,
            "disk_transactions": sum(d.stats.transactions.value for d in disks),
            "disk_bytes": sum(d.stats.bytes.value for d in disks),
            "disk_writes": sum(d.stats.writes.value for d in disks),
            "disk_busy": sum(d.stats.busy.busy_time for d in disks),
            "cpu_busy": self.server.cpu.meter.busy_time,
        }
        # The file system's writes by kind, where it submits them: into
        # NVRAM when there is some, else onto the spindles.
        storage = self.testbed.storage
        nvram = storage is not self.testbed.base_storage
        for stats in [storage.stats] if nvram else [d.stats for d in disks]:
            for kind, count in stats.by_kind.items():
                key = f"fs_kind.{kind}"
                out[key] = out.get(key, 0.0) + count
        if nvram:
            out["nvram_busy"] = storage.stats.busy.busy_time
            out["nvram_declined"] = storage.declined_count
        for name, entry in self.registry.snapshot().items():
            for key in ("value", "count", "total", "busy_time"):
                if key in entry and entry["kind"] != "ratio":
                    out[f"reg.{name}.{key}"] = entry[key]
        return out

    def check(self) -> List[str]:
        """Acked => durable plus fsck, and the server's stable-storage check."""
        self.settle()
        violations = list(self.oracle.check("bench"))
        violations.extend(f"stable-storage: {v}" for v in self.server.stable_violations)
        return violations


@dataclass
class PassResult:
    """What one timed window produced."""

    ops: int
    failed: int
    #: Sim-clock end-to-end metrics, by name.
    sim: Dict[str, float]
    #: Counter snapshots bounding the timed window (see Harness.counters);
    #: ``start["now"]`` is the simulated time the window opens.
    start: Dict[str, float]
    end: Dict[str, float]
    detail: Dict[str, object] = field(default_factory=dict)


def _write_metrics(harness: Harness, start: dict, end: dict, elapsed: float) -> Dict[str, float]:
    """The write-side end-to-end metrics shared by every workload."""
    data_mb = (end["client_bytes"] - start["client_bytes"]) / MB
    latency = harness.write_latency
    return {
        "write_kbps": (end["client_bytes"] - start["client_bytes"]) / 1024.0 / elapsed,
        "write_p50_ms": latency.percentile(0.50) * 1000.0,
        "write_p99_ms": latency.percentile(0.99) * 1000.0,
        "disk_writes_per_mb": (end["disk_writes"] - start["disk_writes"]) / data_mb,
    }


def _think_times(rng: random.Random, count: int) -> List[float]:
    """Application time to produce each 8K chunk: 0.25-0.75 ms."""
    return [rng.uniform(0.00025, 0.00075) for _ in range(count)]


def _writer(harness: Harness, client, name: str, thinks: List[float], start: float, tag: int):
    """One application: create ``name``, write len(thinks) 8K chunks, close.

    Returns (elapsed, failed ops).  A failed write is counted and the
    stream goes on; close reports errors from write-behind.
    """
    env = harness.env
    if start > 0:
        yield env.timeout(start)
    began = env.now
    failed = 0
    open_file = yield from client.create(name)
    for index, think in enumerate(thinks):
        yield env.timeout(think)
        try:
            yield from client.write_stream(open_file, Extent(BLOCK, seed=tag + index))
        except NfsError:
            failed += 1
    try:
        yield from client.close(open_file)
    except NfsError:
        failed += 1
    return env.now - began, failed


class SeqGather:
    """Table 3's copy: one client, 7 biods, gathering, FDDI, one RZ26."""

    name = "seq-gather"

    def __init__(self, file_mb: float = 10.0) -> None:
        self.writes = int(file_mb * MB) // BLOCK
        self.loop = f"closed loop: 1 client, 7 biods, one {file_mb:g} MB file in 8K writes"

    def inputs(self, seed: int) -> dict:
        return {"thinks": _think_times(random.Random(seed), self.writes)}

    def setup(self, seed: int, inputs: dict, tracing: bool = False) -> Harness:
        table = TABLES[3]
        config = TestbedConfig(
            netspec=table.netspec,
            write_path="gather",
            nbiods=7,
            presto_bytes=table.presto_bytes,
            stripes=table.stripes,
            cpu_scale=table.cpu_scale,
            seed=seed,
            tracing=tracing,
        )
        return Harness(config, clients=1)

    def drive(self, harness: Harness, inputs: dict) -> PassResult:
        start = harness.counters()
        proc = harness.env.process(
            _writer(harness, harness.clients[0], "copy", inputs["thinks"], 0.0, 0),
            name="seq-gather",
        )
        harness.env.run(until=proc)
        elapsed, failed = proc.value
        harness.settle()
        end = harness.counters()
        # Accuracy: Table 3, gathering, 7 biods.
        reference = PAPER[3]["gather"]["speed"][TABLES[3].biods.index(7)]
        return PassResult(
            ops=len(inputs["thinks"]),
            failed=failed,
            sim=_write_metrics(harness, start, end, elapsed),
            start=start,
            end=end,
            detail={"reference_kbps": reference},
        )


class FaninCommit:
    """8 NFSv3 clients writing their own files through WRITE+COMMIT."""

    name = "fanin-commit"

    def __init__(self, clients: int = 8, file_mb: float = 6.0) -> None:
        self.nclients = clients
        self.writes = int(file_mb * MB) // BLOCK
        self.loop = (
            f"closed loop per client: {clients} clients x 4 biods, one {file_mb:g} MB file each"
        )

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {
            "starts": [rng.uniform(0.0, 0.005) for _ in range(self.nclients)],
            "thinks": [_think_times(rng, self.writes) for _ in range(self.nclients)],
        }

    def setup(self, seed: int, inputs: dict, tracing: bool = False) -> Harness:
        config = TestbedConfig(
            netspec=FDDI,
            write_path="async_commit",
            nbiods=4,
            stripes=3,
            nfsds=16,
            seed=seed,
            tracing=tracing,
        )
        return Harness(config, clients=self.nclients)

    def drive(self, harness: Harness, inputs: dict) -> PassResult:
        env = harness.env
        start = harness.counters()
        procs = [
            env.process(
                _writer(harness, client, f"fanin.{index}", thinks, begin, index << 20),
                name=f"fanin-{index}",
            )
            for index, (client, thinks, begin) in enumerate(
                zip(harness.clients, inputs["thinks"], inputs["starts"])
            )
        ]
        env.run(until=AllOf(env, procs))
        makespan = env.now - start["now"]
        harness.settle()
        end = harness.counters()
        return PassResult(
            ops=sum(len(thinks) for thinks in inputs["thinks"]),
            failed=sum(proc.value[1] for proc in procs),
            sim=_write_metrics(harness, start, end, makespan),
            start=start,
            end=end,
        )


# -- sfs-mix -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SfsOp:
    """One generated SFS operation of one load process."""

    due: float
    proc: str
    target: int = 0
    offset: int = 0
    nblocks: int = 0
    truncate: bool = False
    tag: int = 0


@dataclass
class RungStats:
    offered: float
    latency: Tally = field(default_factory=lambda: Tally("rung", keep_samples=True))
    completed: int = 0
    attempted: int = 0
    refused: int = 0
    failed: int = 0


class SfsMix:
    """SPEC SFS 1.0 mix, open loop, on Figure 3's gathering+Presto server."""

    name = "sfs-mix"

    RUNGS = (200.0, 400.0, 550.0, 650.0)
    MAX_OUTSTANDING = 8

    CLIENTS = 5
    PROCS_PER_CLIENT = 4
    FILE_BLOCKS = 8

    def __init__(
        self, rungs=RUNGS, warmup: float = 1.0, duration: float = 8.0, file_count: int = 48
    ) -> None:
        self.rungs = tuple(rungs)
        self.warmup = warmup
        self.duration = duration
        self.file_count = file_count
        self.symlinks = max(4, file_count // 8)
        self.loop = (
            f"open loop: {self.CLIENTS} clients x {self.PROCS_PER_CLIENT} Poisson load "
            f"processes, <={self.MAX_OUTSTANDING} outstanding each, rungs "
            + "/".join(f"{rate:g}" for rate in self.rungs)
            + " ops/s"
        )

    def inputs(self, seed: int) -> dict:
        nprocs = self.CLIENTS * self.PROCS_PER_CLIENT
        schedule = []
        for rung_index, offered in enumerate(self.rungs):
            per_proc = []
            rate = offered / nprocs
            for proc_index in range(nprocs):
                rng = random.Random(f"{seed}/{rung_index}/{proc_index}")
                ops = []
                at = rng.expovariate(rate)
                while at < self.warmup + self.duration:
                    ops.append(self._draw(rng, at))
                    at += rng.expovariate(rate)
                per_proc.append(ops)
            schedule.append(per_proc)
        return {"schedule": schedule}

    def _draw(self, rng: random.Random, due: float) -> SfsOp:
        roll = rng.random()
        proc = SFS_MIX[-1][0]
        accumulated = 0.0
        for name, share in SFS_MIX:
            accumulated += share
            if roll < accumulated:
                proc = name
                break
        if proc == PROC_WRITE:
            return SfsOp(
                due,
                proc,
                target=rng.randrange(self.file_count),
                nblocks=rng.choices(WRITE_SIZE_BLOCKS, WRITE_SIZE_WEIGHTS)[0],
                truncate=rng.random() < 0.5,
                tag=rng.randrange(1 << 16),
            )
        if proc == PROC_READ:
            return SfsOp(
                due,
                proc,
                target=rng.randrange(self.file_count),
                offset=rng.randrange(self.FILE_BLOCKS) * BLOCK,
            )
        if proc == PROC_READLINK:
            return SfsOp(due, proc, target=rng.randrange(self.symlinks))
        return SfsOp(due, proc, target=rng.randrange(self.file_count))

    def setup(self, seed: int, inputs: dict, tracing: bool = False) -> "SfsHarness":
        config = TestbedConfig(
            netspec=FDDI,
            write_path="gather",
            nbiods=4,
            presto_bytes=4 * MB,
            stripes=20,
            nfsds=32,
            cpu_scale=0.5,
            seed=seed,
            tracing=tracing,
        )
        harness = SfsHarness(config, clients=self.CLIENTS)
        proc = harness.env.process(self._working_set(harness), name="sfs-setup")
        harness.env.run(until=proc)
        harness.settle()
        return harness

    def _working_set(self, harness: "SfsHarness"):
        client = harness.clients[0]
        for index in range(self.file_count):
            name = f"sfs.{index:04d}"
            open_file = yield from client.create(name)
            for block in range(self.FILE_BLOCKS):
                yield from client.write_stream(open_file, Extent(BLOCK, seed=index + block))
            yield from client.close(open_file)
            harness.files.append((name, open_file.fhandle))
        for index in range(self.symlinks):
            target = harness.files[index % self.file_count][0]
            fhandle, _fattr = yield from client.symlink(f"link.{index:03d}", target)
            harness.links.append(fhandle)

    def drive(self, harness: "SfsHarness", inputs: dict) -> PassResult:
        env = harness.env
        harness.reset_write_latency()
        start = harness.counters()
        rungs = []

        def client_of(proc_index: int):
            return harness.clients[proc_index // self.PROCS_PER_CLIENT]

        for offered, per_proc in zip(self.rungs, inputs["schedule"]):
            stats = RungStats(offered)
            origin = env.now
            procs = [
                env.process(
                    self._load(harness, client_of(index), ops, origin, stats),
                    name=f"sfs-load-{index}",
                )
                for index, ops in enumerate(per_proc)
            ]
            env.run(until=AllOf(env, procs))
            rungs.append(stats)
        elapsed = env.now - start["now"]
        harness.settle()
        end = harness.counters()
        sim = _write_metrics(harness, start, end, elapsed)
        capacity = 0.0
        for stats in rungs:
            achieved = stats.completed / self.duration
            if (
                stats.latency.mean <= SFS_LATENCY_BOUND_MS
                and achieved >= 0.95 * stats.offered
                and stats.refused == 0
            ):
                capacity = achieved
        sim["sfs_capacity_ops"] = capacity
        for stats in rungs:
            if stats.offered in (400.0, 550.0):
                rung = f"r{int(stats.offered)}"
                sim[f"op_p50_ms.{rung}"] = stats.latency.percentile(0.50)
                sim[f"op_p99_ms.{rung}"] = stats.latency.percentile(0.99)
        return PassResult(
            ops=sum(stats.attempted for stats in rungs),
            failed=sum(stats.failed + stats.refused for stats in rungs),
            sim=sim,
            start=start,
            end=end,
            detail={
                "rungs": [
                    {
                        "offered": stats.offered,
                        "achieved": stats.completed / self.duration,
                        "mean_ms": stats.latency.mean,
                        "refused": stats.refused,
                    }
                    for stats in rungs
                ]
            },
        )

    def _load(self, harness, client, ops: List[SfsOp], origin: float, stats: RungStats):
        """One load process: issue each op at its due time, refusing at the cap."""
        env = harness.env
        state = {"outstanding": 0}
        inflight = []
        for op in ops:
            due = origin + op.due
            if due > env.now:
                yield env.timeout(due - env.now)
            stats.attempted += 1
            if state["outstanding"] >= self.MAX_OUTSTANDING:
                stats.refused += 1
                continue
            state["outstanding"] += 1
            measured = self.warmup <= op.due
            inflight.append(
                env.process(self._one(harness, client, op, due, measured, state, stats))
            )
        if inflight:
            yield AllOf(env, inflight)

    def _one(self, harness, client, op: SfsOp, due: float, measured: bool, state, stats):
        env = harness.env
        try:
            yield from harness.execute(client, op)
        except NfsError:
            stats.failed += 1
            return
        finally:
            state["outstanding"] -= 1
        if measured:
            stats.completed += 1
            stats.latency.observe((env.now - due) * 1000.0)


class SfsHarness(Harness):
    """The SFS working set and the meaning of each generated operation."""

    def __init__(self, config: TestbedConfig, clients: int) -> None:
        super().__init__(config, clients=clients)
        self.files: List[tuple] = []
        self.links: List[tuple] = []
        self.temps: List[str] = []
        self.created = 0
        #: One WRITE op per file at a time: a truncate must not race an
        #: earlier op's rewrite, or the oracle's shadow image goes stale.
        self._writing: Dict[int, object] = {}

    def execute(self, client, op: SfsOp):
        name, fhandle = self.files[op.target]
        if op.proc == PROC_LOOKUP:
            yield from client.lookup(name)
        elif op.proc == PROC_GETATTR:
            yield from client.getattr(fhandle)
        elif op.proc == PROC_READ:
            yield from client.read(OpenFile(fhandle, name), op.offset, BLOCK)
        elif op.proc == PROC_WRITE:
            yield from self._write(client, op, name, fhandle)
        elif op.proc == PROC_READLINK:
            yield from client.readlink(self.links[op.target])
        elif op.proc == PROC_READDIR:
            yield from client.readdir()
        elif op.proc == PROC_CREATE:
            self.created += 1
            temp = f"sfs.tmp.{self.created:06d}"
            yield from client.create(temp)
            self.temps.append(temp)
        elif op.proc == PROC_REMOVE:
            if not self.temps:
                yield from client.statfs()
                return
            yield from client.remove(self.temps.pop())
        elif op.proc == PROC_SETATTR:
            yield from client.setattr(fhandle, mtime=self.env.now)
        elif op.proc == PROC_STATFS:
            yield from client.statfs()
        else:
            raise ValueError(f"unknown op {op.proc!r}")

    def _write(self, client, op: SfsOp, name: str, fhandle):
        # Half the writes truncate and rewrite the file (every 8K grows it
        # and dirties the inode), half overwrite in place, as in LADDIS.
        previous = self._writing.get(op.target)
        mine = self.env.event()
        self._writing[op.target] = mine
        try:
            if previous is not None:
                yield previous
            if op.truncate:
                yield from client.setattr(fhandle, size=0)
                self.oracle.record_truncate(fhandle, 0)
            open_file = OpenFile(fhandle, name)
            yield from client.write_at(open_file, 0, Extent(op.nblocks * BLOCK, seed=op.tag))
            yield from client.close(open_file)
        finally:
            mine.succeed()


WORKLOADS = {w.name: w for w in (SeqGather, FaninCommit, SfsMix)}
