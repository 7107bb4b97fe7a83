"""Seeded chaos campaigns: randomized-but-reproducible fault plans.

A :class:`ChaosCampaign` sweeps every write path (standard / gather / siva
/ async_commit) crossed with Presto on/off, running N generated :class:`FaultPlan`s per
combination against a sequential-write workload.  Each plan's RNG is
seeded from ``(campaign seed, write path, presto, plan index)``, so the
same seed always produces byte-identical plans, sim timelines, and JSON
reports — a failing plan can be replayed exactly from its report.

Every run attaches an :class:`~repro.faults.oracle.Oracle` and checks the
crash contract at every crash and at end of run; the campaign's verdict is
simply whether any oracle violation was seen anywhere.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.experiments.runner import register
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.faults.controller import FaultController
from repro.faults.events import (
    AtTime,
    DatagramDuplication,
    DatagramReorder,
    FaultPlan,
    NetworkPartition,
    OnSpan,
    PacketLossBurst,
    RetransmitStorm,
    ServerCrash,
    SlowDisk,
    SockBufShrink,
)
from repro.faults.oracle import Oracle
from repro.net.spec import FDDI
from repro.payload import PAYLOAD_FULL, coerce_payload_mode
from repro.obs import (
    PHASE_DISPATCH,
    PHASE_PROCRASTINATE,
    PHASE_REPLY,
    PHASE_VNODE_WAIT,
)
from repro.sim import AllOf
from repro.workload import write_file

__all__ = [
    "ChaosCampaign",
    "ChaosParams",
    "CampaignReport",
    "PlanResult",
    "generate_plan",
    "run_plan",
]

WRITE_PATHS = ("standard", "gather", "siva", "async_commit")

#: Default NVRAM size for the presto=on arm (1 MB, the paper's board).
PRESTO_BYTES = 1 << 20


@dataclass
class PlanResult:
    """Outcome of one plan against one testbed configuration."""

    plan: FaultPlan
    write_path: str
    presto: bool
    faults_applied: List[dict]
    sim_elapsed: float
    acked_writes: int
    crashes: int
    oracle_checks: int
    retransmissions: int
    duplicates_dropped: int
    duplicates_replayed: int
    stable_violations: int
    violations: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations and self.stable_violations == 0

    def to_dict(self) -> dict:
        return {
            "plan": self.plan.describe(),
            "write_path": self.write_path,
            "presto": self.presto,
            "faults_applied": self.faults_applied,
            "sim_elapsed": round(self.sim_elapsed, 9),
            "acked_writes": self.acked_writes,
            "crashes": self.crashes,
            "oracle_checks": self.oracle_checks,
            "retransmissions": self.retransmissions,
            "duplicates_dropped": self.duplicates_dropped,
            "duplicates_replayed": self.duplicates_replayed,
            "stable_violations": self.stable_violations,
            "violations": list(self.violations),
        }


@dataclass
class CampaignReport:
    """Aggregated outcome of a whole campaign."""

    seed: int
    file_kb: int
    plans_per_combo: int
    results: List[PlanResult] = field(default_factory=list)

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for result in self.results:
            prefix = f"{result.write_path}/presto={'on' if result.presto else 'off'}/{result.plan.name}"
            out.extend(f"{prefix}: {violation}" for violation in result.violations)
            if result.stable_violations:
                out.append(
                    f"{prefix}: {result.stable_violations} server-side "
                    "stable-before-reply violations"
                )
        return out

    @property
    def clean(self) -> bool:
        return all(result.clean for result in self.results)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "file_kb": self.file_kb,
            "plans_per_combo": self.plans_per_combo,
            "plans_run": len(self.results),
            "total_acked_writes": sum(r.acked_writes for r in self.results),
            "total_crashes": sum(r.crashes for r in self.results),
            "total_retransmissions": sum(r.retransmissions for r in self.results),
            "clean": self.clean,
            "violations": self.violations,
            "results": [result.to_dict() for result in self.results],
        }

    def to_json(self) -> str:
        """Canonical (byte-stable under a fixed seed) JSON form."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# -- plan generation -----------------------------------------------------------


def _random_event(rng: random.Random, at: float):
    """One non-crash adversity starting at sim time ``at``."""
    kind = rng.choice(
        ("loss", "partition", "duplication", "reorder", "slow_disk", "sockbuf", "storm")
    )
    trigger = AtTime(at)
    if kind == "loss":
        return PacketLossBurst(
            trigger,
            loss_rate=round(rng.uniform(0.05, 0.4), 3),
            duration=round(rng.uniform(0.02, 0.12), 3),
        )
    if kind == "partition":
        return NetworkPartition(trigger, duration=round(rng.uniform(0.02, 0.15), 3))
    if kind == "duplication":
        return DatagramDuplication(
            trigger,
            rate=round(rng.uniform(0.05, 0.35), 3),
            duration=round(rng.uniform(0.05, 0.2), 3),
        )
    if kind == "reorder":
        return DatagramReorder(
            trigger,
            rate=round(rng.uniform(0.05, 0.35), 3),
            extra_delay=round(rng.uniform(0.0005, 0.004), 5),
            duration=round(rng.uniform(0.05, 0.2), 3),
        )
    if kind == "slow_disk":
        return SlowDisk(
            trigger,
            factor=round(rng.uniform(2.0, 8.0), 2),
            duration=round(rng.uniform(0.05, 0.25), 3),
        )
    if kind == "sockbuf":
        return SockBufShrink(
            trigger,
            capacity_bytes=rng.choice((8192, 16384, 32768)),
            duration=round(rng.uniform(0.05, 0.2), 3),
        )
    return RetransmitStorm(
        trigger,
        loss_rate=round(rng.uniform(0.1, 0.35), 3),
        capacity_bytes=rng.choice((16384, 24576, 32768)),
        duration=round(rng.uniform(0.05, 0.25), 3),
    )


def generate_plan(
    rng: random.Random, name: str, index: int, write_path: str
) -> FaultPlan:
    """One randomized plan: 1-3 background adversities, and (on even
    indices) a crash — timed, or triggered on an obs span predicate."""
    events: List = []
    at = round(rng.uniform(0.01, 0.08), 3)
    for _ in range(rng.randint(1, 3)):
        event = _random_event(rng, at)
        events.append(event)
        at = round(at + event.window + rng.uniform(0.02, 0.15), 3)
    if index % 2 == 0:
        reboot_delay = rng.choice((0.0, 0.0, round(rng.uniform(0.05, 0.3), 3)))
        if index % 6 == 0 and write_path == "gather":
            # Crash the instant the first parked write's procrastination
            # nap ends — a write is sitting on the active write queue,
            # unanswered, when the server dies (§6.9's nightmare case).
            trigger = OnSpan(PHASE_PROCRASTINATE, occurrence=1)
        elif index % 6 == 0 and write_path == "siva":
            # Siva never naps; crash as the second writer takes the vnode
            # lock, when a parked follower sits on the leader's queue.
            trigger = OnSpan(PHASE_VNODE_WAIT, occurrence=2)
        elif index % 6 == 0 and write_path == "async_commit":
            # Crash right as an unstable WRITE is acked: the data sits in
            # the volatile UnstableLog, no COMMIT has covered it, and only
            # the client's verifier-driven replay can land it (the
            # async-commit contract's nightmare case).
            trigger = OnSpan(PHASE_REPLY, occurrence=rng.randint(2, 8))
        elif index % 6 == 0:
            trigger = OnSpan(PHASE_DISPATCH, occurrence=rng.randint(3, 12))
        else:
            trigger = AtTime(at)
        events.append(ServerCrash(trigger, reboot_delay=reboot_delay))
    return FaultPlan(name=name, events=tuple(events))


# -- execution -----------------------------------------------------------------


def run_plan(
    config: TestbedConfig,
    plan: FaultPlan,
    file_kb: int = 192,
    files: int = 2,
    think_time: float = 0.0005,
    payload: str = PAYLOAD_FULL,
) -> PlanResult:
    """Run one plan to completion and return its checked result.

    ``payload`` selects byte fidelity (:mod:`repro.payload`).  In
    flyweight mode the oracle still asserts durability of every acked
    range (and fsck still runs); only the byte-content comparison is
    waived.  Simulated timelines and counts are identical either way.
    """
    testbed = Testbed(config)
    client = testbed.add_client()
    oracle = Oracle(testbed)
    # Triage context: the plan name encodes the campaign seed and cell, so
    # a violation message alone identifies the exact re-runnable plan.
    oracle.set_context(plan_seed=plan.name)
    oracle.attach(client)
    controller = FaultController(testbed, plan, oracle=oracle).start()
    env = testbed.env
    writers = [
        env.process(
            write_file(
                env,
                client,
                f"chaos-{index}",
                file_kb * 1024,
                think_time=think_time,
                payload=payload,
            ),
            name=f"writer:{index}",
        )
        for index in range(files)
    ]
    env.run(until=AllOf(env, writers))
    env.run()  # drain in-flight completions, NVRAM destage, watchdogs
    oracle.check("final")
    return PlanResult(
        plan=plan,
        write_path=str(config.write_path),
        presto=bool(config.presto_bytes),
        faults_applied=controller.log,
        sim_elapsed=env.now,
        acked_writes=oracle.acked_writes,
        crashes=controller.crashes,
        oracle_checks=oracle.checks,
        retransmissions=int(client.rpc.retransmissions.value),
        duplicates_dropped=int(testbed.server.svc.duplicates_dropped.value),
        duplicates_replayed=int(testbed.server.svc.duplicates_replayed.value),
        stable_violations=len(testbed.server.stable_violations),
        violations=oracle.violations,
    )


class ChaosCampaign:
    """Generate and run seeded plans across all write paths × presto."""

    def __init__(
        self,
        seed: int = 0,
        plans_per_combo: int = 5,
        write_paths: Sequence[str] = WRITE_PATHS,
        presto_modes: Sequence[bool] = (False, True),
        file_kb: int = 192,
        netspec=FDDI,
        progress=None,
        payload: str = PAYLOAD_FULL,
    ) -> None:
        if plans_per_combo < 1:
            raise ValueError(f"plans_per_combo must be >= 1, got {plans_per_combo}")
        self.seed = seed
        self.plans_per_combo = plans_per_combo
        self.write_paths = tuple(write_paths)
        self.presto_modes = tuple(presto_modes)
        self.file_kb = file_kb
        self.netspec = netspec
        #: Optional callable(result) invoked after each plan (CLI progress).
        self.progress = progress
        #: Byte fidelity for the workload payloads (:mod:`repro.payload`).
        self.payload = coerce_payload_mode(payload)

    def combos(self) -> List[Tuple[str, bool]]:
        return [
            (write_path, presto)
            for write_path in self.write_paths
            for presto in self.presto_modes
        ]

    def plan_for(self, write_path: str, presto: bool, index: int) -> FaultPlan:
        """The deterministic plan for one (combo, index) cell."""
        presto_tag = "presto" if presto else "plain"
        name = f"{write_path}-{presto_tag}-{index:03d}"
        rng = random.Random(f"{self.seed}/{write_path}/{presto_tag}/{index}")
        return generate_plan(rng, name, index, write_path)

    def config_for(self, write_path: str, presto: bool) -> TestbedConfig:
        # Tracing is always on: span-triggered faults need it, and fault
        # windows land in the exported timeline.  Admission control runs
        # with the dup-cache-aware shed policy so RetransmitStorm events
        # exercise the repro.overload backpressure path under chaos.
        return TestbedConfig(
            netspec=self.netspec,
            write_path=write_path,
            presto_bytes=PRESTO_BYTES if presto else None,
            verify_stable=True,
            seed=self.seed,
            tracing=True,
            admission_max_requests=64,
            shed_policy="early-reply",
        )

    def execute(self) -> CampaignReport:
        """Run every plan in every combo."""
        report = CampaignReport(
            seed=self.seed,
            file_kb=self.file_kb,
            plans_per_combo=self.plans_per_combo,
        )
        for write_path, presto in self.combos():
            config = self.config_for(write_path, presto)
            for index in range(self.plans_per_combo):
                plan = self.plan_for(write_path, presto, index)
                result = run_plan(
                    config, plan, file_kb=self.file_kb, payload=self.payload
                )
                report.results.append(result)
                if self.progress is not None:
                    self.progress(result)
        return report


@dataclass
class ChaosParams:
    """``kind="chaos"``: ``plans`` seeded plans per write path x presto."""

    seed: int = 0
    plans: int = 5
    write_paths: Sequence[str] = WRITE_PATHS
    presto_modes: Sequence[bool] = (False, True)
    file_kb: int = 192
    payload: str = PAYLOAD_FULL

    def __post_init__(self) -> None:
        if self.plans < 1:
            raise ValueError(f"plans must be >= 1, got {self.plans}")
        if self.file_kb < 1:
            raise ValueError(f"file_kb must be >= 1, got {self.file_kb}")
        self.write_paths = tuple(self.write_paths)
        self.presto_modes = tuple(self.presto_modes)
        self.payload = coerce_payload_mode(self.payload)


@register("chaos", ChaosParams)
def _run_chaos(params: ChaosParams, progress=None) -> CampaignReport:
    return ChaosCampaign(
        seed=params.seed,
        plans_per_combo=params.plans,
        write_paths=params.write_paths,
        presto_modes=params.presto_modes,
        file_kb=params.file_kb,
        progress=progress,
        payload=params.payload,
    ).execute()
