"""The tiering experiment: placement policy sweep + migration storm.

``repro tiering`` answers two questions about a heterogeneous fleet:

* **Does the hardware mix pay?**  The same Zipf-hot multi-tenant append
  workload runs once against an all-cold fleet (no NVRAM anywhere, the
  baseline) and once per placement policy against a mixed fleet whose
  hot tier carries Presto boards.  Each arm reports client-observed
  write latency (p50/p99), throughput, and where the files landed
  (hot vs cold, plus capacity spills for ``hot-first``).  The verdict —
  ``hot_beats_cold`` — is whether the mixed fleet under its steering
  policy beats the all-cold baseline on p99 write latency.

* **Is live migration crash-safe?**  The storm arm replays the workload
  on the mixed fleet with replication enabled while a
  :class:`~repro.tiering.engine.MigrationEngine` demotes the tenants'
  hottest files hot→cold mid-traffic, and a
  :class:`~repro.cluster.failover.FailoverController` injects shard
  crashes, a network partition, and replica promotions timed to land
  mid-copy and around cutover.  The migration contract (every acked
  range satisfiable at exactly one authoritative location) is checked
  at every fault event and at quiesce via the oracle's extra-check
  hook.

Everything is seeded; ``--json`` output is byte-identical across reruns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.cluster.experiment import run_fleet
from repro.cluster.failover import ShardCrash
from repro.cluster.fleet import Cluster, ClusterConfig
from repro.experiments.runner import register
from repro.tiering.engine import MigrationEngine, MigrationPlan
from repro.tiering.placement import POLICY_NAMES, make_policy
from repro.tiering.tiers import TierConfig
from repro.workload.zipf import tenant_file_name, zipf_tenant

__all__ = ["TieringConfig", "TieringArm", "TieringRunResult", "run_tiering"]

TIERING_SCHEMA = "repro.tiering/1"

#: First migration fires once every tenant has created its files and
#: acked some appends...
STORM_START = 0.03
#: ...and subsequent migrations are spaced so each one's copy/delta
#: window is underway when its fault lands.
STORM_SPACING = 0.04
#: Fault offset into each migration's copy window.
FAULT_OFFSET = 0.008


@dataclass
class TieringConfig:
    """One tiering run: workload shape, fleet mix, policies, storm."""

    seed: int = 0
    tenants: int = 6
    files_per_tenant: int = 4
    ops_per_tenant: int = 48
    chunk_kb: int = 4
    #: Zipf skew per tenant: 0 = uniform, higher = hotter hot spot.
    skew: float = 1.1
    think_time: float = 0.002
    hot_shards: int = 2
    cold_shards: int = 2
    #: Per-hot-shard Presto NVRAM capacity.  Sized so the steered hot
    #: working set fits — an undersized board destages on the critical
    #: path and the tier's latency advantage evaporates.
    hot_presto_kb: int = 2048
    #: Ring weight of a hot shard relative to a cold one (capacity-
    #: weighted vnodes).
    hot_weight: float = 2.0
    policies: Sequence[str] = POLICY_NAMES
    #: Hot→cold demotions launched during the storm arm.
    storm_migrations: int = 3
    #: Replication factor for the storm arm (promotions need K >= 1).
    storm_replicas: int = 1

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError(f"need at least one tenant, got {self.tenants}")
        if self.files_per_tenant < 1:
            raise ValueError(
                f"need at least one file per tenant, got {self.files_per_tenant}"
            )
        if self.hot_shards < 1 or self.cold_shards < 1:
            raise ValueError(
                f"need at least one shard per tier, got "
                f"{self.hot_shards} hot / {self.cold_shards} cold"
            )
        for name in self.policies:
            if name not in POLICY_NAMES:
                raise ValueError(
                    f"unknown policy {name!r}; expected one of {POLICY_NAMES}"
                )
        if self.storm_migrations < 1:
            raise ValueError(
                f"need at least one storm migration, got {self.storm_migrations}"
            )
        if self.storm_replicas < 1:
            raise ValueError(
                f"storm promotions need replicas >= 1, got {self.storm_replicas}"
            )

    def mixed_tiers(self) -> List[TierConfig]:
        return [
            TierConfig(
                name="hot",
                shards=self.hot_shards,
                presto_bytes=self.hot_presto_kb * 1024,
                weight=self.hot_weight,
            ),
            TierConfig(name="cold", shards=self.cold_shards),
        ]

    def cold_tiers(self) -> List[TierConfig]:
        return [TierConfig(name="cold", shards=self.hot_shards + self.cold_shards)]


@dataclass
class TieringArm:
    """One fleet × policy cell of the sweep."""

    fleet: str
    policy: str
    elapsed: float
    total_bytes: int
    aggregate_kb_per_sec: float
    write_latency_ms: dict
    acked_writes: int
    placement: dict
    oracle_checks: int
    stable_violations: int
    violations: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations and self.stable_violations == 0

    def to_dict(self) -> dict:
        return {
            "fleet": self.fleet,
            "policy": self.policy,
            "elapsed": round(self.elapsed, 9),
            "total_bytes": self.total_bytes,
            "aggregate_kb_per_sec": round(self.aggregate_kb_per_sec, 2),
            "write_latency_ms": self.write_latency_ms,
            "acked_writes": self.acked_writes,
            "placement": self.placement,
            "oracle_checks": self.oracle_checks,
            "stable_violations": self.stable_violations,
            "clean": self.clean,
            "violations": list(self.violations),
        }


def _tenant_writer(config: TieringConfig):
    """One Zipf append writer per tenant (client ``index`` is tenant
    ``index``)."""

    def workload(env, client, tenant):
        return zipf_tenant(
            env,
            client,
            tenant,
            files=config.files_per_tenant,
            ops=config.ops_per_tenant,
            chunk_bytes=config.chunk_kb * 1024,
            skew=config.skew,
            think_time=config.think_time,
            seed=config.seed,
        )

    return workload


def _placement_census(cluster: Cluster, config: TieringConfig, policy) -> dict:
    """Where did the files land?  Counts by tier, plus hot-first spills."""
    counts: dict = {}
    for tenant in range(config.tenants):
        for index in range(config.files_per_tenant):
            host = cluster.router.server_for_name(tenant_file_name(tenant, index))
            tier = cluster.tier_of.get(host, "default")
            counts[tier] = counts.get(tier, 0) + 1
    census = {"files_by_tier": dict(sorted(counts.items()))}
    if policy is not None and hasattr(policy, "spills"):
        census["spills"] = policy.spills
    return census


def _run_arm(
    config: TieringConfig,
    fleet_name: str,
    policy_name: str,
    cluster_config: ClusterConfig,
) -> TieringArm:
    def place(cluster, oracle):
        policy = make_policy(policy_name, cluster)
        if policy is not None:
            cluster.router.set_placement(policy)
        return policy

    fleet = run_fleet(cluster_config, config.tenants, _tenant_writer(config), arm=place)
    fleet.quiesce()
    total_bytes = config.tenants * config.ops_per_tenant * config.chunk_kb * 1024
    return TieringArm(
        fleet=fleet_name,
        policy=policy_name,
        elapsed=fleet.elapsed,
        total_bytes=total_bytes,
        aggregate_kb_per_sec=total_bytes / fleet.elapsed / 1024.0,
        write_latency_ms=fleet.write_latency_ms(),
        acked_writes=fleet.oracle.acked_writes,
        placement=_placement_census(fleet.cluster, config, fleet.armed),
        oracle_checks=fleet.oracle.checks,
        stable_violations=fleet.cluster.stable_violations_total(),
        violations=fleet.oracle.violations,
    )


def _storm_plans(config: TieringConfig) -> List[dict]:
    """The scripted demotions: each tenant's rank-0 (hottest) file, in
    tenant order, hot→cold round-robin.  Destinations are logical shard
    names (``server-<i>``); hot shards are built first so cold shards
    start at index ``hot_shards``."""
    plans = []
    for m in range(config.storm_migrations):
        tenant = m % config.tenants
        name = tenant_file_name(tenant, tenant % config.files_per_tenant)
        cold_index = config.hot_shards + (m % config.cold_shards)
        plans.append(
            {
                "at": STORM_START + m * STORM_SPACING,
                "name": name,
                "dest": f"server-{cold_index}",
                "dest_shard": cold_index,
            }
        )
    return plans


def _storm_crashes(config: TieringConfig, plans: List[dict]) -> List[ShardCrash]:
    """Faults timed to land mid-copy of each migration: a destination
    crash with promotion, a (likely-source) hot-shard crash with
    promotion, and a destination partition (crash + network outage)."""
    crashes = [
        ShardCrash(
            at=plans[0]["at"] + FAULT_OFFSET,
            shard=plans[0]["dest_shard"],
            promote=True,
        )
    ]
    if len(plans) > 1:
        crashes.append(
            ShardCrash(at=plans[1]["at"] + FAULT_OFFSET, shard=0, promote=True)
        )
    if len(plans) > 2:
        crashes.append(
            ShardCrash(
                at=plans[2]["at"] + FAULT_OFFSET,
                shard=plans[2]["dest_shard"],
                outage=0.05,
                redirect=True,
            )
        )
    return crashes


def _run_storm(config: TieringConfig) -> dict:
    plans = _storm_plans(config)

    def migrate(cluster, oracle):
        cluster.router.set_placement(make_policy("hot-first", cluster))
        engine = MigrationEngine(
            cluster,
            oracle=oracle,
            chunk_bytes=8192,
            park_threshold=4096,
            copy_pace=0.003,
        )
        return engine.start(
            [MigrationPlan(at=p["at"], name=p["name"], dest=p["dest"]) for p in plans]
        )

    fleet = run_fleet(
        ClusterConfig(
            tiers=config.mixed_tiers(),
            seed=config.seed,
            replicas=config.storm_replicas,
        ),
        config.tenants,
        _tenant_writer(config),
        arm=migrate,
        crashes=_storm_crashes(config, plans),
    )
    fleet.quiesce()
    cluster, oracle, controller = fleet.cluster, fleet.oracle, fleet.controller
    summary = fleet.armed.summary()
    migrations = []
    for record in summary["migrations"]:
        entry = dict(record)
        entry["start"] = round(entry["start"], 6)
        if "end" in entry:
            entry["end"] = round(entry["end"], 6)
        migrations.append(entry)
    return {
        "plans": [
            {"at": round(p["at"], 6), "name": p["name"], "dest": p["dest"]}
            for p in plans
        ],
        "migrations": migrations,
        "started": summary["started"],
        "completed": summary["completed"],
        "engine_aborts": summary["aborts"],
        "crashes": controller.crashes,
        "promotions": controller.promotions,
        "faults": controller.log,
        "acked_writes": oracle.acked_writes,
        "oracle_checks": oracle.checks,
        "stable_violations": cluster.stable_violations_total(),
        "violations": list(oracle.violations),
        "clean": oracle.clean and cluster.stable_violations_total() == 0,
    }


@dataclass
class TieringRunResult:
    """The sweep: policy arms, baseline, storm, and the verdict."""

    config: TieringConfig
    arms: List[TieringArm]
    storm: dict

    @property
    def baseline(self) -> Optional[TieringArm]:
        return next((arm for arm in self.arms if arm.fleet == "all-cold"), None)

    @property
    def hot_beats_cold(self) -> bool:
        """Does the mixed fleet beat all-cold on p99 write latency under
        at least the steering (``hot-first``) policy — or, if that policy
        wasn't swept, under any mixed arm?"""
        baseline = self.baseline
        if baseline is None:
            return False
        base_p99 = baseline.write_latency_ms["p99"]
        mixed = [arm for arm in self.arms if arm.fleet == "mixed"]
        steered = [arm for arm in mixed if arm.policy == "hot-first"] or mixed
        return any(arm.write_latency_ms["p99"] < base_p99 for arm in steered)

    @property
    def clean(self) -> bool:
        return all(arm.clean for arm in self.arms) and self.storm.get("clean", False)

    def comparison(self) -> List[dict]:
        baseline = self.baseline
        if baseline is None:
            return []
        base_p99 = baseline.write_latency_ms["p99"]
        out = []
        for arm in self.arms:
            if arm.fleet != "mixed":
                continue
            out.append(
                {
                    "policy": arm.policy,
                    "p99_write_latency_vs_all_cold": (
                        round(arm.write_latency_ms["p99"] / base_p99, 4)
                        if base_p99
                        else None
                    ),
                    "throughput_vs_all_cold": (
                        round(
                            arm.aggregate_kb_per_sec
                            / baseline.aggregate_kb_per_sec,
                            4,
                        )
                        if baseline.aggregate_kb_per_sec
                        else None
                    ),
                }
            )
        return out

    def to_dict(self) -> dict:
        config = self.config
        return {
            "schema": TIERING_SCHEMA,
            "seed": config.seed,
            "tenants": config.tenants,
            "files_per_tenant": config.files_per_tenant,
            "ops_per_tenant": config.ops_per_tenant,
            "chunk_kb": config.chunk_kb,
            "skew": config.skew,
            "hot_shards": config.hot_shards,
            "cold_shards": config.cold_shards,
            "hot_presto_kb": config.hot_presto_kb,
            "hot_weight": config.hot_weight,
            "policies": list(config.policies),
            "arms": [arm.to_dict() for arm in self.arms],
            "comparison": self.comparison(),
            "hot_beats_cold": self.hot_beats_cold,
            "storm": self.storm,
            "clean": self.clean,
        }

    def to_json(self) -> str:
        """Canonical (byte-stable under a fixed seed) JSON form."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@register("tiering", TieringConfig)
def run_tiering(
    config: TieringConfig, progress: Optional[Callable] = None
) -> TieringRunResult:
    """Run the full tiering experiment: all-cold baseline, one mixed-
    fleet arm per placement policy, then the migration storm."""
    arms = [
        _run_arm(
            config,
            "all-cold",
            "hash",
            ClusterConfig(tiers=config.cold_tiers(), seed=config.seed),
        )
    ]
    if progress is not None:
        progress(arms[-1])
    for policy_name in config.policies:
        arms.append(
            _run_arm(
                config,
                "mixed",
                policy_name,
                ClusterConfig(tiers=config.mixed_tiers(), seed=config.seed),
            )
        )
        if progress is not None:
            progress(arms[-1])
    storm = _run_storm(config)
    if progress is not None:
        progress(storm)
    return TieringRunResult(config=config, arms=arms, storm=storm)
