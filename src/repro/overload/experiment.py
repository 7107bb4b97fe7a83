"""The ``repro overload`` experiment: goodput vs offered load past saturation.

A fleet of clients writes continuously at a paced offered rate while a
:class:`~repro.faults.events.RetransmitStorm` rages mid-run.  The sweep
crosses write path × Presto × adaptation mode:

* ``static`` — the reference port exactly as the paper ran it: fixed
  1.1 s doubling retransmission, a full-depth biod pool, and a server
  that sheds only by silent socket-buffer overflow;
* ``adaptive`` — the ``repro.overload`` stack: Van Jacobson RTO with
  Karn's rule and seeded jitter, an AIMD write window on the biod pool,
  and a bounded server admission queue with the dup-cache-aware
  early-reply shed policy.

Goodput is the :class:`~repro.faults.oracle.Oracle`'s ledger, not the
client's: only bytes covered by a *stable* WRITE acknowledgement count,
so retransmitted duplicates and timed-out attempts are worthless by
construction.  Past saturation the static schedule collapses — every
overflow stalls its client for >=1.1 s, the synchronized retries overflow
again — while the adaptive stack degrades to a plateau.

Each combo also runs a *crash probe*: a server crash in the middle of the
storm window, with the oracle asserting at the instant of death (and
again at end of run) that no acked write was lost — the paper's crash
contract must hold in both modes even mid-collapse.

Everything is seeded; same-seed reruns produce byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.policy import GatherPolicy
from repro.experiments.runner import register
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.faults.controller import FaultController
from repro.faults.events import AtTime, FaultPlan, RetransmitStorm, ServerCrash
from repro.faults.oracle import Oracle
from repro.net.spec import FDDI
from repro.overload.rto import AdaptiveRetryPolicy
from repro.overload.window import WriteWindow
from repro.sim import AllOf
from repro.workload.sequential import patterned_chunk

__all__ = ["OverloadConfig", "OverloadReport", "MODES"]

MODES = ("static", "adaptive")

#: NVRAM size for the presto=on arm (1 MB, the paper's board).
PRESTO_BYTES = 1 << 20

CHUNK = 8192


@dataclass
class OverloadConfig:
    """One overload sweep: the load axis, the fleet, and the storm."""

    #: Per-client offered write rates (bytes/sec), swept in order.  The
    #: aggregate offered load is ``clients *`` each value; the default
    #: axis runs from ~1/4 of plain-path saturation to ~30x past it.
    loads: Sequence[int] = (4_000, 8_000, 16_000, 48_000, 160_000, 480_000)
    clients: int = 12
    nbiods: int = 8
    #: Server daemons and queue bounds.  Deliberately lean: collapse
    #: requires the server's work reservoir (socket buffer + nfsds +
    #: parked writes) to drain within one static 1.1 s backoff, so the
    #: fleet's synchronized stalls actually starve the disk.
    nfsds: int = 4
    sockbuf_bytes: int = 48 * 1024
    max_parked: int = 8
    #: Measured window per point, sim-seconds.
    duration: float = 5.0
    write_paths: Sequence[str] = ("standard", "gather", "siva")
    presto_modes: Sequence[bool] = (False, True)
    modes: Sequence[str] = MODES
    netspec: object = FDDI
    seed: int = 0
    #: Storm window as fractions of ``duration``.
    storm_start_frac: float = 0.3
    storm_end_frac: float = 0.7
    storm_loss_rate: float = 0.25
    storm_capacity_bytes: int = 24 * 1024
    #: Server admission cap + shed policy (adaptive mode only).  The cap
    #: sits below the socket buffer's byte capacity so shedding is a
    #: policy decision, not a silent overflow.
    admission_max_requests: int = 4
    shed_policy: str = "early-reply"
    #: AIMD window geometry (adaptive mode only).
    window_initial: int = 4
    window_maximum: int = 64
    #: Jitter spread for adaptive retransmission timers.
    jitter: float = 0.1
    #: Retransmit-interval ceiling for the adaptive policy.  Far below the
    #: estimator's default 60 s: a hard-mount biod that backs off past the
    #: measurement window is a stranded pipeline slot, and real NFS
    #: clients cap the retrans timer at a few seconds for exactly this
    #: reason.  Karn backoff still doubles up to this ceiling.
    adaptive_max_rto: float = 2.0
    #: Relative slack when judging the adaptive curve monotone (sim noise
    #: from storm-window phase shifts, not a real goodput regression).
    monotone_tolerance: float = 0.05
    #: A curve "collapses" when its final point falls more than this
    #: fraction below its peak.
    collapse_margin: float = 0.03

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"need at least one client, got {self.clients}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not self.loads:
            raise ValueError("need at least one load point")
        if list(self.loads) != sorted(self.loads):
            raise ValueError("loads must be ascending (the curve sweeps up)")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r} (expected one of: {MODES})")
        if not 0.0 <= self.storm_start_frac < self.storm_end_frac <= 1.0:
            raise ValueError("need 0 <= storm_start_frac < storm_end_frac <= 1")

    @property
    def storm(self) -> RetransmitStorm:
        return RetransmitStorm(
            AtTime(round(self.storm_start_frac * self.duration, 9)),
            loss_rate=self.storm_loss_rate,
            capacity_bytes=self.storm_capacity_bytes,
            duration=round(
                (self.storm_end_frac - self.storm_start_frac) * self.duration, 9
            ),
        )

    def testbed_config(self, write_path: str, presto: bool, mode: str) -> TestbedConfig:
        adaptive = mode == "adaptive"
        return TestbedConfig(
            netspec=self.netspec,
            write_path=write_path,
            nbiods=self.nbiods,
            nfsds=self.nfsds,
            sockbuf_bytes=self.sockbuf_bytes,
            gather_policy=GatherPolicy(max_parked=self.max_parked),
            presto_bytes=PRESTO_BYTES if presto else None,
            verify_stable=True,
            seed=self.seed,
            admission_max_requests=self.admission_max_requests if adaptive else None,
            shed_policy=self.shed_policy,
        )


# -- one run --------------------------------------------------------------------


def _writer(env, client, name: str, rate: int, deadline: float, stagger: float):
    """Create ``name`` and write at ``rate`` bytes/sec offered until
    ``deadline``, then close (flushing write-behind).

    The pace timeout models the application producing data; when the
    client stack blocks (no biod / no window slot / inline RPC), offered
    load self-limits — that is the client/server flow control the window
    tightens under overload.  ``stagger`` offsets the fleet's start so
    the *offered* pacing is not phase-locked; the synchronization that
    matters for collapse is the retransmission schedule, not the load.
    """
    if stagger > 0:
        yield env.timeout(stagger)
    open_file = yield from client.create(name)
    pace = CHUNK / rate
    index = 0
    while env.now < deadline:
        yield env.timeout(pace)
        yield from client.write_stream(open_file, patterned_chunk(index, CHUNK))
        index += 1
    yield from client.close(open_file)


def _run_once(
    config: OverloadConfig,
    write_path: str,
    presto: bool,
    mode: str,
    rate: int,
    crash: bool,
) -> dict:
    """One testbed run: fleet writing at ``rate`` through the storm."""
    testbed = Testbed(config.testbed_config(write_path, presto, mode))
    env = testbed.env
    oracle = Oracle(testbed)
    adaptive = mode == "adaptive"
    for index in range(config.clients):
        policy = None
        window = None
        if adaptive:
            policy = AdaptiveRetryPolicy(
                max_rto=config.adaptive_max_rto,
                jitter=config.jitter,
                jitter_seed=config.seed,
            )
            window = WriteWindow(
                initial=min(config.window_initial, max(1, config.nbiods)),
                maximum=config.window_maximum,
            )
        client = testbed.add_client(policy=policy, write_window=window)
        oracle.attach(client)
    pace = CHUNK / rate
    writers = [
        env.process(
            _writer(
                env,
                client,
                f"load-{index}",
                rate,
                deadline=config.duration,
                stagger=round(index * pace / config.clients, 9),
            ),
            name=f"overload-writer:{index}",
        )
        for index, client in enumerate(testbed.clients)
    ]
    events: List = [config.storm]
    if crash:
        midpoint = round(
            (config.storm_start_frac + config.storm_end_frac) / 2.0 * config.duration,
            9,
        )
        events.append(ServerCrash(AtTime(midpoint), reboot_delay=0.05))
    plan = FaultPlan(name=f"overload-{mode}", events=tuple(events))
    controller = FaultController(testbed, plan, oracle=oracle).start()

    # Goodput is a *deadline snapshot*: bytes acked within the measured
    # window.  Work that limps in during the drain is real (hard mounts
    # retry forever) but late — counting it would reward queue-stuffing
    # and hide the collapse.
    snapshot = {}

    def _snapper():
        yield env.timeout(config.duration)
        snapshot["acked_bytes"] = oracle.acked_byte_total()
        snapshot["disk_busy"] = testbed.disks[0].stats.busy.utilization()

    env.process(_snapper(), name="overload-snapshot")
    env.run(until=AllOf(env, writers))
    env.run()  # drain in-flight completions, NVRAM destage, watchdogs
    oracle.check("final")
    goodput = snapshot["acked_bytes"] / config.duration
    rpc_retransmissions = sum(c.rpc.retransmissions.value for c in testbed.clients)
    rpc_timeouts = sum(c.rpc.timeouts.value for c in testbed.clients)
    admission = testbed.server.svc.admission
    record = {
        "offered_kbs_per_client": round(rate / 1024.0, 9),
        "offered_kbs_total": round(rate * config.clients / 1024.0, 9),
        "goodput_kbs": round(goodput / 1024.0, 9),
        "disk_busy_pct": round(100.0 * snapshot["disk_busy"], 9),
        # Time past the deadline for the backlog to quiesce — the
        # graceful-degradation signal (static strands calls in
        # multi-second backoffs; adaptive recovers in a few RTTs).
        "recovery_s": round(env.now - config.duration, 9),
        "acked_writes": oracle.acked_writes,
        "retransmissions": int(rpc_retransmissions),
        "timeouts": int(rpc_timeouts),
        "sockbuf_drops": int(testbed.segment.dropped.value),
        "dup_dropped": int(testbed.server.svc.duplicates_dropped.value),
        "dup_replayed": int(testbed.server.svc.duplicates_replayed.value),
        "stable_violations": len(testbed.server.stable_violations),
        "oracle_violations": list(oracle.violations),
        "crashes": controller.crashes,
    }
    if admission is not None:
        record["shed"] = {
            "refused": int(admission.shed.value),
            "evicted": int(admission.evicted.value),
            "early_replies": int(admission.early_replies.value),
            "dup_sheds": int(admission.dup_sheds.value),
        }
    if adaptive:
        record["karn_suppressed"] = sum(
            c.rpc.policy.karn_suppressed for c in testbed.clients
        )
        record["final_cwnd"] = [
            round(c.write_window.cwnd, 9) for c in testbed.clients
        ]
    return record


# -- the report -----------------------------------------------------------------


def _curve_flags(points: List[dict], tolerance: float, collapse_margin: float) -> dict:
    goodputs = [p["goodput_kbs"] for p in points]
    peak = max(goodputs)
    collapse = bool(peak > 0) and goodputs[-1] < (1.0 - collapse_margin) * peak
    monotone = all(
        later >= earlier * (1.0 - tolerance)
        for earlier, later in zip(goodputs, goodputs[1:])
    )
    flags = {
        "goodput_kbs": goodputs,
        "peak_goodput_kbs": peak,
        "collapse": collapse,
        "monotone_nondecreasing": monotone,
    }
    if peak <= 0:
        # Nothing was delivered at any load: an all-zero curve is flat,
        # not a plateau, and cannot be scored.
        flags["unscored"] = True
    return flags


@dataclass
class OverloadReport:
    """Aggregated sweep outcome, canonically serializable."""

    config: OverloadConfig
    combos: List[dict] = field(default_factory=list)

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for combo in self.combos:
            prefix = (
                f"{combo['write_path']}/presto="
                f"{'on' if combo['presto'] else 'off'}"
            )
            for mode, curve in combo["curves"].items():
                for point in curve["points"]:
                    out.extend(
                        f"{prefix}/{mode}: {v}" for v in point["oracle_violations"]
                    )
                    if point["stable_violations"]:
                        out.append(
                            f"{prefix}/{mode}: {point['stable_violations']} "
                            "stable-before-reply violations"
                        )
            for mode, probe in combo.get("crash_probe", {}).items():
                out.extend(
                    f"{prefix}/{mode}/crash: {v}" for v in probe["oracle_violations"]
                )
                if probe["stable_violations"]:
                    out.append(
                        f"{prefix}/{mode}/crash: {probe['stable_violations']} "
                        "stable-before-reply violations"
                    )
        return out

    @property
    def clean(self) -> bool:
        """No oracle or stable-storage violation anywhere in the sweep."""
        return not self.violations

    @property
    def adaptation_holds(self) -> bool:
        """At the top load, every combo's adaptive goodput must at least
        match the static curve, and the adaptive curve must not collapse."""
        for combo in self.combos:
            verdict = combo.get("verdict")
            if verdict is not None and not verdict["adaptation_wins"]:
                return False
        return True

    def to_dict(self) -> dict:
        config = self.config
        return {
            "seed": config.seed,
            "duration": round(config.duration, 9),
            "clients": config.clients,
            "nbiods": config.nbiods,
            "loads_kbs_per_client": [round(r / 1024.0, 9) for r in config.loads],
            "storm": self.config.storm.describe(),
            "combos": self.combos,
            "clean": self.clean,
            "adaptation_holds": self.adaptation_holds,
            "violations": self.violations,
        }

    def to_json(self) -> str:
        """Canonical (byte-stable under a fixed seed) JSON form."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@register("overload", OverloadConfig)
def _run_overload(config: OverloadConfig, progress=None) -> OverloadReport:
    """Run the whole sweep; ``progress`` (if given) is called with a line
    of text after every completed run."""
    report = OverloadReport(config=config)
    for write_path in config.write_paths:
        for presto in config.presto_modes:
            combo: dict = {
                "write_path": str(write_path),
                "presto": presto,
                "curves": {},
                "crash_probe": {},
            }
            for mode in config.modes:
                points = [
                    _run_once(config, write_path, presto, mode, rate, crash=False)
                    for rate in config.loads
                ]
                curve = {"points": points}
                curve.update(
                    _curve_flags(
                        points, config.monotone_tolerance, config.collapse_margin
                    )
                )
                combo["curves"][mode] = curve
                if progress is not None:
                    progress(
                        f"{write_path}/presto={'on' if presto else 'off'}/{mode}: "
                        f"goodput {curve['goodput_kbs']} KB/s"
                    )
                probe = _run_once(
                    config, write_path, presto, mode, config.loads[-1], crash=True
                )
                combo["crash_probe"][mode] = probe
                if progress is not None:
                    status = "clean" if not probe["oracle_violations"] else "VIOLATED"
                    progress(
                        f"{write_path}/presto={'on' if presto else 'off'}/{mode}: "
                        f"mid-storm crash probe {status}"
                    )
            combo["verdict"] = _verdict(combo, config)
            report.combos.append(combo)
    return report


def _verdict(combo: dict, config: OverloadConfig) -> Optional[dict]:
    """Compare modes at the top load (present only when both modes ran)."""
    curves: Dict[str, dict] = combo["curves"]
    if "static" not in curves or "adaptive" not in curves:
        return None
    static_top = curves["static"]["goodput_kbs"][-1]
    adaptive_top = curves["adaptive"]["goodput_kbs"][-1]
    verdict = {
        "static_top_goodput_kbs": static_top,
        "adaptive_top_goodput_kbs": adaptive_top,
        "adaptation_wins": adaptive_top >= static_top * (1.0 - config.monotone_tolerance)
        and curves["adaptive"]["monotone_nondecreasing"],
    }
    if any(curve.get("unscored") for curve in curves.values()):
        # No goodput to compare: the verdict can only fail.
        verdict.update(adaptation_wins=False, unscored=True)
    return verdict
