"""repro.faults — deterministic fault injection and crash-consistency checking.

The adversarial arm of the reproduction.  A declarative
:class:`~repro.faults.events.FaultPlan` schedules typed fault events
(server crash+reboot, packet-loss bursts, partitions, datagram
duplication/reordering, slow disks, socket-buffer shrink), each fired at a
sim time or on an observability span predicate; a
:class:`~repro.faults.controller.FaultController` process injects and
reverts them through public hooks; an
:class:`~repro.faults.oracle.Oracle` shadows every client-acked stable
write and asserts the paper's crash contract — acked ⇒ durable, correct
content, and zero fsck structural errors — at every crash and at end of
run.  :class:`~repro.faults.campaign.ChaosCampaign` sweeps seeded random
plans across all write paths × Presto on/off (the ``repro chaos`` CLI).
"""

from repro._lazy import lazy_surface

#: Each public name -> its defining module, imported on first read.
_LAZY = {
    "AtTime": "repro.faults.events",
    "OnSpan": "repro.faults.events",
    "FaultEvent": "repro.faults.events",
    "FaultPlan": "repro.faults.events",
    "ServerCrash": "repro.faults.events",
    "PacketLossBurst": "repro.faults.events",
    "NetworkPartition": "repro.faults.events",
    "DatagramDuplication": "repro.faults.events",
    "DatagramReorder": "repro.faults.events",
    "SlowDisk": "repro.faults.events",
    "SockBufShrink": "repro.faults.events",
    "RetransmitStorm": "repro.faults.events",
    "LatentSectorError": "repro.faults.events",
    "BitRot": "repro.faults.events",
    "TornWrite": "repro.faults.events",
    "NvramDegrade": "repro.faults.events",
    "FaultController": "repro.faults.controller",
    "Oracle": "repro.faults.oracle",
    "ChaosCampaign": "repro.faults.campaign",
    "CampaignReport": "repro.faults.campaign",
    "PlanResult": "repro.faults.campaign",
    "generate_plan": "repro.faults.campaign",
    "run_plan": "repro.faults.campaign",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
