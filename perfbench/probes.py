"""Per-layer probes for the traced run, all installed from outside the program.

The traced run repeats one workload pass under each probe in turn, so no
probe's own cost lands in another's numbers:

* ``spans``: ``TestbedConfig(tracing=True)``; the spans the program already
  emits give each phase's simulated time, and the host time against an
  untraced pass gives the tracing overhead;
* ``counts``: wrappers count calls into ``BufferCache.lookup``,
  ``PrestoCache.submit`` and ``DiskDevice.submit``, and every event pushed
  onto the simulation queue is charged to the package that scheduled it;
* ``profile``: ``cProfile`` gives each package's share of host self time.

The counts and the profile cover the timed window only, not set-up.

Every probe only observes, so each pass must reproduce the untraced pass's
simulated-stat digest exactly.
"""

from __future__ import annotations

import cProfile
import heapq
import os
import pstats
import sys
import sysconfig
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator

import repro
import repro.sim.core as sim_core
from repro.disk.device import DiskDevice
from repro.fs.buffer_cache import BufferCache
from repro.nvram.presto import PrestoCache
from repro.obs import PercentileSummary

__all__ = [
    "LAYERS",
    "UNITS",
    "counting_probes",
    "layer_metrics",
    "phase_metrics",
    "profile_shares",
]

#: The program's layers, as packages of ``repro``.
LAYERS = ("sim", "net", "rpc", "server", "core", "nfs", "fs", "disk", "nvram", "commit", "obs")
#: Host self time is split over the layers, the standard library (and
#: builtins) and everything else (the benchmark's workloads, payloads, oracle).
SHARE_GROUPS = LAYERS + ("stdlib", "other")
#: Scheduled events are charged to a layer, the benchmark's own workload
#: code (``bench``) or other.
EVENT_GROUPS = LAYERS + ("bench", "other")

_FRACTION, _PER_OP, _COUNT, _RATIO, _PER_MB = "fraction", "1/op", "count", "ratio", "1/MB"

#: Every per-layer metric the traced run reports, with its unit.
UNITS: Dict[str, str] = {
    "trace_overhead_x": "x",
    **{f"host.{group}.self_share": _FRACTION for group in SHARE_GROUPS},
    "sim.events_per_op": _PER_OP,
    **{f"sim.events_per_op.{group}": _PER_OP for group in EVENT_GROUPS},
    "net.wire_util": _FRACTION,
    "net.frames_per_op": _PER_OP,
    "phase.net.wire.p99_ms": "ms",
    "phase.net.sockbuf.p99_ms": "ms",
    "rpc.retransmissions": _COUNT,
    "rpc.dup_replayed": _COUNT,
    "rpc.dup_dropped": _COUNT,
    "server.cpu_util": _FRACTION,
    "phase.server.dispatch.p50_ms": "ms",
    "phase.server.vnode_wait.p99_ms": "ms",
    "gather.batch_size_mean": "writes",
    "gather.procrastinations_per_write": _RATIO,
    "gather.handoffs.nfsd": _COUNT,
    "gather.handoffs.mbuf": _COUNT,
    "phase.gather.procrastinate.p50_ms": "ms",
    "phase.reply.parked.p99_ms": "ms",
    "nfs.blocked_writes_per_write": _RATIO,
    "nfs.rpcs_per_op": _RATIO,
    "commit.commits": _COUNT,
    "commit.pressure_flushes": _COUNT,
    "commit.pressure_commits": _COUNT,
    "commit.replayed_ranges": _COUNT,
    "fs.bcache_hit_ratio": _FRACTION,
    "fs.bcache_lookups_per_op": _PER_OP,
    "disk.writes_per_mb.data": _PER_MB,
    "disk.writes_per_mb.inode": _PER_MB,
    "disk.writes_per_mb.indirect": _PER_MB,
    "phase.storage.commit.p50_ms": "ms",
    "disk.util": _FRACTION,
    "disk.mean_write_kb": "KB",
    "disk.submits_per_op": _PER_OP,
    "phase.disk.io.p99_ms": "ms",
    "nvram.declined": _COUNT,
    "nvram.util": _FRACTION,
    "nvram.submits_per_op": _PER_OP,
    "phase.nvram.copy.p50_ms": "ms",
}

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_SIM_DIR = os.path.join(_REPRO_DIR, "sim") + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_STDLIB_DIR = os.path.abspath(sysconfig.get_paths()["stdlib"]) + os.sep
_RUN_LOOP = {sim_core.Environment.run.__code__, sim_core.Environment.step.__code__}
_RESUME = sim_core.Process._resume.__code__


def _package(filename: str) -> str:
    """The ``repro`` package a source file belongs to (``payload.py`` -> payload)."""
    path = os.path.abspath(filename)
    if path.startswith(_REPRO_DIR):
        head = path[len(_REPRO_DIR):].split(os.sep, 1)[0]
        return head[:-3] if head.endswith(".py") else head
    if path.startswith(_BENCH_DIR):
        return "bench"
    return "other"


def _event_group(package: str) -> str:
    return package if package in EVENT_GROUPS else "other"


def _scheduler(frame) -> str:
    """Charge one queue push to the package whose code caused it.

    ``frame`` is the kernel function doing the push.  A process ending is
    charged to its generator's package; otherwise the first caller outside
    ``repro.sim`` is, and a push reached from the run loop itself (condition
    and callback plumbing) is the kernel's own.
    """
    if frame.f_code is _RESUME:
        return _event_group(_package(frame.f_locals["generator"].gi_code.co_filename))
    while frame is not None:
        code = frame.f_code
        if code in _RUN_LOOP:
            return "sim"
        if not code.co_filename.startswith(_SIM_DIR):
            return _event_group(_package(code.co_filename))
        frame = frame.f_back
    return "sim"


class _CountingHeapq:
    """Stands in for ``heapq`` inside the simulation kernel and counts pushes."""

    heappop = staticmethod(heapq.heappop)

    def __init__(self, counts: Counter) -> None:
        self.counts = counts

    def heappush(self, heap, item) -> None:
        self.counts["events." + _scheduler(sys._getframe(1))] += 1
        heapq.heappush(heap, item)


@contextmanager
def counting_probes(counts: Counter) -> Iterator[Counter]:
    """Count layer entry-point calls and scheduled events into ``counts``."""
    originals = {
        (BufferCache, "lookup"): BufferCache.lookup,
        (PrestoCache, "submit"): PrestoCache.submit,
        (DiskDevice, "submit"): DiskDevice.submit,
    }
    lookup = originals[(BufferCache, "lookup")]
    presto_submit = originals[(PrestoCache, "submit")]
    disk_submit = originals[(DiskDevice, "submit")]

    def counted_lookup(self, addr):
        buffer = lookup(self, addr)
        counts["bcache_lookups"] += 1
        if buffer is not None:
            counts["bcache_hits"] += 1
        return buffer

    def counted_presto_submit(self, offset, nbytes, is_write=True, kind="data"):
        counts["nvram_submits"] += 1
        return presto_submit(self, offset, nbytes, is_write, kind)

    def counted_disk_submit(self, offset, nbytes, is_write=True, kind="data"):
        counts["disk_submits"] += 1
        if is_write:
            counts["disk_write_submits"] += 1
            counts["disk_write_bytes"] += nbytes
        return disk_submit(self, offset, nbytes, is_write, kind)

    BufferCache.lookup = counted_lookup
    PrestoCache.submit = counted_presto_submit
    DiskDevice.submit = counted_disk_submit
    sim_core.heapq = _CountingHeapq(counts)
    try:
        yield counts
    finally:
        sim_core.heapq = heapq
        for (cls, name), function in originals.items():
            setattr(cls, name, function)


def _share_group(filename: str) -> str:
    if filename == "~" or filename.startswith("<"):
        return "stdlib"  # builtins and frozen modules
    package = _package(filename)
    if package in LAYERS:
        return package
    if package == "other" and os.path.abspath(filename).startswith(_STDLIB_DIR):
        return "stdlib"
    return "other"


def profile_shares(profiler: cProfile.Profile) -> Dict[str, float]:
    """Each group's share of host self time (``tottime``), summing to 1."""
    totals = dict.fromkeys(SHARE_GROUPS, 0.0)
    for (filename, _line, _name), entry in pstats.Stats(profiler).stats.items():
        totals[_share_group(filename)] += entry[2]
    whole = sum(totals.values()) or 1.0
    return {f"host.{group}.self_share": totals[group] / whole for group in SHARE_GROUPS}


#: (metric, span phase, percentile) read from the spans pass.
PHASES = (
    ("phase.net.wire.p99_ms", "net.wire", "p99"),
    ("phase.net.sockbuf.p99_ms", "net.sockbuf", "p99"),
    ("phase.server.dispatch.p50_ms", "server.dispatch", "p50"),
    ("phase.server.vnode_wait.p99_ms", "server.vnode_wait", "p99"),
    ("phase.gather.procrastinate.p50_ms", "gather.procrastinate", "p50"),
    ("phase.reply.parked.p99_ms", "reply.parked", "p99"),
    ("phase.storage.commit.p50_ms", "storage.commit", "p50"),
    ("phase.disk.io.p99_ms", "disk.io", "p99"),
    ("phase.nvram.copy.p50_ms", "nvram.copy", "p50"),
)


def phase_metrics(spans, window_start: float) -> Dict[str, float]:
    """Per-phase simulated times (ms) of spans inside the timed window.

    A phase the workload never enters reads 0.
    """
    table = PercentileSummary(phases=None).consume(
        span for span in spans if span.start >= window_start
    ).table()
    return {
        metric: table[phase][pct] * 1000.0 if phase in table else 0.0
        for metric, phase, pct in PHASES
    }


def _sum(delta: Dict[str, float], prefix: str, suffix: str) -> float:
    return sum(
        value for key, value in delta.items() if key.startswith(prefix) and key.endswith(suffix)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(result, counts: Counter, ndisks: int) -> Dict[str, float]:
    """Per-layer metrics of one pass: its counter window plus probe counts."""
    start, end = result.start, result.end
    delta = {key: end[key] - start.get(key, 0.0) for key in end}
    elapsed = delta["now"]
    ops = result.ops
    data_mb = delta["client_bytes"] / (1024.0 * 1024.0)
    total_events = sum(counts[f"events.{group}"] for group in EVENT_GROUPS)
    metrics = {"sim.events_per_op": total_events / ops}
    for group in EVENT_GROUPS:
        metrics[f"sim.events_per_op.{group}"] = counts[f"events.{group}"] / ops
    writes = _sum(delta, "reg.server.gather.", ".writes.value")
    batch_count = _sum(delta, "reg.server.gather.", ".batch_size.count")
    metrics.update(
        {
            "net.wire_util": _ratio(_sum(delta, "reg.", ".wire.busy_time"), elapsed),
            "net.frames_per_op": _sum(delta, "reg.", ".delivered.value") / ops,
            "rpc.retransmissions": _sum(delta, "reg.rpc.", ".retransmissions.value"),
            "rpc.dup_replayed": _sum(delta, "reg.svc.", ".dup_replayed.value"),
            "rpc.dup_dropped": _sum(delta, "reg.svc.", ".dup_dropped.value"),
            "server.cpu_util": _ratio(delta["cpu_busy"], elapsed),
            "gather.batch_size_mean": _ratio(
                _sum(delta, "reg.server.gather.", ".batch_size.total"), batch_count
            ),
            "gather.procrastinations_per_write": _ratio(
                _sum(delta, "reg.server.gather.", ".procrastinations.value"), writes
            ),
            "gather.handoffs.nfsd": _sum(delta, "reg.server.gather.handoffs.", "nfsd.value"),
            "gather.handoffs.mbuf": _sum(delta, "reg.server.gather.handoffs.", "mbuf.value"),
            "nfs.blocked_writes_per_write": _ratio(
                _sum(delta, "reg.nfs.", ".blocked_writes.value"), delta["write_rpcs"]
            ),
            "nfs.rpcs_per_op": _ratio(
                _sum(delta, "reg.rpc.", ".completed.value"),
                _sum(delta, "reg.nfs.", ".user_ops.value"),
            ),
            "commit.commits": _sum(delta, "reg.server.commit.", ".commits.value"),
            "commit.pressure_flushes": _sum(delta, "reg.server.commit.", ".pressure_flushes.value"),
            "commit.pressure_commits": _sum(delta, "reg.nfs.", ".pressure_commits.value"),
            "commit.replayed_ranges": _sum(delta, "reg.nfs.", ".replayed_ranges.value"),
            "fs.bcache_hit_ratio": _ratio(counts["bcache_hits"], counts["bcache_lookups"]),
            "fs.bcache_lookups_per_op": counts["bcache_lookups"] / ops,
            "disk.writes_per_mb.data": _ratio(delta.get("fs_kind.data", 0.0), data_mb),
            "disk.writes_per_mb.inode": _ratio(delta.get("fs_kind.inode", 0.0), data_mb),
            "disk.writes_per_mb.indirect": _ratio(delta.get("fs_kind.indirect", 0.0), data_mb),
            "disk.util": _ratio(delta["disk_busy"], elapsed * ndisks),
            "disk.mean_write_kb": _ratio(
                counts["disk_write_bytes"] / 1024.0, counts["disk_write_submits"]
            ),
            "disk.submits_per_op": counts["disk_submits"] / ops,
            "nvram.declined": delta.get("nvram_declined", 0.0),
            "nvram.util": _ratio(delta.get("nvram_busy", 0.0), elapsed),
            "nvram.submits_per_op": counts["nvram_submits"] / ops,
        }
    )
    return metrics
