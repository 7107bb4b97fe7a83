"""Figure 1: the packet/disk timeline of a sequential writer (§5, §6).

Regenerates the paper's side-by-side trace — client 8K writes flowing to
the server, server disk transactions, and write replies — for the standard
and gathering servers with 4 biods, after the client is >100K into the
file.  The gathering side should show the paper's signature: a burst of
"N Write Replies" after one clustered data write and one metadata update,
instead of a data+metadata pair per write.

The timeline is a pure *view* over the :mod:`repro.obs` span stream: the
testbed is built with ``tracing=True`` and the events are derived from the
recorded ``rpc.call`` and ``disk.io`` spans — no layer is monkeypatched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.experiments.runner import register
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.net.spec import FDDI
from repro.nfs.protocol import PROC_WRITE
from repro.obs import PHASE_DISK_IO, PHASE_RPC, Span
from repro.workload.sequential import write_file

__all__ = [
    "TraceEvent",
    "TraceParams",
    "trace_filecopy",
    "events_from_spans",
    "render_timeline",
    "render_timeline_svg",
    "figure1",
]


@dataclass
class TraceEvent:
    """One row of the Figure 1 timeline."""

    time_ms: float
    actor: str  # "client", "server", or "disk"
    label: str


def events_from_spans(spans: Iterable[Span]) -> List[TraceEvent]:
    """Project the Figure 1 events out of a recorded span stream.

    * an ``rpc.call`` span for a WRITE yields "8K Write @NK" at its start
      (the request leaving the client) and "Write Reply" at its end;
    * a ``disk.io`` span yields one "NK <kind> to disk" event at the time
      the transaction entered the device queue.
    """
    keyed = []
    for span in spans:
        if span.name == PHASE_RPC and span.attrs.get("proc") == PROC_WRITE:
            offset = int(span.attrs.get("offset", 0))
            keyed.append(
                (
                    span.start,
                    span.seq,
                    TraceEvent(
                        span.start * 1000.0, "client", f"8K Write @{offset // 1024}K"
                    ),
                )
            )
            keyed.append(
                (span.end, span.seq, TraceEvent(span.end * 1000.0, "client", "Write Reply"))
            )
        elif span.name == PHASE_DISK_IO:
            queued_at = span.attrs.get("queued_at", span.start)
            nbytes = int(span.attrs.get("bytes", 0))
            kind = span.attrs.get("kind", "data")
            keyed.append(
                (
                    queued_at,
                    span.seq,
                    TraceEvent(queued_at * 1000.0, "disk", f"{nbytes // 1024}K {kind} to disk"),
                )
            )
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [event for _time, _seq, event in keyed]


def trace_filecopy(
    write_path: str,
    nbiods: int = 4,
    file_kb: int = 256,
    netspec=FDDI,
) -> List[TraceEvent]:
    """Run a traced file copy; returns all events in time order."""
    config = TestbedConfig(
        netspec=netspec, write_path=write_path, nbiods=nbiods, tracing=True
    )
    testbed = Testbed(config)
    client = testbed.add_client()
    env = testbed.env
    proc = env.process(
        write_file(env, client, "traced", file_kb * 1024), name="trace-copy"
    )
    env.run(until=proc)
    return events_from_spans(testbed.collector.spans)


def render_timeline(
    events: List[TraceEvent],
    start_ms: Optional[float] = None,
    end_ms: Optional[float] = None,
    width: int = 72,
) -> str:
    """Plain-text rendering of a trace window (client left, disk right)."""
    chosen = [
        e
        for e in events
        if (start_ms is None or e.time_ms >= start_ms)
        and (end_ms is None or e.time_ms <= end_ms)
    ]
    lines = [f"{'time(ms)':>9}  {'client':<28}{'server disk':<28}"]
    for event in chosen:
        left = event.label if event.actor == "client" else ""
        right = event.label if event.actor == "disk" else ""
        lines.append(f"{event.time_ms:9.1f}  {left:<28}{right:<28}")
    return "\n".join(lines)


def render_timeline_svg(
    standard_window: List[TraceEvent],
    gathering_window: List[TraceEvent],
    width: int = 900,
    height: int = 640,
) -> str:
    """Render the two Figure 1 timelines side by side as SVG.

    Each side has a client column and a disk column; events are plotted at
    their (normalized) times with short labels — the same visual idea as
    the paper's figure.
    """
    columns = [
        ("Standard", standard_window, 0),
        ("Gathering", gathering_window, width // 2),
    ]
    margin_top, margin_bottom = 48, 16
    plot_h = height - margin_top - margin_bottom
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="10">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{width // 2}" y1="0" x2="{width // 2}" y2="{height}" stroke="#bbb"/>',
    ]
    for title, window, x_base in columns:
        if not window:
            continue
        t0 = window[0].time_ms
        t1 = max(event.time_ms for event in window) or (t0 + 1)
        span = max(t1 - t0, 1e-6)
        client_x = x_base + 120
        disk_x = x_base + 300
        parts.append(
            f'<text x="{x_base + width // 4}" y="20" text-anchor="middle" '
            f'font-size="14" font-weight="bold">{title} server</text>'
        )
        for x, label in ((client_x, "client"), (disk_x, "server disk")):
            parts.append(
                f'<text x="{x}" y="38" text-anchor="middle" font-size="11">{label}</text>'
            )
            parts.append(
                f'<line x1="{x}" y1="{margin_top}" x2="{x}" '
                f'y2="{margin_top + plot_h}" stroke="#888"/>'
            )
        for event in window:
            y = margin_top + (event.time_ms - t0) / span * plot_h
            if event.actor == "client":
                color = "#1f6fb2" if "Write Reply" not in event.label else "#3a8a4d"
                x, anchor, dx = client_x, "end", -6
            else:
                color = "#c4542d"
                x, anchor, dx = disk_x, "start", 6
            parts.append(
                f'<circle cx="{x}" cy="{y:.1f}" r="2.6" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{x + dx}" y="{y + 3:.1f}" text-anchor="{anchor}" '
                f'fill="{color}">{event.label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def figure1(file_kb: int = 256, window_after_kb: int = 100) -> dict:
    """Both Figure 1 timelines, windowed past ``window_after_kb`` of file.

    Returns {"standard": ..., "gathering": ...} where each side carries the
    raw events, the chosen window, and summary counts comparable to the
    figure (disk transactions and reply batching within the window).
    """
    sides = {}
    for name, write_path in (("standard", "standard"), ("gathering", "gather")):
        events = trace_filecopy(write_path, file_kb=file_kb)
        # Find the time the client passes window_after_kb into the file.
        threshold = next(
            (
                e.time_ms
                for e in events
                if e.actor == "client"
                and e.label.startswith("8K Write")
                and int(e.label.split("@")[1][:-1]) >= window_after_kb
            ),
            0.0,
        )
        window = [e for e in events if threshold <= e.time_ms <= threshold + 150.0]
        disk_ops = sum(1 for e in window if e.actor == "disk")
        replies = sum(1 for e in window if e.label == "Write Reply")
        writes = sum(1 for e in window if e.label.startswith("8K Write"))
        sides[name] = {
            "events": events,
            "window": window,
            "window_start_ms": threshold,
            "disk_transactions": disk_ops,
            "writes": writes,
            "replies": replies,
            "rendered": render_timeline(window),
        }
    return sides


@dataclass
class TraceParams:
    """``kind="trace"``: the Figure 1 timelines over a ``file_kb`` KB copy."""

    file_kb: int = 256

    def __post_init__(self) -> None:
        if self.file_kb <= 0:
            raise ValueError(f"file_kb must be positive, got {self.file_kb}")


@register("trace", TraceParams)
def _run_trace(params: TraceParams, progress=None) -> dict:
    return figure1(file_kb=params.file_kb)
