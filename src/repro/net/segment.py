"""A shared network segment (private Ethernet or FDDI ring).

Both technologies in the paper are shared media: every frame from every
host serializes on the one channel.  The segment grants the medium *per
frame*, FIFO over the hosts waiting for it, so a long request train and
the reply traffic interleave frame-by-frame exactly as in the §5 case
study.  Each host's NIC sends its own datagrams strictly in order.

The medium is driven by callbacks, not processes: each frame is one
timeout, and the frame's end hands the medium to the next waiting host
directly.  The frame times and propagation delays are the modelled time;
nothing else costs an event.

Delivery places the reassembled datagram into the destination endpoint's
socket buffer; if that buffer is full the datagram is dropped, which is how
an overloaded server sheds load back onto client retransmission (§4.2).

The segment doubles as the fault-injection surface for the ``repro.faults``
subsystem: loss rate is adjustable mid-run, hosts can be partitioned off
(their traffic silently dropped in both directions, as with a dead
transceiver), and delivered datagrams can be probabilistically duplicated
or delayed out of order — all drawing from the segment's own seeded RNG so
faulty runs stay deterministic.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, Set

from repro.net.packet import Datagram
from repro.net.spec import NetSpec
from repro.net.udp import UdpEndpoint
from repro.obs import PHASE_WIRE, collector_for, registry_for
from repro.sim import Environment

__all__ = ["Segment"]


class _Nic:
    """One host's transmit side: its datagram queue and the frame in flight."""

    __slots__ = ("queue", "frame", "lost", "held_at", "wire_bytes", "end_frame")

    def __init__(self, segment: "Segment") -> None:
        #: Datagrams to send, in order; the head is the one being sent.
        self.queue: Deque[Datagram] = deque()
        #: Index of the head datagram's next (or current) frame.
        self.frame = 0
        #: Whether any frame of the head datagram was lost so far.
        self.lost = False
        self.held_at = 0.0
        self.wire_bytes = 0
        #: Callback for this host's frame timeouts (made once, not per frame).
        self.end_frame: Callable[[object], None] = lambda _event: segment._end_frame(self)


class Segment:
    """One shared-medium network segment with attached hosts."""

    def __init__(
        self,
        env: Environment,
        spec: NetSpec,
        name: str = "",
        loss_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        self.env = env
        self.spec = spec
        self.name = name or spec.name
        self.loss_rate = loss_rate
        self._rng = random.Random(seed)
        self._endpoints: Dict[str, UdpEndpoint] = {}
        self._nics: Dict[str, _Nic] = {}
        #: Whether a frame is on the medium now.
        self._medium_busy = False
        #: NICs waiting for the medium, first come first served.
        self._waiting: Deque[_Nic] = deque()
        #: Hosts currently cut off the segment (fault injection).
        self._partitioned: Set[str] = set()
        #: Probability a delivered datagram is delivered twice.
        self.duplicate_rate = 0.0
        #: Probability a delivered datagram is delayed by ``reorder_delay``
        #: (letting later traffic overtake it).
        self.reorder_rate = 0.0
        self.reorder_delay = 0.0
        self.obs = collector_for(env)
        metrics = registry_for(env)
        self.utilization = metrics.utilization(f"{self.name}.wire")
        self.delivered = metrics.counter(f"{self.name}.delivered")
        self.dropped = metrics.counter(f"{self.name}.dropped")
        self.lost = metrics.counter(f"{self.name}.lost")
        self.bytes_moved = metrics.counter(f"{self.name}.bytes")
        self.partition_drops = metrics.counter(f"{self.name}.partition_drops")
        self.duplicated = metrics.counter(f"{self.name}.duplicated")
        self.reordered = metrics.counter(f"{self.name}.reordered")

    def attach(self, host: str, buffer_bytes: int = 256 * 1024) -> UdpEndpoint:
        """Create an endpoint for ``host`` with a bounded socket buffer."""
        if host in self._endpoints:
            raise ValueError(f"host {host!r} already attached to {self.name}")
        endpoint = UdpEndpoint(self.env, host, self, buffer_bytes)
        self._endpoints[host] = endpoint
        self._nics[host] = _Nic(self)
        return endpoint

    def endpoint(self, host: str) -> UdpEndpoint:
        return self._endpoints[host]

    def has_host(self, host: str) -> bool:
        """Whether ``host`` is already attached to this segment."""
        return host in self._endpoints

    def unique_host(self, prefix: str) -> str:
        """First unattached name in the ``{prefix}-{n}`` sequence.

        Lets testbeds and clusters auto-generate client host names that
        never collide with hosts already attached (including ones callers
        attached explicitly under a matching name).
        """
        index = 0
        while f"{prefix}-{index}" in self._endpoints:
            index += 1
        return f"{prefix}-{index}"

    # -- fault-injection controls (driven by repro.faults) ---------------------

    def set_loss_rate(self, rate: float) -> None:
        """Change the per-frame loss probability mid-run."""
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        self.loss_rate = rate

    def partition(self, host: str) -> None:
        """Cut ``host`` off the segment: its datagrams (both directions)
        finish their wire time but are never delivered."""
        if host not in self._endpoints:
            raise ValueError(f"unknown host {host!r}")
        self._partitioned.add(host)

    def heal(self, host: str) -> None:
        """Reconnect a partitioned host."""
        self._partitioned.discard(host)

    def is_partitioned(self, host: str) -> bool:
        return host in self._partitioned

    def set_duplicate_rate(self, rate: float) -> None:
        """Probability that a delivered datagram arrives twice."""
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"duplicate rate must be in [0, 1), got {rate}")
        self.duplicate_rate = rate

    def set_reorder(self, rate: float, extra_delay: float) -> None:
        """Delay a ``rate`` fraction of datagrams by ``extra_delay`` seconds,
        letting traffic sent after them arrive first."""
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"reorder rate must be in [0, 1), got {rate}")
        if extra_delay < 0:
            raise ValueError(f"extra delay must be >= 0, got {extra_delay}")
        self.reorder_rate = rate
        self.reorder_delay = extra_delay

    def send(self, datagram: Datagram) -> None:
        """Queue ``datagram`` on its source host's NIC; returns immediately."""
        if datagram.dst not in self._endpoints:
            raise ValueError(f"unknown destination host {datagram.dst!r}")
        nic = self._nics.get(datagram.src)
        if nic is None:
            raise ValueError(f"unknown source host {datagram.src!r}")
        datagram.fragments = self.spec.frames_for(datagram.size)
        nic.queue.append(datagram)
        if len(nic.queue) == 1:
            self._request_medium(nic)

    def _request_medium(self, nic: _Nic) -> None:
        """Send ``nic``'s next frame now if the medium is free, else queue."""
        if self._medium_busy:
            self._waiting.append(nic)
        else:
            self._start_frame(nic)

    def _start_frame(self, nic: _Nic) -> None:
        self._medium_busy = True
        datagram = nic.queue[0]
        frame_payload = -(-datagram.size // datagram.fragments)  # even-ish split
        payload = min(frame_payload, datagram.size - nic.frame * frame_payload)
        nic.wire_bytes = payload + self.spec.frame_overhead
        nic.held_at = self.env.now
        self.utilization.begin()
        self.env.timeout(nic.wire_bytes * 8.0 / self.spec.bandwidth_bps).callbacks.append(
            nic.end_frame
        )

    def _end_frame(self, nic: _Nic) -> None:
        """A frame left the medium: pass the medium on, then move ``nic`` on."""
        self.utilization.end()
        datagram = nic.queue[0]
        wire_bytes = nic.wire_bytes
        if self.obs.enabled:
            trace = getattr(datagram.payload, "trace", None)
            if trace is not None:
                self.obs.emit(
                    PHASE_WIRE,
                    self.name,
                    nic.held_at,
                    self.env.now,
                    trace_id=trace.trace_id,
                    frame=nic.frame,
                    frames=datagram.fragments,
                    bytes=wire_bytes,
                    src=datagram.src,
                )
        if self._waiting:
            self._start_frame(self._waiting.popleft())
        else:
            self._medium_busy = False
        self.bytes_moved.add(wire_bytes)
        if self.loss_rate and self._rng.random() < self.loss_rate:
            nic.lost = True  # keep transmitting; the medium time is spent
        nic.frame += 1
        if nic.frame < datagram.fragments:
            self._request_medium(nic)
            return
        nic.queue.popleft()
        lost = nic.lost
        nic.frame = 0
        nic.lost = False
        # Propagation/delivery happens off the NIC's critical path.
        self._schedule_delivery(datagram, lost)
        if nic.queue:
            self._request_medium(nic)

    def _schedule_delivery(self, datagram: Datagram, lost: bool) -> None:
        """Arrange for ``datagram`` to arrive ``latency`` from now.

        Delivery is a plain callback on a timeout — not a process — so the
        per-datagram cost is one heap event instead of a full process
        lifecycle (spawn, initialize, resume, finish).
        """
        # Fault knobs draw from the RNG only while nonzero, so fault-free
        # runs consume the identical random stream they always did.
        extra_delay = 0.0
        duplicated = False
        if not lost:
            if self.reorder_rate and self._rng.random() < self.reorder_rate:
                extra_delay = self.reorder_delay
                self.reordered.add(1)
            if self.duplicate_rate and self._rng.random() < self.duplicate_rate:
                duplicated = True
        timer = self.env.timeout(self.spec.latency + extra_delay)
        if lost:
            timer.callbacks.append(lambda _ev: self.lost.add(1))
        elif duplicated:
            timer.callbacks.append(
                lambda _ev, d=datagram: self._arrive_with_duplicate(d)
            )
        else:
            timer.callbacks.append(lambda _ev, d=datagram: self._arrive(d))

    def _arrive_with_duplicate(self, datagram: Datagram) -> None:
        self._arrive(datagram)
        self.duplicated.add(1)
        timer = self.env.timeout(self.spec.latency)
        timer.callbacks.append(
            lambda _ev, d=self._clone(datagram): self._arrive(d)
        )

    def _arrive(self, datagram: Datagram) -> None:
        if datagram.src in self._partitioned or datagram.dst in self._partitioned:
            self.partition_drops.add(1)
            return
        target = self._endpoints[datagram.dst]
        if not target.deliver(datagram):
            self.dropped.add(1)
        else:
            self.delivered.add(1)

    @staticmethod
    def _clone(datagram: Datagram) -> Datagram:
        """A fresh Datagram carrying the same payload (the duplicate gets
        its own arrival bookkeeping in the destination socket buffer)."""
        copy = Datagram(
            src=datagram.src,
            dst=datagram.dst,
            payload=datagram.payload,
            size=datagram.size,
        )
        copy.fragments = datagram.fragments
        return copy
