"""UDP endpoints with bounded, inspectable socket buffers.

The server's incoming request queue *is* its NFS socket buffer (§4.2): a
fixed-size mbuf pool (DEC OSF/1 used at most 0.25 MB).  When it fills,
arriving requests are silently dropped and client retransmission takes
over.  The gathering server's "mbuf hunter" (§6.5) scans this buffer for
additional write requests to the same file and can steal them out of order.

A datagram that arrives while a reader is parked on the buffer goes to it
at once: the delivery itself is the reader's wakeup.  A ``get()`` that
finds datagrams already queued still answers through the event queue, so
work already due at that instant runs first — the nfsd does not jump
ahead of it (that hop is part of the model, see :meth:`SocketBuffer.get`).
An endpoint with a ``receiver`` (an RPC client) hands every datagram to
it directly and queues nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.net.packet import Datagram
from repro.sim import Environment, Event

__all__ = ["UdpEndpoint", "SocketBuffer"]


class SocketBuffer:
    """A byte-bounded FIFO of datagrams with blocking get and steal."""

    def __init__(self, env: Environment, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"socket buffer must be positive, got {capacity_bytes}")
        self.env = env
        self.capacity_bytes = capacity_bytes
        self.items: Deque[Datagram] = deque()
        self.used_bytes = 0
        self._getters: Deque[Event] = deque()
        #: Optional admission controller (repro.overload): consulted before
        #: the byte-capacity check; False from its ``admit`` sheds the
        #: arriving datagram deliberately instead of by silent overflow.
        self.admission = None

    def __len__(self) -> int:
        return len(self.items)

    def try_put(self, datagram: Datagram) -> bool:
        """Queue a datagram, or return False (drop) if it does not fit."""
        if self.admission is not None and not self.admission.admit(self, datagram):
            return False
        if self.used_bytes + datagram.size > self.capacity_bytes:
            return False
        datagram.arrived_at = self.env.now
        if self._getters:
            # Readers park only on an empty buffer, so the first one is
            # owed the datagram.  From a delivery callback the arrival is
            # its wakeup; a datagram put from inside a process wakes it
            # through the queue instead, as an inline resume would nest.
            getter = self._getters.popleft()
            if self.env.active_process is None:
                getter.fire(datagram)
            else:
                getter.succeed(datagram)
            return True
        self.items.append(datagram)
        self.used_bytes += datagram.size
        return True

    def get(self) -> Event:
        """Wait for the oldest datagram.

        With datagrams already queued the event is triggered but still
        *pending*: the reader resumes after the events already due at
        this instant.  Handing the datagram over synchronously would let
        nfsds drain the buffer ahead of same-instant work (client sends,
        biod wakeups) and changes the modelled throughput.
        """
        event = self.env.event()
        if self.items:
            event.succeed(self._pop())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Optional[Datagram]:
        if self.items and not self._getters:
            return self._pop()
        return None

    def evict_oldest(self) -> Optional[Datagram]:
        """Remove and return the oldest queued datagram (drop-oldest shed).

        Only meaningful while the queue is non-empty; getters are never
        parked while items are queued, so no waiter can be starved by it.
        """
        if not self.items:
            return None
        return self._pop()

    def steal(self, predicate: Callable[[Datagram], bool]) -> Optional[Datagram]:
        """Remove the first queued datagram matching ``predicate``."""
        for index, datagram in enumerate(self.items):
            if predicate(datagram):
                del self.items[index]
                self.used_bytes -= datagram.size
                return datagram
        return None

    def scan(self, predicate: Callable[[Datagram], bool]) -> List[Datagram]:
        """Return (without removing) queued datagrams matching ``predicate``."""
        return [datagram for datagram in self.items if predicate(datagram)]

    def reset_volatile(self) -> None:
        """Drop every queued datagram (crash: the mbuf pool is RAM).

        Waiting getters stay parked — the post-reboot nfsds simply block
        until fresh traffic (client retransmissions) arrives.
        """
        self.items.clear()
        self.used_bytes = 0

    def _pop(self) -> Datagram:
        datagram = self.items.popleft()
        self.used_bytes -= datagram.size
        return datagram


class UdpEndpoint:
    """A host's attachment to a segment."""

    def __init__(self, env: Environment, host: str, segment, buffer_bytes: int) -> None:
        self.env = env
        self.host = host
        self.segment = segment
        self.inbox = SocketBuffer(env, buffer_bytes)
        #: Optional ``receiver(datagram)`` callback taking every arrival in
        #: place of the socket buffer (an RPC client matching replies).
        self.receiver: Optional[Callable[[Datagram], None]] = None

    def send(self, dst: str, payload: Any, size: int) -> None:
        """Fire-and-forget a datagram toward ``dst``."""
        self.segment.send(Datagram(src=self.host, dst=dst, payload=payload, size=size))

    def deliver(self, datagram: Datagram) -> bool:
        """Called by the segment; False means the socket buffer was full."""
        if self.receiver is not None:
            self.receiver(datagram)
            return True
        return self.inbox.try_put(datagram)

    def recv(self) -> Event:
        """Wait for the next datagram."""
        return self.inbox.get()
