"""Prestoserve-style NVRAM write accelerator (§4.3, §6.3 of the paper).

:class:`PrestoCache` sits in front of a :class:`~repro.disk.device.Storage`
(a disk or stripe set) and is itself a ``Storage``:

* A write of at most :attr:`accept_limit` bytes (typically 8K) completes as
  soon as the bytes are copied into NVRAM — NVRAM *is* stable storage under
  the SPEC baseline rules, so the caller's stable-storage promise is kept
  at copy time, in tens to hundreds of microseconds instead of tens of
  milliseconds.
* A larger write is *declined* and passed straight through to the backing
  device ("resulting in performance that degrades to underlying disk
  speed") — this is why a gathering server must not cluster in UFS when the
  filesystem is accelerated.
* A background drain clusters adjacent dirty extents into large transactions
  ("Presto does its own clustering") and writes them to the backing device
  asynchronously and in parallel with request processing.
* The NVRAM is small (the paper: "typically one or more MB"); when full,
  accepted writes block until the drain frees space.

After a simulated crash, :meth:`crash_recover` reports the extents that must
be flushed before service resumes, modeling the "recovered and flushed to
disk after server failure" clause of the SPEC baseline requirement.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, Optional, Tuple

from repro.disk.device import Storage
from repro.obs import PHASE_NVRAM_COPY, collector_for
from repro.sim import Container, Environment, Event

__all__ = ["PrestoCache"]


class PrestoCache(Storage):
    """NVRAM write-back cache in front of a backing storage device."""

    #: Marks this storage as accelerated; the server write layer queries
    #: this to pick its §6.3 policy (data-only sync vs delayed data).
    is_accelerated = True

    def __init__(
        self,
        env: Environment,
        backing: Storage,
        capacity: int = 1 << 20,
        accept_limit: int = 8192,
        copy_rate: float = 40e6,
        copy_overhead: float = 0.0001,
        max_flush: int = 128 * 1024,
        drain_high: float = 0.5,
        drain_low: float = 0.125,
        drain_max_age: float = 0.25,
        name: str = "presto",
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"NVRAM capacity must be positive, got {capacity}")
        if accept_limit <= 0 or accept_limit > capacity:
            raise ValueError(
                f"accept limit {accept_limit} outside (0, capacity={capacity}]"
            )
        if max_flush <= 0:
            raise ValueError(f"max_flush must be positive, got {max_flush}")
        if not 0 <= drain_low < drain_high <= 1:
            raise ValueError(
                f"need 0 <= drain_low < drain_high <= 1, got {drain_low}/{drain_high}"
            )
        if drain_max_age <= 0:
            raise ValueError(f"drain_max_age must be positive, got {drain_max_age}")
        super().__init__(env, name)
        self.obs = collector_for(env)
        self.backing = backing
        self.capacity = capacity
        self.accept_limit = accept_limit
        self.copy_rate = copy_rate
        self.copy_overhead = copy_overhead
        self.max_flush = max_flush
        self.drain_high = drain_high
        self.drain_low = drain_low
        self.drain_max_age = drain_max_age
        #: Free NVRAM bytes; writers reserve, the drain releases.
        self._free = Container(env, capacity=capacity, init=capacity)
        #: Sorted, non-overlapping dirty extents as (offset, end) pairs.
        self._dirty: List[Tuple[int, int]] = []
        #: Extent currently being written to the backing device; still in
        #: NVRAM (and recoverable) until that write completes.
        self._draining: Tuple[int, int] | None = None
        self._dirty_signal = env.event()
        self._declined = 0
        #: Armed battery fault as (fraction, seed); None = battery healthy.
        self._degrade: Optional[Tuple[float, int]] = None
        #: When the oldest currently-cached byte arrived (age trigger).
        self._oldest_insert: float = 0.0
        #: Elevator cursor: the drain sweeps extents in address order so a
        #: hot small extent (the inode block, rewritten by every NFS write)
        #: cannot starve the large contiguous data extent.
        self._drain_cursor: int = 0
        env.process(self._drain(), name=f"{name}:drain")

    # -- public Storage interface -------------------------------------------

    def submit(self, offset: int, nbytes: int, is_write: bool = True, kind: str = "data") -> Event:
        if nbytes <= 0:
            raise ValueError(f"request length must be positive, got {nbytes}")
        if not is_write:
            # Reads pass through (server read traffic goes to the spindle).
            return self.backing.submit(offset, nbytes, is_write=False, kind=kind)
        if nbytes > self.accept_limit:
            # Presto declines oversized requests; underlying disk speed.
            self._declined += 1
            return self.backing.submit(offset, nbytes, is_write=True, kind=kind)
        done = self.env.event()
        if self._free.try_get(nbytes):
            # Space available now: reserve synchronously and start the
            # copy.  try_get also keeps FIFO fairness: it declines
            # whenever an earlier writer is already queued for space.
            self._copy(done, offset, nbytes, kind, self.env.now)
        else:
            self.env.process(self._accept(done, offset, nbytes, kind))
        return done

    def queue_depth(self) -> int:
        return self.backing.queue_depth()

    @property
    def declined_count(self) -> int:
        """How many writes were too large for the NVRAM and bypassed it."""
        return self._declined

    @property
    def dirty_bytes(self) -> int:
        """Bytes currently held in NVRAM awaiting (or under) drain."""
        return sum(end - start for start, end in self.dirty_extents)

    @property
    def dirty_extents(self) -> List[Tuple[int, int]]:
        """NVRAM-resident (offset, end) extents: sorted, non-overlapping.

        Includes the extent currently being drained (its bytes stay in NVRAM
        until the backing write completes), merged with any re-dirtied
        overlap so the view is a clean union.
        """
        extents = list(self._dirty)
        if self._draining is not None:
            extents.append(self._draining)
        extents.sort()
        merged: List[Tuple[int, int]] = []
        for start, end in extents:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    def crash_recover(self) -> List[Tuple[int, int]]:
        """Extents that survived a crash in NVRAM and must be flushed."""
        return self.dirty_extents

    def reset_stats(self) -> None:
        super().reset_stats()
        self.backing.reset_stats()

    # -- media-fault hooks ---------------------------------------------------

    def inject_latent(self, offset: int, nbytes: int) -> None:
        self.backing.inject_latent(offset, nbytes)

    def heal_latent(self, offset: int, nbytes: int) -> None:
        self.backing.heal_latent(offset, nbytes)

    def latent_overlap(self, offset: int, nbytes: int) -> bool:
        return self.backing.latent_overlap(offset, nbytes)

    def arm_degrade(self, fraction: float, seed: int = 0) -> None:
        """Arm a battery fault: at the next crash, a seeded Bernoulli coin
        per dirty extent loses roughly ``fraction`` of the unflushed NVRAM
        contents (see :meth:`take_degraded`)."""
        if not 0 <= fraction <= 1:
            raise ValueError(f"degrade fraction must be in [0, 1], got {fraction}")
        self._degrade = (fraction, seed)

    def take_degraded(self) -> List[Tuple[int, int]]:
        """Consume an armed battery fault at crash time.

        Returns the (offset, end) extents whose NVRAM copies did *not*
        survive the crash; they are dropped from the dirty set (their
        space returns to the pool) so recovery cannot flush them.  Unarmed
        caches return ``[]`` — the battery held, everything survived.
        """
        if self._degrade is None:
            return []
        fraction, seed = self._degrade
        self._degrade = None
        rng = random.Random(f"nvram-degrade/{seed}")
        lost: List[Tuple[int, int]] = []
        kept: List[Tuple[int, int]] = []
        for start, end in self._dirty:
            if rng.random() < fraction:
                lost.append((start, end))
            else:
                kept.append((start, end))
        self._dirty = kept
        freed = sum(end - start for start, end in lost)
        if freed:
            self._free.put(freed)
        return lost

    # -- internals ----------------------------------------------------------

    def _accept(self, done: Event, offset: int, nbytes: int, kind: str):
        """Slow path: wait for the drain to free NVRAM space first."""
        accepted_at = self.env.now
        yield self._free.get(nbytes)
        self._copy(done, offset, nbytes, kind, accepted_at)

    def _copy(
        self, done: Event, offset: int, nbytes: int, kind: str, accepted_at: float
    ) -> None:
        """Copy a reserved write into NVRAM: one timer, whose callback
        completes the write and wakes its waiter inline."""
        timer = self.env.timeout(self.copy_overhead + nbytes / self.copy_rate)
        timer.callbacks.append(
            lambda _ev: self._finish_accept(done, offset, nbytes, kind, accepted_at)
        )

    def _finish_accept(
        self, done: Event, offset: int, nbytes: int, kind: str, accepted_at: float
    ) -> None:
        """Complete an accepted write once its NVRAM copy time has elapsed."""
        if self.obs.enabled:
            self.obs.emit(
                PHASE_NVRAM_COPY,
                self.name,
                accepted_at,
                self.env.now,
                kind=kind,
                bytes=nbytes,
                offset=offset,
            )
        # Space accounting is backed by the pending (_dirty) set only: the
        # extent under drain frees its own reservation when the flush ends,
        # so a rewrite overlapping it genuinely occupies new space.
        surplus = nbytes - self._insert_extent(offset, offset + nbytes)
        if surplus > 0:
            # Overwrote bytes that were already dirty: give the space back.
            # This always fits (the bytes came out of our own reservation),
            # so the put completes synchronously.
            self._free.put(surplus)
        self.stats.busy.add_busy(self.copy_overhead + nbytes / self.copy_rate)
        self.stats.record(nbytes, True, kind)
        self._wake_drain()
        done.fire()

    def _insert_extent(self, start: int, end: int) -> int:
        """Merge ``[start, end)`` into the dirty set; return the bytes it grew.

        Extents that overlap or touch the new one (as it grows by absorbing
        them) merge into it.  The dirty set is sorted and disjoint, so those
        extents are one contiguous run, and bisect finds where it begins.
        """
        dirty = self._dirty
        first = bisect_left(dirty, (start,))
        if first and dirty[first - 1][1] >= start:
            first -= 1  # the extent before reaches ``start``
            start = dirty[first][0]
        index = first
        covered = 0
        while index < len(dirty) and dirty[index][0] <= end:
            extent_start, extent_end = dirty[index]
            end = max(end, extent_end)
            covered += extent_end - extent_start
            index += 1
        dirty[first:index] = [(start, end)]
        return end - start - covered

    def _next_drain_index(self) -> int:
        """The first dirty extent at or past the drain cursor; wrap to 0."""
        index = bisect_left(self._dirty, (self._drain_cursor,))
        return index if index < len(self._dirty) else 0

    def _wake_drain(self) -> None:
        if not self._dirty_signal.triggered:
            self._dirty_signal.succeed()

    def _drain(self):
        """Lazy write-back: drain only past the high watermark or once the
        cached data ages out.

        Draining eagerly would put an 8K-request stream on the spindle —
        exactly the pattern §6.6 says is "sub-optimal in both drive
        throughput and CPU utilization".  Waiting lets adjacent extents
        coalesce so the disk sees few, large, contiguous transfers.
        """
        while True:
            if not self._dirty:
                self._dirty_signal = self.env.event()
                yield self._dirty_signal
                self._oldest_insert = self.env.now
                continue
            pending = sum(end - start for start, end in self._dirty)
            over_watermark = pending >= self.drain_high * self.capacity
            aged = self.env.now - self._oldest_insert >= self.drain_max_age
            if not over_watermark and not aged:
                # Poll at a fraction of the age limit; cheap in event count.
                yield self.env.timeout(self.drain_max_age / 4.0)
                continue
            # Drain down to the low watermark (or empty, if age-triggered),
            # sweeping extents elevator-style by address.  The burst is
            # bounded by the bytes present when it started: data arriving
            # *during* the burst waits for the next trigger, so it can
            # coalesce into large extents instead of being chased to the
            # spindle 8K at a time.
            target = self.drain_low * self.capacity if over_watermark else 0.0
            budget = pending - target
            drained = 0.0
            while self._dirty and drained < budget:
                index = self._next_drain_index()
                start, end = self._dirty[index]
                take = min(end - start, self.max_flush)
                chunk_end = start + take
                if chunk_end == end:
                    self._dirty.pop(index)
                else:
                    self._dirty[index] = (chunk_end, end)
                self._drain_cursor = chunk_end
                self._draining = (start, chunk_end)
                yield self.backing.submit(start, take, is_write=True, kind="presto-flush")
                self._draining = None
                yield self._free.put(take)
                drained += take
            self._oldest_insert = self.env.now
