"""The write gathering engine (§6, the paper's contribution).

The algorithm, from §6.8, as one nfsd ``D`` handed a write request runs it::

    Hand off data to UFS via VOP_WRITE (Presto: IO_SYNC|IO_DATAONLY;
                                        plain disk: IO_DELAYDATA).
    Do
        Look for another nfsd blocked on the same vnode.
        If one is,   park the reply on the active write queue,
                     return reply-pending.
        Else search the socket buffer for another write to the same file.
        If there is, park the reply, return reply-pending.
        Sleep (procrastinate) for a transport dependent interval.
    While not procrastinating more than once.
    Become the metadata writer and assume responsibility for this file:
        Flush this and other data for active writes via VOP_SYNCDATA.
        Flush the metadata via VOP_FSYNC.
        Send all pending replies for the file to the client (FIFO).
        Return reply-done.

No reply leaves the server before the shared metadata update is stable, so
the NFS crash-recovery contract holds.  §6.9's hazard — duplicates or stale
handles that looked like "another write in the socket buffer" but never
execute, orphaning parked replies — is covered by a per-file watchdog that
sweeps any queue left without a responsible nfsd.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.learned import LearnedClientDb
from repro.core.mbuf_hunter import hunt
from repro.core.policy import REPLY_LIFO, GatherPolicy
from repro.core.state_table import (
    STAGE_FLUSHING,
    STAGE_GATHER_WAIT,
    STAGE_WRITING,
    NfsdStateTable,
)
from repro.core.write_queue import ActiveWriteQueue, WriteDescriptor, WriteQueueRegistry
from repro.fs.ufs import FsError
from repro.fs.vfs import (
    FWRITE,
    FWRITE_METADATA,
    IO_DATAONLY,
    IO_DELAYDATA,
    IO_SYNC,
    Vnode,
)
from repro.nfs.protocol import Fattr
from repro.obs import (
    PHASE_COMMIT,
    PHASE_PARKED,
    PHASE_PROCRASTINATE,
    PHASE_REPLICATE,
    PHASE_REPLY,
    PHASE_VNODE_WAIT,
    registry_for,
)
from repro.rpc.server import REPLY_DONE, REPLY_PENDING, TransportHandle

__all__ = ["GatheringWritePath", "GatherStats"]


class GatherStats:
    """Observability for gathering success rates (§6.6 monitoring).

    Instruments live in the environment's central
    :class:`~repro.obs.registry.MetricsRegistry` under ``prefix``.
    """

    def __init__(self, env, prefix: str = "gather") -> None:
        metrics = registry_for(env)
        self.writes = metrics.counter(f"{prefix}.writes")
        self.batches = metrics.counter(f"{prefix}.batches")
        self.batch_size = metrics.tally(f"{prefix}.batch_size", keep_samples=True)
        self.procrastinations = metrics.counter(f"{prefix}.procrastinations")
        self.handoffs_nfsd = metrics.counter(f"{prefix}.handoffs.nfsd")
        self.handoffs_mbuf = metrics.counter(f"{prefix}.handoffs.mbuf")
        self.watchdog_sweeps = metrics.counter(f"{prefix}.watchdog_sweeps")
        self.skipped_procrastinations = metrics.counter(f"{prefix}.learned_skips")
        self.forced_flushes = metrics.counter(f"{prefix}.forced_flushes")

    def gather_success_rate(self) -> float:
        """Fraction of writes that shared their metadata update.

        Each singleton batch is one write that gathered nothing; every
        other write amortized its metadata update with at least one peer.
        """
        if self.writes.value == 0:
            return 0.0
        singles = sum(1 for s in self.batch_size.samples if s <= 1)
        return 1.0 - singles / self.writes.value

    def mean_batch_size(self) -> float:
        return self.batch_size.mean


class GatheringWritePath:
    """The gathering rfs_write implementation.

    ``server`` provides the shared context: ``env``, ``svc``, ``vnodes``,
    ``cpu``, ``endpoint``, ``spec`` (NetSpec), ``config`` (reply CPU cost),
    and optionally ``check_stable(vnode, descriptor)``.
    """

    def __init__(self, server, policy: Optional[GatherPolicy] = None) -> None:
        self.server = server
        self.env = server.env
        self.policy = policy or GatherPolicy()
        self.state_table = NfsdStateTable(server.config.nfsds)
        self.queues = WriteQueueRegistry()
        self.stats = GatherStats(server.env, prefix=f"{server.host}.gather")
        self.learned = (
            LearnedClientDb(threshold=self.policy.learned_threshold)
            if self.policy.learned_clients
            else None
        )
        #: early_wakeup: per-file events triggered when a new write for
        #: that file enters the write path.
        self._arrival_events: dict = {}

    # -- configuration ---------------------------------------------------------

    @property
    def interval(self) -> float:
        """Procrastination interval: policy override or transport default."""
        if self.policy.interval is not None:
            return self.policy.interval
        return self.server.spec.gather_interval

    # -- the algorithm -----------------------------------------------------------

    def handle(self, nfsd_id: int, handle: TransportHandle) -> Generator:
        """Process one WRITE; returns REPLY_DONE or REPLY_PENDING."""
        call = handle.call
        args = call.args
        try:
            vnode = self.server.vnodes.by_fhandle(args.fhandle)
        except FsError as exc:
            yield from self.server.reply(handle, exc.code, None)
            return REPLY_DONE
        self.stats.writes.add(1)
        trace = self.server.trace_of(handle)
        self.state_table.set(nfsd_id, STAGE_WRITING, vnode.ino, args.offset, len(args.data))
        if self.policy.early_wakeup:
            self._signal_arrival(vnode.ino)

        # Hand off data to UFS via VOP_WRITE, per the §6.3 duality.  The
        # vnode sleep lock (§6.2) is held from here through the gathering
        # decision: a follower nfsd handling a write to the same file blocks
        # on this lock, where the procrastinator can *see* it and leave the
        # metadata update to it.
        ioflags = (
            IO_SYNC | IO_DATAONLY if self.server.ufs.is_accelerated else IO_DELAYDATA
        )
        lock_requested = self.env.now
        with vnode.lock.request() as grant:
            yield grant
            self.server.emit_span(trace, PHASE_VNODE_WAIT, lock_requested, ino=vnode.ino)
            try:
                yield from vnode.vop_write(args.offset, args.data, ioflags)
            except FsError as exc:
                self.state_table.clear(nfsd_id)
                yield from self.server.reply(handle, exc.code, None)
                return REPLY_DONE

            queue = self.queues.for_vnode(vnode)
            queue.append(
                WriteDescriptor(
                    handle=handle,
                    offset=args.offset,
                    length=len(args.data),
                    client=call.client,
                    enqueued_at=self.env.now,
                    data=args.data,
                    trace=trace,
                )
            )

            procrastinations = 0
            while True:
                self.state_table.set(nfsd_id, STAGE_GATHER_WAIT, vnode.ino)
                # Backpressure: at the parked-descriptor cap, stop looking
                # for followers and flush right now — under a retransmit
                # storm the "evidence of more writes coming" never dries
                # up, and every parked reply pins a handle and its data.
                if (
                    self.policy.max_parked is not None
                    and len(queue) >= self.policy.max_parked
                ):
                    self.stats.forced_flushes.add(1)
                    break
                # Look for another nfsd blocked on the same vnode (or about
                # to be: decoding a write for this file).
                if vnode.waiters() > 0 or self.state_table.another_write_incoming(
                    vnode.ino, exclude=nfsd_id
                ):
                    self.stats.handoffs_nfsd.add(1)
                    self._arm_watchdog(queue)
                    self.state_table.clear(nfsd_id)
                    return REPLY_PENDING
                # Search the socket buffer for another write to this file.
                if self.policy.use_mbuf_hunter and hunt(
                    self.server.endpoint.inbox, args.fhandle
                ):
                    self.stats.handoffs_mbuf.add(1)
                    self._arm_watchdog(queue)
                    self.state_table.clear(nfsd_id)
                    return REPLY_PENDING
                if procrastinations >= self._allowed_procrastinations(call.client):
                    break
                procrastinations += 1
                self.stats.procrastinations.add(1)
                nap_started = self.env.now
                if self.policy.early_wakeup:
                    # Sleep, but let the arrival of another write for this
                    # file cut the nap short.
                    arrival = self._arrival_event(vnode.ino)
                    yield self.env.any_of([self.env.timeout(self.interval), arrival])
                else:
                    yield self.env.timeout(self.interval)
                self.server.emit_span(
                    trace, PHASE_PROCRASTINATE, nap_started, nap=procrastinations
                )

            # Become the metadata writer and assume responsibility for this
            # file.  The lock stays held: writes arriving during the flush
            # queue behind it and seed the next gathering round.
            self.state_table.set(nfsd_id, STAGE_FLUSHING, vnode.ino)
            yield from self._flush_and_reply(vnode, queue)
            self.state_table.clear(nfsd_id)
            return REPLY_DONE

    def _arrival_event(self, ino: int):
        event = self._arrival_events.get(ino)
        if event is None or event.triggered:
            event = self.env.event()
            self._arrival_events[ino] = event
        return event

    def _signal_arrival(self, ino: int) -> None:
        event = self._arrival_events.get(ino)
        if event is not None and not event.triggered:
            event.succeed()

    def _allowed_procrastinations(self, client: str) -> int:
        if self.learned is not None and not self.learned.should_procrastinate(client):
            self.stats.skipped_procrastinations.add(1)
            return 0
        return self.policy.max_procrastinations

    # -- metadata writer -----------------------------------------------------------

    def _flush_and_reply(self, vnode: Vnode, queue: ActiveWriteQueue) -> Generator:
        descriptors = queue.take_all()
        if not descriptors:
            # A racing flusher (or the watchdog) already owned this batch —
            # including our own descriptor, whose reply it sent.
            return
        flush_started = self.env.now
        extent = (
            min(d.offset for d in descriptors),
            max(d.end for d in descriptors),
        )
        if not self.server.ufs.is_accelerated:
            yield from vnode.vop_syncdata(extent[0], extent[1])
        # Data (NVRAM or disk) is now stable.  Flush metadata — unless the
        # batch only moved the modify time (rewrites of allocated blocks):
        # the reference port updates a mtime-only inode asynchronously, the
        # one promise the server may not keep (§4.4), and the same
        # exemption applies to the gathered metadata update.
        inode = vnode.inode
        if inode.inode_dirty or inode.indirect_dirty:
            yield from vnode.vop_fsync(FWRITE | FWRITE_METADATA)

        # All replies in the batch carry the same file modify time.
        fattr = Fattr.from_inode(vnode.inode)
        ordered = descriptors
        if self.policy.reply_order == REPLY_LIFO:
            ordered = list(reversed(descriptors))
        crash_time = getattr(self.server, "last_crash_time", -1.0)
        for position, descriptor in enumerate(descriptors):
            if descriptor.handle.acquired_at <= crash_time:
                continue  # request died with a previous server incarnation
            superseded = any(
                later.offset < descriptor.end and descriptor.offset < later.end
                for later in descriptors[position + 1 :]
            )
            self.server.check_stable(
                vnode,
                descriptor.offset,
                descriptor.data,
                require_content=not superseded,
            )
        stable_at = self.env.now
        batch = len(descriptors)
        # Replica groups: one gathered flush ⇒ one replication message.
        # Local data+metadata are stable; the parked replies additionally
        # wait for a quorum of backups to ack stable storage (still under
        # the vnode lock, so batch sequence follows same-file commit order).
        replicator = getattr(self.server, "replicator", None)
        if replicator is not None and replicator.active:
            yield from replicator.commit_wait(
                [
                    replicator.write_op(
                        vnode, d.offset, d.data, d.handle.call, fattr
                    )
                    for d in descriptors
                ]
            )
            for descriptor in descriptors:
                self.server.emit_span(
                    descriptor.trace,
                    PHASE_REPLICATE,
                    stable_at,
                    ino=vnode.ino,
                    batch=batch,
                )
        release_at = self.env.now
        for descriptor in ordered:
            yield from self.server.reply(descriptor.handle, "ok", fattr)
            self.server.emit_span(
                descriptor.trace,
                PHASE_COMMIT,
                flush_started,
                end=stable_at,
                ino=vnode.ino,
                bytes=descriptor.length,
                batch=batch,
            )
            self.server.emit_span(
                descriptor.trace, PHASE_PARKED, descriptor.enqueued_at, end=stable_at
            )
            self.server.emit_span(descriptor.trace, PHASE_REPLY, release_at)
        self.stats.batches.add(1)
        self.stats.batch_size.observe(len(descriptors))
        if self.learned is not None:
            for descriptor in descriptors:
                self.learned.observe_batch(descriptor.client, len(descriptors))

    # -- §6.9 safety net ---------------------------------------------------------

    def _arm_watchdog(self, queue: ActiveWriteQueue) -> None:
        """Ensure parked replies can never be orphaned.

        An nfsd only parks a reply when it sees evidence of a follower; if
        the follower turns out to be a duplicate or stale request that the
        dup cache discards, nobody would flush.  The watchdog wakes after a
        few procrastination intervals and sweeps any queue that has parked
        descriptors but no responsible nfsd.
        """
        if queue.watchdog_armed:
            return
        queue.watchdog_armed = True
        self.env.process(self._watchdog(queue), name=f"gather-watchdog:{queue.vnode.ino}")

    def _watchdog(self, queue: ActiveWriteQueue):
        # Floor the period so a zero procrastination interval (an ablation
        # configuration) cannot degenerate into a zero-delay spin.
        period = max(self.interval * self.policy.watchdog_factor, 0.002)
        try:
            while len(queue) > 0:
                yield self.env.timeout(period)
                if len(queue) == 0:
                    break
                if not self.state_table.any_responsible(queue.vnode.ino):
                    self.stats.watchdog_sweeps.add(1)
                    with queue.vnode.lock.request() as grant:
                        yield grant
                        yield from self._flush_and_reply(queue.vnode, queue)
        finally:
            queue.watchdog_armed = False
