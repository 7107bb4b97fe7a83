"""The crash-consistency oracle: acked ⇒ durable, and no structural damage.

The oracle shadows every *stable* WRITE acknowledgement a client receives
(via :attr:`NfsClient.on_write_acked`) into a per-inode :class:`AckedRuns`
run list — sorted ``(start, end, flag)`` extents, neighbours with the same
flag merged — plus an expected byte image that grows only for writes that
carried real bytes.  Flyweight acks therefore cost O(extents), not
O(bytes), in memory and at every check.  At every check point — the
instant of each simulated crash, and once at the end of the run — it
asserts the paper's crash contract against the server's durable image:

1. **Durability**: every acked byte range is durably readable
   (:meth:`Ufs.durable_read` returns actual bytes, not None);
2. **Content**: the durable bytes equal the last acked write's bytes;
3. **Structure**: ``fsck`` in post-crash mode reports zero structural
   errors (lost *unacked* tails are legitimate and stay warnings).

Any violation is recorded with the simulation time and byte range, so a
chaos campaign's report pinpoints exactly which promise broke and when.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from repro.fs.fsck import fsck

__all__ = ["AckedRuns", "Oracle"]

#: Run flags: acked with known content (the check byte-compares), and
#: acked via a flyweight payload (only the range's durability is promised).
CONTENT = 1
FLYWEIGHT = 2


class AckedRuns:
    """Which bytes of one inode have been acked, as a sorted run list.

    Equivalent to a per-byte mask indexed from byte 0 — flag 0 for never
    acked, :data:`CONTENT` or :data:`FLYWEIGHT` otherwise — but stored as
    non-overlapping ``(start, end, flag)`` runs of nonzero flag, with
    touching runs of the same flag merged.  A sequential stream of acks
    stays one run however many bytes it covers.  ``len()`` is the mask's
    length (the highest acked end, cut back by truncation) and ``del
    runs[n:]`` truncates, exactly as on the ``bytearray`` it replaces.
    """

    __slots__ = ("_runs", "_length")

    def __init__(self) -> None:
        self._runs: List[Tuple[int, int, int]] = []
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def __delitem__(self, key) -> None:
        if not (isinstance(key, slice) and key.stop is None and key.step is None):
            raise TypeError("AckedRuns only supports truncation: del runs[n:]")
        size = max(0, key.start or 0)
        runs = self._runs
        del runs[bisect_left(runs, (size,)) :]
        if runs and runs[-1][1] > size:
            start, _end, flag = runs[-1]
            runs[-1] = (start, size, flag)
        self._length = min(self._length, size)

    def mark(self, start: int, end: int, flag: int) -> None:
        """Set bytes [start, end) to ``flag`` (the latest ack wins)."""
        if end > self._length:
            self._length = end
        if end <= start:
            return
        runs = self._runs
        if not runs or runs[-1][1] < start:
            runs.append((start, end, flag))
            return
        last_start, last_end, last_flag = runs[-1]
        if last_end == start and last_flag == flag:
            runs[-1] = (last_start, end, flag)  # the sequential-stream case
            return
        # Runs [lo, hi) overlap or touch [start, end].
        lo = bisect_left(runs, (start,))
        if lo and runs[lo - 1][1] >= start:
            lo -= 1
        hi = bisect_right(runs, (end, float("inf")))
        pieces = []
        if lo < hi and runs[lo][0] < start:
            pieces.append((runs[lo][0], start, runs[lo][2]))
        pieces.append((start, end, flag))
        if lo < hi and runs[hi - 1][1] > end:
            pieces.append((end, runs[hi - 1][1], runs[hi - 1][2]))
        merged = [pieces[0]]
        for piece in pieces[1:]:
            if piece[2] == merged[-1][2]:
                merged[-1] = (merged[-1][0], piece[1], piece[2])
            else:
                merged.append(piece)
        runs[lo:hi] = merged

    def acked_runs(self) -> List[Tuple[int, int]]:
        """Maximal contiguous acked ranges, whatever their flags."""
        out: List[Tuple[int, int]] = []
        for start, end, _flag in self._runs:
            if out and out[-1][1] == start:
                out[-1] = (out[-1][0], end)
            else:
                out.append((start, end))
        return out

    def content_runs(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Maximal sub-ranges of [start, end) acked with :data:`CONTENT`."""
        runs = self._runs
        index = bisect_left(runs, (start,))
        if index and runs[index - 1][1] > start:
            index -= 1
        out: List[Tuple[int, int]] = []
        while index < len(runs) and runs[index][0] < end:
            run_start, run_end, flag = runs[index]
            if flag == CONTENT:
                out.append((max(run_start, start), min(run_end, end)))
            index += 1
        return out

    def total(self) -> int:
        """Acked bytes, whatever their flags."""
        return sum(end - start for start, end, _flag in self._runs)


class Oracle:
    """Records client-acked writes; diffs them against the durable image.

    Built either from a testbed (the single-server form) or from an
    explicit ``(env, server)`` pair — a cluster runs one oracle per shard,
    each checking only the writes that shard acknowledged.
    """

    def __init__(self, testbed=None, *, env=None, server=None) -> None:
        if testbed is None and (env is None or server is None):
            raise ValueError("Oracle needs a testbed or both env= and server=")
        self.testbed = testbed
        self.env = env if env is not None else testbed.env
        self.server = server if server is not None else testbed.server
        #: Per-ino expected content, indexed from byte 0.  It grows only
        #: as far as the last write that carried bytes: flyweight acks
        #: promise no content, so they leave it untouched.
        self._images: Dict[int, bytearray] = {}
        #: Per-ino acked ranges (an image may have unwritten gaps that
        #: carry no promise): :data:`CONTENT` runs are byte-compared,
        #: :data:`FLYWEIGHT` runs only promise durability.  Both flags
        #: count identically toward acked runs and byte totals, so
        #: accounting is mode-independent.
        self._acked: Dict[int, AckedRuns] = {}
        self.acked_writes = 0
        #: Async-commit bookkeeping: unstable acks carry *no* durability
        #: promise — the range sits here until a COMMIT under the right
        #: verifier promotes it to a hard ack.  An un-COMMITted write may
        #: legally be absent from a post-crash image; the client's replay
        #: obligation is what eventually lands it (checked as a hard ack
        #: once the COMMIT succeeds).
        self._pending: Dict[int, List[Tuple[int, int]]] = {}
        self.unstable_acks = 0
        self.committed_acks = 0
        self.checks = 0
        #: Human-readable violation strings, in detection order.
        self.violations: List[str] = []
        #: Read-contract violations (also mirrored into ``violations``):
        #: an acked READ returned bytes differing from the acked write
        #: image — silent corruption that escaped every checksum.
        self.read_violations: List[str] = []
        self.read_acks = 0
        # Triage context, all optional: filled by cluster oracles
        # (shard/role) and chaos campaigns (plan seed); the controller
        # keeps ``note_fault`` current.  Empty context adds nothing to
        # messages, so single-server reports are byte-stable.
        self.shard: Optional[str] = None
        self.role: Optional[str] = None
        self.plan_seed: Optional[object] = None
        self._last_fault: Optional[dict] = None

    # -- recording --------------------------------------------------------------

    def attach(self, client) -> None:
        """Shadow ``client``'s write acknowledgements.

        Stable (v2) acks bind a durability promise immediately; unstable
        (v3) acks only park the range as pending, and the promise binds
        when the matching COMMIT is acked.
        """
        client.on_write_acked = self.record_ack
        client.on_unstable_acked = self.record_unstable
        client.on_commit_acked = self.record_commit

    def record_ack(self, fhandle, offset: int, data: bytes) -> None:
        """One stable WRITE was acked: remember the promise it binds."""
        ino = fhandle[0]
        end = offset + len(data)
        image = self._images.setdefault(ino, bytearray())
        runs = self._acked.get(ino)
        if runs is None:
            runs = self._acked[ino] = AckedRuns()
        if isinstance(data, (bytes, bytearray, memoryview)):
            if len(image) < end:
                image.extend(bytes(end - len(image)))
            image[offset:end] = data
            runs.mark(offset, end, CONTENT)
        else:
            # Flyweight payload: the range is promised durable, its
            # content is not, so checks skip the byte compare.
            runs.mark(offset, end, FLYWEIGHT)
        self.acked_writes += 1

    def record_unstable(self, fhandle, offset: int, data) -> None:
        """An *unstable* WRITE was acked: no durability promise yet.

        The range is tracked only so reports can show how much data was
        in flight under the async-commit contract; a crash may legally
        drop it (the client resends under the new verifier).
        """
        self.unstable_acks += 1
        self._pending.setdefault(fhandle[0], []).append((offset, len(data)))

    def record_commit(self, fhandle, offset: int, data) -> None:
        """A COMMIT under the matching verifier covered this range: the
        durability promise binds now, exactly like a stable WRITE ack."""
        self.committed_acks += 1
        pending = self._pending.get(fhandle[0])
        if pending is not None:
            try:
                pending.remove((offset, len(data)))
            except ValueError:
                pass  # a replayed range re-recorded under a new verifier
            if not pending:
                del self._pending[fhandle[0]]
        self.record_ack(fhandle, offset, data)

    def record_read(self, fhandle, offset: int, data) -> None:
        """An acked READ: its bytes must match the acked write image.

        This is the end-to-end half of the integrity contract: whatever
        the storage stack did internally, a read that *succeeded* must
        never hand the application bytes differing from what was acked
        stable.  Flyweight reads and never-acked ranges are skipped.
        """
        self.read_acks += 1
        if not isinstance(data, (bytes, bytearray, memoryview)):
            return
        ino = fhandle[0]
        image = self._images.get(ino)
        runs = self._acked.get(ino)
        if image is None or runs is None:
            return
        upper = min(offset + len(data), len(runs))
        if upper <= offset:
            return
        now = self.env.now
        suffix = self._context_suffix()
        for sub_start, sub_end in runs.content_runs(offset, upper):
            got = bytes(data[sub_start - offset : sub_end - offset])
            want = bytes(image[sub_start:sub_end])
            if got != want:
                message = (
                    f"[read t={now:.6f}] ino {ino} bytes [{sub_start},{sub_end}): "
                    f"acked READ returned bytes differing from the acked "
                    f"write image (silent corruption){suffix}"
                )
                self.read_violations.append(message)
                self.violations.append(message)

    def note_fault(self, record: dict) -> None:
        """Remember the most recently applied fault for triage context."""
        self._last_fault = dict(record)

    def set_context(
        self,
        shard: Optional[str] = None,
        role: Optional[str] = None,
        plan_seed: Optional[object] = None,
    ) -> None:
        """Attach triage context appended to every violation message."""
        if shard is not None:
            self.shard = shard
        if role is not None:
            self.role = role
        if plan_seed is not None:
            self.plan_seed = plan_seed

    def _context_suffix(self) -> str:
        parts: List[str] = []
        if self.shard is not None:
            parts.append(f"shard={self.shard}")
        if self.role is not None:
            parts.append(f"role={self.role}")
        if self.plan_seed is not None:
            parts.append(f"plan_seed={self.plan_seed}")
        if self._last_fault is not None:
            kind = self._last_fault.get("kind", "?")
            start = self._last_fault.get("start")
            at = f"@t={start:.6f}" if isinstance(start, float) else ""
            parts.append(f"last_fault={kind}{at}")
        return f" [{', '.join(parts)}]" if parts else ""

    def _acked_runs(self, ino: int) -> List[Tuple[int, int]]:
        """Maximal contiguous byte ranges of ``ino`` covered by acks."""
        return self._acked[ino].acked_runs()

    def acked_inos(self) -> List[int]:
        """Inodes with at least one acked write (sorted)."""
        return sorted(self._images)

    def acked_byte_total(self) -> int:
        """Total bytes currently covered by stable-write acknowledgements.

        The overload experiment's goodput numerator: work the server
        *promised* (acked stably), not merely work clients offered —
        retransmitted duplicates and timed-out attempts never count.
        """
        return sum(runs.total() for runs in self._acked.values())

    # -- checking ---------------------------------------------------------------

    def check(self, label: str = "final") -> List[str]:
        """Assert the crash contract now; returns (and records) violations."""
        found: List[str] = []
        now = self.env.now
        ufs = self.server.ufs
        for ino in sorted(self._images):
            image = self._images[ino]
            runs = self._acked[ino]
            for start, end in runs.acked_runs():
                content_runs = runs.content_runs(start, end)
                if not content_runs:
                    # Flyweight-only run: reachability is the whole promise.
                    if not ufs.durable_covered(ino, start, end - start):
                        found.append(
                            f"[{label} t={now:.6f}] ino {ino} bytes [{start},{end}): "
                            "acked but not durably readable"
                        )
                    continue
                durable = ufs.durable_read(ino, start, end - start)
                if durable is None:
                    found.append(
                        f"[{label} t={now:.6f}] ino {ino} bytes [{start},{end}): "
                        "acked but not durably readable"
                    )
                    continue
                for sub_start, sub_end in content_runs:
                    got = durable[sub_start - start : sub_end - start]
                    want = bytes(image[sub_start:sub_end])
                    if got != want:
                        first_bad = next(
                            index
                            for index, (got_byte, want_byte) in enumerate(zip(got, want))
                            if got_byte != want_byte
                        )
                        found.append(
                            f"[{label} t={now:.6f}] ino {ino} bytes "
                            f"[{sub_start},{sub_end}): durable content differs "
                            f"from acked content "
                            f"(first mismatch at byte {sub_start + first_bad})"
                        )
        report = fsck(ufs, strict=False)
        for error in report.errors:
            found.append(f"[{label} t={now:.6f}] fsck: {error}")
        suffix = self._context_suffix()
        if suffix:
            found = [message + suffix for message in found]
        self.checks += 1
        self.violations.extend(found)
        return found

    def check_group(self, members, label: str = "final") -> List[str]:
        """Assert the *replica-group* crash contract (repro.replica).

        ``members`` is the surviving replica set as ``(name, ufs)`` pairs.
        An acked byte range is satisfied when **any** surviving member
        holds it durably with the acked content — the group promises the
        write outlives the primary, not that every member is already
        caught up at the instant of a crash.  Structure is checked on
        every survivor: a quorum cannot excuse a corrupt backup.
        """
        found: List[str] = []
        now = self.env.now
        for ino in sorted(self._images):
            image = self._images[ino]
            runs = self._acked[ino]
            for start, end in runs.acked_runs():
                content_runs = runs.content_runs(start, end)
                if not content_runs:
                    satisfied = any(
                        ufs.durable_covered(ino, start, end - start)
                        for _name, ufs in members
                    )
                else:
                    satisfied = any(
                        self._member_holds(ufs, ino, image, start, end, content_runs)
                        for _name, ufs in members
                    )
                if not satisfied:
                    found.append(
                        f"[{label} t={now:.6f}] ino {ino} bytes [{start},{end}): "
                        "acked but missing from every surviving replica"
                    )
        for name, ufs in members:
            report = fsck(ufs, strict=False)
            found.extend(
                f"[{label} t={now:.6f}] fsck({name}): {error}"
                for error in report.errors
            )
        suffix = self._context_suffix()
        if suffix:
            found = [message + suffix for message in found]
        self.checks += 1
        self.violations.extend(found)
        return found

    @staticmethod
    def _member_holds(
        ufs, ino: int, image: bytearray, start: int, end: int, content_runs
    ) -> bool:
        """Does one replica hold [start, end) durably, with the acked
        content wherever content was promised (the CONTENT sub-runs)?"""
        durable = ufs.durable_read(ino, start, end - start)
        if durable is None:
            return False
        return all(
            durable[sub_start - start : sub_end - start] == bytes(image[sub_start:sub_end])
            for sub_start, sub_end in content_runs
        )

    @property
    def clean(self) -> bool:
        return not self.violations
