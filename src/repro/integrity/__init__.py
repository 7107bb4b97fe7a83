"""repro.integrity — end-to-end data integrity for the simulated server.

Per-block checksums attach where bytes become durable (the
:class:`~repro.fs.buffer_cache.DurableImage` commit points) and are
verified on every path that turns durable bytes back into served bytes —
buffer-cache miss, fsck, replica resync, scrub.  A mismatch is never
silent: it raises :class:`~repro.integrity.errors.CorruptBlockError`,
which the NFS read path surfaces as EIO and quarantines.

Media faults that *create* corruption (bit rot, latent sector errors,
torn writes, NVRAM battery degrade) live in ``repro.faults.events``; the
:class:`~repro.integrity.scrub.Scrubber` closes the loop by detecting
them in the background and self-healing from replica peers — or, with
nobody to fetch from, surfacing them loudly.

The checksum/error primitives import eagerly (they are leaves — the
buffer cache depends on them); the scrubber and experiment re-exports
resolve lazily so importing :mod:`repro.fs` never cycles back through
the cluster stack.
"""

from repro._lazy import lazy_surface
from repro.integrity.checksum import block_digest
from repro.integrity.errors import CorruptBlockError

#: Each lazily re-exported name -> its defining module, imported on first read.
_LAZY = {
    "Scrubber": "repro.integrity.scrub",
    "ScrubFetchArgs": "repro.integrity.scrub",
    "QuarantineRecord": "repro.integrity.scrub",
    "RepairRecord": "repro.integrity.scrub",
    "install_scrub_fetch": "repro.integrity.scrub",
    "ScrubConfig": "repro.integrity.experiment",
    "ScrubArm": "repro.integrity.experiment",
    "ScrubRunResult": "repro.integrity.experiment",
    "SCRUB_SCHEMA": "repro.integrity.experiment",
    "run_scrub": "repro.integrity.experiment",
}

__all__ = ["block_digest", "CorruptBlockError", *_LAZY]

__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
