"""Server configuration: daemon counts, buffers, CPU costs, write path.

CPU cost constants are calibrated so the simulated DEC 3400/3800-class
server lands in the paper's measured utilization bands (see DESIGN.md and
the calibration tests).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.policy import GatherPolicy
from repro.fs.ufs import CostModel

__all__ = ["ServerConfig", "WritePath"]


class WritePath(str, enum.Enum):
    """Which rfs_write implementation the server runs.

    A ``str`` subclass so existing ``config.write_path == "gather"``
    comparisons (and %-style formatting into experiment labels) keep
    working; prefer the enum members in new code.
    """

    STANDARD = "standard"
    GATHER = "gather"
    SIVA = "siva"
    ASYNC_COMMIT = "async_commit"

    def __str__(self) -> str:  # "gather", not "WritePath.GATHER"
        return self.value

    @classmethod
    def coerce(cls, value: Union["WritePath", str]) -> "WritePath":
        """Accept an enum member or its string value; raise on junk."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown write path {value!r} (expected one of: {names})"
            ) from None


@dataclass
class ServerConfig:
    """Everything an :class:`~repro.server.base.NfsServer` needs to know."""

    #: Number of nfsd daemons (the paper's experiments used 8; the LADDIS
    #: runs used 32).
    nfsds: int = 8
    #: CPU cores (1 everywhere in the paper).
    cpu_cores: int = 1
    #: NFS socket buffer limit ("DEC OSF/1 currently uses a maximum of
    #: .25M for socket buffering").
    socket_buffer_bytes: int = 256 * 1024
    #: Which rfs_write implementation to run.  Accepts a :class:`WritePath`
    #: member or its string value ("standard" / "gather" / "siva").
    write_path: WritePath = WritePath.STANDARD
    #: Gathering policy (used when write_path == "gather").
    gather_policy: GatherPolicy = field(default_factory=GatherPolicy)

    # CPU costs (seconds) for the RPC/NFS layers; filesystem costs are in
    # ``fs_costs``.  Per-frame receive costs come from the NetSpec.
    rpc_dispatch_cpu: float = 0.00025
    reply_cpu: float = 0.00015
    #: Scales *all* CPU costs (RPC, frames, filesystem): 1.0 is the DEC
    #: 3400/3500 class used in Tables 1-2; the DEC 3800 LADDIS server of
    #: Figures 2-3 is roughly twice as fast (0.5).
    cpu_scale: float = 1.0

    # Filesystem geometry.
    fs_bytes: int = 900 * 1024 * 1024
    block_size: int = 8192
    cluster_size: int = 65536
    cache_blocks: int = 4096
    fs_costs: CostModel = field(default_factory=CostModel)
    #: First non-root inode number (``None`` = the traditional sequence).
    #: A cluster assigns each shard a disjoint range so file handles are
    #: unambiguous fleet-wide (see ``repro.cluster``).
    ino_base: "int | None" = None

    #: When True, every WRITE reply is checked against the durable image
    #: (stable-storage-before-reply); violations are recorded on the server.
    verify_stable: bool = False
    #: [JUSZ89] duplicate request cache.  Disable to model a pre-1989
    #: server that re-executes every retransmission (ablation only).
    dup_cache: bool = True
    #: Paths the mountd side of the server answers MOUNT for.
    exports: tuple = ("/export",)
    #: Admission control (repro.overload): cap on queued requests in the
    #: socket buffer.  None = no admission queue — overload sheds only by
    #: silent byte overflow, the pre-overload behaviour.
    admission_max_requests: Optional[int] = None
    #: What the admission queue does with an arrival past the cap:
    #: "drop-newest", "drop-oldest", or "early-reply" (dup-cache-aware).
    shed_policy: str = "drop-newest"
    #: Lease TTL in seconds (repro.lease): the server grants read/write
    #: leases piggybacked on replies and recalls them before conflicting
    #: mutations.  None = no lease layer, the pre-lease behaviour.
    lease_ttl: Optional[float] = None
    #: Memory-pressure ceiling for the async_commit path (repro.commit):
    #: once the server holds this many un-COMMITted bytes in volatile
    #: memory it starts an opportunistic background flush.
    unstable_limit_bytes: int = 512 * 1024

    def __post_init__(self) -> None:
        if self.nfsds < 1:
            raise ValueError(f"need at least one nfsd, got {self.nfsds}")
        if self.lease_ttl is not None and self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {self.lease_ttl}")
        if self.unstable_limit_bytes < 1:
            raise ValueError(
                f"unstable_limit_bytes must be >= 1, got {self.unstable_limit_bytes}"
            )
        if self.admission_max_requests is not None and self.admission_max_requests < 1:
            raise ValueError(
                f"admission_max_requests must be >= 1, got {self.admission_max_requests}"
            )
        from repro.overload.admission import SHED_POLICIES

        if self.shed_policy not in SHED_POLICIES:
            names = ", ".join(SHED_POLICIES)
            raise ValueError(
                f"unknown shed policy {self.shed_policy!r} (expected one of: {names})"
            )
        self.write_path = WritePath.coerce(self.write_path)
