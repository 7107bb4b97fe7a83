"""Testbed assembly: wire a network, disks, NVRAM, server, and clients.

One :class:`TestbedConfig` describes a whole hardware configuration from
the paper's Results section (network technology, spindle count, Presto
on/off, nfsd count, write path) and :func:`build_testbed` stands it up
inside a fresh simulation environment.

:class:`NodeConfig` and :func:`build_storage` are the one place a server
stack and its clients are assembled, for a testbed and a fleet alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro._lazy import lazy_surface
from repro.core.policy import GatherPolicy
from repro.disk.device import DiskDevice, Storage
from repro.disk.model import RZ26, DiskSpec
from repro.disk.stripe import StripeSet
from repro.net.segment import Segment
from repro.net.spec import ETHERNET, NetSpec
from repro.nfs.client import NfsClient
from repro.obs import RecordingCollector, install
from repro.rpc.client import RpcClient
from repro.server.base import NfsServer
from repro.server.config import ServerConfig, WritePath
from repro.sim import Environment

__all__ = [
    "NodeConfig",
    "build_storage",
    "TestbedConfig",
    "Testbed",
    "build_testbed",
    "ClusterConfig",
    "build_cluster",
]


# Fleet construction lives in repro.cluster; re-exported here (lazily, to
# avoid an import cycle) so experiment code has one front door for both
# single-server and multi-server assembly.
_LAZY = {
    "ClusterConfig": "repro.cluster.fleet",
    "build_cluster": "repro.cluster.fleet",
    "Cluster": "repro.cluster.fleet",
}

__getattr__, __dir__ = lazy_surface(__name__, _LAZY)


@dataclass
class NodeConfig:
    """What a testbed server and every fleet shard are built from, and
    the rules that turn it into a :class:`ServerConfig` and clients."""

    netspec: NetSpec = ETHERNET
    write_path: WritePath = WritePath.STANDARD
    nbiods: int = 4
    #: NVRAM accelerator per server: None = off, else capacity in bytes.
    presto_bytes: Optional[int] = None
    #: Spindles per server.
    stripes: int = 1
    disk_spec: DiskSpec = RZ26
    nfsds: int = 8
    cpu_scale: float = 1.0
    verify_stable: bool = True
    gather_policy: GatherPolicy = field(default_factory=GatherPolicy)
    client_write_cpu: float = 0.0003
    seed: int = 0
    #: Per-frame network loss probability (0 = lossless wire).
    loss_rate: float = 0.0
    #: Seed for the segment's RNG (loss/duplication/reorder draws); None
    #: falls back to ``seed`` so existing configs are unchanged.
    net_seed: Optional[int] = None
    #: When True, a :class:`~repro.obs.RecordingCollector` is installed
    #: so every layer emits lifecycle spans (off by default: zero cost).
    tracing: bool = False
    #: Lease TTL in seconds (repro.lease): enables the server lease layer
    #: and gives every added client a :class:`~repro.nfs.cache.CacheStack`.
    #: None = no leases, no client caching — the pre-lease behaviour.
    lease_ttl: Optional[float] = None
    #: Memory-pressure ceiling for the async_commit path (repro.commit);
    #: None = the ServerConfig default (512 KB).
    unstable_limit_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        self.write_path = WritePath.coerce(self.write_path)

    def variant(self, **changes):
        """A copy with some fields replaced (sweeps build on this)."""
        return replace(self, **changes)

    def server_config(self, **extra) -> ServerConfig:
        """The server's configuration, plus stack-specific ``extra``."""
        if self.unstable_limit_bytes is not None:
            extra["unstable_limit_bytes"] = self.unstable_limit_bytes
        return ServerConfig(
            nfsds=self.nfsds,
            write_path=self.write_path,
            gather_policy=self.gather_policy,
            verify_stable=self.verify_stable,
            cpu_scale=self.cpu_scale,
            lease_ttl=self.lease_ttl,
            **extra,
        )

    def new_client(
        self, env: Environment, rpc, nbiods: Optional[int] = None, write_window=None
    ) -> NfsClient:
        """One client host's NFS layer over the transport ``rpc``."""
        nbiods = self.nbiods if nbiods is None else nbiods
        # The async-commit path needs NFSv3 clients (unstable WRITE + COMMIT)
        # with a write window for COMMIT pressure, starting at the biod
        # depth so a clean wire keeps full write-behind.
        is_async = self.write_path == WritePath.ASYNC_COMMIT
        if is_async and write_window is None:
            from repro.overload.window import WriteWindow

            write_window = WriteWindow(initial=max(1, nbiods))
        client = NfsClient(
            env,
            rpc,
            nbiods=nbiods,
            write_cpu=self.client_write_cpu,
            nfs_version=3 if is_async else 2,
            write_window=write_window,
        )
        if self.lease_ttl is not None:
            # Mandatory with leases: a client without the cache stack's
            # recall handler would stall every conflicting writer a TTL.
            from repro.nfs.cache import CacheStack

            CacheStack(env, client)
        return client


def build_storage(
    env: Environment, disk_spec: DiskSpec, stripes: int, presto_bytes: Optional[int], label=""
) -> Tuple[List[DiskDevice], Storage, Storage]:
    """``(disks, base, storage)``: spindles named ``{disk}{label}-{n}``, a
    stripe set over several, and a Presto board in front when configured
    (``storage``; ``base`` is what lies under it)."""
    disks = [
        DiskDevice(env, disk_spec, name=f"{disk_spec.name}{label}-{spindle}")
        for spindle in range(stripes)
    ]
    base: Storage = StripeSet(env, disks) if stripes > 1 else disks[0]
    if not presto_bytes:
        return disks, base, base
    from repro.nvram.presto import PrestoCache

    return disks, base, PrestoCache(env, base, capacity=presto_bytes)


@dataclass
class TestbedConfig(NodeConfig):
    """A full single-server experiment configuration."""

    #: Server UDP socket buffer (bytes); None = the ServerConfig default
    #: (the paper's .25M DEC OSF/1 maximum).  The overload experiment
    #: shrinks this to model period-realistic receive buffers.
    sockbuf_bytes: Optional[int] = None
    #: Server admission control (repro.overload): cap on queued requests.
    #: None = no admission queue (shed only by silent byte overflow).
    admission_max_requests: Optional[int] = None
    #: Shed policy when the admission cap is hit: "drop-newest",
    #: "drop-oldest", or "early-reply".
    shed_policy: str = "drop-newest"


class Testbed:
    """A wired-up simulation: environment, network, server, clients."""

    def __init__(self, config: TestbedConfig) -> None:
        self.config = config
        self.env = Environment()
        #: Span collector; a shared no-op unless ``config.tracing``.  Must be
        #: installed before any component is built — they cache it.
        self.collector = RecordingCollector() if config.tracing else None
        if self.collector is not None:
            install(self.env, self.collector)
        self.segment = Segment(
            self.env,
            config.netspec,
            loss_rate=config.loss_rate,
            seed=config.seed if config.net_seed is None else config.net_seed,
        )
        self.disks, self.base_storage, self.storage = build_storage(
            self.env, config.disk_spec, config.stripes, config.presto_bytes
        )
        extra = {}
        if config.sockbuf_bytes is not None:
            extra["socket_buffer_bytes"] = config.sockbuf_bytes
        server_config = config.server_config(
            admission_max_requests=config.admission_max_requests,
            shed_policy=config.shed_policy,
            **extra,
        )
        self.server = NfsServer(self.env, self.segment, self.storage, config=server_config)
        self.clients: List[NfsClient] = []

    def add_client(
        self,
        nbiods: Optional[int] = None,
        host: Optional[str] = None,
        policy=None,
        write_window=None,
    ) -> NfsClient:
        """Attach one more client host.

        Host names are auto-generated (``client-0``, ``client-1``, ...)
        skipping any name already attached to the segment, so repeated
        calls — and calls mixed with explicit ``host=`` names — never
        collide.  ``policy`` overrides the RPC retransmission policy (e.g.
        an overload :class:`~repro.overload.rto.AdaptiveRetryPolicy`);
        ``write_window`` installs an AIMD
        :class:`~repro.overload.window.WriteWindow` on the biod pool.
        """
        endpoint = self.segment.attach(host or self.segment.unique_host("client"))
        rpc = RpcClient(self.env, endpoint, self.server.host, policy=policy)
        client = self.config.new_client(
            self.env, rpc, nbiods=nbiods, write_window=write_window
        )
        self.clients.append(client)
        return client

    # -- measured quantities ------------------------------------------------------

    def disk_stats_totals(self) -> tuple:
        """(bytes, transactions) across all spindles."""
        total_bytes = sum(d.stats.bytes.value for d in self.disks)
        total_transactions = sum(d.stats.transactions.value for d in self.disks)
        return total_bytes, total_transactions


def build_testbed(config: TestbedConfig, clients: int = 1) -> Testbed:
    """Stand up a testbed with ``clients`` attached client hosts."""
    testbed = Testbed(config)
    for _ in range(clients):
        testbed.add_client()
    return testbed
