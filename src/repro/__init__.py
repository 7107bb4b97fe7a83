"""repro — reproduction of Juszczak, "Improving the Write Performance of an
NFS Server" (USENIX Winter 1994).

The package is a deterministic discrete-event simulation of a complete NFS
client/server stack — network, RPC, filesystem, disk, NVRAM — with the
paper's *write gathering* technique as the core contribution, plus the
workloads and experiment drivers that regenerate every table and figure in
the paper's evaluation.

Quick start::

    from repro.experiments import TestbedConfig, run_filecopy
    from repro.net import FDDI

    metrics = run_filecopy(
        TestbedConfig(netspec=FDDI, write_path="gather", nbiods=7),
        file_mb=10,
    )
    print(metrics.client_kb_per_sec)

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro._lazy import lazy_surface

__version__ = "1.0.0"

#: Each re-exported name -> its defining module, imported on first read.
_LAZY = {
    "GatheringWritePath": "repro.core.gather",
    "GatherPolicy": "repro.core.policy",
    "NfsServer": "repro.server.base",
    "ServerConfig": "repro.server.config",
    "TestbedConfig": "repro.experiments.testbed",
    "run_filecopy": "repro.experiments.filecopy",
    "run_table": "repro.experiments.tables",
}

__all__ = [*_LAZY, "__version__"]

__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
