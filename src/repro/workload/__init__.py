"""Workloads: sequential writer, dumb PC, random access, LADDIS mix,
Zipf multi-tenant hot spots."""

from repro._lazy import lazy_surface

#: Each public name -> its defining module, imported on first read.
_LAZY = {
    "write_file": "repro.workload.sequential",
    "patterned_chunk": "repro.workload.sequential",
    "write_random": "repro.workload.random_access",
    "run_timesharing": "repro.workload.timesharing",
    "DUMB_PC_THINK_TIME": "repro.workload.dumbpc",
    "FAST_CLIENT_THINK_TIME": "repro.workload.dumbpc",
    "LaddisGenerator": "repro.workload.laddis",
    "LaddisResult": "repro.workload.laddis",
    "SFS_MIX": "repro.workload.laddis",
    "SFS_LATENCY_BOUND_MS": "repro.workload.laddis",
    "zipf_tenant": "repro.workload.zipf",
    "zipf_weights": "repro.workload.zipf",
    "tenant_file_name": "repro.workload.zipf",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
