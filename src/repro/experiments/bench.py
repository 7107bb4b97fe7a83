"""The perf-trajectory baseline: a seeded, fixed workload over every path.

``repro bench`` runs one deterministic file copy per cell of
standard/gather/siva × Presto off/on and emits a small JSON document with
the numbers future PRs regress against:

* throughput (client KB/s),
* p50/p99 client-observed write latency (ms),
* disk writes per MB copied (the metadata-amortization headline),
* events the simulation kernel scheduled, in total and per server op —
  the simulator's own cost, deterministic under the seed.

CI runs it on every push and uploads ``BENCH_<n>.json`` as an artifact,
so any perf-affecting PR has a baseline to diff against.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from repro.experiments.runner import register
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.net.spec import NETWORKS
from repro.obs import registry_for
from repro.payload import PAYLOAD_FLYWEIGHT, PAYLOAD_FULL, coerce_payload_mode
from repro.server.config import WritePath
from repro.workload.sequential import write_file

__all__ = [
    "BENCH_SCHEMA",
    "BenchParams",
    "bench_to_json",
    "run_bench",
    "run_bench_cell",
]

BENCH_SCHEMA = "repro.bench/1"

#: The paper's Prestoserve board (1 MB).
PRESTO_BYTES = 1 << 20


def run_bench_cell(
    config: TestbedConfig,
    file_mb: float,
    think_time: float = 0.0005,
    payload: str = PAYLOAD_FULL,
) -> dict:
    """One cell: a seeded sequential copy, measured client- and disk-side.

    ``payload`` selects byte fidelity (:mod:`repro.payload`): the default
    ``"full"`` writes real bytes, ``"flyweight"`` writes extent stand-ins.
    Every simulated number in the cell is identical across the two modes;
    only the wall-clock-derived ``sim_ops_per_sec`` differs (which is the
    point of the flyweight mode).
    """
    wall_started = time.perf_counter()
    testbed = Testbed(config)
    # Pre-register the client's write-latency tally *with samples* before
    # the client builds (registration is get-or-create), so percentiles
    # are computable without touching the client code.
    latency = registry_for(testbed.env).tally(
        "nfs.client-0.write_latency", keep_samples=True
    )
    client = testbed.add_client()
    env = testbed.env
    nbytes = int(file_mb * 1024 * 1024)
    proc = env.process(
        write_file(
            env, client, "benchfile", nbytes, think_time=think_time, payload=payload
        ),
        name="bench",
    )
    env.run(until=proc)
    elapsed = proc.value
    env.run()  # drain NVRAM destage etc. so disk totals are final
    wall_seconds = time.perf_counter() - wall_started
    sim_ops = sum(counter.value for counter in testbed.server.ops_completed.values())
    events = env.events_scheduled
    total_bytes, total_transactions = testbed.disk_stats_totals()
    disk_writes = sum(d.stats.writes.value for d in testbed.disks)
    return {
        "write_path": str(config.write_path),
        "presto": bool(config.presto_bytes),
        "client_kb_per_sec": round(nbytes / elapsed / 1024.0, 2),
        "elapsed_seconds": round(elapsed, 6),
        "write_latency_ms": {
            "mean": round(latency.mean * 1000.0, 4),
            "p50": round(latency.percentile(0.50) * 1000.0, 4),
            "p99": round(latency.percentile(0.99) * 1000.0, 4),
        },
        "disk_writes_per_mb": round(disk_writes / file_mb, 2),
        "rpcs_per_op": round(client.rpcs_per_op.value, 4),
        "disk_kb_per_sec": round(total_bytes / elapsed / 1024.0, 2),
        "disk_trans_per_sec": round(total_transactions / elapsed, 2),
        # NFS operations the server completed per *wall-clock* second:
        # the simulator-throughput number the perf baseline gates on.
        # Wall-time-derived, so it is the one nondeterministic field in
        # the cell; determinism comparisons must exclude it.
        "sim_ops": int(sim_ops),
        "events": events,
        "events_per_op": round(events / sim_ops, 4) if sim_ops else 0.0,
        "sim_ops_per_sec": round(sim_ops / wall_seconds, 1) if wall_seconds else 0.0,
    }


@dataclass
class BenchParams:
    """``kind="bench"``: the grid on network ``net`` (a :data:`NETWORKS` name)."""

    net: str = "fddi"
    file_mb: float = 2.0
    biods: int = 7
    seed: int = 0
    payload: str = PAYLOAD_FLYWEIGHT

    def __post_init__(self) -> None:
        if self.net not in NETWORKS:
            raise ValueError(
                f"unknown network {self.net!r}; expected one of {', '.join(sorted(NETWORKS))}"
            )
        if self.file_mb <= 0 or self.biods < 0:
            raise ValueError(f"need file_mb > 0 and biods >= 0, got {self.file_mb}, {self.biods}")
        self.payload = coerce_payload_mode(self.payload)


@register("bench", BenchParams)
def run_bench(params: BenchParams, progress=None) -> dict:
    """The full grid: every write path × Presto off/on, one seed.

    Returns a JSON-ready document (stable key order, rounded floats) that
    is byte-identical across same-seed reruns, except ``sim_ops_per_sec``
    (wall-clock-derived by construction).  The grid defaults to flyweight
    payloads — the throughput baseline needs no byte fidelity, and every
    simulated number is identical either way; pass ``payload="full"`` to
    force real bytes.
    """
    cells = []
    for write_path in WritePath:
        for presto in (False, True):
            config = TestbedConfig(
                netspec=NETWORKS[params.net],
                write_path=write_path,
                nbiods=params.biods,
                presto_bytes=PRESTO_BYTES if presto else None,
                seed=params.seed,
            )
            cell = run_bench_cell(config, params.file_mb, payload=params.payload)
            cells.append(cell)
            if progress is not None:
                progress(cell)
    return {
        "schema": BENCH_SCHEMA,
        "net": params.net,
        "file_mb": params.file_mb,
        "biods": params.biods,
        "seed": params.seed,
        "payload": params.payload,
        "cells": cells,
    }


def bench_to_json(report: dict) -> str:
    """Canonical serialized form (what lands in ``BENCH_<n>.json``)."""
    return json.dumps(report, indent=2, sort_keys=True)

