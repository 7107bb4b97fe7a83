#!/usr/bin/env python3
"""Compare a fresh bench run against the committed baseline.

Usage::

    python scripts/compare_bench.py BASELINE.json FRESH.json \\
        [--max-ratio 2.0] [--min-ops-ratio 0.5] [--max-rpc-ratio 1.5]

Four gates, one per direction the baseline can rot:

* **Simulated quality** — per (write_path, presto) cell, fail (exit 1)
  if the fresh p99 write latency exceeds ``max_ratio`` times the
  baseline's.  The simulation is deterministic, so at equal code the
  ratio is exactly 1.0; anything approaching the threshold is a real
  code-path change.
* **Simulator throughput** — fail if the fresh ``sim_ops_per_sec``
  (NFS ops completed per wall-clock second) drops below
  ``min_ops_ratio`` times the baseline's.  This is the hot-path guard:
  an accidental per-byte copy or a chatty inner loop halves it long
  before anyone notices interactively.  Baselines predating the field
  are skipped with a note (the gate arms itself on the next refresh).
* **RPC chattiness** — fail if the fresh ``rpcs_per_op`` (completed RPC
  calls per user-level operation, repro.lease) exceeds ``max_rpc_ratio``
  times the baseline's: a client that quietly starts double-calling per
  syscall erases exactly what the cache layer bought.  Baselines
  predating the field are skipped with a note.
* **Simulator work** — fail if the fresh ``events_per_op`` (events the
  kernel scheduled per server op) rises above the baseline's at all.
  The count is deterministic, so any rise is a code change that made
  the simulator do more work for the same simulated run.  Baselines
  predating the field are skipped with a note.

Cells present in only one file fail too: a silently dropped cell would
hide exactly the regression being guarded.

The per-cell *schema* is compared as well, asymmetrically: fields the
fresh run **adds** are tolerated with a note (new instrumentation must
not force a baseline refresh just to land), but fields the fresh run
**drops** relative to the baseline fail — a metric that vanishes is a
gate that silently stopped gating.
"""

from __future__ import annotations

import argparse
import json
import sys


def cells_by_key(report: dict) -> dict:
    return {(cell["write_path"], cell["presto"]): cell for cell in report["cells"]}


def field_paths(cell: dict, prefix: str = "") -> set:
    """Dotted key paths of a cell, nested dicts included."""
    paths = set()
    for key, value in cell.items():
        path = f"{prefix}{key}"
        paths.add(path)
        if isinstance(value, dict):
            paths |= field_paths(value, path + ".")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_<n>.json")
    parser.add_argument("fresh", help="freshly generated bench JSON")
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=2.0,
        help="fail if fresh p99 > max-ratio x baseline p99 (default: 2.0)",
    )
    parser.add_argument(
        "--min-ops-ratio",
        type=float,
        default=0.5,
        help="fail if fresh sim_ops_per_sec < min-ops-ratio x baseline "
        "(default: 0.5; skipped when the baseline lacks the field)",
    )
    parser.add_argument(
        "--max-rpc-ratio",
        type=float,
        default=1.5,
        help="fail if fresh rpcs_per_op > max-rpc-ratio x baseline "
        "(default: 1.5; skipped when the baseline lacks the field)",
    )
    args = parser.parse_args(argv)
    with open(args.baseline) as handle:
        baseline = cells_by_key(json.load(handle))
    with open(args.fresh) as handle:
        fresh = cells_by_key(json.load(handle))
    failures = []
    for key in sorted(set(baseline) | set(fresh), key=str):
        write_path, presto = key
        label = f"{write_path}/{'presto' if presto else 'plain'}"
        if key not in baseline:
            failures.append(f"{label}: cell missing from baseline")
            continue
        if key not in fresh:
            failures.append(f"{label}: cell missing from fresh run")
            continue
        # Schema drift: added fields are tolerated (noted), removed
        # fields fail — a vanished metric is a gate silently disarmed.
        base_fields = field_paths(baseline[key])
        fresh_fields = field_paths(fresh[key])
        for name in sorted(fresh_fields - base_fields):
            print(f"  {label:<18} note: fresh adds field {name!r} (tolerated)")
        for name in sorted(base_fields - fresh_fields):
            failures.append(
                f"{label}: field {name!r} present in baseline but missing "
                f"from fresh run"
            )
        if "write_latency_ms.p99" not in fresh_fields:
            continue  # already failed above; nothing left to gate on
        base_p99 = baseline[key]["write_latency_ms"]["p99"]
        fresh_p99 = fresh[key]["write_latency_ms"]["p99"]
        ratio = fresh_p99 / base_p99 if base_p99 else float("inf")
        marker = "FAIL" if ratio > args.max_ratio else "ok"
        print(
            f"  {label:<18} p99 {base_p99:>9.3f} -> {fresh_p99:>9.3f} ms "
            f"(x{ratio:.3f}) {marker}"
        )
        if ratio > args.max_ratio:
            failures.append(
                f"{label}: p99 write latency regressed x{ratio:.3f} "
                f"(limit x{args.max_ratio})"
            )
        base_rpc = baseline[key].get("rpcs_per_op")
        fresh_rpc = fresh[key].get("rpcs_per_op")
        if base_rpc is None:
            print(f"  {label:<18} rpc/op gate skipped (baseline lacks rpcs_per_op)")
        elif fresh_rpc is None:
            failures.append(f"{label}: fresh run lacks rpcs_per_op")
        else:
            rpc_ratio = fresh_rpc / base_rpc if base_rpc else float("inf")
            marker = "FAIL" if rpc_ratio > args.max_rpc_ratio else "ok"
            print(
                f"  {label:<18} rpc/op {base_rpc:>8.4f} -> {fresh_rpc:>8.4f} "
                f"(x{rpc_ratio:.3f}) {marker}"
            )
            if rpc_ratio > args.max_rpc_ratio:
                failures.append(
                    f"{label}: rpcs_per_op regressed x{rpc_ratio:.3f} "
                    f"(limit x{args.max_rpc_ratio})"
                )
        base_events = baseline[key].get("events_per_op")
        fresh_events = fresh[key].get("events_per_op")
        if base_events is None:
            print(f"  {label:<18} events/op gate skipped (baseline lacks events_per_op)")
        elif fresh_events is None:
            failures.append(f"{label}: fresh run lacks events_per_op")
        else:
            marker = "FAIL" if fresh_events > base_events else "ok"
            print(
                f"  {label:<18} events/op {base_events:>8.4f} -> "
                f"{fresh_events:>8.4f} {marker}"
            )
            if fresh_events > base_events:
                failures.append(
                    f"{label}: events_per_op rose from {base_events} to "
                    f"{fresh_events}"
                )
        base_ops = baseline[key].get("sim_ops_per_sec")
        fresh_ops = fresh[key].get("sim_ops_per_sec")
        if not base_ops:
            print(f"  {label:<18} ops/s gate skipped (baseline lacks sim_ops_per_sec)")
            continue
        if not fresh_ops:
            failures.append(f"{label}: fresh run lacks sim_ops_per_sec")
            continue
        ops_ratio = fresh_ops / base_ops
        marker = "FAIL" if ops_ratio < args.min_ops_ratio else "ok"
        print(
            f"  {label:<18} ops/s {base_ops:>9.1f} -> {fresh_ops:>9.1f} "
            f"(x{ops_ratio:.3f}) {marker}"
        )
        if ops_ratio < args.min_ops_ratio:
            failures.append(
                f"{label}: simulator throughput regressed to x{ops_ratio:.3f} "
                f"of baseline (floor x{args.min_ops_ratio})"
            )
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        "bench within budget: no p99 write-latency regression, no RPC "
        "chattiness regression, no rise in events per op, simulator "
        "throughput above floor"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
