"""Command-line interface for running the paper's experiments.

Installed as the ``repro`` console script (also usable as
``python -m repro.cli``)::

    repro table 3                 # regenerate Table 3 (paper layout + ratios)
    repro table 1 --file-mb 2     # quick run at reduced scale
    repro copy --net fddi --biods 7 --write-path gather
    repro copy --net ethernet --presto --stripes 3
    repro copy --write-path gather --json   # machine-readable + span phases
    repro trace                   # Figure 1 timelines
    repro laddis --presto         # Figure 2/3 style curve
    repro claims                  # one-screen summary of headline results
    repro copy --loss-rate 0.01   # file copy over a lossy wire
    repro chaos --plans 5 --json  # seeded fault-injection campaign
    repro cluster --servers 4 --clients 8 --json   # sharded fleet run
    repro cluster --servers 1 2 4 --clients 8      # scaling sweep
    repro bench --out BENCH_1.json                 # perf baseline grid
    repro overload --json         # goodput-vs-load sweep past saturation
    repro overload --no-adapt     # the collapse curve alone
    repro replica --json          # K=0/1/2 replication cost + promote storm
    repro cache --json            # lease-cache TTL x sharing sweep + chaos probes

Each subcommand is one :class:`Command` bound to an experiment kind
(:mod:`repro.experiments.runner`): its flags, how the parsed args become
the kind's params, and how the result prints.  :func:`main` is the one
driver that runs every command through :func:`repro.experiments.run`.

Exit status: 0 when every contract and verdict holds, 1 when one fails,
2 for a bad parameter, and 141 (128 + SIGPIPE) when the reader closes
stdout early, as in ``repro scrub --json | head``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.policy import GatherPolicy
from repro.experiments import PAPER, TABLES, ExperimentSpec, kind, run, table_to_dict
from repro.experiments.bench import bench_to_json
from repro.experiments.testbed import TestbedConfig
from repro.metrics import format_comparison
from repro.net import ETHERNET, FDDI, NETWORKS
from repro.payload import PAYLOAD_FLYWEIGHT, PAYLOAD_FULL
from repro.server.config import WritePath

__all__ = ["main", "build_parser", "COMMANDS"]

WRITE_PATHS = [member.value for member in WritePath]
PRESTO_ARMS = {"off": (False,), "on": (True,), "both": (False, True)}
#: What a shell reports for a writer killed by SIGPIPE (128 + 13).
EXIT_BROKEN_PIPE = 141

Flag = Tuple[Tuple[str, ...], dict]


def _flag(*names: str, **options) -> Flag:
    return names, options


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each flag's default (read from the params) to its help."""

    def _get_help_string(self, action):
        if action.default is None or action.default is False:
            return action.help
        return super()._get_help_string(action)


# -- flags shared across commands, declared once ------------------------------

JSON = _flag("--json", action="store_true", help="emit the result as JSON")
PRESTO = _flag("--presto", action="store_true", help="Prestoserve NVRAM accelerator")
OUT = _flag("--out", metavar="PATH", help="also write the canonical JSON report to this file")


def _seed(default: int) -> Flag:
    return _flag("--seed", type=int, default=default, help="seed")


def _net(default: str) -> Flag:
    return _flag("--net", choices=sorted(NETWORKS), default=default, help="network")


def _payload(default: str) -> Flag:
    return _flag(
        "--payload",
        choices=[PAYLOAD_FULL, PAYLOAD_FLYWEIGHT],
        default=default,
        help="payload fidelity: full bytes (oracles byte-compare) or flyweight "
        "extents (durability-only)",
    )


def _presto_arms(default: Sequence[bool]) -> Flag:
    name = next(arm for arm, modes in PRESTO_ARMS.items() if modes == tuple(default))
    return _flag("--presto", choices=list(PRESTO_ARMS), default=name, help="NVRAM arms to run")


def _write_paths(default: Sequence[str]) -> Flag:
    return _flag(
        "--write-paths",
        nargs="+",
        choices=WRITE_PATHS,
        default=[str(path) for path in default],
        help="write paths to run",
    )


def _write_path_flags(default: WritePath, siva: bool = True) -> List[Flag]:
    flags = [
        _flag("--write-path", choices=WRITE_PATHS, default=str(default), help="rfs_write path"),
        # The old boolean aliases are *removed*.  They stay registered so
        # the error is ours — a pointer at --write-path — instead of
        # argparse's "unrecognized".
        _flag("--gather", action="store_true", help=argparse.SUPPRESS),
    ]
    if siva:
        flags.append(_flag("--siva", action="store_true", help=argparse.SUPPRESS))
    return flags


def _write_path(args) -> WritePath:
    for alias in ("gather", "siva"):
        if getattr(args, alias, False):
            raise ValueError(f"--{alias} was removed; use --write-path {alias} instead")
    return WritePath.coerce(args.write_path)


def _net_fault_flags(defaults) -> List[Flag]:
    return [
        _flag("--loss-rate", type=float, default=defaults.loss_rate,
              help="per-frame network loss probability in [0, 1)"),
        _flag("--net-seed", type=int, default=defaults.net_seed,
              help="seed for the network RNG (default: the testbed seed)"),
    ]


def _testbed(args, base: TestbedConfig, tracing: bool = False) -> TestbedConfig:
    """The TestbedConfig the copy/sweep flags describe."""
    interval_ms = getattr(args, "interval_ms", None)
    return replace(
        base,
        netspec=NETWORKS[args.net],
        write_path=_write_path(args),
        nbiods=args.biods,
        presto_bytes=(1 << 20) if getattr(args, "presto", False) else None,
        stripes=getattr(args, "stripes", base.stripes),
        nfsds=getattr(args, "nfsds", base.nfsds),
        gather_policy=(
            base.gather_policy
            if interval_ms is None
            else GatherPolicy(interval=interval_ms / 1000.0)
        ),
        tracing=tracing,
        loss_rate=args.loss_rate,
        net_seed=args.net_seed,
    )


def _violations(clean: bool, violations: Sequence, held: str, indent: str = "") -> Iterable[str]:
    if clean:
        yield f"{indent}{held}"
        return
    yield f"{indent}{len(violations)} VIOLATIONS:"
    for violation in violations:
        yield f"{indent}  {violation}"


# -- the commands --------------------------------------------------------------


class Command:
    """One subcommand bound to one experiment kind.

    Subclasses declare the flags (defaults read from the kind's default
    params ``d``), how the parsed args become params, and how the result
    prints; :func:`main` does the rest, the same way for every command.
    """

    name: str
    kind: str
    help: str
    description: Optional[str] = None
    #: Formats one progress item as a line (None: the kind reports none).
    progress = None

    @property
    def params(self) -> type:
        return kind(self.kind).params

    def flags(self, d) -> List[Flag]:
        return []

    def build(self, args, d):
        """The params the args describe; raises ValueError if invalid."""
        return d

    def header(self, params) -> Optional[str]:
        return None

    def execute(self, params, progress):
        return run(ExperimentSpec(self.kind, params, progress))

    def render(self, result, params) -> Iterable[str]:
        return ()

    def to_json(self, result, params) -> str:
        return result.to_json()

    def ok(self, result) -> bool:
        return True


class TableCommand(Command):
    name = kind = "table"
    help = "regenerate one of Tables 1-6"

    def flags(self, d):
        return [
            _flag("number", type=int, choices=sorted(TABLES)),
            _flag("--file-mb", type=float, default=d.file_mb, help="copy size (paper: 10)"),
            JSON,
        ]

    def build(self, args, d):
        return self.params(table=args.number, file_mb=args.file_mb)

    def render(self, result, params):
        yield result.render()
        yield ""
        paper = PAPER[params.table]
        for variant, label in (("std", "Without gathering"), ("gather", "With gathering")):
            yield format_comparison(
                f"{label} — client write speed (measured vs paper)",
                result.spec.biods,
                result.series(variant, "speed"),
                paper[variant]["speed"],
            )

    def to_json(self, result, params):
        return json.dumps(table_to_dict(result), indent=2, sort_keys=True)


class CopyCommand(Command):
    name = kind = "copy"
    help = "run one file-copy cell"
    description = (
        "Run one seeded sequential file copy.  With --json the run is traced "
        "and the report includes per-phase latency percentiles."
    )

    def flags(self, d):
        base = d.testbed
        return [
            _net(base.netspec.name),
            _flag("--biods", type=int, default=base.nbiods),
            *_write_path_flags(base.write_path),
            PRESTO,
            _flag("--stripes", type=int, default=base.stripes),
            _flag("--nfsds", type=int, default=base.nfsds),
            _flag("--file-mb", type=float, default=d.file_mb),
            _flag("--interval-ms", type=float, help="procrastination override"),
            *_net_fault_flags(base),
            JSON,
        ]

    def build(self, args, d):
        testbed = _testbed(args, d.testbed, tracing=args.json)
        return self.params(testbed=testbed, file_mb=args.file_mb)

    def render(self, metrics, params):
        yield (
            f"configuration: {metrics.label}, {params.testbed.nbiods} biods, "
            f"{params.file_mb} MB copy"
        )
        for name, value in metrics.row().items():
            yield f"  {name:<32} {value}"
        if metrics.mean_batch_size is not None:
            yield f"  {'mean gathered batch size':<32} {metrics.mean_batch_size:.1f}"
            yield f"  {'gather success rate':<32} {metrics.gather_success_rate:.0%}"
            yield f"  {'procrastinations':<32} {metrics.procrastinations:.0f}"

    def to_json(self, metrics, params):
        return json.dumps(metrics.to_json(), indent=2, sort_keys=True)


class TraceCommand(Command):
    name = kind = "trace"
    help = "print the Figure 1 timelines"

    def render(self, sides, params):
        for name in ("standard", "gathering"):
            side = sides[name]
            yield f"=== {name} server — window from {side['window_start_ms']:.1f} ms ==="
            yield side["rendered"]
            yield (
                f"--> {side['writes']} writes, {side['disk_transactions']} disk "
                f"transactions, {side['replies']} replies\n"
            )


class LaddisCommand(Command):
    name, kind = "laddis", "curve"
    help = "run a Figure 2/3 LADDIS curve"

    def flags(self, d):
        return [
            PRESTO,
            _flag("--loads", type=float, nargs="+", default=list(d.loads)),
            _flag("--duration", type=float, default=d.duration),
            *_net_fault_flags(d),
        ]

    def build(self, args, d):
        return self.params(
            presto=args.presto,
            loads=args.loads,
            duration=args.duration,
            loss_rate=args.loss_rate,
            net_seed=args.net_seed,
        )

    def execute(self, params, progress):
        return {
            name: run(ExperimentSpec(self.kind, replace(params, write_path=path)))
            for name, path in (("standard", WritePath.STANDARD), ("gathering", WritePath.GATHER))
        }

    def render(self, curves, params):
        yield f"{'offered':>8} {'std ops/s':>10} {'std ms':>8} {'gat ops/s':>10} {'gat ms':>8}"
        for s_point, g_point in zip(curves["standard"].points, curves["gathering"].points):
            yield (
                f"{s_point.offered:8.0f} {s_point.achieved:10.0f} {s_point.latency_ms:8.1f}"
                f" {g_point.achieved:10.0f} {g_point.latency_ms:8.1f}"
            )
        std_cap = curves["standard"].capacity()
        gat_cap = curves["gathering"].capacity()
        delta = 100 * (gat_cap / std_cap - 1) if std_cap else float("nan")
        yield f"capacity: standard {std_cap:.0f}, gathering {gat_cap:.0f} ({delta:+.0f}%)"


class ClaimsCommand(Command):
    name, kind = "claims", "copy"
    help = "one-screen summary of the headline results"
    ROWS = [
        ("FDDI @7 biods, standard", FDDI, "standard", 7, None),
        ("FDDI @7 biods, gathering", FDDI, "gather", 7, None),
        ("Ethernet @0 biods, standard", ETHERNET, "standard", 0, None),
        ("Ethernet @0 biods, gathering", ETHERNET, "gather", 0, None),
        ("Eth+Presto @7 biods, standard", ETHERNET, "standard", 7, 1 << 20),
        ("Eth+Presto @7 biods, gathering", ETHERNET, "gather", 7, 1 << 20),
    ]

    def header(self, params):
        return "Headline results (2 MB copies for speed; benches run full scale):"

    def execute(self, params, progress):
        rows = []
        for label, netspec, write_path, nbiods, presto_bytes in self.ROWS:
            testbed = TestbedConfig(
                netspec=netspec, write_path=write_path, nbiods=nbiods, presto_bytes=presto_bytes
            )
            copy = replace(params, testbed=testbed, file_mb=2)
            rows.append((label, run(ExperimentSpec(self.kind, copy))))
        return rows

    def render(self, rows, params):
        for label, metrics in rows:
            yield (
                f"  {label:<32} {metrics.client_kb_per_sec:7.0f} KB/s  "
                f"cpu {metrics.server_cpu_pct:4.1f}%  disk {metrics.disk_trans_per_sec:5.1f} t/s"
            )


class ChaosCommand(Command):
    name = kind = "chaos"
    help = "run a seeded fault-injection campaign (repro.faults)"
    description = (
        "Generate and run randomized-but-reproducible fault plans (crashes, "
        "packet loss, partitions, duplication, reordering, slow disks, "
        "socket-buffer shrink) against every selected write path with Presto "
        "on and off, asserting the crash contract: every client-acked write "
        "is durable with correct content, and fsck finds no structural "
        "damage.  Exits 1 on any violation."
    )

    def flags(self, d):
        return [
            _seed(d.seed),
            _flag("--plans", type=int, default=d.plans, help="plans per write path x presto arm"),
            _write_paths(d.write_paths),
            _presto_arms(d.presto_modes),
            _flag("--file-kb", type=int, default=d.file_kb, help="per-file workload size"),
            _payload(d.payload),
            JSON,
        ]

    def build(self, args, d):
        return self.params(
            seed=args.seed,
            plans=args.plans,
            write_paths=args.write_paths,
            presto_modes=PRESTO_ARMS[args.presto],
            file_kb=args.file_kb,
            payload=args.payload,
        )

    def header(self, p):
        combos = len(p.write_paths) * len(p.presto_modes)
        return (
            f"chaos campaign: seed={p.seed}, {p.plans} plans x "
            f"{combos} combos, {p.file_kb} KB files"
        )

    def progress(self, result):
        presto = "presto" if result.presto else "plain "
        return (
            f"  {result.plan.name:<24} {presto} "
            f"acked={result.acked_writes:<4} crashes={result.crashes} "
            f"retrans={result.retransmissions:<3} {'ok' if result.clean else 'VIOLATION'}"
        )

    def render(self, report, params):
        summary = report.to_dict()
        yield (
            f"ran {summary['plans_run']} plans: "
            f"{summary['total_acked_writes']} acked writes, "
            f"{summary['total_crashes']} crashes, "
            f"{summary['total_retransmissions']} retransmissions"
        )
        yield from _violations(
            report.clean, report.violations, "crash contract held: zero violations"
        )

    def ok(self, report):
        return report.clean


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


class SweepCommand(Command):
    name = kind = "sweep"
    help = "sweep one parameter of a file-copy"

    def flags(self, d):
        base = d.testbed
        return [
            _flag("field", help="TestbedConfig field, or interval_ms / presto_mb"),
            _flag("values", nargs="+", help="values to sweep"),
            _net(base.netspec.name),
            *_write_path_flags(base.write_path, siva=False),
            _flag("--biods", type=int, default=base.nbiods),
            _flag("--file-mb", type=float, default=d.file_mb),
            *_net_fault_flags(base),
            JSON,
        ]

    def build(self, args, d):
        return self.params(
            testbed=_testbed(args, d.testbed),
            sweep_field=args.field,
            values=[_parse_value(value) for value in args.values],
            file_mb=args.file_mb,
        )

    def render(self, results, params):
        yield f"{params.sweep_field:>14} {'KB/s':>8} {'cpu %':>7} {'disk t/s':>9} {'batch':>7}"
        for value, metrics in zip(params.values, results):
            batch = f"{metrics.mean_batch_size:6.1f}" if metrics.mean_batch_size else "     -"
            yield (
                f"{str(value):>14} {metrics.client_kb_per_sec:>8.0f} "
                f"{metrics.server_cpu_pct:>7.1f} {metrics.disk_trans_per_sec:>9.1f} {batch}"
            )

    def to_json(self, results, params):
        payload = {
            "field": params.sweep_field,
            "values": list(params.values),
            "results": [metrics.to_json() for metrics in results],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


class ClusterCommand(Command):
    name = kind = "cluster"
    help = "run the sharded server fleet (repro.cluster)"
    description = (
        "Stand up N independent NFS servers behind a consistent-hash shard "
        "map and a client-side mount router, run a seeded multi-client write "
        "workload, and verify the cluster-wide crash contract.  Multiple "
        "--servers or --clients values run a scaling sweep with a per-cell "
        "efficiency table.  Exits 1 on any oracle violation."
    )

    def flags(self, d):
        base = d.cluster
        sweep = "; more than one value runs a sweep"
        return [
            _flag("--servers", type=int, nargs="+", default=[base.servers],
                  help="fleet size(s)" + sweep),
            _flag("--clients", type=int, nargs="+", default=[d.clients],
                  help="client count(s)" + sweep),
            _flag("--vnodes", type=int, default=base.vnodes, help="virtual nodes per server"),
            _flag("--racks", type=int, default=base.racks, help="network segments"),
            _net(base.netspec.name),
            *_write_path_flags(base.write_path),
            PRESTO,
            _flag("--biods", type=int, default=base.nbiods),
            _flag("--nfsds", type=int, default=base.nfsds),
            _flag("--file-kb", type=int, default=d.file_kb, help="size of each written file"),
            _flag("--files", type=int, default=d.files_per_client, help="files written per client"),
            _seed(base.seed),
            _flag("--crash-shard", type=int,
                  help="crash this shard index mid-run (single-cell runs only)"),
            _flag("--crash-at", type=float, default=0.05, help="crash time in seconds"),
            _flag("--outage", type=float, default=0.0,
                  help="seconds the crashed shard stays partitioned"),
            _flag("--redirect", action="store_true",
                  help="drop the crashed shard from the mount map during the outage"),
            JSON,
        ]

    def build(self, args, d):
        from repro.cluster import ShardCrash

        cluster = replace(
            d.cluster,
            servers=args.servers[0],
            vnodes=args.vnodes,
            racks=args.racks,
            netspec=NETWORKS[args.net],
            write_path=_write_path(args),
            nbiods=args.biods,
            nfsds=args.nfsds,
            presto_bytes=(1 << 20) if args.presto else None,
            seed=args.seed,
        )
        crashes = None
        if args.crash_shard is not None:
            crash = ShardCrash(
                at=args.crash_at, shard=args.crash_shard, outage=args.outage, redirect=args.redirect
            )
            crashes = [crash]
        sweep = len(args.servers) > 1 or len(args.clients) > 1
        return self.params(
            cluster=cluster,
            clients=args.clients[0],
            files_per_client=args.files,
            file_kb=args.file_kb,
            crashes=crashes,
            server_counts=args.servers if sweep else None,
            client_counts=args.clients if sweep else None,
        )

    def progress(self, row):
        return (
            f"  ran {row.servers} servers x {row.clients} clients: "
            f"{row.aggregate_kb_per_sec:.0f} KB/s"
        )

    def render(self, result, params):
        if params.sweep:
            yield from self._render_sweep(result)
            return
        yield (
            f"cluster: {result.servers} servers x {result.clients} clients, "
            f"{result.write_path} path, seed {result.seed}"
        )
        yield (
            f"  aggregate {result.aggregate_kb_per_sec:.0f} KB/s over "
            f"{result.total_bytes // 1024} KB in {result.elapsed * 1000:.1f} ms"
        )
        ratio = result.mean_gather_ratio()
        if ratio is not None:
            yield f"  mean gather ratio {ratio:.3f}"
        yield f"{'shard':<12} {'files':>5} {'writes':>7} {'disk KB':>8} {'cpu %':>6} {'gather':>7}"
        for shard in result.per_shard:
            host = shard["host"]
            gather = f"{shard['gather_ratio']:7.3f}" if "gather_ratio" in shard else "      -"
            yield (
                f"{host:<12} {result.placement.get(host, 0):>5} "
                f"{shard['writes_completed']:>7} {shard['disk_bytes'] // 1024:>8} "
                f"{shard['cpu_pct']:>6.1f} {gather}"
            )
        for fault in result.faults:
            window = f"{fault['start'] * 1000:.1f}-{fault['end'] * 1000:.1f} ms"
            redirected = " (redirected)" if fault["redirected"] else ""
            yield f"  fault: {fault['host']} crashed at {window}{redirected}"
        yield (
            f"  oracle: {result.acked_writes} acked writes, {result.oracle_checks} checks, "
            f"{result.crashes} crashes, {result.retransmissions} retransmissions"
        )
        yield from _violations(
            result.clean, result.violations, "crash contract held: zero violations", "  "
        )

    @staticmethod
    def _render_sweep(sweep):
        yield (
            f"{'servers':>8} {'clients':>8} {'KB/s':>9} {'gather':>7} "
            f"{'efficiency':>10} {'clean':>6}"
        )
        for row in sweep.table():
            ratio = row["mean_gather_ratio"]
            gather = f"{ratio:7.3f}" if ratio is not None else "      -"
            efficiency = row.get("scaling_efficiency")
            efficiency = f"{efficiency:10.3f}" if efficiency is not None else "         -"
            yield (
                f"{row['servers']:>8} {row['clients']:>8} "
                f"{row['aggregate_kb_per_sec']:>9.0f} {gather} {efficiency} "
                f"{'ok' if row['clean'] else 'BAD':>6}"
            )

    def ok(self, result):
        return result.clean


class OverloadCommand(Command):
    name = kind = "overload"
    help = "goodput-vs-load sweep past saturation (repro.overload)"
    description = (
        "Drive a client fleet past server saturation through a mid-run "
        "retransmit storm, comparing the paper-era static 1.1 s retransmission "
        "schedule against the adaptive stack (Van Jacobson RTO with Karn's "
        "rule and seeded jitter, an AIMD write window, and server admission "
        "control with dup-cache-aware shedding).  Each combo also crashes the "
        "server mid-storm and asserts that every client-acked write survived.  "
        "Exits 1 on any crash-contract violation, a non-monotone adaptive "
        "curve, adaptive goodput below static at the top load, or curves "
        "with zero goodput at every load (nothing to score)."
    )

    def flags(self, d):
        loads_kbs = " ".join(f"{rate / 1024:.1f}" for rate in d.loads)
        return [
            _seed(d.seed),
            _write_paths(d.write_paths),
            _presto_arms(d.presto_modes),
            _flag("--loads", type=float, nargs="+", metavar="KBS",
                  help=f"per-client offered rates in KB/s, ascending (default: {loads_kbs})"),
            _flag("--clients", type=int, default=d.clients, help="fleet size"),
            _flag("--duration", type=float, default=d.duration,
                  help="measured window per point, seconds"),
            _flag("--no-adapt", action="store_true",
                  help="run only the static (no-adaptation) curve"),
            _flag("--adapt-only", action="store_true", help="run only the adaptive curve"),
            JSON,
        ]

    def build(self, args, d):
        if args.no_adapt and args.adapt_only:
            raise ValueError("--no-adapt and --adapt-only are mutually exclusive")
        modes = ("static",) if args.no_adapt else ("adaptive",) if args.adapt_only else d.modes
        loads = d.loads if args.loads is None else tuple(int(round(kb * 1024)) for kb in args.loads)
        return self.params(
            seed=args.seed,
            write_paths=tuple(args.write_paths),
            presto_modes=PRESTO_ARMS[args.presto],
            modes=modes,
            clients=args.clients,
            duration=args.duration,
            loads=loads,
        )

    def header(self, config):
        loads_kbs = ", ".join(f"{rate / 1024:.1f}" for rate in config.loads)
        return (
            f"overload sweep: seed={config.seed}, {config.clients} clients, "
            f"loads [{loads_kbs}] KB/s each, modes {'+'.join(config.modes)}"
        )

    def progress(self, line):
        return f"  {line}"

    def render(self, report, config):
        for combo in report.combos:
            tag = f"{combo['write_path']}/presto={'on' if combo['presto'] else 'off'}"
            for mode, curve in combo["curves"].items():
                if curve.get("unscored"):
                    shape = "UNSCORED"
                elif curve["collapse"]:
                    shape = "COLLAPSE"
                else:
                    shape = "plateau" if curve["monotone_nondecreasing"] else "noisy"
                yield f"  {tag:<24} {mode:<8} top {curve['goodput_kbs'][-1]:7.1f} KB/s  {shape}"
            verdict = combo.get("verdict")
            if verdict is not None and verdict.get("unscored"):
                yield f"  {tag:<24} adaptation UNSCORED: zero goodput at every load"
            elif verdict is not None:
                outcome = "holds" if verdict["adaptation_wins"] else "FAILS"
                yield (
                    f"  {tag:<24} adaptation {outcome}: "
                    f"{verdict['adaptive_top_goodput_kbs']:.1f} vs "
                    f"{verdict['static_top_goodput_kbs']:.1f} KB/s at top load"
                )
        yield from _violations(
            report.clean, report.violations, "crash contract held: zero violations"
        )

    def ok(self, report):
        return report.clean and report.adaptation_holds


class BenchCommand(Command):
    name = kind = "bench"
    help = "run the perf-baseline grid and emit BENCH_<n>.json"
    description = (
        "One seeded file copy per cell of every write path x Presto off/on, "
        "reporting throughput, p50/p99 write latency, and disk writes per "
        "MB.  CI uploads the JSON as an artifact so perf-affecting PRs have a "
        "baseline to diff against."
    )

    def flags(self, d):
        return [
            _net(d.net),
            _flag("--file-mb", type=float, default=d.file_mb, help="copy size"),
            _flag("--biods", type=int, default=d.biods),
            _seed(d.seed),
            OUT,
            _payload(d.payload),
            JSON,
        ]

    def build(self, args, d):
        return self.params(
            net=args.net,
            file_mb=args.file_mb,
            biods=args.biods,
            seed=args.seed,
            payload=args.payload,
        )

    def header(self, p):
        return f"bench: {p.net}, {p.file_mb} MB copy, {p.biods} biods, seed {p.seed}"

    def progress(self, cell):
        presto = "presto" if cell["presto"] else "plain "
        latency = cell["write_latency_ms"]
        return (
            f"  {cell['write_path']:<8} {presto} {cell['client_kb_per_sec']:>8.1f} KB/s  "
            f"p50 {latency['p50']:>7.2f} ms  p99 {latency['p99']:>7.2f} ms  "
            f"{cell['disk_writes_per_mb']:>6.1f} dw/MB"
        )

    def to_json(self, report, params):
        return bench_to_json(report)


class ReplicaCommand(Command):
    name = kind = "replica"
    help = "replicated shards under a crash-and-promote storm (repro.replica)"
    description = (
        "Run the sharded write workload once per replication factor while a "
        "seeded storm kills acting primaries mid-run.  With K>0 each kill "
        "promotes the shard's freshest backup; the group oracle asserts that "
        "no acked write is ever missing from the surviving replica set, and a "
        "post-quiesce pass byte-compares the survivors.  The K=0 arm is the "
        "unreplicated baseline, so the report prices the guarantee: p99 write "
        "latency and throughput vs K=0.  Exits 1 on any violation."
    )

    def flags(self, d):
        base = d.cluster
        return [
            _flag("--servers", type=int, default=base.servers, help="shard count"),
            _flag("--clients", type=int, default=d.clients, help="client count"),
            _flag("--replicas", type=int, nargs="+", default=list(d.replica_counts), metavar="K",
                  help="backups per shard; each value is one arm"),
            _flag("--quorum", type=int, default=base.quorum,
                  help="backup acks required before a write is acked"),
            _flag("--files", type=int, default=d.files_per_client, help="files written per client"),
            _flag("--file-kb", type=int, default=d.file_kb, help="size of each written file"),
            _flag("--crashes", type=int, default=d.storm_crashes,
                  help="primary kills in the storm, round-robin over shards"),
            _net(base.netspec.name),
            _seed(base.seed),
            _payload(d.payload),
            JSON,
        ]

    def build(self, args, d):
        cluster = replace(
            d.cluster,
            servers=args.servers,
            netspec=NETWORKS[args.net],
            quorum=args.quorum,
            seed=args.seed,
        )
        return self.params(
            cluster=cluster,
            replica_counts=tuple(args.replicas),
            clients=args.clients,
            files_per_client=args.files,
            file_kb=args.file_kb,
            storm_crashes=args.crashes,
            payload=args.payload,
        )

    def header(self, p):
        return (
            f"replica: {p.cluster.servers} shards x {p.clients} clients, "
            f"{p.storm_crashes}-crash storm, seed {p.cluster.seed}"
        )

    def progress(self, arm):
        return (
            f"  K={arm.replicas} quorum={arm.quorum}: "
            f"{arm.aggregate_kb_per_sec:>8.0f} KB/s  "
            f"p50 {arm.write_latency_ms['p50']:>7.2f} ms  "
            f"p99 {arm.write_latency_ms['p99']:>7.2f} ms  "
            f"{arm.crashes} crashes, {arm.promotions} promotions, "
            f"{'clean' if arm.clean else 'VIOLATIONS'}"
        )

    def render(self, result, params):
        for row in result.comparison():
            yield (
                f"  K={row['replicas']} vs K=0: "
                f"p99 write latency x{row['p99_write_latency_vs_k0']}, "
                f"throughput x{row['throughput_vs_k0']}"
            )
        for arm in result.arms:
            for violation in arm.violations:
                yield f"  K={arm.replicas} VIOLATION: {violation}"
        if result.clean:
            yield "  zero-acked-write-loss guarantee held across every arm"

    def ok(self, result):
        return result.clean


class CacheCommand(Command):
    name = kind = "cache"
    help = "lease-cache RPC-reduction sweep + staleness chaos probes (repro.lease)"
    description = (
        "Measure what client-side caching under server-granted leases buys: "
        "RPCs per user operation on a shared-read/private-write workload, "
        "swept over lease TTL x sharing ratio with leases on vs off, plus "
        "compact before/after profiles of the copy, LADDIS, cluster, and "
        "overload workloads.  Then probe the staleness contract under chaos "
        "(server crash mid-recall, a severed callback path, a holder "
        "partitioned past its TTL) with an omniscient oracle watching every "
        "served cache hit.  Exits 1 on any staleness violation or if the "
        "headline cell misses its required reduction."
    )

    def flags(self, d):
        ttls = " ".join(f"{ttl:g}" for ttl in d.lease_ttls)
        ratios = " ".join(f"{ratio:g}" for ratio in d.sharing_ratios)
        return [
            _seed(d.seed),
            _flag("--ttls", type=float, nargs="+", metavar="SEC",
                  help=f"lease TTL axis in seconds (default: {ttls}; must include the "
                  "headline TTL)"),
            _flag("--sharing", type=float, nargs="+", metavar="RATIO",
                  help=f"shared-read fractions in [0,1] (default: {ratios}; must include the "
                  "headline ratio)"),
            _flag("--clients", type=int, default=d.clients, help="fleet size"),
            _flag("--ops", type=int, default=d.ops_per_client, help="operations per client"),
            _flag("--no-chaos", action="store_true",
                  help="skip the chaos probes (sweep and workload profiles only)"),
            JSON,
        ]

    def build(self, args, d):
        return self.params(
            seed=args.seed,
            clients=args.clients,
            ops_per_client=args.ops,
            chaos=not args.no_chaos,
            lease_ttls=tuple(args.ttls) if args.ttls else d.lease_ttls,
            sharing_ratios=tuple(args.sharing) if args.sharing else d.sharing_ratios,
        )

    def header(self, config):
        ttls = ", ".join(f"{t:g}" for t in config.lease_ttls)
        ratios = ", ".join(f"{s:g}" for s in config.sharing_ratios)
        return (
            f"cache sweep: seed={config.seed}, {config.clients} clients, "
            f"TTLs [{ttls}] s x sharing [{ratios}]"
        )

    def progress(self, line):
        return f"  {line}"

    def render(self, report, config):
        cell = report.headline
        if cell is not None:
            verdict = "meets" if report.meets_target else "MISSES"
            yield (
                f"  headline (ttl={config.headline_ttl:g}s, "
                f"sharing={config.headline_sharing:g}): "
                f"x{cell['reduction']:g} reduction — {verdict} the "
                f"x{config.min_reduction:g} target"
            )
        yield from _violations(
            report.clean, report.violations, "staleness contract held: zero violations", "  "
        )

    def ok(self, report):
        return report.clean and report.meets_target


class CommitCommand(Command):
    name = kind = "commit"
    help = "async WRITE+COMMIT three-way comparison + verifier probes (repro.commit)"
    description = (
        "Compare the async_commit write path (unstable WRITEs acked from "
        "volatile memory, boot verifiers, explicit COMMIT) against the "
        "standard and gather paths on the seeded bench copy, open both "
        "memory-pressure valves against a shrunken volatile ceiling, run the "
        "K=1 crash-and-promote storm on both paths, and probe the verifier "
        "lifecycle under chaos (crash mid-unstable-window, crash between "
        "WRITE and COMMIT, promotion mid-COMMIT).  Exits 1 on any oracle "
        "violation or if async_commit fails to beat the standard path on p50 "
        "write latency and throughput."
    )

    def flags(self, d):
        return [
            _seed(d.seed),
            _flag("--file-mb", type=float, default=d.file_mb, help="bench copy size in MB"),
            _flag("--biods", type=int, default=d.biods, help="client write-behind depth"),
            _flag("--no-chaos", action="store_true",
                  help="skip the verifier-lifecycle chaos probes"),
            OUT,
            JSON,
        ]

    def build(self, args, d):
        return self.params(
            seed=args.seed, file_mb=args.file_mb, biods=args.biods, chaos=not args.no_chaos
        )

    def header(self, config):
        return (
            f"commit: {config.file_mb} MB copy x "
            f"{'/'.join(config.write_paths)}, seed {config.seed}"
        )

    def progress(self, line):
        return f"  {line}"

    def render(self, report, config):
        comparison = report.comparison
        if comparison is not None:
            verdict = "beats" if report.async_beats_standard else "DOES NOT BEAT"
            yield (
                f"  async_commit {verdict} standard: "
                f"p50 x{comparison['p50_vs_standard']}, "
                f"throughput x{comparison['throughput_vs_standard']}"
            )
        yield from _violations(
            report.clean, report.violations, "commit contract held: zero violations", "  "
        )

    def ok(self, report):
        return report.ok


class ScrubCommand(Command):
    name = kind = "scrub"
    help = "end-to-end integrity sweep: corruption x scrub bandwidth x K (repro.integrity)"
    description = (
        "Run the seeded write workload under a media-fault storm (bit rot, "
        "latent sector errors, a torn write and an NVRAM battery degrade "
        "cashed in by a mid-run crash) while a background scrubber walks the "
        "durable image verifying per-block checksums.  With replicas (K>=1) "
        "every defect must self-heal from a replica-group peer; standalone "
        "(K=0) every defect must surface as a quarantine + EIO.  In every "
        "arm, zero acked READs may return bytes differing from the acked "
        "write image.  Exits 1 on any silent corruption, missed convergence, "
        "or unhealed defect at K>=1."
    )

    def flags(self, d):
        return [
            _seed(d.seed),
            _flag("--clients", type=int, default=d.clients, help="client hosts"),
            _flag("--files-per-client", type=int, default=d.files_per_client, help="files each"),
            _flag("--file-kb", type=int, default=d.file_kb, help="file size in KB"),
            _flag("--rates", type=float, nargs="+", default=list(d.corruption_rates), metavar="R",
                  help="corruption rates to sweep, fraction of durable blocks afflicted "
                  "per media fault"),
            _flag("--bandwidths", type=float, nargs="+", default=list(d.scrub_bandwidths),
                  metavar="BPS", help="scrub read bandwidths in bytes/sec"),
            _flag("--replicas", type=int, nargs="+", default=list(d.replica_counts), metavar="K",
                  help="replication factors to sweep"),
            OUT,
            JSON,
        ]

    def build(self, args, d):
        return self.params(
            seed=args.seed,
            clients=args.clients,
            files_per_client=args.files_per_client,
            file_kb=args.file_kb,
            corruption_rates=tuple(args.rates),
            scrub_bandwidths=tuple(args.bandwidths),
            replica_counts=tuple(args.replicas),
        )

    def header(self, config):
        return (
            f"scrub: {config.clients} clients x {config.files_per_client} "
            f"files x {config.file_kb} KB, seed {config.seed}"
        )

    def progress(self, arm):
        healed = (
            f"{arm.repairs} repaired"
            if arm.replicas
            else f"{arm.quarantines} quarantined, {arm.eio_reads} EIO"
        )
        return (
            f"  K={arm.replicas} rate={arm.corruption_rate} "
            f"bw={arm.scrub_bandwidth / (1 << 20):.0f}MiB/s: "
            f"{arm.detections} detected, {healed}, "
            f"{arm.silent_read_corruptions} silent "
            f"[{'clean' if arm.clean else 'DIRTY'}]"
        )

    def render(self, report, config):
        if report.clean:
            yield "  integrity contract held: nothing silent, all healed/surfaced"
            return
        for arm in report.arms:
            if arm.clean:
                continue
            yield (
                f"  DIRTY arm K={arm.replicas} rate={arm.corruption_rate} "
                f"bw={arm.scrub_bandwidth}:"
            )
            for violation in arm.violations:
                yield f"    {violation}"

    def ok(self, report):
        return report.clean


class TieringCommand(Command):
    name = kind = "tiering"
    help = "heterogeneous-tier placement sweep + crash-safe migration storm (repro.tiering)"
    description = (
        "Run the Zipf-hot multi-tenant append workload against an all-cold "
        "fleet (the baseline) and against a mixed fleet whose hot tier "
        "carries Presto NVRAM, once per placement policy.  Then replay it "
        "with replication while a MigrationEngine live-demotes the hottest "
        "files hot->cold under injected shard crashes, a network partition, "
        "and replica promotions timed to land mid-copy.  The migration "
        "contract — every acked range satisfiable at exactly one "
        "authoritative location — is checked at every fault and at quiesce.  "
        "Exits 1 on any oracle violation."
    )

    def flags(self, d):
        return [
            _seed(d.seed),
            _flag("--tenants", type=int, default=d.tenants, help="tenant clients"),
            _flag("--files-per-tenant", type=int, default=d.files_per_tenant, help="files each"),
            _flag("--ops", type=int, default=d.ops_per_tenant, help="appends per tenant"),
            _flag("--skew", type=float, default=d.skew, help="per-tenant Zipf skew; 0 = uniform"),
            _flag("--policies", nargs="+", metavar="POLICY",
                  help=f"placement policies to sweep (default: {' '.join(d.policies)})"),
            OUT,
            JSON,
        ]

    def build(self, args, d):
        return self.params(
            seed=args.seed,
            tenants=args.tenants,
            files_per_tenant=args.files_per_tenant,
            ops_per_tenant=args.ops,
            skew=args.skew,
            policies=tuple(args.policies) if args.policies else d.policies,
        )

    def header(self, config):
        return (
            f"tiering: {config.tenants} tenants x {config.files_per_tenant} "
            f"files x {config.ops_per_tenant} appends, skew {config.skew}, "
            f"seed {config.seed}"
        )

    def progress(self, arm):
        if isinstance(arm, dict):  # the storm report
            return (
                f"  storm: {arm['completed']}/{arm['started']} migrations, "
                f"{arm['crashes']} crashes, {arm['promotions']} promotions "
                f"[{'clean' if arm['clean'] else 'DIRTY'}]"
            )
        latency = arm.write_latency_ms
        return (
            f"  {arm.fleet:<8} {arm.policy:<10} "
            f"p50 {latency['p50']:>8.2f} ms  p99 {latency['p99']:>8.2f} ms  "
            f"{arm.placement['files_by_tier']} "
            f"[{'clean' if arm.clean else 'DIRTY'}]"
        )

    def render(self, result, config):
        verdict = "beats" if result.hot_beats_cold else "DOES NOT BEAT"
        yield f"  mixed fleet {verdict} all-cold on p99 write latency"
        if result.clean:
            yield "  migration contract held: zero violations"
            return
        for arm in result.arms:
            for violation in arm.violations:
                yield f"    {violation}"
        for violation in result.storm.get("violations", []):
            yield f"    {violation}"

    def ok(self, result):
        return result.clean


COMMANDS: Dict[str, Command] = {
    command.name: command
    for command in (
        TableCommand(),
        CopyCommand(),
        TraceCommand(),
        LaddisCommand(),
        ClaimsCommand(),
        ChaosCommand(),
        SweepCommand(),
        ClusterCommand(),
        OverloadCommand(),
        BenchCommand(),
        ReplicaCommand(),
        CacheCommand(),
        CommitCommand(),
        ScrubCommand(),
        TieringCommand(),
    )
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Improving the Write Performance of an NFS Server' (USENIX 1994).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        sub = subparsers.add_parser(
            command.name,
            help=command.help,
            description=command.description,
            formatter_class=_HelpFormatter,
        )
        for names, options in command.flags(command.params()):
            sub.add_argument(*names, **options)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse, build the params, run the kind, print; the one driver."""
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        params = command.build(args, command.params())
    except ValueError as exc:
        print(f"{command.name}: {exc}", file=sys.stderr)
        return 2
    as_json = getattr(args, "json", False)
    try:
        header = None if as_json else command.header(params)
        if header is not None:
            print(header)
        progress = None
        if command.progress is not None and not as_json:
            progress = lambda item: print(command.progress(item))  # noqa: E731
        result = command.execute(params, progress)
        out = getattr(args, "out", None)
        if out:
            with open(out, "w") as handle:
                handle.write(command.to_json(result, params) + "\n")
            if not as_json:
                print(f"wrote {out}")
        lines = [command.to_json(result, params)] if as_json else command.render(result, params)
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``repro scrub --json | head``).  Point
        # stdout at /dev/null so the exit-time flush stays quiet too, and
        # exit as a writer killed by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return 0 if command.ok(result) else 1


if __name__ == "__main__":
    raise SystemExit(main())
