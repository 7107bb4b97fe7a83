"""One cell of Tables 1-6: the 10 MB sequential file copy (§7.1)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.runner import register
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.metrics.collect import FileCopyMetrics
from repro.net.spec import FDDI
from repro.obs import PercentileSummary
from repro.workload.sequential import write_file

__all__ = ["CopyParams", "run_filecopy"]


def default_testbed() -> TestbedConfig:
    """The testbed ``repro copy`` and ``repro sweep`` run by default."""
    return TestbedConfig(netspec=FDDI, nbiods=7)


def check_testbed(testbed: TestbedConfig) -> None:
    """Reject the testbed shapes the copy kinds cannot build."""
    if testbed.nbiods < 0 or testbed.stripes < 1 or testbed.nfsds < 1:
        raise ValueError(
            f"need nbiods >= 0, stripes >= 1 and nfsds >= 1; got {testbed.nbiods}, "
            f"{testbed.stripes} and {testbed.nfsds}"
        )


@dataclass
class CopyParams:
    """``kind="copy"``: one ``file_mb`` MB copy on ``testbed``."""

    testbed: TestbedConfig = field(default_factory=default_testbed)
    file_mb: float = 10.0
    think_time: float = 0.0005

    def __post_init__(self) -> None:
        check_testbed(self.testbed)
        if self.file_mb <= 0:
            raise ValueError(f"file_mb must be positive, got {self.file_mb}")


def run_filecopy(
    config: TestbedConfig,
    file_mb: float = 10.0,
    think_time: float = 0.0005,
) -> FileCopyMetrics:
    """Run the paper's file-copy experiment under ``config``.

    Builds a fresh testbed, writes a ``file_mb`` MB file sequentially from a
    single client process, and returns the four table quantities measured
    over the copy (create to close-complete).
    """
    testbed = Testbed(config)
    client = testbed.add_client()
    env = testbed.env
    nbytes = int(file_mb * 1024 * 1024)

    proc = env.process(
        write_file(env, client, "copytest", nbytes, think_time=think_time),
        name="filecopy",
    )
    env.run(until=proc)
    elapsed = proc.value
    if testbed.server.stable_violations:
        raise AssertionError(
            "stable-storage invariant violated: "
            f"{testbed.server.stable_violations[:3]}"
        )
    total_bytes, total_transactions = testbed.disk_stats_totals()
    gather_stats = getattr(testbed.server.write_path, "stats", None)
    phases = None
    if testbed.collector is not None:
        summary = PercentileSummary()
        summary.consume(testbed.collector.spans)
        phases = summary.table()
    return FileCopyMetrics(
        label=f"{config.netspec.name}"
        f"{'+presto' if config.presto_bytes else ''}"
        f"{'+stripe' + str(config.stripes) if config.stripes > 1 else ''}"
        f"/{config.write_path}",
        nbiods=config.nbiods,
        client_kb_per_sec=nbytes / elapsed / 1024.0,
        server_cpu_pct=100.0 * testbed.server.cpu.utilization(),
        disk_kb_per_sec=total_bytes / elapsed / 1024.0,
        disk_trans_per_sec=total_transactions / elapsed,
        elapsed_seconds=elapsed,
        mean_batch_size=(gather_stats.mean_batch_size() if gather_stats else None),
        gather_success_rate=(
            gather_stats.gather_success_rate() if gather_stats else None
        ),
        procrastinations=(
            gather_stats.procrastinations.value if gather_stats else None
        ),
        handoffs_nfsd=(gather_stats.handoffs_nfsd.value if gather_stats else None),
        handoffs_mbuf=(gather_stats.handoffs_mbuf.value if gather_stats else None),
        watchdog_sweeps=(
            gather_stats.watchdog_sweeps.value if gather_stats else None
        ),
        learned_skips=(
            gather_stats.skipped_procrastinations.value if gather_stats else None
        ),
        rpcs_per_op=(
            round(client.rpcs_per_op.value, 4) if client.user_ops.value else None
        ),
        phases=phases,
    )


@register("copy", CopyParams)
def _run_copy(params: CopyParams, progress=None) -> FileCopyMetrics:
    return run_filecopy(params.testbed, file_mb=params.file_mb, think_time=params.think_time)
