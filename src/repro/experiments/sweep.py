"""Generic one-dimensional parameter sweeps over file-copy experiments.

Powers the ``repro sweep`` CLI command and ad-hoc exploration::

    from repro.experiments import TestbedConfig, sweep
    rows = sweep(
        TestbedConfig(write_path="gather"),
        field="nbiods",
        values=[0, 3, 7, 11, 15],
    )

Supports any scalar ``TestbedConfig`` field plus the two derived fields
people actually sweep: ``interval_ms`` (procrastination) and ``presto_mb``.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from dataclasses import fields as dataclass_fields
from typing import List, Sequence

from repro.core.policy import GatherPolicy
from repro.experiments.filecopy import check_testbed, default_testbed, run_filecopy
from repro.experiments.runner import register
from repro.experiments.testbed import TestbedConfig
from repro.metrics.collect import FileCopyMetrics

__all__ = ["SweepParams", "sweep", "sweepable_fields"]

_DERIVED = {
    "interval_ms": "procrastination interval (ms); None = transport default",
    "presto_mb": "NVRAM size in MB; 0 disables the accelerator",
}


def sweepable_fields() -> dict:
    """Names and descriptions of fields `sweep` accepts."""
    names = {
        f.name: f.type
        for f in dataclass_fields(TestbedConfig)
        if f.name not in ("netspec", "gather_policy", "disk_spec")
    }
    names.update(_DERIVED)
    return names


def _apply(base: TestbedConfig, field: str, value) -> TestbedConfig:
    if field == "interval_ms":
        interval = None if value is None else float(value) / 1000.0
        return base.variant(gather_policy=GatherPolicy(interval=interval))
    if field == "presto_mb":
        presto_bytes = int(float(value) * (1 << 20)) or None
        return base.variant(presto_bytes=presto_bytes)
    if field not in {f.name for f in dataclass_fields(TestbedConfig)}:
        raise ValueError(
            f"unknown sweep field {field!r}; choose from {sorted(sweepable_fields())}"
        )
    return base.variant(**{field: value})


def sweep(
    base: TestbedConfig,
    field: str,
    values: Sequence,
    file_mb: float = 4.0,
) -> List[FileCopyMetrics]:
    """Run one file-copy per value of ``field``; returns metrics in order."""
    if not values:
        raise ValueError("sweep needs at least one value")
    results = []
    for value in values:
        config = _apply(base, field, value)
        results.append(run_filecopy(config, file_mb=file_mb))
    return results


@dataclass
class SweepParams:
    """``kind="sweep"``: one copy per value of ``sweep_field`` on ``testbed``."""

    testbed: TestbedConfig = dataclass_field(default_factory=default_testbed)
    sweep_field: str = ""
    values: Sequence = ()
    file_mb: float = 4.0

    def __post_init__(self) -> None:
        self.values = tuple(self.values)
        if self.sweep_field and self.sweep_field not in sweepable_fields():
            raise ValueError(
                f"unknown field {self.sweep_field!r}; choose from "
                f"{', '.join(sorted(sweepable_fields()))}"
            )
        if self.file_mb <= 0:
            raise ValueError(f"file_mb must be positive, got {self.file_mb}")
        check_testbed(self.testbed)
        for value in self.values if self.sweep_field else ():
            check_testbed(_apply(self.testbed, self.sweep_field, value))


@register("sweep", SweepParams)
def _run_sweep(params: SweepParams, progress=None) -> List[FileCopyMetrics]:
    if not params.sweep_field or not params.values:
        raise ValueError("kind='sweep' needs params.sweep_field and values")
    return sweep(params.testbed, params.sweep_field, list(params.values), file_mb=params.file_mb)
