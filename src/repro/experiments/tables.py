"""Drivers for Tables 1-6, with the paper's published numbers embedded.

Each :class:`TableSpec` describes one table's hardware configuration and
biod sweep; :func:`run_table` measures both server variants cell by cell
and returns a :class:`TableResult` that can be rendered in the paper's
layout or compared against :data:`PAPER` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.filecopy import run_filecopy
from repro.experiments.runner import register
from repro.experiments.testbed import TestbedConfig
from repro.metrics.collect import FileCopyMetrics
from repro.metrics.report import format_paper_table
from repro.net.spec import ETHERNET, FDDI, NetSpec

__all__ = ["TableSpec", "TableResult", "TableParams", "TABLES", "PAPER", "run_table"]

MB = 1024 * 1024


@dataclass(frozen=True)
class TableSpec:
    """One table's configuration."""

    number: int
    title: str
    netspec: NetSpec
    presto_bytes: Optional[int]
    stripes: int
    biods: Sequence[int]
    #: CPU scaling: Tables 1-2 used a DEC 3400 server, 3-6 a DEC 3800.
    cpu_scale: float = 1.0


TABLES: Dict[int, TableSpec] = {
    1: TableSpec(1, "Table 1. NFS 10MB file copy: Ethernet", ETHERNET, None, 1, (0, 3, 7, 11, 15)),
    2: TableSpec(2, "Table 2. NFS 10MB file copy: Ethernet, Presto", ETHERNET, 1 * MB, 1, (0, 3, 7, 11, 15)),
    3: TableSpec(3, "Table 3. NFS 10MB file copy: FDDI", FDDI, None, 1, (0, 3, 7, 11, 15)),
    4: TableSpec(4, "Table 4. NFS 10MB file copy: FDDI, Presto", FDDI, 1 * MB, 1, (0, 3, 7, 11, 15)),
    5: TableSpec(5, "Table 5. NFS 10MB file copy: FDDI, 3 striped drives", FDDI, None, 3, (0, 3, 7, 11, 15, 19, 23)),
    6: TableSpec(6, "Table 6. NFS 10MB file copy: FDDI, Presto, 3 striped drives", FDDI, 4 * MB, 3, (0, 3, 7, 11, 15, 19, 23)),
}

#: The paper's published rows: PAPER[table][variant][row] -> values per biod.
#: variant is "std" or "gather"; row keys mirror the table row labels.
PAPER: Dict[int, Dict[str, Dict[str, List[float]]]] = {
    1: {
        "std": {
            "speed": [165, 194, 201, 203, 205],
            "cpu": [9, 11, 11, 12, 12],
            "disk_kbs": [480, 570, 590, 590, 590],
            "disk_tps": [61, 71, 72, 73, 74],
        },
        "gather": {
            "speed": [140, 375, 493, 575, 674],
            "cpu": [7, 14, 16, 19, 21],
            "disk_kbs": [415, 550, 610, 660, 750],
            "disk_tps": [52, 47, 24, 31, 21],
        },
    },
    2: {
        "std": {
            "speed": [809, 1025, 1080, 1103, 1112],
            "cpu": [30, 38, 41, 42, 43],
            "disk_kbs": [789, 1004, 1080, 1104, 1080],
            "disk_tps": [7, 8, 9, 9, 9],
        },
        "gather": {
            "speed": [439, 787, 915, 959, 991],
            "cpu": [18, 26, 30, 32, 34],
            "disk_kbs": [430, 770, 885, 949, 985],
            "disk_tps": [4, 7, 7, 9, 8],
        },
    },
    3: {
        "std": {
            "speed": [207, 209, 207, 209, 208],
            "cpu": [6, 6, 6, 6, 6],
            "disk_kbs": [605, 610, 605, 615, 615],
            "disk_tps": [76, 77, 76, 75, 77],
        },
        "gather": {
            "speed": [177, 534, 846, 876, 1085],
            "cpu": [6, 9, 10, 11, 12],
            "disk_kbs": [520, 780, 975, 1000, 1175],
            "disk_tps": [66, 65, 38, 45, 33],
        },
    },
    4: {
        "std": {
            "speed": [1883, 1898, 1863, 1900, 1918],
            "cpu": [33, 34, 35, 35, 34],
            "disk_kbs": [1833, 1848, 1844, 1844, 1900],
            "disk_tps": [16, 16, 15, 15, 16],
        },
        "gather": {
            "speed": [927, 1850, 1888, 1895, 1894],
            "cpu": [13, 24, 28, 27, 27],
            "disk_kbs": [910, 1745, 1889, 1882, 1867],
            "disk_tps": [8, 17, 16, 16, 16],
        },
    },
    5: {
        "std": {
            "speed": [200, 275, 299, 304, 308, 308, 313],
            "cpu": [7, 10, 11, 11, 11, 11, 12],
            "disk_kbs": [560, 827, 865, 895, 879, 921, 927],
            "disk_tps": [72, 104, 110, 112, 111, 115, 117],
        },
        "gather": {
            "speed": [187, 574, 814, 987, 1115, 1287, 1618],
            "cpu": [7, 11, 13, 15, 15, 18, 22],
            "disk_kbs": [560, 785, 984, 1109, 1225, 1384, 1695],
            "disk_tps": [71, 72, 60, 65, 67, 71, 74],
        },
    },
    6: {
        "std": {
            "speed": [2102, 3403, 3394, 3503, 3474, 3360, 3342],
            "cpu": [40, 66, 69, 68, 70, 71, 70],
            "disk_kbs": [2067, 3146, 3515, 3349, 3305, 3575, 3445],
            "disk_tps": [47, 71, 80, 77, 76, 80, 78],
        },
        "gather": {
            "speed": [1015, 2144, 2649, 2775, 2754, 3078, 3048],
            "cpu": [6, 29, 42, 42, 42, 43, 46],
            "disk_kbs": [1008, 2143, 2644, 2724, 2685, 2501, 2627],
            "disk_tps": [22, 49, 61, 62, 63, 59, 63],
        },
    },
}


@dataclass
class TableResult:
    """Measured cells for one table, both variants."""

    spec: TableSpec
    standard: List[FileCopyMetrics] = field(default_factory=list)
    gathering: List[FileCopyMetrics] = field(default_factory=list)

    def render(self) -> str:
        return format_paper_table(
            self.spec.title,
            self.spec.biods,
            [m.row() for m in self.standard],
            [m.row() for m in self.gathering],
        )

    def series(self, variant: str, row: str) -> List[float]:
        """Measured values for comparison against PAPER[n][variant][row]."""
        cells = self.standard if variant == "std" else self.gathering
        attr = {
            "speed": "client_kb_per_sec",
            "cpu": "server_cpu_pct",
            "disk_kbs": "disk_kb_per_sec",
            "disk_tps": "disk_trans_per_sec",
        }[row]
        return [getattr(cell, attr) for cell in cells]


def run_table(number: int, file_mb: float = 10.0) -> TableResult:
    """Measure every cell of table ``number``.

    ``file_mb`` can be lowered for quick runs; 10 MB matches the paper.
    """
    spec = TABLES[number]
    result = TableResult(spec)
    for write_path, bucket in (("standard", result.standard), ("gather", result.gathering)):
        for nbiods in spec.biods:
            config = TestbedConfig(
                netspec=spec.netspec,
                write_path=write_path,
                nbiods=nbiods,
                presto_bytes=spec.presto_bytes,
                stripes=spec.stripes,
                cpu_scale=spec.cpu_scale,
            )
            bucket.append(run_filecopy(config, file_mb=file_mb))
    return result


@dataclass
class TableParams:
    """``kind="table"``: measure Table ``table`` (1-6) at ``file_mb`` MB."""

    table: Optional[int] = None
    file_mb: float = 10.0

    def __post_init__(self) -> None:
        if self.table is not None and self.table not in TABLES:
            raise ValueError(f"table must be one of {sorted(TABLES)}, got {self.table}")
        if self.file_mb <= 0:
            raise ValueError(f"file_mb must be positive, got {self.file_mb}")


@register("table", TableParams)
def _run_table(params: TableParams, progress=None) -> TableResult:
    if params.table is None:
        raise ValueError("kind='table' needs params.table")
    return run_table(params.table, file_mb=params.file_mb)
