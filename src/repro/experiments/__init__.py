"""Experiment harness: testbeds, table drivers, traces, LADDIS curves."""

from repro.experiments.filecopy import run_filecopy
from repro.experiments.laddis_curves import (
    CurvePoint,
    LaddisCurve,
    capacity_of,
    figure2,
    figure3,
    run_curve,
)
from repro.experiments.results import score_series, table_to_dict
from repro.experiments.runner import EXPERIMENT_KINDS, ExperimentSpec, kind, run
from repro.experiments.sweep import sweep, sweepable_fields
from repro.experiments.tables import PAPER, TABLES, TableResult, TableSpec, run_table
from repro.experiments.testbed import Testbed, TestbedConfig, build_testbed
from repro.experiments.trace import (
    TraceEvent,
    events_from_spans,
    figure1,
    render_timeline,
    trace_filecopy,
)

__all__ = [
    "TestbedConfig",
    "Testbed",
    "build_testbed",
    "ExperimentSpec",
    "run",
    "kind",
    "EXPERIMENT_KINDS",
    "run_filecopy",
    "events_from_spans",
    "TableSpec",
    "TableResult",
    "TABLES",
    "PAPER",
    "run_table",
    "TraceEvent",
    "trace_filecopy",
    "render_timeline",
    "figure1",
    "run_curve",
    "LaddisCurve",
    "CurvePoint",
    "figure2",
    "figure3",
    "capacity_of",
    "sweep",
    "sweepable_fields",
    "score_series",
    "table_to_dict",
]
