"""Experiment harness: testbeds, table drivers, traces, LADDIS curves."""

import sys
from types import ModuleType

from repro._lazy import lazy_surface

#: Each public name -> its defining module, imported on first read.
_LAZY = {
    "TestbedConfig": "repro.experiments.testbed",
    "Testbed": "repro.experiments.testbed",
    "build_testbed": "repro.experiments.testbed",
    "ExperimentSpec": "repro.experiments.runner",
    "run": "repro.experiments.runner",
    "kind": "repro.experiments.runner",
    "EXPERIMENT_KINDS": "repro.experiments.runner",
    "run_filecopy": "repro.experiments.filecopy",
    "events_from_spans": "repro.experiments.trace",
    "TableSpec": "repro.experiments.tables",
    "TableResult": "repro.experiments.tables",
    "TABLES": "repro.experiments.tables",
    "PAPER": "repro.experiments.tables",
    "run_table": "repro.experiments.tables",
    "TraceEvent": "repro.experiments.trace",
    "trace_filecopy": "repro.experiments.trace",
    "render_timeline": "repro.experiments.trace",
    "figure1": "repro.experiments.trace",
    "run_curve": "repro.experiments.laddis_curves",
    "LaddisCurve": "repro.experiments.laddis_curves",
    "CurvePoint": "repro.experiments.laddis_curves",
    "figure2": "repro.experiments.laddis_curves",
    "figure3": "repro.experiments.laddis_curves",
    "capacity_of": "repro.experiments.laddis_curves",
    "sweep": "repro.experiments.sweep",
    "sweepable_fields": "repro.experiments.sweep",
    "score_series": "repro.experiments.results",
    "table_to_dict": "repro.experiments.results",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_surface(__name__, _LAZY)


class _Surface(ModuleType):
    """This package, keeping ``sweep`` bound to the function.

    Loading the submodule :mod:`repro.experiments.sweep` binds it on the
    package under the function's name; the function wins, as it would
    with an eager ``from repro.experiments.sweep import sweep``.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, ModuleType) and _LAZY.get(name) == value.__name__:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Surface
