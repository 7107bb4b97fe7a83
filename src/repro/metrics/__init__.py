"""Experiment metrics and paper-style report rendering."""

from repro._lazy import lazy_surface

#: Each public name -> its defining module, imported on first read.
_LAZY = {
    "FileCopyMetrics": "repro.metrics.collect",
    "format_paper_table": "repro.metrics.report",
    "format_comparison": "repro.metrics.report",
    "LineChart": "repro.metrics.svg",
    "RateSeries": "repro.metrics.timeseries",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
