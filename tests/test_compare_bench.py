"""The bench comparison gate (scripts/compare_bench.py).

The schema rule under test is asymmetric on purpose: a fresh run may
*add* cell fields (new instrumentation lands without forcing a baseline
refresh — tolerated with a note), but may never *drop* one the baseline
has (a vanished metric is a gate that silently stopped gating).
"""

import importlib.util
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_bench", REPO / "scripts" / "compare_bench.py"
)
compare_bench = importlib.util.module_from_spec(_spec)
sys.modules["compare_bench"] = compare_bench
_spec.loader.exec_module(compare_bench)


def cell(write_path="gather", presto=False, p99=5.0, **extra):
    payload = {
        "write_path": write_path,
        "presto": presto,
        "write_latency_ms": {"p50": 2.0, "p99": p99},
        "sim_ops_per_sec": 1000.0,
        "rpcs_per_op": 1.5,
        "events_per_op": 20.0,
    }
    payload.update(extra)
    return payload


def report(*cells):
    return {"cells": list(cells)}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, baseline, fresh, *extra_args):
    argv = [
        write(tmp_path, "baseline.json", baseline),
        write(tmp_path, "fresh.json", fresh),
        *extra_args,
    ]
    return compare_bench.main(argv)


def test_identical_reports_pass(tmp_path):
    assert run(tmp_path, report(cell()), report(cell())) == 0


def test_added_fields_are_tolerated(tmp_path, capsys):
    fresh = cell(scrub_passes=3, extra_stats={"nested": 1})
    assert run(tmp_path, report(cell()), report(fresh)) == 0
    out = capsys.readouterr().out
    assert "adds field 'scrub_passes' (tolerated)" in out
    assert "adds field 'extra_stats.nested' (tolerated)" in out


def test_removed_top_level_field_fails(tmp_path, capsys):
    fresh = cell()
    del fresh["rpcs_per_op"]
    assert run(tmp_path, report(cell()), report(fresh)) == 1
    err = capsys.readouterr().err
    assert "'rpcs_per_op' present in baseline but missing" in err


def test_removed_nested_field_fails(tmp_path, capsys):
    fresh = cell()
    del fresh["write_latency_ms"]["p50"]
    assert run(tmp_path, report(cell()), report(fresh)) == 1
    err = capsys.readouterr().err
    assert "'write_latency_ms.p50' present in baseline but missing" in err


def test_removed_gating_metric_fails_without_crashing(tmp_path, capsys):
    fresh = cell()
    del fresh["write_latency_ms"]
    assert run(tmp_path, report(cell()), report(fresh)) == 1
    err = capsys.readouterr().err
    assert "'write_latency_ms.p99' present in baseline but missing" in err


def test_latency_regression_still_fails(tmp_path, capsys):
    assert run(tmp_path, report(cell(p99=5.0)), report(cell(p99=25.0))) == 1
    err = capsys.readouterr().err
    assert "p99 write latency regressed" in err


def test_missing_cell_still_fails(tmp_path, capsys):
    baseline = report(cell(), cell(write_path="async"))
    assert run(tmp_path, baseline, report(cell())) == 1
    err = capsys.readouterr().err
    assert "cell missing from fresh run" in err


def test_baseline_lacking_optional_fields_skips_those_gates(tmp_path, capsys):
    baseline_cell = cell()
    del baseline_cell["sim_ops_per_sec"]
    del baseline_cell["rpcs_per_op"]
    del baseline_cell["events_per_op"]
    # The fresh run *adding* them back is the tolerated direction.
    assert run(tmp_path, report(baseline_cell), report(cell())) == 0
    out = capsys.readouterr().out
    assert "ops/s gate skipped" in out
    assert "rpc/op gate skipped" in out
    assert "events/op gate skipped" in out


def test_any_rise_in_events_per_op_fails(tmp_path, capsys):
    # The count is deterministic, so the gate has no tolerance: even a
    # hundredth of an event more per op is more simulator work.
    fresh = cell(events_per_op=20.01)
    assert run(tmp_path, report(cell()), report(fresh)) == 1
    err = capsys.readouterr().err
    assert "events_per_op rose from 20.0 to 20.01" in err


def test_fewer_events_per_op_passes(tmp_path, capsys):
    assert run(tmp_path, report(cell()), report(cell(events_per_op=12.5))) == 0
    assert "events/op  20.0000 ->  12.5000 ok" in capsys.readouterr().out
