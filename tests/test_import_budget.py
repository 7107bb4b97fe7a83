"""What a benchmark run imports: only what it executes, and all of it up front.

Each check runs in a fresh interpreter, importing the repository
benchmark's ``perfbench/workloads.py`` read-only, as a user's run does:

* building a workload's testbed loads none of the modules that only other
  experiments, unused workloads or switched-off subsystems need;
* driving a (shrunken) pass and checking it imports no ``repro`` module
  that set-up did not, so no import cost moves into the timed window.
"""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Shrunken passes of each workload (same testbeds, smaller files).
SMALL = {
    "seq-gather": "SeqGather(file_mb=0.25)",
    "fanin-commit": "FaninCommit(clients=2, file_mb=0.125)",
    "sfs-mix": "SfsMix(rungs=(200.0,), warmup=0.1, duration=0.2, file_count=8)",
}

#: Modules, and whole packages, that no benchmark set-up executes.
NEVER = {
    "repro.faults.campaign",
    "repro.faults.controller",
    "repro.faults.events",
    "repro.metrics.svg",
    "repro.metrics.timeseries",
    "repro.experiments.laddis_curves",
    "repro.experiments.sweep",
    "repro.experiments.trace",
    "repro.experiments.results",
    "repro.experiments.filecopy",
    "repro.metrics.collect",
    "repro.metrics.report",
    "repro.workload.sequential",
    "repro.workload.dumbpc",
    "repro.workload.random_access",
    "repro.workload.timesharing",
    "repro.workload.zipf",
    "repro.core.siva",
    "repro.cluster",
    "repro.lease",
    "repro.replica",
    "repro.tiering",
    "repro.overload",
}

#: What each workload's testbed leaves switched off: the write paths it
#: does not run, and Presto where it has none.
SWITCHED_OFF = {
    "seq-gather": {"repro.commit", "repro.nvram.presto"},
    "fanin-commit": {"repro.core.gather", "repro.nvram.presto"},
    "sfs-mix": {"repro.commit"},
}

#: The async_commit write path gives its NFSv3 clients the AIMD write
#: window (COMMIT pressure), which lives in the overload package.
SWITCHED_ON = {"fanin-commit": {"repro.overload", "repro.overload.window"}}


def _under(module: str, names) -> bool:
    return any(module == name or module.startswith(name + ".") for name in names)


_PROBE = """
import importlib.util, json, sys

def loaded():
    return {name for name in sys.modules if name == "repro" or name.startswith("repro.")}

spec = importlib.util.spec_from_file_location("_perfbench_workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads  # dataclasses look their module up here
spec.loader.exec_module(workloads)
full = workloads.WORKLOADS[sys.argv[2]]()
full.setup(1, full.inputs(1))
setup = loaded()
small = eval(sys.argv[3], vars(workloads))
inputs = small.inputs(1)
harness = small.setup(1, inputs)
before = loaded()
result = small.drive(harness, inputs)
violations = harness.check()
print(json.dumps({
    "setup": sorted(setup),
    "timed": sorted(loaded() - before),
    "failed": result.failed,
    "violations": violations,
}))
"""


@lru_cache(maxsize=None)
def _probe(name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "perfbench" / "workloads.py"), name, SMALL[name]],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=300,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_setup_loads_only_what_the_run_executes(name):
    off = NEVER | SWITCHED_OFF[name]
    unexpected = {
        module
        for module in _probe(name)["setup"]
        if _under(module, off) and module not in SWITCHED_ON.get(name, ())
    }
    assert unexpected == set()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_timed_window_imports_nothing_setup_did_not(name):
    probe = _probe(name)
    assert probe["failed"] == 0 and probe["violations"] == []
    assert probe["timed"] == []
