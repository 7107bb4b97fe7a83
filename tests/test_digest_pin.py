"""Pin the simulated-stat digest of the repository benchmark's seq-gather pass.

Any change to the kernel that moves the order of same-instant work (or any
other simulated number) changes this digest.  seq-gather has one disk, so
no multi-disk float sum enters its digest and it reads the same before and
after CPython 3.12 changed ``sum()`` of floats; the multi-disk workloads'
digests are not pinned here.  The benchmark's modules are imported
read-only.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SEQ_GATHER_SEED_1 = "5f64fa3a4a5ea1517a003d2874ef869fedd5707f0f909c7b273066ac6a3f52a4"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_seq_gather_seed_1_digest_is_pinned():
    workloads = _load("workloads")
    run = _load("run")
    workload = workloads.SeqGather()
    inputs = workload.inputs(1)
    harness = workload.setup(1, inputs)
    result = workload.drive(harness, inputs)
    assert result.failed == 0
    assert run.digest(result) == SEQ_GATHER_SEED_1
