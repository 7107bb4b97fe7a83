"""The benchmark's own checks: the simulated-stat digest is a function of the seed.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Workloads are shrunk so the whole file runs in a few seconds.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import probes  # noqa: E402
from run import Ledger, one_pass  # noqa: E402
from workloads import FaninCommit, SeqGather, SfsMix  # noqa: E402

SMALL = {
    "seq-gather": lambda: SeqGather(file_mb=0.5),
    "fanin-commit": lambda: FaninCommit(clients=3, file_mb=0.25),
    "sfs-mix": lambda: SfsMix(rungs=(200.0,), warmup=0.1, duration=0.4, file_count=8),
}


def sim_digest(workload, seed: int, tracing: bool = False, probe=nullcontext()) -> str:
    ledger = Ledger()
    inputs = workload.inputs(seed)
    one_pass(workload, seed, inputs, ledger, check=True, tracing=tracing, probe=probe)
    assert ledger.correct, ledger.violations
    (digest,) = ledger.digests
    return digest


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_digest_other_seed_other_digest(name):
    workload = SMALL[name]()
    first = sim_digest(workload, 1)
    assert sim_digest(workload, 1) == first
    assert sim_digest(workload, 2) != first


@pytest.mark.parametrize("name", sorted(SMALL))
def test_probes_leave_the_digest_unchanged(name):
    workload = SMALL[name]()
    plain = sim_digest(workload, 3)
    assert sim_digest(workload, 3, tracing=True) == plain
    counts = Counter()
    assert sim_digest(workload, 3, probe=probes.counting_probes(counts)) == plain
    assert counts["disk_submits"] > 0
    assert sum(value for key, value in counts.items() if key.startswith("events.")) > 0
