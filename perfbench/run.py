"""The repository benchmark: one workload, timed or traced, checked for correctness.

Run from the repository root::

    python3 perfbench/run.py --workload seq-gather --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats untraced passes of the workload for ``--seconds``
host seconds and reports the end-to-end metrics; ``--trace 1`` runs one
untraced pass and one pass under each layer probe (see ``probes.py``) and
reports the per-layer metrics.  Either way the report lines come first and
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The command exits 1 when an operation failed, the crash oracle or fsck
found a violation, or two passes of the same seed disagreed on the
simulated-stat digest; it exits 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import heapq
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import ContextManager

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: (name, unit, clock, gated) of every end-to-end metric, in report order.
#: Gated metrics are the ones every workload reports and that are never 0;
#: they make up the JSON line and BENCHMARK.json.  The rest are printed.
END_TO_END = (
    ("write_kbps", "KB/s", "sim", True),
    ("write_p50_ms", "ms", "sim", True),
    ("write_p99_ms", "ms", "sim", True),
    ("disk_writes_per_mb", "1/MB", "sim", True),
    ("sfs_capacity_ops", "ops/s", "sim", False),
    ("op_p50_ms.r400", "ms", "sim", False),
    ("op_p99_ms.r400", "ms", "sim", False),
    ("op_p50_ms.r550", "ms", "sim", False),
    ("op_p99_ms.r550", "ms", "sim", False),
    ("ops_failed_frac", "fraction", "sim", False),
    ("host_ops_per_s", "1/s", "host", True),
    ("peak_rss_mb", "MB", "host", True),
    ("setup_s", "s", "host", True),
)

#: A timed run makes at least this many passes, however long they take.
MIN_PASSES = 3
#: Fresh-interpreter set-ups whose median is ``setup_s``.
SETUP_SAMPLES = 5


def digest(result) -> str:
    """sha256 over every simulated statistic of one pass: its sim metrics
    and every counter bounding its timed window."""
    payload = json.dumps([result.sim, result.start, result.end], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def one_pass(
    workload,
    seed: int,
    inputs: dict,
    ledger,
    check: bool = False,
    tracing: bool = False,
    probe: ContextManager = nullcontext(),
):
    """Set up and drive one pass, entering it in ``ledger``.

    ``probe`` is entered around the timed window only.  Returns (harness,
    result, setup seconds, run seconds).
    """
    gc.collect()
    began = time.perf_counter()
    harness = workload.setup(seed, inputs, tracing=tracing)
    built = time.perf_counter()
    with probe:
        result = workload.drive(harness, inputs)
    done = time.perf_counter()
    ledger.add(harness, result, check)
    return harness, result, built - began, done - built


class Ledger:
    """Operations, failures and violations across the passes of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.violations: list = []
        self.digests: set = set()

    def add(self, harness, result, check: bool = False) -> None:
        self.attempted += result.ops
        self.failed += result.failed
        if check:
            self.violations.extend(harness.check())
        self.digests.add(digest(result))

    @property
    def correct(self) -> bool:
        return not self.failed and not self.violations and len(self.digests) == 1

    def failed_total(self) -> int:
        return self.failed + len(self.violations) + (len(self.digests) - 1)


#: Set-up as a user pays it: a fresh interpreter imports the program and
#: builds the testbed and working set.  Prints the seconds taken.
_SETUP_PROBE = """
import sys, time
began = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from workloads import WORKLOADS
workload = WORKLOADS[sys.argv[3]]()
seed = int(sys.argv[4])
workload.setup(seed, workload.inputs(seed))
print(time.perf_counter() - began)
"""


def setup_samples(workload_name: str, seed: int) -> list:
    """Set-up seconds in SETUP_SAMPLES fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE), workload_name, str(seed)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


#: Runs per second of the reference loop on the host the calibrated
#: figures are expressed for (a 2-CPU container, Python 3.11).
REFERENCE_RATE = 20.0


def host_speed() -> float:
    """How fast this host runs Python right now, relative to REFERENCE_RATE.

    Times a fixed loop doing the simulator's kind of work: a heap of
    tuples, dict stores, a generator and method calls.
    """
    gc.collect()
    began = time.perf_counter()
    rng = random.Random(5)
    heap: list = []
    table: dict = {}
    for index in range(60000):
        heapq.heappush(heap, (rng.random(), index))
        table[index % 997] = index
        if len(heap) > 500:
            heapq.heappop(heap)
    for _ in (step for step in range(50000)):
        pass
    return 1.0 / (time.perf_counter() - began) / REFERENCE_RATE


def timed_run(workload, seed: int, inputs: dict, seconds: float):
    """Untraced passes for ``seconds``; returns (ledger, first result, metrics).

    Other load on a shared host slows the program for seconds to minutes
    at a time.  Two estimators keep that out of the host figures:

    * the fastest pass stands for the run, as load only ever slows a pass;
    * the fastest of the reference-loop samples taken between passes
      measures the host's speed during the run, and the throughput is
      scaled to REFERENCE_RATE.  The raw throughput is printed.

    Set-up time is reported raw: it is mostly compiling and importing
    modules, which the reference loop does not track.
    """
    ledger = Ledger()
    rates, speeds = [], []
    first = None
    spent = run_s = 0.0
    while len(rates) < MIN_PASSES or spent < seconds:
        # About one speed sample per second of pass, so long passes get
        # as fair a fastest-sample as short ones.
        speeds.extend(host_speed() for _ in range(max(1, round(run_s))))
        # The harness is dropped at once, so the next pass's gc.collect()
        # frees it and every pass starts from the same heap.
        _harness, result, setup_s, run_s = one_pass(
            workload, seed, inputs, ledger, check=first is None
        )
        del _harness
        first = first or result
        rates.append(result.ops / run_s)
        spent += setup_s + run_s
        if len(rates) == MIN_PASSES:
            # Memory creeps up over passes; reading the peak after a fixed
            # number of them keeps it independent of the host's speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = setup_samples(workload.name, seed)
    speed = max(speeds)
    values = dict(first.sim)
    values.update(
        {
            "ops_failed_frac": ledger.failed_total() / ledger.attempted,
            "host_ops_per_s": max(rates) / speed,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
    )
    print(f"passes: {len(rates)}; host ops/s per pass: {', '.join(f'{r:.1f}' for r in rates)}")
    print(f"host speed per sample: {', '.join(f'{v:.4f}' for v in speeds)}")
    print(f"host speed {speed:.4f} x reference; raw host_ops_per_s {max(rates):.1f}")
    return ledger, first, values


def traced_run(workload, seed: int, inputs: dict):
    """One untraced pass, then one pass under each probe; per-layer metrics."""
    import probes

    ledger = Ledger()
    harness, result, _setup, plain_s = one_pass(workload, seed, inputs, ledger, check=True)
    ndisks = len(harness.testbed.disks)
    del harness

    spans_harness, spans_result, _setup, spans_s = one_pass(
        workload, seed, inputs, ledger, tracing=True
    )
    metrics = probes.phase_metrics(
        spans_harness.testbed.collector.spans, spans_result.start["now"]
    )
    metrics["trace_overhead_x"] = spans_s / plain_s
    del spans_harness

    counts: Counter = Counter()
    _harness, count_result, _setup, _run = one_pass(
        workload, seed, inputs, ledger, probe=probes.counting_probes(counts)
    )
    metrics.update(probes.layer_metrics(count_result, counts, ndisks))
    del _harness

    profiler = cProfile.Profile()
    one_pass(workload, seed, inputs, ledger, probe=profiler)
    metrics.update(probes.profile_shares(profiler))
    return ledger, result, metrics


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is salted per interpreter, which reshapes dict and
        # set layouts and so moves peak memory by ~10%; pin it so runs compare.
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    inputs = workload.inputs(args.seed)

    print(
        f"workload {workload.name} ({workload.loop}); seed {args.seed}; "
        f"python {platform.python_version()}; nproc {os.cpu_count()}"
    )
    if args.trace:
        import probes

        ledger, first, values = traced_run(workload, args.seed, inputs)
        metrics = {}
        for name, unit in probes.UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:40s} {values[name]:14.6g} {unit}")
    else:
        ledger, first, values = timed_run(workload, args.seed, inputs, args.seconds)
        for name, unit, clock, _gated in END_TO_END:
            shown = f"{values[name]:14.6g}" if name in values else f"{'n/a':>14s}"
            print(f"  {name:20s} {shown} {unit:9s} {clock}")
        reference = first.detail.get("reference_kbps")
        if reference:
            error = (values["write_kbps"] - reference) / reference
            print(
                f"accuracy: write_kbps {values['write_kbps']:.1f} vs paper Table 3 "
                f"(7 biods, gathering) {reference} KB/s: error {error:+.1%}"
            )
        else:
            print("accuracy: no published reference for this workload; unvalidated")
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _clock, gated in END_TO_END
            if gated
        }
    for rung in first.detail.get("rungs", ()):
        print(
            f"  rung {rung['offered']:.0f} ops/s: achieved {rung['achieved']:.1f}, "
            f"mean {rung['mean_ms']:.2f} ms, refused {rung['refused']}"
        )
    print(f"sim_digest {' '.join(sorted(ledger.digests))}")
    print(
        f"oracle and fsck: {'clean' if not ledger.violations else ledger.violations[:3]}; "
        f"failed ops {ledger.failed}"
    )
    print(
        json.dumps(
            {
                "correct": ledger.correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed_total(),
                "metrics": metrics,
            }
        )
    )
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
