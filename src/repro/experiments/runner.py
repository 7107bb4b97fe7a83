"""One front door for every experiment: ``run(ExperimentSpec)``.

Callers — the CLI above all — describe *what* to run with an
:class:`ExperimentSpec`, a kind name plus that kind's params dataclass,
and let :func:`run` dispatch::

    from repro.experiments import ExperimentSpec, run
    from repro.experiments.filecopy import CopyParams
    metrics = run(ExperimentSpec(
        kind="copy", config=CopyParams(testbed=TestbedConfig(write_path="gather"))))

``config=None`` runs the kind's params defaults.  Each kind is declared
once, in its home module, by decorating its run function with
:func:`register`; the registry imports a home module only when its kind
is first asked for, so ``run(ExperimentSpec(kind="copy"))`` never pays
for the cluster/overload/lease/commit/integrity/tiering stacks.

======== =========================== ============================ =====================
kind     params                      drives                       returns
======== =========================== ============================ =====================
copy     CopyParams                  one file-copy cell           FileCopyMetrics
table    TableParams                 one of the paper's Tables    TableResult
curve    CurveParams                 a Figure 2/3 LADDIS curve    LaddisCurve
sweep    SweepParams                 one TestbedConfig field      list of
                                     over several values          FileCopyMetrics
trace    TraceParams                 the Figure 1 timelines       dict
bench    BenchParams                 the perf-baseline grid       dict
chaos    ChaosParams                 a seeded fault campaign      CampaignReport
cluster  ClusterParams               the sharded fleet (single    ClusterRunResult /
                                     cell or scaling sweep)       ScalingSweepResult
overload OverloadConfig              goodput vs load past         OverloadReport
                                     saturation
replica  ReplicaParams               K-replication cost +         ReplicaRunResult
                                     promote storm
cache    CacheConfig                 lease-cache TTL x sharing    CacheReport
commit   CommitConfig                async WRITE+COMMIT           CommitReport
                                     three-way comparison
scrub    ScrubConfig                 corruption x bandwidth x K   ScrubRunResult
tiering  TieringConfig               placement sweep + storm      TieringRunResult
======== =========================== ============================ =====================
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict, Optional

__all__ = ["ExperimentSpec", "Kind", "run", "kind", "register", "EXPERIMENT_KINDS"]

#: kind -> the module that declares it (imported on first use).
_HOMES = {
    "copy": "repro.experiments.filecopy",
    "table": "repro.experiments.tables",
    "curve": "repro.experiments.laddis_curves",
    "sweep": "repro.experiments.sweep",
    "trace": "repro.experiments.trace",
    "bench": "repro.experiments.bench",
    "chaos": "repro.faults.campaign",
    "cluster": "repro.cluster.experiment",
    "overload": "repro.overload.experiment",
    "replica": "repro.replica.experiment",
    "cache": "repro.lease.experiment",
    "commit": "repro.commit.experiment",
    "scrub": "repro.integrity.experiment",
    "tiering": "repro.tiering.experiment",
}

EXPERIMENT_KINDS = tuple(_HOMES)


@dataclass(frozen=True)
class Kind:
    """One registered experiment kind: its params type and run function.

    ``run(params, progress)`` returns the kind's result; ``progress`` is
    an optional per-item callback (CLI progress lines).
    """

    name: str
    params: type
    run: Callable


_REGISTRY: Dict[str, Kind] = {}


def register(name: str, params: type) -> Callable:
    """Decorator: declare ``name`` as a kind run by the decorated function."""

    def decorate(run_fn: Callable) -> Callable:
        _REGISTRY[name] = Kind(name, params, run_fn)
        return run_fn

    return decorate


def kind(name: str) -> Kind:
    """The registered :class:`Kind` called ``name`` (imports its home)."""
    if name not in _HOMES:
        raise ValueError(
            f"unknown experiment kind {name!r}; "
            f"expected one of {', '.join(EXPERIMENT_KINDS)}"
        )
    import_module(_HOMES[name])
    return _REGISTRY[name]


@dataclass
class ExperimentSpec:
    """What to run: a kind, its params (None = defaults), and an optional
    per-item progress callback."""

    kind: str
    config: Optional[object] = None
    progress: Optional[Callable] = None

    def __post_init__(self) -> None:
        params = kind(self.kind).params
        if self.config is not None and not isinstance(self.config, params):
            raise TypeError(
                f"kind={self.kind!r} takes a {params.__name__} config, "
                f"not {type(self.config).__name__}"
            )


def run(spec: ExperimentSpec):
    """Run the experiment ``spec`` describes; returns the kind's result.

    See the module docstring for the kind → params → return-type table.
    """
    entry = kind(spec.kind)
    config = spec.config if spec.config is not None else entry.params()
    return entry.run(config, spec.progress)
