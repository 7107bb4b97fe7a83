"""The unified ``run(ExperimentSpec)`` front door and its kind registry."""

import os
import subprocess
import sys

import pytest

from repro.cluster.experiment import ClusterParams
from repro.cluster.fleet import ClusterConfig
from repro.experiments import EXPERIMENT_KINDS, ExperimentSpec, kind, run
from repro.experiments.bench import BenchParams
from repro.experiments.trace import TraceParams
from repro.faults.campaign import ChaosParams
from repro.payload import PAYLOAD_FLYWEIGHT, PAYLOAD_FULL
from repro.replica.experiment import ReplicaParams


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentSpec(kind="bogus")

    def test_new_kinds_accepted(self):
        for name in ("bench", "chaos", "cluster", "overload", "replica"):
            spec = ExperimentSpec(kind=name)
            assert spec.kind == name

    def test_payload_defaults_per_kind(self):
        assert BenchParams().payload == PAYLOAD_FLYWEIGHT
        assert ChaosParams().payload == PAYLOAD_FULL
        assert ReplicaParams().payload == PAYLOAD_FULL

    def test_file_kb_defaults_per_kind(self):
        assert TraceParams().file_kb == 256
        assert ChaosParams().file_kb == 192
        assert ClusterParams().file_kb == 64
        assert ClusterParams(file_kb=128).file_kb == 128

    def test_cluster_and_replica_require_config(self):
        # Both take their params dataclass; a bare ClusterConfig is
        # rejected with a message naming both types.
        with pytest.raises(TypeError, match="ClusterConfig"):
            ExperimentSpec(kind="cluster", config=ClusterConfig())
        with pytest.raises(TypeError, match="ClusterConfig"):
            ExperimentSpec(kind="replica", config=ClusterConfig())


class TestRegistryContract:
    """One contract body, asserted for every registered kind."""

    @pytest.mark.parametrize("name", EXPERIMENT_KINDS)
    def test_registered_under_its_name(self, name):
        assert kind(name).name == name

    @pytest.mark.parametrize("name", EXPERIMENT_KINDS)
    def test_default_params_construct(self, name):
        spec = ExperimentSpec(kind=name, config=kind(name).params())
        assert spec.config == kind(name).params()

    @pytest.mark.parametrize("name", EXPERIMENT_KINDS)
    def test_wrong_config_type_rejected(self, name):
        with pytest.raises(TypeError, match=kind(name).params.__name__):
            ExperimentSpec(kind=name, config=object())

    def test_copy_imports_no_subsystem_stack(self):
        # The testbed itself uses the overload retry/admission and the
        # integrity checksum layers; what a copy must not pull in is any
        # other kind's experiment module or the fleet-level packages.
        script = (
            "import sys\n"
            "from repro.experiments import ExperimentSpec, run\n"
            "from repro.experiments.filecopy import CopyParams\n"
            "run(ExperimentSpec(kind='copy', config=CopyParams(file_mb=0.01)))\n"
            "fleet = ('cluster', 'replica', 'lease', 'commit', 'tiering', 'faults')\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.') and (\n"
            "    m.endswith('.experiment') or m.split('.')[1] in fleet)))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"


class TestFacadeKinds:
    def test_bench_kind(self):
        report = run(ExperimentSpec(kind="bench", config=BenchParams(file_mb=0.125)))
        assert report["schema"] == "repro.bench/1"
        assert report["payload"] == PAYLOAD_FLYWEIGHT
        assert len(report["cells"]) == 8

    def test_chaos_kind(self):
        params = ChaosParams(
            plans=1, write_paths=("standard",), presto_modes=(False,), file_kb=64
        )
        report = run(ExperimentSpec(kind="chaos", config=params))
        assert len(report.results) == 1
        assert report.clean, report.violations

    def test_cluster_kind_single_cell(self):
        params = ClusterParams(
            cluster=ClusterConfig(servers=2, seed=0),
            clients=2, files_per_client=1, file_kb=32,
        )
        result = run(ExperimentSpec(kind="cluster", config=params))
        assert result.servers == 2
        assert result.clean, result.violations

    def test_cluster_kind_sweep(self):
        params = ClusterParams(
            cluster=ClusterConfig(servers=1, seed=0),
            server_counts=[1, 2], client_counts=[2],
            files_per_client=1, file_kb=32,
        )
        sweep = run(ExperimentSpec(kind="cluster", config=params))
        assert [row.servers for row in sweep.rows] == [1, 2]
        assert sweep.clean

    def test_replica_kind(self):
        params = ReplicaParams(
            cluster=ClusterConfig(servers=2, seed=0),
            replica_counts=(0,), clients=2, files_per_client=1,
            file_kb=32, storm_crashes=1,
        )
        result = run(ExperimentSpec(kind="replica", config=params))
        assert [arm.replicas for arm in result.arms] == [0]
        assert result.clean

    def test_overload_kind(self):
        from repro.overload.experiment import OverloadConfig

        report = run(
            ExperimentSpec(
                kind="overload",
                config=OverloadConfig(
                    write_paths=("standard",), presto_modes=(False,),
                    modes=("adaptive",), clients=2, duration=0.5,
                    loads=(16000, 48000),
                ),
            )
        )
        assert len(report.combos) == 1
