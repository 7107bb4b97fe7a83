"""The payload-fidelity contract: flyweight and full modes agree.

The flyweight :class:`~repro.payload.Extent` replaces per-write byte
copies with a (length, seed, base) stand-in.  Everything the simulator
*times* keys on ``len()`` alone, so the two modes must agree on every
simulated number — timestamps, acked-write accounting, latency
percentiles, disk totals — and differ only in whether the crash oracle
can byte-compare durable content.  These tests pin that contract.
"""

import pytest

from repro.experiments.bench import run_bench_cell
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.faults.campaign import ChaosCampaign, run_plan
from repro.faults.events import AtTime, FaultPlan, ServerCrash
from repro.faults.oracle import Oracle
from repro.net.spec import FDDI
from repro.payload import (
    PAYLOAD_FLYWEIGHT,
    PAYLOAD_FULL,
    Extent,
    ExtentChain,
    coerce_payload_mode,
    is_bytes_payload,
)
from repro.sim import AllOf
from repro.workload.sequential import patterned_chunk, patterned_extent, write_file


class TestExtent:
    def test_to_bytes_matches_patterned_chunk(self):
        for index in (0, 1, 7, 200):
            for size in (1, 8, 100, 8192):
                assert (
                    patterned_extent(index, size).to_bytes()
                    == patterned_chunk(index, size)
                )

    def test_slice_preserves_logical_bytes(self):
        extent = patterned_extent(3, 8192)
        whole = extent.to_bytes()
        for start, stop in ((0, 8192), (0, 100), (5, 13), (4000, 8192)):
            assert extent.slice(start, stop).to_bytes() == whole[start:stop]

    def test_len_and_payload_discrimination(self):
        assert len(Extent(512, seed=1)) == 512
        assert not is_bytes_payload(Extent(1, seed=0))
        assert is_bytes_payload(b"x") and is_bytes_payload(bytearray(b"x"))
        assert is_bytes_payload(memoryview(b"x"))

    def test_chain_concatenates(self):
        chain = ExtentChain()
        chain.append(patterned_extent(0, 100))
        chain.append(patterned_extent(1, 50).slice(10, 40))
        assert len(chain) == 130
        assert (
            chain.to_bytes()
            == patterned_chunk(0, 100) + patterned_chunk(1, 50)[10:40]
        )

    def test_coerce_rejects_unknown_modes(self):
        assert coerce_payload_mode("full") == PAYLOAD_FULL
        assert coerce_payload_mode("flyweight") == PAYLOAD_FLYWEIGHT
        with pytest.raises(ValueError):
            coerce_payload_mode("bogus")


class TestBenchCellAgreement:
    def test_every_simulated_number_identical_across_modes(self):
        config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=7, seed=0)
        full = run_bench_cell(config, file_mb=0.25, payload=PAYLOAD_FULL)
        fly = run_bench_cell(config, file_mb=0.25, payload=PAYLOAD_FLYWEIGHT)
        # sim_ops_per_sec is wall-clock-derived; everything else must match.
        full.pop("sim_ops_per_sec")
        fly.pop("sim_ops_per_sec")
        assert full == fly


def _crash_plan() -> FaultPlan:
    return FaultPlan(
        name="fidelity-crash",
        events=(ServerCrash(AtTime(0.03), reboot_delay=0.0),),
    )


def _config() -> TestbedConfig:
    return TestbedConfig(
        netspec=FDDI,
        write_path="gather",
        verify_stable=True,
        seed=0,
        tracing=True,
    )


class TestCrashContractAgreement:
    def test_run_plan_identical_results_and_clean_in_both_modes(self):
        results = {
            mode: run_plan(_config(), _crash_plan(), file_kb=64, payload=mode)
            for mode in (PAYLOAD_FULL, PAYLOAD_FLYWEIGHT)
        }
        for mode, result in results.items():
            assert result.clean, (mode, result.violations)
            assert result.crashes == 1
        assert (
            results[PAYLOAD_FULL].to_dict() == results[PAYLOAD_FLYWEIGHT].to_dict()
        )

    def test_acked_ranges_agree_under_crash(self):
        """The oracle's acked byte ranges — the durability promise — must
        be identical whether the workload wrote real bytes or extents."""
        oracles = {}
        for mode in (PAYLOAD_FULL, PAYLOAD_FLYWEIGHT):
            testbed = Testbed(_config())
            client = testbed.add_client()
            oracle = Oracle(testbed)
            oracle.attach(client)
            from repro.faults.controller import FaultController

            FaultController(testbed, _crash_plan(), oracle=oracle).start()
            env = testbed.env
            writers = [
                env.process(
                    write_file(
                        env, client, "fidelity", 64 * 1024, payload=mode
                    ),
                    name="writer",
                )
            ]
            env.run(until=AllOf(env, writers))
            env.run()
            assert not oracle.check("final")
            oracles[mode] = oracle
        full, fly = oracles[PAYLOAD_FULL], oracles[PAYLOAD_FLYWEIGHT]
        assert full.acked_writes == fly.acked_writes
        assert full.acked_byte_total() == fly.acked_byte_total()
        assert full.acked_inos() == fly.acked_inos()
        for ino in full.acked_inos():
            assert full._acked_runs(ino) == fly._acked_runs(ino)

    def test_chaos_campaign_clean_in_flyweight_mode(self):
        report = ChaosCampaign(
            seed=0,
            plans_per_combo=1,
            write_paths=("gather",),
            presto_modes=(False,),
            file_kb=64,
            payload=PAYLOAD_FLYWEIGHT,
        ).execute()
        assert report.clean, report.violations


class TestReplicaAgreement:
    def test_replica_report_identical_across_modes(self):
        from repro.cluster.fleet import ClusterConfig
        from repro.experiments import ExperimentSpec, run
        from repro.replica.experiment import ReplicaParams

        reports = {
            mode: run(
                ExperimentSpec(
                    "replica",
                    ReplicaParams(
                        cluster=ClusterConfig(servers=2, seed=0),
                        replica_counts=(0, 1),
                        clients=2,
                        files_per_client=1,
                        file_kb=32,
                        storm_crashes=1,
                        payload=mode,
                    ),
                )
            )
            for mode in (PAYLOAD_FULL, PAYLOAD_FLYWEIGHT)
        }
        for mode, report in reports.items():
            assert report.clean, (mode, [a.violations for a in report.arms])
        assert (
            reports[PAYLOAD_FULL].to_json() == reports[PAYLOAD_FLYWEIGHT].to_json()
        )
