"""Tests for the workload generators: sequential, random, dumb PC, LADDIS."""

import pytest

from repro.experiments import Testbed, TestbedConfig
from repro.net import ETHERNET, FDDI
from repro.workload import (
    DUMB_PC_THINK_TIME,
    SFS_MIX,
    LaddisGenerator,
    patterned_chunk,
    write_file,
    write_random,
)

KB = 1024
MB = 1 << 20


class TestPatternedChunk:
    def test_exact_size(self):
        assert len(patterned_chunk(0, 8192)) == 8192
        assert len(patterned_chunk(3, 100)) == 100

    def test_distinct_per_index(self):
        assert patterned_chunk(0) != patterned_chunk(1)

    def test_deterministic(self):
        assert patterned_chunk(7) == patterned_chunk(7)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            patterned_chunk(0, 0)


class TestWriteFile:
    def test_writes_expected_bytes(self):
        testbed = Testbed(TestbedConfig(netspec=FDDI, write_path="gather"))
        client = testbed.add_client()
        env = testbed.env
        proc = env.process(write_file(env, client, "wf", 100_000))
        env.run(until=proc)
        assert proc.value > 0
        ufs = testbed.server.ufs
        assert ufs.inodes[ufs.root.entries["wf"]].size == 100_000

    def test_remove_first_replaces_existing(self):
        testbed = Testbed(TestbedConfig(netspec=FDDI))
        client = testbed.add_client()
        env = testbed.env

        def driver(env):
            yield from write_file(env, client, "wf", 16 * KB)
            yield from write_file(env, client, "wf", 8 * KB, remove_first=True)

        env.run(until=env.process(driver(env)))
        ufs = testbed.server.ufs
        assert ufs.inodes[ufs.root.entries["wf"]].size == 8 * KB

    def test_rejects_empty(self):
        testbed = Testbed(TestbedConfig())
        client = testbed.add_client()
        with pytest.raises(ValueError):
            next(write_file(testbed.env, client, "wf", 0))


class TestWriteRandom:
    def test_rewrites_random_blocks(self):
        testbed = Testbed(TestbedConfig(netspec=FDDI, write_path="gather"))
        client = testbed.add_client()
        env = testbed.env
        proc = env.process(write_random(env, client, "rr", 256 * KB, writes=16, seed=9))
        env.run(until=proc)
        assert proc.value > 0

    def test_same_seed_same_elapsed(self):
        def run(seed):
            testbed = Testbed(TestbedConfig(netspec=FDDI))
            client = testbed.add_client()
            env = testbed.env
            proc = env.process(
                write_random(env, client, "rr", 128 * KB, writes=8, seed=seed)
            )
            env.run(until=proc)
            return proc.value

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_file_must_hold_a_record(self):
        testbed = Testbed(TestbedConfig())
        client = testbed.add_client()
        with pytest.raises(ValueError):
            next(write_random(testbed.env, client, "rr", 100, writes=1))


class TestDumbPc:
    def test_has_no_biods(self):
        testbed = Testbed(TestbedConfig(netspec=ETHERNET))
        pc = testbed.add_client(nbiods=0, host="pc")
        assert pc.nbiods == 0

    def test_slow_client_loss_fades(self):
        """§6.10: 'This loss decreases in significance as slower clients
        are used' — with a 20 ms think time the gathering penalty is
        within a few percent."""

        def run(write_path):
            testbed = Testbed(
                TestbedConfig(netspec=ETHERNET, write_path=write_path, nbiods=0)
            )
            client = testbed.add_client()
            env = testbed.env
            proc = env.process(
                write_file(
                    env, client, "slow", 256 * KB, think_time=DUMB_PC_THINK_TIME
                )
            )
            env.run(until=proc)
            return 256 * KB / proc.value

        std, gat = run("standard"), run("gather")
        assert gat > 0.85 * std  # much better than the fast client's 15% hit


class TestLaddisGenerator:
    def make(self, write_path="standard", **kwargs):
        testbed = Testbed(
            TestbedConfig(netspec=FDDI, write_path=write_path, stripes=4, nfsds=16)
        )
        generator = LaddisGenerator(
            testbed,
            clients=2,
            procs_per_client=2,
            file_count=8,
            file_blocks=4,
            seed=11,
            **kwargs,
        )
        return testbed, generator

    def test_mix_sums_to_one(self):
        assert sum(weight for _op, weight in SFS_MIX) == pytest.approx(1.0)

    def test_setup_creates_working_set(self):
        testbed, generator = self.make()
        env = testbed.env
        env.run(until=env.process(generator.setup()))
        ufs = testbed.server.ufs
        assert len([n for n in ufs.root.entries if n.startswith("laddis.")]) == 8

    def test_run_point_measures_achieved_and_latency(self):
        testbed, generator = self.make()
        env = testbed.env
        env.run(until=env.process(generator.setup()))
        point = env.process(generator.run_point(100.0, duration=2.0, warmup=0.5))
        result = env.run(until=point)
        assert result.offered_ops == 100.0
        assert 50 < result.achieved_ops < 150
        assert result.avg_latency_ms > 0
        assert result.op_counts  # a mix of operations ran

    def test_mix_roughly_respected(self):
        testbed, generator = self.make()
        env = testbed.env
        env.run(until=env.process(generator.setup()))
        point = env.process(generator.run_point(300.0, duration=3.0, warmup=0.5))
        result = env.run(until=point)
        total = sum(result.op_counts.values())
        lookup_share = result.op_counts.get("lookup", 0) / total
        write_share = result.op_counts.get("write", 0) / total
        assert 0.20 <= lookup_share <= 0.48
        assert 0.05 <= write_share <= 0.30

    def test_run_point_requires_setup(self):
        testbed, generator = self.make()
        with pytest.raises(RuntimeError):
            next(generator.run_point(100.0))

    def test_invalid_load_rejected(self):
        testbed, generator = self.make()
        env = testbed.env
        env.run(until=env.process(generator.setup()))
        with pytest.raises(ValueError):
            next(generator.run_point(0))

    def test_invalid_client_counts(self):
        testbed = Testbed(TestbedConfig(netspec=FDDI))
        with pytest.raises(ValueError):
            LaddisGenerator(testbed, clients=0)
