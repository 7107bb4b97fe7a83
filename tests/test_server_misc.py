"""Coverage for server internals: dispatch edges, CPU model, config."""

import pytest

from repro.experiments import Testbed, TestbedConfig
from repro.net import FDDI
from repro.rpc import RpcCall
from repro.server import Cpu, ServerConfig
from repro.sim import Environment
from repro.workload import write_file

KB = 1024


class TestDispatchEdges:
    def test_unknown_procedure_rejected(self):
        testbed = Testbed(TestbedConfig(netspec=FDDI))
        client_ep = testbed.segment.attach("raw-client")
        env = testbed.env
        replies = []

        def driver(env):
            call = RpcCall(xid=1, proc="frobnicate", args=None, size=160, client="raw-client")
            client_ep.send("server", call, call.size)
            datagram = yield client_ep.recv()
            replies.append(datagram.payload)

        env.run(until=env.process(driver(env)))
        assert replies[0].status == "EPROCUNAVAIL"

    def test_estale_for_unknown_fhandle(self):
        testbed = Testbed(TestbedConfig(netspec=FDDI))
        client_ep = testbed.segment.attach("raw-client")
        env = testbed.env
        replies = []

        def driver(env):
            call = RpcCall(
                xid=2, proc="getattr", args=(999, 0), size=160, client="raw-client"
            )
            client_ep.send("server", call, call.size)
            datagram = yield client_ep.recv()
            replies.append(datagram.payload)

        env.run(until=env.process(driver(env)))
        assert replies[0].status == "ESTALE"

    def test_op_latency_recorded_per_proc(self):
        testbed = Testbed(TestbedConfig(netspec=FDDI))
        client = testbed.add_client()
        env = testbed.env
        env.run(until=env.process(write_file(env, client, "f", 32 * KB)))
        assert testbed.server.ops_completed["write"].value == 4
        assert testbed.server.ops_completed["create"].value == 1
        assert testbed.server.write_latency.count == 4
        assert testbed.server.op_latency.count >= 5


class TestCpuModel:
    def test_single_core_serializes(self):
        env = Environment()
        cpu = Cpu(env)
        done = []

        def worker(env, name):
            yield cpu.consume(0.01)
            done.append((name, env.now))

        env.process(worker(env, "a"))
        env.process(worker(env, "b"))
        env.run()
        assert done[0][1] == pytest.approx(0.01)
        assert done[1][1] == pytest.approx(0.02)
        assert cpu.utilization() == pytest.approx(1.0)

    def test_two_cores_overlap(self):
        env = Environment()
        cpu = Cpu(env, cores=2)

        def worker(env):
            yield cpu.consume(0.01)

        env.process(worker(env))
        env.process(worker(env))
        env.run()
        assert env.now == pytest.approx(0.01)
        assert cpu.utilization() == pytest.approx(1.0)

    def test_zero_cost_is_free(self):
        env = Environment()
        cpu = Cpu(env)

        def worker(env):
            yield cpu.consume(0)
            return env.now

        proc = env.process(worker(env))
        env.run()
        assert proc.value == 0

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            Cpu(Environment(), cores=0)

    def test_cpu_scale_halves_utilization(self):
        from repro.experiments import run_filecopy

        base = run_filecopy(
            TestbedConfig(netspec=FDDI, write_path="standard", nbiods=7), file_mb=1
        )
        fast = run_filecopy(
            TestbedConfig(
                netspec=FDDI, write_path="standard", nbiods=7, cpu_scale=0.5
            ),
            file_mb=1,
        )
        assert fast.server_cpu_pct < 0.8 * base.server_cpu_pct


class TestServerConfig:
    def test_defaults_match_paper(self):
        config = ServerConfig()
        assert config.nfsds == 8
        assert config.socket_buffer_bytes == 256 * 1024
        assert config.write_path == "standard"

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(nfsds=0)
        with pytest.raises(ValueError):
            ServerConfig(write_path="magic")

    def test_reset_measurements(self):
        testbed = Testbed(TestbedConfig(netspec=FDDI))
        client = testbed.add_client()
        env = testbed.env
        env.run(until=env.process(write_file(env, client, "f", 32 * KB)))
        testbed.server.reset_measurements()
        assert testbed.server.ops_completed["write"].value == 0
        assert testbed.server.cpu.utilization() == 0.0

    def test_contended_cores_serve_fifo_with_one_timeout_per_hold(self):
        env = Environment()
        cpu = Cpu(env, cores=2)
        done = []

        def worker(env, name, seconds):
            yield cpu.consume(seconds)
            done.append((name, env.now))

        for name, seconds in (("a", 0.03), ("b", 0.01), ("c", 0.01), ("d", 0.01)):
            env.process(worker(env, name, seconds))
        env.run()
        # c takes b's core when b ends; d queues behind c, not ahead of it.
        assert done == [
            ("b", pytest.approx(0.01)),
            ("c", pytest.approx(0.02)),
            ("a", pytest.approx(0.03)),
            ("d", pytest.approx(0.03)),
        ]
        # Per worker: its start, one hold timeout and its end — no
        # request or grant events.
        assert env.events_scheduled == 4 * 3
        assert cpu.utilization() == pytest.approx(1.0)
