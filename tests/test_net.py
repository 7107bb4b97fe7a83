"""Tests for the network substrate: specs, segments, socket buffers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ETHERNET, FDDI, Datagram, Segment, SocketBuffer
from repro.sim import Environment

KB = 1024


class TestNetSpec:
    def test_ethernet_fragments_8k_write_into_six(self):
        assert ETHERNET.frames_for(8 * KB + 160) == 6

    def test_fddi_fragments_8k_write_into_two(self):
        assert FDDI.frames_for(8 * KB + 160) == 2

    def test_small_request_single_frame(self):
        assert ETHERNET.frames_for(120) == 1

    def test_wire_time_scales_with_size(self):
        assert ETHERNET.wire_time(8 * KB) > 10 * ETHERNET.wire_time(512)

    def test_fddi_is_faster(self):
        assert FDDI.wire_time(8 * KB) < ETHERNET.wire_time(8 * KB) / 5

    def test_gather_intervals_match_paper(self):
        assert ETHERNET.gather_interval == pytest.approx(0.008)
        assert FDDI.gather_interval == pytest.approx(0.005)

    def test_zero_payload_rejected(self):
        with pytest.raises(ValueError):
            ETHERNET.frames_for(0)


class TestSegment:
    def test_delivery(self):
        env = Environment()
        segment = Segment(env, ETHERNET)
        segment.attach("client")
        server = segment.attach("server")
        received = []

        def receiver(env):
            datagram = yield server.recv()
            received.append((env.now, datagram.payload))

        def sender(env):
            yield env.timeout(0)
            segment.endpoint("client").send("server", "hello", 200)

        env.process(receiver(env))
        env.process(sender(env))
        env.run()
        assert len(received) == 1
        when, payload = received[0]
        assert payload == "hello"
        # one frame: (200+42)*8/10Mb = ~0.19ms, plus latency 0.4ms
        assert when == pytest.approx((200 + 42) * 8 / 10e6 + ETHERNET.latency)

    def test_unknown_destination_rejected(self):
        env = Environment()
        segment = Segment(env, ETHERNET)
        client = segment.attach("client")
        with pytest.raises(ValueError):
            client.send("nobody", "x", 100)

    def test_duplicate_attach_rejected(self):
        env = Environment()
        segment = Segment(env, ETHERNET)
        segment.attach("host")
        with pytest.raises(ValueError):
            segment.attach("host")

    def test_shared_medium_serializes_senders(self):
        """Two hosts sending big datagrams at once: total time ~ sum."""
        env = Environment()
        segment = Segment(env, ETHERNET)
        a = segment.attach("a")
        b = segment.attach("b")
        sink = segment.attach("sink")
        done = []

        def receiver(env):
            for _ in range(2):
                datagram = yield sink.recv()
                done.append((env.now, datagram.src))

        def sender(env, endpoint):
            yield env.timeout(0)
            endpoint.send("sink", "bulk", 8 * KB)

        env.process(receiver(env))
        env.process(sender(env, a))
        env.process(sender(env, b))
        env.run()
        assert len(done) == 2
        single = ETHERNET.wire_time(8 * KB)
        assert done[-1][0] >= 2 * single * 0.9

    def test_full_socket_buffer_drops(self):
        env = Environment()
        segment = Segment(env, ETHERNET)
        client = segment.attach("client")
        segment.attach("server", buffer_bytes=10 * KB)

        def sender(env):
            yield env.timeout(0)
            for _ in range(5):
                client.send("server", "w", 4 * KB)

        env.process(sender(env))
        env.run()
        assert segment.dropped.value >= 1
        assert segment.delivered.value <= 3

    def test_loss_rate_loses_frames(self):
        env = Environment()
        segment = Segment(env, ETHERNET, loss_rate=0.5, seed=42)
        client = segment.attach("client")
        segment.attach("server")

        def sender(env):
            yield env.timeout(0)
            for _ in range(40):
                client.send("server", "w", 2 * KB)

        env.process(sender(env))
        env.run()
        assert segment.lost.value > 0
        assert segment.delivered.value > 0
        assert segment.lost.value + segment.delivered.value == 40

    def test_bad_loss_rate_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Segment(env, ETHERNET, loss_rate=1.5)

    def test_wire_utilization_measured(self):
        env = Environment()
        segment = Segment(env, ETHERNET)
        client = segment.attach("client")
        segment.attach("server")

        def sender(env):
            yield env.timeout(0)
            client.send("server", "bulk", 8 * KB)

        env.process(sender(env))
        env.run()
        assert 0.5 < segment.utilization.utilization() <= 1.0


class TestSocketBuffer:
    def test_byte_capacity(self):
        env = Environment()
        buffer = SocketBuffer(env, capacity_bytes=10 * KB)
        assert buffer.try_put(Datagram("a", "b", 1, 6 * KB))
        assert not buffer.try_put(Datagram("a", "b", 2, 6 * KB))
        assert buffer.try_put(Datagram("a", "b", 3, 4 * KB))
        assert buffer.used_bytes == 10 * KB

    def test_steal_and_scan(self):
        env = Environment()
        buffer = SocketBuffer(env, capacity_bytes=100 * KB)
        for i in range(5):
            buffer.try_put(Datagram("c", "s", {"op": "write" if i % 2 else "read", "i": i}, KB))
        writes = buffer.scan(lambda d: d.payload["op"] == "write")
        assert [d.payload["i"] for d in writes] == [1, 3]
        stolen = buffer.steal(lambda d: d.payload["op"] == "write")
        assert stolen.payload["i"] == 1
        assert buffer.used_bytes == 4 * KB
        assert len(buffer) == 4

    def test_get_blocks_until_put(self):
        env = Environment()
        buffer = SocketBuffer(env, capacity_bytes=10 * KB)
        times = []

        def getter(env):
            datagram = yield buffer.get()
            times.append((env.now, datagram.payload))

        def putter(env):
            yield env.timeout(3)
            buffer.try_put(Datagram("a", "b", "late", KB))

        env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert times == [(3, "late")]

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            SocketBuffer(env, capacity_bytes=0)


@given(
    sizes=st.lists(st.integers(100, 9000), min_size=1, max_size=30),
    spec=st.sampled_from([ETHERNET, FDDI]),
)
@settings(max_examples=40, deadline=None)
def test_property_all_sent_datagrams_arrive_in_order(sizes, spec):
    """Lossless segment: every datagram arrives, FIFO per sender."""
    env = Environment()
    segment = Segment(env, spec)
    client = segment.attach("client")
    server = segment.attach("server", buffer_bytes=100_000_000)
    got = []

    def sender(env):
        yield env.timeout(0)
        for i, size in enumerate(sizes):
            client.send("server", i, size)

    def receiver(env):
        for _ in sizes:
            datagram = yield server.recv()
            got.append(datagram.payload)

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert got == list(range(len(sizes)))


class TestCallbackMedium:
    """The medium is driven by frame-end callbacks; these pin the model it
    must keep: FIFO per-frame interleaving, exact frame times, and every
    fault counter."""

    @staticmethod
    def traced_segment(**kwargs):
        from repro.obs import RecordingCollector, install

        env = Environment()
        collector = install(env, RecordingCollector())
        return env, collector, Segment(env, ETHERNET, **kwargs)

    def test_same_instant_senders_interleave_frame_by_frame(self):
        from repro.obs import PHASE_WIRE, Trace

        env, collector, segment = self.traced_segment()
        a = segment.attach("a")
        b = segment.attach("b")
        sink = segment.attach("sink")
        size = 3 * ETHERNET.mtu
        assert ETHERNET.frames_for(size) == 3
        arrivals = []

        def receiver(env):
            for _ in range(2):
                datagram = yield sink.recv()
                arrivals.append((datagram.src, env.now))

        def sender(env, endpoint, trace_id):
            yield env.timeout(0)
            payload = type("Payload", (), {})()
            payload.trace = Trace(trace_id=trace_id, proc="write", client=endpoint.host)
            endpoint.send("sink", payload, size)

        env.process(receiver(env))
        env.process(sender(env, a, 1))
        env.process(sender(env, b, 2))
        env.run()

        frame = (ETHERNET.mtu + ETHERNET.frame_overhead) * 8.0 / ETHERNET.bandwidth_bps
        expected = []
        now = 0.0
        for index in range(3):
            for src in ("a", "b"):  # FIFO: a asked first, then b, then a again
                expected.append((src, index, now, now + frame))
                now = now + frame
        wire = [
            (span.attrs["src"], span.attrs["frame"], span.start, span.end)
            for span in collector.spans
            if span.name == PHASE_WIRE
        ]
        assert wire == expected
        # Each datagram propagates from the end of its last frame.
        assert arrivals == [
            ("a", expected[4][3] + ETHERNET.latency),
            ("b", expected[5][3] + ETHERNET.latency),
        ]
        assert segment.bytes_moved.value == 6 * (ETHERNET.mtu + ETHERNET.frame_overhead)
        assert segment.utilization.utilization() == pytest.approx(6 * frame / env.now)

    def test_waiting_hosts_get_the_medium_first_come_first_served(self):
        from repro.obs import PHASE_WIRE, Trace

        env, collector, segment = self.traced_segment()
        hosts = [segment.attach(name) for name in ("a", "b", "c")]
        segment.attach("sink")

        def sender(env, endpoint):
            yield env.timeout(0)
            payload = type("Payload", (), {})()
            payload.trace = Trace(trace_id=1, proc="write", client=endpoint.host)
            endpoint.send("sink", payload, 2 * ETHERNET.mtu)

        for endpoint in hosts:
            env.process(sender(env, endpoint))
        env.run()
        order = [span.attrs["src"] for span in collector.spans if span.name == PHASE_WIRE]
        # a re-queues behind c after its first frame, not ahead of it.
        assert order == ["a", "b", "c", "a", "b", "c"]

    def test_loss_and_reorder_draw_in_the_old_order(self):
        """Loss is drawn per frame at its end; reorder per datagram when
        its delivery is scheduled, and only if no frame was lost."""
        import random

        env, _collector, segment = self.traced_segment(loss_rate=0.3, seed=11)
        segment.set_reorder(0.4, 0.01)
        client = segment.attach("client")
        segment.attach("server", buffer_bytes=1 << 20)
        count, size = 30, 2 * ETHERNET.mtu

        def sender(env):
            yield env.timeout(0)
            for index in range(count):
                client.send("server", index, size)

        env.process(sender(env))
        env.run()

        rng = random.Random(11)
        lost = reordered = 0
        for _ in range(count):
            hit = [rng.random() < 0.3 for _frame in range(2)]
            if any(hit):
                lost += 1
            elif rng.random() < 0.4:
                reordered += 1
        assert (segment.lost.value, segment.reordered.value) == (lost, reordered)
        assert segment.delivered.value == count - lost
        assert segment.bytes_moved.value == count * (size + 2 * ETHERNET.frame_overhead)

    def test_duplicates_arrive_twice_and_are_counted(self):
        import random

        env, _collector, segment = self.traced_segment(seed=5)
        segment.set_duplicate_rate(0.5)
        client = segment.attach("client")
        server = segment.attach("server", buffer_bytes=1 << 20)
        count = 20

        def sender(env):
            yield env.timeout(0)
            for index in range(count):
                client.send("server", index, 100)

        env.process(sender(env))
        env.run()

        rng = random.Random(5)
        duplicated = sum(rng.random() < 0.5 for _ in range(count))
        assert 0 < duplicated < count
        assert segment.duplicated.value == duplicated
        assert segment.delivered.value == count + duplicated
        assert len(server.inbox) == count + duplicated

    def test_partition_spends_wire_time_but_delivers_nothing(self):
        env, _collector, segment = self.traced_segment()
        client = segment.attach("client")
        server = segment.attach("server")
        segment.partition("server")

        def exchange(env):
            yield env.timeout(0)
            client.send("server", "to", 4 * KB)
            server.send("client", "from", 4 * KB)

        env.process(exchange(env))
        env.run()
        assert segment.partition_drops.value == 2
        assert segment.delivered.value == 0
        assert segment.bytes_moved.value > 8 * KB
        segment.heal("server")
        client.send("server", "again", 100)
        env.run()
        assert segment.delivered.value == 1


class TestSocketBufferHandoff:
    def test_arrival_wakes_a_parked_reader_at_the_arrival_instant(self):
        env = Environment()
        segment = Segment(env, ETHERNET)
        client = segment.attach("client")
        server = segment.attach("server")
        woke = []

        def reader(env):
            datagram = yield server.recv()
            woke.append((env.now, datagram.arrived_at, len(server.inbox)))

        env.process(reader(env))
        client.send("server", "ping", 200)
        env.run()
        arrival = (200 + ETHERNET.frame_overhead) * 8 / ETHERNET.bandwidth_bps + ETHERNET.latency
        assert woke == [(pytest.approx(arrival), pytest.approx(arrival), 0)]

    def test_get_with_datagrams_queued_still_goes_through_the_queue(self):
        """A get() that finds datagrams waiting returns a triggered but
        *pending* event: the reader resumes only after the events already
        due at this instant.  The hop is part of the model, not overhead:
        handing the datagram over synchronously lets nfsds drain the
        socket buffer ahead of same-instant client and biod work.  In the
        busy-network run of test_biod_rule_of_thumb.py that lifts 23
        biods per client to 437 KB/s against 308 KB/s with 7, and §9's
        rule of thumb no longer holds."""
        env = Environment()
        buffer = SocketBuffer(env, capacity_bytes=10 * KB)
        assert buffer.try_put(Datagram("c", "s", "queued", KB))
        order = []

        def reader(env):
            yield env.timeout(1)
            event = buffer.get()
            order.append(("got event", event.triggered, event.processed))
            datagram = yield event
            order.append(("reader resumed", datagram.payload))

        def same_instant_work(env):
            yield env.timeout(1)
            order.append(("same-instant work", len(buffer)))

        env.process(reader(env))
        env.process(same_instant_work(env))
        env.run()
        assert order == [
            ("got event", True, False),
            ("same-instant work", 0),
            ("reader resumed", "queued"),
        ]
