"""Unit and property tests for the simulation kernel (events, processes)."""

import gc
import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, AnyOf, Environment, Interrupt, SimError


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.5)
        return "done"

    p = env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(3.5)
    assert p.value == "done"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimError):
        env.timeout(-1)


def test_processes_interleave_in_time_order():
    env = Environment()
    trace = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        trace.append((env.now, name))

    env.process(proc(env, "b", 2.0))
    env.process(proc(env, "a", 1.0))
    env.process(proc(env, "c", 3.0))
    env.run()
    assert trace == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_same_time_events_fire_in_insertion_order():
    env = Environment()
    trace = []

    def proc(env, name):
        yield env.timeout(1.0)
        trace.append(name)

    for name in ["first", "second", "third"]:
        env.process(proc(env, name))
    env.run()
    assert trace == ["first", "second", "third"]


def test_process_waits_on_another_process():
    env = Environment()

    def child(env):
        yield env.timeout(5)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        return result * 2

    p = env.process(parent(env))
    env.run()
    assert p.value == 84


def test_run_until_time_stops_early():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(10)
        fired.append(True)

    env.process(proc(env))
    env.run(until=5)
    assert env.now == 5
    assert not fired
    env.run()
    assert fired


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return "payload"

    p = env.process(proc(env))
    assert env.run(until=p) == "payload"
    assert env.now == 2


def test_run_until_past_time_rejected():
    env = Environment()

    def noop(env):
        yield env.timeout(1)

    env.process(noop(env))
    env.run()
    with pytest.raises(SimError):
        env.run(until=env.now - 1)


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimError):
        env.process(iter([]))  # a plain iterator is not a generator


def test_event_succeed_and_value():
    env = Environment()
    ev = env.event()
    results = []

    def waiter(env, ev):
        value = yield ev
        results.append(value)

    env.process(waiter(env, ev))
    ev.succeed("hello")
    env.run()
    assert results == ["hello"]
    assert ev.ok and ev.processed


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)
    with pytest.raises(SimError):
        ev.fail(ValueError("x"))


def test_failed_event_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env, ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env, ev))
    ev.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_crashes_the_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError):
        env.run()


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise KeyError("oops")

    def parent(env):
        try:
            yield env.process(bad(env))
        except KeyError:
            return "handled"

    p = env.process(parent(env))
    env.run()
    assert p.value == "handled"


def test_yield_non_event_fails_the_process():
    env = Environment()

    def bad(env):
        yield 42

    p = env.process(bad(env))
    with pytest.raises(SimError):
        env.run()
    assert not p.ok


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def interrupter(env, victim):
        yield env.timeout(3)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(3, "wake up")]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimError):
        p.interrupt()


def test_interrupted_process_can_resume_waiting():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            yield env.timeout(5)
            log.append(env.now)

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [7]


def test_all_of_collects_values():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        results = yield AllOf(env, [t1, t2])
        return sorted(results.values())

    p = env.process(proc(env))
    env.run()
    assert p.value == ["a", "b"]
    assert env.now == 2


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(10, value="slow")
        results = yield AnyOf(env, [t1, t2])
        return list(results.values())

    p = env.process(proc(env))
    env.run(until=p)
    assert p.value == ["fast"]
    assert env.now == 1


def test_any_of_empty_rejected():
    env = Environment()
    with pytest.raises(SimError):
        AnyOf(env, [])


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()

    def proc(env):
        t = env.timeout(1, value="x")
        yield env.timeout(5)
        value = yield t  # t fired long ago
        return (env.now, value)

    p = env.process(proc(env))
    env.run()
    assert p.value == (5, "x")


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_property_clock_is_monotonic_and_ends_at_max(delays):
    env = Environment()
    seen = []

    def proc(env, delay):
        yield env.timeout(delay)
        seen.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert seen == sorted(seen)
    assert env.now == pytest.approx(max(delays))
    assert len(seen) == len(delays)


@given(
    delays=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=30
    )
)
@settings(max_examples=50, deadline=None)
def test_property_sequential_delays_sum(delays):
    """A chain of timeouts inside one process ends at the sum of its delays."""
    env = Environment()

    def proc(env, pair):
        a, b = pair
        yield env.timeout(a)
        yield env.timeout(b)
        return env.now

    procs = [env.process(proc(env, pair)) for pair in delays]
    env.run()
    for pair, p in zip(delays, procs):
        assert p.value == pytest.approx(sum(pair))


def test_determinism_same_structure_same_trace():
    """Two identical runs produce identical event traces."""

    def build_and_run():
        env = Environment()
        trace = []

        def worker(env, name, period, count):
            for i in range(count):
                yield env.timeout(period)
                trace.append((env.now, name, i))

        env.process(worker(env, "x", 1.5, 5))
        env.process(worker(env, "y", 2.0, 4))
        env.process(worker(env, "z", 1.5, 5))
        env.run()
        return trace

    assert build_and_run() == build_and_run()


def test_fire_from_a_callback_resumes_the_waiter_inline():
    env = Environment()
    wakeup = env.event()
    seen = []

    def waiter(env):
        value = yield wakeup
        seen.append(("waiter", env.now, value))

    def relay(_event):
        wakeup.fire("go")
        # The waiter already ran, inside this callback.
        seen.append(("relay", env.now))

    env.process(waiter(env))
    env.timeout(2.0).callbacks.append(relay)
    queued_before = env.events_scheduled
    env.run()
    assert seen == [("waiter", 2.0, "go"), ("relay", 2.0)]
    assert wakeup.processed and wakeup.value == "go"
    # The fired event never went through the queue: only the waiter's
    # own end was scheduled after the timeout.
    assert env.events_scheduled == queued_before + 1


def test_fire_inside_a_running_process_raises():
    env = Environment()
    wakeup = env.event()
    errors = []

    def sleeper(env):
        yield wakeup

    def meddler(env):
        yield env.timeout(1.0)
        try:
            wakeup.fire()
        except SimError as exc:
            errors.append(str(exc))

    env.process(sleeper(env))
    env.process(meddler(env))
    env.run()
    assert len(errors) == 1 and "running" in errors[0]
    # The refused fire left the event pending for a legal trigger later.
    assert not wakeup.triggered


def test_fire_twice_rejected():
    env = Environment()
    event = env.event()
    event.fire(1)
    with pytest.raises(SimError):
        event.fire(2)
    with pytest.raises(SimError):
        event.succeed(3)


def test_events_scheduled_counts_queue_pushes_only():
    env = Environment()
    assert env.events_scheduled == 0
    env.timeout(1.0)
    env.event().succeed()
    env.event().fire()  # off the queue: not counted
    assert env.events_scheduled == 2
    with pytest.raises(AttributeError):
        env.events_scheduled = 0


# -- timer entries (Environment.call_later) ----------------------------------

_KINDS = ("timer", "sleep", "start", "succeed")


def _play(batches, timer_entries):
    """Run two batches of kernel operations, the second issued at t=1.

    Each operation records its label when it fires.  With
    ``timer_entries`` off, every timer is a Timeout with an appended
    callback instead of a call_later entry.
    """
    env = Environment()
    trace = []

    def later(delay, callback, arg):
        if timer_entries:
            env.call_later(delay, callback, arg)
        else:
            env.timeout(delay).callbacks.append(lambda _event: callback(arg))

    def record(label):
        trace.append((env.now, label))

    def sleeper(delay, label):
        yield env.timeout(delay)
        record(label)

    def starter(label):
        record(label)
        yield from ()

    def issue(batch):
        for index, (kind, delay) in enumerate(batch):
            label = f"{kind}{index}@{env.now}"
            if kind == "timer":
                later(delay, record, label)
            elif kind == "sleep":
                env.process(sleeper(delay, label))
            elif kind == "start":
                env.process(starter(label))
            else:
                event = env.event()
                event.callbacks.append(lambda _event, label=label: record(label))
                event.succeed()

    first, second = batches
    issue(first)
    later(1.0, issue, second)
    env.run()
    return trace, env.events_scheduled


def _model(batches):
    """The same operations on a plain (time, priority, insertion) heap."""
    heap, trace, ids = [], [], itertools.count(1)
    urgent, normal = 0, 1
    now = [0.0]

    def push(delay, priority, action):
        heapq.heappush(heap, (now[0] + delay, priority, next(ids), action))

    def record(label):
        return lambda: trace.append((now[0], label))

    def sleeper(delay, label):
        def woken():
            trace.append((now[0], label))
            push(0.0, normal, lambda: None)  # the process ends

        return lambda: push(delay, normal, woken)

    def starter(label):
        def started():
            trace.append((now[0], label))
            push(0.0, normal, lambda: None)

        return started

    def issue(batch):
        for index, (kind, delay) in enumerate(batch):
            label = f"{kind}{index}@{now[0]}"
            if kind == "timer":
                push(delay, normal, record(label))
            elif kind == "sleep":
                push(0.0, urgent, sleeper(delay, label))
            elif kind == "start":
                push(0.0, urgent, starter(label))
            else:
                push(0.0, normal, record(label))

    first, second = batches
    issue(first)
    push(1.0, normal, lambda: issue(second))
    while heap:
        now[0], _priority, _id, action = heapq.heappop(heap)
        action()
    return trace, next(ids) - 1


_OPS = st.lists(
    st.tuples(st.sampled_from(_KINDS), st.sampled_from([0.0, 0.5, 1.0])), max_size=12
)


@given(batches=st.tuples(_OPS, _OPS))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_property_timer_entries_keep_time_priority_insertion_order(batches):
    trace, scheduled = _play(batches, timer_entries=True)
    assert (trace, scheduled) == _model(batches)
    assert (trace, scheduled) == _play(batches, timer_entries=False)


def test_call_later_rejects_a_negative_delay():
    env = Environment()
    with pytest.raises(SimError):
        env.call_later(-0.5, print)
    assert env.events_scheduled == 0


def test_timer_callback_exception_escapes_run():
    env = Environment()

    def explode(arg):
        raise ValueError(arg)

    env.call_later(1.0, explode, "boom")
    with pytest.raises(ValueError, match="boom"):
        env.run()
    assert env.now == 1.0


def test_step_runs_a_timer_entry():
    env = Environment()
    seen = []
    env.call_later(2.0, seen.append, "tick")
    env.call_later(3.0, seen.append, "tock")
    env.step()
    assert seen == ["tick"] and env.now == 2.0 and env.peek() == 3.0


def test_events_scheduled_counts_each_timer_once():
    env = Environment()
    fired = []
    for delay in (0.0, 1.0, 1.0):
        env.call_later(delay, fired.append, delay)
    assert env.events_scheduled == 3
    env.run()
    assert fired == [0.0, 1.0, 1.0] and env.events_scheduled == 3


def test_process_started_now_runs_before_normal_events_queued_now():
    env = Environment()
    order = []
    done = env.event()
    done.callbacks.append(lambda _event: order.append("succeed"))
    done.succeed()
    env.call_later(0.0, order.append, "timer")

    def starter(env):
        order.append("process")
        yield from ()

    env.process(starter(env))
    env.run()
    assert order == ["process", "succeed", "timer"]


def test_finished_processes_leave_no_garbage_cycles():
    # A process holds its bound wakeup callback; that self-cycle must be
    # broken when the generator exits, or every finished process waits
    # for the cycle collector and peak memory grows with the run.
    gc.collect()
    gc.disable()
    try:
        env = Environment()

        def worker(env):
            yield env.timeout(1.0)

        for _ in range(20):
            env.process(worker(env))
        env.run()
        del env
        assert gc.collect() == 0
    finally:
        gc.enable()
