"""Tests for the measurement helpers (Tally, Counter, TimeWeighted, meters)."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Counter, Environment, SimError, Tally, TimeWeighted, UtilizationMeter


def test_tally_basic_stats():
    tally = Tally()
    for value in [1.0, 2.0, 3.0, 4.0]:
        tally.observe(value)
    assert tally.count == 4
    assert tally.mean == pytest.approx(2.5)
    assert tally.min == 1.0
    assert tally.max == 4.0
    assert tally.total == 10.0
    assert tally.variance == pytest.approx(1.25)


def test_tally_empty_mean_is_zero():
    assert Tally().mean == 0.0


def test_tally_percentiles():
    tally = Tally(keep_samples=True)
    for value in range(1, 101):
        tally.observe(float(value))
    assert tally.percentile(0.5) == 50.0
    assert tally.percentile(0.99) == 99.0
    assert tally.percentile(1.0) == 100.0
    assert tally.percentile(0.0) == 1.0


def test_tally_percentile_requires_samples():
    tally = Tally()
    tally.observe(1.0)
    with pytest.raises(SimError):
        tally.percentile(0.5)


def test_tally_first_sample_is_both_bounds():
    tally = Tally()
    assert tally.min is None and tally.max is None
    tally.observe(7.5)
    assert tally.min == 7.5 and tally.max == 7.5


def test_tally_equal_samples_keep_the_first_bound():
    # 0.0 == -0.0: like builtin min()/max(), a tie keeps the bound it has.
    tally = Tally()
    for value in (0.0, -0.0, 0.0, -0.0):
        tally.observe(value)
    assert math.copysign(1.0, tally.min) == 1.0
    assert math.copysign(1.0, tally.max) == 1.0
    tally = Tally()
    tally.observe(-0.0)
    tally.observe(0.0)
    assert math.copysign(1.0, tally.min) == -1.0
    assert math.copysign(1.0, tally.max) == -1.0


def test_tally_negative_samples():
    tally = Tally()
    for value in (-3.0, -1.0, -7.0, -2.0):
        tally.observe(value)
    assert tally.min == -7.0
    assert tally.max == -1.0


def _signed(value):
    return value, math.copysign(1.0, value)


_TIES = st.sampled_from([0.0, -0.0, 1.5, -1.5, 3.0])


@given(values=st.lists(_TIES | st.floats(-1e6, 1e6), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_property_tally_bounds_match_builtin_min_max(values):
    tally = Tally()
    for value in values:
        tally.observe(value)
    assert _signed(tally.min) == _signed(functools.reduce(min, values))
    assert _signed(tally.max) == _signed(functools.reduce(max, values))


@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_property_tally_mean_matches_naive(values):
    tally = Tally()
    for value in values:
        tally.observe(value)
    assert tally.mean == pytest.approx(sum(values) / len(values), abs=1e-6, rel=1e-9)


def test_counter_rate():
    env = Environment()
    counter = Counter(env)

    def proc(env):
        for _ in range(10):
            yield env.timeout(1)
            counter.add(5)

    env.process(proc(env))
    env.run()
    assert counter.value == 50
    assert counter.rate() == pytest.approx(5.0)


def test_counter_reset():
    env = Environment()
    counter = Counter(env)
    counter.add(10)

    def proc(env):
        yield env.timeout(2)
        counter.reset()
        yield env.timeout(4)
        counter.add(8)

    env.process(proc(env))
    env.run()
    assert counter.rate() == pytest.approx(2.0)


def test_counter_rejects_negative():
    env = Environment()
    with pytest.raises(SimError):
        Counter(env).add(-1)


def test_time_weighted_mean():
    env = Environment()
    level = TimeWeighted(env, initial=0)

    def proc(env):
        yield env.timeout(10)  # 0 for 10s
        level.set(4)
        yield env.timeout(10)  # 4 for 10s

    env.process(proc(env))
    env.run()
    assert level.mean() == pytest.approx(2.0)


def test_time_weighted_adjust():
    env = Environment()
    level = TimeWeighted(env, initial=1)
    level.adjust(2)
    assert level.value == 3


def test_utilization_meter_simple():
    env = Environment()
    meter = UtilizationMeter(env)

    def proc(env):
        meter.begin()
        yield env.timeout(3)
        meter.end()
        yield env.timeout(7)

    env.process(proc(env))
    env.run()
    assert env.now == 10
    assert meter.utilization() == pytest.approx(0.3)


def test_utilization_meter_overlapping_intervals():
    """Two overlapping busy intervals count wall-clock busy time once."""
    env = Environment()
    meter = UtilizationMeter(env)

    def user(env, start, duration):
        yield env.timeout(start)
        meter.begin()
        yield env.timeout(duration)
        meter.end()

    env.process(user(env, 0, 6))
    env.process(user(env, 4, 6))  # overlaps [4, 6]

    def tail(env):
        yield env.timeout(20)

    env.process(tail(env))
    env.run()
    assert meter.busy_time == pytest.approx(10.0)  # [0,10]
    assert meter.utilization() == pytest.approx(0.5)
    assert meter.mean_concurrency() == pytest.approx(12.0 / 20.0)


def test_utilization_meter_add_busy_and_reset():
    env = Environment()
    meter = UtilizationMeter(env)

    def proc(env):
        meter.add_busy(2.0)
        yield env.timeout(10)
        meter.reset()
        meter.add_busy(1.0)
        yield env.timeout(10)

    env.process(proc(env))
    env.run()
    assert meter.utilization() == pytest.approx(0.1)


def test_utilization_meter_end_without_begin():
    env = Environment()
    meter = UtilizationMeter(env)
    with pytest.raises(SimError):
        meter.end()


def test_utilization_open_interval_counts_to_now():
    env = Environment()
    meter = UtilizationMeter(env)

    def proc(env):
        yield env.timeout(5)
        meter.begin()
        yield env.timeout(5)
        # never ends

    env.process(proc(env))
    env.run()
    assert meter.utilization() == pytest.approx(0.5)


class _IntegratingMeter:
    """A UtilizationMeter that integrates slot-seconds on every begin/end,
    as the meter did before it started the integral at the first overlap."""

    def __init__(self, env):
        self.env = env
        self.active = 0
        self.busy_since = 0.0
        self.busy = 0.0
        self.slots = TimeWeighted(env, 0.0)
        self.start = env.now

    def begin(self):
        if self.active == 0:
            self.busy_since = self.env.now
        self.active += 1
        self.slots.adjust(1)

    def end(self):
        self.active -= 1
        self.slots.adjust(-1)
        if self.active == 0:
            self.busy += self.env.now - self.busy_since

    def add_busy(self, seconds):
        self.busy += seconds

    @property
    def busy_time(self):
        extra = self.env.now - self.busy_since if self.active else 0.0
        return self.busy + extra

    def utilization(self):
        elapsed = self.env.now - self.start
        return min(1.0, self.busy_time / elapsed) if elapsed > 0 else 0.0

    def mean_concurrency(self):
        return self.slots.mean()

    def reset(self):
        self.busy = 0.0
        self.start = self.env.now
        if self.active:
            self.busy_since = self.env.now
        self.slots.reset()


_METER_OPS = st.lists(
    st.tuples(
        st.sampled_from(["begin", "end", "reset", "add_busy"]),
        st.sampled_from([0.0, 0.1, 1 / 3, 2.5]) | st.floats(0.0, 50.0),
    ),
    max_size=60,
)


@given(ops=_METER_OPS, max_open=st.sampled_from([1, 3]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_property_meter_matches_integrating_every_interval(ops, max_open):
    """With or without overlap, reset or add_busy, every reading equals the
    always-integrating meter's exactly."""
    env = Environment()
    meter, reference = UtilizationMeter(env), _IntegratingMeter(env)
    readings = []

    def driver(env):
        for op, seconds in ops:
            if op == "add_busy":
                meter.add_busy(seconds)
                reference.add_busy(seconds)
                continue
            yield env.timeout(seconds)
            if op == "begin" and reference.active < max_open:
                meter.begin()
                reference.begin()
            elif op == "end" and reference.active:
                meter.end()
                reference.end()
            elif op == "reset":
                meter.reset()
                reference.reset()
            for m in (meter, reference):
                readings.append((m.busy_time, m.utilization(), m.mean_concurrency()))
            assert readings[-2] == readings[-1]

    env.process(driver(env))
    env.run()
