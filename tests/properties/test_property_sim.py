"""Property-based tests for the discrete-event engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.sim.resources import Resource


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1,
                       max_size=30))
@settings(max_examples=60, deadline=None)
def test_clock_never_goes_backwards(delays):
    """Events process in nondecreasing time order regardless of insertion."""
    env = Environment()
    observed = []

    def proc(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0),
                       min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_final_time_is_max_delay(delays):
    env = Environment()
    for d in delays:
        env.timeout(d)
    env.run()
    assert env.now == max(delays)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    jobs=st.integers(min_value=1, max_value=40),
    duration=st.floats(min_value=0.01, max_value=10.0),
)
@settings(max_examples=40, deadline=None)
def test_resource_conservation(capacity, jobs, duration):
    """With capacity c and n equal jobs, makespan = ceil(n/c) * duration
    and concurrency never exceeds capacity."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    running = [0]
    peak = [0]

    def job(env):
        req = res.request()
        yield req
        running[0] += 1
        peak[0] = max(peak[0], running[0])
        yield env.timeout(duration)
        running[0] -= 1
        res.release(req)

    for _ in range(jobs):
        env.process(job(env))
    env.run()
    waves = -(-jobs // capacity)
    assert env.now / duration == waves or abs(env.now - waves * duration) < 1e-9
    assert peak[0] <= capacity
