"""Tests for Resource."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Environment
from repro.sim.resources import Resource


def hold(env, res, log, name, duration):
    req = res.request()
    yield req
    log.append((env.now, name, "acquired"))
    yield env.timeout(duration)
    res.release(req)


class TestResource:
    def test_capacity_serialises(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []
        env.process(hold(env, res, log, "a", 1.0))
        env.process(hold(env, res, log, "b", 1.0))
        env.run()
        assert log == [(0.0, "a", "acquired"), (1.0, "b", "acquired")]

    def test_capacity_two_runs_in_parallel(self):
        env = Environment()
        res = Resource(env, capacity=2)
        log = []
        for name in "abc":
            env.process(hold(env, res, log, name, 1.0))
        env.run()
        assert log[0][0] == 0.0 and log[1][0] == 0.0
        assert log[2] == (1.0, "c", "acquired")

    def test_fifo_ordering(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []
        for name in "abcd":
            env.process(hold(env, res, log, name, 1.0))
        env.run()
        assert [e[1] for e in log] == list("abcd")

    def test_count_tracks_users(self):
        env = Environment()
        res = Resource(env, capacity=3)
        reqs = [res.request() for _ in range(2)]
        assert res.count == 2
        res.release(reqs[0])
        assert res.count == 1

    def test_release_foreign_request_rejected(self):
        env = Environment()
        res = Resource(env, capacity=1)
        other = Resource(env, capacity=1)
        req = other.request()
        with pytest.raises(SimulationError):
            res.release(req)

    def test_cancel_queued_request(self):
        env = Environment()
        res = Resource(env, capacity=1)
        held = res.request()
        queued = res.request()
        assert not queued.triggered
        res.release(queued)  # cancel from queue
        res.release(held)
        assert res.count == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)
