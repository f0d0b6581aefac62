"""Tests for the discrete-event engine."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import (
    Environment,
    Interrupt,
    profiled,
    set_profiler,
)


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(5.0).now == 5.0

    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(2.5)
        env.run()
        assert env.now == pytest.approx(2.5)

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_run_until_time(self):
        env = Environment()
        fired = []

        def proc(env):
            yield env.timeout(1.0)
            fired.append(env.now)
            yield env.timeout(10.0)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=5.0)
        assert fired == [1.0]
        assert env.now == 5.0

    def test_run_until_past_horizon_rejected(self):
        env = Environment()
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)


class TestProcesses:
    def test_process_return_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            return 42

        assert env.run(env.process(proc(env))) == 42

    def test_processes_interleave(self):
        env = Environment()
        order = []

        def proc(env, name, delay):
            yield env.timeout(delay)
            order.append(name)

        env.process(proc(env, "b", 2.0))
        env.process(proc(env, "a", 1.0))
        env.run()
        assert order == ["a", "b"]

    def test_yield_process_joins(self):
        env = Environment()

        def child(env):
            yield env.timeout(3.0)
            return "done"

        def parent(env):
            value = yield env.process(child(env))
            return (env.now, value)

        assert env.run(env.process(parent(env))) == (3.0, "done")

    def test_join_already_finished_process(self):
        env = Environment()

        def child(env):
            yield env.timeout(1.0)
            return 7

        def parent(env, child_proc):
            yield env.timeout(5.0)
            value = yield child_proc
            return value

        child_proc = env.process(child(env))
        assert env.run(env.process(parent(env, child_proc))) == 7

    def test_exception_propagates_to_run(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            env.run(env.process(bad(env)))

    def test_exception_propagates_to_joiner(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        def parent(env):
            try:
                yield env.process(bad(env))
            except ValueError:
                return "caught"
            return "missed"

        assert env.run(env.process(parent(env))) == "caught"

    def test_yield_non_event_fails(self):
        env = Environment()

        def bad(env):
            yield 42

        with pytest.raises(SimulationError):
            env.run(env.process(bad(env)))

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]


class TestEvents:
    def test_manual_succeed(self):
        env = Environment()

        def waiter(env, ev):
            value = yield ev
            return value

        ev = env.event()
        proc = env.process(waiter(env, ev))

        def trigger(env, ev):
            yield env.timeout(2.0)
            ev.succeed("payload")

        env.process(trigger(env, ev))
        assert env.run(proc) == "payload"

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_failed_event_raises_in_waiter(self):
        env = Environment()

        def waiter(env, ev):
            try:
                yield ev
            except RuntimeError:
                return "caught"

        ev = env.event()
        proc = env.process(waiter(env, ev))
        ev.fail(RuntimeError("bad"))
        assert env.run(proc) == "caught"

    def test_deadlock_detected(self):
        env = Environment()

        def waiter(env):
            yield env.event()  # never triggered

        proc = env.process(waiter(env))
        with pytest.raises(DeadlockError):
            env.run(proc)

    def test_peek_empty_is_inf(self):
        assert Environment().peek() == float("inf")

    def test_step_empty_raises(self):
        with pytest.raises(DeadlockError):
            Environment().step()


class TestEventsNothingWaitsOn:
    """An event nothing waits on skips the heap (DESIGN.md 5f)."""

    def test_succeed_without_waiter_is_processed_at_once(self):
        env = Environment()
        ev = env.event().succeed("value")
        assert ev.processed and env.peek() == float("inf")
        log = []

        def proc(env):
            log.append((yield ev))
            yield env.timeout(1.0)

        env.process(proc(env))
        env.step()  # the process start also resumes through ev
        assert log == ["value"] and env.now == 0.0

    def test_fail_without_waiter_is_scheduled_and_raises(self):
        env = Environment()
        ev = env.event().fail(RuntimeError("unhandled"))
        assert not ev.processed and env.peek() == 0.0
        with pytest.raises(RuntimeError, match="unhandled"):
            env.step()

    def test_run_until_process_costs_no_event_for_its_end(self):
        hook = TestProfilerHook._Hook()

        def proc(env):
            yield env.timeout(1.0)
            return "done"

        with profiled(hook):
            env = Environment()
            assert env.run(env.process(proc(env))) == "done"
        # the process start and its timeout; the end is processed at once
        assert hook.events == 2

    def test_succeed_at_fires_at_the_given_float(self):
        env = Environment()
        now, when = 0.7, 2.9
        # a relative wait would land elsewhere: 0.7 + (2.9 - 0.7) != 2.9
        assert now + (when - now) != when

        def proc(env):
            yield env.timeout(now)
            yield env.event().succeed_at(when)
            return env.now

        assert env.run(env.process(proc(env))) == when

    def test_succeed_at_refuses_the_past(self):
        env = Environment()
        env.run(until=1.0)
        with pytest.raises(SimulationError, match="in the past"):
            env.event().succeed_at(0.5)


class TestInterrupt:
    def test_interrupt_wakes_sleeper(self):
        env = Environment()

        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except Interrupt as exc:
                return ("interrupted", env.now, exc.cause)

        def interrupter(env, victim):
            yield env.timeout(2.0)
            victim.interrupt("wake up")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        assert env.run(victim) == ("interrupted", 2.0, "wake up")

    def test_interrupt_dead_process_rejected(self):
        env = Environment()

        def quick(env):
            yield env.timeout(0.1)

        proc = env.process(quick(env))
        env.run(proc)
        with pytest.raises(SimulationError):
            proc.interrupt()


class TestProfilerHook:
    """The profiler hook: validated on install, scoped via profiled()."""

    class _Hook:
        def __init__(self):
            self.events = 0

        def account(self, event, callbacks, host_dt):
            self.events += 1

    def test_bad_hook_rejected_at_install(self):
        with pytest.raises(SimulationError, match="no account"):
            set_profiler(object())
        # the broken install must not have clobbered the slot
        assert set_profiler(None) is None

    def test_profiled_scopes_and_restores(self):
        hook = self._Hook()
        with profiled(hook):
            env = Environment()
            env.timeout(1.0)
            env.run()
        assert hook.events > 0
        before = hook.events
        env = Environment()
        env.timeout(1.0)
        env.run()
        assert hook.events == before  # uninstalled after the block

    def test_profiled_restores_on_simulation_error(self):
        hook = self._Hook()

        def boom(env):
            yield env.timeout(0.5)
            raise SimulationError("mid-run failure")

        with pytest.raises(SimulationError):
            with profiled(hook):
                env = Environment()
                env.process(boom(env))
                env.run()
        assert set_profiler(None) is None

    def test_profiled_nests(self):
        outer, inner = self._Hook(), self._Hook()
        with profiled(outer):
            with profiled(inner):
                env = Environment()
                env.timeout(1.0)
                env.run()
            assert inner.events > 0 and outer.events == 0
