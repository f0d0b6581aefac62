"""The sim profiler: engine hook, per-subsystem attribution, report."""

import os
import re

from repro.obs import ObsContext, SimProfiler, SubsystemStats
from repro.obs import runtime as obs
from repro.sim.engine import Environment


def _pingpong(env: Environment, hops: int = 5):
    def bouncer():
        for _ in range(hops):
            yield env.timeout(1.0)

    env.process(bouncer(), name="bouncer")
    env.run()


class TestAttribution:
    def test_events_attributed_to_subsystems(self):
        profiler = SimProfiler()
        ctx = ObsContext.create(profile=True)
        ctx.profiler = profiler
        with obs.observability(ctx):
            _pingpong(Environment())
        report = profiler.report()
        assert report.total_events > 0
        assert report.total_host_seconds > 0
        assert sum(s.events for s in report.subsystems.values()) == \
            report.total_events

    def test_mpisim_dominates_a_message_benchmark(self, sawtooth):
        from repro.benchmarks.osu.latency import measure_pingpong
        from repro.mpisim.placement import on_socket_pair
        from repro.mpisim.transport import BufferKind

        ctx = ObsContext.create(profile=True)
        with obs.observability(ctx):
            measure_pingpong(
                sawtooth, on_socket_pair(sawtooth), 0, BufferKind.HOST
            )
        report = ctx.profiler.report()
        assert "mpisim" in report.subsystems
        assert report.subsystems["mpisim"].events > 0

    def test_classifier_caches_by_filename(self):
        profiler = SimProfiler()
        name = profiler._classify_filename("/x/repro/mpisim/world.py")
        assert name == "mpisim"
        assert profiler._by_file["/x/repro/mpisim/world.py"] == "mpisim"
        assert profiler._classify_filename("/elsewhere/thing.py") == "other"

    def test_events_per_second_nonzero_after_run(self):
        profiler = SimProfiler()
        ctx = ObsContext.create(profile=True)
        ctx.profiler = profiler
        with obs.observability(ctx):
            _pingpong(Environment())
        assert profiler.report().events_per_second > 0

    def test_render_mentions_totals(self):
        profiler = SimProfiler()
        ctx = ObsContext.create(profile=True)
        ctx.profiler = profiler
        with obs.observability(ctx):
            _pingpong(Environment())
        text = profiler.render()
        assert "events/sec" in text
        assert "total:" in text


class TestHookLifecycle:
    def test_unprofiled_run_pays_no_hook(self):
        # with no profiler installed the engine takes the plain branch
        from repro.sim import engine

        assert engine._PROFILER is None
        env = Environment()
        _pingpong(env)
        assert env.now == 5.0

    def test_profiled_run_gives_same_sim_results(self):
        env_plain = Environment()
        _pingpong(env_plain)
        ctx = ObsContext.create(profile=True)
        with obs.observability(ctx):
            env_prof = Environment()
            _pingpong(env_prof)
        assert env_prof.now == env_plain.now


class TestStateMerge:
    """The worker merge: counts add exactly, host seconds are advisory."""

    def test_merge_matches_combined_run(self):
        a, b = SimProfiler(), SimProfiler()
        ctx = ObsContext.create(profile=True)
        ctx.profiler = a
        with obs.observability(ctx):
            _pingpong(Environment())
        ctx.profiler = b
        with obs.observability(ctx):
            _pingpong(Environment(), hops=3)
        parent = SimProfiler()
        parent.merge_state(a.dump_state())
        parent.merge_state(b.dump_state())
        assert parent.total_events == a.total_events + b.total_events
        assert parent.total_callbacks == a.total_callbacks + b.total_callbacks
        for name, stats in parent.subsystems.items():
            assert stats.events == (
                a.subsystems.get(name, SubsystemStats()).events
                + b.subsystems.get(name, SubsystemStats()).events
            )

    def test_state_is_picklable(self):
        import pickle

        profiler = SimProfiler()
        ctx = ObsContext.create(profile=True)
        ctx.profiler = profiler
        with obs.observability(ctx):
            _pingpong(Environment())
        state = pickle.loads(pickle.dumps(profiler.dump_state()))
        parent = SimProfiler()
        parent.merge_state(state)
        assert parent.total_events == profiler.total_events

    def test_merge_into_empty_creates_subsystems(self):
        parent = SimProfiler()
        parent.merge_state({
            "subsystems": {"mpisim": (10, 12, 0.5)},
            "total_events": 10,
            "total_callbacks": 12,
            "total_host_seconds": 0.5,
        })
        assert parent.subsystems["mpisim"].events == 10
        assert parent.report().events_per_second == 20.0


#: the total line's coverage clause on a single-process run
SHARE = re.compile(r"; ([\d.]+)% of ([\d.]+) ms profiled wall\)$", re.M)


class TestCoverage:
    """The total line states event-loop host time as a share of the
    profiled wall time, unless host time was summed over workers."""

    def test_serial_cli_run_states_its_share(self, capsys):
        from repro.harness.cli import main

        assert main(["table6", "--runs", "2", "--profile", "--no-ledger"]) == 0
        err = capsys.readouterr().err
        match = SHARE.search(err)
        assert match is not None, err
        assert 0.0 < float(match.group(1)) <= 100.0
        assert float(match.group(2)) > 0.0
        assert "summed over workers" not in err

    def test_worker_merge_says_summed(self):
        parent = SimProfiler()
        parent.merge_state({
            "subsystems": {"mpisim": (10, 12, 0.5)},
            "total_events": 10,
            "total_callbacks": 12,
            "total_host_seconds": 0.5,
            "pid": os.getpid() + 1,
        })
        text = parent.render()
        assert "summed over workers, " in text
        assert SHARE.search(text) is None
