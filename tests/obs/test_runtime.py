"""The global observability context: activation, no-op default, hooks."""

from repro.obs import NULL_CONTEXT, NULL_METRICS, NULL_TRACER, ObsContext
from repro.obs import runtime as obs
from repro.obs.metrics import DECLARED_COUNTERS
from repro.sim import engine


class TestDefaultContext:
    def test_default_is_disabled_null_context(self):
        ctx = obs.current()
        assert not ctx.enabled
        assert ctx.tracer is NULL_TRACER
        assert ctx.metrics is NULL_METRICS

    def test_hot_path_helpers_are_noops_when_disabled(self):
        obs.count("mpisim.send.eager", 5)
        assert len(NULL_TRACER) == 0


class TestActivation:
    def test_observability_scopes_and_restores(self):
        ctx = ObsContext.create()
        with obs.observability(ctx):
            assert obs.current() is ctx
            obs.count("mpisim.send.eager")
        assert obs.current() is NULL_CONTEXT
        assert ctx.metrics.counter("mpisim.send.eager").value == 1

    def test_profiler_hook_installed_and_removed(self):
        ctx = ObsContext.create(profile=True)
        before = engine._PROFILER
        with obs.observability(ctx):
            assert engine._PROFILER is ctx.profiler
        assert engine._PROFILER is before

    def test_no_profiler_without_profile_flag(self):
        ctx = ObsContext.create(profile=False)
        assert ctx.profiler is None
        with obs.observability(ctx):
            assert engine._PROFILER is None

    def test_nested_contexts_restore_outer(self):
        outer, inner = ObsContext.create(), ObsContext.create()
        with obs.observability(outer):
            with obs.observability(inner):
                assert obs.current() is inner
            assert obs.current() is outer

    def test_declared_counters_in_every_snapshot(self):
        ctx = ObsContext.create()
        snap = ctx.metrics.snapshot()
        for name in DECLARED_COUNTERS:
            assert snap[name] == {"type": "counter", "value": 0}
        subsystems = {name.split(".")[0] for name in snap}
        assert {"mpisim", "netsim", "gpurt", "faults", "study"} <= subsystems


class TestAttributions:
    """The bundle and the ledger share one attribution per tracer state."""

    def _window(self, ctx, clock):
        tracer = ctx.tracer
        window = tracer.begin("osu.pingpong", "benchmarks",
                              clock=lambda: clock[0])
        tracer.complete("send.eager", "mpisim", 0.0, 1.0)
        clock[0] = 2.0
        return tracer, window

    def test_reused_while_the_tracer_is_unchanged(self):
        ctx = ObsContext.create()
        _tracer, window = self._window(ctx, [0.0])
        window.end()
        first = ctx.attributions()
        second = ctx.attributions()
        assert second is not first
        assert [a is b for a, b in zip(first, second)] == [True]

    def test_recomputed_after_a_new_record(self):
        ctx = ObsContext.create()
        tracer, window = self._window(ctx, [0.0])
        window.end()
        first = ctx.attributions()
        tracer.complete("xfer:a", "netsim", 0.25, 0.5)
        (second,) = ctx.attributions()
        assert second is not first[0]
        assert second.phases["link"] == 0.25

    def test_recomputed_after_a_dropped_record(self):
        ctx = ObsContext.create(capacity=3)
        tracer, window = self._window(ctx, [0.0])
        window.end()
        tracer.complete("xfer:a", "netsim", 0.25, 0.5)
        first = ctx.attributions()
        tracer.complete("xfer:b", "netsim", 0.5, 0.75)  # ring full
        assert ctx.tracer.dropped == 1
        assert ctx.attributions()[0] is not first[0]

    def test_recomputed_after_an_open_span_closes(self):
        ctx = ObsContext.create()
        _tracer, window = self._window(ctx, [0.0])
        assert ctx.attributions() == []  # the window is still open
        window.end()
        (attribution,) = ctx.attributions()
        assert attribution.phases == {"eager": 1.0, "overhead": 1.0}


class TestInstrumentedWorld:
    def test_pingpong_fills_mpisim_instruments(self, sawtooth):
        from repro.benchmarks.osu.latency import measure_pingpong
        from repro.mpisim.placement import on_socket_pair
        from repro.mpisim.transport import BufferKind

        ctx = ObsContext.create()
        with obs.observability(ctx):
            latency = measure_pingpong(
                sawtooth, on_socket_pair(sawtooth), 0, BufferKind.HOST
            )
        assert latency > 0
        assert ctx.metrics.counter("mpisim.send.eager").value > 0
        spans = ctx.tracer.records()
        assert any(s.name == "send.eager" for s in spans)
        assert all(s.sim_duration >= 0 for s in spans if s.finished)

    def test_disabled_context_world_is_uninstrumented(self, sawtooth):
        from repro.benchmarks.osu.latency import measure_pingpong
        from repro.mpisim.placement import on_socket_pair
        from repro.mpisim.transport import BufferKind

        measure_pingpong(sawtooth, on_socket_pair(sawtooth), 0, BufferKind.HOST)
        assert len(NULL_TRACER) == 0
        assert NULL_METRICS.snapshot() == {}
