"""FaultInjector: deterministic draws, hooks, null-plan guarantees."""

import numpy as np
import pytest

from repro.errors import InjectedFault
from repro.faults import (
    FaultInjector,
    FaultPlan,
    GpuFault,
    MessageDrop,
    NodeFailure,
    StragglerFault,
    make_injector,
    get_profile,
)


def test_make_injector_null_returns_none():
    assert make_injector(None, 1) is None
    assert make_injector(FaultPlan(), 1) is None
    assert make_injector(FaultPlan("z", (MessageDrop(0.0),)), 1) is None
    assert make_injector(get_profile("none"), 1) is None


def test_make_injector_live_plan():
    injector = make_injector(FaultPlan("p", (MessageDrop(0.5),)), 1)
    assert injector is not None
    assert injector.active


def test_drop_message_deterministic_per_seed():
    plan = FaultPlan("p", (MessageDrop(0.5),))
    a = FaultInjector(plan, 42)
    b = FaultInjector(plan, 42)
    draws_a = [a.drop_message(0, 1) for _ in range(64)]
    draws_b = [b.drop_message(0, 1) for _ in range(64)]
    assert draws_a == draws_b
    assert any(draws_a) and not all(draws_a)


def test_drop_message_zero_probability_never_fires():
    injector = FaultInjector(FaultPlan("p", (MessageDrop(0.0), NodeFailure(0.5))), 7)
    assert not any(injector.drop_message(0, 1) for _ in range(128))


def test_straggler_delay_scales_overhead():
    injector = FaultInjector(
        FaultPlan("p", (StragglerFault(probability=1.0, slowdown=3.0),)), 7
    )
    assert injector.straggler_delay(0, 2e-6) == pytest.approx(4e-6)
    clean = FaultInjector(FaultPlan("p", (MessageDrop(0.5),)), 7)
    assert clean.straggler_delay(0, 2e-6) == 0.0


def test_gpu_hooks():
    injector = FaultInjector(
        FaultPlan("p", (GpuFault(probability=1.0, duration_factor=2.5,
                                 memcpy_stall=4e-6),)), 7
    )
    assert injector.kernel_duration_factor(0) == 2.5
    assert injector.memcpy_stall(0) == 4e-6
    off = FaultInjector(FaultPlan("p", (GpuFault(probability=0.0),)), 7)
    assert off.kernel_duration_factor(0) == 1.0
    assert off.memcpy_stall(0) == 0.0


def test_check_cell_raises_injected_fault():
    injector = FaultInjector(FaultPlan("p", (NodeFailure(probability=1.0),)), 7)
    with pytest.raises(InjectedFault, match="Frontier/osu"):
        injector.check_cell("Frontier", "osu", attempt=2)
    # zero probability never kills
    FaultInjector(FaultPlan("p", (NodeFailure(0.0),)), 7).check_cell("x")


def test_perturb_samples_identity_when_inert():
    samples = np.ones(100)
    injector = FaultInjector(FaultPlan("p", (MessageDrop(0.5),)), 7)
    assert injector.perturb_samples(samples, "m", "osu") is samples


def test_perturb_samples_latency_vs_bandwidth_direction():
    injector = FaultInjector(
        FaultPlan("p", (StragglerFault(probability=1.0, slowdown=2.0),)), 7
    )
    lat = injector.perturb_samples(np.ones(16), "m", "lat", kind="latency")
    bw = injector.perturb_samples(np.ones(16), "m", "bw", kind="bandwidth")
    assert np.all(np.asarray(lat) == 2.0)
    assert np.all(np.asarray(bw) == 0.5)


def test_perturb_samples_does_not_mutate_input():
    samples = np.ones(32)
    injector = FaultInjector(
        FaultPlan("p", (StragglerFault(probability=0.5, slowdown=2.0),)), 7
    )
    out = injector.perturb_samples(samples, "m", "osu")
    if out is not samples:
        assert np.all(samples == 1.0)


def test_scoped_injectors_draw_independently():
    plan = FaultPlan("p", (MessageDrop(0.5),))
    base = FaultInjector(plan, 42)
    a = base.scoped("machine-a")
    b = base.scoped("machine-b")
    draws_a = [a.drop_message(0, 1) for _ in range(64)]
    draws_b = [b.drop_message(0, 1) for _ in range(64)]
    assert draws_a != draws_b  # different stream paths


def test_injector_streams_isolated_from_measurement_noise():
    """Arming an injector must not consume measurement-noise streams."""
    from repro.sim.random import RandomStreams

    streams = RandomStreams(123)
    baseline = RandomStreams(123).get("Frontier", "osu").random(8)
    injector = FaultInjector(FaultPlan("p", (MessageDrop(0.5),)), streams)
    for _ in range(32):
        injector.drop_message(0, 1)
    assert np.array_equal(streams.get("Frontier", "osu").random(8), baseline)
