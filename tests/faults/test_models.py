"""Fault specification and plan validation."""

import pytest

from repro.errors import FaultConfigError, ReproError
from repro.faults import (
    FaultPlan,
    GpuFault,
    LinkFault,
    MessageDrop,
    NodeFailure,
    StragglerFault,
    get_profile,
    PROFILES,
)


class TestSpecValidation:
    def test_probability_bounds(self):
        for kind in (MessageDrop, StragglerFault, GpuFault, NodeFailure):
            with pytest.raises(FaultConfigError):
                kind(probability=-0.1)
            with pytest.raises(FaultConfigError):
                kind(probability=1.5)
            kind(probability=0.0)
            kind(probability=1.0)

    def test_fault_config_error_is_repro_error(self):
        with pytest.raises(ReproError):
            MessageDrop(probability=2.0)

    def test_link_fault_window(self):
        with pytest.raises(FaultConfigError):
            LinkFault(start=-1.0, duration=1.0)
        with pytest.raises(FaultConfigError):
            LinkFault(start=0.0, duration=0.0)
        fault = LinkFault(start=1.0, duration=2.0)
        assert fault.end == 3.0

    def test_link_fault_bandwidth_factor(self):
        with pytest.raises(FaultConfigError):
            LinkFault(start=0, duration=1, bandwidth_factor=0.0)
        with pytest.raises(FaultConfigError):
            LinkFault(start=0, duration=1, bandwidth_factor=1.5)
        with pytest.raises(FaultConfigError):
            LinkFault(start=0, duration=1, extra_latency=-1e-6)

    def test_link_fault_pattern_matching(self):
        fault = LinkFault(start=0, duration=1, pattern="nic*")
        assert fault.matches("nic0")
        assert not fault.matches("router0")
        assert LinkFault(start=0, duration=1).matches("anything")

    def test_straggler_slowdown(self):
        with pytest.raises(FaultConfigError):
            StragglerFault(probability=0.1, slowdown=0.5)

    def test_gpu_fault_factors(self):
        with pytest.raises(FaultConfigError):
            GpuFault(probability=0.1, duration_factor=0.9)
        with pytest.raises(FaultConfigError):
            GpuFault(probability=0.1, memcpy_stall=-1.0)


class TestFaultPlan:
    def test_rejects_unknown_spec(self):
        with pytest.raises(FaultConfigError):
            FaultPlan("bad", ("not a spec",))

    def test_null_detection(self):
        assert FaultPlan().is_null()
        assert FaultPlan("zero", (MessageDrop(0.0), NodeFailure(0.0))).is_null()
        assert not FaultPlan("p", (MessageDrop(0.1),)).is_null()
        # LinkFault windows are deterministic: never null
        assert not FaultPlan(
            "w", (LinkFault(start=0, duration=1, bandwidth_factor=0.5),)
        ).is_null()

    def test_of_kind_and_link_faults_for(self):
        w = LinkFault(start=0, duration=1, pattern="nic*")
        plan = FaultPlan("x", (MessageDrop(0.1), w))
        assert plan.of_kind(MessageDrop) == (MessageDrop(0.1),)
        assert plan.link_faults_for("nic3") == (w,)
        assert plan.link_faults_for("router0") == ()

    def test_describe(self):
        assert "no faults armed" in FaultPlan().describe()
        assert "MessageDrop" in FaultPlan("x", (MessageDrop(0.1),)).describe()


class TestProfiles:
    def test_catalogue(self):
        for name in ("none", "noisy", "lossy", "chaos", "smoke"):
            assert name in PROFILES
            assert get_profile(name).name == name

    def test_case_insensitive(self):
        assert get_profile("CHAOS") is PROFILES["chaos"]

    def test_unknown_profile(self):
        with pytest.raises(FaultConfigError):
            get_profile("no-such-profile")

    def test_none_is_null_and_others_are_not(self):
        assert get_profile("none").is_null()
        for name in ("noisy", "lossy", "chaos", "smoke"):
            assert not get_profile(name).is_null(), name
