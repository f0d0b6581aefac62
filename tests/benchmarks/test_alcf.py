"""Tests for the ALCF MPI-benchmark reimplementation (Theta footnote)."""

import numpy as np
import pytest

from repro.benchmarks.alcf import alcf_latency, measure_prepost_pingpong
from repro.benchmarks.osu.runner import PairKind, latency_for_pair
from repro.errors import BenchmarkConfigError
from repro.machines.registry import get_machine
from repro.mpisim.placement import on_socket_pair
from repro.units import to_us


class TestThetaFootnote:
    """Paper section 4: ALCF benchmarks report sub-5 us on Theta,
    "but nowhere near as small as Trinity"."""

    def test_theta_sub_5us(self):
        theta = get_machine("theta")
        res = alcf_latency(theta, on_socket_pair(theta))
        assert to_us(res.latency) < 5.0

    def test_theta_alcf_still_far_above_trinity(self):
        theta = get_machine("theta")
        trinity = get_machine("trinity")
        theta_alcf = alcf_latency(theta, on_socket_pair(theta)).latency
        trinity_osu = latency_for_pair(trinity, PairKind.ON_SOCKET).latency
        assert theta_alcf > 5 * trinity_osu

    def test_theta_alcf_below_osu(self):
        theta = get_machine("theta")
        osu = latency_for_pair(theta, PairKind.ON_SOCKET).latency
        alcf = alcf_latency(theta, on_socket_pair(theta)).latency
        assert alcf < osu
        # the footnote's contrast: OSU's figure sits above the 5 us mark
        assert to_us(osu) * 1.25 > 5.0


class TestHealthyStacks:
    @pytest.mark.parametrize(
        "name", ["trinity", "eagle", "sawtooth", "manzano"]
    )
    def test_prepost_changes_nothing_elsewhere(self, name):
        machine = get_machine(name)
        osu = latency_for_pair(machine, PairKind.ON_SOCKET).latency
        alcf = alcf_latency(machine, on_socket_pair(machine)).latency
        assert alcf == pytest.approx(osu, rel=1e-6)


class TestMechanics:
    def test_negative_size_rejected(self, eagle):
        with pytest.raises(BenchmarkConfigError):
            measure_prepost_pingpong(eagle, on_socket_pair(eagle), -1)

    def test_noise_with_rng(self, eagle):
        rng = np.random.default_rng(0)
        a = alcf_latency(eagle, on_socket_pair(eagle), rng=rng).latency
        b = alcf_latency(eagle, on_socket_pair(eagle), rng=rng).latency
        assert a != b

    def test_deterministic_without_rng(self, eagle):
        a = alcf_latency(eagle, on_socket_pair(eagle)).latency
        b = alcf_latency(eagle, on_socket_pair(eagle)).latency
        assert a == b

    def test_prepost_discount_never_negative_overhead(self, eagle):
        """Even a huge discount cannot push o_recv below zero."""
        import dataclasses

        cal = dataclasses.replace(
            eagle.calibration.mpi, prepost_discount=1.0
        )
        patched = dataclasses.replace(
            eagle, calibration=dataclasses.replace(eagle.calibration, mpi=cal)
        )
        lat = measure_prepost_pingpong(patched, on_socket_pair(patched), 0)
        # o_send + wire still paid (o_recv clamps at zero, not below)
        cost = patched.calibration.mpi
        assert lat == pytest.approx(cost.sw_overhead + cost.hw_exchange)
