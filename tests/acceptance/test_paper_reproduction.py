"""Acceptance tests: the paper's headline findings must reproduce.

These assert the *shape* of the results — who wins, by what factor,
where the hierarchies fall — exactly as the paper's section 4 narrates
them, plus a quantitative sweep over every table cell against the
held-out published values.
"""

import pytest

from repro.core.tables import build_table4, build_table5, build_table6
from repro.core.summary import build_table7
from repro.harness.compare import (
    compare_table4,
    compare_table5,
    compare_table6,
)
from repro.harness.paper_values import PAPER_TABLE7
from repro.hardware.gpu import GpuFamily
from repro.hardware.topology import LinkClass


@pytest.fixture(scope="module")
def t4(paper_study):
    return build_table4(paper_study)


@pytest.fixture(scope="module")
def t5(paper_study):
    return build_table5(paper_study)


@pytest.fixture(scope="module")
def t6(paper_study):
    return build_table6(paper_study)


@pytest.fixture(scope="module")
def t7(t5, t6):
    return build_table7(t5, t6)


class TestSection4CpuClaims:
    """The three traditional Xeon CPU systems all have somewhat similar
    memory bandwidth for both a single core (13-16 GB/s) and all cores
    (200-250 GB/s) as well as sub-microsecond MPI latencies."""

    def test_xeon_single_band(self, t4):
        for row in t4:
            if row.machine in ("Sawtooth", "Eagle", "Manzano"):
                assert 13.0 <= row.single.mean <= 16.0

    def test_xeon_allcore_band(self, t4):
        for row in t4:
            if row.machine in ("Sawtooth", "Eagle", "Manzano"):
                assert 200.0 <= row.all_threads.mean <= 250.0

    def test_xeon_submicrosecond_latency(self, t4):
        for row in t4:
            if row.machine in ("Sawtooth", "Eagle", "Manzano"):
                assert row.on_socket.mean < 1.0
                assert row.on_node.mean < 1.0

    def test_trinity_theta_disparity(self, t4):
        """substantial performance disparity between Trinity and Theta,
        especially in the realm of MPI latency."""
        by = {r.machine: r for r in t4}
        assert by["Theta"].on_socket.mean > 5 * by["Trinity"].on_socket.mean
        assert by["Theta"].all_threads.mean < 0.5 * by["Trinity"].all_threads.mean

    def test_theta_underperforms_everyone_allcore(self, t4):
        theta = next(r for r in t4 if r.machine == "Theta")
        for row in t4:
            if row.machine != "Theta":
                assert theta.all_threads.mean < row.all_threads.mean

    def test_table4_shape(self, t4):
        """Trinity's KNL out-streams the Xeons; no on-node latency is
        below its on-socket one; every bandwidth carries a spread, like
        the paper's ± columns."""
        by = {r.machine: r for r in t4}
        assert by["Trinity"].all_threads.mean > by["Sawtooth"].all_threads.mean
        for row in t4:
            assert row.on_node.mean >= row.on_socket.mean * 0.999
            assert row.single.std > 0 and row.all_threads.std > 0


class TestSection4GpuClaims:
    def test_v100_below_a100_and_mi250x(self, t5):
        """the three NVIDIA V100 machines have a substantially lower
        device memory bandwidth ... the latter two categories report
        fairly similar achieved memory bandwidth (about 1.3 TB/s)"""
        by_family = {}
        from repro.machines.registry import get_machine

        for row in t5:
            fam = get_machine(row.machine).accelerator_family
            by_family.setdefault(fam, []).append(row.device_bw.mean)
        assert max(by_family["V100"]) < 0.7 * min(by_family["A100"])
        for fam in ("A100", "MI250X"):
            for bw in by_family[fam]:
                assert 1250 < bw < 1400  # "about 1.3 TB/s"

    def test_host_latencies_submicrosecond_everywhere(self, t5):
        for row in t5:
            assert row.host_to_host.mean < 1.0

    def test_device_latency_three_tiers(self, t5):
        """V100 ~18-19 us, A100 10-14 us, MI250X sub-microsecond."""
        by = {r.machine: r for r in t5}
        for name in ("Summit", "Sierra", "Lassen"):
            assert 18.0 <= by[name].device_to_device[LinkClass.A].mean <= 19.0
        for name in ("Perlmutter", "Polaris"):
            assert 10.0 <= by[name].device_to_device[LinkClass.A].mean <= 14.0
        for name in ("Frontier", "RZVernal", "Tioga"):
            for stat in by[name].device_to_device.values():
                assert stat.mean < 1.0
        # the crossover: MI250X device latency ~ host latency, every
        # CUDA machine's device latency >> host latency
        for name in ("Frontier", "RZVernal", "Tioga"):
            assert (by[name].device_to_device[LinkClass.A].mean
                    < 1.2 * by[name].host_to_host.mean)
        for name in ("Summit", "Sierra", "Perlmutter", "Polaris", "Lassen"):
            assert (by[name].device_to_device[LinkClass.A].mean
                    > 20 * by[name].host_to_host.mean)

    def test_nvlink_vs_pcie_adds_about_1us(self, t5):
        """the NVIDIA V100 platforms add roughly 1 us for the
        non-NVLink connections."""
        by = {r.machine: r for r in t5}
        for name in ("Summit", "Sierra", "Lassen"):
            delta = (
                by[name].device_to_device[LinkClass.B].mean
                - by[name].device_to_device[LinkClass.A].mean
            )
            assert 0.8 <= delta <= 1.4

    def test_mi250x_gpus_equidistant(self, t5):
        """all GPUs appear to be roughly equidistant on the MI250X
        machines" (for MPI)."""
        by = {r.machine: r for r in t5}
        for name in ("Frontier", "RZVernal", "Tioga"):
            means = [s.mean for s in by[name].device_to_device.values()]
            assert max(means) - min(means) < 0.05


class TestSection4CommScopeClaims:
    def test_launch_hierarchy(self, t6):
        """4-5 us for the V100 machines and 1.5-2.15 us for the A100
        and MI250X machines."""
        by = {r.machine: r for r in t6}
        for name in ("Summit", "Sierra", "Lassen"):
            assert 4.0 <= by[name].launch.mean <= 5.0
        for name in ("Frontier", "Perlmutter", "Polaris", "RZVernal", "Tioga"):
            assert 1.4 <= by[name].launch.mean <= 2.25
        v100_min = min(by[n].launch.mean for n in ("Summit", "Sierra", "Lassen"))
        rest_max = max(
            by[n].launch.mean
            for n in ("Frontier", "Perlmutter", "Polaris", "RZVernal", "Tioga")
        )
        assert v100_min > 1.8 * rest_max

    def test_wait_hierarchy(self, t6):
        """5-6 us (V100), roughly 1 us (A100), .1-.2 us (MI250X)"""
        by = {r.machine: r for r in t6}
        for name in ("Sierra", "Lassen"):
            assert 5.0 <= by[name].wait.mean <= 6.0
        for name in ("Perlmutter", "Polaris"):
            assert 0.9 <= by[name].wait.mean <= 1.4
        for name in ("Frontier", "RZVernal", "Tioga"):
            assert 0.1 <= by[name].wait.mean <= 0.2
        assert by["Sierra"].wait.mean > 4 * by["Perlmutter"].wait.mean
        assert by["Perlmutter"].wait.mean > 5 * by["Frontier"].wait.mean

    def test_hd_latency_ordering(self, t6):
        """MI250X 12-13 us, V100 7-8 us, A100 fastest at 4-6 us"""
        by = {r.machine: r for r in t6}
        for name in ("Frontier", "RZVernal", "Tioga"):
            assert 12.0 <= by[name].hd_latency.mean <= 13.0
        for name in ("Summit", "Sierra", "Lassen"):
            assert 7.0 <= by[name].hd_latency.mean <= 8.0
        for name in ("Perlmutter", "Polaris"):
            assert 4.0 <= by[name].hd_latency.mean <= 6.0

    def test_v100_h2d_bandwidth_wins_via_nvlink(self, t6):
        """the V100 machines perform best, reaching 40-60 GB/s due to
        NVLink ... all other machines reach roughly 25 GB/s over PCIe"""
        by = {r.machine: r for r in t6}
        for name in ("Summit", "Sierra", "Lassen"):
            assert by[name].hd_bandwidth.mean > 40.0
        for name in ("Frontier", "Perlmutter", "Polaris", "RZVernal", "Tioga"):
            assert 23.0 <= by[name].hd_bandwidth.mean <= 26.0
        assert by["Sierra"].hd_bandwidth.mean > 2 * by["Perlmutter"].hd_bandwidth.mean

    def test_perlmutter_polaris_gap(self, t6):
        """a substantial difference (14 us vs. 32 us) in their
        device-to-device latency performance" despite identical SKUs."""
        by = {r.machine: r for r in t6}
        perl = by["Perlmutter"].d2d_latency[LinkClass.A].mean
        pol = by["Polaris"].d2d_latency[LinkClass.A].mean
        assert pol > 2 * perl

    def test_rzvernal_quad_faster_than_frontier(self, t6):
        """the quad infinity connections on RZVernal and Tioga running
        a full 4 us faster than the similar pairs on Frontier"" —
        (the class-A gap is ~2.2 us; the 4 us the paper quotes compares
        RZVernal's A against Frontier's C-class extremes)."""
        by = {r.machine: r for r in t6}
        assert (
            by["Frontier"].d2d_latency[LinkClass.A].mean
            - by["RZVernal"].d2d_latency[LinkClass.A].mean
        ) > 2.0

    def test_commscope_slower_than_osu_on_mi250x(self, t5, t6):
        """Inter-device latency in Comm|Scope is substantially slower
        than the inter-device latency shown by the OSU microbenchmarks."""
        osu = {r.machine: r for r in t5}
        cs = {r.machine: r for r in t6}
        for name in ("Frontier", "RZVernal", "Tioga"):
            assert (
                cs[name].d2d_latency[LinkClass.A].mean
                > 10 * osu[name].device_to_device[LinkClass.A].mean
            )


class TestQuantitativeAgreement:
    def test_every_cell_within_5_percent(self, t4, t5, t6):
        from repro.harness.compare import gate_comparison

        rows = compare_table4(t4) + compare_table5(t5) + compare_table6(t6)
        report = gate_comparison(rows, tolerance=0.05)
        assert report.exit_code == 0, [
            f"{r.name}: {r.failure_kind} ({r.reason or r.observed})"
            for r in report.failed
        ]
        assert len(report.results) == len(rows)

    def test_table7_ranges_overlap_paper(self, t7):
        """Measured family ranges must overlap the published ranges."""
        assert [r.family for r in t7] == [
            GpuFamily.V100, GpuFamily.A100, GpuFamily.MI250X,
        ]
        for row in t7:
            ref = PAPER_TABLE7[row.family.value]
            for field in ("memory_bw", "mpi_latency", "kernel_launch",
                          "kernel_wait", "hd_latency", "hd_bandwidth",
                          "d2d_latency"):
                lo, hi = ref[field]
                measured = getattr(row, field)
                assert measured.low <= hi * 1.05 and measured.high >= lo * 0.95, (
                    row.family, field, (measured.low, measured.high), (lo, hi)
                )

    def test_table7_ranges_inside_paper_and_ordered(self, t7):
        """Each measured family range lies inside the published one (5 %
        slack per bound), and the families order as the paper's summary
        table tells it."""
        for row in t7:
            ref = PAPER_TABLE7[row.family.value]
            for field in ("memory_bw", "mpi_latency", "kernel_launch",
                          "kernel_wait", "hd_latency", "hd_bandwidth",
                          "d2d_latency"):
                lo, hi = ref[field]
                measured = getattr(row, field)
                assert measured.low >= lo * 0.95, (row.family, field)
                assert measured.high <= hi * 1.05, (row.family, field)
        v100, a100, mi250x = t7
        assert v100.memory_bw.high < a100.memory_bw.low
        assert mi250x.mpi_latency.high < 0.1 * a100.mpi_latency.low
        assert mi250x.kernel_wait.high < a100.kernel_wait.low < v100.kernel_wait.low
        assert a100.hd_latency.high < v100.hd_latency.low < mi250x.hd_latency.low
