"""Tests for OpenMP environment combinations (paper Table 1)."""

import pytest

from repro.errors import OpenMPConfigError
from repro.openmp.env import (
    OmpEnvironment,
    all_thread_configurations,
    single_thread_configurations,
    table1_configurations,
)


class TestTable1:
    def test_eight_rows(self, cpu_machines_list):
        for machine in cpu_machines_list:
            assert len(table1_configurations(machine.node)) == 8

    def test_single_thread_rows(self, sawtooth):
        singles = single_thread_configurations(sawtooth.node)
        assert len(singles) == 2
        assert all(c.num_threads == 1 for c in singles)
        assert {c.describe() for c in singles} == {
            ("1", "not set", "not set"), ("1", '"true"', "not set"),
        }

    def test_all_thread_rows(self, sawtooth):
        alls = all_thread_configurations(sawtooth.node)
        assert len(alls) == 6

    def test_cores_and_threads_resolved(self, sawtooth):
        configs = table1_configurations(sawtooth.node)
        counts = {c.num_threads for c in configs}
        assert counts == {1, 48, 96}

    def test_knl_counts(self, trinity):
        counts = {c.num_threads for c in table1_configurations(trinity.node)}
        assert counts == {1, 68, 272}

    def test_spread_cores_row_present(self, sawtooth):
        configs = table1_configurations(sawtooth.node)
        assert OmpEnvironment(48, "spread", "cores") in configs

    def test_close_threads_row_present(self, sawtooth):
        configs = table1_configurations(sawtooth.node)
        assert OmpEnvironment(96, "close", "threads") in configs


class TestEnvironment:
    def test_unset_num_threads_uses_all(self, sawtooth):
        env = OmpEnvironment()
        assert env.resolve_num_threads(sawtooth.node) == 96

    def test_explicit_num_threads(self, sawtooth):
        assert OmpEnvironment(num_threads=7).resolve_num_threads(sawtooth.node) == 7

    def test_describe_not_set(self):
        assert OmpEnvironment().describe() == ("not set", "not set", "not set")

    def test_describe_values(self):
        env = OmpEnvironment(4, "spread", "cores")
        assert env.describe() == ("4", '"spread"', '"cores"')

    def test_zero_threads_rejected(self):
        with pytest.raises(OpenMPConfigError):
            OmpEnvironment(num_threads=0)

    def test_bad_bind_rejected(self):
        with pytest.raises(OpenMPConfigError):
            OmpEnvironment(proc_bind="sideways")
