"""The committed paper-reference suite: no dangling paths, CI gate green."""

import pytest

from repro.analysis.metrics import student_t_quantile_two_sided
from repro.checks.evaluate import EXIT_OK, evaluate
from repro.checks.paper_refs import PAPER_TOLERANCE, paper_suite
from repro.checks.spec import suite_from_dict
from repro.harness.paper_values import (
    PAPER_TABLE4,
    PAPER_TABLE5,
    PAPER_TABLE6,
)

pytestmark = pytest.mark.checks


def expected_count():
    n = sum(len(cells) for cells in PAPER_TABLE4.values())
    for table in (PAPER_TABLE5, PAPER_TABLE6):
        for cells in table.values():
            n += len(cells) - 1 + len(cells["d2d"])
    return n


class TestSuiteShape:
    def test_every_table_cell_is_covered(self):
        assert len(paper_suite()) == expected_count()

    def test_references_carry_paper_dispersion(self):
        for check in paper_suite():
            assert check.reference.std is not None
            assert check.reference.n == 100
            assert check.reference.lower == -PAPER_TOLERANCE
            assert check.reference.upper == PAPER_TOLERANCE

    def test_units_follow_the_paper(self):
        by_name = {c.name: c for c in paper_suite()}
        assert by_name["table4.trinity.single"].reference.unit == "GB/s"
        assert by_name["table4.trinity.on_socket"].reference.unit == "us"
        assert by_name["table5.frontier.device_bw"].reference.unit == "GB/s"
        assert by_name["table6.frontier.hd_bw"].reference.unit == "GB/s"
        assert by_name["table6.frontier.d2d.A"].reference.unit == "us"

    def test_suite_survives_schema_roundtrip(self):
        suite = paper_suite()
        assert suite_from_dict(suite.to_dict()) == suite

    def test_table_subset(self):
        t4 = paper_suite(tables=("table4",))
        assert len(t4) == sum(len(c) for c in PAPER_TABLE4.values())
        with pytest.raises(ValueError):
            paper_suite(tables=("table9",))


class TestNoDanglingPaths:
    def test_every_reference_resolves_against_a_real_run(
        self, fast_check_source
    ):
        """The committed spec can never point at a cell that does not
        exist: every path extracts from an actual study."""
        report = evaluate(paper_suite(), fast_check_source)
        dangling = [
            (r.path, r.reason) for r in report.skipped
        ]
        assert dangling == []

    def test_table4_refs_resolve_against_table4_run(self, fast_check_source):
        report = evaluate(paper_suite(tables=("table4",)), fast_check_source)
        assert not report.skipped
        assert {r.path.split(".")[0] for r in report.results} == {"table4"}


class TestCIGate:
    def test_paper_refs_gate_green_on_a_real_study(self, fast_check_source):
        """The `python -m repro check` CI step: committed references
        pass against the simulation at the committed tolerance."""
        report = evaluate(paper_suite(), fast_check_source)
        assert report.exit_code == EXIT_OK
        assert not report.failed

    def test_t_quantile_is_solved_once_per_suite(self, fast_check_source):
        """Every check asks for the same ``(alpha, runs - 1)``, so the
        suite bisects for the t quantile once, not once per check."""
        student_t_quantile_two_sided.cache_clear()
        evaluate(paper_suite(), fast_check_source)
        assert student_t_quantile_two_sided.cache_info().misses == 1

    def test_direction_inference_over_the_suite(self):
        for check in paper_suite():
            want = (
                "higher"
                if check.reference.unit == "GB/s"
                else "lower"
            )
            assert check.direction == want, check.name
