"""Tests for the ``repro.checks/v1`` spec model."""

import json

import pytest

from repro.checks.spec import (
    CHECKS_SCHEMA,
    CheckSpec,
    CheckSuite,
    Reference,
    StatPolicy,
    load_suite,
    suite_from_dict,
)
from repro.errors import CheckSpecError, ReproError

pytestmark = pytest.mark.checks


class TestReference:
    def test_reframe_tuple_form(self):
        ref = Reference.from_value((5.67, None, 0.05, "us"))
        assert ref.value == 5.67
        assert ref.lower is None
        assert ref.upper == 0.05
        assert ref.unit == "us"
        assert ref.to_tuple() == (5.67, None, 0.05, "us")

    def test_bounds_two_sided(self):
        ref = Reference(100.0, -0.1, 0.05)
        assert ref.bounds() == (90.0, 105.0)

    def test_bounds_one_sided(self):
        low, high = Reference(10.0, None, 0.05).bounds()
        assert low == float("-inf") and high == 10.5
        low, high = Reference(10.0, -0.05, None).bounds()
        assert low == 9.5 and high == float("inf")

    def test_contains_is_inclusive_at_threshold(self):
        # exactly-at-threshold counts as inside, ReFrame-style
        ref = Reference(100.0, -0.1, 0.05)
        assert ref.contains(90.0)
        assert ref.contains(105.0)
        assert not ref.contains(89.999999)
        assert not ref.contains(105.000001)

    def test_negative_value_bands_scale_by_magnitude(self):
        ref = Reference(-10.0, -0.1, 0.1)
        low, high = ref.bounds()
        assert low == pytest.approx(-11.0)
        assert high == pytest.approx(-9.0)

    def test_wrong_sign_thresholds_rejected(self):
        with pytest.raises(CheckSpecError):
            Reference(1.0, lower=0.1)
        with pytest.raises(CheckSpecError):
            Reference(1.0, upper=-0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(CheckSpecError):
            Reference(float("nan"))
        with pytest.raises(CheckSpecError):
            Reference(1.0, upper=float("inf"))

    def test_reference_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            Reference(1.0, lower=0.5)

    def test_dict_form_with_dispersion(self):
        ref = Reference.from_value(
            {"value": 12.36, "lower": -0.05, "upper": 0.05,
             "unit": "GB/s", "std": 0.16, "n": 100}
        )
        assert ref.std == 0.16 and ref.n == 100

    def test_bad_forms_rejected(self):
        with pytest.raises(CheckSpecError):
            Reference.from_value("5.67")
        with pytest.raises(CheckSpecError):
            Reference.from_value((1.0, None, 0.05, "us", "extra"))
        with pytest.raises(CheckSpecError):
            Reference.from_value({"lower": -0.1})


class TestStatPolicy:
    def test_defaults(self):
        p = StatPolicy()
        assert p.mode == "interval"
        assert p.min_repeats <= p.max_repeats

    def test_unknown_mode_rejected(self):
        with pytest.raises(CheckSpecError):
            StatPolicy(mode="anova")

    def test_repeat_ordering_enforced(self):
        with pytest.raises(CheckSpecError):
            StatPolicy(min_repeats=10, max_repeats=5)
        with pytest.raises(CheckSpecError):
            StatPolicy(min_repeats=0)

    def test_alpha_range(self):
        with pytest.raises(CheckSpecError):
            StatPolicy(alpha=0.0)
        with pytest.raises(CheckSpecError):
            StatPolicy(alpha=1.0)

    def test_ci_target_relative_and_absolute(self):
        assert StatPolicy(ci_rel=0.05).ci_target(200.0) == pytest.approx(10.0)
        assert StatPolicy(ci_abs=0.5).ci_target(200.0) == 0.5

    def test_roundtrip(self):
        p = StatPolicy(mode="welch", alpha=0.05, min_repeats=5,
                       max_repeats=50, ci_rel=0.02, ci_abs=0.1)
        assert StatPolicy.from_dict(p.to_dict()) == p

    def test_unknown_keys_rejected(self):
        with pytest.raises(CheckSpecError):
            StatPolicy.from_dict({"modes": "welch"})


class TestCheckSpec:
    def test_direction_defaults_to_shared_inference(self):
        lat = CheckSpec("l", "table4.eagle.on_socket", Reference(0.17))
        bw = CheckSpec("b", "table4.eagle.single", Reference(13.45))
        assert lat.direction == "lower"
        assert bw.direction == "higher"

    def test_explicit_direction_wins(self):
        spec = CheckSpec("x", "table4.eagle.single", Reference(13.45),
                         better="lower")
        assert spec.direction == "lower"

    def test_invalid_direction_rejected(self):
        with pytest.raises(CheckSpecError):
            CheckSpec("x", "p", Reference(1.0), better="sideways")

    def test_empty_name_or_path_rejected(self):
        with pytest.raises(CheckSpecError):
            CheckSpec("", "p", Reference(1.0))
        with pytest.raises(CheckSpecError):
            CheckSpec("x", " ", Reference(1.0))


class TestSuite:
    def doc(self):
        return {
            "schema": CHECKS_SCHEMA,
            "suite": "smoke",
            "defaults": {"mode": "welch", "alpha": 0.05},
            "checks": [
                {"name": "lat", "path": "metrics:sim.lat",
                 "reference": [5.67, None, 0.05, "us"]},
                {"name": "bw", "path": "table4.eagle.single",
                 "reference": {"value": 13.45, "lower": -0.08,
                               "upper": 0.08, "unit": "GB/s"},
                 "policy": {"mode": "interval"}},
            ],
        }

    def test_load_applies_defaults_and_overrides(self):
        suite = suite_from_dict(self.doc())
        assert suite.checks[0].policy.mode == "welch"
        assert suite.checks[0].policy.alpha == 0.05
        # per-check override replaces the mode, keeps the default alpha
        assert suite.checks[1].policy.mode == "interval"
        assert suite.checks[1].policy.alpha == 0.05

    def test_roundtrip_through_dict(self):
        suite = suite_from_dict(self.doc())
        assert suite_from_dict(suite.to_dict()) == suite

    def test_wrong_schema_rejected(self):
        doc = self.doc()
        doc["schema"] = "repro.checks/v2"
        with pytest.raises(CheckSpecError):
            suite_from_dict(doc)

    def test_empty_and_missing_checks_rejected(self):
        doc = self.doc()
        doc["checks"] = []
        with pytest.raises(CheckSpecError):
            suite_from_dict(doc)
        del doc["checks"]
        with pytest.raises(CheckSpecError):
            suite_from_dict(doc)

    def test_duplicate_names_rejected(self):
        doc = self.doc()
        doc["checks"][1]["name"] = "lat"
        with pytest.raises(CheckSpecError):
            suite_from_dict(doc)

    def test_unknown_keys_rejected(self):
        doc = self.doc()
        doc["tolerance"] = 0.05
        with pytest.raises(CheckSpecError):
            suite_from_dict(doc)
        doc = self.doc()
        doc["checks"][0]["threshold"] = 0.1
        with pytest.raises(CheckSpecError):
            suite_from_dict(doc)

    def test_subset(self):
        suite = suite_from_dict(self.doc())
        sub = suite.subset(["bw"])
        assert [c.name for c in sub] == ["bw"]
        with pytest.raises(CheckSpecError):
            suite.subset(["nope"])

    def test_load_toml_file(self, tmp_path):
        spec = tmp_path / "checks.toml"
        spec.write_text(
            'schema = "repro.checks/v1"\n'
            'suite = "toml-smoke"\n'
            "[defaults]\n"
            'mode = "interval"\n'
            "[[checks]]\n"
            'name = "lat"\n'
            'path = "metrics:sim.lat"\n'
            "[checks.reference]\n"
            "value = 5.67\n"
            "upper = 0.05\n"
            'unit = "us"\n'
        )
        suite = load_suite(str(spec))
        assert suite.name == "toml-smoke"
        assert suite.checks[0].reference.to_tuple() == (5.67, None, 0.05, "us")

    def test_load_json_file(self, tmp_path):
        spec = tmp_path / "checks.json"
        spec.write_text(json.dumps(self.doc()))
        assert len(load_suite(str(spec))) == 2

    def test_load_errors_are_spec_errors(self, tmp_path):
        with pytest.raises(CheckSpecError):
            load_suite(str(tmp_path / "missing.toml"))
        bad = tmp_path / "bad.toml"
        bad.write_text("schema = [unclosed")
        with pytest.raises(CheckSpecError):
            load_suite(str(bad))
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{")
        with pytest.raises(CheckSpecError):
            load_suite(str(bad_json))
