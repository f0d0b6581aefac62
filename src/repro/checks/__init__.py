"""Declarative regression checks over study outputs (``repro.checks/v1``).

The one place "is this measurement acceptable" is decided: reference
values with tolerances (ReFrame's ``(value, lower, upper, unit)``
idiom), statistical policies (interval, Welch-t, Mann-Whitney,
bootstrap) with adaptive repeat counts, extractor paths addressing any
table cell / obs metric / ledger run, and a single evaluator that
``compare``, ``runs diff`` and ``python -m repro check`` all gate
through.
"""

from .evaluate import (
    EXIT_INFLATED,
    EXIT_OK,
    EXIT_REGRESSION,
    CheckReport,
    CheckResult,
    DeltaVerdict,
    adaptive_observe,
    classify_delta,
    evaluate,
)
from .extract import (
    CallableSource,
    CompositeSource,
    ExtractionError,
    MetricsSource,
    Observation,
    Source,
    TableSource,
    ledger_source,
    study_source,
)
from .paper_refs import PAPER_TOLERANCE, paper_suite
from .report import render_report, render_report_json
from .spec import (
    CHECKS_SCHEMA,
    CheckSpec,
    CheckSuite,
    Reference,
    StatPolicy,
    load_suite,
    suite_from_dict,
)

__all__ = [
    "CHECKS_SCHEMA",
    "CheckReport",
    "CheckResult",
    "CheckSpec",
    "CheckSuite",
    "CallableSource",
    "CompositeSource",
    "DeltaVerdict",
    "EXIT_INFLATED",
    "EXIT_OK",
    "EXIT_REGRESSION",
    "ExtractionError",
    "MetricsSource",
    "Observation",
    "PAPER_TOLERANCE",
    "Reference",
    "Source",
    "StatPolicy",
    "TableSource",
    "adaptive_observe",
    "classify_delta",
    "evaluate",
    "ledger_source",
    "load_suite",
    "paper_suite",
    "render_report",
    "render_report_json",
    "study_source",
    "suite_from_dict",
]
