"""Declarative regression checks over study outputs (``repro.checks/v1``).

The one place "is this measurement acceptable" is decided: reference
values with tolerances (ReFrame's ``(value, lower, upper, unit)``
idiom), two statistical policies (an interval test, or Welch's t
against the reference's own std and n) with adaptive repeat counts,
extractor paths addressing any table cell / obs metric / ledger run,
and a single evaluator that ``python -m repro check`` and ``repro runs
diff`` both gate through (``runs diff`` as a ``welch`` suite built from
the baseline run's metric rows).
``compare`` gates nothing: it prints the paper's cells beside the
measured ones, read through the same
:class:`~repro.checks.extract.TableSource` that ``check`` resolves.

The package re-exports nothing; import from its submodules
(``spec``, ``extract``, ``evaluate``, ``paper_refs``, ``report``), so a
command loads only the ones it calls.
"""
