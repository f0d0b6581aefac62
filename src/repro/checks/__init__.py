"""Declarative regression checks over study outputs (``repro.checks/v1``).

The one place "is this measurement acceptable" is decided: reference
values with tolerances (ReFrame's ``(value, lower, upper, unit)``
idiom), statistical policies (interval, Welch-t, Mann-Whitney,
bootstrap) with adaptive repeat counts, extractor paths addressing any
table cell / obs metric / ledger run, and a single evaluator that
``runs diff`` and ``python -m repro check`` both gate through.
``compare`` gates nothing: it prints the paper's cells beside the
measured ones, read through the same
:class:`~repro.checks.extract.TableSource` that ``check`` resolves.

The package re-exports nothing; import from its submodules
(``spec``, ``extract``, ``evaluate``, ``paper_refs``, ``report``), so a
command loads only the ones it calls.
"""
