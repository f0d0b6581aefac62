"""``python -m repro selfcheck`` prints no parallel-execution section.

The parallel equivalence suite is ``pytest -m parallel``.
"""

import pytest

from repro.harness.cli import main


@pytest.mark.parallel
def test_selfcheck_without_flag_skips_parallel_smoke(capsys):
    code = main(["selfcheck"])
    out = capsys.readouterr().out
    assert code == 0
    assert "self-check passed" in out
    assert "parallel smoke" not in out
