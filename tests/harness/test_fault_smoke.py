"""``python -m repro selfcheck`` under a fault profile.

A fault profile shapes simulation draws only: the structural self-check
prints the same text with or without ``--faults``, and no fault-smoke
section follows it.
"""

from repro.harness.cli import main


def test_selfcheck_smoke_target_passes(capsys):
    code = main(["selfcheck", "--faults", "smoke"])
    out = capsys.readouterr().out
    assert code == 0
    assert "self-check passed" in out
    assert "fault smoke" not in out


def test_selfcheck_without_faults_skips_smoke(capsys):
    code = main(["selfcheck"])
    out = capsys.readouterr().out
    assert code == 0
    assert "self-check passed" in out
    assert "fault smoke" not in out
