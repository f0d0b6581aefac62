"""``python -m repro selfcheck`` prints no observability section."""

from repro.harness.cli import main


def test_selfcheck_without_obs_skips_smoke(capsys):
    code = main(["selfcheck"])
    out = capsys.readouterr().out
    assert code == 0
    assert "self-check passed" in out
    assert "obs smoke" not in out
