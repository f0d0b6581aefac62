"""The CLI has no worker-supervision flags.

A dead ``--jobs`` worker ends the run, and a rerun on its ``--resume``
directory finishes it, so there is no per-cell deadline or retry budget
to set.  Marked ``chaos`` so CI can select it with the cache-resume and
dead-worker suite (``pytest -m chaos``, with
:mod:`tests.properties.test_property_chaos`); it also runs in the
default tier-1 sweep.
"""

import pytest

from repro.harness.cli import main


@pytest.mark.chaos
def test_cell_timeout_flag_validates(capsys):
    for flag in (["--cell-timeout", "120"], ["--max-cell-retries", "5"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["table4", "--runs", "2", *flag])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""
