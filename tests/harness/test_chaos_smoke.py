"""CLI validation of the worker-supervision flags.

Marked ``chaos`` so CI can select the crash-recovery suite
(``pytest -m chaos``, with :mod:`tests.properties.test_property_chaos`);
it also runs in the default tier-1 sweep.
"""

import pytest

from repro.harness.cli import main


@pytest.mark.chaos
def test_cell_timeout_flag_validates(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["table4", "--runs", "2", "--cell-timeout", "-1"])
    capsys.readouterr()
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["table4", "--runs", "2", "--max-cell-retries", "-1"])
    capsys.readouterr()
    assert excinfo.value.code == 2
