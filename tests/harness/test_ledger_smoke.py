"""``python -m repro selfcheck`` prints no run-ledger section.

The run-ledger suite is ``pytest -m ledger``.
"""

import pytest

from repro.harness.cli import main

pytestmark = pytest.mark.ledger


class TestLedgerSmoke:
    def test_without_flag_no_section(self, capsys):
        code = main(["selfcheck", "--runs", "2", "--no-ledger"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ledger smoke" not in out
