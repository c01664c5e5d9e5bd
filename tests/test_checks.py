"""Every entry of the self-check registry, the slow ones included.

`ewens check --quick` (tests/test_cli.py) runs only the quick subset; this
runs each check function on its own so a failure names the check.
"""

import pytest

from ewens.checks import CHECKS


@pytest.mark.parametrize("fn", [fn for _, _, fn in CHECKS], ids=[name for name, _, _ in CHECKS])
def test_registry_check_passes(fn):
    fn()
