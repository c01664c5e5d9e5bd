"""Every entry of the self-check registry, the slow ones included.

`ewens check --quick` (tests/test_cli.py) runs only the quick subset; this
runs each check function on its own so a failure names the check.
"""

from collections import Counter

import pytest

from ewens import bruteforce, checks
from ewens.checks import CHECKS


@pytest.mark.parametrize("fn", [fn for _, _, fn in CHECKS], ids=[name for name, _, _ in CHECKS])
def test_registry_check_passes(fn):
    fn()


def test_quick_registry_enumerates_each_table_once_per_check(monkeypatch):
    # a check that needs several prefix lengths of one (n, theta) reads them
    # from one table: db_exact_vs_bruteforce builds 9 tables, not one per b
    calls: dict[str, Counter] = {}
    running = []
    enumerate_esf = bruteforce.enumerate_esf

    def counted(params):
        calls.setdefault(running[-1], Counter())[params.n, params.theta] += 1
        return enumerate_esf(params)

    def tagged(name, fn):
        def run():
            running.append(name)
            return fn()
        return run

    monkeypatch.setattr(bruteforce, "enumerate_esf", counted)
    monkeypatch.setattr(checks, "CHECKS", [(name, q, tagged(name, fn)) for name, q, fn in CHECKS])
    results = checks.run_checks(quick=True)
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    for name, per_table in calls.items():
        assert max(per_table.values()) == 1, (name, per_table)
    assert sum(calls["db_exact_vs_bruteforce"].values()) == 9
