"""End-to-end acceptance battery.

One test per check registered in ``classent.verify``, in battery order
and named by the check, so a check is covered as soon as it exists.
Each runs at the defaults of ``classent verify``, prints one pass/fail
line with its margin and detail, and asserts that the check passes.
Run with ``pytest -s`` to see the lines as they complete.
"""

import pytest

from classent.verify import CHECKS


@pytest.mark.parametrize("name", list(CHECKS))
def test_check(name):
    run, _ = CHECKS[name]
    r = run()
    print(f"[{r.name}] {'PASS' if r.passed else 'FAIL'} — {r.detail} [margin {r.margin:.2e}]")
    assert r.passed, r.detail
