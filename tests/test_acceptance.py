"""One test per row of the acceptance table, the same rows `laumon
acceptance` prints; `pytest -s tests/test_acceptance.py` shows each line."""

import pytest

from laumon import acceptance


@pytest.fixture(scope="module")
def shared():
    return acceptance.shared()


@pytest.mark.parametrize("name, check", acceptance.CRITERIA,
                         ids=[name.replace(" ", "_")
                              for name, _ in acceptance.CRITERIA])
def test_criterion(shared, name, check):
    passed, detail = check(shared)
    print("%s %s  %s" % (name, "PASS" if passed else "FAIL", detail))
    assert passed, detail
