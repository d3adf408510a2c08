"""One test per row of the acceptance table, the same rows `laumon
acceptance` prints; `pytest -s tests/test_acceptance.py` shows each line."""

import pytest

from laumon import acceptance, characters


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


def test_blocks_hold_the_one_block_case():
    """Criterion 4's verify_WZ on BLOCKS[0] is the L = 1 reduction: one
    block has no B-character factors, so its W-character alone is Z."""
    assert characters.BlockData(*acceptance.BLOCKS[0]).L == 1
