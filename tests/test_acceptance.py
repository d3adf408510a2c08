"""One test per row of the acceptance table, the same rows `laumon
acceptance` prints; `pytest -s tests/test_acceptance.py` shows each line."""

import itertools
import json
from collections import Counter

import pytest

from laumon import acceptance, characters, series


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


def test_golden_rows_compare_bytes(shared, monkeypatch):
    """A golden row passes on the fixture's exact text: a re-indented
    fixture that parses to the same series differs, and a missing one is
    missing, whether the file is absent or the reader finds nothing."""
    real = acceptance._fixture
    monkeypatch.setattr(acceptance, "_fixture", lambda name: json.dumps(
        json.loads(real(name)), indent=1) + "\n")
    for name, entry, key in acceptance.GOLDEN:
        assert series.from_json_dict(json.loads(acceptance._fixture(name))) \
            == shared[entry][key]
        assert acceptance._golden(name, entry, key)(shared) \
            == (False, "fixture differs")
    monkeypatch.setattr(acceptance, "_fixture", real)
    assert acceptance._golden("zr_9_9.json", "Z", (1, 1))(shared) \
        == (False, "fixture missing")
    monkeypatch.setattr(acceptance, "_fixture", lambda name: None)
    name, entry, key = acceptance.GOLDEN[0]
    assert acceptance._golden(name, entry, key)(shared) \
        == (False, "fixture missing")


def test_acceptance_expands_each_verma_denominator_once(monkeypatch):
    """Row 10c reuses the golden denominators of shared(), so a run expands
    one per distinct argument, each through the module attribute."""
    calls = []
    real = characters.affine_verma_denominator

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(characters, "affine_verma_denominator", counted)
    assert all(r["passed"] for r in acceptance.run())
    assert sorted(calls) == sorted(acceptance.VERMA)
    assert len(calls) == 4


def factor_dimensions(factors):
    """{dimension: multiplicity} of the generators read off an X_i or X_ij
    factor list: a diagonal factor (y^zy z) is one generator of dimension
    -zy - 1, and an adjacent pair (y^zy z u_a u_c^-1, y^uy u_c u_a^-1) two
    of dimension -(zy + uy)/2 - 1."""
    dims = Counter()
    it = iter(factors)
    for f in it:
        if not any(f.u):
            assert f.z == 1
            dims[-f.y - 1] += 1
            continue
        g = next(it)
        assert (f.z, g.z) == (1, 0)
        assert g.u == tuple(-e for e in f.u)
        assert (f.y + g.y) % 2 == 0
        dims[-(f.y + g.y) // 2 - 1] += 2
    return dims


def test_spin_dimensions_are_the_factor_generators(shared):
    """Row 10a's identity, tied to the factor lists: per block pair, the
    spin decomposition's dimensions with their multiplicities are the
    generators read off x_i_factors and x_ij_factors."""
    for b in shared["shapes"]:
        want = {}
        for pair, d, mult in characters.spin_decomposition(b):
            want.setdefault(pair, Counter())[d] += mult
        got = {(i, i): factor_dimensions(characters.x_i_factors(b, i))
               for i in range(1, b.L + 1)}
        got.update(((i, j), factor_dimensions(characters.x_ij_factors(b, i, j)))
                   for i, j in itertools.combinations(range(1, b.L + 1), 2))
        assert got == want, b


def test_fermion_difference_is_twice_the_b_factors(shared):
    """Row 10b's identity, tied to the factor lists: for odd s_i and s_j,
    direct minus iterated fermions is 2 len(b_character_factors)."""
    pairs = 0
    for b in shared["shapes"]:
        for p in characters.free_field_counts(b)["pairs"]:
            i, j = p["i"], p["j"]
            if b.s[i - 1] % 2 == 1 and b.s[j - 1] % 2 == 1:
                pairs += 1
                assert (p["direct"]["fermions"] - p["iterated"]["fermions"]
                        == 2 * len(characters.b_character_factors(b, i, j))), b
    assert pairs == 29
