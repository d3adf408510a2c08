import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laumon import closed_form
from laumon.closed_form import (theorem_Z, theorem_Z_u, u_exponents, u_pair,
                                u_qtilde, verify_appendixB,
                                verify_change_of_variables,
                                verify_partition_identity, verify_theorem_Z)
from laumon.localization import brute_force_Z
from laumon.series import Series


def test_theorem_Z_order_zero_is_one():
    for r in ((1, 1), (2, 1), (1, 1, 1)):
        s = theorem_Z(r, 0)
        assert s == Series.one(s.space)


def test_theorem_Z_hand_coefficients():
    z = theorem_Z((1, 1), 2)
    assert z.coefficient((2, 1, 1)) == 2
    assert z.coefficient((0, 1, 1)) == 1
    assert z.coefficient((0, 2, 0)) == 1
    assert z.coefficient((0, 1, 0)) == 1


def test_theorem_Z_matches_oracle():
    for r in ((1, 1), (2, 1), (1, 1, 1)):
        assert theorem_Z(r, 3) == brute_force_Z(r, 3)
    assert verify_theorem_Z((2, 1), 3) == {"equal": True, "coefficients": 25}


@settings(max_examples=40)
@given(r=st.lists(st.integers(0, 2), min_size=2, max_size=4)
       .filter(any).map(tuple),
       n_max=st.integers(0, 4))
def test_three_methods_agree_on_random_ranks(r, n_max):
    z = brute_force_Z(r, n_max)
    assert theorem_Z(r, n_max) == z
    assert theorem_Z_u(r, n_max) == z


def test_theorem_Z_nonnegative_coefficients():
    for r in ((1, 1), (2, 1), (2, 2, 1)):
        assert all(c > 0 for c in theorem_Z(r, 3).terms.values())


def test_theorem_Z_zero_rank_entry():
    # observed robustness beyond the usual positive-rank assumption;
    # emits no error and still matches the localization sum
    assert theorem_Z((0, 1), 3) == brute_force_Z((0, 1), 3)


def test_theorem_Z_u_equals_theorem_Z():
    for r in ((1, 1), (2, 1), (1, 1, 1), (2, 2, 1)):
        assert theorem_Z_u(r, 3) == theorem_Z(r, 3)
    assert verify_change_of_variables((1, 1, 1), 3)["equal"]


def test_theorem_Z_u_hand_coefficient():
    z = theorem_Z_u((2, 1), 1)
    assert z.coefficient((0, 0, 1)) == 1


def test_u_exponents():
    # ell=3: u_1 inverts qtilde_2 and qtilde_1 (indices -1, -2 mod 3),
    # u_2 inverts qtilde_1 only, u_3 is empty
    assert u_exponents(3, 1) == [0, -1, -1]
    assert u_exponents(3, 2) == [0, -1, 0]
    assert u_exponents(3, 3) == [0, 0, 0]
    with pytest.raises(ValueError):
        u_exponents(3, 4)


def _hand_expanded(ell, a, c):
    """qtilde vectors of the families z u_a u_c^(-1) and u_a^(-1) u_c, as
    theorem_Z_u once wrote them out from u_exponents."""
    ua, uc = u_exponents(ell, a), u_exponents(ell, c)
    return ([1 + x - y for x, y in zip(ua, uc)],
            [y - x for x, y in zip(ua, uc)])


def test_u_qtilde_matches_hand_expanded_families():
    assert u_pair(3, 1, 3) == (1, 0, -1)
    for ell in range(2, 7):
        assert u_qtilde(1, (0,) * ell) == [1] * ell
        for a, c in itertools.combinations(range(1, ell + 1), 2):
            above, below = _hand_expanded(ell, a, c)
            assert u_qtilde(1, u_pair(ell, a, c)) == above
            assert u_qtilde(0, u_pair(ell, c, a)) == below


def _zu(ell):
    small = st.integers(-3, 3)
    return st.tuples(small, st.lists(small, min_size=ell, max_size=ell)
                     .map(tuple))


@given(st.integers(1, 6).flatmap(lambda ell: st.tuples(_zu(ell), _zu(ell))),
       st.integers(-3, 3))
def test_u_qtilde_is_linear(pair, k):
    (z1, u1), (z2, u2) = pair
    summed = u_qtilde(z1 + k * z2, tuple(x + k * y for x, y in zip(u1, u2)))
    assert summed == [x + k * y for x, y in zip(u_qtilde(z1, u1),
                                                u_qtilde(z2, u2))]


def test_partition_identity():
    assert verify_partition_identity(0, 2, 0) == {"equal": True,
                                                  "coefficients": 1}
    assert verify_partition_identity(0, 2, 6) == {"equal": True,
                                                  "coefficients": 27}
    assert verify_partition_identity(1, 3, 6) == {"equal": True,
                                                  "coefficients": 29}
    assert verify_partition_identity(2, 4, 5) == {"equal": True,
                                                  "coefficients": 19}


def test_appendixB():
    # ell = 2 has no off-diagonal factors: a check would compare 1 with 1
    with pytest.raises(ValueError):
        verify_appendixB((1, 1), 4)
    with pytest.raises(ValueError):
        verify_appendixB((1, 0, 0), 4)
    rep = verify_appendixB((1, 1, 1), 4)
    assert rep["equal"]
    assert [c["name"] for c in rep["checks"]] == ["raw_vs_split", "split_vs_u",
                                                  "raw_vs_u"]
    assert rep["families"] == {"raw": 2, "split": 2, "u": 2}
    assert verify_appendixB((2, 2, 1), 3)["equal"]


def test_report_structure_on_difference(monkeypatch):
    # a wrong localization side, patched where verify_theorem_Z binds it
    def plus_one(r, n):
        z = theorem_Z(r, n)
        return z + Series.one(z.space)
    monkeypatch.setattr(closed_form, "brute_force_Z", plus_one)
    rep = verify_theorem_Z((1, 1), 2)
    assert rep["equal"] is False
    assert rep["first_diff"]["exp"] == {}
    assert rep["first_diff"]["lhs"] == "2"
    assert rep["first_diff"]["rhs"] == "1"
