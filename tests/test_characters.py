import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laumon import characters as ch
from laumon.closed_form import theorem_Z
from laumon.series import Series, render_text


def test_blockdata_validation():
    with pytest.raises(ValueError):
        ch.BlockData((), ())
    with pytest.raises(ValueError):
        ch.BlockData((1, 1), (1,))
    with pytest.raises(ValueError):
        ch.BlockData((0, 1), (1, 2))
    with pytest.raises(ValueError):
        ch.BlockData((1, 1), (2, 2))
    with pytest.raises(ValueError):
        ch.BlockData((1, 1), (2, 1))
    b = ch.BlockData((2, 1), (1, 2))
    assert (b.L, b.ell, b.N) == (2, 3, 4)
    assert b.block(1) == [1, 2]
    assert b.block(2) == [3]


def test_rank_vector_examples():
    assert ch.rank_vector_from(ch.BlockData((2,), (1,))) == (1, 1)
    assert ch.rank_vector_from(ch.BlockData((1, 1), (1, 2))) == (2, 1)
    assert ch.rank_vector_from(ch.BlockData((2, 1), (1, 2))) == (2, 1, 1)


def test_rank_vector_block_property():
    rng = random.Random(21)
    for _ in range(25):
        big_l = rng.randint(1, 4)
        m = tuple(rng.randint(1, 3) for _ in range(big_l))
        s = tuple(sorted(rng.sample(range(1, 9), big_l)))
        b = ch.BlockData(m, s)
        r = ch.rank_vector_from(b)
        for i in range(1, big_l + 1):
            for c in b.block(i):
                assert r[b.ell - c] == s[i - 1]


def test_X_i_examples():
    b = ch.BlockData((2,), (1,))
    s = ch.expand_factors(b, ch.x_i_factors(b, 1), 0)
    assert s == Series.one(s.space)
    b2 = ch.BlockData((1, 1), (1, 2))
    s = ch.expand_factors(b2, ch.x_i_factors(b2, 1), 1)
    assert s == Series.one(s.space)


def test_X_ij_small_value():
    b = ch.BlockData((1, 1), (1, 2))
    s = ch.expand_factors(b, ch.x_ij_factors(b, 1, 2), 1)
    assert render_text(s) == "q0 + q1 + 1"
    with pytest.raises(ValueError):
        ch.x_ij_factors(b, 2, 1)


def test_X_ij_truncation_consistency():
    b = ch.BlockData((1, 1), (1, 2))
    factors = ch.x_ij_factors(b, 1, 2)
    assert ch.expand_factors(b, factors, 3).truncate(2) \
        == ch.expand_factors(b, factors, 2)


def test_B_character_small_value():
    b = ch.BlockData((1, 1), (1, 2))
    s = ch.expand_factors(b, ch.b_character_factors(b, 1, 2), 1)
    assert render_text(s) == "y^2*q0 + 1"
    with pytest.raises(ValueError):
        ch.b_character_factors(b, 1, 1)
    with pytest.raises(ValueError):
        ch.betagamma_factors(b, 1, 1)


def test_betagamma_contains_B_factors():
    b = ch.BlockData((1, 2), (1, 2))
    bf = ch.b_character_factors(b, 1, 2)
    full = ch.betagamma_factors(b, 1, 2)
    assert full[:len(bf)] == bf
    assert len(full) == 2 * len(bf)


def test_character_coefficients_nonnegative():
    b = ch.BlockData((1, 1), (1, 2))
    for factors in (ch.x_i_factors(b, 1), ch.x_i_factors(b, 2),
                    ch.x_ij_factors(b, 1, 2), ch.b_character_factors(b, 1, 2),
                    ch.betagamma_factors(b, 1, 2)):
        s = ch.expand_factors(b, factors, 3)
        assert all(c > 0 for c in s.terms.values())


def test_w_refined_verma():
    b = ch.BlockData((2,), (1,))
    factors = ch.w_refined_verma_factors(b)
    assert ch.expand_factors(b, factors, 0).terms == {(0, 0, 0): 1}
    # L=1 with s=1: no B factors, so this is the whole generating function
    assert ch.expand_factors(b, factors, 4) == theorem_Z((1, 1), 4)


def test_w_refined_verma_factorwise():
    b = ch.BlockData((1, 1), (1, 2))
    prod = (ch.expand_factors(b, ch.x_i_factors(b, 1), 3)
            * ch.expand_factors(b, ch.x_i_factors(b, 2), 3)
            * ch.expand_factors(b, ch.x_ij_factors(b, 1, 2), 3))
    assert ch.expand_factors(b, ch.w_refined_verma_factors(b), 3) == prod


def test_verify_WZ():
    rep = ch.verify_WZ(ch.BlockData((1, 1), (1, 2)), 4)
    assert rep == {"equal": True, "coefficients": 47, "brute_checked": True,
                   "brute_equal": True, "brute_coefficients": 47}
    rep = ch.verify_WZ(ch.BlockData((2, 1), (1, 2)), 3)
    assert rep == {"equal": True, "coefficients": 46, "brute_checked": True,
                   "brute_equal": True, "brute_coefficients": 46}


def test_spin_decomposition_examples():
    ents = ch.spin_decomposition(ch.BlockData((2,), (1,)))
    assert ents == [((1, 1), 1, 4)]
    ents = ch.spin_decomposition(ch.BlockData((1, 1), (1, 2)))
    assert ents == [((1, 1), 1, 1), ((2, 2), 1, 1), ((2, 2), 3, 1),
                    ((1, 2), 2, 2)]
    assert ch.spin_total_dimension(ents) == 9
    ents = ch.spin_decomposition(ch.BlockData((1, 1, 1), (1, 2, 3)))
    assert ch.spin_total_dimension(ents) == 36


def test_spin_total_random():
    rng = random.Random(22)
    for _ in range(40):
        big_l = rng.randint(1, 4)
        m = tuple(rng.randint(1, 3) for _ in range(big_l))
        s = tuple(sorted(rng.sample(range(1, 7), big_l)))
        b = ch.BlockData(m, s)
        assert ch.spin_total_dimension(ch.spin_decomposition(b)) == b.N ** 2


def test_free_field_counts():
    ff = ch.free_field_counts(ch.BlockData((2,), (1,)))
    assert ff["diagonal"] == [{"i": 1, "fermions": 0}]
    assert ff["pairs"] == []

    ff = ch.free_field_counts(ch.BlockData((1, 1), (1, 2)))
    pair = ff["pairs"][0]
    assert pair["direct"] == {"fermions": 4, "betagamma": 1}
    assert pair["iterated"] == {"fermions": 0, "betagamma": 0}

    ff = ch.free_field_counts(ch.BlockData((1, 1), (1, 3)))
    pair = ff["pairs"][0]
    assert pair["direct"] == {"fermions": 4, "betagamma": 0}
    # difference between the two first-branch counts is 2*m_i*m_j*(s_j-s_i)
    assert pair["direct"]["fermions"] - pair["iterated"]["fermions"] == 4

    ff = ch.free_field_counts(ch.BlockData((1, 1), (2, 4)))
    pair = ff["pairs"][0]
    assert pair["direct"] == {"fermions": 12, "betagamma": 0}
    assert pair["iterated"] == {"fermions": 16, "betagamma": 4}


def test_affine_verma_denominator_partition_numbers():
    s = ch.affine_verma_denominator(1, 6, 4)
    assert [s.coefficient((k, 0)) for k in range(7)] == [1, 1, 2, 3, 5, 7, 11]


def test_affine_verma_denominator_order_zero():
    s = ch.affine_verma_denominator(2, 0, 2)
    want = {(0, 0, 0): 1, (0, -1, 1): 1, (0, -2, 2): 1}
    assert s.terms == want


def test_verify_verma_vs_X1():
    for args in ((1, 4, 4), (2, 4, 4), (3, 4, 4), (2, 5, 4), (3, 5, 4),
                 (2, 4, 2), (2, 6, 4), (3, 6, 2)):
        rep = ch.verify_verma_vs_X1(*args)
        assert rep["equal"], (args, rep)
        assert [c["name"] for c in rep["checks"]] == [
            "substituted_vs_X1", "direct_zu_vs_denominator"]
        assert all(c["coefficients"] > 0 for c in rep["checks"])


def test_x_i_unrefined_zu_of_a_first_block_is_the_verma_denominator():
    # block 1 of (2,1),(1,2) holds u1, u2 with label 1: the N=2 factors
    b = ch.BlockData((2, 1), (1, 2))
    den = ch.affine_verma_denominator(2, 4, 3)
    assert ch.x_i_unrefined_zu(b, 1, 4, 3).terms == {
        m + (0,): c for m, c in den.terms.items()}


def capped_mul(space, a, b):
    """Product of two term dicts pair by pair, dropping every monomial
    outside the truncation or the caps."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = space.mono_mul(m1, m2)
            if space.gdeg(m) <= space.truncation and space.caps_ok(m):
                out[m] = out.get(m, 0) + c1 * c2
    return out


def capped_geometric(space, m):
    """The powers of m inside the truncation and the caps."""
    out, p = {}, space.unit()
    while space.gdeg(p) <= space.truncation and space.caps_ok(p):
        out[p] = 1
        p = space.mono_mul(p, m)
    return out


def reference_verma(N, n_max, v_cap):
    """The Verma product multiplied out pair by pair from geometric series
    at cap v_cap + 10, then cropped to v_cap.  For N <= 3 a route to a
    monomial of the window strays at most n_max beyond the cap in any v
    exponent, as each step back costs a power of z, so for n_max <= 10 the
    wide cap drops none."""
    wide = ch.verma_space(N, n_max, v_cap + 10)
    z = wide.mono(z=1)
    bases = [z] * N
    for i, j in combinations(range(1, N + 1), 2):
        bases.append(wide.mono({"v%d" % j: 1, "v%d" % i: -1}))
        bases.append(wide.mono({"v%d" % i: 1, "v%d" % j: -1, "z": 1}))
    out = {wide.unit(): 1}
    for m in bases:
        while wide.gdeg(m) <= n_max:
            out = capped_mul(wide, out, capped_geometric(wide, m))
            m = wide.mono_mul(m, z)
    return Series.from_terms(ch.verma_space(N, n_max, v_cap), out)


@pytest.mark.parametrize("args", [(2, 4, 4), (3, 4, 4), (2, 6, 4), (3, 6, 2)])
def test_affine_verma_denominator_matches_wide_cap_reference(args):
    assert ch.affine_verma_denominator(*args) == reference_verma(*args)


def test_affine_verma_denominator_pinned_coefficients():
    # a capped product of every intermediate gave 3 and 39
    assert ch.affine_verma_denominator(2, 4, 4).coefficient((1, -4, 4)) == 4
    assert ch.affine_verma_denominator(3, 6, 4).coefficient((6, 4, 0, -4)) == 57


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 3))
def test_affine_verma_denominator_crop_stable(N, n_max, v_cap):
    wider = ch.affine_verma_denominator(N, n_max, v_cap + 2)
    assert (Series.from_terms(ch.verma_space(N, n_max, v_cap), wider.terms)
            == ch.affine_verma_denominator(N, n_max, v_cap))


def test_verify_verma_vs_X1_at_four_variables():
    rep = ch.verify_verma_vs_X1(4, 4, 4)
    assert rep["equal"], rep
    assert all(c["coefficients"] > 0 for c in rep["checks"])


def test_affine_verma_denominator_crop_stable_at_four_variables():
    wider = ch.affine_verma_denominator(4, 4, 6)
    assert (Series.from_terms(ch.verma_space(4, 4, 4), wider.terms)
            == ch.affine_verma_denominator(4, 4, 4))


def test_render_factor():
    f = ch.UZFactor(-2, 1, (1, -1, 0))
    assert ch.render_factor(f) == "(y^-2*z*u1*u2^-1)_inf^-1"
    assert ch.render_factor(ch.UZFactor(0, 0, (0, 0, 0))) == "(1)_inf^-1"
