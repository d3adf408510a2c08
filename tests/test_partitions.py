import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from laumon.partitions import (appendixA_report, box_count_table, boxes,
                               col_heights,
                               colored_counts, count_N1_geq, count_N1_gt,
                               count_N2_geq, enumerate_partitions,
                               partition_sum_lhs)
from laumon.series import canonical_space

PARTITION_NUMBERS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_enumeration_counts_and_order():
    for n, want in enumerate(PARTITION_NUMBERS):
        parts = enumerate_partitions(n)
        assert len(parts) == want
        assert len(set(parts)) == want
        for mu in parts:
            assert sum(mu) == n and all(r > 0 for r in mu)
            assert all(a >= b for a, b in zip(mu, mu[1:]))
        # canonical order: descending lexicographic on the row tuples
        assert parts == sorted(parts, reverse=True)


def test_conjugation_involution():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(0, 12)
        mus = enumerate_partitions(n)
        mu = mus[rng.randrange(len(mus))]
        conj = col_heights(mu)
        assert sum(conj) == sum(mu)
        assert col_heights(conj) == mu


def test_col_heights_match_definition():
    assert col_heights(()) == ()
    for n in range(21):
        for mu in enumerate_partitions(n):
            want = tuple(sum(1 for r in mu if r >= i)
                         for i in range(1, (mu[0] if mu else 0) + 1))
            assert col_heights(mu) == want


def test_boxes_match_size():
    for n in range(8):
        for mu in enumerate_partitions(n):
            got = list(boxes(mu))
            assert len(got) == n
            for i, j in got:
                assert 1 <= j <= len(mu)
                assert 1 <= i <= mu[j - 1]


def test_colored_counts_hand_values():
    mu = (2, 1)
    assert colored_counts(mu, 0, 2) == (2, 1)
    assert colored_counts(mu, 1, 2) == (1, 2)
    assert colored_counts(mu, 0, 3) == (2, 0, 1)
    with pytest.raises(ValueError):
        colored_counts(mu, 0, 1)


def test_colored_counts_sum_is_size():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(0, 10)
        mus = enumerate_partitions(n)
        mu = mus[rng.randrange(len(mus))]
        ell = rng.randint(2, 5)
        a = rng.randrange(ell)
        assert sum(colored_counts(mu, a, ell)) == n


def test_box_residue_counts_hand_values():
    mu = (2, 1)
    # boxes (1,1),(2,1),(1,2); heights (2,1)
    assert count_N2_geq(mu, 0, 2) == 2
    assert count_N1_geq(mu, 0, 2) == 2
    assert count_N2_geq(mu, 1, 2) == 1
    assert count_N1_geq(mu, 1, 2) == 1
    assert count_N1_gt(mu, 0, 2) == 0
    assert count_N1_gt(mu, 1, 2) == 1
    empty = ()
    assert count_N1_geq(empty, 0, 3) == 0
    assert count_N2_geq(empty, -2, 3) == 0


def test_box_residue_counts_range_check():
    mu = (1,)
    for fn in (count_N1_geq, count_N1_gt, count_N2_geq):
        with pytest.raises(ValueError):
            fn(mu, 2, 2)
        with pytest.raises(ValueError):
            fn(mu, -2, 2)
        with pytest.raises(ValueError):
            fn(mu, 0, 1)


def test_count_bijections_small_grid():
    """On the sweep of `verify-appendixA` at its default, sizes <= 12 and
    ell in {2,3,4,5}: box_count_table equals the count_* definitions, and
    these satisfy both box-count bijections."""
    for ell in (2, 3, 4, 5):
        for n in range(13):
            for mu in enumerate_partitions(n):
                table = box_count_table(mu, ell)
                for c in range(-ell + 1, ell):
                    g1 = count_N1_geq(mu, c, ell)
                    gt = count_N1_gt(mu, c, ell)
                    g2 = count_N2_geq(mu, c, ell)
                    assert [t[c % ell] for t in table] == [g1, gt, g2]
                    assert g1 == g2
                    assert gt == g2 - (mu[0] if mu and c == 0 else 0)


def test_appendixA_report_refuses_a_negative_size():
    # sizes up to -1 hold no partition: a report would PASS over 0 cases
    with pytest.raises(ValueError):
        appendixA_report(-1)
    assert appendixA_report(0)["checked"] > 0


@given(st.integers(0, 20).flatmap(lambda n: st.sampled_from(enumerate_partitions(n))),
       st.integers(2, 6))
def test_box_count_table_matches_definitions(mu, ell):
    table = box_count_table(mu, ell)
    for c in range(-ell + 1, ell):
        assert [t[c % ell] for t in table] == [count_N1_geq(mu, c, ell),
                                               count_N1_gt(mu, c, ell),
                                               count_N2_geq(mu, c, ell)]


def test_partition_sum_lhs_small():
    s = partition_sum_lhs(0, 2, 2)
    # contributions: empty, (1), (2), (1,1)
    sp = s.space
    assert sp.names == ("y", "q0", "q1")
    want = {
        (0, 0, 0): 1,
        (1, 1, 0): 1,
        (2, 2, 0): 1,
        (1, 1, 1): 1,
    }
    assert s.terms == want


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_partition_sum_lhs_matches_box_by_box_sum(ell):
    """Lemma 3.2's sum, the one both brute_force_Z (criterion 1) and
    verify_partition_identity (criterion 8) read, against a sum built box
    by box: y per column, q_b per box of color a - j + 1 mod ell."""
    n_max = 8
    for a in range(ell):
        want = {}
        for n in range(n_max + 1):
            for mu in enumerate_partitions(n):
                m = [len({i for i, _ in boxes(mu)})] + [0] * ell
                for _, j in boxes(mu):
                    m[1 + (a - j + 1) % ell] += 1
                want[tuple(m)] = want.get(tuple(m), 0) + 1
        s = partition_sum_lhs(a, ell, n_max)
        assert s.space == canonical_space(ell, n_max)
        assert s.terms == want


def test_partition_sum_lhs_rejects_small_ell():
    with pytest.raises(ValueError):
        partition_sum_lhs(0, 1, 3)
