import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from laumon import partitions
from laumon.partitions import (appendixA_report, box_count_table, boxes,
                               col_heights,
                               colored_counts, count_N1_geq, count_N1_gt,
                               count_N2_geq, enumerate_partitions,
                               leg_counts, partition_sums, partitions_upto)
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


def _descending(n, maxpart):
    """The partitions of n with parts <= maxpart, largest first part
    first, by recursion on the first part."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _descending(n - first, first):
            yield (first,) + rest


def test_partitions_upto_is_the_recursive_enumeration():
    table = partitions_upto(20)
    assert len(table) == 21
    assert [len(mus) for mus in table[:len(PARTITION_NUMBERS)]] \
        == PARTITION_NUMBERS
    assert len(table[20]) == 627
    for n, mus in enumerate(table):
        assert mus == list(_descending(n, n))
        assert enumerate_partitions(n) == mus
    assert partitions_upto(0) == [[()]]
    for bad in (partitions_upto, enumerate_partitions):
        with pytest.raises(ValueError):
            bad(-1)


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


def test_leg_counts_match_definition():
    """legs[k] counts the boxes (i, j) with h(i) - j = k, the column
    heights h read from the rows; they are the rows themselves, the
    identity appendixA_report certifies both bijections by."""
    for n in range(13):
        for mu in enumerate_partitions(n):
            want = [0] * len(mu)
            for i, j in boxes(mu):
                want[sum(1 for r in mu if r >= i) - j] += 1
            assert leg_counts(mu) == want == list(mu)


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


def reference_appendixA_report(max_size):
    """appendixA_report as it compared the tables, residue by residue."""
    failures = []
    checked = 0
    by_size = [enumerate_partitions(n) for n in range(max_size + 1)]
    for ell in (2, 3, 4, 5):
        for mus in by_size:
            for mu in mus:
                n1_geq, n1_gt, n2_geq = partitions.box_count_table(mu, ell)
                for c in range(-ell + 1, ell):
                    checked += 1
                    g1, g2, gt = n1_geq[c % ell], n2_geq[c % ell], n1_gt[c % ell]
                    want_gt = g2 - (mu[0] if mu and c == 0 else 0)
                    if g1 != g2 or gt != want_gt:
                        failures.append({"mu": list(mu), "ell": ell,
                                         "c": c, "n1_geq": g1, "n2_geq": g2,
                                         "n1_gt": gt})
    return {"equal": not failures, "checked": checked,
            "failures": failures[:10]}


class Table(list):
    """A table that records each residue read from it."""
    def __getitem__(self, i):
        if isinstance(i, int):
            self.reads.append(i)
        return super().__getitem__(i)


def test_appendixA_report_walks_residues_only_on_a_failure(monkeypatch):
    """With one leg count off by one (a box of leg 1 added to every
    two-row partition), the report holds the residue-by-residue `checked`
    and first 10 failures, in order, and builds and reads the tables of
    the failing (mu, ell) only."""
    real_legs, real_table = partitions.leg_counts, partitions.box_count_table
    tables = {}

    def off_by_one(mu):
        legs = real_legs(mu)
        if len(mu) == 2:
            legs[1] += 1
        return legs

    def recorded(mu, ell):
        table = tuple(map(Table, real_table(mu, ell)))
        for t in table:
            t.reads = []
        tables[mu, ell] = table
        return table

    monkeypatch.setattr(partitions, "leg_counts", off_by_one)
    monkeypatch.setattr(partitions, "box_count_table", recorded)
    for max_size in (0, 1, 6, 9):
        tables.clear()
        got = appendixA_report(max_size)
        read = {key for key, table in tables.items()
                if any(t.reads for t in table)}
        assert read == set(tables) == {
            (mu, ell) for n in range(max_size + 1)
            for mu in enumerate_partitions(n) if len(mu) == 2
            for ell in (2, 3, 4, 5)}
        want = reference_appendixA_report(max_size)
        assert got == want
    # 97 partitions of size <= 9, 3 + 5 + 7 + 9 residues each
    assert want["checked"] == 97 * 24
    assert not want["equal"] and len(want["failures"]) == 10
    monkeypatch.setattr(partitions, "leg_counts", real_legs)
    monkeypatch.setattr(partitions, "box_count_table", real_table)
    assert appendixA_report(12) == reference_appendixA_report(12)


@given(st.integers(0, 20).flatmap(lambda n: st.sampled_from(enumerate_partitions(n))),
       st.integers(2, 6))
def test_box_count_table_matches_definitions(mu, ell):
    table = box_count_table(mu, ell)
    for c in range(-ell + 1, ell):
        assert [t[c % ell] for t in table] == [count_N1_geq(mu, c, ell),
                                               count_N1_gt(mu, c, ell),
                                               count_N2_geq(mu, c, ell)]


def test_partition_sum_lhs_small():
    s = partition_sums(2, 2)[0]
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
    """Lemma 3.2's sums, the ones both brute_force_Z (criterion 1) and
    verify_partition_identity (criterion 8) read, against a sum built box
    by box at every residue: y per column, q_b per box of color a - j + 1
    mod ell.  So the rotation from residue 0 is checked at each residue."""
    n_max = 8
    sums = partition_sums(ell, n_max)
    assert len(sums) == ell
    for a in range(ell):
        want = {}
        for n in range(n_max + 1):
            for mu in enumerate_partitions(n):
                m = [len({i for i, _ in boxes(mu)})] + [0] * ell
                for _, j in boxes(mu):
                    m[1 + (a - j + 1) % ell] += 1
                want[tuple(m)] = want.get(tuple(m), 0) + 1
        s = sums[a]
        assert s.space == canonical_space(ell, n_max)
        assert s.terms == want


def test_partition_sum_lhs_rejects_small_ell():
    with pytest.raises(ValueError):
        partition_sums(1, 3)


def test_colored_counts_rotate_with_the_residue():
    """The identity partition_sums rests on: residue a's counts are
    residue 0's rotated, counts_a[b] = counts_0[(b - a) mod ell]."""
    for mus in partitions_upto(10):
        for mu in mus:
            for ell in range(2, 6):
                zero = colored_counts(mu, 0, ell)
                for a in range(ell):
                    assert colored_counts(mu, a, ell) == tuple(
                        zero[(b - a) % ell] for b in range(ell)), (mu, a, ell)
