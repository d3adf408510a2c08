import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laumon import acceptance
from laumon.localization import (FixedPoint, _compositions, _pair_terms,
                                 _pair_walk, brute_force_Z,
                                 check_ranks, enumerate_fixed_points,
                                 fixed_point_data, fixed_point_morse_index,
                                 fixed_points_of_size, invariant_part,
                                 morse_index_formula, morse_index_from_tangent,
                                 morse_index_oracle, morse_indices,
                                 sector_index, tangent_character, tangent_count)
from laumon.partitions import boxes, col_heights, enumerate_partitions
from laumon.series import Series, canonical_space, to_json_dict


def mus_of(fp):
    return tuple(list(mu) for mu in fp.mus)


def test_check_ranks():
    assert check_ranks([2, 1]) == (2, 1)
    with pytest.raises(ValueError):
        check_ranks([3])
    with pytest.raises(ValueError):
        check_ranks([1, -1])
    with pytest.raises(ValueError):
        check_ranks([0, 0])


def test_sector_index():
    assert sector_index(1, (1, 1)) == 0
    assert sector_index(2, (1, 1)) == 1
    assert sector_index(3, (2, 2, 1)) == 1
    assert sector_index(5, (2, 2, 1)) == 2
    with pytest.raises(ValueError):
        sector_index(0, (1, 1))
    with pytest.raises(ValueError):
        sector_index(6, (2, 2, 1))


def test_enumerate_fixed_points():
    assert [mus_of(fp) for fp in enumerate_fixed_points((1, 1), (0, 0))] == [([], [])]
    got = [mus_of(fp) for fp in enumerate_fixed_points((1, 1), (1, 1))]
    assert got == [([1, 1], []), ([1], [1]), ([], [1, 1])]
    assert [mus_of(fp) for fp in enumerate_fixed_points((1, 1), (1, 0))] == [([1], [])]
    with pytest.raises(ValueError):
        enumerate_fixed_points((1, 1), (1,))


def test_enumerate_fixed_points_matches_filter():
    """The pruned enumeration equals filtering every tuple of the same
    total size by occupation, order included."""
    for r in ((1, 1), (2, 1), (0, 2), (1, 1, 1), (2, 0, 1), (1, 2, 1),
              (1, 1, 1, 1), (2, 1, 0, 1)):
        ell = len(r)
        for total in range(6):
            by_occupation = {}
            for fp in fixed_points_of_size(r, total):
                by_occupation.setdefault(fp.occupation(r), []).append(fp.mus)
            for n in itertools.product(range(total + 1), repeat=ell):
                if sum(n) == total:
                    assert [fp.mus for fp in enumerate_fixed_points(r, n)] \
                        == by_occupation.get(n, []), (r, n)


def test_tangent_character_hand_case():
    fp = FixedPoint([(1,), ()])
    tc = tangent_character(fp, (1, 1))
    assert tc[(1, 1)] == {(0, 1, 1): 1, (1, 0, 0): 1}
    assert tc[(1, 2)] == {(1, 1, 0): 1}
    assert tc[(2, 1)] == {(0, 0, 1): 1}
    assert tc[(2, 2)] == {}
    assert tangent_count(tc) == 4
    assert tangent_count(invariant_part(tc)) == 2


def test_tangent_character_empty_is_empty():
    fp = FixedPoint([(), (), ()])
    tc = tangent_character(fp, (1, 1, 1))
    assert all(terms == {} for terms in tc.values())


def test_tangent_dimension_count():
    rng = random.Random(17)
    for r in ((1, 1), (2, 1), (1, 1, 1)):
        for total in range(4):
            for fp in fixed_points_of_size(r, total):
                tc = tangent_character(fp, r)
                assert tangent_count(tc) == 2 * sum(r) * total
    # invariant count constant across each component
    for r in ((1, 1), (2, 1)):
        seen = {}
        for fp in fixed_points_of_size(r, 3):
            inv = tangent_count(invariant_part(tangent_character(fp, r)))
            seen.setdefault(fp.occupation(r), set()).add(inv)
        assert all(len(v) == 1 for v in seen.values())
    del rng


def reference_tangent(fp, r):
    """The tangent character box by box, through boxes() and row lengths."""
    ell = len(r)

    def row(mu, j):
        return mu[j - 1] if j <= len(mu) else 0

    sectors = [sector_index(b, r) for b in range(1, sum(r) + 1)]
    out = []
    for alpha, mu_a in enumerate(fp.mus, start=1):
        h_a = col_heights(mu_a)
        for beta, mu_b in enumerate(fp.mus, start=1):
            h_b = col_heights(mu_b)
            shift = sectors[beta - 1] - sectors[alpha - 1]
            terms = {}
            for i, j in boxes(mu_a):
                t2 = h_a[i - 1] - j + 1
                key = (-row(mu_b, j) + i, t2, (shift + t2) % ell)
                terms[key] = terms.get(key, 0) + 1
            for i, j in boxes(mu_b):
                t2 = -h_b[i - 1] + j
                key = (row(mu_a, j) - i + 1, t2, (shift + t2) % ell)
                terms[key] = terms.get(key, 0) + 1
            out.append(((alpha, beta), list(terms.items())))
    return out


@st.composite
def ranks_and_fixed_point(draw):
    r = draw(st.lists(st.integers(0, 2), min_size=2, max_size=4)
             .filter(lambda v: sum(v) > 0))
    mus = [draw(st.integers(0, 4).flatmap(
        lambda n: st.sampled_from(enumerate_partitions(n))))
        for _ in range(sum(r))]
    return tuple(r), FixedPoint(mus)


@given(ranks_and_fixed_point())
def test_tangent_character_matches_box_reference(case):
    r, fp = case
    tc = tangent_character(fp, r)
    # keys, counts and insertion order all agree
    assert [(pair, list(terms.items())) for pair, terms in tc.items()] \
        == reference_tangent(fp, r)
    assert [(pair, list(terms.items()))
            for pair, terms in invariant_part(tc).items()] \
        == [(pair, [(k, c) for k, c in terms if k[2] % len(r) == 0])
            for pair, terms in reference_tangent(fp, r)]
    assert morse_index_from_tangent(tc) \
        == fixed_point_morse_index(fp, r) == morse_index_oracle(fp, r)


def test_morse_index_formula_examples():
    assert morse_index_formula((), 2, (1, 1)) == 0
    assert morse_index_formula((1, 1), 1, (1, 1)) == 1
    assert morse_index_formula((1,), 2, (1, 1)) == 0


def test_morse_oracle_examples():
    assert morse_index_oracle(FixedPoint([(), ()]), (1, 1)) == 0
    assert morse_index_oracle(FixedPoint([(1, 1), ()]), (1, 1)) == 1
    assert morse_index_oracle(FixedPoint([(1,), (1,)]), (1, 1)) == 0


def test_morse_formula_matches_oracle():
    rng = random.Random(18)
    ranks = [(1, 1), (2, 1), (1, 1, 1)]
    for _ in range(40):
        r = ranks[rng.randrange(len(ranks))]
        total = rng.randint(0, 3)
        fps = fixed_points_of_size(r, total)
        fp = fps[rng.randrange(len(fps))]
        assert fixed_point_morse_index(fp, r) == morse_index_oracle(fp, r)


def poincare(r, n):
    """{y-exponent 2w: number of fixed points of index w}."""
    out = {}
    for w in morse_indices(r, enumerate_fixed_points(r, n)):
        out[2 * w] = out.get(2 * w, 0) + 1
    return out


def test_poincare_polynomial():
    assert poincare((1, 1), (0, 0)) == {0: 1}
    assert poincare((1, 1), (1, 1)) == {0: 1, 2: 2}
    assert poincare((1, 1), (2, 0)) == {0: 1}
    p = poincare((2, 1), (2, 1))
    assert all(e >= 0 and e % 2 == 0 and c > 0 for e, c in p.items())
    assert sum(p.values()) == len(enumerate_fixed_points((2, 1), (2, 1)))


@pytest.mark.parametrize("r, n", [((2, 2, 1), (2, 2, 2)), ((2, 1), (3, 3)),
                                  ((1, 1, 1, 1), (1, 2, 1, 1))])
def test_morse_indices_match_per_fixed_point(r, n):
    fps = enumerate_fixed_points(r, n)
    want = [fixed_point_morse_index(fp, r) for fp in fps]
    assert morse_indices(r, fps) == want


def test_brute_force_Z_small():
    one = brute_force_Z((1, 1), 0)
    assert one.terms == {(0, 0, 0): 1}
    z = brute_force_Z((1, 1), 2)
    assert z.coefficient((2, 1, 1)) == 2
    assert z.coefficient((0, 1, 1)) == 1
    assert z.coefficient((0, 2, 0)) == 1


def test_brute_force_Z_truncation_coherence():
    z3 = brute_force_Z((2, 1), 3)
    z2 = brute_force_Z((2, 1), 2)
    assert z3.truncate(2) == z2


def tuple_sum(r, n_max):
    """Reference localization sum over every R-tuple of partitions."""
    terms = {}
    for total in range(n_max + 1):
        for fp in fixed_points_of_size(r, total):
            m = (2 * fixed_point_morse_index(fp, r),) + fp.occupation(r)
            terms[m] = terms.get(m, 0) + 1
    return Series.from_terms(canonical_space(len(r), n_max), terms)


def test_brute_force_Z_matches_tuple_enumeration():
    for r in ((1, 1), (2, 1), (1, 1, 1), (2, 2, 1), (2, 1, 1), (0, 1),
              (2, 0, 1)):
        ref = tuple_sum(r, 5)
        for n_max in range(6):
            z = brute_force_Z(r, n_max)
            assert z == ref.truncate(n_max), (r, n_max)
            assert (json.dumps(to_json_dict(z))
                    == json.dumps(to_json_dict(ref.truncate(n_max))))


def test_occupation_roundtrip():
    rng = random.Random(19)
    for _ in range(30):
        r = ((1, 1), (2, 1))[rng.randrange(2)]
        total = rng.randint(0, 4)
        for fp in fixed_points_of_size(r, total):
            n = fp.occupation(r)
            assert sum(n) == total
            assert fp.mus in [f.mus for f in enumerate_fixed_points(r, n)]


def at_acceptance_ranks(test):
    """Each acceptance rank vector at top 4 as an explicit example."""
    for r in acceptance.RANKS:
        test = example(list(r), 4)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=2, max_size=4)
       .filter(lambda v: sum(v) > 0), st.integers(0, 4))
@example([2, 2, 2, 2], 4)
@at_acceptance_ranks
def test_fixed_point_data_matches_per_fixed_point(r, top):
    """The shared-pair computation gives, for every fixed point of total
    size <= top, exactly what the per-fixed-point functions give."""
    fps = [fp for total in range(top, -1, -1)
           for fp in fixed_points_of_size(r, total)]
    got = fixed_point_data(r, fps)
    assert len(got) == len(fps)
    for fp, d in zip(fps, got):
        tc = tangent_character(fp, r)
        assert d == (fp.occupation(r), fixed_point_morse_index(fp, r),
                     tangent_count(tc),
                     tangent_count(invariant_part(tc)),
                     morse_index_oracle(fp, r)), (r, fp)


@st.composite
def ranks_and_fixed_point_stream(draw):
    """A rank vector, zero entries allowed, and a stream of its fixed points
    of totals <= 3: all of them shuffled, then repeats drawn at random."""
    r = draw(st.lists(st.integers(0, 2), min_size=2, max_size=4)
             .filter(lambda v: 0 < sum(v) <= 5))
    fps = [fp for total in range(draw(st.integers(0, 3)) + 1)
           for fp in fixed_points_of_size(r, total)]
    stream = draw(st.permutations(fps))
    stream += draw(st.lists(st.sampled_from(fps), max_size=30))
    return tuple(r), stream


@settings(max_examples=40)
@given(ranks_and_fixed_point_stream())
@example(((1, 0, 2), [FixedPoint(mus) for mus in (
    [(1,), (), ()], [(1,), (), (1,)], [(1,), (), (1,)], [(), (1,), ()],
    [(2, 1), (), (1,)], [(1,), (), ()], [(1,), (1,), (1,)])]))
def test_fixed_point_data_holds_on_any_stream(case):
    """Fixed points in any order, repeated and of mixed totals, get
    exactly what the per-fixed-point functions give, whatever the call's
    tables already hold."""
    r, stream = case
    got = fixed_point_data(r, iter(stream))
    assert len(got) == len(stream)
    for fp, d in zip(stream, got):
        tc = tangent_character(fp, r)
        assert d == (fp.occupation(r), fixed_point_morse_index(fp, r),
                     tangent_count(tc), tangent_count(invariant_part(tc)),
                     morse_index_from_tangent(tc)), (r, fp)


def test_fixed_point_data_rejects_a_wrong_component_count():
    good = FixedPoint([(1,), (), ()])
    for bad in ([(1,), ()], [(1,), (), (), ()]):
        with pytest.raises(ValueError, match="components, expected 3"):
            fixed_point_data((2, 1), [good, FixedPoint(bad)])


def reference_pair_terms(mu_a, mu_b, shift, ell):
    """One sector pair's terms box by box, as tangent_character built them
    before the walk: a dict updated per box of mu_a, then of mu_b."""
    h_a, h_b = col_heights(mu_a), col_heights(mu_b)
    terms = {}
    for j, r_a in enumerate(mu_a, start=1):
        r_b = mu_b[j - 1] if j <= len(mu_b) else 0
        for i in range(1, r_a + 1):
            t2 = h_a[i - 1] - j + 1
            key = (i - r_b, t2, (shift + t2) % ell)
            terms[key] = terms.get(key, 0) + 1
    for j, r_b in enumerate(mu_b, start=1):
        r_a = mu_a[j - 1] if j <= len(mu_a) else 0
        for i in range(1, r_b + 1):
            t2 = j - h_b[i - 1]
            key = (r_a - i + 1, t2, (shift + t2) % ell)
            terms[key] = terms.get(key, 0) + 1
    return terms


def test_pair_terms_from_the_walk_match_the_box_loop():
    """Every partition pair of total <= 8, every shift and ell 2..5: the
    same terms in the same insertion order."""
    mus = [mu for n in range(9) for mu in enumerate_partitions(n)]
    pairs = [(a, b) for a in mus for b in mus if sum(a) + sum(b) <= 8]
    assert len(pairs) == 434
    for mu_a, mu_b in pairs:
        walk = _pair_walk(mu_a, mu_b)
        for ell in range(2, 6):
            for shift in range(ell):
                want = reference_pair_terms(mu_a, mu_b, shift, ell)
                got = _pair_terms(walk, shift, ell)
                assert type(got) is dict
                assert list(got.items()) == list(want.items()), \
                    (mu_a, mu_b, shift, ell)


@pytest.mark.parametrize("r, count", [((2, 2, 1), 5042), ((3, 2, 1), 10229),
                                      ((2, 1, 1, 1), 5042)])
def test_morse_formula_matches_tangent_index_to_total_7(r, count):
    """The geometric input of the localization sum: at every fixed point of
    total size <= 7 the Morse formula equals the index read off the
    tangent weights, and the tangent space has dimension 2 R |mu|."""
    fps = [fp for total in range(8) for fp in fixed_points_of_size(r, total)]
    # the R-tuples of partitions: coefficients of prod_k (1 - q^k)^(-R)
    assert len(fps) == count
    for fp, (_, w, total, _, oracle) in zip(fps, fixed_point_data(r, fps)):
        assert w == oracle, (r, fp)
        assert total == 2 * sum(r) * sum(map(sum, fp.mus)), (r, fp)


def test_fixed_points_of_size_matches_per_composition():
    """Partitions enumerated once per size give the tuples the
    per-composition enumeration gave, in the same order."""
    def reference(r, total):
        return [FixedPoint(mus).mus for comp in _compositions(total, sum(r))
                for mus in itertools.product(
                    *(enumerate_partitions(k) for k in comp))]
    for r in ((1, 1), (2, 1), (0, 2), (1, 1, 1), (2, 0, 1), (1, 2, 1, 1)):
        for total in range(6):
            assert [fp.mus for fp in fixed_points_of_size(r, total)] \
                == reference(r, total)
