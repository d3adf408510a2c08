"""Kernel tests: spaces, truncated arithmetic, inverses, substitution,
serialization."""

import json
import random
from collections import namedtuple

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from laumon.series import (_BATCH, Series, SeriesError, VariableSpace,
                           canonical_space, expand, from_json_dict,
                           geometric_inverse, json_chunks, pochhammer_inverse,
                           render_text, series_diff_report, substitute,
                           to_json_dict)


def space2(trunc=4):
    return canonical_space(2, trunc)


def capped_space(truncation, cap):
    return VariableSpace(("z", "v1", "v2"), ("z",), truncation,
                         {"v1": cap, "v2": cap})


def random_series(space, rng, nterms=5, max_y=3):
    terms = {}
    for _ in range(nterms):
        qs = [rng.randint(0, space.truncation) for _ in space.names[1:]]
        while sum(qs) > space.truncation:
            qs[rng.randrange(len(qs))] = 0
        m = (rng.randint(-max_y, max_y),) + tuple(qs)
        terms[m] = rng.randint(-4, 4)
    return Series.from_terms(space, terms)


def test_space_validation():
    with pytest.raises(SeriesError):
        VariableSpace(("a", "a"), ("a",), 3)
    with pytest.raises(SeriesError):
        VariableSpace(("a", "b"), ("c",), 3)
    with pytest.raises(SeriesError):
        VariableSpace(("a",), ("a",), -1)
    with pytest.raises(SeriesError):
        VariableSpace(("a",), ("a",), 2, {"b": 1})


def test_mono_and_gdeg():
    sp = space2()
    m = sp.mono(y=-2, q0=1, q1=3)
    assert m == (-2, 1, 3)
    assert sp.gdeg(m) == 4
    with pytest.raises(SeriesError):
        sp.mono(w=1)


def test_from_terms_merges_and_drops():
    sp = space2(2)
    s = Series.from_terms(sp, {(0, 1, 0): 2, (0, 1, 0): 0})
    assert s.terms == {}
    s = Series.from_terms(sp, {(0, 1, 1): 5, (0, 3, 0): 7})
    # q-degree 3 > truncation 2 silently dropped
    assert s.terms == {(0, 1, 1): 5}
    with pytest.raises(SeriesError):
        Series.from_terms(sp, {(0, -1, 0): 1})
    with pytest.raises(SeriesError):
        Series.from_terms(sp, {(0, 1): 1})


def test_ring_axioms_random():
    rng = random.Random(11)
    sp = space2(3)
    for _ in range(30):
        a = random_series(sp, rng)
        b = random_series(sp, rng)
        c = random_series(sp, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == Series(sp, {})
        assert a * Series.one(sp) == a


def test_operands_are_series_in_one_space():
    sp = space2(3)
    s = Series.from_terms(sp, {(1, 1, 0): 2, (0, 0, 0): 1})
    other = Series.one(space2(2))
    with pytest.raises(SeriesError):
        s + other
    with pytest.raises(SeriesError):
        s * other
    for op in (lambda: s + 1, lambda: s - 1, lambda: s * 2):
        with pytest.raises(SeriesError):
            op()
    for op in (lambda: 1 + s, lambda: 2 * s):
        with pytest.raises(TypeError):
            op()


def test_truncation_closure():
    rng = random.Random(12)
    sp = space2(4)
    for _ in range(20):
        a = random_series(sp, rng)
        b = random_series(sp, rng)
        assert (a * b).truncate(2) == a.truncate(2) * b.truncate(2)


def test_geometric_inverse_is_inverse():
    sp = space2(5)
    m = sp.mono(y=-2, q0=1)
    g = geometric_inverse(sp, m)
    assert (Series.one(sp) - Series.from_terms(sp, {m: 1})) * g == Series.one(sp)


def test_geometric_inverse_rejects_bad_directions():
    sp = space2(5)
    with pytest.raises(SeriesError):
        geometric_inverse(sp, sp.mono(q0=-1))
    with pytest.raises(SeriesError):
        geometric_inverse(sp, sp.mono(y=2))


def test_products_refuse_a_capped_space():
    sp = capped_space(3, 2)
    s = Series.from_terms(sp, {sp.mono(z=1, v1=1): 1})
    with pytest.raises(SeriesError):
        s * s
    canonical = space2(3)
    mapping = {"y": sp.mono(v1=1), "q0": sp.mono(z=1), "q1": sp.mono(z=1)}
    with pytest.raises(SeriesError):
        substitute(Series.one(canonical), mapping, sp)


def test_pochhammer_inverse_is_inverse():
    sp = space2(4)
    m = sp.mono(y=-2, q0=1)
    z = sp.mono(q0=1, q1=1)
    p = pochhammer_inverse(sp, m, z)
    finite = Series.one(sp)
    f = m
    while sp.gdeg(f) <= sp.truncation:
        finite = finite * (Series.one(sp) - Series.from_terms(sp, {f: 1}))
        f = sp.mono_mul(f, z)
    assert finite * p == Series.one(sp)
    with pytest.raises(SeriesError):
        pochhammer_inverse(sp, m, sp.mono(y=1))


@st.composite
def families(draw):
    """A canonical space with 2-4 q-variables at order <= 6 and up to three
    (base, step) families of q-degree >= 1, y-exponents of either sign."""
    ell = draw(st.integers(2, 4))
    space = canonical_space(ell, draw(st.integers(0, 6)))

    def mono():
        qs = draw(st.lists(st.integers(-1, 2), min_size=ell, max_size=ell)
                  .filter(lambda v: sum(v) >= 1))
        return (draw(st.integers(-4, 4)),) + tuple(qs)

    return space, [(mono(), mono()) for _ in range(draw(st.integers(0, 3)))]


@settings(max_examples=60)
@given(families())
def test_expand_equals_pochhammer_product(case):
    space, fams = case
    want = Series.one(space)
    for base, step in fams:
        want = want * pochhammer_inverse(space, base, step)
    assert expand(space, fams) == want


@settings(max_examples=60)
@given(families(), st.integers(0, 6))
def test_expand_commutes_with_truncation(case, k):
    space, fams = case
    k = min(k, space.truncation)
    assert (expand(space, fams).truncate(k)
            == expand(space.with_truncation(k), fams))


@settings(max_examples=30)
@given(families())
def test_expand_json_round_trip(case):
    s = expand(*case)
    assert from_json_dict(json.loads(json.dumps(to_json_dict(s)))) == s


def test_expand_rejects_caps_and_degree_below_one():
    capped = VariableSpace(("z", "v"), ("z",), 3, {"v": 2})
    with pytest.raises(SeriesError):
        expand(capped, [((1, 0), (1, 0))])
    sp = space2(4)
    z = sp.mono(q0=1, q1=1)
    for base, step in ((sp.mono(y=2), z), (sp.mono(q0=-1, q1=1), z),
                       (sp.mono(q0=1), sp.mono(y=1)),
                       (sp.mono(q0=1), sp.mono(q0=1, q1=-1))):
        with pytest.raises(SeriesError):
            expand(sp, [(base, step)])


@st.composite
def bounded_families(draw):
    """A canonical space with 2-4 q-variables at order <= 6, bounds on some
    of its variables (y included), and up to three (base, step) families
    of q-degree >= 1 with exponents >= 0 in every bounded variable."""
    ell = draw(st.integers(2, 4))
    space = canonical_space(ell, draw(st.integers(0, 6)))
    bounded = draw(st.sets(st.sampled_from(space.names), min_size=1))
    bounds = {n: draw(st.integers(0, 9)) for n in sorted(bounded)}

    def mono():
        return draw(st.tuples(*(st.integers(0, 2) if n in bounded
                                else st.integers(-1, 2) for n in space.names))
                    .filter(lambda m: space.gdeg(m) >= 1))

    return space, bounds, [(mono(), mono())
                           for _ in range(draw(st.integers(0, 3)))]


@settings(max_examples=100)
@given(bounded_families())
# q0 reaches 8 = 2^3 beside a bound of 7, and exactly a bound of 4 = 2^2
@example((canonical_space(2, 6), {"q0": 7},
          [((0, 2, -1), (0, 2, 0)), ((0, 0, 1), (0, 1, 0))]))
@example((canonical_space(2, 4), {"q0": 4, "q1": 0, "y": 0},
          [((0, 1, 0), (0, 1, 0)), ((0, 2, 0), (0, 4, 0))]))
def test_bounded_expand_is_the_cropped_expansion(case):
    space, bounds, fams = case
    box = [(space.index[n], b) for n, b in bounds.items()]
    full = expand(space, fams)
    assert expand(space, fams, bounds) == Series.from_terms(space, {
        m: c for m, c in full.terms.items() if all(m[i] <= b for i, b in box)})


@settings(max_examples=60)
@given(families(), st.data())
def test_bounded_expand_rejects_a_lowered_exponent(case, data):
    space, fams = case
    lowered = sorted({n for base, step in fams for n, b, s in
                      zip(space.names, base, step) if b < 0 or s < 0})
    assume(lowered)
    name = data.draw(st.sampled_from(lowered))
    with pytest.raises(SeriesError):
        expand(space, fams, {name: data.draw(st.integers(0, 9))})


def test_bounded_expand_rejects_bad_bounds():
    sp = space2(4)
    fams = [(sp.mono(q0=1), sp.mono(q1=1))]
    for bounds in ({"w": 1}, {"q0": -1}, {"q0": 1.5}):
        with pytest.raises(SeriesError):
            expand(sp, fams, bounds)


def tuple_mul(a, b):
    """The product pair by pair on exponent tuples: the reference for the
    packed kernel."""
    sp = a.space
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return Series.from_terms(sp, out)


def tuple_pochhammer(space, m, z):
    """prod_{k>=0} 1/(1 - m z^k) as a tuple product of geometric series."""
    out = Series.one(space)
    while space.gdeg(m) <= space.truncation:
        out = tuple_mul(out, geometric_inverse(space, m))
        m = space.mono_mul(m, z)
    return out


@st.composite
def series_in_one_space(draw, count):
    """`count` series in one canonical space, with ungraded exponents of
    either sign and graded ones down to -2."""
    sp = canonical_space(draw(st.integers(1, 3)), draw(st.integers(0, 5)))
    mono = st.tuples(*(st.integers(-2, 3) if n in sp.grading
                       else st.integers(-9, 9) for n in sp.names)
                     ).filter(lambda m: sp.gdeg(m) >= 0)
    coeff = st.integers(-5, 5) | st.integers(-2 ** 70, 2 ** 70)
    return (sp,) + tuple(
        Series.from_terms(sp, draw(st.dictionaries(mono, coeff, max_size=8)))
        for _ in range(count))


@settings(max_examples=150)
@given(series_in_one_space(2))
@example((space2(2), Series.from_terms(space2(2), {(-9, 0, 0): 1, (9, 1, 1): 2}),
          Series.from_terms(space2(2), {(9, 0, 0): 3, (-9, 0, 1): -1})))
def test_packed_mul_equals_tuple_product(case):
    sp, a, b = case
    assert a * b == tuple_mul(a, b)
    assert a * b == b * a


@settings(max_examples=80)
@given(series_in_one_space(3))
def test_mul_ring_axioms(case):
    sp, a, b, c = case
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * Series.one(sp) == a
    assert a * Series(sp, {}) == Series(sp, {})


@settings(max_examples=80)
@given(series_in_one_space(2), st.integers(0, 5))
def test_mul_commutes_with_truncation(case, k):
    sp, a, b = case
    k = min(k, sp.truncation)
    assert (a * b).truncate(k) == a.truncate(k) * b.truncate(k)


@st.composite
def wide_families(draw):
    """Families with y-exponents up to 40 and q-exponents up to 5 in size,
    so that the balanced digits of `expand` reach their bound."""
    ell = draw(st.integers(1, 3))
    space = canonical_space(ell, draw(st.integers(0, 4)))

    def mono():
        qs = draw(st.lists(st.integers(-5, 5), min_size=ell, max_size=ell)
                  .filter(lambda v: sum(v) >= 1))
        return (draw(st.integers(-40, 40)),) + tuple(qs)

    return space, [(mono(), mono()) for _ in range(draw(st.integers(1, 2)))]


@settings(max_examples=60)
@given(wide_families())
# y = +-3 * 40 and q0 = 3 * 5 reach the bound trunc * M_i exactly
@example((canonical_space(1, 3), [((40, 1), (-40, 1)), ((-40, 1), (40, 1))]))
@example((canonical_space(2, 3), [((1, 5, -4), (0, 5, -4)), ((0, -5, 6), (0, 1, 0))]))
def test_expand_equals_tuple_pochhammer_product(case):
    space, fams = case
    want = Series.one(space)
    for base, step in fams:
        want = tuple_mul(want, tuple_pochhammer(space, base, step))
    assert expand(space, fams) == want


_Y_PLUS, _Y_MINUS = (1, 1), (-1, 1)
_MIXED = VariableSpace(("q0", "y", "v", "q1"), ("q0", "q1"), 5)


# (space, families, bounds) at the edges of the limb layout in `expand`
LIMB_EDGES = {
    # 50 factors 1/(1 - y q0) and 50 of 1/(1 - y^-1 q0): the coefficient
    # of q0^20 is about 2^78, so a slot spans two 64-bit words
    "past_2^64": (canonical_space(1, 20),
                  [(_Y_PLUS, (0, 21))] * 50 + [(_Y_MINUS, (0, 21))] * 50, None),
    # y moves in steps of 2 (of 3), down along one family and up along the
    # other, so the slots of a degree start below the unit's
    "stride_2": (canonical_space(2, 6), [((2, 1, 0), (-4, 0, 1)),
                                         ((-6, 0, 1), (2, 1, 1))], None),
    "stride_3": (canonical_space(2, 6), [((3, 1, 0), (-6, 1, 1)),
                                         ((-3, 0, 1), (9, 1, 0))], None),
    # 1/(1 - y q0)^2: the univariate image peaks at 256 = 2^8, one bit past
    # a byte, at degree 255, where one slot holds all of it
    "image_2^8": (canonical_space(1, 255), [(_Y_PLUS, (0, 256))] * 2, None),
    # y never moves and the q's are bounded, as in the (z, v) expansions
    "still_limb_bounded": (canonical_space(3, 9),
                           [((0, 1, 0, 0), (0, 1, 1, 1)),
                            ((0, 0, 1, 1), (0, 1, 1, 1)),
                            ((0, 1, 1, 0), (0, 0, 0, 1))], {"q0": 3, "q2": 4}),
    # the limb y sits between graded variables; v, also ungraded, is packed
    "inner_limb": (_MIXED, [((1, -2, 1, 0), (0, 3, 0, 1)),
                            ((0, 1, -1, 1), (1, -1, 0, 1))], {"q1": 3}),
}


@pytest.mark.parametrize("name", sorted(LIMB_EDGES))
def test_expand_limb_edge_cases(name):
    space, fams, bounds = LIMB_EDGES[name]
    want = Series.one(space)
    for base, step in fams:
        want = want * pochhammer_inverse(space, base, step)
    box = [(space.index[n], b) for n, b in (bounds or {}).items()]
    want = Series.from_terms(space, {m: c for m, c in want.terms.items()
                                     if all(m[i] <= b for i, b in box)})
    assert expand(space, fams, bounds) == want
    if name == "past_2^64":
        assert max(want.terms.values()) > 2 ** 64
    if name == "image_2^8":
        assert want.coefficient((255, 255)) == 256


def test_substitute_is_homomorphism():
    rng = random.Random(13)
    src = space2(3)
    tgt = canonical_space(3, 6)
    mapping = {"y": tgt.mono(y=1),
               "q0": tgt.mono(q0=1, q1=1),
               "q1": tgt.mono(q2=2)}
    for _ in range(15):
        a = random_series(src, rng)
        b = random_series(src, rng)
        assert (substitute(a * b, mapping, tgt)
                == substitute(a, mapping, tgt) * substitute(b, mapping, tgt))


def test_substitute_requires_images_and_positive_degree():
    src = space2(2)
    tgt = space2(2)
    s = Series.from_terms(src, {src.mono(q0=1): 1})
    with pytest.raises(SeriesError):
        substitute(s, {"y": tgt.mono(y=1)}, tgt)
    bad = {"y": tgt.mono(y=1), "q0": tgt.mono(q0=-1), "q1": tgt.mono(q1=1)}
    with pytest.raises(SeriesError):
        substitute(s, bad, tgt)


def test_substitute_negative_variable_image_is_fine_when_composite_is_not():
    # a variable may map to an inverse monomial as long as every stored
    # monomial's composite image stays in the cone
    src = VariableSpace(("z", "v"), ("z",), 4, {"v": 4})
    tgt = space2(4)
    s = Series.from_terms(src, {(1, 1): 3})
    mapping = {"z": tgt.mono(q0=1, q1=1), "v": tgt.mono(q0=-1)}
    out = substitute(s, mapping, tgt)
    assert out.terms == {(0, 0, 1): 3}


def test_restrict_merges():
    sp = space2(3)
    s = Series.from_terms(sp, {(2, 1, 0): 1, (0, 1, 0): 2, (-2, 1, 0): 4})
    assert s.restrict("y").terms == {(0, 1, 0): 7}


def test_canonical_order():
    sp = space2(3)
    s = Series.from_terms(sp, {(0, 1, 0): 1, (2, 0, 1): 1, (0, 0, 2): 1})
    assert [m for m, _ in s.terms_sorted()] == [(2, 0, 1), (0, 1, 0), (0, 0, 2)]


def test_json_round_trip():
    rng = random.Random(14)
    sp = space2(4)
    for _ in range(10):
        s = random_series(sp, rng)
        d = to_json_dict(s)
        assert all(isinstance(t["coeff"], str) for t in d["terms"])
        assert from_json_dict(json.loads(json.dumps(d))) == s


def test_json_keeps_caps():
    sp = VariableSpace(("z", "v"), ("z",), 2, {"v": 3})
    s = Series.from_terms(sp, {(1, -2): 5})
    d = to_json_dict(s)
    assert d["caps"] == {"v": 3}
    back = from_json_dict(d)
    assert back == s
    assert back.space.caps == {"v": 3}


def test_render_text():
    sp = space2(4)
    assert render_text(Series(sp, {})) == "0"
    s = Series.from_terms(sp, {(2, 1, 1): 2, (0, 1, 0): 1, (0, 0, 0): -3})
    assert render_text(s) == "2*y^2*q0*q1 + q0 - 3"


def test_series_diff_report():
    sp = space2(2)
    a = Series.from_terms(sp, {(0, 1, 0): 1, (2, 0, 1): 5})
    b = Series.from_terms(sp, {(0, 1, 0): 1, (2, 0, 1): 4})
    assert series_diff_report(a, a) == {"equal": True, "coefficients": 2}
    rep = series_diff_report(a, b)
    assert rep == {"equal": False, "coefficients": 2,
                   "first_diff": {"exp": {"y": 2, "q1": 1}, "lhs": "5", "rhs": "4"}}
    # the count is the union of the supports, not either side alone
    c = Series.from_terms(sp, {(0, 1, 0): 1, (0, 0, 2): 3})
    assert series_diff_report(a, c) == {
        "equal": False, "coefficients": 3,
        "first_diff": {"exp": {"y": 2, "q1": 1}, "lhs": "5", "rhs": "0"}}
    with pytest.raises(SeriesError):
        series_diff_report(a, Series(space2(3), {}))


@st.composite
def any_series(draw):
    """A series in a canonical or a capped space; graded exponents are
    non-negative, the others run over -3..3."""
    if draw(st.booleans()):
        sp = canonical_space(draw(st.integers(1, 3)), draw(st.integers(0, 4)))
    else:
        sp = capped_space(draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    mono = st.tuples(*(st.integers(0, 2) if n in sp.grading
                       else st.integers(-3, 3) for n in sp.names))
    coeff = st.integers(-2 ** 80, 2 ** 80)
    return Series.from_terms(sp, draw(st.dictionaries(mono, coeff, max_size=6)))


_text = (st.text(st.sampled_from('a"\\\n\t\x00\x7f\u00e9\u20ac\U0001d11e '),
                 max_size=6)
         | st.text(max_size=4))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | _text
    | any_series(),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(_text, kids, max_size=4)),
    max_leaves=16)


# more than two batches of terms, with negative y exponents, coefficients
# past 2^64 and the unit monomial inside the third batch
_SPANS_BATCHES = Series.from_terms(canonical_space(2, 6), {
    (y, q0, q1): (-1) ** y * (2 ** 64 + 3 * q0 + q1)
    for y in range(-10, 11) for q0 in range(7) for q1 in range(7 - q0)})


@settings(max_examples=200)
@given(_json_values)
@example(Series(space2(3), {}))
@example({"s": [Series.from_terms(canonical_space(1, 0), {(0, 0): -7}), {}]})
@example([Series.from_terms(capped_space(2, 1), {(0, 0, 0): 3}), []])
@example({"big": _SPANS_BATCHES})
@example(Series.from_terms(VariableSpace((), (), 0), {(): 5}))    # no variables
def test_json_chunks_equal_dumps(obj):
    """The streaming writer gives exactly the text of json.dumps with
    indent=2 and to_json_dict for series."""
    want = json.dumps(obj, indent=2, default=to_json_dict)
    assert "".join(json_chunks(obj)) == want


@settings(max_examples=30)
@given(st.lists(_json_values, max_size=4))
@example([])
def test_json_chunks_write_iterators_as_lists(items):
    want = json.dumps({"xs": items, "n": 1}, indent=2, default=to_json_dict)
    assert "".join(json_chunks({"xs": iter(items), "n": 1})) == want


def test_json_chunks_one_chunk_per_batch():
    """A series streams in chunks of at most _BATCH terms; the all-zero
    monomial is written as "exp": {} wherever it falls."""
    n = 3 * _BATCH + 5
    for pos in (0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 7, n - 1):
        # pos monomials sort before the unit (y > 0), the rest after (y < 0)
        terms = {(0, 0): -5}
        terms.update({(1 + i, 0): i + 1 for i in range(pos)})
        terms.update({(-1 - i, 1): 2 ** 65 for i in range(n - 1 - pos)})
        s = Series.from_terms(canonical_space(1, 1), terms)
        chunks = list(json_chunks(s))
        counts = [c.count('"coeff"') for c in chunks]
        assert sum(counts) == n and len(chunks) > 3
        assert max(counts) <= _BATCH
        assert "".join(chunks) == json.dumps(s, indent=2, default=to_json_dict)
        # exactly once, in the chunk that holds term pos
        assert "".join(chunks).count('"exp": {}') == 1
        i = next(k for k, c in enumerate(chunks) if '"exp": {}' in c)
        assert sum(counts[:i]) <= pos < sum(counts[:i + 1])


def test_json_chunks_reject_other_types():
    s = Series.one(space2(2))
    for obj in (1.5, {"a": 0.5}, [object()], {1: 2}, {"a": {1, 2}}, b"x",
                # deep inside an iterator element
                iter([{"a": [1, (2, 1.5)]}]), {"xs": iter([0, [{"b": {1}}]])},
                # inside a plain subtree beside a Series
                {"s": s, "p": {"q": [True, 0.5]}}, [s, [{"x": {2}}]]):
        with pytest.raises(TypeError):
            "".join(json_chunks(obj))


class CountedList(list):
    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_json_chunks_write_plain_siblings_once():
    """A plain value before a Series two levels down is iterated once."""
    xs = CountedList([1, [2, "a"]])
    xs.iterations = 0
    obj = {"a": {"xs": xs, "s": Series.one(space2(2))}, "b": 3}
    want = json.dumps(obj, indent=2, default=to_json_dict)
    xs.iterations = 0
    assert "".join(json_chunks(obj)) == want
    assert xs.iterations == 1


Point = namedtuple("Point", ["x", "y"])


class Tag(str):
    pass


class Count(int):
    pass


class Record(dict):
    pass


class Row(list):
    pass


def test_json_chunks_write_subclasses_as_dumps():
    s = Series.one(space2(2))
    point = Point(1, ["a", None])
    for obj in (point, [point, s], {"p": point, "s": s},
                Record(a=Row([Count(3), Tag("t")]), b=Point(Tag("u"), s)),
                Row([Record(k=Count(-1)), False])):
        want = json.dumps(obj, indent=2, default=to_json_dict)
        assert "".join(json_chunks(obj)) == want
    assert ("".join(json_chunks({"xs": iter([point, Record(k=point)])}))
            == json.dumps({"xs": [point, Record(k=point)]}, indent=2))
