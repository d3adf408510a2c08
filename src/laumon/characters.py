"""Refined characters of the W-algebra block decomposition.

A BlockData (m, s) groups the residues 1..ell (ell = sum m_i) into L
consecutive blocks, block i carrying m_i indices and the label s_i, with
s_1 < .. < s_L.  The associated rank vector lists s_L m_L times down to
s_1 m_1 times, so that r_{ell-c} = s_i exactly when c lies in block i.

Character factors are held symbolically as (y-exponent, z-exponent,
u-exponent vector) triples.  Every factor denotes one inverse Pochhammer
family stepped by z; `closed_form.u_qtilde` maps its z and u exponents to
one qtilde exponent vector, and the list resolves and expands through
`closed_form.expand_product`, in (y, q) through the rank vector, or at
y = 1 and r = 0 for a (z, v) space with the u's kept formal.
"""

import itertools
from collections import Counter, namedtuple
from operator import sub

from .closed_form import (expand_product, qtilde_monomial, theorem_Z, u_pair,
                          u_qtilde)
from .localization import brute_force_Z
from .series import Series, VariableSpace, series_diff_report

UZFactor = namedtuple("UZFactor", ["y", "z", "u"])


class BlockData:
    __slots__ = ("m", "s")

    def __init__(self, m, s):
        m = tuple(int(x) for x in m)
        s = tuple(int(x) for x in s)
        if not m or len(m) != len(s):
            raise ValueError("m and s must be non-empty and equal length")
        if any(x < 1 for x in m):
            raise ValueError("multiplicities must be positive")
        if any(x < 1 for x in s):
            raise ValueError("labels must be positive")
        if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
            raise ValueError("labels must be strictly increasing")
        self.m = m
        self.s = s

    @property
    def L(self):
        return len(self.m)

    @property
    def ell(self):
        return sum(self.m)

    @property
    def N(self):
        return sum(mi * si for mi, si in zip(self.m, self.s))

    def block(self, i):
        """Global indices (1-based) occupied by block i."""
        if not 1 <= i <= self.L:
            raise ValueError("block index %d out of range 1..%d" % (i, self.L))
        start = sum(self.m[: i - 1]) + 1
        return list(range(start, start + self.m[i - 1]))

    def __repr__(self):
        return "BlockData(m=%r, s=%r)" % (self.m, self.s)


def rank_vector_from(b):
    """(s_L repeated m_L times, ..., s_1 repeated m_1 times)."""
    out = []
    for i in range(b.L, 0, -1):
        out.extend([b.s[i - 1]] * b.m[i - 1])
    return tuple(out)


def _u_pairs(b, i, j, ys):
    """Factors over the index pairs (a, c), a in block i and c in block j,
    or a < c both in block i when j is None: for each entry (zy, uy) of
    `ys(s_i, s_j)`, one per t, (y^zy z u_a u_c^(-1))_inf^(-1) and
    (y^uy u_c u_a^(-1))_inf^(-1), a side left out when its exponent is
    None.  Inside one block the m_i diagonal factors (y^zy z)_inf^(-1)
    lead each t.  The indices are checked before b.s or b.m is read."""
    if j is None:
        pairs, j = itertools.combinations(b.block(i), 2), i
    elif 1 <= i < j <= b.L:
        pairs = itertools.product(b.block(i), b.block(j))
    else:
        raise ValueError("need 1 <= i < j <= L")
    ell = b.ell
    us = [(u_pair(ell, a, c), u_pair(ell, c, a)) for a, c in pairs]
    out = []
    for zy, uy in ys(b.s[i - 1], b.s[j - 1]):
        if i == j:
            out += [UZFactor(zy, 1, (0,) * ell)] * b.m[i - 1]
        for above, below in us:
            if zy is not None:
                out.append(UZFactor(zy, 1, above))
            if uy is not None:
                out.append(UZFactor(uy, 0, below))
    return out


def x_i_factors(b, i):
    return _u_pairs(b, i, None,
                    lambda si, _: [(-2 * t, -2 * t) for t in range(1, si + 1)])


def x_ij_factors(b, i, j):
    return _u_pairs(b, i, j, lambda si, sj: [
        (-2 * t + 2 * (si - sj), -2 * t) for t in range(1, si + 1)])


def b_character_factors(b, i, j):
    return _u_pairs(b, i, j, lambda si, sj: [
        (-2 * t, None) for t in range(1, sj - si + 1)])


def betagamma_factors(b, i, j):
    return b_character_factors(b, i, j) + _u_pairs(b, i, j, lambda si, sj: [
        (None, 2 - 2 * t) for t in range(1, sj - si + 1)])


def factor_base_canonical(space, r, f):
    """Resolve one factor base to a canonical (y, q) monomial via r.

    Nothing in laumon calls it: it is the base resolution of the
    benchmark's second method for `characters` (perfbench/refs.py)."""
    return qtilde_monomial(space, r, u_qtilde(f.z, f.u), f.y)


def expand_factors(b, factors, n_max):
    """Product of the factors' inverse Pochhammer families in (y, q)."""
    return expand_product(rank_vector_from(b), n_max,
                          [(f.y, u_qtilde(f.z, f.u)) for f in factors])


def render_factor(f):
    """Product-form text of one factor, like (y^-2*z*u1*u2^-1)_inf^-1."""
    parts = []
    if f.y:
        parts.append("y" if f.y == 1 else "y^%d" % f.y)
    if f.z:
        parts.append("z" if f.z == 1 else "z^%d" % f.z)
    for idx, e in enumerate(f.u, start=1):
        if e:
            parts.append("u%d" % idx if e == 1 else "u%d^%d" % (idx, e))
    body = "*".join(parts) if parts else "1"
    return "(%s)_inf^-1" % body


def w_refined_verma_factors(b):
    out = []
    for i in range(1, b.L + 1):
        out.extend(x_i_factors(b, i))
    for i, j in itertools.combinations(range(1, b.L + 1), 2):
        out.extend(x_ij_factors(b, i, j))
    return out


def verify_WZ(m, s, n_max):
    """Check the product form of the generating function of the blocks
    (m, s) against the refined Verma character times the B-truncation
    characters.

    Also cross-checks the left side against the localization sum, in the
    report's one check, named "localization cross-check".
    """
    b = BlockData(m, s)
    if b.ell < 2:
        raise ValueError("need ell >= 2")
    r = rank_vector_from(b)
    lhs = theorem_Z(r, n_max)
    factors = w_refined_verma_factors(b)
    for i, j in itertools.combinations(range(1, b.L + 1), 2):
        factors.extend(b_character_factors(b, i, j))
    rhs = expand_factors(b, factors, n_max)
    report = series_diff_report(lhs, rhs)
    check = dict(series_diff_report(brute_force_Z(r, n_max), lhs),
                 name="localization cross-check")
    return dict(report, equal=report["equal"] and check["equal"],
                checks=[check])


def spin_decomposition(b):
    """((i, j), dimension, multiplicity) triples of the block adjoint
    decomposition: diagonal blocks carry every odd dimension up to 2s_i-1
    with multiplicity m_i^2, off-diagonal pairs the dimensions from
    s_j-s_i+1 to s_i+s_j-1 in steps of 2 with multiplicity 2 m_i m_j."""
    out = []
    for i in range(1, b.L + 1):
        mi = b.m[i - 1]
        for J in range(1, b.s[i - 1] + 1):
            out.append(((i, i), 2 * J - 1, mi * mi))
    for i, j in itertools.combinations(range(1, b.L + 1), 2):
        mult = 2 * b.m[i - 1] * b.m[j - 1]
        si = b.s[i - 1]
        sj = b.s[j - 1]
        for d in range(sj - si + 1, si + sj, 2):
            out.append(((i, j), d, mult))
    return out


def spin_total_dimension(entries):
    return sum(d * mult for _, d, mult in entries)


def free_field_counts(b):
    """Fermion and beta-gamma generator counts of the two free-field
    presentations, per block pair.

    The direct presentation splits on the relative parity of (s_i, s_j);
    the iterated one on the parity of s_i alone.  Diagonal blocks carry
    m_i^2 s_i(s_i-1) fermions in both.
    """
    diag = []
    for i in range(1, b.L + 1):
        mi = b.m[i - 1]
        si = b.s[i - 1]
        diag.append({"i": i, "fermions": mi * mi * si * (si - 1)})
    pairs = []
    for i, j in itertools.combinations(range(1, b.L + 1), 2):
        mm = b.m[i - 1] * b.m[j - 1]
        si = b.s[i - 1]
        sj = b.s[j - 1]
        if (sj - si) % 2 == 0:
            direct = {"fermions": 2 * mm * si * (sj - 1), "betagamma": 0}
        else:
            direct = {"fermions": 2 * mm * si * sj, "betagamma": mm * si}
        if si % 2 == 1:
            iterated = {"fermions": 2 * mm * sj * (si - 1), "betagamma": 0}
        else:
            iterated = {"fermions": 2 * mm * si * sj, "betagamma": mm * sj}
        pairs.append({"i": i, "j": j, "direct": direct, "iterated": iterated})
    return {"diagonal": diag, "pairs": pairs}


def verma_space(N, n_max, v_cap):
    names = ("z",) + tuple("v%d" % i for i in range(1, N + 1))
    caps = {name: v_cap for name in names[1:]}
    return VariableSpace(names, ("z",), n_max, caps)


def _expand_zv(N, n_max, v_cap, factors):
    """Product of the factors' families at y=1 in verma_space(N, n_max,
    v_cap), exact on the whole window.

    The factors expand at r = 0 and y exponent 0, under z -> q0..q{N-1}
    and v_c -> u_c.  Their v exponents sum to 0, and on that lattice the
    map is injective: q0 reads z, and q_{N-k} reads z - (v_1 + .. + v_k).
    On the window q0 <= n_max, and q_{N-k} <= n_max + v_cap min(k, N-k),
    as the v's sum to 0.  No family lowers a q exponent, so one expansion
    bounded by that box (of degree at most W = N n_max + v_cap
    floor(N^2/4)), pulled back and cropped to the window, is exact.
    """
    window = verma_space(N, n_max, v_cap)
    bounds = {"q0": n_max}
    bounds.update(("q%d" % (N - k), n_max + v_cap * min(k, N - k))
                  for k in range(1, N))
    boxed = expand_product((0,) * N, N * n_max + v_cap * (N * N // 4),
                           [(0, u_qtilde(f.z, f.u)) for f in factors], bounds)
    # column by column, v_k = e_(k-1) - e_k for e = (z, q{N-1}, .., q1, z)
    cols = list(zip(*boxed.terms))
    e = [cols[1], *cols[N:1:-1], cols[1]]
    vs = [list(map(sub, x, y)) for x, y in zip(e, e[1:])]
    keep = map(v_cap.__ge__, map(max, itertools.repeat(0),
                                 *[map(abs, v) for v in vs]))
    # z <= n_max by the bound on q0, and every coefficient is positive
    return Series(window, dict(itertools.compress(
        zip(zip(cols[1], *vs), boxed.terms.values()), keep)))


def affine_verma_factors(N):
    """prod_n (1-z^n)^N prod_{i<j} prod_n (1 - v_j v_i^(-1) z^(n-1))
    (1 - v_i v_j^(-1) z^n) as factors, v_c written as u_c."""
    zero = (0,) * N
    out = [UZFactor(0, 1, zero)] * N
    for i, j in itertools.combinations(range(1, N + 1), 2):
        out.append(UZFactor(0, 0, u_pair(N, j, i)))
        out.append(UZFactor(0, 1, u_pair(N, i, j)))
    return out


def affine_verma_denominator(N, n_max, v_cap):
    """Inverse of the product of `affine_verma_factors(N)`, z-graded to
    order n_max and cropped to v exponents of absolute value <= v_cap; the
    highest-weight prefactor prod v_i^(x_i) is dropped.  Every coefficient
    in the window is exact."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _expand_zv(N, n_max, v_cap, affine_verma_factors(N))


def x_i_unrefined_zu(b, i, n_max, v_cap):
    """Expansion of the X_i factor block at y=1 with the u's kept formal:
    u_c becomes the variable v_c (including u_ell) and z stays its own
    z-graded variable, so the result is directly comparable with the
    affine Verma denominator."""
    return _expand_zv(b.ell, n_max, v_cap, x_i_factors(b, i))


def verify_verma_vs_X1(N, n_max, v_cap, denominator=None):
    """Two-sided check that the single-block character at y=1 and the
    affine Verma denominator coincide under u_c <-> v_c.

    Check one compares the factor lists: X_1's factors with their y
    exponents dropped and the Verma factors are one multiset of (z, u)
    bases, so their products agree at every order.  It counts the N^2
    Verma factors as checked, and its failures are the first 10 bases
    whose multiplicities differ, each with both.  Check two expands the
    X_1 factors in the (z, v) space and compares with the denominator on
    its whole window: `denominator`, when the caller has it already, else
    affine_verma_denominator(N, n_max, v_cap)."""
    b = BlockData((N,), (1,))
    x1 = Counter(f[1:] for f in x_i_factors(b, 1))
    verma = Counter(f[1:] for f in affine_verma_factors(N))
    failures = [{"factor": render_factor(UZFactor(0, *f)), "X_1": x1[f],
                 "verma": verma[f]} for f in x1 | verma if x1[f] != verma[f]]
    if denominator is None:
        denominator = affine_verma_denominator(N, n_max, v_cap)
    rep2 = series_diff_report(denominator, x_i_unrefined_zu(b, 1, n_max, v_cap))
    return {"equal": not failures and rep2["equal"],
            "checks": [{"equal": not failures, "checked": verma.total(),
                        "failures": failures[:10], "name": "factors_vs_X1"},
                       dict(rep2, name="direct_zu_vs_denominator")]}
