"""Torus fixed points of the cyclic instanton moduli components, their
equivariant tangent characters, Morse indices, and the localization sum
for the generating function of Poincare polynomials.

This module is the independent oracle against which the closed-form
product expressions are verified.  Fixed points of a component indexed by
a rank vector r and an occupation vector n are tuples of colored Young
diagrams, one per sector 1..sum(r), whose combined color counts equal n;
`sectors(r)` lays out each sector's residue and offset, once.
Per-fixed-point data (Morse indices, tangent characters) enumerates the
tuples; the generating function factors over the components instead: it
multiplies R reweighted copies of the colored partition sum of Lemma 3.2,
one per sector.  It uses only partitions and the per-component Morse
formula, never the closed product forms.

Rank vectors are validated once, by `check_ranks` at the entry points
(`brute_force_Z` and the fixed-point enumerations); the per-component
helpers take an already-checked tuple.
"""

import itertools
from operator import add, mul, sub

from .partitions import (col_heights, colored_counts, enumerate_partitions,
                         partition_sum_lhs)
from .series import Series, canonical_space


def check_ranks(r):
    r = tuple(int(x) for x in r)
    if len(r) < 2:
        raise ValueError("rank vector needs at least two entries")
    if any(x < 0 for x in r):
        raise ValueError("rank entries must be non-negative")
    if sum(r) < 1:
        raise ValueError("rank vector must have a positive entry")
    return r


def sectors(r):
    """The (a, offset) of each sector beta = 1..sum(r), in order: its
    residue a, the unique a with r_0+..+r_{a-1} < beta <= r_0+..+r_a, and
    its in-residue offset r_0+..+r_a - beta + 1, which is at least 1."""
    return [(a, ra - k) for a, ra in enumerate(r) for k in range(ra)]


def sector_index(beta, r):
    """The residue a of sector beta, read from `sectors`."""
    if not 1 <= beta <= sum(r):
        raise ValueError("beta=%d out of range 1..%d" % (beta, sum(r)))
    return sectors(r)[beta - 1][0]


def pair_classes(r):
    """(alpha, beta, a(beta) - a(alpha) mod ell, alpha < beta) of each
    ordered sector pair, 0-based, alpha outer and beta inner; a pair's
    tangent terms depend only on its two diagrams and this class."""
    res = [a for a, _ in sectors(r)]
    return [(alpha, beta, (b - a) % len(r), alpha < beta)
            for alpha, a in enumerate(res) for beta, b in enumerate(res)]


class FixedPoint:
    """A torus fixed point: `mus` holds one partition per sector
    1..sum(r), each the tuple of its row lengths."""
    __slots__ = ("mus",)

    def __init__(self, mus):
        self.mus = tuple(map(tuple, mus))

    def occupation(self, r):
        """Combined per-color box counts of all components."""
        ell = len(r)
        secs = sectors(r)
        _check_length(self, len(secs))
        n = [0] * ell
        for (a, _), mu in zip(secs, self.mus):
            cc = colored_counts(mu, a, ell)
            for b in range(ell):
                n[b] += cc[b]
        return tuple(n)

    def __repr__(self):
        return "FixedPoint(%r)" % (tuple(map(list, self.mus)),)


def _compositions(total, parts):
    # first entry largest first, for a deterministic overall order
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def fixed_points_of_size(r, total):
    """All fixed points with total box count exactly `total`, across all
    occupation vectors, in canonical order."""
    r = check_ranks(r)
    if total < 0:
        raise ValueError("total must be non-negative")
    by_size = [enumerate_partitions(k) for k in range(total + 1)]
    return [FixedPoint(mus) for comp in _compositions(total, sum(r))
            for mus in itertools.product(*(by_size[k] for k in comp))]


def enumerate_fixed_points(r, n):
    """All tuples of colored diagrams with combined color counts equal n,
    in the canonical order of `fixed_points_of_size`: the size composition
    descending, then each diagram's index in `enumerate_partitions`.

    Components are chosen one at a time, and a diagram whose color counts
    would overdraw the occupation still left is never tried further; the
    ways to fill the last components are found once per occupation left.
    """
    r = check_ranks(r)
    ell = len(r)
    n = tuple(int(x) for x in n)
    if len(n) != ell:
        raise ValueError("occupation vector length %d does not match ell=%d"
                         % (len(n), ell))
    if any(x < 0 for x in n):
        raise ValueError("occupation entries must be non-negative")
    by_size = [enumerate_partitions(k) for k in range(sum(n) + 1)]
    res = [a for a, _ in sectors(r)]
    choices = {a: [((k, i, mu), colored_counts(mu, a, ell))
                   for k, mus in enumerate(by_size) for i, mu in enumerate(mus)]
               for a in set(res)}
    memo = {}

    def fill(beta, left):
        """Every choice of components beta, beta + 1, ... using up `left`."""
        if beta == len(res):
            return [()] if not any(left) else []
        if (beta, left) not in memo:
            out = []
            for item, counts in choices[res[beta]]:
                rest = tuple(map(sub, left, counts))
                if min(rest) >= 0:
                    out += [(item,) + tail for tail in fill(beta + 1, rest)]
            memo[beta, left] = out
        return memo[beta, left]

    done = sorted(fill(0, n), key=lambda p: (tuple(-k for k, _, _ in p),
                                             tuple(i for _, i, _ in p)))
    return [FixedPoint(mu for _, _, mu in picked) for picked in done]


def _check_length(fp, big_r):
    if len(fp.mus) != big_r:
        raise ValueError("fixed point has %d components, expected %d"
                         % (len(fp.mus), big_r))


def _pair_terms(rows_a, h_a, rows_b, h_b, shift, ell):
    """Terms of one sector pair from the row lengths and column heights of
    mu_alpha and mu_beta and shift = a(beta) - a(alpha), which counts only
    mod ell; boxes are taken row by row, as partitions.boxes yields them."""
    terms = {}
    for j, r_a in enumerate(rows_a, start=1):
        r_b = rows_b[j - 1] if j <= len(rows_b) else 0
        for i in range(1, r_a + 1):
            t2 = h_a[i - 1] - j + 1
            key = (i - r_b, t2, (shift + t2) % ell)
            terms[key] = terms.get(key, 0) + 1
    for j, r_b in enumerate(rows_b, start=1):
        r_a = rows_a[j - 1] if j <= len(rows_a) else 0
        for i in range(1, r_b + 1):
            t2 = j - h_b[i - 1]
            key = (r_a - i + 1, t2, (shift + t2) % ell)
            terms[key] = terms.get(key, 0) + 1
    return terms


def tangent_character(fp, r):
    """{(alpha, beta): {(t1, t2, omega): coefficient}} over the sector
    pairs, alpha outer and beta inner; (t1, t2, omega) is the monomial
    T1^t1 T2^t2 Omega^omega, omega mod ell, and the pair carries the tag
    Z_beta Z_alpha^(-1).  For the pair (alpha, beta) the terms are
      sum over boxes (i,j) of mu_alpha of
        T1^(-mu_beta_row(j)+i) * (Omega T2)^(colheight_alpha(i)-j+1)
      plus sum over boxes (i,j) of mu_beta of
        T1^(mu_alpha_row(j)-i+1) * (Omega T2)^(-colheight_beta(i)+j)
    times the prefactor Omega^(a(beta)-a(alpha)), so the Omega exponent of
    a term equals a(beta) - a(alpha) + t2 mod ell.
    """
    _check_length(fp, sum(r))
    mus = fp.mus
    heights = [col_heights(mu) for mu in mus]
    return {(alpha + 1, beta + 1):
            _pair_terms(mus[alpha], heights[alpha], mus[beta], heights[beta],
                        shift, len(r))
            for alpha, beta, shift, _ in pair_classes(r)}


def invariant_part(tc):
    """Keep only monomials whose Omega exponent (already mod ell) is 0."""
    return {pair: {k: c for k, c in terms.items() if k[2] == 0}
            for pair, terms in tc.items()}


def tangent_count(tc):
    return sum(sum(terms.values()) for terms in tc.values())


def _morse_term(counts, col, offset, r):
    """Index contribution of one component from its color counts, its
    column count and its sector's offset in `sectors`."""
    return sum(map(mul, counts, r)) - col * offset


def morse_index_formula(mu, beta, r):
    """Index contribution of one component: the color counts paired with
    the rank entries, minus the column count times the in-sector offset."""
    a = sector_index(beta, r)
    return _morse_term(colored_counts(mu, a, len(r)), mu[0] if mu else 0,
                       sectors(r)[beta - 1][1], r)


def fixed_point_morse_index(fp, r):
    return sum(morse_index_formula(mu, beta, r)
               for beta, mu in enumerate(fp.mus, start=1))


def morse_index_from_tangent(tc):
    """Count invariant tangent monomials with negative T2 weight for pairs
    alpha >= beta, nonpositive T2 weight for pairs alpha < beta."""
    total = 0
    for (alpha, beta), terms in tc.items():
        for (_, t2, om), c in terms.items():
            if om == 0 and (t2 < 0 or (alpha < beta and t2 == 0)):
                total += c
    return total


def morse_index_oracle(fp, r):
    return morse_index_from_tangent(tangent_character(fp, r))


def morse_indices(r, fps):
    """fixed_point_morse_index of each fixed point of the iterable `fps`.

    The index is a sum of one term per component, which fixed points
    share, so within one call each distinct (mu, beta) is computed once.
    """
    secs = sectors(r)
    terms = {}
    out = []
    for fp in fps:
        _check_length(fp, len(secs))
        w = 0
        for beta, mu in enumerate(fp.mus):
            key = (mu, beta)
            if key not in terms:
                a, offset = secs[beta]
                terms[key] = _morse_term(colored_counts(mu, a, len(r)),
                                         mu[0] if mu else 0, offset, r)
            w += terms[key]
        out.append(w)
    return out


def fixed_point_data(r, fps):
    """One tuple per fixed point of the iterable `fps`: its
    FixedPoint.occupation, fixed_point_morse_index, tangent_count of
    tangent_character and of its invariant_part, and morse_index_oracle.

    Each is a sum over components or sector pairs, which fixed points
    share, so within one call each distinct (mu, beta) and each distinct
    (mu_alpha, mu_beta) within one class of `pair_classes` is computed
    once, each mu keyed by its row tuple.  A pair's counts come
    from its own tangent terms, so the formula and the weight count stay
    independent.
    """
    r = check_ranks(r)
    ell = len(r)
    secs = sectors(r)
    classes = pair_classes(r)
    components = {}
    pairs = {}
    out = []
    for fp in fps:
        _check_length(fp, len(secs))
        mus = fp.mus
        n = (0,) * ell
        w = total = inv = oracle = 0
        for beta, mu in enumerate(mus):
            key = (mu, beta)
            if key not in components:
                a, offset = secs[beta]
                counts = colored_counts(mu, a, ell)
                components[key] = (counts, _morse_term(
                    counts, mu[0] if mu else 0, offset, r))
            counts, term = components[key]
            n = tuple(map(add, n, counts))
            w += term
        for alpha, beta, shift, alpha_first in classes:
            mu_a, mu_b = mus[alpha], mus[beta]
            key = (mu_a, mu_b, shift, alpha_first)
            if key not in pairs:
                tc = {(alpha + 1, beta + 1): _pair_terms(
                    mu_a, col_heights(mu_a), mu_b, col_heights(mu_b), shift,
                    ell)}
                pairs[key] = (tangent_count(tc),
                              tangent_count(invariant_part(tc)),
                              morse_index_from_tangent(tc))
            t, i, o = pairs[key]
            total += t
            inv += i
            oracle += o
        out.append((n, w, total, inv, oracle))
    return out


def brute_force_Z(r, n_max):
    """Localization sum: every fixed point with total box count <= n_max
    contributes y^(2w) times the q-monomial of its occupation vector.

    The occupation vector and the Morse index of a fixed point are sums of
    one term per component, so the sum over R-tuples of partitions is the
    ordered product over beta of single-partition sums: Lemma 3.2's sum
    `partition_sum_lhs` of the residue a of beta, built once per residue,
    reweighted y^col q^cc -> y^(2 (<cc, r> - col * offset)) q^cc.
    """
    r = check_ranks(r)
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    ell = len(r)
    sums = {}
    out = Series.one(canonical_space(ell, n_max))
    for a, offset in sectors(r):
        if a not in sums:
            sums[a] = partition_sum_lhs(a, ell, n_max)
        # injective, as offset >= 1: no two terms meet, none cancels
        out = out * Series(out.space, {
            (2 * _morse_term(m[1:], m[0], offset, r),) + m[1:]: c
            for m, c in sums[a].terms.items()})
    return out
