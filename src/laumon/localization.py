"""Torus fixed points of the cyclic instanton moduli components, their
equivariant tangent characters, Morse indices, and the localization sum
for the generating function of Poincare polynomials.

This module is the independent oracle against which the closed-form
product expressions are verified.  Fixed points of a component indexed by
a rank vector r and an occupation vector n are tuples of colored Young
diagrams, one per sector 1..sum(r), whose combined color counts equal n;
`sectors(r)` lays out each sector's residue and offset, once.
Per-fixed-point data (Morse indices, tangent characters) enumerates the
tuples, and both index passes read one per-call component table.  The
rest factors over components and sector pairs instead: the generating
function is one `series.product` call over R reweighted copies of the
colored partition sum of Lemma 3.2, one per sector, and
`pairwise_certificate` checks the Morse formula at every fixed point up
to a total from pairs and single components.  Neither reads the closed
product forms.

Rank vectors are validated once, by `check_ranks` at the entry points;
the per-component helpers take an already-checked tuple.
"""

import itertools
from collections import Counter
from operator import add, mul, sub

from .partitions import (col_heights, colored_counts, partition_sums,
                         partitions_upto)
from .series import Series, canonical_space, product


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
    by_size = partitions_upto(total)
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
    by_size = partitions_upto(sum(n))
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


def _pair_walk(rows_a, rows_b):
    """(t1s, t2s): the T1 and T2 weights of the terms of the sector pair
    (mu_alpha, mu_beta), one per box, before the Omega prefactor, which
    alone depends on the sectors' residues.  Boxes are taken row by row,
    as partitions.boxes yields them: those of mu_alpha, then of mu_beta."""
    h_a, h_b = col_heights(rows_a), col_heights(rows_b)
    t1s, t2s = [], []
    for j, r_a in enumerate(rows_a, start=1):
        r_b = rows_b[j - 1] if j <= len(rows_b) else 0
        t1s += range(1 - r_b, r_a + 1 - r_b)
        t2s += [h - j + 1 for h in h_a[:r_a]]
    for j, r_b in enumerate(rows_b, start=1):
        r_a = rows_a[j - 1] if j <= len(rows_a) else 0
        t1s += range(r_a, r_a - r_b, -1)
        t2s += [j - h for h in h_b[:r_b]]
    return t1s, t2s


def _pair_terms(walk, shift, ell):
    """{(t1, t2, omega): coefficient} of a `_pair_walk` under the prefactor
    Omega^shift, shift = a(beta) - a(alpha) mod ell, in walk order."""
    return dict(Counter(zip(*walk, [(shift + t2) % ell for t2 in walk[1]])))


def _walk_counts(walk, ell):
    """A `_pair_walk`'s terms, those of Omega weight 0 under Omega^shift and
    those of them with T2 weight < 0 (<= 0 when first = alpha < beta), at
    index 2 rho + first, rho = -shift mod ell: `fixed_point_data`'s counts."""
    t2s = walk[1]
    inv, neg = [0] * ell, [0] * ell
    for t2 in t2s:
        inv[t2 % ell] += 1
        neg[t2 % ell] += t2 < 0
    zeros = t2s.count(0)
    return [(len(t2s), inv[rho], neg[rho] + zeros * (first and not rho))
            for rho in range(ell) for first in (0, 1)]


def tangent_characters(r, fps):
    """tangent_character of each fixed point of the iterable `fps`, one at
    a time; the fixed points that share a (mu_alpha, mu_beta, shift) share
    its terms dict, computed once per call."""
    ell = len(r)
    classes = pair_classes(r)
    pairs = {}
    for fp in fps:
        _check_length(fp, sum(r))
        mus = fp.mus
        tc = {}
        for alpha, beta, shift, _ in classes:
            key = (mus[alpha], mus[beta], shift)
            if key not in pairs:
                pairs[key] = _pair_terms(_pair_walk(*key[:2]), shift, ell)
            tc[alpha + 1, beta + 1] = pairs[key]
        yield tc


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
    return next(tangent_characters(r, [fp]))


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


def _components(r, fps):
    """(fp, comps) for each fixed point of the iterable `fps`: comps holds
    the (colored_counts, _morse_term) of each component, computed once per
    call for each distinct (mu, d), in the table both index passes read."""
    secs = sectors(r)
    table = {}
    for fp in fps:
        _check_length(fp, len(secs))
        comps = []
        for d, mu in enumerate(fp.mus):
            comp = table.get((mu, d))
            if comp is None:
                a, offset = secs[d]
                cc = colored_counts(mu, a, len(r))
                comp = table[mu, d] = (cc, _morse_term(
                    cc, mu[0] if mu else 0, offset, r))
            comps.append(comp)
        yield fp, comps


def morse_indices(r, fps):
    """fixed_point_morse_index of each fixed point of the iterable `fps`."""
    return [sum(w for _, w in comps) for _, comps in _components(r, fps)]


def fixed_point_data(r, fps):
    """One tuple per fixed point of the iterable `fps`: its
    FixedPoint.occupation, fixed_point_morse_index, tangent_count of
    tangent_character and of its invariant_part, and morse_index_oracle.

    Each is a sum over components or sector pairs.  The components come
    from `_components`; within one call each distinct (mu_alpha, mu_beta)
    is walked once, for every shift, and a pair's counts are read off its
    walked boxes, so the formula and the weight count stay independent.
    """
    r = check_ranks(r)
    ell = len(r)
    # each sector pair with its `_walk_counts` index
    classes = [(alpha, beta, 2 * (-shift % ell) + first)
               for alpha, beta, shift, first in pair_classes(r)]
    walks = {}
    out = []
    for fp, comps in _components(r, fps):
        mus = fp.mus
        ccs, ws = zip(*comps)
        total = inv = oracle = 0
        for alpha, beta, slot in classes:
            key = (mus[alpha], mus[beta])
            counts = walks.get(key)
            if counts is None:
                counts = walks[key] = _walk_counts(_pair_walk(*key), ell)
            t, i, o = counts[slot]
            total += t
            inv += i
            oracle += o
        out.append((tuple(map(sum, zip(*ccs))), sum(ws), total, inv, oracle))
    return out


def pairwise_certificate(r, n):
    """Two checks at every fixed point of total <= n: `index`,
    morse_index_formula equals the weight count; `counts`, the raw count is
    2 R |mu|, the invariant count sum_a n_a (r_a + r_(a-1)) and the index
    >= 0.  The counts sum `_walk_counts` over ordered sector pairs, and the
    pairs (alpha, beta) and (beta, alpha), alpha < beta, of one shift sum to
    C(mu_alpha, mu_beta).  A check holds iff C(mu, nu) = C(mu, ()) + C((), nu)
    on nonempty mu, nu with |mu| + |nu| <= n and it holds at each one-component
    point; a failure holds the [raw, invariant, weight] counts got and want."""
    r = check_ranks(r)
    ell, secs, classes = len(r), sectors(r), pair_classes(r)
    by_size, dims = partitions_upto(n), list(map(add, r, r[-1:] + r[:-1]))
    walks = {}   # the `_walk_counts` of each (mu, nu) walked

    def counts(mu, nu, shift, first):
        if (mu, nu) not in walks:
            walks[mu, nu] = _walk_counts(_pair_walk(mu, nu), ell)
        return walks[mu, nu][2 * (-shift % ell) + first]

    def c_pair(mu, nu, shift):
        return map(add, counts(mu, nu, shift, 1), counts(nu, mu, -shift, 0))

    comps = []
    for d, (a, _) in enumerate(secs):
        for mu in (mu for size in by_size[1:] for mu in size):
            mus = [mu if k == d else () for k in range(len(secs))]
            got = map(sum, zip(*(counts(mus[alpha], mus[beta], shift, first)
                                 for alpha, beta, shift, first in classes)))
            want = [2 * sum(r) * sum(mu), sum(map(mul, colored_counts(
                mu, a, ell), dims)), morse_index_formula(mu, d + 1, r)]
            comps.append(({"beta": d + 1, "mu": mu}, list(got), want))
    pairs = (({"shift": s, "mu": mu, "nu": nu}, [c - x - y for c, x, y in zip(
        c_pair(mu, nu, s), c_pair(mu, (), s), c_pair((), nu, s))], [0] * 3)
        for s in sorted({shift for _, _, shift, first in classes if first})
        for k in range(1, n) for mu in by_size[k]
        for m in range(1, n - k + 1) for nu in by_size[m])
    index, tally, checked = [], [], 0
    for checked, (w, got, want) in enumerate(itertools.chain(pairs, comps), 1):
        case = dict(w, got=got, want=want)
        index += [case] if got[2] != want[2] else []
        tally += [case] if got[:2] != want[:2] or want[2] < 0 else []
    return {"equal": not index and not tally, "checks": [
        {"name": name, "equal": not f, "checked": checked, "failures": f[:10]}
        for name, f in (("index", index), ("counts", tally))]}


def brute_force_Z(r, n_max):
    """Localization sum: every fixed point with total box count <= n_max
    contributes y^(2w) times the q-monomial of its occupation vector.

    The occupation vector and the Morse index of a fixed point are sums of
    one term per component, so the sum over R-tuples of partitions is the
    product over beta of single-partition sums, taken in one `product`
    call: Lemma 3.2's sum of the residue a of beta, every residue's from
    one `partition_sums` walk, reweighted
    y^col q^cc -> y^(2 (<cc, r> - col * offset)) q^cc.
    """
    r = check_ranks(r)
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    space = canonical_space(len(r), n_max)
    sums = partition_sums(len(r), n_max)
    # injective, as offset >= 1: no two terms meet, none cancels
    return product(space, [Series(space, {
        (2 * _morse_term(m[1:], m[0], offset, r),) + m[1:]: c
        for m, c in sums[a].terms.items()}) for a, offset in sectors(r)])
