"""Closed-form infinite-product expressions for the fixed-point generating
function, expanded exactly in the truncated series kernel, together with
the product identities used to pass between the different variable sets.

All products live in the canonical space (y, q0..q_{ell-1}) and are built
from shifted variables qtilde_a = y^(2 r_a) q_a, their cyclic products
z = qtilde_0 * .. * qtilde_{ell-1}, and the telescoping combinations
u_c = prod_{b=c}^{ell-1} qtilde_{-b}^(-1) with u_ell = 1, which `u_qtilde`
resolves.  A product is held as a list of (y_exp, qtilde exponents)
factors, each standing for the inverse Pochhammer family of that base
stepped by z; `expand_product` resolves the list to (base, step) monomials
and expands it by one call of `series.expand`.
"""

from itertools import combinations

from .localization import brute_force_Z, check_ranks
from .partitions import partition_sums
from .series import canonical_space, expand, series_diff_report


def qtilde_monomial(space, r, qt_exps, y_exp=0):
    """Canonical-space monomial y^y_exp * prod_a qtilde_a^qt_exps[a]."""
    ell = len(r)
    exps = [0] * len(space.names)
    exps[0] = y_exp + sum(2 * r[a] * qt_exps[a] for a in range(ell))
    for a in range(ell):
        exps[1 + a] = qt_exps[a]
    return tuple(exps)


def z_over_tail(ell, a, c):
    """qtilde exponent vector of z * prod_{b=c}^{ell-1} qtilde_{a-b}^(-1)."""
    v = [1] * ell
    for b in range(c, ell):
        v[(a - b) % ell] -= 1
    return v


def u_exponents(ell, c):
    """qtilde exponent vector of u_c; empty for c = ell."""
    if not 1 <= c <= ell:
        raise ValueError("u index %d out of range 1..%d" % (c, ell))
    return [e - 1 for e in z_over_tail(ell, 0, c)]


def u_pair(ell, plus, minus):
    """u exponent vector of u_plus u_minus^(-1)."""
    return tuple((c == plus) - (c == minus) for c in range(1, ell + 1))


def u_qtilde(z, u):
    """qtilde exponent vector of z^z prod_c u_c^u[c-1]."""
    ell = len(u)
    qt = [z] * ell
    for c, e in enumerate(u, start=1):
        qt = [q + e * x for q, x in zip(qt, u_exponents(ell, c))]
    return qt


def expand_product(r, n_max, factors, bounds=None):
    """Product over the (y_exp, qt_exps) factors of the families
    (y^y_exp prod_a qtilde_a^qt_exps[a])_inf^(-1) stepped by z, expanded in
    canonical_space(len(r), n_max); `bounds` as in `series.expand`."""
    space = canonical_space(len(r), n_max)
    z = qtilde_monomial(space, r, [1] * len(r))
    return expand(space, [(qtilde_monomial(space, r, qt, y_exp), z)
                          for y_exp, qt in factors], bounds)


def _residue_bases(ell, a):
    """Lemma 3.2's qtilde exponent vectors for residue a: z, then
    z * prod_{b=c}^{ell-1} qtilde_{a-b}^(-1) for c in 1..ell-1."""
    return [[1] * ell] + [z_over_tail(ell, a, c) for c in range(1, ell)]


def theorem_Z(r, n_max):
    """Product form of the generating function in the qtilde variables.

    Lemma 3.2's families of each residue a, with bases times y^(-2t) for
    each t <= r_a: (y^(-2t) z^k)_inf^(-1), and for each c in 1..ell-1 the
    family with base y^(-2t) z * prod_{b=c}^{ell-1} qtilde_{a-b}^(-1).
    """
    r = check_ranks(r)
    ell = len(r)
    factors = []
    for a in range(ell):
        bases = _residue_bases(ell, a)
        for t in range(1, r[a] + 1):
            factors += [(-2 * t, qt) for qt in bases]
    return expand_product(r, n_max, factors)


def theorem_Z_u(r, n_max):
    """Same generating function written in the variables u_1..u_ell.

    Diagonal families (y^(-2t) z^k)_inf^(-1) for every (a, t<=r_a); for each
    ordered pair a < c the families with bases y^(-2t) z u_a u_c^(-1) for
    t <= r_{ell-c} and y^(-2t) u_a^(-1) u_c for t <= r_{ell-a}, the latter
    stepped from z^0.
    """
    r = check_ranks(r)
    ell = len(r)
    diagonal = u_qtilde(1, (0,) * ell)
    factors = [(-2 * t, diagonal) for a in range(ell)
               for t in range(1, r[a] + 1)]
    return expand_product(r, n_max, factors + _u_pair_factors(r, ell))


def _u_pair_factors(r, top):
    """theorem_Z_u's pair families of every a < c <= top."""
    ell = len(r)
    factors = []
    for a, c in combinations(range(1, top + 1), 2):
        above = u_qtilde(1, u_pair(ell, a, c))
        below = u_qtilde(0, u_pair(ell, c, a))
        factors += [(-2 * t, above) for t in range(1, r[ell - c] + 1)]
        factors += [(-2 * t, below) for t in range(1, r[ell - a] + 1)]
    return factors


def verify_theorem_Z(r, n_max):
    """Check the qtilde product form against the localization sum."""
    return series_diff_report(brute_force_Z(r, n_max), theorem_Z(r, n_max))


def verify_change_of_variables(r, n_max):
    """Check that the qtilde and u product forms expand identically."""
    return series_diff_report(theorem_Z(r, n_max), theorem_Z_u(r, n_max))


def verify_partition_identity(n_max):
    """Check Lemma 3.2 at every residue a, ell in {2,3,4}: `partition_sums`
    against the families of residue a with base times y at ranks 0, where
    qtilde_b = q_b: (y z^k)_inf^(-1) times, for each c in 1..ell-1,
    (y z^k prod_{b=c}^{ell-1} q_{a-b}^(-1))_inf^(-1)."""
    checks = []
    for ell in (2, 3, 4):
        for a, lhs in enumerate(partition_sums(ell, n_max)):
            rhs = expand_product((0,) * ell, n_max,
                                 [(1, qt) for qt in _residue_bases(ell, a)])
            checks.append(dict(series_diff_report(lhs, rhs), a=a, ell=ell,
                               name="a=%d ell=%d" % (a, ell)))
    return {"equal": all(c["equal"] for c in checks), "checks": checks}


def _appendixB_lhs_factors(r):
    ell = len(r)
    factors = []
    for a in range(1, ell):
        for t in range(1, r[a] + 1):
            for c in range(1, ell):
                if c != a:
                    factors.append((-2 * t, z_over_tail(ell, a, c)))
    return factors


def _appendixB_split_factors(r):
    ell = len(r)
    factors = []
    for a in range(1, ell):
        for c in range(a + 1, ell):
            qt = z_over_tail(ell, a, c)
            pos = [1 - e for e in qt]
            for t in range(1, r[a] + 1):
                factors.append((-2 * t, qt))
            for t in range(1, r[a - c + ell] + 1):
                factors.append((-2 * t, pos))
    return factors


def verify_appendixB(r, n_max):
    """Check the rearrangement chain for the off-diagonal factor block.

    Three expansions are compared pairwise: the raw double product over
    ordered residue pairs, the split form that collects each unordered
    pair into an inverse-variable family and a positive-variable family,
    and the form written in the u variables; the report counts the factor
    families of each.  Raises ValueError when all three are empty (ell = 2,
    or r_1 = .. = r_{ell-1} = 0), as the checks would compare 1 with 1.
    """
    r = check_ranks(r)
    forms = {"raw": _appendixB_lhs_factors(r),
             "split": _appendixB_split_factors(r),
             "u": _u_pair_factors(r, len(r) - 1)}
    if not any(forms.values()):
        raise ValueError("ranks %s have no off-diagonal factors to compare"
                         % (list(r),))
    lhs, split, uform = (expand_product(r, n_max, factors)
                         for factors in forms.values())
    checks = [
        ("raw_vs_split", series_diff_report(lhs, split)),
        ("split_vs_u", series_diff_report(split, uform)),
        ("raw_vs_u", series_diff_report(lhs, uform)),
    ]
    return {"equal": all(rep["equal"] for _, rep in checks),
            "checks": [dict(rep, name=name) for name, rep in checks],
            "families": {name: len(f) for name, f in forms.items()}}
