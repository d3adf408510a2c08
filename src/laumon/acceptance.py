"""The acceptance grid as one ordered table, `CRITERIA`, of (name, check)
rows: every identity in scope on a fixed grid, then the golden fixtures.
check(values) returns (passed, detail), values being what `shared()`
computes once.  Library functions are looked up on their modules at call
time, so a caller that rebinds a module attribute sees every call."""

import random
from importlib import resources

from . import characters, closed_form, localization, partitions, series

RANKS = ((1, 1), (2, 1), (1, 1, 1), (2, 2, 1), (2, 1, 1))
BLOCKS = (((2,), (1,)), ((1, 1), (1, 2)), ((2, 1), (1, 2)), ((1, 2), (1, 2)))
APPB_RANKS = ((1, 2, 1), (1, 1, 1), (2, 2, 1), (2, 1, 1, 1))
# (N, z-degree, v-cap) of criterion 10c, n > cap included
VERMA = ((2, 4, 4), (3, 4, 4), (2, 6, 4), (3, 6, 2))
# (fixture file, shared() entry, key) of each golden fixture
GOLDEN = (tuple(("zr_%s.json" % "_".join(map(str, r)), "Z", r) for r in RANKS)
          + tuple(("verma_%d.json" % n, "verma", (n, 4, 4)) for n in (2, 3)))


def shared():
    """theorem_Z at order 4 and fixed_point_data for totals <= 4 per rank,
    the golden Verma denominators, and 50 seeded block shapes."""
    rng = random.Random(20260823)
    shapes = []
    for _ in range(50):
        big_l = rng.randint(1, 4)
        m = tuple(rng.randint(1, 3) for _ in range(big_l))
        s = tuple(sorted(rng.sample(range(1, 7), big_l)))
        shapes.append(characters.BlockData(m, s))
    return {
        "Z": {r: closed_form.theorem_Z(r, 4) for r in RANKS},
        "fixed_points": {r: localization.fixed_point_data(
            r, (fp for total in range(5)
                for fp in localization.fixed_points_of_size(r, total)))
            for r in RANKS},
        "verma": {(n, 4, 4): characters.affine_verma_denominator(n, 4, 4)
                  for n in (2, 3)},
        "shapes": shapes,
    }


def _listed(lead, bad):
    return "" if not bad else lead + ", ".join(bad)


def _product_vs_localization(v):
    bad = [str(list(r)) for r in RANKS
           if localization.brute_force_Z(r, 4) != v["Z"][r]]
    return not bad, "ranks %s at order 4%s" % (
        [list(r) for r in RANKS], _listed("; mismatch at ", bad))


def _spot_coefficients(v):
    z = sorted(v["Z"][(1, 1)].terms.items())
    spot1 = {m[0]: c for m, c in z if m[1:] == (1, 1)}
    spot2 = {m[0]: c for m, c in z if m[1:] == (2, 0)}
    return (spot1 == {0: 1, 2: 2} and spot2 == {0: 1},
            "q0*q1 -> %s (want {0:1, 2:2}), q0^2 -> %s (want {0:1})"
            % (spot1, spot2))


def _u_variable_product(v):
    bad = [str(list(r)) for r in RANKS
           if closed_form.theorem_Z_u(r, 4) != v["Z"][r]]
    return not bad, "same grid" + _listed("; mismatch at ", bad)


def _w_factorization(v):
    # BLOCKS[0] has one block: the L = 1 case, its W-character alone is Z
    bad = ["m=%s s=%s" % (list(m), list(s)) for m, s in BLOCKS
           if not characters.verify_WZ(m, s, 4)["equal"]]
    return (not bad, "4 block shapes at order 4, with localization cross-check"
            + _listed("; failed: ", bad))


def _morse_vs_weight_count(v):
    data = [d for r in RANKS for d in v["fixed_points"][r]]
    return (all(w == w_tangent for _, w, _, _, w_tangent in data),
            "%d fixed points, totals <= 4, criterion-1 ranks" % len(data))


def _box_count_bijections(v):
    rep = partitions.appendixA_report(12)
    return rep["equal"], ("%d partition/residue cases, sizes <= 12, "
                          "ell in {2,3,4,5}" % rep["checked"])


def _off_diagonal_rearrangement(v):
    bad = [str(list(r)) for r in APPB_RANKS
           if not closed_form.verify_appendixB(r, 4)["equal"]]
    return not bad, "ranks %s at order 4%s" % (
        [list(r) for r in APPB_RANKS], _listed("; failed at ", bad))


def _partition_sum_identity(v):
    return (closed_form.verify_partition_identity(6)["equal"],
            "all residues, ell in {2,3,4}, X-degree 6")


def _tangent_invariants(v):
    # the invariant count's formula, the dimension, was found numerically
    ok, zeros = True, {}
    for r in RANKS:
        for occ, w, terms, inv, _ in v["fixed_points"][r]:
            ok = ok and (terms, inv) == (2 * sum(r) * sum(occ), sum(
                n * (r[a] + r[a - 1]) for a, n in enumerate(occ))) and w >= 0
            zeros[r, occ] = zeros.get((r, occ), 0) + (w == 0)
    return ok and set(zeros.values()) == {1}, (
        "raw counts, invariant count sum_a n_a (r_a + r_(a-1)), one index-0 "
        "point per occupation, index positivity on the criterion-5 grid")


def _spin_dimension(v):
    return (all(characters.spin_total_dimension(
                    characters.spin_decomposition(b)) == b.N ** 2
                for b in v["shapes"]),
            "50 random block shapes")


def _free_field_difference(v):
    ok = True
    pairs = 0
    for b in v["shapes"]:
        for p in characters.free_field_counts(b)["pairs"]:
            i, j = p["i"] - 1, p["j"] - 1
            if b.s[i] % 2 == 1 and b.s[j] % 2 == 1:
                pairs += 1
                ok = (ok and p["direct"]["fermions"] - p["iterated"]["fermions"]
                      == 2 * b.m[i] * b.m[j] * (b.s[j] - b.s[i])
                      and not p["direct"]["betagamma"]
                      and not p["iterated"]["betagamma"])
    return ok, "%d odd-parity pairs among the same shapes" % pairs


def _verma_vs_single_block(v):
    # the golden denominators of shared() are reused, not expanded again
    return (all(characters.verify_verma_vs_X1(*t, v["verma"].get(t))["equal"]
                for t in VERMA),
            "(N, z-degree, v-cap) in %s, both directions"
            % ", ".join("(%d,%d,%d)" % t for t in VERMA))


def _fixture(name):
    """The text of one shipped fixture; None if missing or unreadable."""
    try:
        return resources.files("laumon").joinpath("golden").joinpath(
            name).read_text()
    except (OSError, ValueError):
        return None


def _golden(name, entry, key):
    def check(v):
        # a fixture is the byte-level contract: the text `laumon` writes
        want = _fixture(name)
        passed = (want is not None and want == "".join(
            series.json_chunks(v[entry][key])) + "\n")
        return passed, ("fixture match" if passed else
                        "fixture missing" if want is None else "fixture differs")
    return check


CRITERIA = (
    ("1 product form vs localization", _product_vs_localization),
    ("2 spot coefficients of Z_(1,1)", _spot_coefficients),
    ("3 u-variable product form", _u_variable_product),
    ("4 W-character factorization", _w_factorization),
    ("5 Morse formula vs weight count", _morse_vs_weight_count),
    ("6 box-count bijections", _box_count_bijections),
    ("7 off-diagonal rearrangement chain", _off_diagonal_rearrangement),
    ("8 colored partition-sum identity", _partition_sum_identity),
    ("9 tangent geometry invariants", _tangent_invariants),
    ("10a spin decomposition dimension", _spin_dimension),
    ("10b free-field count difference", _free_field_difference),
    ("10c Verma denominator vs single-block character", _verma_vs_single_block),
) + tuple(("golden %s" % name, _golden(name, entry, key))
          for name, entry, key in GOLDEN)


def run():
    """One result record per row of CRITERIA, in order."""
    values = shared()
    results = []
    for name, check in CRITERIA:
        passed, detail = check(values)
        results.append({"criterion": name, "passed": bool(passed),
                         "detail": detail})
    return results
