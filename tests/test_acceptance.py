"""One test per acceptance criterion, each printing a pass/fail line.

The grids here intentionally repeat the ones baked into the `acceptance`
CLI command so that this file exercises the library directly; run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import random
from importlib import resources

from laumon import characters, closed_form, localization, partitions
from laumon.series import from_json_dict

RANKS = ((1, 1), (2, 1), (1, 1, 1), (2, 2, 1), (2, 1, 1))
BLOCKS = (((2,), (1,)), ((1, 1), (1, 2)), ((2, 1), (1, 2)), ((1, 2), (1, 2)))
APPB_RANKS = ((1, 2, 1), (1, 1, 1), (2, 2, 1), (2, 1, 1, 1))


def report(num, ok, desc):
    print("criterion %s %s: %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, "criterion %s: %s" % (num, desc)


def test_criterion_01_product_vs_localization():
    ok = all(closed_form.theorem_Z(r, 4) == localization.brute_force_Z(r, 4)
             for r in RANKS)
    report("01", ok, "closed product equals localization sum on "
                     "%s at order 4" % (sorted(map(list, RANKS)),))


def test_criterion_02_spot_coefficients():
    z = closed_form.theorem_Z((1, 1), 4)
    spot1 = {m[0]: c for m, c in z.terms.items() if m[1:] == (1, 1)}
    spot2 = {m[0]: c for m, c in z.terms.items() if m[1:] == (2, 0)}
    ok = spot1 == {0: 1, 2: 2} and spot2 == {0: 1}
    report("02", ok, "Z_(1,1) has q0*q1 -> 1 + 2y^2 and q0^2 -> 1")


def test_criterion_03_u_variable_product():
    ok = all(closed_form.theorem_Z_u(r, 4) == closed_form.theorem_Z(r, 4)
             for r in RANKS)
    report("03", ok, "u-variable product equals qtilde product on the "
                     "criterion-01 ranks")


def test_criterion_04_w_character_factorization():
    ok = True
    for m, s in BLOCKS:
        b = characters.BlockData(m, s)
        ok = ok and characters.verify_WZ(b, 4)["equal"]
    b1 = characters.BlockData((2,), (1,))
    ok = ok and b1.L == 1
    ok = ok and characters.w_refined_verma(b1, 4) == closed_form.theorem_Z(
        (1, 1), 4)
    report("04", ok, "Z factors through X_i, X_ij and B characters on 4 "
                     "block shapes; single-block case reduces to Z itself")


def test_criterion_05_morse_vs_weight_count():
    ok = True
    seen = 0
    for r in RANKS:
        for total in range(5):
            for fp in localization.fixed_points_of_size(r, total):
                seen += 1
                if localization.fixed_point_morse_index(fp, r) \
                        != localization.morse_index_oracle(fp, r):
                    ok = False
    report("05", ok, "Morse formula matches the attracting-weight count "
                     "on %d fixed points (totals <= 4)" % seen)


def test_criterion_06_box_count_bijections():
    ok = True
    seen = 0
    for ell in (2, 3, 4, 5):
        for n in range(13):
            for mu in partitions.enumerate_partitions(n):
                for c in range(-ell + 1, ell):
                    seen += 1
                    g1 = partitions.count_N1_geq(mu, c, ell)
                    g2 = partitions.count_N2_geq(mu, c, ell)
                    gt = partitions.count_N1_gt(mu, c, ell)
                    if g1 != g2:
                        ok = False
                    if gt != g2 - (mu.col if c == 0 else 0):
                        ok = False
    report("06", ok, "both residue box-count identities over %d "
                     "partition/residue cases" % seen)


def test_criterion_07_off_diagonal_rearrangement():
    ok = all(closed_form.verify_appendixB(r, 4)["equal"] for r in APPB_RANKS)
    report("07", ok, "raw, split and u-substituted off-diagonal products "
                     "agree on %s" % (sorted(map(list, APPB_RANKS)),))


def test_criterion_08_partition_sum_identity():
    ok = True
    for ell in (2, 3, 4):
        for a in range(ell):
            if not closed_form.verify_partition_identity(a, ell, 6)["equal"]:
                ok = False
    report("08", ok, "colored partition sum equals its product form for "
                     "every residue, ell in {2,3,4}, degree 6")


def test_criterion_09_tangent_invariants():
    ok = True
    for r in RANKS:
        big_r = sum(r)
        ell = len(r)
        inv_by_occ = {}
        for total in range(5):
            for fp in localization.fixed_points_of_size(r, total):
                tc = localization.tangent_character(fp, r)
                if localization.tangent_count(tc) != 2 * big_r * total:
                    ok = False
                if localization.fixed_point_morse_index(fp, r) < 0:
                    ok = False
                inv = localization.tangent_count(
                    localization.invariant_part(tc, ell))
                inv_by_occ.setdefault(fp.occupation(r), set()).add(inv)
        if any(len(v) != 1 for v in inv_by_occ.values()):
            ok = False
    report("09", ok, "tangent term count 2*R*|n|, invariant count constant "
                     "per component, Morse indices non-negative")


def test_criterion_10_characters_and_free_fields():
    rng = random.Random(20260823)
    ok_a = True
    ok_b = True
    pairs = 0
    for _ in range(50):
        big_l = rng.randint(1, 4)
        m = tuple(rng.randint(1, 3) for _ in range(big_l))
        s = tuple(sorted(rng.sample(range(1, 7), big_l)))
        b = characters.BlockData(m, s)
        if characters.spin_total_dimension(
                characters.spin_decomposition(b)) != b.N ** 2:
            ok_a = False
        for p in characters.free_field_counts(b)["pairs"]:
            i, j = p["i"], p["j"]
            si, sj = s[i - 1], s[j - 1]
            if si % 2 == 0 or sj % 2 == 0:
                continue
            pairs += 1
            mm = m[i - 1] * m[j - 1]
            if (p["direct"]["fermions"] - p["iterated"]["fermions"]
                    != 2 * mm * (sj - si)):
                ok_b = False
            if p["direct"]["betagamma"] or p["iterated"]["betagamma"]:
                ok_b = False
    report("10a", ok_a, "spin decomposition sums to N^2 on 50 seeded "
                        "block shapes")
    report("10b", ok_b, "free-field fermion counts differ by 2*m_i*m_j*"
                        "(s_j-s_i) with no betagamma on %d odd/odd pairs"
                        % pairs)
    ok_c = all(characters.verify_verma_vs_X1(*t)["equal"]
               for t in ((2, 4, 4), (3, 4, 4), (2, 6, 4), (3, 6, 2)))
    report("10c", ok_c, "affine Verma denominator matches the single-block "
                        "character both ways at (N, z-degree, v-cap) in "
                        "(2,4,4), (3,4,4), (2,6,4), (3,6,2)")


def test_golden_fixtures():
    base = resources.files("laumon").joinpath("golden")
    ok = True
    for r in RANKS:
        name = "zr_" + "_".join(str(x) for x in r) + ".json"
        want = from_json_dict(json.loads(base.joinpath(name).read_text()))
        good = want == closed_form.theorem_Z(r, 4)
        print("golden %s %s" % (name, "PASS" if good else "FAIL"))
        ok = ok and good
    for n in (2, 3):
        name = "verma_%d.json" % n
        want = from_json_dict(json.loads(base.joinpath(name).read_text()))
        good = want == characters.affine_verma_denominator(n, 4, 4)
        print("golden %s %s" % (name, "PASS" if good else "FAIL"))
        ok = ok and good
    assert ok
