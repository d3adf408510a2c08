"""Command-line front end.

Commands compute the generating function both ways, dump fixed-point and
tangent data, expand the refined characters, and verify every identity in
scope; `acceptance` reruns the whole verification grid and diffs the
shipped golden fixtures.

Exit codes: 0 success or verified equality, 1 verification discrepancy,
2 usage error, 3 internal assertion failure.
"""

import argparse
import contextlib
import functools
import itertools
import json
import random
import shutil
import sys
from importlib import resources

from . import characters, closed_form, localization, partitions, series
from .series import SeriesError

ACCEPTANCE_RANKS = ((1, 1), (2, 1), (1, 1, 1), (2, 2, 1), (2, 1, 1))
ACCEPTANCE_BLOCKS = (((2,), (1,)), ((1, 1), (1, 2)),
                     ((2, 1), (1, 2)), ((1, 2), (1, 2)))
ACCEPTANCE_APPB = ((1, 2, 1), (1, 1, 1), (2, 2, 1), (2, 1, 1, 1))
# (N, z-degree, v-cap) of criterion 10c, n > cap included
ACCEPTANCE_VERMA = ((2, 4, 4), (3, 4, 4), (2, 6, 4), (3, 6, 2))


def _csv_ints(text):
    return tuple(int(p) for p in text.split(","))


def _ranks(p):
    p.add_argument("--ranks", type=_csv_ints, required=True,
                   metavar="R0,R1,..", help="rank vector, e.g. 2,1")


def _blocks(p):
    p.add_argument("--m", type=_csv_ints, required=True,
                   metavar="M1,..", help="block multiplicities")
    p.add_argument("--s", type=_csv_ints, required=True,
                   metavar="S1,..", help="block labels, strictly increasing")


def _occupation(p):
    p.add_argument("--n", type=_csv_ints, required=True,
                   metavar="N0,N1,..", help="occupation vector")


def _size(p):
    p.add_argument("--size", type=int, required=True, metavar="N",
                   help="number of v variables")


def _v_cap(p):
    p.add_argument("--v-cap", type=int, default=4, dest="v_cap", metavar="C",
                   help="print only the terms with every |v exponent| <= C "
                        "(default 4)")


def _order(default):
    def add(p):
        p.add_argument("--max-order", type=int, default=default,
                       dest="max_order", metavar="N",
                       help="truncation order (default %d)" % default)
    return add


def build_parser(commands):
    """The argument parser with a subparser for each name in `commands`."""
    # every parser and argument makes a help formatter, which would look
    # up the terminal size again; this is the width each would compute
    fmt = functools.partial(argparse.HelpFormatter,
                            width=shutil.get_terminal_size().columns - 2)
    ap = argparse.ArgumentParser(
        prog="laumon", formatter_class=fmt,
        description="exact generating functions, characters, and identity "
                    "checks for affine Laumon spaces")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    for name in commands:
        help_text, adders, _ = COMMANDS[name]
        p = sub.add_parser(name, help=help_text, formatter_class=fmt)
        p.add_argument("--format", choices=("json", "text"),
                       default="json", help="output format (default json)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write output to a file instead of stdout")
        for add in adders:
            add(p)
    return ap


def parse_args(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # every parser and argument costs gettext and terminal-size lookups, so
    # build only the command named first; anything else (help or a usage
    # error) gets every parser
    first = argv[0] if argv else None
    ap = build_parser([first] if first in COMMANDS else COMMANDS)
    cfg = ap.parse_args(argv)
    if getattr(cfg, "max_order", 0) < 0:
        ap.error("--max-order must be >= 0")
    return cfg


def _warn_ranks(r):
    if 0 in r:
        print("warning: rank vector %s contains a zero entry, outside the "
              "usual assumption that every rank is positive" % (list(r),),
              file=sys.stderr)


def _series_out(s):
    return 0, s, lambda: series.render_text(s)


def _verify_text(title, rep):
    lines = ["%s: %s" % (title, "PASS" if rep["equal"] else "FAIL")]
    for c in rep.get("checks", ()):
        tag = c.get("name")
        if tag is None:
            tag = "a=%s ell=%s" % (c.get("a"), c.get("ell"))
        lines.append("  %s: %s" % (tag, "PASS" if c["equal"] else "FAIL"))
        if "coefficients" in c:
            lines.append("    coefficients compared: %d" % c["coefficients"])
        if not c["equal"] and "first_diff" in c:
            lines.append("    first diff: %s" % json.dumps(c["first_diff"]))
    if not rep["equal"] and "first_diff" in rep:
        lines.append("  first diff: %s" % json.dumps(rep["first_diff"]))
    if rep.get("brute_checked"):
        lines.append("  localization cross-check: %s"
                     % ("PASS" if rep.get("brute_equal") else "FAIL"))
        lines.append("    coefficients compared: %d" % rep["brute_coefficients"])
    if "coefficients" in rep:
        lines.append("  coefficients compared: %d" % rep["coefficients"])
    if "checked" in rep:
        lines.append("  cases checked: %d" % rep["checked"])
    if "families" in rep:
        lines.append("  factor families: %s" % json.dumps(rep["families"]))
    return lines


def _verify_out(title, rep):
    return ((0 if rep["equal"] else 1), rep,
            lambda: "\n".join(_verify_text(title, rep)))


def _h_zr_brute(cfg):
    r = localization.check_ranks(cfg.ranks)
    _warn_ranks(r)
    return _series_out(localization.brute_force_Z(r, cfg.max_order))


def _h_zr_closed(cfg):
    r = localization.check_ranks(cfg.ranks)
    _warn_ranks(r)
    return _series_out(closed_form.theorem_Z(r, cfg.max_order))


def _h_zr_u(cfg):
    r = localization.check_ranks(cfg.ranks)
    _warn_ranks(r)
    return _series_out(closed_form.theorem_Z_u(r, cfg.max_order))


def _h_verify_thm(cfg):
    r = localization.check_ranks(cfg.ranks)
    _warn_ranks(r)
    rep = closed_form.verify_theorem_Z(r, cfg.max_order)
    return _verify_out("product form vs localization", rep)


def _h_verify_prop34(cfg):
    r = localization.check_ranks(cfg.ranks)
    _warn_ranks(r)
    rep = closed_form.verify_change_of_variables(r, cfg.max_order)
    return _verify_out("u-variable vs qtilde product", rep)


def _h_verify_wz(cfg):
    b = characters.BlockData(cfg.m, cfg.s)
    rep = characters.verify_WZ(b, cfg.max_order)
    return _verify_out("W-character factorization", rep)


def appendixA_report(max_size):
    """Check both box-count bijections for every partition of size up to
    max_size, ell in {2,3,4,5}, and every admissible residue."""
    failures = []
    checked = 0
    by_size = [partitions.enumerate_partitions(n) for n in range(max_size + 1)]
    for ell in (2, 3, 4, 5):
        for mus in by_size:
            for mu in mus:
                n1_geq, n1_gt, n2_geq = partitions.box_count_table(mu, ell)
                for c in range(-ell + 1, ell):
                    checked += 1
                    g1, g2, gt = n1_geq[c % ell], n2_geq[c % ell], n1_gt[c % ell]
                    want_gt = g2 - (mu.col if c == 0 else 0)
                    if g1 != g2 or gt != want_gt:
                        failures.append({"mu": mu.to_list(), "ell": ell,
                                         "c": c, "n1_geq": g1, "n2_geq": g2,
                                         "n1_gt": gt})
    return {"equal": not failures, "checked": checked,
            "failures": failures[:10]}


def _h_verify_appendixA(cfg):
    rep = appendixA_report(cfg.max_order)
    return _verify_out("box-count bijections", rep)


def _h_verify_appendixB(cfg):
    r = localization.check_ranks(cfg.ranks)
    _warn_ranks(r)
    rep = closed_form.verify_appendixB(r, cfg.max_order)
    return _verify_out("off-diagonal rearrangement chain", rep)


def lemma32_report(n_max):
    checks = []
    for ell in (2, 3, 4):
        for a in range(ell):
            rep = closed_form.verify_partition_identity(a, ell, n_max)
            checks.append(dict(rep, a=a, ell=ell))
    return {"equal": all(c["equal"] for c in checks), "checks": checks}


def _h_verify_lemma32(cfg):
    rep = lemma32_report(cfg.max_order)
    return _verify_out("colored partition-sum identity", rep)


def _h_fixed_points(cfg):
    r = localization.check_ranks(cfg.ranks)
    _warn_ranks(r)
    n = localization.check_occupation(cfg.n, len(r))
    fps = localization.enumerate_fixed_points(r, n)
    entries = [{"mus": [mu.to_list() for mu in fp.mus],
                "morse": localization.fixed_point_morse_index(fp, r)}
               for fp in fps]
    payload = {"r": list(r), "n": list(n), "fixed_points": entries}

    def text():
        lines = ["%d fixed points" % len(entries)]
        lines += ["mus=%s morse=%d" % (json.dumps(e["mus"]), e["morse"])
                  for e in entries]
        return "\n".join(lines)
    return 0, payload, text


def _h_morse(cfg):
    r = localization.check_ranks(cfg.ranks)
    _warn_ranks(r)
    n = localization.check_occupation(cfg.n, len(r))
    fps = localization.enumerate_fixed_points(r, n)
    entries = []
    agree = True
    poincare = {}
    data = localization.fixed_point_data(r, fps)
    for fp, (_, wf, _, _, wo) in zip(fps, data):
        agree = agree and wf == wo
        entries.append({"mus": [mu.to_list() for mu in fp.mus],
                        "formula": wf, "oracle": wo})
        poincare[2 * wf] = poincare.get(2 * wf, 0) + 1
    poincare = dict(sorted(poincare.items()))
    payload = {"r": list(r), "n": list(n), "fixed_points": entries,
               "poincare": {str(e): c for e, c in poincare.items()},
               "agree": agree}

    def text():
        lines = ["formula vs oracle: %s" % ("agree" if agree else "DISAGREE")]
        lines += ["mus=%s formula=%d oracle=%d"
                  % (json.dumps(e["mus"]), e["formula"], e["oracle"])
                  for e in entries]
        lines.append("poincare: " + " + ".join(
            "%d*y^%d" % (c, e) if e else str(c) for e, c in poincare.items()))
        return "\n".join(lines)
    return 0, payload, text


def _h_tangent(cfg):
    r = localization.check_ranks(cfg.ranks)
    _warn_ranks(r)
    n = localization.check_occupation(cfg.n, len(r))
    ell = len(r)
    fps = localization.enumerate_fixed_points(r, n)

    def entry(fp):
        tc = localization.tangent_character(fp, r)
        pairs = []
        for e in tc:
            terms = [{"t1": k[0], "t2": k[1], "omega": k[2], "coeff": c}
                     for k, c in sorted(e.terms.items())]
            pairs.append({"alpha": e.sector[0], "beta": e.sector[1],
                          "terms": terms})
        inv = localization.tangent_count(localization.invariant_part(tc, ell))
        return {"mus": [mu.to_list() for mu in fp.mus],
                "pairs": pairs,
                "total_terms": localization.tangent_count(tc),
                "invariant_terms": inv}

    # an iterator: each fixed point is written as soon as it is computed
    payload = {"r": list(r), "n": list(n), "fixed_points": map(entry, fps)}

    def text():
        lines = ["mus=%s total=%d invariant=%d"
                 % (json.dumps(e["mus"]), e["total_terms"], e["invariant_terms"])
                 for e in map(entry, fps)]
        return "\n".join(lines) if lines else "no fixed points"
    return 0, payload, text


def _h_characters(cfg):
    b = characters.BlockData(cfg.m, cfg.s)
    n_max = cfg.max_order
    entries = {}

    def put(key, factors, ser):
        entries[key] = {"factors": [characters.render_factor(f) for f in factors],
                        "series": ser}

    for i in range(1, b.L + 1):
        put("X_%d" % i, characters.x_i_factors(b, i), characters.X_i(b, i, n_max))
    for i in range(1, b.L + 1):
        for j in range(i + 1, b.L + 1):
            put("X_%d_%d" % (i, j), characters.x_ij_factors(b, i, j),
                characters.X_ij(b, i, j, n_max))
            put("B_%d_%d" % (i, j), characters.b_character_factors(b, i, j),
                characters.B_character(b, i, j, n_max))
            put("betagamma_%d_%d" % (i, j), characters.betagamma_factors(b, i, j),
                characters.betagamma_refined(b, i, j, n_max))
    put("w_refined_verma", characters.w_refined_verma_factors(b),
        characters.w_refined_verma(b, n_max))
    payload = {"m": list(b.m), "s": list(b.s),
               "ranks": list(characters.rank_vector_from(b)),
               "max_order": n_max, "characters": entries}

    def text():
        lines = []
        for key, e in entries.items():
            lines.append("%s = %s" % (key, " ".join(e["factors"]) or "1"))
            lines.append("  = %s" % series.render_text(e["series"]))
        return "\n".join(lines)
    return 0, payload, text


def _h_spin(cfg):
    b = characters.BlockData(cfg.m, cfg.s)
    ents = characters.spin_decomposition(b)
    total = characters.spin_total_dimension(ents)
    payload = {"m": list(b.m), "s": list(b.s), "N": b.N,
               "entries": [{"pair": list(p), "dim": d, "mult": k}
                           for p, d, k in ents],
               "total_dim": total,
               "free_field_counts": characters.free_field_counts(b)}

    def text():
        lines = ["pair=%s dim=%d mult=%d" % (list(p), d, k) for p, d, k in ents]
        lines.append("total_dim=%d (N^2=%d)" % (total, b.N ** 2))
        return "\n".join(lines)
    return 0, payload, text


def _h_verma(cfg):
    if cfg.size < 1:
        raise ValueError("--size must be >= 1")
    if cfg.v_cap < 0:
        raise ValueError("--v-cap must be >= 0")
    return _series_out(characters.affine_verma_denominator(
        cfg.size, cfg.max_order, cfg.v_cap))


def _load_golden(name):
    try:
        path = resources.files("laumon").joinpath("golden").joinpath(name)
        return json.loads(path.read_text())
    except (FileNotFoundError, OSError, ValueError):
        return None


def golden_names():
    out = [("zr_" + "_".join(str(x) for x in r) + ".json", ("zr", r))
           for r in ACCEPTANCE_RANKS]
    out += [("verma_%d.json" % n, ("verma", n)) for n in (2, 3)]
    return out


def run_acceptance():
    """Run the whole acceptance grid; returns a list of result records."""
    results = []

    def add(name, passed, detail):
        results.append({"criterion": name, "passed": bool(passed),
                        "detail": detail})

    closed_cache = {}
    bad = []
    for r in ACCEPTANCE_RANKS:
        closed_cache[r] = closed_form.theorem_Z(r, 4)
        if localization.brute_force_Z(r, 4) != closed_cache[r]:
            bad.append(str(list(r)))
    add("1 product form vs localization", not bad,
        "ranks %s at order 4%s" % (
            [list(r) for r in ACCEPTANCE_RANKS],
            "" if not bad else "; mismatch at " + ", ".join(bad)))

    z = sorted(closed_cache[(1, 1)].terms.items())
    spot1 = {m[0]: c for m, c in z if m[1:] == (1, 1)}
    spot2 = {m[0]: c for m, c in z if m[1:] == (2, 0)}
    ok2 = spot1 == {0: 1, 2: 2} and spot2 == {0: 1}
    add("2 spot coefficients of Z_(1,1)", ok2,
        "q0*q1 -> %s (want {0:1, 2:2}), q0^2 -> %s (want {0:1})"
        % (spot1, spot2))

    bad = [str(list(r)) for r in ACCEPTANCE_RANKS
           if closed_form.theorem_Z_u(r, 4) != closed_cache[r]]
    add("3 u-variable product form", not bad,
        "same grid" + ("" if not bad else "; mismatch at " + ", ".join(bad)))

    ok4 = True
    details = []
    for m, s in ACCEPTANCE_BLOCKS:
        b = characters.BlockData(m, s)
        rep = characters.verify_WZ(b, 4)
        if not rep["equal"]:
            ok4 = False
            details.append("m=%s s=%s" % (list(m), list(s)))
    b1 = characters.BlockData((2,), (1,))
    no_b_factors = not any(
        characters.b_character_factors(b1, i, j)
        for i in range(1, b1.L + 1) for j in range(i + 1, b1.L + 1))
    reduces = (characters.w_refined_verma(b1, 4)
               == closed_form.theorem_Z((1, 1), 4))
    if not (no_b_factors and reduces):
        ok4 = False
        details.append("L=1 reduction")
    add("4 W-character factorization", ok4,
        "4 block shapes at order 4, with localization cross-check"
        + ("" if ok4 else "; failed: " + ", ".join(details)))

    ok5 = True
    ok9 = True
    fp_total = 0
    for r in ACCEPTANCE_RANKS:
        inv_by_occ = {}
        for occ, w, terms, inv, w_tangent in localization.fixed_point_data(
                r, (fp for total in range(5)
                    for fp in localization.fixed_points_of_size(r, total))):
            fp_total += 1
            if w != w_tangent:
                ok5 = False
            if terms != 2 * sum(r) * sum(occ) or w < 0:
                ok9 = False
            inv_by_occ.setdefault(occ, set()).add(inv)
        if any(len(v) != 1 for v in inv_by_occ.values()):
            ok9 = False
    add("5 Morse formula vs weight count", ok5,
        "%d fixed points, totals <= 4, criterion-1 ranks" % fp_total)

    repA = appendixA_report(12)
    add("6 box-count bijections", repA["equal"],
        "%d partition/residue cases, sizes <= 12, ell in {2,3,4,5}"
        % repA["checked"])

    bad = []
    for r in ACCEPTANCE_APPB:
        if not closed_form.verify_appendixB(r, 4)["equal"]:
            bad.append(str(list(r)))
    add("7 off-diagonal rearrangement chain", not bad,
        "ranks %s at order 4"
        % [list(r) for r in ACCEPTANCE_APPB]
        + ("" if not bad else "; failed at " + ", ".join(bad)))

    rep8 = lemma32_report(6)
    add("8 colored partition-sum identity", rep8["equal"],
        "all residues, ell in {2,3,4}, X-degree 6")

    add("9 tangent geometry invariants", ok9,
        "raw counts, invariant-count constancy, index positivity "
        "on the criterion-5 grid")

    rng = random.Random(20260823)
    ok_a = True
    ok_b = True
    pairs_checked = 0
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
            mm = m[i - 1] * m[j - 1]
            if si % 2 == 1 and sj % 2 == 1:
                pairs_checked += 1
                if (p["direct"]["fermions"] - p["iterated"]["fermions"]
                        != 2 * mm * (sj - si)):
                    ok_b = False
                if p["direct"]["betagamma"] or p["iterated"]["betagamma"]:
                    ok_b = False
    add("10a spin decomposition dimension", ok_a, "50 random block shapes")
    add("10b free-field count difference", ok_b,
        "%d odd-parity pairs among the same shapes" % pairs_checked)

    # the golden fixtures' denominators, shared with 10c
    verma = {(n, 4, 4): characters.affine_verma_denominator(n, 4, 4)
             for n in (2, 3)}
    ok_c = all(characters.verify_verma_vs_X1(*t, verma.get(t))["equal"]
               for t in ACCEPTANCE_VERMA)
    add("10c Verma denominator vs single-block character", ok_c,
        "(N, z-degree, v-cap) in %s, both directions"
        % ", ".join("(%d,%d,%d)" % t for t in ACCEPTANCE_VERMA))

    for name, (kind, arg) in golden_names():
        want = _load_golden(name)
        got = closed_cache[arg] if kind == "zr" else verma[(arg, 4, 4)]
        passed = want is not None and series.from_json_dict(want) == got
        add("golden %s" % name, passed,
            "fixture match" if passed else
            ("fixture missing" if want is None else "fixture differs"))

    return results


def _h_acceptance(cfg):
    results = run_acceptance()
    all_passed = all(r["passed"] for r in results)
    payload = {"results": results, "all_passed": all_passed}

    def text():
        width = max(len(r["criterion"]) for r in results)
        lines = ["%-*s  %s  %s" % (width, r["criterion"],
                                   "PASS" if r["passed"] else "FAIL", r["detail"])
                 for r in results]
        lines.append("ALL PASS" if all_passed else "FAILURES: %d"
                     % sum(not r["passed"] for r in results))
        return "\n".join(lines)
    return (0 if all_passed else 1), payload, text


# command -> (help, argument adders after --format and --out in order,
#             handler)
COMMANDS = {
    "zr-brute": ("generating function by fixed-point localization",
                 (_ranks, _order(4)), _h_zr_brute),
    "zr-closed": ("generating function as a qtilde product",
                  (_ranks, _order(4)), _h_zr_closed),
    "zr-u": ("generating function as a u-variable product",
             (_ranks, _order(4)), _h_zr_u),
    "verify-thm": ("check the qtilde product against localization",
                   (_ranks, _order(4)), _h_verify_thm),
    "verify-prop34": ("check the u-variable product against the qtilde one",
                      (_ranks, _order(4)), _h_verify_prop34),
    "verify-wz": ("check the W-character factorization of Z",
                  (_blocks, _order(4)), _h_verify_wz),
    "verify-appendixA": ("box-count bijections over a partition grid",
                         (_order(12),), _h_verify_appendixA),
    "verify-appendixB": ("off-diagonal product rearrangement chain",
                         (_ranks, _order(4)), _h_verify_appendixB),
    "verify-lemma32": ("colored partition-sum identity over a grid",
                       (_order(6),), _h_verify_lemma32),
    "fixed-points": ("list fixed points of one component",
                     (_ranks, _occupation), _h_fixed_points),
    "morse": ("Morse indices, both ways, plus the Poincare polynomial",
              (_ranks, _occupation), _h_morse),
    "tangent": ("equivariant tangent characters", (_ranks, _occupation),
                _h_tangent),
    "characters": ("refined character blocks with factor lists",
                   (_blocks, _order(4)), _h_characters),
    "spin": ("block spin decomposition and free-field counts", (_blocks,),
             _h_spin),
    "verma-denominator": ("affine Verma denominator in (z, v) variables",
                          (_size, _order(4), _v_cap), _h_verma),
    "acceptance": ("run the full acceptance grid and diff golden fixtures",
                   (), _h_acceptance),
}

# the dispatch table run() reads; a tracer may rebind its entries
_HANDLERS = {name: h for name, (_, _, h) in COMMANDS.items()}


def run(cfg):
    code, payload, text = _HANDLERS[cfg.command](cfg)
    if cfg.format == "json":
        # written in batches of 256 chunks, each about one series term or
        # one container of scalars: the whole string would set peak memory
        chunks = series.json_chunks(payload)
    else:
        chunks = iter((text(),))
    with (open(cfg.out, "w") if cfg.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        for batch in iter(lambda: "".join(itertools.islice(chunks, 256)), ""):
            fh.write(batch)
        fh.write("\n")
    return code


def main(argv=None):
    try:
        cfg = parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return run(cfg)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except SeriesError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
