"""Command-line front end.

Commands compute the generating function both ways, dump fixed-point and
tangent data, expand the refined characters, and verify every identity in
scope; `acceptance` prints one line per row of `acceptance.CRITERIA`, the
whole verification grid and the shipped golden fixtures.

Exit codes: 0 success or verified equality, 1 verification discrepancy,
2 usage error (an --out path that cannot be opened included) or an output
that cannot be written, as on a full disk, 3 internal assertion failure,
and 141 (128 + SIGPIPE, as a shell reports a process that SIGPIPE ended)
when the reader of stdout closes it before the output is written.
"""

import argparse
import contextlib
import functools
import itertools
import json
import os
import shutil
import sys

from . import (acceptance, characters, closed_form, localization, partitions,
               series)
from .series import SeriesError


def _csv_ints(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % text)


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


def _order(default, least=0):
    def add(p):
        p.add_argument("--max-order", type=int, default=default,
                       dest="max_order", metavar="N",
                       help="truncation order (default %d)" % default)
        p.set_defaults(least_order=least)
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
    least = getattr(cfg, "least_order", 0)
    if getattr(cfg, "max_order", 0) < least:
        ap.error("--max-order must be >= %d" % least + (
            ": order 0 compares only the constant 1" if least else ""))
    return cfg


def _checked_ranks(cfg):
    """The validated --ranks; a zero entry is allowed, with a warning."""
    r = localization.check_ranks(cfg.ranks)
    if 0 in r:
        print("warning: rank vector %s contains a zero entry, outside the "
              "usual assumption that every rank is positive" % (list(r),),
              file=sys.stderr)
    return r


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
        if "brute_first_diff" in rep:
            lines.append("    first diff: %s" % json.dumps(rep["brute_first_diff"]))
    if "coefficients" in rep:
        lines.append("  coefficients compared: %d" % rep["coefficients"])
    if "checked" in rep:
        lines.append("  cases checked: %d" % rep["checked"])
    if rep.get("failures"):
        lines.append("  first failure: %s" % json.dumps(rep["failures"][0]))
    if "families" in rep:
        lines.append("  factor families: %s" % json.dumps(rep["families"]))
    return lines


def _verify_out(title, rep):
    return ((0 if rep["equal"] else 1), rep,
            lambda: "\n".join(_verify_text(title, rep)))


def _h_zr_brute(cfg):
    return _series_out(localization.brute_force_Z(_checked_ranks(cfg),
                                                   cfg.max_order))


def _h_zr_closed(cfg):
    return _series_out(closed_form.theorem_Z(_checked_ranks(cfg),
                                              cfg.max_order))


def _h_zr_u(cfg):
    return _series_out(closed_form.theorem_Z_u(_checked_ranks(cfg),
                                                cfg.max_order))


def _h_verify_thm(cfg):
    rep = closed_form.verify_theorem_Z(_checked_ranks(cfg), cfg.max_order)
    return _verify_out("product form vs localization", rep)


def _h_verify_prop34(cfg):
    rep = closed_form.verify_change_of_variables(_checked_ranks(cfg),
                                                 cfg.max_order)
    return _verify_out("u-variable vs qtilde product", rep)


def _h_verify_wz(cfg):
    b = characters.BlockData(cfg.m, cfg.s)
    rep = characters.verify_WZ(b, cfg.max_order)
    return _verify_out("W-character factorization", rep)


def _h_verify_appendixA(cfg):
    rep = partitions.appendixA_report(cfg.max_order)
    return _verify_out("box-count bijections", rep)


def _h_verify_appendixB(cfg):
    rep = closed_form.verify_appendixB(_checked_ranks(cfg), cfg.max_order)
    return _verify_out("off-diagonal rearrangement chain", rep)


def _h_verify_lemma32(cfg):
    rep = closed_form.lemma32_report(cfg.max_order)
    return _verify_out("colored partition-sum identity", rep)


def _h_fixed_points(cfg):
    r = _checked_ranks(cfg)
    n = localization.check_occupation(cfg.n, len(r))
    fps = localization.enumerate_fixed_points(r, n)
    entries = [{"mus": [list(mu) for mu in fp.mus], "morse": w}
               for fp, w in zip(fps, localization.morse_indices(r, fps))]
    payload = {"r": list(r), "n": list(n), "fixed_points": entries}

    def text():
        lines = ["%d fixed points" % len(entries)]
        lines += ["mus=%s morse=%d" % (json.dumps(e["mus"]), e["morse"])
                  for e in entries]
        return "\n".join(lines)
    return 0, payload, text


def _h_morse(cfg):
    r = _checked_ranks(cfg)
    n = localization.check_occupation(cfg.n, len(r))
    fps = localization.enumerate_fixed_points(r, n)
    entries = []
    agree = True
    poincare = {}
    data = localization.fixed_point_data(r, fps)
    for fp, (_, wf, _, _, wo) in zip(fps, data):
        agree = agree and wf == wo
        entries.append({"mus": [list(mu) for mu in fp.mus],
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
        lines.append("poincare: " + (" + ".join(
            "%d*y^%d" % (c, e) if e else str(c)
            for e, c in poincare.items()) or "0"))
        return "\n".join(lines)
    return 0, payload, text


def _h_tangent(cfg):
    r = _checked_ranks(cfg)
    n = localization.check_occupation(cfg.n, len(r))
    fps = localization.enumerate_fixed_points(r, n)

    def counts(fp):
        tc = localization.tangent_character(fp, r)
        return (tc, [list(mu) for mu in fp.mus],
                localization.tangent_count(tc),
                localization.tangent_count(localization.invariant_part(tc)))

    def entry(fp):
        tc, mus, total, inv = counts(fp)
        pairs = [{"alpha": alpha, "beta": beta,
                  "terms": [{"t1": t1, "t2": t2, "omega": om, "coeff": c}
                            for (t1, t2, om), c in sorted(terms.items())]}
                 for (alpha, beta), terms in tc.items()]
        return {"mus": mus, "pairs": pairs, "total_terms": total,
                "invariant_terms": inv}

    # an iterator: each fixed point is written as soon as it is computed
    payload = {"r": list(r), "n": list(n), "fixed_points": map(entry, fps)}

    def text():
        lines = ["mus=%s total=%d invariant=%d" % (json.dumps(mus), total, inv)
                 for _, mus, total, inv in map(counts, fps)]
        return "\n".join(lines) if lines else "no fixed points"
    return 0, payload, text


def _h_characters(cfg):
    b = characters.BlockData(cfg.m, cfg.s)
    n_max = cfg.max_order
    blocks = [("X_%d" % i, characters.x_i_factors(b, i))
              for i in range(1, b.L + 1)]
    for i, j in itertools.combinations(range(1, b.L + 1), 2):
        blocks += [("X_%d_%d" % (i, j), characters.x_ij_factors(b, i, j)),
                   ("B_%d_%d" % (i, j), characters.b_character_factors(b, i, j)),
                   ("betagamma_%d_%d" % (i, j),
                    characters.betagamma_factors(b, i, j))]
    blocks.append(("w_refined_verma", characters.w_refined_verma_factors(b)))
    entries = {key: {"factors": [characters.render_factor(f) for f in factors],
                     "series": characters.expand_factors(b, factors, n_max)}
               for key, factors in blocks}
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


def _h_acceptance(cfg):
    results = acceptance.run()
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
                   (_ranks, _order(4, 1)), _h_verify_thm),
    "verify-prop34": ("check the u-variable product against the qtilde one",
                      (_ranks, _order(4, 1)), _h_verify_prop34),
    "verify-wz": ("check the W-character factorization of Z",
                  (_blocks, _order(4, 1)), _h_verify_wz),
    "verify-appendixA": ("box-count bijections over a partition grid",
                         (_order(12),), _h_verify_appendixA),
    "verify-appendixB": ("off-diagonal product rearrangement chain",
                         (_ranks, _order(4, 1)), _h_verify_appendixB),
    "verify-lemma32": ("colored partition-sum identity over a grid",
                       (_order(6, 1),), _h_verify_lemma32),
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
    # json is written chunk by chunk, each a batch of series terms, an
    # iterator element or the text between them: the whole string would
    # set peak memory
    chunks = series.json_chunks(payload) if cfg.format == "json" else (text(),)
    try:
        out = (open(cfg.out, "w") if cfg.out
               else contextlib.nullcontext(sys.stdout))
    except OSError as e:
        raise ValueError("cannot write --out %s: %s"
                         % (cfg.out, e.strerror)) from None
    try:
        with out as fh:
            fh.writelines(chunks)
            fh.write("\n")
            # a closed pipe shows here, not at exit
            fh.flush()
    except OSError as e:
        if not cfg.out:
            # what stdout still buffers goes to devnull, so that the flush
            # at exit fails no more
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        if isinstance(e, BrokenPipeError):
            # the reader is gone
            return 141    # 128 + SIGPIPE, as a shell reports it
        raise ValueError("cannot write output: %s" % e.strerror) from None
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
