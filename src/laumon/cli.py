"""Command-line front end.

Commands compute the generating function both ways, dump fixed-point and
tangent data, expand the refined characters, and verify every identity in
scope; `acceptance` prints one line per row of `acceptance.CRITERIA`, the
whole verification grid and the shipped golden fixtures.  The parser and
--help read `COMMANDS`; each handler imports only the module it calls.

Exit codes: 0 success or verified equality, 1 verification discrepancy,
2 usage error (an --out path that cannot be opened included) or an output
that cannot be written, as on a full disk, 3 internal error (a series
assertion failure, or any other uncaught exception with its traceback on
stderr), and 141 (128 + SIGPIPE, as a shell reports a process that
SIGPIPE ended) when the reader of stdout closes it before the output is
written.
"""

import contextlib
import itertools
import os
import sys
from collections import Counter
from importlib import import_module
from types import SimpleNamespace

from . import series
from .series import SeriesError


def _csv_ints(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError("expected comma-separated integers, got %r"
                         % text) from None


def _format(text):
    if text not in ("json", "text"):
        raise ValueError("invalid choice: %r (choose from json, text)" % text)
    return text


# --flag -> (dest, converter, default or _REQUIRED, None or (least value,
# why), metavar, help); every command takes _COMMON first
_REQUIRED = object()
_COMMON = {"--format": ("format", _format, "json", None, "{json,text}",
                        "output format"),
           "--out": ("out", str, None, None, "PATH",
                     "write output to a file instead of stdout")}
_RANKS = {"--ranks": ("ranks", _csv_ints, _REQUIRED, None, "R0,R1,..",
                      "rank vector, e.g. 2,1")}
_BLOCKS = {"--m": ("m", _csv_ints, _REQUIRED, None, "M1,..",
                   "block multiplicities"),
           "--s": ("s", _csv_ints, _REQUIRED, None, "S1,..",
                   "block labels, strictly increasing")}
_OCCUPATION = {"--n": ("n", _csv_ints, _REQUIRED, None, "N0,N1,..",
                       "occupation vector")}


def _order(default, least=0):
    why = ": order 0 compares only the constant 1" if least else ""
    return {"--max-order": ("max_order", int, default, (least, why), "N",
                            "truncation order")}


def _exit(name, error=None):
    """Help generated from the table on stdout and exit 0; or, given an
    error, the usage line and the error on stderr and exit 2."""
    if name is None:
        usage, lead = "usage: laumon [-h] command ...", (
            "exact generating functions, characters, and identity checks for "
            "affine Laumon spaces")
        rows = [(n, c[0]) for n, c in COMMANDS.items()]
    else:
        opts, lead = {**_COMMON, **COMMANDS[name][1]}, COMMANDS[name][0]
        usage = "usage: laumon %s [-h] " % name + " ".join(
            ("%s %s" if o[2] is _REQUIRED else "[%s %s]") % (flag, o[4])
            for flag, o in opts.items())
        rows = [(flag + " " + o[4], o[5] + (
            "" if o[2] is None else " (required)" if o[2] is _REQUIRED
            else " (default %s)" % o[2])) for flag, o in opts.items()]
    if error:
        prog = "laumon " + name if name else "laumon"
        print(usage, "%s: error: %s" % (prog, error), sep="\n", file=sys.stderr)
        raise SystemExit(2)
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    width = max(len(flag) for flag, _ in rows)
    print(usage, "", lead, "", *("  %-*s  %s" % (width, *row) for row in rows),
          sep="\n")
    raise SystemExit(0)


def parse_args(argv=None):
    """The command line as a namespace of `command` and each option's dest.
    A flag's value is the next token, even one that starts with "-", or
    the text after "="; a later repeat of a flag wins."""
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        _exit(None)
    if name not in COMMANDS:
        _exit(None, "argument command: invalid choice: %r" % name if argv
              else "the following arguments are required: command")
    opts = {**_COMMON, **COMMANDS[name][1]}
    cfg = {o[0]: o[2] for o in opts.values()}
    args = iter(argv[1:])
    for arg in args:
        if arg in ("-h", "--help"):
            _exit(name)
        flag, eq, value = arg.partition("=")
        if flag not in opts:
            _exit(name, "unrecognized arguments: %s" % arg)
        value = value if eq else next(args, None)
        if value is None:
            _exit(name, "argument %s: expected one argument" % flag)
        dest, convert, _, least = opts[flag][:4]
        try:
            cfg[dest] = convert(value)
        except ValueError as e:
            _exit(name, "argument %s: %s" % (flag, e))
        if least and cfg[dest] < least[0]:
            _exit(name, "%s must be >= %d%s" % (flag, *least))
    missing = [flag for flag, o in opts.items() if cfg[o[0]] is _REQUIRED]
    if missing:
        _exit(name, "the following arguments are required: "
              + ", ".join(missing))
    return SimpleNamespace(command=name, **cfg)


def _dumps(obj):
    import json    # only text output needs it
    return json.dumps(obj)


def _checked_ranks(cfg):
    """The validated --ranks; a zero entry is allowed, with a warning."""
    from . import localization
    r = localization.check_ranks(cfg.ranks)
    if 0 in r:
        print("warning: rank vector %s contains a zero entry, outside the "
              "usual assumption that every rank is positive" % (list(r),),
              file=sys.stderr)
    return r


def _verify_text(title, rep, inputs):
    lines = ["%s: %s" % (title, "PASS" if rep["equal"] else "FAIL"),
             "  inputs: " + ", ".join("%s=%s" % (k, _dumps(rep[k]))
                                      for k in inputs)]
    for c in rep.get("checks", ()):
        tag = c.get("name")
        if tag is None:
            tag = "a=%s ell=%s" % (c.get("a"), c.get("ell"))
        lines.append("  %s: %s" % (tag, "PASS" if c["equal"] else "FAIL"))
        if "coefficients" in c:
            lines.append("    coefficients compared: %d" % c["coefficients"])
        if not c["equal"] and "first_diff" in c:
            lines.append("    first diff: %s" % _dumps(c["first_diff"]))
    if not rep["equal"] and "first_diff" in rep:
        lines.append("  first diff: %s" % _dumps(rep["first_diff"]))
    if rep.get("brute_checked"):
        lines.append("  localization cross-check: %s"
                     % ("PASS" if rep.get("brute_equal") else "FAIL"))
        lines.append("    coefficients compared: %d" % rep["brute_coefficients"])
        if "brute_first_diff" in rep:
            lines.append("    first diff: %s" % _dumps(rep["brute_first_diff"]))
    if "coefficients" in rep:
        lines.append("  coefficients compared: %d" % rep["coefficients"])
    if "checked" in rep:
        lines.append("  cases checked: %d" % rep["checked"])
    if rep.get("failures"):
        lines.append("  first failure: %s" % _dumps(rep["failures"][0]))
    if "families" in rep:
        lines.append("  factor families: %s" % _dumps(rep["families"]))
    return lines


def _verify_out(title, cfg, rep):
    """A verify report led by what it compared: the command's options."""
    inputs = [o[0] for o in COMMANDS[cfg.command][1].values()]
    rep = {**{k: getattr(cfg, k) for k in inputs}, **rep}
    return ((0 if rep["equal"] else 1), rep,
            lambda: "\n".join(_verify_text(title, rep, inputs)))


def _call(module, func, title=None):
    """The handler of a command that passes its options, in table order with
    --ranks validated, to `func` of `module`, imported when it runs; the
    result is the output, a series, or with a title a verify report."""
    def handler(cfg):
        args = [_checked_ranks(cfg) if o[0] == "ranks" else getattr(cfg, o[0])
                for o in COMMANDS[cfg.command][1].values()]
        out = getattr(import_module("." + module, __package__), func)(*args)
        return (_verify_out(title, cfg, out) if title
                else (0, out, lambda: series.render_text(out)))
    return handler


def _h_fixed_points(cfg):
    from . import localization
    r = _checked_ranks(cfg)
    fps = localization.enumerate_fixed_points(r, cfg.n)
    entries = [{"mus": [list(mu) for mu in fp.mus], "morse": w}
               for fp, w in zip(fps, localization.morse_indices(r, fps))]
    payload = {"r": list(r), "n": list(cfg.n), "fixed_points": entries}

    def text():
        lines = ["%d fixed points" % len(entries)]
        lines += ["mus=%s morse=%d" % (_dumps(e["mus"]), e["morse"])
                  for e in entries]
        return "\n".join(lines)
    return 0, payload, text


def _h_morse(cfg):
    from . import localization
    r = _checked_ranks(cfg)
    fps = localization.enumerate_fixed_points(r, cfg.n)
    entries = [{"mus": [list(mu) for mu in fp.mus], "formula": wf,
                "oracle": wo} for fp, (_, wf, _, _, wo)
               in zip(fps, localization.fixed_point_data(r, fps))]
    agree = all(e["formula"] == e["oracle"] for e in entries)
    poincare = dict(sorted(Counter(2 * e["formula"] for e in entries).items()))
    payload = {"r": list(r), "n": list(cfg.n), "fixed_points": entries,
               "poincare": {str(e): c for e, c in poincare.items()},
               "agree": agree}

    def text():
        lines = ["formula vs oracle: %s" % ("agree" if agree else "DISAGREE")]
        lines += ["mus=%s formula=%d oracle=%d"
                  % (_dumps(e["mus"]), e["formula"], e["oracle"])
                  for e in entries]
        lines.append("poincare: " + (" + ".join(
            "%d*y^%d" % (c, e) if e else str(c)
            for e, c in poincare.items()) or "0"))
        return "\n".join(lines)
    return 0, payload, text


def _h_tangent(cfg):
    from . import localization
    r = _checked_ranks(cfg)
    fps = localization.enumerate_fixed_points(r, cfg.n)

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
    payload = {"r": list(r), "n": list(cfg.n), "fixed_points": map(entry, fps)}

    def text():
        lines = ["mus=%s total=%d invariant=%d" % (_dumps(mus), total, inv)
                 for _, mus, total, inv in map(counts, fps)]
        return "\n".join(lines) if lines else "no fixed points"
    return 0, payload, text


def _h_characters(cfg):
    from . import characters
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
    from . import characters
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


def _h_acceptance(cfg):
    from . import acceptance
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


# command -> (help, options after _COMMON in order, handler)
COMMANDS = {
    "zr-brute": ("generating function by fixed-point localization",
                 {**_RANKS, **_order(4)},
                 _call("localization", "brute_force_Z")),
    "zr-closed": ("generating function as a qtilde product",
                  {**_RANKS, **_order(4)}, _call("closed_form", "theorem_Z")),
    "zr-u": ("generating function as a u-variable product",
             {**_RANKS, **_order(4)}, _call("closed_form", "theorem_Z_u")),
    "verify-thm": ("check the qtilde product against localization",
                   {**_RANKS, **_order(4, 1)},
                   _call("closed_form", "verify_theorem_Z",
                         "product form vs localization")),
    "verify-prop34": ("check the u-variable product against the qtilde one",
                      {**_RANKS, **_order(4, 1)},
                      _call("closed_form", "verify_change_of_variables",
                            "u-variable vs qtilde product")),
    "verify-wz": ("check the W-character factorization of Z",
                  {**_BLOCKS, **_order(4, 1)},
                  _call("characters", "verify_WZ", "W-character factorization")),
    "verify-appendixA": ("box-count bijections over a partition grid",
                         _order(12), _call("partitions", "appendixA_report",
                                           "box-count bijections")),
    "verify-appendixB": ("off-diagonal product rearrangement chain",
                         {**_RANKS, **_order(4, 1)},
                         _call("closed_form", "verify_appendixB",
                               "off-diagonal rearrangement chain")),
    "verify-lemma32": ("colored partition-sum identity over a grid",
                       _order(6, 1), _call("closed_form", "lemma32_report",
                                           "colored partition-sum identity")),
    "fixed-points": ("list fixed points of one component",
                     {**_RANKS, **_OCCUPATION}, _h_fixed_points),
    "morse": ("Morse indices, both ways, plus the Poincare polynomial",
              {**_RANKS, **_OCCUPATION}, _h_morse),
    "tangent": ("equivariant tangent characters", {**_RANKS, **_OCCUPATION},
                _h_tangent),
    "characters": ("refined character blocks with factor lists",
                   {**_BLOCKS, **_order(4)}, _h_characters),
    "spin": ("block spin decomposition and free-field counts", _BLOCKS,
             _h_spin),
    "verma-denominator": (
        "affine Verma denominator in (z, v) variables",
        {"--size": ("size", int, _REQUIRED, (1, ""), "N",
                    "number of v variables"), **_order(4),
         "--v-cap": ("v_cap", int, 4, (0, ""), "C",
                     "print only the terms with every |v exponent| <= C")},
        _call("characters", "affine_verma_denominator")),
    "acceptance": ("run the full acceptance grid and diff golden fixtures",
                   {}, _h_acceptance),
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
    except Exception:
        import traceback    # only a crash needs it
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
