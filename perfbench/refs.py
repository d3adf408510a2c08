"""References for every op any seed can produce, each set by a second method.

* Compute ops: the SHA-256 of the JSON output.  The output is rendered by
  laumon's own command handler, with the computing function swapped for a
  second method (`_second_methods`), or, for `morse` and `tangent`, checked
  against the product form before its digest is stored.
* Verify ops: the expected exit code and the number of coefficients the
  identity covers, so that a PASS covering nothing fails.

Rebuild perfbench/references.json from the repository root with

    python3 perfbench/refs.py

It takes a few minutes: the localization sum behind zr-closed (2,2,2) at
order 12 visits 702,695 fixed points.
"""

import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path
from unittest import mock

from tracing import Tracer, load_laumon, run_inprocess
from workloads import all_command_lines, is_verify

ROOT = Path(__file__).resolve().parents[1]
REFS = Path(__file__).resolve().parent / "references.json"

# The Verma denominator is expanded at this cap and cropped to the cap the
# op asks for.  Capping every intermediate product drops routes that leave
# the cap window and come back; the crop at caps 10, 12, 14 and 16 agrees.
VERMA_INTERNAL_CAP = 14

# Commands whose second method takes minutes: a mismatch is reported by
# digest only, without recomputing the reference to locate it.
EXPENSIVE = frozenset(("zr-closed", "zr-u"))

# Known program defects: op line -> SHA-256 of the wrong output the program
# prints today.  That exact output is reported as a known defect, with its
# first differing coefficient, on every run, but does not fail the op; the
# correct output (the reference) passes, and any other output fails.
# Capped Verma products drop routes that leave the cap window and come back:
# 212 coefficients differ from the exact crop (ROADMAP item 4).  Remove the
# entry once the program prints the reference.
KNOWN_DEFECTS = {
    "verma-denominator --size 3 --max-order 6 --v-cap 4":
        "f5ba6602d1e44abdeda2fc79a08a3b40c5fb8d5e68a87b0d43622d1a6b1853f9",
}


def divide_by_families(space, bases, step):
    """Terms of prod over m in bases, n >= 0 of 1/(1 - m step^n).

    Divides by one factor (1 - m) at a time in place, g[e + m] += g[e] in
    ascending graded degree; the program's kernel instead multiplies by
    geometric series."""
    trunc = space.truncation
    buckets = [{} for _ in range(trunc + 1)]
    buckets[0][space.unit()] = 1
    for base in bases:
        m = tuple(base)
        if space.gdeg(m) < 1:
            raise ValueError("family base of graded degree < 1: %r" % (m,))
        while space.gdeg(m) <= trunc:
            d = space.gdeg(m)
            for deg in range(trunc - d + 1):
                dst = buckets[deg + d]
                for e, c in list(buckets[deg].items()):
                    e2 = tuple(x + y for x, y in zip(e, m))
                    dst[e2] = dst.get(e2, 0) + c
            m = tuple(x + y for x, y in zip(m, step))
    return {e: c for b in buckets for e, c in b.items() if c}


def _second_methods(mods):
    """Command -> (module, function name, replacement)."""
    loc, cf, ch, sr = (mods["localization"], mods["closed_form"],
                       mods["characters"], mods["series"])
    theorem_Z, brute, verma = cf.theorem_Z, loc.brute_force_Z, ch.affine_verma_denominator

    def by_localization(r, n_max):
        return brute(r, n_max, threads=1)

    def by_product(r, n_max, threads=1):
        return theorem_Z(r, n_max)

    def verma_cropped(N, n_max, v_cap=4):
        wide = verma(N, n_max, VERMA_INTERNAL_CAP)
        return sr.Series.from_terms(ch.verma_space(N, n_max, v_cap), wide.terms)

    def expand_by_division(b, factors, n_max):
        r = ch.rank_vector_from(b)
        space = sr.canonical_space(b.ell, n_max)
        step = cf.qtilde_monomial(space, r, [1] * b.ell)
        bases = [ch.factor_base_canonical(space, r, f) for f in factors]
        return sr.Series(space, divide_by_families(space, bases, step))

    return {
        "zr-brute": (loc, "brute_force_Z", by_product),
        "zr-closed": (cf, "theorem_Z", by_localization),
        "zr-u": (cf, "theorem_Z_u", by_localization),
        "verma-denominator": (ch, "affine_verma_denominator", verma_cropped),
        "characters": (ch, "expand_factors", expand_by_division),
    }


def _product_poincare(mods, r, n):
    """y-exponent -> count, read off the q^n coefficient of the product form."""
    z = mods["closed_form"].theorem_Z(r, sum(n))
    return {m[0]: c for m, c in z.terms.items() if m[1:] == tuple(n)}


def _ranks_and_n(args):
    def ints(flag):
        return tuple(int(x) for x in args[args.index(flag) + 1].split(","))
    return ints("--ranks"), ints("--n")


def _check_morse(mods, args, payload):
    r, n = _ranks_and_n(args)
    fps = payload["fixed_points"]
    if not payload["agree"] or any(fp["formula"] != fp["oracle"] for fp in fps):
        raise AssertionError("%s: formula and oracle disagree" % " ".join(args))
    want = _product_poincare(mods, r, n)
    got = {int(e): c for e, c in payload["poincare"].items()}
    if got != want or Counter(2 * fp["formula"] for fp in fps) != Counter(want):
        raise AssertionError("%s: Poincare polynomial differs from the product "
                             "form" % " ".join(args))


def _check_tangent(mods, args, payload):
    r, n = _ranks_and_n(args)
    indices = Counter()
    for fp in payload["fixed_points"]:
        if fp["total_terms"] != 2 * sum(r) * sum(n):
            raise AssertionError("%s: tangent space of the wrong dimension"
                                 % " ".join(args))
        index = invariant = 0
        for pair in fp["pairs"]:
            for t in pair["terms"]:
                if t["omega"] == 0:
                    invariant += t["coeff"]
                    if t["t2"] < 0 or (pair["alpha"] < pair["beta"] and t["t2"] == 0):
                        index += t["coeff"]
        if invariant != fp["invariant_terms"]:
            raise AssertionError("%s: invariant count mismatch" % " ".join(args))
        indices[2 * index] += 1
    if indices != Counter(_product_poincare(mods, r, n)):
        raise AssertionError("%s: Morse indices from the tangent weights differ "
                             "from the product form" % " ".join(args))


def expected_output(mods, args):
    """The reference JSON output of a compute op, by its second method."""
    cli = mods["cli"]
    cmd = args[0]
    methods = _second_methods(mods)
    if cmd in methods:
        with mock.patch.object(*methods[cmd]):
            code, out = run_inprocess(cli, args)
    else:
        code, out = run_inprocess(cli, args)
        check = {"morse": _check_morse, "tangent": _check_tangent}[cmd]
        check(mods, args, json.loads(out))
    if code != 0:
        raise AssertionError("%s: exit %d while building the reference"
                             % (" ".join(args), code))
    return out


def coverage(mods, args):
    """(exit code, coefficients covered) of one verify op, run in process:
    coefficients compared by series_diff_report plus the cases a report
    counts itself."""
    with Tracer(mods, keys={"series.diff"}) as tracer:
        code, out = run_inprocess(mods["cli"], args)
        _, counts = tracer.take()
    return code, counts["series.diff.coeffs"] + json.loads(out).get("checked", 0)


def build(mods, lines):
    ops = {}
    for line in lines:
        args = line.split()
        t0 = time.perf_counter()
        if is_verify(args):
            code, covered = coverage(mods, args)
            if covered < 1:
                raise AssertionError("%s covers no coefficient" % line)
            ops[line] = {"exit": code, "covered": covered}
        else:
            out = expected_output(mods, args)
            ops[line] = {"exit": 0, "sha256": hashlib.sha256(out).hexdigest(),
                         "bytes": len(out)}
        print("%7.1f s  %s" % (time.perf_counter() - t0, line), file=sys.stderr)
    return ops


def check_verma_crop(mods):
    """The internal cap is large enough: two caps below it crop the same."""
    ch, sr = mods["characters"], mods["series"]
    space = ch.verma_space(3, 6, 4)
    crops = [sr.Series.from_terms(space, ch.affine_verma_denominator(3, 6, cap).terms)
             for cap in (VERMA_INTERNAL_CAP - 2, VERMA_INTERNAL_CAP)]
    if crops[0] != crops[1]:
        raise AssertionError("Verma crop still changes at cap %d" % VERMA_INTERNAL_CAP)


def main():
    mods = load_laumon(ROOT)
    check_verma_crop(mods)
    ops = build(mods, all_command_lines())
    REFS.write_text(json.dumps({"ops": ops}, indent=1, sort_keys=True) + "\n")
    print("wrote %d references to %s" % (len(ops), REFS.name), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
