import argparse
import contextlib
import errno
import hashlib
import importlib.util
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import laumon
from laumon import (acceptance, characters, cli, closed_form, localization,
                    partitions, series)
from laumon.closed_form import theorem_Z
from laumon.series import from_json_dict, to_json_dict


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_parse_args_defaults():
    cfg = cli.parse_args(["zr-closed", "--ranks", "2,1"])
    assert cfg.command == "zr-closed"
    assert cfg.ranks == (2, 1)
    assert cfg.max_order == 4
    assert cfg.format == "json"
    assert cfg.out is None
    cfg = cli.parse_args(["verify-appendixA"])
    assert cfg.max_order == 12
    cfg = cli.parse_args(["verify-lemma32", "--max-order", "3"])
    assert cfg.max_order == 3


SAMPLE_OPERANDS = {
    "verify-wz": "--m 1,2 --s 1,2", "characters": "--m 1,2 --s 1,2",
    "spin": "--m 1 --s 1", "verify-appendixA": "", "verify-lemma32": "",
    "fixed-points": "--ranks 2,1 --n 1,1", "morse": "--ranks 2,1 --n 1,1",
    "tangent": "--ranks 2,1 --n 1,1", "verma-denominator": "--size 2 --v-cap 3",
    "acceptance": ""}


def reference_parser():
    """An argparse build of cli.COMMANDS, the parser the table replaced:
    a converter that fails or a value under its option's least value is
    a usage error."""
    def typed(convert, least):
        def check(text):
            value = convert(text)
            if least and value < least[0]:
                raise argparse.ArgumentTypeError("must be >= %d" % least[0])
            return value
        return check

    ap = argparse.ArgumentParser(prog="laumon")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, options, _) in cli.COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, (dest, convert, default, least, metavar, text) \
                in {**cli._COMMON, **options}.items():
            required = default is cli._REQUIRED
            p.add_argument(flag, dest=dest, type=typed(convert, least),
                           required=required,
                           default=None if required else default,
                           metavar=metavar, help=text)
    return ap


def exit_code(parse, argv):
    """The status `parse(argv)` exits with, and what it printed to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), \
            pytest.raises(SystemExit) as e:
        parse(argv)
    return e.value.code, out.getvalue()


BAD_ARGV = [
    [], ["bogus"], ["-x", "zr-brute", "--ranks", "1,1"], ["zr-brute"],
    ["zr-brute", "--ranks"],
    ["zr-brute", "--ranks", "1,x"], ["zr-brute", "--ranks", "1,1", "extra"],
    ["zr-brute", "--ranks", "1,1", "--format", "xml"],
    ["zr-brute", "--ranks", "1,1", "--max-order", "x"],
    ["zr-brute", "--ranks", "1,1", "--max-order", "-1"],
    ["verify-thm", "--ranks", "1,1", "--max-order=0"],
    ["verify-lemma32", "--max-order", "0"],
    ["verma-denominator", "--size", "0"],
    ["verma-denominator", "--size", "2", "--v-cap", "-1"],
    ["verify-wz", "--ranks", "1,1"], ["spin", "--m", "1"],
    ["fixed-points", "--ranks", "1,1", "--n=1,,1"],
]


def test_parser_matches_argparse_reference():
    """The table parser reads every sample command line as an argparse
    build of the same table does, `--flag=value` and a repeated flag
    included, and each bad argument list is a usage error to both."""
    ref = reference_parser()
    for name in cli.COMMANDS:
        operands = SAMPLE_OPERANDS.get(name, "--ranks 2,1 --max-order 3")
        for extra in ("", " --format text --out o.txt",
                      " --format=text --out=a=b --format json"):
            argv = (name + " " + operands + extra).split()
            assert vars(cli.parse_args(argv)) == vars(ref.parse_args(argv)), argv
    for argv in BAD_ARGV:
        assert exit_code(cli.parse_args, argv) == (2, ""), argv
        assert exit_code(ref.parse_args, argv)[0] == 2, argv


def test_help_is_generated_from_the_table():
    """-h and --help print usage and one line per command, or per option
    of a command, to stdout and exit 0, wherever they stand."""
    for argv in (["-h"], ["--help"]):
        code, out = exit_code(cli.parse_args, argv)
        assert code == 0 and out.startswith("usage: laumon [-h] command")
        assert all("\n  %s " % name in out for name in cli.COMMANDS)
    for name, (help_text, options, _) in cli.COMMANDS.items():
        for argv in ([name, "-h"], [name, "--format", "text", "--help"]):
            code, out = exit_code(cli.parse_args, argv)
            assert code == 0 and out.startswith("usage: laumon %s [-h] " % name)
            assert help_text in out
            assert all("\n  %s %s " % (flag, o[4]) in out
                       for flag, o in {**cli._COMMON, **options}.items())


def test_usage_error_names_the_command(capsys):
    """A usage error prints the command's usage line and the error, and
    nothing on stdout."""
    code, out, err = run_main(capsys, "verify-thm", "--ranks", "1,1",
                              "--max-order", "0")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "usage: laumon verify-thm [-h] [--format {json,text}] [--out PATH] "
        "--ranks R0,R1,.. [--max-order N]",
        "laumon verify-thm: error: --max-order must be >= 1: order 0 "
        "compares only the constant 1"]


@pytest.mark.parametrize("argv, message", [
    (("zr-closed", "--ranks", "-1,2"), "rank entries must be non-negative"),
    (("morse", "--ranks", "1,1", "--n", "-1,0"),
     "occupation entries must be non-negative"),
], ids=["ranks", "n"])
def test_negative_list_entry_reaches_the_validator(capsys, argv, message):
    """A list value that starts with "-" is the flag's value, so the
    validator's own message is printed."""
    code, out, err = run_main(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def child_env(buffered=None):
    """This environment with src importable, for a child interpreter; with
    `buffered`, stdout block-buffered (True) or unbuffered (False)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), os.pardir, "src"))
    if buffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
    return env


STARTUP_CHILD = """
import sys
before = set(sys.modules)
from laumon import cli
cli.main(sys.argv[1:])
sys.stdout.flush()
print(" ".join(sorted(set(sys.modules) - before)), file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ["verify-thm", "--ranks", "2,1", "--max-order", "2"], ["--help"]])
def test_startup_imports_only_what_the_command_runs(argv):
    """In a fresh interpreter a command loads no argparse, no json and no
    laumon module it does not call."""
    env = child_env()
    proc = subprocess.run([sys.executable, "-c", STARTUP_CHILD] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout
    loaded = set(proc.stderr.split())
    assert "laumon.cli" in loaded
    assert not loaded & {"argparse", "json", "laumon.characters",
                         "laumon.acceptance"}


def test_acceptance_loads_no_json():
    """The golden rows compare the fixtures as text, so `acceptance` loads
    no json in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", STARTUP_CHILD, "acceptance"],
                          capture_output=True, text=True, env=child_env())
    loaded = set(proc.stderr.split())
    assert proc.returncode == 0 and "laumon.acceptance" in loaded
    assert "json" not in loaded


def test_unknown_flag_is_usage_error(capsys):
    # verify-wz takes --m/--s, not --ranks
    code, out, err = run_main(capsys, "verify-wz", "--ranks", "1,1")
    assert code == 2
    assert "usage" in err


def test_zr_brute_json_round_trip(capsys):
    code, out, err = run_main(capsys, "zr-brute", "--ranks", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert from_json_dict(payload) == theorem_Z((1, 1), 4)
    hits = [t for t in payload["terms"]
            if t["exp"] == {"y": 2, "q0": 1, "q1": 1}]
    assert hits and hits[0]["coeff"] == "2"


def test_verify_thm(capsys):
    code, out, err = run_main(capsys, "verify-thm", "--ranks", "1,1,1",
                              "--max-order", "3")
    assert code == 0
    assert json.loads(out)["equal"] is True


@pytest.mark.parametrize("line, inputs", [
    ("verify-thm --ranks 2,1", {"ranks": [2, 1]}),
    ("verify-prop34 --ranks 2,1", {"ranks": [2, 1]}),
    ("verify-wz --m 1,1 --s 1,2", {"m": [1, 1], "s": [1, 2]}),
    ("verify-appendixA", {}),
    ("verify-appendixB --ranks 1,1,1", {"ranks": [1, 1, 1]}),
    ("verify-lemma32", {}),
])
def test_verify_report_names_its_inputs(capsys, line, inputs):
    """Each verify report leads with what it compared, its command's
    options and --max-order, in JSON and as the second line of text."""
    argv = line.split() + ["--max-order", "2"]
    inputs["max_order"] = 2
    code, out, err = run_main(capsys, *argv)
    assert code == 0
    assert list(json.loads(out).items())[:len(inputs)] == list(inputs.items())
    code, out, err = run_main(capsys, *argv, "--format", "text")
    assert out.splitlines()[1] == "  inputs: " + ", ".join(
        "%s=%s" % (k, json.dumps(v)) for k, v in inputs.items())


def test_verify_thm_text(capsys):
    code, out, err = run_main(capsys, "verify-thm", "--ranks", "1,1",
                              "--format", "text")
    assert code == 0
    assert out == ("product form vs localization: PASS\n"
                   "  inputs: ranks=[1, 1], max_order=4\n"
                   "  coefficients compared: 27\n")


def test_verify_wz_text(capsys):
    code, out, err = run_main(capsys, "verify-wz", "--m", "1,1", "--s", "1,2",
                              "--max-order", "4", "--format", "text")
    assert code == 0
    assert out == ("W-character factorization: PASS\n"
                   "  inputs: m=[1, 1], s=[1, 2], max_order=4\n"
                   "  localization cross-check: PASS\n"
                   "    coefficients compared: 47\n"
                   "  coefficients compared: 47\n")


def test_verify_wz_text_names_cross_check_failure(capsys, monkeypatch):
    """A failing localization cross-check prints where it failed."""
    real = characters.brute_force_Z

    def off_by_one(r, n_max):
        z = real(r, n_max)
        return z + series.Series.one(z.space)
    monkeypatch.setattr(characters, "brute_force_Z", off_by_one)
    code, out, err = run_main(capsys, "verify-wz", "--m", "1,1", "--s", "1,2",
                              "--max-order", "4", "--format", "text")
    assert code == 1
    assert out == ("W-character factorization: FAIL\n"
                   "  inputs: m=[1, 1], s=[1, 2], max_order=4\n"
                   "  localization cross-check: FAIL\n"
                   "    coefficients compared: 47\n"
                   '    first diff: {"exp": {}, "lhs": "2", "rhs": "1"}\n'
                   "  coefficients compared: 47\n")


def test_verify_thm_text_names_first_diff(capsys, monkeypatch):
    """A failing comparison prints what it covered, then where it failed."""
    real = closed_form.brute_force_Z

    def off_by_one(r, n_max):
        z = real(r, n_max)
        return z + series.Series.one(z.space)
    monkeypatch.setattr(closed_form, "brute_force_Z", off_by_one)
    code, out, err = run_main(capsys, "verify-thm", "--ranks", "1,1",
                              "--format", "text")
    assert code == 1
    assert out == ("product form vs localization: FAIL\n"
                   "  inputs: ranks=[1, 1], max_order=4\n"
                   "  coefficients compared: 27\n"
                   '  first diff: {"exp": {}, "lhs": "2", "rhs": "1"}\n')


def report_checks(rep):
    """The checks of a report and of its checks, depth first."""
    return [d for c in rep.get("checks", ()) for d in [c] + report_checks(c)]


@pytest.mark.parametrize("line", [
    "verify-thm --ranks 2,1", "verify-prop34 --ranks 2,1",
    "verify-wz --m 1,1 --s 1,2", "verify-appendixA",
    "verify-appendixB --ranks 1,1,1", "verify-lemma32"])
def test_every_comparison_is_reported(capsys, monkeypatch, line):
    """Each series comparison a verify command makes is in its report: one
    `coefficients` field per series_diff_report call, at the top or in a
    check, and in text one `coefficients compared` line per call and one
    `name: PASS` line per check."""
    calls = []
    for info in pkgutil.iter_modules(laumon.__path__):
        module = importlib.import_module("laumon." + info.name)
        real = getattr(module, "series_diff_report", None)
        if real is not None:
            monkeypatch.setattr(module, "series_diff_report",
                                lambda lhs, rhs, real=real:
                                calls.append(1) or real(lhs, rhs))
    argv = line.split() + ["--max-order", "2"]
    code, out, err = run_main(capsys, *argv)
    rep = json.loads(out)
    reports = [rep] + report_checks(rep)
    compared = sum("coefficients" in r for r in reports)
    assert code == 0
    assert len(calls) == compared
    code, out, err = run_main(capsys, *argv, "--format", "text")
    lines = [text.strip() for text in out.splitlines()]
    assert sum(text.startswith("coefficients compared: ")
               for text in lines) == compared
    assert [text for text in lines[2:] if text.endswith(": PASS")] \
        == [c["name"] + ": PASS" for c in reports[1:]]


def test_verify_appendixA_text_names_first_failure(capsys, monkeypatch):
    """A failing box-count check prints its first failure record, the
    first entry of the JSON report's `failures`: here every partition
    gains a box of leg len(mu), one past its tallest column."""
    real = partitions.leg_counts
    monkeypatch.setattr(partitions, "leg_counts", lambda mu: real(mu) + [1])
    code, out, err = run_main(capsys, "verify-appendixA", "--max-order", "1",
                              "--format", "text")
    assert code == 1
    assert out == ("box-count bijections: FAIL\n"
                   "  inputs: max_order=1\n"
                   "  cases checked: 48\n"
                   '  first failure: {"mu": [], "ell": 2, "c": 0, '
                   '"n1_geq": 1, "n2_geq": 0, "n1_gt": 0}\n')
    code, out, err = run_main(capsys, "verify-appendixA", "--max-order", "1")
    assert json.loads(out)["failures"][0] == {
        "mu": [], "ell": 2, "c": 0, "n1_geq": 1, "n2_geq": 0, "n1_gt": 0}


def test_morse_text_without_fixed_points(capsys):
    """An occupation that no fixed point realizes prints the zero
    polynomial, as render_text prints a zero series."""
    code, out, err = run_main(capsys, "morse", "--ranks", "1,0", "--n", "0,1",
                              "--format", "text")
    assert code == 0
    assert out == "formula vs oracle: agree\npoincare: 0\n"


def test_morse_payload(capsys):
    code, out, err = run_main(capsys, "morse", "--ranks", "1,1", "--n", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["poincare"] == {"0": 1, "2": 2}
    assert len(payload["fixed_points"]) == 3


def test_morse_poincare_matches_library(capsys):
    """The Poincare polynomial of `morse` is the q^n coefficient of the
    product form, read off by its y-exponents."""
    r, n = (2, 1, 1), (1, 2, 1)
    code, out, err = run_main(capsys, "morse", "--ranks", "2,1,1", "--n", "1,2,1")
    assert code == 0
    want = sorted((e[0], c) for e, c in theorem_Z(r, sum(n)).terms.items()
                  if e[1:] == n)
    assert len(want) > 2
    assert list(json.loads(out)["poincare"].items()) == [
        (str(e), c) for e, c in want]


def test_fixed_points_payload_matches_per_fixed_point(capsys):
    code, out, err = run_main(capsys, "fixed-points", "--ranks", "2,2,1",
                              "--n", "2,2,2")
    assert code == 0
    r = (2, 2, 1)
    fps = localization.enumerate_fixed_points(r, (2, 2, 2))
    assert json.loads(out)["fixed_points"] == [
        {"mus": [list(mu) for mu in fp.mus],
         "morse": localization.fixed_point_morse_index(fp, r)} for fp in fps]


def test_tangent_counts(capsys):
    code, out, err = run_main(capsys, "tangent", "--ranks", "1,1", "--n", "1,1")
    assert code == 0
    payload = json.loads(out)
    for e in payload["fixed_points"]:
        assert e["total_terms"] == 8
        assert e["invariant_terms"] == 4


def test_tangent_streams_each_fixed_point(monkeypatch):
    """`tangent` writes each fixed point as it is computed, with the bytes
    the whole payload gave when it was built before writing (sha256 of the
    output of the list-building writer, JSON and text)."""
    argv = ["tangent", "--ranks", "2,1", "--n", "3,3"]
    digests = {
        "json": "ca8be108af4c4594ec783628fbb7979d1c0e0008285127782442352295b448d3",
        "text": "199819fbb1851e1a8f1528c385c05df0220b947f20c67cce03d29aff7cced341"}
    calls = []
    tangents = localization.tangent_characters

    def hooked(r, fps):
        for fp, tc in zip(fps, tangents(r, fps)):
            calls.append(fp)
            yield tc
    monkeypatch.setattr(localization, "tangent_characters", hooked)

    class Out(io.StringIO):
        def write(self, text):
            writes.append(len(calls))
            return super().write(text)

    for fmt, digest in digests.items():
        calls, writes, buf = [], [], Out()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv + ["--format", fmt]) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
        assert len(calls) == 78
        if fmt == "json":
            # many batches, the first written after a few fixed points
            assert len(writes) > 10 and writes[0] < 10


def test_tangent_text_pinned(capsys):
    """The text form prints the counts only, with the bytes it printed when
    it built each fixed point's JSON entry first."""
    code, out, err = run_main(capsys, "tangent", "--ranks", "2,1", "--n", "2,1",
                              "--format", "text")
    assert code == 0
    assert out == "".join(
        "mus=%s total=18 invariant=9\n" % mus for mus in (
            "[[2, 1], [], []]", "[[1, 1, 1], [], []]", "[[1, 1], [1], []]",
            "[[2], [], [1]]", "[[1], [1, 1], []]", "[[1], [1], [1]]",
            "[[1], [], [1, 1]]", "[[], [2, 1], []]", "[[], [1, 1, 1], []]",
            "[[], [2], [1]]", "[[], [1], [1, 1]]"))
    code, out, err = run_main(capsys, "tangent", "--ranks", "2,1", "--n", "0,0",
                              "--format", "text")
    assert (code, out) == (0, "mus=[[], [], []] total=0 invariant=0\n")


def test_characters_payload(capsys):
    code, out, err = run_main(capsys, "characters", "--m", "1,1",
                              "--s", "1,2", "--max-order", "2")
    assert code == 0
    chars = json.loads(out)["characters"]
    assert set(chars) == {"X_1", "X_2", "X_1_2", "B_1_2", "betagamma_1_2",
                          "w_refined_verma"}
    assert chars["X_1_2"]["factors"]
    assert all("_inf^-1" in f for f in chars["X_1_2"]["factors"])
    from_json_dict(chars["X_1_2"]["series"])


PINNED_OUTPUTS = {
    # the bytes printed when each block was expanded through its own wrapper
    "characters": (
        "characters --m 1,2 --s 1,2 --max-order 6",
        {"json": "3cf2299acf8f63edff6bcb368633069fcd0aa4fa4cbe5a758f441c0824c0b587",
         "text": "ebbdcfc9c8245c9556c0a2e521ebf227c4800e99d9a65d44904c2552281d3009"}),
    # the bytes printed when each diagram was a validated object, and
    # when each fixed point wrote its diagrams itself
    "fixed-points": (
        "fixed-points --ranks 2,2,1 --n 2,2,2",
        {"json": "c3668686c81011451208d3b930ba3ae984bad0645e5ccdd23e208bdb81960af2",
         "text": "d439fa0b1e7af5095aae61f7d59866bf4413b70963e6b838372e273bae6d058d"}),
    # the bytes printed when each fixed point wrote every one of its
    # diagrams and sector-pair rows itself, before repeated ones were
    # shared: lines outside the benchmark's workloads
    "tangent": (
        "tangent --ranks 2,2,1 --n 2,2,2",
        {"json": "1204bb8191a1c951c585ee6db60481ffb96260dbdf7496223d41eba3bb537fc1",
         "text": "4fe969c6117c1e3b36c6c5852fbd4817879bb752859b0e6a96c1d931c5731d11"}),
    "morse": (
        "morse --ranks 2,1 --n 3,3",
        {"json": "c31878fcf4ffb613f94535e5e7ead20f70eb87bda9c08a4715702eec201bd1f5",
         "text": "f8aae4e40b203d5bee991928d2383511c3ca25dea91d9d03d7c94c8c9eee0a13"}),
    # the bytes printed when each product form resolved its own families:
    # u-pair factors with a zero rank, the (z, v) expansion past the golden
    # fixtures' N <= 3, and multi-u factors over three blocks
    "zr-u": (
        "zr-u --ranks 1,0,2 --max-order 6",
        {"json": "fee048c0c1568a0bef10e2d5b5c9e77cfe9fa53ebaa6cd371ec87908048c632a",
         "text": "b8a5c41d16eb2c13f58d9c83f7c8876f3221adc7387a20df53486633f06a91c9"}),
    "verma-denominator": (
        "verma-denominator --size 4 --max-order 6 --v-cap 4",
        {"json": "410cf6be18c4c5aaf2db3e7433c199360afd1e8f8df8d6975a8b3e409816ea2d",
         "text": "4acb8ba7e92e56dfd9345e5447d38c20cfb2fea2706f93dfe8afb430ead7d032"}),
    "characters-three-blocks": (
        "characters --m 2,1,1 --s 1,2,4 --max-order 6",
        {"json": "aa25ab6c5230167a038bc79642bf22a602083520a349c75de30fbc09bc0c8886",
         "text": "1be6f9aac3278ef08dc90514678986b2401ccfe60d3688e1a913074552da7cc8"}),
    # the bytes printed when each block builder walked its own index pairs:
    # blocks of three and two indices, several pairs per t
    "characters-three-indices": (
        "characters --m 3,2 --s 2,3 --max-order 4",
        {"json": "a3969dfbdcb4e9f3ce7cadab04b108ae9abe38574f1e9690749fc4ce2a616748",
         "text": "15ca0a74067014778c919bb5eb5c171980f69c10e12ff6de1134f71cd1261d27"}),
    # "folded": the JSON before each comparison was a named check, made
    # again from today's by `fold_checks`
    "verify-wz-three-indices": (
        "verify-wz --m 3,2 --s 2,3 --max-order 4",
        {"json": "b22329d2b5205e2d3ec9ccdb6427b5890b29f247081056c3b14b7853dd0a622f",
         "text": "9c44d48fd7aec6c5157d8778bd0ed163b3968615a8699d797c4753375385babb",
         "folded": "594d4f8bc358d547ad249f64f797fdc31bbeef1c951fd841facba25821565aed"}),
    # the bytes printed when criterion 4 also compared the one-block
    # W-character with Z itself, the comparison verify_WZ makes on BLOCKS[0],
    # with row 9's detail naming the invariant-count formula and the
    # index-0 count since
    "acceptance": (
        "acceptance",
        {"json": "2c4c044838d9103f549ad321c0373253a4244810c0afb632b1c79b3abc2ed4ef",
         "text": "dd17176e4cbcdc48484d1cbf09abe877f42a7901f8c982d9a46fa1c96a83374f"}),
    # the bytes printed when the partition sum lived in its own (v, X)
    # space and its product side called series.expand directly, with the
    # report's inputs (max_order) added since
    "verify-lemma32": (
        "verify-lemma32 --max-order 6",
        {"json": "3377e23fc8cc779e9488adf30b60ec970b5377c5adffa27354fadf548d656ecf",
         "text": "ad29de17537e5075770658b154cd2aadb534ec0d23892099b4ff80ebb17bdcb5",
         "folded": "4a294709cd461ac661d177f871b00912030b23777a35ae8000f03441b0e1cb41"}),
    # the bytes printed when every partition's box counts were tabled and
    # compared once per ell, each size enumerated on its own, and `expand`
    # divided by the factors in family order
    "verify-appendixA": (
        "verify-appendixA --max-order 14",
        {"json": "84f17aab906727ad9fb3c2d6f9bf907d497f7ad94f6ca4c08aacd9aa56078f1d",
         "text": "eea80583e04110a64735f81462a2cdbf0aa8635b1255bcf90107e50eb361e4dc"}),
    "verify-lemma32-order-10": (
        "verify-lemma32 --max-order 10",
        {"json": "88c0c0de6aaeec2ee942664ea44e071daf4c17dc9cde80b4cfe12ce36e5e71f1",
         "text": "d4518ee9702234f740e1dcd4fd6c095c8f5925235f51546cfaff5d2c228b60cc"}),
    # the bytes printed when the localization sum folded its sector sums
    # two at a time: coefficients past 2^10 and 2^9, read from 32-bit
    # slots, where the benchmark's lines use 16-bit ones
    "zr-brute": (
        "zr-brute --ranks 2,2,1 --max-order 12",
        {"json": "d97ffb2cb0a3bee1c8df7a953a16a6e64ef12e01989917b53dfbbe1a37e40c68",
         "text": "f1275a81d8296efc46adc97b2ac906e6e5c09970405cc8f1502793b12503db13"}),
    "zr-brute-four-residues": (
        "zr-brute --ranks 3,2,1,1 --max-order 10",
        {"json": "b1e2ea3a6704927b3d594ef2177c934dba09dbcf77293ede4a303a0f9499ad27",
         "text": "92c7b9e33f54eb9809ebadb0011c3198bcc44593d38bc84470b49075849e5b03"}),
}


def fold_checks(rep):
    """A verify report in its layout before every comparison was a named
    check: verify-wz's cross-check as four `brute_*` fields after the
    report's own, and lemma32's checks without their names."""
    checks = rep.pop("checks")
    if [c["name"] for c in checks] == ["localization cross-check"]:
        rep.update(brute_checked=True, brute_equal=checks[0]["equal"],
                   brute_coefficients=checks[0]["coefficients"])
        if "first_diff" in checks[0]:
            rep["brute_first_diff"] = checks[0]["first_diff"]
    else:
        rep["checks"] = [{k: v for k, v in c.items() if k != "name"}
                         for c in checks]
    return rep


@pytest.mark.parametrize("line, digests", PINNED_OUTPUTS.values(),
                         ids=PINNED_OUTPUTS.keys())
def test_output_pinned(line, digests):
    """The command prints the bytes of an earlier implementation (sha256,
    JSON and text); where only the JSON layout changed since, the JSON
    folded back into the old layout hashes to the old bytes."""
    outs = {}
    for fmt in ("json", "text"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(line.split() + ["--format", fmt]) == 0
        outs[fmt] = buf.getvalue()
    if "folded" in digests:
        outs["folded"] = json.dumps(fold_checks(json.loads(outs["json"])),
                                    indent=2) + "\n"
    assert {fmt: hashlib.sha256(outs[fmt].encode()).hexdigest()
            for fmt in digests} == digests


def test_benchmark_trace_targets_resolve():
    """Every (module, attribute) the benchmark's tracer wraps exists in
    laumon, looked up as the tracer looks it up: a function on its module,
    a method in its class's own namespace."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        mod = importlib.import_module("laumon." + module)
        if "." in attr:
            cls_name, name = attr.split(".")
            assert name in vars(getattr(mod, cls_name)), (module, attr)
        else:
            assert callable(getattr(mod, attr, None)), (module, attr)
    # the tracer also rebinds the entries of the handler table
    assert set(cli._HANDLERS) == set(cli.COMMANDS)


def test_benchmark_second_method_for_characters(monkeypatch):
    """The benchmark's reference for a `characters` line, expanded by its
    own division over `characters.factor_base_canonical` bases, still
    resolves and matches the stored digest."""
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
    import refs
    import tracing
    line = "characters --m 1,2 --s 1,2 --max-order 6"
    out = refs.expected_output(tracing.load_laumon(refs.ROOT), line.split())
    with open(refs.REFS) as fh:
        want = json.load(fh)["ops"][line]["sha256"]
    assert hashlib.sha256(out).hexdigest() == want


def test_benchmark_verma_crop_and_second_methods_resolve(monkeypatch):
    """The benchmark's references still run against laumon: its Verma crop
    check (a `Series.from_terms` crop to caps of two `verma_space` series),
    and every (module, name) its second methods patch in with
    `mock.patch.object`, which needs each name to exist."""
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
    import refs
    import tracing
    mods = tracing.load_laumon(refs.ROOT)
    refs.check_verma_crop(mods)
    methods = refs._second_methods(mods)
    assert methods
    for module, name, _ in methods.values():
        assert callable(getattr(module, name, None)), (module.__name__, name)


def test_benchmark_references_hold(monkeypatch):
    """Every benchmark command line meets its stored reference, read as the
    benchmark reads it: the exit code, a compute op's output digest, and a
    verify op's coverage (coefficients compared plus cases checked) at
    least the stored count."""
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
    import refs
    import tracing
    import workloads
    mods = tracing.load_laumon(refs.ROOT)
    with open(refs.REFS) as fh:
        want = json.load(fh)["ops"]
    for line in workloads.all_command_lines():
        args, ref = line.split(), want[line]
        if workloads.is_verify(args):
            code, covered = refs.coverage(mods, args)
            assert covered >= ref["covered"], line
        else:
            code, out = tracing.run_inprocess(mods["cli"], args)
            assert hashlib.sha256(out).hexdigest() == ref["sha256"], line
        assert code == ref["exit"], line


def test_spin_payload(capsys):
    code, out, err = run_main(capsys, "spin", "--m", "1,1", "--s", "1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 3
    assert payload["total_dim"] == 9
    assert payload["free_field_counts"]["pairs"][0]["direct"] == {
        "fermions": 4, "betagamma": 1}


def test_verma_denominator(capsys):
    code, out, err = run_main(capsys, "verma-denominator", "--size", "1",
                              "--max-order", "6")
    assert code == 0
    s = from_json_dict(json.loads(out))
    assert [s.coefficient((k, 0)) for k in range(7)] == [1, 1, 2, 3, 5, 7, 11]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "z.json"
    code, out, err = run_main(capsys, "zr-closed", "--ranks", "1,1",
                              "--out", str(path))
    assert code == 0
    assert out == ""
    assert from_json_dict(json.loads(path.read_text())) == theorem_Z((1, 1), 4)


def test_bad_ranks_exit_2(capsys):
    code, out, err = run_main(capsys, "zr-closed", "--ranks", "1")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, bad", [
    (("zr-closed", "--ranks", "1,x"), "--ranks: expected "
     "comma-separated integers, got '1,x'"),
    (("fixed-points", "--ranks", "1,1", "--n", "1,,1"), "--n: expected "
     "comma-separated integers, got '1,,1'"),
    (("spin", "--m", "a", "--s", "1"), "--m: expected comma-separated "
     "integers, got 'a'"),
], ids=["ranks", "n", "m"])
def test_malformed_integer_list_is_a_usage_error(capsys, argv, bad):
    code, out, err = run_main(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.rstrip().endswith("error: argument " + bad)


def test_zero_rank_warning(capsys):
    code, out, err = run_main(capsys, "zr-closed", "--ranks", "0,1")
    assert code == 0
    assert "zero entry" in err


def test_negative_order_exit_2(capsys):
    operands = {"verify-wz": ("--m", "1,1", "--s", "1,2"),
                "characters": ("--m", "1,1", "--s", "1,2"),
                "verma-denominator": ("--size", "2"),
                "verify-appendixB": ("--ranks", "1,1,1"),
                "verify-appendixA": (), "verify-lemma32": ()}
    commands = ("zr-brute", "zr-closed", "zr-u", "verify-thm",
                "verify-prop34", "verify-appendixB") + tuple(operands)
    # at order 0 these checks would compare only the constant 1
    unit_only = {"verify-thm", "verify-prop34", "verify-wz",
                 "verify-appendixB", "verify-lemma32"}
    for command in commands:
        argv = (command,) + operands.get(command, ("--ranks", "1,1"))
        least = 1 if command in unit_only else 0
        code, out, err = run_main(capsys, *argv, "--max-order", "0")
        assert code == 2 * least, command
        if least:
            assert out == ""
            assert "--max-order must be >= 1: order 0 compares only" in err
        code, out, err = run_main(capsys, *argv, "--max-order", "-3")
        assert (code, out) == (2, ""), command
        assert "--max-order must be >= %d" % least in err


def test_uncaught_exception_exits_3(capsys, monkeypatch):
    """A crash is an internal error (3), never a discrepancy (1): a series
    assertion prints one line, any other exception its traceback."""
    for exc, shown in ((series.SeriesError("bad kernel"),
                        "internal error: bad kernel"),
                       (RuntimeError("bad handler"),
                        "RuntimeError: bad handler")):
        def crash(cfg, exc=exc):
            raise exc
        monkeypatch.setitem(cli._HANDLERS, "spin", crash)
        code, out, err = run_main(capsys, "spin", "--m", "1", "--s", "1")
        assert (code, out) == (3, ""), exc
        assert shown in err
    assert err.startswith("Traceback (most recent call last):")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "laumon", "spin",
                           "--m", "2", "--s", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_dim"] == 4


def test_acceptance_all_pass(capsys):
    code, out, err = run_main(capsys, "acceptance", "--format", "text")
    assert code == 0
    assert out.rstrip().endswith("ALL PASS")
    code, out, err = run_main(capsys, "acceptance")
    payload = json.loads(out)
    assert (code, payload["all_passed"]) == (0, True)
    assert [r["criterion"] for r in payload["results"]] \
        == [name for name, _ in acceptance.CRITERIA]


def test_acceptance_reports_a_failing_row(capsys, monkeypatch):
    name, _ = acceptance.CRITERIA[0]
    monkeypatch.setattr(acceptance, "CRITERIA",
                        ((name, lambda values: (False, "forced")),)
                        + acceptance.CRITERIA[1:])
    code, out, err = run_main(capsys, "acceptance")
    payload = json.loads(out)
    assert (code, payload["all_passed"]) == (1, False)
    assert [r["passed"] for r in payload["results"]].count(False) == 1
    code, out, err = run_main(capsys, "acceptance", "--format", "text")
    assert code == 1
    assert out.rstrip().endswith("FAILURES: 1")


def test_golden_fixtures_load():
    assert [name for name, _ in acceptance.CRITERIA
            if name.startswith("golden ")] \
        == ["golden " + name for name, _, _ in acceptance.GOLDEN]
    for name, _, _ in acceptance.GOLDEN:
        assert json.loads(acceptance._fixture(name)) is not None, name


@settings(max_examples=15)
@given(st.sampled_from(("zr-closed", "zr-u", "verify-thm")),
       st.lists(st.integers(1, 2), min_size=2, max_size=3),
       st.integers(0, 6))
@example("zr-closed", [2, 2, 1], 6)    # more than one batch of chunks
def test_json_output_is_dumps_bytes(command, ranks, order):
    """Streamed writing gives exactly json.dumps(payload, indent=2) + a
    newline, series written as to_json_dict would, on stdout and in
    --out, also past one batch of chunks."""
    argv = [command, "--ranks", ",".join(map(str, ranks)),
            "--max-order", str(order)]
    cfg = cli.parse_args(argv)
    want = json.dumps(cli._HANDLERS[command](cfg)[1], indent=2,
                      default=to_json_dict) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        assert cli.main(argv + ["--out", path]) == 0
        with open(path) as fh:
            assert fh.read() == want
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    assert buf.getvalue() == want


def test_unwritable_out_is_a_usage_error(capsys):
    """An --out path that cannot be opened exits 2 with one error line."""
    with tempfile.TemporaryDirectory() as tmp:
        for path in (tmp, os.path.join(tmp, "missing", "out.json"), ""):
            code, out, err = run_main(capsys, "spin", "--m", "1", "--s", "1",
                                      "--out", path)
            assert (code, out) == (2, "")
            assert err.startswith("error: cannot write --out %s: " % path)
            assert "Traceback" not in err and len(err.splitlines()) == 1


def test_closed_stdout_pipe_exits_quietly():
    """A reader that closes stdout early ends the program with status 141
    and nothing on stderr."""
    env = child_env()
    with subprocess.Popen(
            [sys.executable, "-m", "laumon", "zr-closed", "--ranks", "2,2,2",
             "--max-order", "12"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        # the output (about 700 KB) outgrows the pipe, so the program is
        # still writing when the pipe closes
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 141
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("form", ["stdout", "out"])
def test_full_device_is_an_output_error(form):
    """Output that cannot be written, on stdout or through --out, exits 2
    with one error line and no traceback, for output that fits the write
    buffer (the error shows at the flush) and output that outgrows it."""
    env = child_env()
    for line in ("spin --m 1 --s 1", "zr-closed --ranks 2,2,1 --max-order 8"):
        argv = [sys.executable, "-m", "laumon"] + line.split()
        with open("/dev/full", "w") as full:
            if form == "out":
                proc = subprocess.run(argv + ["--out", "/dev/full"],
                                      capture_output=True, env=env)
            else:
                proc = subprocess.run(argv, stdout=full,
                                      stderr=subprocess.PIPE, env=env)
        assert proc.returncode == 2, line
        assert proc.stderr.decode().splitlines() == [
            "error: cannot write output: %s" % os.strerror(errno.ENOSPC)]


def test_failed_stdout_write_is_an_output_error(tmp_path):
    """A stdout whose write fails with ENOSPC gives one error line and
    exit 2; stdout's descriptor is pointed at devnull for the flush at
    exit."""
    with open(tmp_path / "stdout", "w") as real:

        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def fileno(self):
                return real.fileno()

        err = io.StringIO()
        with contextlib.redirect_stdout(Full()), \
                contextlib.redirect_stderr(err):
            assert cli.main(["spin", "--m", "1", "--s", "1"]) == 2
        assert err.getvalue() == "error: cannot write output: %s\n" \
            % os.strerror(errno.ENOSPC)
        assert os.path.samestat(os.fstat(real.fileno()),
                                os.stat(os.devnull))


def closed_pipe():
    """The write end of a pipe whose reader has gone."""
    read, write = os.pipe()
    os.close(read)
    return os.fdopen(write, "wb")


def laumon_child(argv, stdout=subprocess.PIPE, env=None):
    """`python -m laumon ARGV` run to its end, stdout and stderr as bytes."""
    return subprocess.run([sys.executable, "-m", "laumon"] + argv,
                          stdout=stdout, stderr=subprocess.PIPE,
                          env=env or child_env())


@pytest.mark.parametrize("argv", [["--help"], ["zr-closed", "--help"]],
                         ids=["top", "command"])
def test_help_to_a_closed_pipe_exits_quietly(argv):
    """Help whose reader has gone exits 141 with nothing on stderr, as
    command output does."""
    with closed_pipe() as pipe:
        proc = laumon_child(argv, stdout=pipe)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["zr-closed", "--help"]],
                         ids=["top", "command"])
def test_help_to_a_full_device_is_an_output_error(argv):
    """Help that cannot be written exits 2 with one error line and no
    traceback, as command output does."""
    with open("/dev/full", "w") as full:
        proc = laumon_child(argv, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == [
        "error: cannot write output: %s" % os.strerror(errno.ENOSPC)]


@pytest.mark.parametrize("argv", [["--help"], ["spin", "--m", "1", "--s", "1"]],
                         ids=["help", "command"])
def test_closed_stdout_descriptor_is_an_output_error(argv):
    """A process started with descriptor 1 closed has no stdout to write
    to: exit 2 with one error line."""
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m laumon "$@" >&-',
                           sys.executable] + argv,
                          capture_output=True, env=child_env())
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == [
        "error: cannot write output: %s" % os.strerror(errno.EBADF)]


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("line", [
    # about 700 KB, more than a pipe holds
    "zr-closed --ranks 2,2,2 --max-order 12",
    "zr-closed --ranks 2,2,2 --max-order 12 --out {out}",
    "zr-closed --ranks 2,2,2 --max-order 12 --format text",
    "zr-closed --ranks 2,2,2 --max-order -1",
], ids=["stdout", "out", "text", "usage-error"])
def test_process_exit_loses_no_bytes(capsys, tmp_path, line, buffered):
    """A `python -m laumon` process, which ends without interpreter
    teardown, writes the stdout, --out file, stderr and exit code of
    `cli.main` in process."""
    outs = [tmp_path / "child.out", tmp_path / "main.out"]
    proc = laumon_child(line.format(out=outs[0]).split(),
                        env=child_env(buffered))
    code, out, err = run_main(capsys, *line.format(out=outs[1]).split())
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) \
        == (code, out.encode(), err)
    if "{out}" in line:
        assert outs[0].read_bytes() == outs[1].read_bytes() != b""


CRASH_CHILD = """
from laumon import cli


def crash(cfg):
    raise RuntimeError("bad handler")


cli._HANDLERS["spin"] = crash
cli.entry(["spin", "--m", "1", "--s", "1"])
"""


def test_process_exit_keeps_internal_error_code():
    """A handler that raises ends the process with exit 3 and its
    traceback on stderr."""
    proc = subprocess.run([sys.executable, "-c", CRASH_CHILD],
                          capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("Traceback (most recent call last):")
    assert proc.stderr.endswith("RuntimeError: bad handler\n")


@pytest.mark.parametrize("argv, code", [
    (["-m", "laumon", "spin", "--m", "1", "--s", "1", "--bad"], 2),
    (["-m", "laumon", "zr-closed", "--ranks", "1", "--max-order", "2"], 2),
    (["-c", CRASH_CHILD], 3),
], ids=["usage-error", "value-error", "internal-error"])
def test_closed_stderr_descriptor_keeps_the_exit_code(argv, code):
    """A process started with descriptor 2 closed cannot report its error
    but still exits with its code: 2 for a usage error or a rejected
    value, 3 for an internal error."""
    proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" 2>&-',
                           sys.executable] + argv,
                          stdout=subprocess.PIPE, env=child_env())
    assert (proc.returncode, proc.stdout) == (code, b"")


@pytest.mark.parametrize("argv, lines", [
    (["spin", "--m", "1", "--s", "1", "--bad"], 2),
    (["zr-closed", "--ranks", "1"], 1),
], ids=["usage-error", "value-error"])
def test_error_report_is_one_stderr_write(argv, lines):
    """The usage line and the error line reach stderr in one write."""
    writes = []

    class Err(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    with contextlib.redirect_stderr(Err()):
        assert cli.main(argv) == 2
    assert len(writes) == 1 and writes[0].count("\n") == lines
    assert "error: " in writes[0]


PENDING_CHILD = """
import sys

from laumon import cli

sys.stdout.write("pending")
cli.entry(sys.argv[1:])
"""


def pending_child(tmp_path, stdout=subprocess.PIPE):
    """PENDING_CHILD with stdout block-buffered, running a command whose
    output goes to a file."""
    return subprocess.run(
        [sys.executable, "-c", PENDING_CHILD, "spin", "--m", "1", "--s", "1",
         "--out", str(tmp_path / "out.json")],
        stdout=stdout, stderr=subprocess.PIPE, env=child_env(buffered=True))


def test_process_exit_flushes_stdout(tmp_path):
    """Output still buffered in stdout when the command ends is written
    before the process ends."""
    proc = pending_child(tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"pending", b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_process_exit_reports_a_failed_flush(tmp_path):
    """A stdout that fails at the last flush gives the exit code and
    stderr of a command whose own output fails: 141 and nothing for a
    closed pipe, 2 and one error line for a full device."""
    with closed_pipe() as pipe:
        proc = pending_child(tmp_path, stdout=pipe)
    assert (proc.returncode, proc.stderr) == (141, b"")
    with open("/dev/full", "wb") as full:
        proc = pending_child(tmp_path, stdout=full)
    assert (proc.returncode, proc.stderr.decode()) == (
        2, "error: cannot write output: %s\n" % os.strerror(errno.ENOSPC))


ATEXIT_CHILD = """
import atexit
import sys

from laumon import cli

atexit.register(lambda: open(sys.argv[1], "w").close())
cli.entry(["spin", "--m", "1", "--s", "1"])
"""


def test_process_exit_runs_atexit_handlers(tmp_path):
    """Handlers registered with atexit run before the process ends."""
    marker = tmp_path / "marker"
    proc = subprocess.run([sys.executable, "-c", ATEXIT_CHILD, str(marker)],
                          capture_output=True, env=child_env())
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert marker.exists()


def test_appendixB_ell_2_exit_2(capsys):
    code, out, err = run_main(capsys, "verify-appendixB", "--ranks", "1,1")
    assert (code, out) == (2, "")
    assert "no off-diagonal factors" in err


def test_json_mode_renders_no_text(capsys, monkeypatch):
    """JSON output is written from the result itself: no text rendering
    and no intermediate term dicts."""
    def boom(*args):
        raise AssertionError("called in JSON mode")
    monkeypatch.setattr(series, "render_text", boom)
    monkeypatch.setattr(series, "to_json_dict", boom)
    for argv in (("zr-closed", "--ranks", "2,1"),
                 ("characters", "--m", "1,1", "--s", "1,2", "--max-order", "2"),
                 ("verma-denominator", "--size", "2")):
        code, out, err = run_main(capsys, *argv)
        assert code == 0, argv
        assert json.loads(out)
