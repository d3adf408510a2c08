import argparse
import contextlib
import errno
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laumon import (acceptance, characters, cli, localization, partitions,
                    series)
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
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-c", STARTUP_CHILD] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout
    loaded = set(proc.stderr.split())
    assert "laumon.cli" in loaded
    assert not loaded & {"argparse", "json", "laumon.characters",
                         "laumon.acceptance"}


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


def test_verify_appendixA_text_names_first_failure(capsys, monkeypatch):
    """A failing box-count check prints its first failure record, the
    first entry of the JSON report's `failures`."""
    real = partitions.box_count_table

    def skewed(mu, ell):
        n1_geq, n1_gt, n2_geq = real(mu, ell)
        return n1_geq, n1_gt, [x + 1 for x in n2_geq]
    monkeypatch.setattr(partitions, "box_count_table", skewed)
    code, out, err = run_main(capsys, "verify-appendixA", "--max-order", "1",
                              "--format", "text")
    assert code == 1
    assert out == ("box-count bijections: FAIL\n"
                   "  inputs: max_order=1\n"
                   "  cases checked: 48\n"
                   '  first failure: {"mu": [], "ell": 2, "c": -1, '
                   '"n1_geq": 0, "n2_geq": 1, "n1_gt": 0}\n')
    code, out, err = run_main(capsys, "verify-appendixA", "--max-order", "1")
    assert json.loads(out)["failures"][0] == {
        "mu": [], "ell": 2, "c": -1, "n1_geq": 0, "n2_geq": 1, "n1_gt": 0}


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
    tangent = localization.tangent_character
    monkeypatch.setattr(localization, "tangent_character",
                        lambda fp, r: calls.append(fp) or tangent(fp, r))

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
    # the bytes printed when each diagram was a validated object
    "fixed-points": (
        "fixed-points --ranks 2,2,1 --n 2,2,2",
        {"json": "c3668686c81011451208d3b930ba3ae984bad0645e5ccdd23e208bdb81960af2",
         "text": "d439fa0b1e7af5095aae61f7d59866bf4413b70963e6b838372e273bae6d058d"}),
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
    # the bytes printed when criterion 4 also compared the one-block
    # W-character with Z itself, the comparison verify_WZ makes on BLOCKS[0]
    "acceptance": (
        "acceptance",
        {"json": "77dddbeb80c1cd120e99d11ca9fa8c31ef3f79564d393f0d1310f06752c1ca07",
         "text": "3cd6dddd5a061db9c64ad8c6c1a00ae006c1c66b3cb767f29f175a6e4d818f4e"}),
    # the bytes printed when the partition sum lived in its own (v, X)
    # space and its product side called series.expand directly, with the
    # report's inputs (max_order) added since
    "verify-lemma32": (
        "verify-lemma32 --max-order 6",
        {"json": "4a294709cd461ac661d177f871b00912030b23777a35ae8000f03441b0e1cb41",
         "text": "ad29de17537e5075770658b154cd2aadb534ec0d23892099b4ff80ebb17bdcb5"}),
}


@pytest.mark.parametrize("line, digests", PINNED_OUTPUTS.values(),
                         ids=PINNED_OUTPUTS.keys())
def test_output_pinned(line, digests):
    """The command prints the bytes of an earlier implementation (sha256,
    JSON and text)."""
    for fmt, digest in digests.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(line.split() + ["--format", fmt]) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


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
        assert acceptance.load_golden(name) is not None, name


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
        for path in (tmp, os.path.join(tmp, "missing", "out.json")):
            code, out, err = run_main(capsys, "spin", "--m", "1", "--s", "1",
                                      "--out", path)
            assert (code, out) == (2, "")
            assert err.startswith("error: cannot write --out %s: " % path)
            assert "Traceback" not in err and len(err.splitlines()) == 1


def test_closed_stdout_pipe_exits_quietly():
    """A reader that closes stdout early ends the program with status 141
    and nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "laumon", "zr-closed", "--ranks", "2,2,2",
         "--max-order", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # the output (about 700 KB) outgrows the pipe, so the program is still
    # writing when the pipe closes
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
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), os.pardir, "src"))
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
