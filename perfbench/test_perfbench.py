"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import hashlib
import json
import subprocess
from collections import Counter

import pytest

import run
import refs
import tracing
from workloads import WORKLOADS, all_command_lines, ops_for

MODS = tracing.load_laumon(run.ROOT)
REFS = json.loads(run.REFS.read_text())["ops"]


def test_every_seed_has_references():
    assert set(all_command_lines()) <= set(REFS)
    for workload in WORKLOADS:
        for seed in range(20):
            assert ops_for(workload, seed) == ops_for(workload, seed)
            assert all(" ".join(a) in REFS for a in ops_for(workload, seed))


def test_verify_references_cover_something():
    assert all(r["covered"] > 0 for r in REFS.values() if "covered" in r)


def test_corrupted_output_fails_the_op():
    args = "morse --ranks 2,2,1 --n 2,2,2".split()
    code, out = tracing.run_inprocess(MODS["cli"], args)
    checker = run.Checker(REFS)
    assert checker.check(args, code, out)
    bad = out.replace(b'"formula": 4', b'"formula": 5', 1)
    assert bad != out
    assert not checker.check(args, code, bad)
    assert "differs" in checker.reasons[" ".join(args)]


def test_known_defect_passes_only_with_its_exact_output(monkeypatch):
    args = "tangent --ranks 2,1 --n 3,3".split()
    line = " ".join(args)
    good, known, other = b'{"a": 1}', b'{"a": 2}', b'{"a": 3}'
    monkeypatch.setitem(run.KNOWN_DEFECTS, line, hashlib.sha256(known).hexdigest())
    checker = run.Checker({line: {"exit": 0,
                                  "sha256": hashlib.sha256(good).hexdigest()}})
    assert checker.check(args, 0, good) and not checker.known
    assert checker.check(args, 0, known) and line in checker.known
    assert line not in checker.reasons
    assert not checker.check(args, 0, other)
    assert "differs" in checker.reasons[line]


def test_known_defects_are_ops_of_a_workload():
    assert set(refs.KNOWN_DEFECTS) <= set(all_command_lines())


def test_calibration_scales_each_pass():
    ref = run.CALIBRATION_REF_S
    passes = [{"setup_s": 0.1, "cpu_s": 1.0}, {"setup_s": 0.2, "cpu_s": 3.0}]
    run.scale_to_reference(passes, [ref, 3 * ref, ref / 2])
    assert passes[0] == pytest.approx({"setup_s": 0.05, "cpu_s": 0.5,
                                       "raw_setup_s": 0.1, "raw_cpu_s": 1.0,
                                       "calib_s": 2 * ref})
    assert passes[1]["cpu_s"] == pytest.approx(3.0 / 1.75)
    assert 0 < run.calibrate(run.child_env()) < 20 * ref


def test_vacuous_verify_fails_the_op():
    # exits 0 and reports PASS after checking no partition at all
    args = "verify-appendixA --max-order -3".split()
    code, out = tracing.run_inprocess(MODS["cli"], args)
    assert code == 0 and json.loads(out)["equal"]
    checker = run.Checker({" ".join(args): {"exit": 0, "covered": 1}})
    assert checker.check(args, code, out)
    checker.measure_coverage(MODS, [args])
    assert checker.covered[" ".join(args)] == 0
    assert " ".join(args) in checker.uncovered


def _bindings():
    out = {}
    for name, mod in MODS.items():
        out.update(((name, k), v) for k, v in vars(mod).items())
    for cls in (MODS["series"].Series, MODS["localization"].FixedPoint):
        out.update(((cls.__name__, k), v) for k, v in vars(cls).items())
    out.update((("_HANDLERS", k), v) for k, v in MODS["cli"]._HANDLERS.items())
    return out


def test_tracer_restores_the_originals():
    before = _bindings()
    with tracing.Tracer(MODS):
        during = _bindings()
        assert during[("closed_form", "pochhammer_inverse")] \
            is not before[("closed_form", "pochhammer_inverse")]
        assert during[("Series", "__mul__")] is not before[("Series", "__mul__")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("line", [
    "verify-thm --ranks 2,1 --max-order 5",
    "zr-closed --ranks 2,1,1 --max-order 5",
    "verma-denominator --size 3 --max-order 6 --v-cap 4",
    "characters --m 1,2 --s 1,2 --max-order 4",
    "morse --ranks 2,1 --n 2,2",
    "acceptance",
])
def test_traced_output_is_byte_identical(line):
    args = line.split()
    proc = subprocess.run(run.laumon_argv(args), capture_output=True,
                          env=run.child_env(), cwd=run.ROOT)
    with tracing.Tracer(MODS) as tracer:
        code, out = tracer.run_op(args)
        stats, counts = tracer.take()
    assert (code, out) == (proc.returncode, proc.stdout)
    assert counts["cli.output_bytes"] == len(out)
    assert stats["cli.parse"][0] == 1


def test_traced_counts_are_exact():
    args = "verify-thm --ranks 2,1 --max-order 6".split()
    seen = []
    for _ in range(2):
        with tracing.Tracer(MODS) as tracer:
            tracer.run_op(args)
            stats, counts = tracer.take()
        m = tracing.layer_metrics(stats, counts)
        seen.append({k: v for k, v in m.items() if not k.endswith(("_s", ".s"))})
    assert seen[0] == seen[1]
    sizes = sum(len(MODS["localization"].fixed_points_of_size((2, 1), n))
                for n in range(7))
    assert seen[0]["localization.fixed_points"] == sizes
    assert seen[0]["series.mul.terms_out"] <= seen[0]["series.mul.pairs"]


def test_division_kernel_matches_the_product_kernel():
    sr = MODS["series"]
    space = sr.canonical_space(3, 6)
    bases = [space.mono(q0=1, y=-2), space.mono(q1=1, q2=1), space.mono(q2=2, y=4)]
    step = space.mono(q0=1, q1=1, q2=1)
    want = sr.Series.one(space)
    for b in bases:
        want = want * sr.pochhammer_inverse(space, b, step)
    assert refs.divide_by_families(space, bases, step) == want.terms


def test_peak_rss_is_the_op_own():
    ballast = bytearray(64 * 2 ** 20)    # the driver's memory must not show
    ballast[::4096] = b"x" * len(ballast[::4096])
    code, out, _, wall, cpu, rss = run.run_child(run.laumon_argv(["--help"]),
                                                 run.child_env())
    assert code == 0 and out.startswith(b"usage: laumon")
    assert 0 < cpu and 0 < wall and 5 < rss < 48


def test_first_difference_names_the_coefficient():
    got = {"variables": ["z", "v1"], "terms": [{"exp": {"z": 1}, "coeff": "3"},
                                               {"exp": {"v1": 1}, "coeff": "1"}]}
    want = {"variables": ["z", "v1"], "terms": [{"exp": {"z": 1}, "coeff": "4"}]}
    assert run.first_difference(got, want) == \
        "2 coefficients differ; first z: got 3, want 4"


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(name, w["why"]) for name, w in WORKLOADS.items()]
    layer = set(tracing.layer_metrics({}, Counter()))
    layer |= {"cli.import_s", "trace.overhead_ratio"}
    layer |= {"op.%s.wall_s" % c for c in run.COMMANDS}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {m["name"] for m in spec["end_to_end"]} == {"cpu_s", "setup_s", "peak_rss_mb"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_refuses_to_run_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", run.ROOT / "no-such-checkout")
    argv = ["--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""
