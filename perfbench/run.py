"""Benchmark driver for laumon.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout.  Each pass runs a workload's ops one at
a time, each a fresh `python -m laumon ...` child with default JSON
output, and checks every output against perfbench/references.json.
Passes repeat until --seconds have gone (at least MIN_PASSES of them), each
with one `laumon --help` set-up probe; a calibration child between passes
scales set-up and CPU times to a reference speed (see scale_to_reference).
Times are medians over passes.
--trace 1 runs half the time untraced and half in process under the
per-layer wrappers of tracing.py, and reports the per-layer metrics.
The last line of stdout is the result as one JSON object; a per-pass
record goes to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from refs import EXPENSIVE, KNOWN_DEFECTS, coverage, expected_output
from workloads import WORKLOADS, all_command_lines, is_verify, ops_for

ROOT = Path(__file__).resolve().parents[1]
REFS = Path(__file__).resolve().parent / "references.json"
SPEC = ROOT / "BENCHMARK.json"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 5
CALIBRATION_CODE = ("d = {}\n"
                    "for i in range(60000):\n"
                    "    k = (i % 301, i % 7)\n"
                    "    d[k] = d.get(k, 0) + i * i\n")
CALIBRATION_REF_S = 0.1
IMPORT_RUNS = 5
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import laumon.cli; "
                "print(time.perf_counter() - t0)")
COMMANDS = sorted({line.split()[0] for line in all_command_lines()})


def child_env():
    """The environment of every op child: this one with src importable and
    without LAUMON_THREADS, so the program uses its default parallelism,
    or PYTHONDONTWRITEBYTECODE, so the warm-up run leaves compiled modules
    that later children load, as an installed package has."""
    env = dict(os.environ)
    env.pop("LAUMON_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """Run one command through launch.py: (exit code, stdout, stderr,
    wall s, user+sys CPU s, peak RSS MB), all of the command itself."""
    r, w = os.pipe()
    try:
        proc = subprocess.Popen([sys.executable, "-S", "-I", str(LAUNCHER), str(w)]
                                + argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, cwd=ROOT,
                                pass_fds=(w,))
    finally:
        os.close(w)
    out, err = proc.communicate()
    with os.fdopen(r, "rb") as fh:
        report = fh.read().split()
    if proc.returncode != 0 or len(report) != 4:
        raise RuntimeError("launching %s failed: %s"
                           % (" ".join(argv), err.decode(errors="replace")))
    code, wall, cpu, rss_kb = report
    return int(code), out, err, float(wall), float(cpu), int(rss_kb) / 1024


def laumon_argv(args):
    return [sys.executable, "-m", "laumon"] + list(args)


class Checker:
    """Judges op outputs against the stored references."""

    def __init__(self, refs):
        self.refs = refs
        self.covered = {}     # verify op line -> coefficients covered
        self.uncovered = set()  # verify op lines that cover too little
        self.reasons = {}     # op line -> why it failed (first reason)
        self.known = {}       # op line -> how its known defect shows

    def check(self, args, code, out):
        line = " ".join(args)
        ref = self.refs[line]
        if code != ref["exit"]:
            return self._fail(line, "exit code %d, expected %d" % (code, ref["exit"]))
        if not is_verify(args):
            digest = hashlib.sha256(out).hexdigest()
            if digest == KNOWN_DEFECTS.get(line):
                self.known.setdefault(line, "output differs from the reference")
                return True
            if digest != ref["sha256"]:
                return self._fail(line, "output differs from the reference")
            return True
        try:
            report = json.loads(out)
            passed = report["equal"] if "equal" in report else report["all_passed"]
        except (ValueError, KeyError):
            return self._fail(line, "output is not a verify report")
        if bool(passed) != (code == 0):
            return self._fail(line, "report and exit code disagree")
        return True

    def _fail(self, line, reason):
        self.reasons.setdefault(line, reason)
        return False

    def measure_coverage(self, mods, ops):
        """Run every verify op once in process and record what it covers;
        an op that covers fewer coefficients than its reference fails on
        every attempt."""
        for args in ops:
            line = " ".join(args)
            if not is_verify(args) or line in self.covered:
                continue
            try:
                _, covered = coverage(mods, args)
            except Exception as e:  # a crash in the program covers nothing
                covered = 0
                self._fail(line, "in-process run raised %r" % (e,))
            self.covered[line] = covered
            want = self.refs[line]["covered"]
            if covered < want:
                self.uncovered.add(line)
                self._fail(line, "covers %d coefficients, reference covers %d"
                           % (covered, want))

    def diagnose(self, mods):
        """Locate the first differing coefficient of each mismatched compute
        output, known defects included, whose reference is cheap to rebuild."""
        for found in (self.reasons, self.known):
            for line, reason in list(found.items()):
                args = line.split()
                if (reason != "output differs from the reference"
                        or args[0] in EXPENSIVE):
                    continue
                _, got = tracing.run_inprocess(mods["cli"], args)
                want = expected_output(mods, args)
                found[line] = reason + ": " + first_difference(
                    json.loads(got), json.loads(want))


def first_difference(got, want):
    """Where two JSON outputs differ: for series, the number of differing
    coefficients and the first one in canonical order."""
    if not ("terms" in got and "terms" in want
            and got["variables"] == want["variables"]):
        return "not comparable as series"
    names = got["variables"]

    def coeffs(d):
        return {tuple(t["exp"].get(n, 0) for n in names): int(t["coeff"])
                for t in d["terms"]}

    g, w = coeffs(got), coeffs(want)
    diff = sorted((m for m in g.keys() | w.keys() if g.get(m, 0) != w.get(m, 0)),
                  reverse=True)
    if not diff:
        return "same coefficients, different bytes"
    m = diff[0]
    mono = "*".join(n if e == 1 else "%s^%d" % (n, e)
                    for n, e in zip(names, m) if e) or "1"
    return ("%d coefficients differ; first %s: got %d, want %d"
            % (len(diff), mono, g.get(m, 0), w.get(m, 0)))


def calibrate(env):
    """CPU seconds (user + sys) of a fresh interpreter running a fixed loop
    over a dict with tuple keys and growing ints, as the program's kernels
    do: CALIBRATION_REF_S at the reference speed."""
    return run_child([sys.executable, "-c", CALIBRATION_CODE], env)[4]


def scale_to_reference(passes, calib):
    """Scale each pass's set-up and CPU times to the reference speed.

    The host's speed drifts by up to a factor of two in phases of seconds
    to minutes, and an op's CPU time drifts with it.  calib[i] and
    calib[i + 1] are the calibrations run just before and after pass i;
    `setup_s` and `cpu_s` become times at the reference speed, and
    `raw_setup_s` and `raw_cpu_s` keep them as measured."""
    for p, before, after in zip(passes, calib, calib[1:]):
        p["calib_s"] = (before + after) / 2
        for name in ("setup_s", "cpu_s"):
            p["raw_" + name] = p[name]
            p[name] *= CALIBRATION_REF_S / p["calib_s"]


def untraced_pass(ops, env, checker, attempts):
    """One pass: a `laumon --help` set-up probe, then the ops, each a child.
    Times are as measured; the pass wall time is the sum of the ops' own
    wall times, so it leaves out the benchmark's work between ops."""
    p = {"setup_s": run_child(laumon_argv(["--help"]), env)[3], "wall_s": 0.0,
         "cpu_s": 0.0, "peak_rss_mb": 0.0, "op_wall": dict.fromkeys(COMMANDS, 0.0)}
    for args in ops:
        code, out, _, took, used, peak = run_child(laumon_argv(args), env)
        attempts.append((" ".join(args), checker.check(args, code, out)))
        p["wall_s"] += took
        p["cpu_s"] += used
        p["peak_rss_mb"] = max(p["peak_rss_mb"], peak)
        p["op_wall"][args[0]] += took
    return p


def traced_passes(mods, ops, budget, checker, attempts):
    """In-process passes under the wrappers, for `budget` seconds: (pass
    walls, per-pass layer metrics, per-pass self times by stat key, spans
    of the last pass)."""
    walls, layer, self_times = [], [], []
    with tracing.Tracer(mods) as tracer:
        tracer.take()
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < budget:
            tracer.spans = []
            results = []
            t0 = time.perf_counter()
            for args in ops:
                results.append((args,) + tracer.run_op(args))
            walls.append(time.perf_counter() - t0)
            for args, code, out in results:
                attempts.append((" ".join(args), checker.check(args, code, out)))
            stats, counts = tracer.take()
            layer.append(tracing.layer_metrics(stats, counts))
            self_times.append(tracing.self_times(stats))
        spans = [list(s) for s in tracer.spans]
    return walls, layer, self_times, spans


def medians(rows):
    keys = {k: None for r in rows for k in r}
    return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in keys}


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns the record written to .bench_out."""
    refs = json.loads(REFS.read_text())["ops"]
    ops = ops_for(workload, seed)
    missing = [" ".join(a) for a in ops if " ".join(a) not in refs]
    if missing:
        raise RuntimeError("no reference for: %s" % "; ".join(missing))
    env = child_env()
    checker = Checker(refs)
    attempts = []

    warm = run_child(laumon_argv(["--help"]), env)    # also compiles bytecode
    if warm[0] != 0:
        raise RuntimeError("laumon --help failed: %s"
                           % warm[2].decode(errors="replace"))

    # one set-up probe in each pass, so that set-up time is sampled across
    # the run as the ops are, and a calibration between passes
    budget = seconds / 2 if trace else seconds
    passes, calib = [], [calibrate(env)]
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < budget:
        passes.append(untraced_pass(ops, env, checker, attempts))
        calib.append(calibrate(env))
    scale_to_reference(passes, calib)
    walls = [p["wall_s"] for p in passes]

    mods = tracing.load_laumon(ROOT)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "child_env": {k: v for k, v in env.items()
                            if k.startswith(("PYTHON", "LAUMON"))},
              "ops": [" ".join(a) for a in ops]}
    if trace:
        traced, layer, self_times, spans = traced_passes(mods, ops, budget,
                                                         checker, attempts)
        import_s = [float(run_child([sys.executable, "-c", IMPORT_PROBE], env)[1])
                    for _ in range(IMPORT_RUNS)]
        metrics = medians(layer)
        metrics["cli.import_s"] = statistics.median(import_s)
        metrics.update(("op.%s.wall_s" % cmd,
                        statistics.median(p["op_wall"][cmd] for p in passes))
                       for cmd in COMMANDS)
        metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                           / statistics.median(walls))
        own = medians(self_times)
        record["self_s"] = dict(sorted(own.items(), key=lambda kv: -kv[1]))
        record["layer_self_share"] = tracing.layer_shares(own)
        record["samples"] = {"untraced_wall_s": walls, "traced_wall_s": traced,
                             "cli.import_s": import_s}
        record["n"] = {k: len(import_s) if k == "cli.import_s" else
                       len(walls) if k.startswith("op.") else len(traced)
                       for k in metrics}
        record["spans"] = spans
    else:
        names = ("cpu_s", "setup_s", "peak_rss_mb", "wall_s", "raw_cpu_s",
                 "raw_setup_s", "calib_s")
        record["samples"] = {k: [p[k] for p in passes] for k in names}
        metrics = {k: statistics.median(v) for k, v in record["samples"].items()}
        record["n"] = {k: len(v) for k, v in record["samples"].items()}

    checker.measure_coverage(mods, ops)
    checker.diagnose(mods)
    record["attempted"] = len(attempts)
    record["failed"] = sum(1 for line, ok in attempts
                           if not ok or line in checker.uncovered)
    record["failures"] = checker.reasons
    record["known_defects"] = checker.known
    record["covered"] = checker.covered
    record["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (workload, seed, trace)
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("yield", "ratio")):
        return "1"
    if name.endswith("bytes"):
        return "B"
    return "count"


def summary_lines(record):
    """Human-readable lines: every metric by name with unit and sample count."""
    lines = ["workload %s  seed %d  trace %d  python %s  nproc %s  child env %s"
             % (record["workload"], record["seed"], record["trace"], record["python"],
                record["nproc"], json.dumps(record["child_env"], sort_keys=True))]
    lines += ["  op: " + op for op in record["ops"]]
    for name, value in record["metrics"].items():
        lines.append("  %-34s %14.6f %-5s n=%d"
                     % (name, value, unit_of(name), record["n"][name]))
    attempted, failed = record["attempted"], record["failed"]
    lines.append("  %-34s %14.6f %-5s %d of %d ops failed"
                 % ("fail_ratio", failed / attempted, "1", failed, attempted))
    for line, reason in record["failures"].items():
        lines.append("  FAILED %s: %s" % (line, reason))
    for line, reason in record["known_defects"].items():
        lines.append("  KNOWN DEFECT %s: %s (the program's known wrong output; "
                     "not counted as failed)" % (line, reason))
    if "self_s" in record:
        total = sum(record["self_s"].values())
        lines.append("  self time %.3f s in wrapped code; by layer: " % total + ", ".join(
            "%s %.1f%%" % (k, 100 * v) for k, v in record["layer_self_share"].items()))
        lines.append("  largest: " + ", ".join(
            "%s %.1f%%" % (k, 100 * v / total)
            for k, v in list(record["self_s"].items())[:5]))
    return lines


def result_json(record, spec):
    """The result line: the metrics BENCHMARK.json declares for this kind
    of run, end-to-end ones untraced and per-layer ones traced."""
    declared = spec["per_layer" if record["trace"] else "end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cfg = ap.parse_args(argv)
    if not (ROOT / "src" / "laumon" / "cli.py").is_file():
        print("error: no laumon sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if not REFS.is_file():
        print("error: %s is missing; build it with perfbench/refs.py" % REFS.name,
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    os.environ.pop("LAUMON_THREADS", None)    # for the ops run in process
    names = list(WORKLOADS) if cfg.workload == "all" else [cfg.workload]
    for name in names:
        record = run_workload(name, cfg.seed, cfg.seconds, cfg.trace)
        print("\n".join(summary_lines(record)))
        print(result_json(record, spec), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
