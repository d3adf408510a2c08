"""The benchmark's workloads: fixed lists of `laumon` command lines.

Each workload is run as a closed loop with one client: one op at a time,
the next op starting when the previous one has ended.  The seed picks one
cyclic rotation of every `--ranks` vector; a rotation keeps the term count
of the result but changes its cost, so compare commits only at equal seeds.
"""

import random

WORKLOADS = {
    "oracle": {
        "why": "localization sum over fixed points does almost all the work: "
               "exercises a faster oracle, bypasses the product kernel",
        "ops": [
            "verify-thm --ranks 2,2,1 --max-order 8",
            "verify-thm --ranks 2,1 --max-order 10",
            "verify-thm --ranks 1,1,1,1 --max-order 7",
            "zr-brute --ranks 2,1,1 --max-order 7",
        ],
    },
    "products": {
        "why": "uncapped product expansion and large JSON outputs, no "
               "localization: exercises the product kernel, bypasses the "
               "oracle",
        "ops": [
            "zr-closed --ranks 2,2,2 --max-order 12",
            "zr-u --ranks 3,2,1 --max-order 10",
            "verify-prop34 --ranks 3,2,1 --max-order 10",
            "verify-wz --m 1,2 --s 1,2 --max-order 8",
            "verify-appendixB --ranks 2,1,1,1 --max-order 8",
        ],
    },
    "grid": {
        "why": "many small calls: per-fixed-point data, capped (z, v) "
               "products, box-count sweeps, fixture decoding; per-call "
               "overhead",
        "ops": [
            "acceptance",
            "verma-denominator --size 3 --max-order 6 --v-cap 4",
            "characters --m 1,2 --s 1,2 --max-order 6",
            "morse --ranks 2,2,1 --n 2,2,2",
            "tangent --ranks 2,1 --n 3,3",
            "verify-appendixA --max-order 14",
            "verify-lemma32 --max-order 10",
        ],
    },
}


def is_verify(args):
    """Verify ops report PASS/FAIL; every other op computes an output."""
    return args[0] == "acceptance" or args[0].startswith("verify-")


def _rank_count(args):
    return len(args[args.index("--ranks") + 1].split(",")) if "--ranks" in args else 1


def _rotated(args, k):
    args = list(args)
    if "--ranks" in args:
        i = args.index("--ranks") + 1
        r = args[i].split(",")
        k %= len(r)
        args[i] = ",".join(r[k:] + r[:k])
    return args


def ops_for(workload, seed):
    """The workload's command lines, each `--ranks` vector rotated by an
    amount drawn from `seed`."""
    rng = random.Random(seed)
    out = []
    for line in WORKLOADS[workload]["ops"]:
        args = line.split()
        out.append(_rotated(args, rng.randrange(_rank_count(args))))
    return out


def all_command_lines():
    """Every command line any seed can produce, each once, in workload order."""
    seen = []
    for spec in WORKLOADS.values():
        for line in spec["ops"]:
            args = line.split()
            for k in range(_rank_count(args)):
                key = " ".join(_rotated(args, k))
                if key not in seen:
                    seen.append(key)
    return seen
