"""Per-layer tracing of laumon, installed from the benchmark's own files.

A Tracer rebinds public functions of laumon's modules to wrappers that
count calls and time them, in every module of the package that bound the
original by name, and puts the originals back on close.  Times are taken
on each thread's CPU clock: a localization pool thread waiting for the
interpreter lock is not charged to the layer it waits in, and the self
times of all threads add up to the CPU time spent in wrapped code.
Hot, tiny functions get a count and a total; the calls that enter a layer
also leave one span each, kept in memory until the benchmark writes them.
"""

import contextlib
import io
import itertools
import sys
import threading
import time
from collections import Counter

MODULES = ("series", "partitions", "localization", "closed_form",
           "characters", "cli")

# (module, attribute, stat key, hook).  A hook adds counts after a call;
# "count" means the call is counted but not timed.
TARGETS = (
    ("series", "Series.__mul__", "series.mul", "mul"),
    ("series", "pochhammer_inverse", "series.pochhammer", "pochhammer"),
    ("series", "geometric_inverse", "series.geometric", None),
    ("series", "substitute", "series.substitute", None),
    ("series", "Series.restrict", "series.restrict", None),
    ("series", "series_diff_report", "series.diff", "diff"),
    ("series", "to_json_dict", "series.json_encode", None),
    ("series", "from_json_dict", "series.json_decode", None),
    ("series", "render_text", "cli.render_text", None),
    ("partitions", "enumerate_partitions", "partitions.enumerate", "enumerate"),
    ("partitions", "colored_counts", "partitions.colored_counts", None),
    ("partitions", "count_N1_geq", "partitions.box_counts", None),
    ("partitions", "count_N1_gt", "partitions.box_counts", None),
    ("partitions", "count_N2_geq", "partitions.box_counts", None),
    ("localization", "brute_force_Z", "localization.brute", None),
    ("localization", "FixedPoint.__init__", "localization.fixed_points", "count"),
    ("localization", "check_ranks", "localization.check_ranks", None),
    ("localization", "sector_index", "localization.sector_index", "count"),
    ("localization", "morse_index_formula", "localization.morse_formula", None),
    ("localization", "FixedPoint.occupation", "localization.occupation", None),
    ("localization", "tangent_character", "localization.tangent", None),
    ("localization", "morse_index_oracle", "localization.morse_oracle", None),
    ("closed_form", "theorem_Z", "closed_form.product", None),
    ("closed_form", "theorem_Z_u", "closed_form.product", None),
    ("closed_form", "verify_appendixB", "closed_form.product", None),
    ("closed_form", "verify_partition_identity", "closed_form.product", None),
    ("characters", "expand_factors", "characters.expand", "expand"),
    ("characters", "affine_verma_denominator", "characters.verma", None),
    ("characters", "x_i_unrefined_zu", "characters.verma", None),
    ("cli", "parse_args", "cli.parse", None),
    ("cli", "run", "cli.run", None),
)

# Keys whose calls each leave a span; the rest are only aggregated.
SPAN_KEYS = frozenset((
    "cli.parse", "cli.run", "cli.handler", "localization.brute",
    "localization.tangent", "localization.morse_oracle", "closed_form.product",
    "characters.expand", "characters.verma", "series.diff",
    "series.substitute", "series.json_encode", "series.json_decode"))

LAYERS = ("series", "partitions", "localization", "closed_form", "characters",
          "cli")


def load_laumon(root):
    """Import the laumon package from `root`/src; returns {name: module}."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import importlib
    return {name: importlib.import_module("laumon." + name) for name in MODULES}


def run_inprocess(cli, args):
    """Run one command through laumon's own entry point; (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue().encode()


class _ThreadState:
    __slots__ = ("stack", "spans", "stats", "counts")

    def __init__(self):
        self.stack = []      # [key, child seconds] per active wrapped call
        self.spans = []      # ids of active span-keeping calls
        self.stats = {}      # key -> [calls, total seconds, self seconds]
        self.counts = Counter()


class Tracer:
    """Wraps laumon's layers while open; `keys` limits which stat keys."""

    def __init__(self, mods, keys=None):
        self.mods = mods
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._t0 = time.perf_counter()
        self.op_id = None
        self.spans = []      # (id, parent id, key, start, end), seconds
        self._restore = []
        for mod, attr, key, hook in TARGETS:
            if keys is None or key in keys:
                self._install(mods[mod], attr, key, hook)
        if keys is None or "cli.handler" in keys:
            handlers = mods["cli"]._HANDLERS
            for name, fn in list(handlers.items()):
                self._restore.append((handlers, name, fn, True))
                handlers[name] = self._wrap(fn, "cli.handler", None)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        """Put every original object back where it was bound."""
        for owner, name, orig, is_dict in reversed(self._restore):
            if is_dict:
                owner[name] = orig
            else:
                setattr(owner, name, orig)
        self._restore = []

    def _install(self, module, attr, key, hook):
        if "." in attr:
            cls_name, name = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[name]
            self._restore.append((cls, name, orig, False))
            setattr(cls, name, self._wrap(orig, key, hook))
            return
        orig = getattr(module, attr)
        wrapper = self._wrap(orig, key, hook)
        for mod in self.mods.values():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, name, orig, False))
                    setattr(mod, name, wrapper)

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, fn, key, hook):
        state = self._state
        if hook == "count":
            def counted(*args, **kw):
                state().counts[key] += 1
                return fn(*args, **kw)
            return counted
        hook_fn = getattr(self, "_on_" + hook) if hook else None
        keep_span = key in SPAN_KEYS
        clock = time.thread_time

        def wrapper(*args, **kw):
            st = state()
            if keep_span:
                span = self._open_span(st)
            frame = [key, 0.0]
            st.stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                dt = clock() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1][1] += dt
                s = st.stats.get(key)
                if s is None:
                    s = st.stats[key] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]
                if keep_span:
                    self._close_span(st, span, key)
            if hook_fn is not None:
                t1 = clock()
                hook_fn(st, args, out)
                if st.stack:    # keep the hook's own cost out of the caller's self time
                    st.stack[-1][1] += clock() - t1
            return out
        return wrapper

    def _open_span(self, st):
        parent = st.spans[-1] if st.spans else self.op_id
        span = (next(self._ids), parent, time.perf_counter() - self._t0)
        st.spans.append(span[0])
        return span

    def _close_span(self, st, span, key):
        st.spans.pop()
        self.spans.append((span[0], span[1], key, span[2],
                           time.perf_counter() - self._t0))

    def _on_mul(self, st, args, out):
        a, b = args
        if not isinstance(b, type(a)):
            return
        sp = a.space
        deg_b = Counter(sp.gdeg(m) for m in b.terms)
        upto, acc = [], 0
        for d in range(sp.truncation + 1):
            acc += deg_b[d]
            upto.append(acc)
        pairs = 0
        for d, n in Counter(sp.gdeg(m) for m in a.terms).items():
            if d <= sp.truncation:
                pairs += n * upto[sp.truncation - d]
        st.counts["series.mul.pairs"] += pairs
        st.counts["series.mul.terms_out"] += len(out.terms)

    def _on_diff(self, st, args, out):
        lhs, rhs = args
        st.counts["series.diff.coeffs"] += len(lhs.terms.keys() | rhs.terms.keys())

    def _on_enumerate(self, st, args, out):
        st.counts["partitions.enumerate.items"] += len(out)

    def _on_pochhammer(self, st, args, out):
        if any(frame[0] == "closed_form.product" for frame in st.stack):
            st.counts["closed_form.families"] += 1

    def _on_expand(self, st, args, out):
        st.counts["characters.factors"] += len(args[1])

    def run_op(self, args):
        """Run one command in process under an `op` span."""
        st = self._state()
        span = self._open_span(st)
        self.op_id = span[0]
        try:
            code, out = run_inprocess(self.mods["cli"], args)
        finally:
            self._close_span(st, span, "op")
            self.op_id = None
        st.counts["cli.output_bytes"] += len(out)
        return code, out

    def take(self):
        """Merged stats and counts of every thread since the last take."""
        stats, counts = {}, Counter()
        with self._lock:
            for st in self._states:
                for key, (n, total, own) in st.stats.items():
                    s = stats.setdefault(key, [0, 0.0, 0.0])
                    s[0] += n
                    s[1] += total
                    s[2] += own
                counts.update(st.counts)
                st.stats = {}
                st.counts = Counter()
        return stats, counts


def layer_metrics(stats, counts):
    """The per-layer metrics of one traced pass, by name."""
    def calls(key):
        return stats.get(key, (0, 0.0, 0.0))[0]

    def total(key):
        return stats.get(key, (0, 0.0, 0.0))[1]

    def own(key):
        return stats.get(key, (0, 0.0, 0.0))[2]

    pairs = counts["series.mul.pairs"]
    return {
        "series.mul.calls": calls("series.mul"),
        "series.mul.self_s": own("series.mul"),
        "series.mul.pairs": pairs,
        "series.mul.terms_out": counts["series.mul.terms_out"],
        "series.mul.yield": counts["series.mul.terms_out"] / pairs if pairs else 0.0,
        "series.pochhammer.calls": calls("series.pochhammer"),
        "series.pochhammer.s": total("series.pochhammer"),
        "series.geometric.calls": calls("series.geometric"),
        "series.substitute.s": total("series.substitute"),
        "series.restrict.s": total("series.restrict"),
        "series.diff.s": total("series.diff"),
        "series.diff.coeffs": counts["series.diff.coeffs"],
        "series.json.encode_s": total("series.json_encode"),
        "series.json.decode_s": total("series.json_decode"),
        "partitions.enumerate.calls": calls("partitions.enumerate"),
        "partitions.enumerate.s": total("partitions.enumerate"),
        "partitions.enumerate.items": counts["partitions.enumerate.items"],
        "partitions.colored_counts.calls": calls("partitions.colored_counts"),
        "partitions.colored_counts.s": total("partitions.colored_counts"),
        "partitions.box_counts.s": total("partitions.box_counts"),
        "localization.brute.s": total("localization.brute"),
        "localization.fixed_points": counts["localization.fixed_points"],
        "localization.check_ranks.calls": calls("localization.check_ranks"),
        "localization.check_ranks.s": total("localization.check_ranks"),
        "localization.sector_index.calls": counts["localization.sector_index"],
        "localization.morse_formula.calls": calls("localization.morse_formula"),
        "localization.morse_formula.s": total("localization.morse_formula"),
        "localization.occupation.calls": calls("localization.occupation"),
        "localization.occupation.s": total("localization.occupation"),
        "localization.tangent.s": total("localization.tangent"),
        "localization.morse_oracle.s": total("localization.morse_oracle"),
        "closed_form.product.s": total("closed_form.product"),
        "closed_form.families": counts["closed_form.families"],
        "characters.expand.s": total("characters.expand"),
        "characters.factors": counts["characters.factors"],
        "characters.verma.s": total("characters.verma"),
        "cli.parse_s": total("cli.parse"),
        "cli.render_s": own("cli.run") + total("cli.render_text"),
        "cli.output_bytes": counts["cli.output_bytes"],
    }


def self_times(stats):
    """Self seconds by stat key."""
    return {key: own for key, (_, _, own) in stats.items()}


def layer_shares(own):
    """Share of the total self time per layer, from self seconds by stat key."""
    total = sum(own.values())
    out = dict.fromkeys(LAYERS, 0.0)
    for key, seconds in own.items():
        out[key.split(".")[0]] += seconds / total if total else 0.0
    return out
