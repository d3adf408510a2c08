"""Sparse exact multivariate Laurent series with total-degree truncation.

A VariableSpace fixes an ordered list of variable names, the subset of
variables whose total exponent is the truncation grading, the truncation
bound, and optional per-variable caps on absolute exponents.  Caps are
only an output window: `Series.from_terms` crops to them and JSON records
them, but cropping to a cap is not a ring map, so the products (`__mul__`,
`expand`) and `substitute` refuse a capped space.

Monomials are exponent tuples aligned with the variable order.  Series
coefficients are arbitrary-precision integers; `+`, `-` and `*` take Series
of one space only.  The product kernels pack exponents into mixed-radix
integers, so a monomial product is one integer addition; tuples come back
only in the result's terms.  `expand` packs all variables but one, the
limb, whose polynomial at a key is one integer of fixed-width slots.  It
divides by each inverse Pochhammer factor (1 - m) in place, which only
adds, so no slot carries.  It also takes upper bounds on the exponents of
variables that no family lowers, and then drops each term as soon as it
leaves that box, which is exact because those exponents only grow; a
bounded digit carries a guard bit, so the test is one AND per packed key.
"""

# the C encoder json.encoder re-exports, taken without loading json
from _json import encode_basestring_ascii
from collections.abc import Iterator
from itertools import accumulate, chain, compress, repeat
from math import gcd
from operator import add, itemgetter
from struct import Struct


class SeriesError(Exception):
    pass


class VariableSpace:
    def __init__(self, names, grading, truncation, caps=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise SeriesError("duplicate variable names")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        grading = tuple(grading)
        for g in grading:
            if g not in self.index:
                raise SeriesError("grading variable %r not in space" % (g,))
        if len(set(grading)) != len(grading):
            raise SeriesError("duplicate grading variables")
        if not isinstance(truncation, int) or truncation < 0:
            raise SeriesError("truncation must be a non-negative integer")
        self.grading = grading
        self.truncation = truncation
        self.caps = {}
        if caps:
            for n, c in caps.items():
                if n not in self.index:
                    raise SeriesError("capped variable %r not in space" % (n,))
                if not isinstance(c, int) or c < 0:
                    raise SeriesError("cap must be a non-negative integer")
                self.caps[n] = c
        self._gidx = tuple(self.index[g] for g in grading)
        self._cidx = tuple((self.index[n], c) for n, c in self.caps.items())
        self._unit = (0,) * len(names)

    def unit(self):
        return self._unit

    def mono(self, exps=None, **kw):
        """Build an exponent tuple from a name->exponent mapping."""
        out = [0] * len(self.names)
        for src in (exps, kw):
            if not src:
                continue
            for name, e in src.items():
                try:
                    out[self.index[name]] += int(e)
                except KeyError:
                    raise SeriesError("unknown variable %r" % (name,)) from None
        return tuple(out)

    def gdeg(self, m):
        return sum(m[i] for i in self._gidx)

    def caps_ok(self, m):
        return all(abs(m[i]) <= c for i, c in self._cidx)

    def mono_mul(self, m1, m2):
        return tuple(a + b for a, b in zip(m1, m2))

    def mono_pow(self, m, e):
        return tuple(a * e for a in m)

    def with_truncation(self, truncation):
        return VariableSpace(self.names, self.grading, truncation, self.caps)

    def __eq__(self, other):
        return (isinstance(other, VariableSpace)
                and self.names == other.names
                and self.grading == other.grading
                and self.truncation == other.truncation
                and self.caps == other.caps)

    def __repr__(self):
        return "VariableSpace(%r, grading=%r, truncation=%d)" % (
            list(self.names), list(self.grading), self.truncation)


def canonical_space(ell, truncation):
    """The comparison space (y, q0, ..., q{ell-1}) graded by total q-degree."""
    names = ("y",) + tuple("q%d" % a for a in range(ell))
    return VariableSpace(names, names[1:], truncation)


class _Packing:
    """Kronecker (mixed-radix) integer keys for exponent tuples whose i-th
    entry lies in lo[i] .. hi[i].

    The key of m with offsets o is sum (m_i - o_i) * w_i.  The digits are
    laid out in `order` (by default the variable order): the first has
    weight 1, each next one the last times its radix hi - lo + 1, and one
    left out weight 0, unpacking as its lo.  With offsets lo every digit
    fits its radix, so no carry crosses digits and unpack() reads m back.  Keys
    add: key(m1, o1) + key(m2, o2) = key(m1 + m2, o1 + o2), so a monomial product
    is one integer addition as long as the product lies in range.
    """

    __slots__ = ("lo", "radix", "weights", "order")

    def __init__(self, lo, hi, order=None):
        self.lo = lo
        self.radix = tuple(h - l + 1 for l, h in zip(lo, hi))
        self.order = tuple(range(len(lo)) if order is None else order)
        weights = [0] * len(lo)
        w = 1
        for i in self.order:
            weights[i] = w
            w *= self.radix[i]
        self.weights = tuple(weights)

    def pack(self, monos, offsets):
        """The key of each exponent tuple in a collection."""
        keys = [0] * len(monos)
        for col, o, w in zip(zip(*monos), offsets, self.weights):
            keys = [k + (e - o) * w for k, e in zip(keys, col)]
        return keys

    def unpack(self, keys):
        """The exponent tuple of each key (a collection), with offsets lo."""
        cols = [repeat(o, len(keys)) for o in self.lo]
        for i in self.order:
            o, r = self.lo[i], self.radix[i]
            cols[i] = [k % r + o for k in keys]
            keys = [k // r for k in keys]
        return zip(*cols) if cols else [()] * len(keys)


def _exponent_range(terms):
    """Entrywise least and greatest exponents over a non-empty support."""
    cols = list(zip(*terms))
    return tuple(map(min, cols)), tuple(map(max, cols))


def _by_degree(space, terms, keys, offsets):
    """(graded degree, key, coefficient) of each term, by ascending degree."""
    cols = list(zip(*terms))
    degs = [0] * len(terms)
    for i in space._gidx:
        degs = list(map(add, degs, cols[i]))
    return sorted(zip(degs, keys.pack(terms, offsets), terms.values()),
                  key=itemgetter(0))


class Series:
    """Immutable truncated Laurent series over a VariableSpace."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms):
        # trusted constructor: terms must already be clean (admissible
        # monomials, no zero coefficients); external callers use from_terms
        self.space = space
        self.terms = terms

    @classmethod
    def from_terms(cls, space, terms):
        """Validating constructor; drops above-truncation terms, rejects
        monomials of negative graded degree."""
        clean = {}
        width = len(space.names)
        for m, c in dict(terms).items():
            m = tuple(m)
            if len(m) != width:
                raise SeriesError("monomial width %d does not match space" % len(m))
            c = int(c)
            if c == 0:
                continue
            g = space.gdeg(m)
            if g < 0:
                raise SeriesError("monomial with negative graded degree: %r" % (m,))
            if g > space.truncation or not space.caps_ok(m):
                continue
            clean[m] = clean.get(m, 0) + c
        return cls(space, {m: c for m, c in clean.items() if c})

    @classmethod
    def one(cls, space):
        return cls.from_terms(space, {space.unit(): 1})

    def _require_same(self, other):
        if not isinstance(other, Series):
            raise SeriesError("expected a Series")
        if self.space != other.space:
            raise SeriesError("mismatched spaces: %r vs %r" % (self.space, other.space))

    def __add__(self, other):
        self._require_same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            elif m in out:
                del out[m]
        return Series(self.space, out)

    def __neg__(self):
        return Series(self.space, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._require_same(other)
        sp = self.space
        if sp.caps:
            raise SeriesError("product on a capped space")
        if not self.terms or not other.terms:
            return Series(sp, {})
        # packed keys: the key of m1 (offsets lo_a) plus the key of m2
        # (offsets lo_b) is the key of m1 * m2 (offsets lo_a + lo_b)
        lo_a, hi_a = _exponent_range(self.terms)
        lo_b, hi_b = _exponent_range(other.terms)
        keys = _Packing(tuple(map(add, lo_a, lo_b)), tuple(map(add, hi_a, hi_b)))
        a = _by_degree(sp, self.terms, keys, lo_a)
        b = _by_degree(sp, other.terms, keys, lo_b)
        trunc = sp.truncation
        # upto[d]: how many terms of b have graded degree <= d
        upto = [0] * (trunc + 1)
        for g, _, _ in b:
            upto[g] += 1
        upto = list(accumulate(upto))
        b = [(k, c) for _, k, c in b]
        out = {}
        get = out.get
        for g1, k1, c1 in a:
            for k2, c2 in b[:upto[trunc - g1]]:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        del a, b    # the packed operands; unpacking sets the peak memory
        return Series(sp, {m: c for m, c in zip(keys.unpack(out), out.values())
                           if c})

    def __eq__(self, other):
        return (isinstance(other, Series)
                and self.space == other.space
                and self.terms == other.terms)

    def coefficient(self, m):
        return self.terms.get(tuple(m), 0)

    def restrict(self, var):
        """Set a variable to 1 by deleting its exponent, merging collisions."""
        i = self.space.index[var]
        out = {}
        for m, c in self.terms.items():
            mm = m[:i] + (0,) + m[i + 1:]
            out[mm] = out.get(mm, 0) + c
        return Series.from_terms(self.space, out)

    def truncate(self, truncation):
        sp = self.space.with_truncation(truncation)
        return Series.from_terms(sp, self.terms)

    def terms_sorted(self):
        """Canonical order: descending lexicographic on exponent tuples."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __repr__(self):
        return "Series(%s)" % (render_text(self),)


def geometric_inverse(space, m):
    """Expansion of 1/(1 - m) as 1 + m + m^2 + ... in the truncated ring.

    Requires graded degree >= 1, so that the powers die out.
    """
    m = tuple(m)
    g = space.gdeg(m)
    if g < 1:
        raise SeriesError("geometric_inverse: graded degree %d < 1" % g)
    return Series.from_terms(space, {space.mono_pow(m, k): 1
                                     for k in range(space.truncation // g + 1)})


def pochhammer_inverse(space, m, z):
    """Inverse of prod_{n>=1} (1 - z^{n-1} m), factor by factor.

    Factors whose monomial exceeds the truncation are identically 1 in the
    truncated ring and are skipped; the step monomial z must have graded
    degree >= 1 so that only finitely many factors survive.
    """
    m = tuple(m)
    z = tuple(z)
    if space.gdeg(z) < 1:
        raise SeriesError("pochhammer_inverse: step monomial needs graded degree >= 1")
    if space.gdeg(m) < 0:
        raise SeriesError("pochhammer_inverse: graded degree %d < 0" % space.gdeg(m))
    out = Series.one(space)
    f = m
    while space.gdeg(f) <= space.truncation:
        out = out * geometric_inverse(space, f)
        f = space.mono_mul(f, z)
    return out


def expand(space, families, bounds=None):
    """Product over (base, step) families of prod_{k>=0} 1/(1 - base*step^k).

    Divides by one factor (1 - m) at a time, in place: the terms sit in
    buckets by graded degree, and sweeping the degrees upward, the
    coefficient at x + m gains the coefficient at x, already divided.
    Truncation by graded degree is a ring map only without caps, so a
    capped space is refused; every base and step needs graded degree >= 1.

    The limb is the first ungraded, unbounded variable that a family moves,
    its exponents all multiples of g.  A bucket maps the packed key of the
    other variables to one integer: its slot i, of B bits or more, holds the
    coefficient at limb exponent g * (i - beta * degree), beta the least
    integer with e/g + beta*d >= 0 at every base and step (e its limb
    exponent, d its degree).  So every factor, and every product of them,
    moves the slots left, and dividing by a factor is one shifted add per
    key.  Without a limb there is one slot and every shift is 0.  No slot
    carries into the next: every coefficient is >= 0, as the division only
    adds; a partial product's coefficient is at most the final one, as the
    factors left are 1 + (terms >= 0); and that is at most the coefficient
    at its degree of the univariate image (graded variables -> t, the others
    -> 1), whose largest coefficient has bit length B.

    `bounds` maps variables to upper bounds on their exponents, and the
    result is then the full expansion cropped to that box.  Every base and
    step needs exponents >= 0 in a bounded variable, so that exponents only
    grow along the division: a term past a bound is dropped as it appears,
    and so is a factor past one.
    """
    if space.caps:
        raise SeriesError("expand: capped space")
    trunc = space.truncation
    unit = space.unit()
    bounded = {}
    for name, b in (bounds or {}).items():
        if name not in space.index:
            raise SeriesError("expand: bounded variable %r not in space" % (name,))
        if not isinstance(b, int) or b < 0:
            raise SeriesError("expand: bound must be a non-negative integer")
        bounded[space.index[name]] = b
    fams = []
    for base, step in families:
        base, step = tuple(base), tuple(step)
        if space.gdeg(base) < 1 or space.gdeg(step) < 1:
            raise SeriesError("expand: family (%r, %r) of graded degree < 1"
                              % (base, step))
        if any(base[i] < 0 or step[i] < 0 for i in bounded):
            raise SeriesError("expand: family (%r, %r) lowers a bounded "
                              "exponent" % (base, step))
        fams.append((base, step))
    # A factor monomial base + k*step has graded degree d >= k + 1, so its
    # i-th exponent is at most d * M_i in size, M_i the largest |base_i| or
    # |step_i| over the families; a bucket term is a product of factor
    # monomials of total degree <= trunc, so it stays within trunc * M_i.
    bound = tuple(trunc * max((max(abs(b[i]), abs(s[i])) for b, s in fams),
                              default=0)
                  for i in range(len(unit)))
    lo, hi = [-x for x in bound], list(bound)
    for i, b in bounded.items():
        # the digits of bounded variables come first, each 2^(k+1) wide with
        # 2^k > b and biased so that exponent b + 1 sets its top bit; a
        # factor adds at most b, so the digit stays below 2^(k+1)
        k = b.bit_length()
        lo[i] = b + 1 - (1 << k)
        hi[i] = lo[i] + (2 << k) - 1
    limb = next((i for i in range(len(unit)) if i not in space._gidx
                 and i not in bounded and any(b[i] or s[i] for b, s in fams)),
                None)
    keys = _Packing(tuple(lo), tuple(hi), sorted(bounded) + [
        i for i in range(len(unit)) if i not in bounded and i != limb])
    # the top bit of every bounded digit: a key in the box has none set
    guard = sum(keys.weights[i] << b.bit_length() for i, b in bounded.items())
    ey = (lambda m: 0) if limb is None else itemgetter(limb)
    g = gcd(*(ey(m) for f in fams for m in f)) or 1
    beta = max((-(ey(m) // g // space.gdeg(m)) for f in fams for m in f), default=0)
    plan = []
    img = [1] + [0] * trunc    # the univariate image
    for base, step in fams:
        # balanced-digit keys (offsets 0): adding one multiplies by it
        m, dm = keys.pack([base, step], unit)
        d, dd = space.gdeg(base), space.gdeg(step)
        count = (trunc - d) // dd + 1
        for i, b in bounded.items():
            if step[i]:
                count = min(count, (b - base[i]) // step[i] + 1)
            elif base[i] > b:
                count = 0
        plan.append((m, dm, ey(base) // g + beta * d,
                     ey(step) // g + beta * dd, d, dd, count))
        for e in range(d, d + count * dd, dd):
            for deg in range(trunc - e + 1):
                img[deg + e] += img[deg]
    # a slot: B bits rounded up to 1, 2, 4 or 8 bytes or k 8-byte words, for struct
    nbytes = 1 << max(0, (max(img).bit_length() - 1).bit_length() - 3)
    size, k = 8 * nbytes, max(1, nbytes // 8)
    fmt = "BHIQ"[min(nbytes, 8).bit_length() - 1]
    buckets = [{} for _ in range(trunc + 1)]
    buckets[0][keys.pack([unit], keys.lo)[0]] = 1
    for m, dm, s, ds, d, dd, count in plan:
        s, ds = s * size, ds * size
        for _ in range(count):
            for deg in range(trunc - d + 1):
                dst = buckets[deg + d]
                get = dst.get
                for x, c in buckets[deg].items():
                    x += m
                    if not x & guard:
                        dst[x] = get(x, 0) + (c << s)
            m += dm
            s += ds
            d += dd
    terms = {}
    for deg, b in enumerate(buckets):
        if limb is None:    # one slot: a value is its coefficient
            terms.update(zip(keys.unpack(b), b.values()))
        else:
            n = max(b.values(), default=0).bit_length() // size + 1    # slots
            cells = [(y,) for y in range(-g * beta * deg, g * (n - beta * deg), g)]
            read = Struct("<%d%s" % (n * k, fmt)).unpack
            for v, t in zip(b.values(), keys.unpack(b)):
                words = read(v.to_bytes(n * nbytes, "little"))
                slots = words[::k]
                for j in range(1, k):
                    slots = [a + (w << 64 * j) for a, w in zip(slots, words[j::k])]
                monos = map(add, map(add, repeat(t[:limb]), compress(cells, slots)),
                            repeat(t[limb + 1:]))    # of the nonzero slots only
                terms.update(zip(monos, compress(slots, slots)))
        b.clear()
    return Series(space, terms)


def substitute(s, mapping, target):
    """Monomial-wise ring homomorphism into another space.

    Every source variable must have an image monomial in the target space,
    which may not be capped.  Image monomials above the target truncation
    are dropped; an image of negative graded degree is an error, since it
    signals a variable change that is illegal for the chosen grading.
    """
    if target.caps:
        raise SeriesError("substitute: capped target space")
    src = s.space
    images = []
    for name in src.names:
        if name not in mapping:
            raise SeriesError("substitute: no image for variable %r" % (name,))
        img = tuple(mapping[name])
        if len(img) != len(target.names):
            raise SeriesError("substitute: image width does not match target space")
        images.append(img)
    out = {}
    for m, c in s.terms.items():
        img = target.unit()
        for i, e in enumerate(m):
            if e:
                img = target.mono_mul(img, target.mono_pow(images[i], e))
        g = target.gdeg(img)
        if g < 0:
            raise SeriesError("substitute: image monomial has negative graded degree")
        if g > target.truncation:
            continue
        nc = out.get(img, 0) + c
        if nc:
            out[img] = nc
        elif img in out:
            del out[img]
    return Series(target, out)


def to_json_dict(s):
    sp = s.space
    d = {
        "variables": list(sp.names),
        "grading": list(sp.grading),
        "truncation": sp.truncation,
    }
    if sp.caps:
        d["caps"] = {n: sp.caps[n] for n in sp.names if n in sp.caps}
    d["terms"] = [
        {"exp": {name: e for name, e in zip(sp.names, m) if e}, "coeff": str(c)}
        for m, c in s.terms_sorted()
    ]
    return d


def from_json_dict(d):
    sp = VariableSpace(d["variables"], d["grading"], d["truncation"], d.get("caps"))
    terms = {}
    for t in d["terms"]:
        m = sp.mono(t["exp"])
        terms[m] = terms.get(m, 0) + int(t["coeff"])
    return Series.from_terms(sp, terms)


def _key(k):
    if not isinstance(k, str):
        raise TypeError("cannot write a %s key as JSON" % type(k).__name__)
    return encode_basestring_ascii(k) + ": "


# writers of exactly these types; subclasses take the isinstance tests
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda o: "true" if o else "false",
    type(None): lambda o: "null",
}


def _text(o, nl, streams):
    """The text of a subtree starting at indentation nl, in one pass.  Each
    Series or iterator in it is written as a NUL, which JSON text written
    here never holds otherwise (strings escape it), and the generator of
    its own chunks is appended to `streams`, in the order of the NULs."""
    write = _SCALARS.get(type(o))
    if write is not None:
        return write(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        get = _SCALARS.get
        return "{%s%s%s}" % (inner, ("," + inner).join([
            _key(k) + (w(v) if (w := get(type(v))) else _text(v, inner, streams))
            for k, v in o.items()]), nl)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        get = _SCALARS.get
        return "[%s%s%s]" % (inner, ("," + inner).join([
            w(v) if (w := get(type(v))) else _text(v, inner, streams)
            for v in o]), nl)
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, Series):
        streams.append(_series_chunks(o, nl))
        return "\0"
    if isinstance(o, Iterator):
        streams.append(_iter_chunks(o, nl))
        return "\0"
    raise TypeError("cannot write %s as JSON" % type(o).__name__)


def _chunks(o, nl):
    """A subtree's text, cut at each Series and iterator, which are
    written in its place one chunk at a time."""
    streams = []
    parts = _text(o, nl, streams).split("\0")
    for part, stream in zip(parts, streams):
        if part:
            yield part
        yield from stream
    if parts[-1]:
        yield parts[-1]


def _iter_chunks(it, nl):
    """An iterator's elements, drawn one at a time so only one is alive;
    the bytes are those of a list of the same elements."""
    inner = nl + "  "
    sep = "["
    for v in it:
        yield sep + inner
        yield from _chunks(v, inner)
        sep = ","
    yield "[]" if sep == "[" else nl + "]"


# terms per chunk of a series: about 16 KiB of text with four variables
_BATCH = 128


def _series_chunks(s, nl):
    """A series' text: the header, then one chunk per _BATCH terms, each
    built column by column, then the closing brackets."""
    sp = s.space
    i1 = nl + "  "
    i2, i3 = i1 + "  ", i1 + "    "
    head = '{%s"variables": %s,%s"grading": %s,%s"truncation": %d' % (
        i1, _text(sp.names, i1, None), i1, _text(sp.grading, i1, None), i1,
        sp.truncation)
    if sp.caps:
        caps = {n: sp.caps[n] for n in sp.names if n in sp.caps}
        head += ',%s"caps": %s' % (i1, _text(caps, i1, None))
    terms = s.terms
    if not terms:
        yield head + ',%s"terms": []%s}' % (i1, nl)
        return
    yield head + ',%s"terms": [' % i1
    ms = sorted(terms, reverse=True)    # the order of terms_sorted()
    # each variable's cell for every exponent it takes: ',<indent>"name": e',
    # and "" for 0; a term's cells joined, less the first comma, are its
    # "exp" entries
    cells = []
    for i, name in enumerate(sp.names):
        cell = "," + i3 + "  " + _key(name)
        cells.append({e: cell + int.__repr__(e) if e else ""
                      for e in set(map(itemgetter(i), ms))}.__getitem__)
    # a term is a, its entries, b, its coefficient and c; the all-zero
    # monomial alone has no entries, so a + b occurs only there, and it is
    # patched to "exp": {}
    a = ',%s{%s"exp": {' % (i2, i3)
    b = '%s},%s"coeff": "' % (i3, i3)
    c = '"%s}' % i2
    drop_comma = itemgetter(slice(1, None))
    for lo in range(0, len(ms), _BATCH):
        batch = ms[lo:lo + _BATCH]
        # a space without variables holds only the all-zero monomial
        cols = list(map(map, cells, zip(*batch))) or [[""] * len(batch)]
        chunk = "".join(chain.from_iterable(zip(
            repeat(a), map(drop_comma, map("".join, zip(*cols))), repeat(b),
            map(int.__repr__, map(terms.__getitem__, batch)), repeat(c))))
        chunk = chunk.replace(a + b, a + b[len(i3):])
        # the first term follows the "[" with no comma
        yield chunk[1:] if lo == 0 else chunk
    yield i1 + "]" + nl + "}"


def json_chunks(obj):
    """The text of json.dumps(obj, indent=2, default=to_json_dict), in
    pieces: each batch of up to _BATCH terms of a Series, each element of
    an iterator, and each stretch of text between them, every subtree
    written in one pass.  Values may be dicts with str keys, lists, tuples,
    Series, str, int, bool and None; any other type raises TypeError.  An
    iterator is written as a list of what it yields, drawing one element at
    a time."""
    return _chunks(obj, "\n")


def render_text(s):
    """Plain-text form: terms in canonical order, like 2*y^2*q0*q1 + q0."""
    items = s.terms_sorted()
    if not items:
        return "0"
    pieces = []
    for m, c in items:
        factors = []
        for name, e in zip(s.space.names, m):
            if e == 0:
                continue
            factors.append(name if e == 1 else "%s^%d" % (name, e))
        body = "*".join(factors)
        if not body:
            mag = str(abs(c))
        elif abs(c) == 1:
            mag = body
        else:
            mag = "%d*%s" % (abs(c), body)
        pieces.append((c < 0, mag))
    first_neg, first = pieces[0]
    text = ("-" + first) if first_neg else first
    for neg, mag in pieces[1:]:
        text += (" - " if neg else " + ") + mag
    return text


def series_diff_report(lhs, rhs):
    """Compare two series in the same space.

    Returns {"equal": True} on a match; otherwise the first differing
    coefficient in canonical monomial order, with both values as strings.
    Either way "coefficients" counts the monomials compared, the union of
    the two supports.
    """
    if not isinstance(lhs, Series) or not isinstance(rhs, Series):
        raise SeriesError("series_diff_report expects two Series")
    if lhs.space != rhs.space:
        raise SeriesError("series_diff_report: mismatched spaces")
    if lhs.terms == rhs.terms:
        return {"equal": True, "coefficients": len(lhs.terms)}
    names = lhs.space.names
    support = lhs.terms.keys() | rhs.terms.keys()
    for m in sorted(support, reverse=True):
        cl = lhs.terms.get(m, 0)
        cr = rhs.terms.get(m, 0)
        if cl != cr:
            return {"equal": False, "coefficients": len(support),
                    "first_diff": {"exp": {n: e for n, e in zip(names, m) if e},
                                   "lhs": str(cl), "rhs": str(cr)}}
    raise AssertionError("unreachable")
