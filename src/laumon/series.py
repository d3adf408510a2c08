"""Sparse exact multivariate Laurent series with total-degree truncation.

A VariableSpace fixes an ordered list of variable names, the subset of
variables whose total exponent is the truncation grading, the truncation
bound, and optional per-variable caps on absolute exponents.  Caps are
only an output window: `Series.from_terms` crops to them and JSON records
them, but cropping to a cap is not a ring map, so the products (`product`,
`expand`) and `substitute` refuse a capped space.

Monomials are exponent tuples aligned with the variable order.  Series
coefficients are arbitrary-precision integers; `+`, `-` and `*` take Series
of one space only.  The two kernels pack all variables but one, the limb,
into mixed-radix integers, so a monomial product is one integer addition,
and hold the limb's polynomial at a key as one integer of fixed-width
slots, in one format that `_Slots` reads back: signed digits in
`product`, coefficients >= 0 in `expand`.  A Series stores its terms
packed, in canonical order (descending lexicographic): one column of
mixed-radix keys, fixed by the support alone, and one column of
coefficients; one helper, `_canonical`, picks every store's packing and
order.  The kernels read their operands' columns and write the result's
directly, building no exponent tuple per term; `Series.terms` decodes a
fresh dict on each access.  `product`, which `*` calls, multiplies any
number of series at once, packing each once and the running product
never unpacked.  `expand` divides by each inverse Pochhammer factor
(1 - m) in place, which only adds, so no slot carries, highest graded
degree first.  It also takes upper bounds on the exponents of variables
that no family lowers, and then drops each term as soon as it leaves
that box, which is exact because those exponents only grow; a bounded
digit carries a guard bit, so the test is one AND per packed key.

`json_chunks` streams the text of json.dumps(obj, indent=2).  A subtree
wrapped in `Shared` is written once per indentation, and that text is
reused wherever the same object recurs; it may not hold a Series or an
iterator.
"""

# the C encoder json.encoder re-exports, taken without loading json
from _json import encode_basestring_ascii
from collections.abc import Iterator
from itertools import chain, compress, groupby, repeat
from math import gcd, prod
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
    laid out in `order`: the first has weight 1, each next one the last
    times its radix hi - lo + 1, and one left out weight 0, unpacking as
    its lo.  With offsets lo every digit fits its radix, so no carry
    crosses digits and unpack() reads m back.  Keys add: key(m1, o1) +
    key(m2, o2) = key(m1 + m2, o1 + o2), so a monomial product is one
    integer addition as long as the product lies in range.
    """

    __slots__ = ("lo", "radix", "weights", "order")

    def __init__(self, lo, hi, order):
        self.lo = lo
        self.radix = tuple(h - l + 1 for l, h in zip(lo, hi))
        self.order = tuple(order)
        weights = [0] * len(lo)
        w = 1
        for i in self.order:
            weights[i] = w
            w *= self.radix[i]
        self.weights = tuple(weights)

    def pack(self, cols, offsets, n):
        """The key of each of n exponent tuples, given as columns, one per
        variable."""
        keys = [0] * n
        for col, o, w in zip(cols, offsets, self.weights):
            if w:
                keys = [k + (e - o) * w for k, e in zip(keys, col)]
        return keys

    def unpack(self, keys):
        """The exponent columns of the keys (a collection), one per
        variable, with offsets lo."""
        cols = [repeat(o, len(keys)) for o in self.lo]
        for i in self.order:
            o, r = self.lo[i], self.radix[i]
            cols[i] = [k % r + o for k in keys]
            keys = [k // r for k in keys]
        return cols


def _nwords(pack):
    """The 8-byte words of a key of a store packing."""
    return max(1, ((prod(pack.radix) - 1).bit_length() + 63) // 64)


def _key_bytes(keys, nwords):
    """A key column: each key as nwords native 8-byte words, top word
    first."""
    if nwords > 1:
        keys = [k >> s & 0xFFFFFFFFFFFFFFFF for k in keys
                for s in range(64 * nwords - 64, -1, -64)]
    else:
        keys = list(keys)
    return Struct("%dQ" % len(keys)).pack(*keys)


def _key_ints(data, nwords):
    """The keys of a key column, as a sequence of ints."""
    words = memoryview(data).cast("Q")
    keys = words[::nwords]    # the top words
    for j in range(1, nwords):
        keys = [(a << 64) + w for a, w in zip(keys, words[j::nwords])]
    return keys


def _canonical(cols, lo, hi, n):
    """(packing, keys, order) of n terms whose exponent columns `cols` lie
    in lo .. hi: the store packing, the first variable most significant,
    so key order is lexicographic order; each term's key, with offsets lo;
    and the term indices in canonical order, keys descending."""
    pack = _Packing(lo, hi, range(len(lo) - 1, -1, -1))
    keys = pack.pack(cols, lo, n)
    return pack, keys, sorted(range(n), key=keys.__getitem__, reverse=True)


def _stored(cols, coeffs, width):
    """(packing, key column, coefficient column) of the terms with exponent
    columns `cols` (distinct monomials) and nonzero `coeffs`, in any order,
    put in canonical order."""
    n = len(coeffs)
    lo = tuple(map(min, cols)) if n else (0,) * width
    hi = tuple(map(max, cols)) if n else lo
    pack, keys, order = _canonical(cols, lo, hi, n)
    return (pack, _key_bytes(map(keys.__getitem__, order), _nwords(pack)),
            list(map(coeffs.__getitem__, order)))


def _series(space, pack, keys, coeffs):
    """The Series of a store already in canonical order."""
    s = Series.__new__(Series)
    s.space, s._pack, s._keys, s._coeffs = space, pack, keys, coeffs
    return s


class Series:
    """Immutable truncated Laurent series over a VariableSpace.

    The terms are stored in canonical order, descending lexicographic on
    exponent tuples: `_keys`, each monomial's key under `_pack`, the store
    packing of the least and greatest exponent of each variable over the
    terms, as `_key_bytes` writes it; and `_coeffs`, the coefficients, all
    nonzero.  The packing depends on the support alone, so equal series
    have equal columns."""

    __slots__ = ("space", "_pack", "_keys", "_coeffs")

    def __init__(self, space, terms):
        # trusted constructor: terms must already be clean (admissible
        # monomials, no zero coefficients); external callers use from_terms
        self.space = space
        self._pack, self._keys, self._coeffs = _stored(
            list(zip(*terms)), list(terms.values()), len(space.names))

    @classmethod
    def from_columns(cls, space, cols, coeffs):
        """Trusted constructor from exponent columns, one sequence per
        variable, and nonzero coefficients (lists), of distinct admissible
        monomials in any order."""
        return _series(space, *_stored(cols, coeffs, len(space.names)))

    @property
    def terms(self):
        """The terms as a dict {exponent tuple: coefficient}, decoded from
        the store afresh on every access."""
        return dict(self._items())

    def columns(self):
        """The exponent columns of the terms, one list per variable, in
        canonical order."""
        return self._pack.unpack(_key_ints(self._keys, _nwords(self._pack)))

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
        out = self.terms
        for m, c in other.terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            elif m in out:
                del out[m]
        return Series(self.space, out)

    def __neg__(self):
        return _series(self.space, self._pack, self._keys,
                       [-c for c in self._coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return product(self.space, [self, other])

    def __eq__(self, other):
        return (isinstance(other, Series)
                and self.space == other.space
                and self._pack.lo == other._pack.lo
                and self._pack.radix == other._pack.radix
                and self._keys == other._keys
                and self._coeffs == other._coeffs)

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
        return list(self._items())

    def _items(self):
        """(exponent tuple, coefficient) of each term, in canonical order."""
        cols = self.columns()
        return zip(zip(*cols) if cols else repeat((), len(self._coeffs)),
                   self._coeffs)

    def __repr__(self):
        return "Series(%s)" % (render_text(self),)


class _Slots:
    """The slot decoder of both kernels; `_canonical` packs and orders the
    store.  The limb polynomial at a packed key is one integer of W-bit
    slots: slot j of a bucket holds the coefficient at limb exponent
    first + g * j, `first` the bucket's own.  A slot is 1, 2, 4 or 8 bytes,
    or k 8-byte words read top word first, W the least such width of at
    least the bits asked for.  Unsigned slots hold coefficients >= 0;
    signed ones balanced digits, -2^(W-1) < c < 2^(W-1), read with a borrow:
    adding h = 2^(W-1) to every slot makes each one c + h, in 0 .. 2^W - 1,
    and the carries of that addition are the borrows; flipping each slot's
    top bit back leaves c in two's complement, read signed.  The slots of
    every key are read through one little-endian byte table, each column a
    strided memoryview cast to the slot's code."""

    __slots__ = ("size", "codes", "half")

    def __init__(self, bits, signed):
        nbytes = 1 << max(0, (bits - 1).bit_length() - 3)
        codes = "BHIQ"[nbytes.bit_length() - 1] if nbytes <= 8 else "Q" * (nbytes // 8)
        self.size = 8 * nbytes
        self.codes = codes[:-1] + codes[-1].lower() if signed else codes
        self.half = signed << self.size - 1    # h, or 0 if unsigned

    def series(self, space, keys, buckets, limb, g, firsts):
        """The Series of `space` whose terms are the nonzero slots in
        `buckets`, dicts {packed key: integer} under `keys`, each cleared
        once read; `firsts` gives each bucket's first limb exponent.

        Without a limb a value is its coefficient, and the keys and values
        go to `Series.from_columns` as they are.  With one, the terms come
        out in canonical order with no sort of them: the keys are sorted by
        their store key less the limb's digit, and each key's slots, with
        the borrow, are copied into its row of one table, a column per limb
        exponent.  Each run of rows equal before the limb is then read one
        column at a time, from the greatest limb exponent down, as one
        strided memoryview slice."""
        if limb is None:
            xs, coeffs = [], []
            for b in buckets:
                xs += compress(b, b.values())
                coeffs += filter(None, b.values())
                b.clear()
            cols = keys.unpack(xs)
            del xs    # the store's keys, built next, set the peak memory
            return Series.from_columns(space, cols, coeffs)
        size, codes, half = self.size, self.codes, self.half
        nwords = len(codes)
        # h in each of `most` slots: a value spans the limb's range at most,
        # and n below may count one 0 slot past its top
        most = (keys.radix[limb] - 1) // g + 2
        bias = half * ((1 << most * size) - 1) // ((1 << size) - 1)
        xs, vals, starts = [], [], []    # key, slots, first slot's exponent
        top = keys.lo[limb]    # the greatest limb exponent of a nonzero slot
        for b, first in zip(buckets, firsts):
            for x, v in b.items():
                if not v:
                    continue
                low = ((v & -v).bit_length() - 1) // size    # zero slots
                v >>= low * size
                n = v.bit_length() // size + 1    # slots, the top one maybe 0
                h = bias >> (most - n) * size    # h in each of the n
                v = (v + h) ^ h    # each slot's two's complement
                start = first + g * low
                top = max(top, start + g * ((v.bit_length() - 1) // size))
                xs.append(x)
                vals.append(v)
                starts.append(start)
            b.clear()
        if not xs:
            return Series(space, {})
        cols = keys.unpack(xs)
        lo = [min(starts) if i == limb else min(c) for i, c in enumerate(cols)]
        hi = [top if i == limb else max(c) for i, c in enumerate(cols)]
        cols[limb] = repeat(lo[limb])    # base: keys less the limb's digit
        pack, base, order = _canonical(cols, tuple(lo), tuple(hi), len(xs))
        del cols, xs
        # the table: a row of `width` slots per key, in canonical order
        width = (top - lo[limb]) // g + 1
        table = bytearray(len(order) * width * size // 8)
        for r, i in enumerate(order):
            at = (r * width + (starts[i] - lo[limb]) // g) * size // 8
            data = vals[i].to_bytes((vals[i].bit_length() + 7) // 8, "little")
            table[at:at + len(data)] = data
        del vals, starts
        tops = memoryview(table).cast(codes[-1])    # each slot's top word
        words = memoryview(table).cast("Q") if nwords > 1 else None
        nw = _nwords(pack)
        w = pack.weights[limb]
        span = w * pack.radix[limb]
        stride = width * nwords    # words per row
        chunks, coeffs = [], []
        r = 0
        # each run: the rows that agree on every variable before the limb
        for _, run in groupby(map(base.__getitem__, order), lambda x: x // span):
            run = list(run)
            end = (r + len(run)) * stride
            for p in range(width - 1, -1, -1):
                at = (r * width + p) * nwords
                col = tops[at + nwords - 1:end:stride]
                for j in range(nwords - 2, -1, -1):
                    col = [(a << 64) + u for a, u in zip(col, words[at + j:end:stride])]
                chunks.append(_key_bytes(map(add, compress(run, col),
                                             repeat(g * p * w)), nw))
                coeffs += compress(col, col)
            r += len(run)
        del base, order, run, tops, words, table    # before the join copies
        return _series(space, pack, b"".join(chunks), coeffs)


def product(space, operands):
    """The truncated product of the Series in `operands`, any number of
    them, all of `space`; no operands give 1.  Truncation by graded degree
    is a ring map only without caps, so a capped space is refused.

    Each operand is packed once, by one `_Packing` whose range is the sum
    of the operands' ranges, into buckets by graded degree; the running
    product stays packed in them, and is unpacked once, at the end.  The
    limb, left out of the keys, is the first ungraded variable whose
    exponent varies within an operand.  At a key, its polynomial is one
    integer of W-bit slots: slot j holds the coefficient at limb exponent
    lo + g * j, lo the sum of the operands' least limb exponents and g the
    gcd of every exponent's distance from its operand's least.  So a
    product of two keyed terms is one integer addition and one multiply,
    and the limb, being ungraded, is never truncated.

    The integer at a key is its limb polynomial evaluated at 2^W, exactly,
    at every step, so only the result's slots need to fit.  None overflows:
    a coefficient of degree d is a sum of products c_1 ... c_R of one
    coefficient of each operand, of degrees adding up to d, so it is at
    most the degree-d coefficient of the product of the operands'
    univariate images (graded variables -> t, the others -> 1, every
    coefficient -> its absolute value), truncated; that is at most
    prod_k sum |c| over the operands.  W is the bit length of the image's
    largest coefficient plus a sign bit, rounded up as `_Slots` does, so
    every slot is a balanced digit, -2^(W-1) < c < 2^(W-1).
    """
    operands = list(operands)
    if space.caps:
        raise SeriesError("product on a capped space")
    for s in operands:
        if not isinstance(s, Series) or s.space != space:
            raise SeriesError("product: operand not a Series of %r" % (space,))
    unit = space.unit()
    if not all(s._coeffs for s in operands):
        return Series(space, {})
    if not operands:
        return Series(space, {unit: 1})
    trunc = space.truncation
    cols = [s.columns() for s in operands]
    los = [s._pack.lo for s in operands]
    his = [tuple(l + r - 1 for l, r in zip(s._pack.lo, s._pack.radix))
           for s in operands]
    degs = []
    for s, c in zip(operands, cols):
        d = [0] * len(s._coeffs)
        for i in space._gidx:
            d = list(map(add, d, c[i]))
        degs.append(d)
    limb = next((i for i in range(len(unit)) if i not in space._gidx
                 and any(lo[i] != hi[i] for lo, hi in zip(los, his))), None)
    keys = _Packing(tuple(map(sum, zip(*los))), tuple(map(sum, zip(*his))),
                    [i for i in range(len(unit)) if i != limb])
    g = first = None    # no limb: one slot, and a value is its coefficient
    if limb is not None:
        g = gcd(*(e - lo[limb] for c, lo in zip(cols, los) for e in c[limb]))
        first = keys.lo[limb]
    image = [1] + [0] * trunc
    for s, d in zip(operands, degs):
        img = [0] * (trunc + 1)
        for e, c in zip(d, s._coeffs):
            img[e] += abs(c)
        image = [sum(image[i] * img[e - i] for i in range(e + 1))
                 for e in range(trunc + 1)]
    slots = _Slots(max(image).bit_length() + 1, True)

    def packed(k):
        """The buckets of operand k: {key: limb polynomial} by degree."""
        s, lo = operands[k], los[k]
        shifts = (repeat(0) if limb is None else
                  [(e - lo[limb]) // g * slots.size for e in cols[k][limb]])
        buckets = [{} for _ in range(trunc + 1)]
        for d, x, c, sh in zip(degs[k], keys.pack(cols[k], lo, len(s._coeffs)),
                               s._coeffs, shifts):
            b = buckets[d]
            b[x] = b.get(x, 0) + (c << sh)
        return buckets

    acc = packed(0)
    for k in range(1, len(operands)):
        b = [list(x.items()) for x in packed(k)]
        out = [{} for _ in range(trunc + 1)]
        for d1, src in enumerate(acc):
            items = src.items()
            for d2 in range(trunc - d1 + 1):
                dst = out[d1 + d2]
                get = dst.get
                for x1, v1 in items:
                    for x2, v2 in b[d2]:
                        x = x1 + x2
                        dst[x] = get(x, 0) + v1 * v2
        acc = out
    del cols, degs    # unpacking sets the peak memory
    return slots.series(space, keys, acc, limb, g, repeat(first))


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
    coefficient at x + m gains the coefficient at x, already divided.  The
    factors go in descending graded degree, ties in family order.
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
    adds; a partial product's coefficient is at most the final one, in any
    factor order, as the factors left are 1 + (terms >= 0); and that is at
    most the coefficient at its degree of the univariate image (graded
    variables -> t, the others -> 1), whose largest coefficient has bit
    length B.

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
    factors = []    # (degree, packed key, slot shift) of each factor
    for base, step in fams:
        # balanced-digit keys (offsets 0): adding one multiplies by it
        m, dm = keys.pack(zip(base, step), unit, 2)
        d, dd = space.gdeg(base), space.gdeg(step)
        count = (trunc - d) // dd + 1
        for i, b in bounded.items():
            if step[i]:
                count = min(count, (b - base[i]) // step[i] + 1)
            elif base[i] > b:
                count = 0
        s, ds = ey(base) // g + beta * d, ey(step) // g + beta * dd
        factors += [(d + k * dd, m + k * dm, s + k * ds) for k in range(count)]
    # A factor of degree d sweeps the buckets 0..trunc - d, so the factors
    # of high degree go first, while those buckets are nearly empty; the
    # sort is stable, so ties keep family order.  Any order gives the same
    # product, and no slot carries in any, as every partial product is a
    # sub-product of the whole.
    factors.sort(key=itemgetter(0), reverse=True)
    img = [1] + [0] * trunc    # the univariate image
    for d, _, _ in factors:
        for deg in range(trunc - d + 1):
            img[deg + d] += img[deg]
    slots = _Slots(max(img).bit_length(), False)
    buckets = [{} for _ in range(trunc + 1)]
    buckets[0][keys.pack(zip(unit), keys.lo, 1)[0]] = 1
    for d, m, s in factors:
        s *= slots.size
        for deg in range(trunc - d + 1):
            dst = buckets[deg + d]
            get = dst.get
            for x, c in buckets[deg].items():
                x += m
                if not x & guard:
                    dst[x] = get(x, 0) + (c << s)
    return slots.series(space, keys, buckets, limb, g,
                        [-g * beta * d for d in range(trunc + 1)])


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


class Shared:
    """A subtree that recurs in one output: `json_chunks` writes its value
    once per indentation and reuses that text wherever the same Shared
    occurs again.  The value may not hold a Series or an iterator, whose
    streams cannot be replayed; writing one raises TypeError."""

    __slots__ = ("value", "_texts")

    def __init__(self, value):
        self.value = value
        self._texts = {}    # indentation -> text


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
    if isinstance(o, Shared):
        text = o._texts.get(nl)
        if text is None:
            streamed = []
            text = _text(o.value, nl, streamed)
            if streamed:
                raise TypeError("cannot share a Series or an iterator")
            o._texts[nl] = text
        return text
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
    coeffs = s._coeffs
    if not coeffs:
        yield head + ',%s"terms": []%s}' % (i1, nl)
        return
    yield head + ',%s"terms": [' % i1
    keys = _key_ints(s._keys, _nwords(s._pack))    # in canonical order
    # each variable's cell for every exponent it takes: ',<indent>"name": e',
    # and "" for 0, made as the exponent first occurs; a term's cells
    # joined, less the first comma, are its "exp" entries
    heads = ["," + i3 + "  " + _key(name) for name in sp.names]
    cells = [{0: ""} for _ in sp.names]
    # a term is a, its entries, b, its coefficient and c; the all-zero
    # monomial alone has no entries, so a + b occurs only there, and it is
    # patched to "exp": {}
    a = ',%s{%s"exp": {' % (i2, i3)
    b = '%s},%s"coeff": "' % (i3, i3)
    c = '"%s}' % i2
    drop_comma = itemgetter(slice(1, None))
    for lo in range(0, len(coeffs), _BATCH):
        batch = coeffs[lo:lo + _BATCH]
        cols = s._pack.unpack(keys[lo:lo + _BATCH])
        for cell, pre, col in zip(cells, heads, cols):
            for e in set(col).difference(cell):
                cell[e] = pre + int.__repr__(e)
        # a space without variables holds only the all-zero monomial
        cols = list(map(map, [cell.__getitem__ for cell in cells], cols)) \
            or [[""] * len(batch)]
        chunk = "".join(chain.from_iterable(zip(
            repeat(a), map(drop_comma, map("".join, zip(*cols))), repeat(b),
            map(int.__repr__, batch), repeat(c))))
        chunk = chunk.replace(a + b, a + b[len(i3):])
        # the first term follows the "[" with no comma
        yield chunk[1:] if lo == 0 else chunk
    yield i1 + "]" + nl + "}"


def json_chunks(obj):
    """The text of json.dumps(obj, indent=2, default=to_json_dict), in
    pieces: each batch of up to _BATCH terms of a Series, each element of
    an iterator, and each stretch of text between them, every subtree
    written in one pass.  Values may be dicts with str keys, lists, tuples,
    Series, Shared, str, int, bool and None; any other type raises
    TypeError.  An iterator is written as a list of what it yields, drawing
    one element at a time.  A Shared is written as its value, whose text is
    made once per indentation."""
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
    if lhs == rhs:
        return {"equal": True, "coefficients": len(lhs._coeffs)}
    names = lhs.space.names
    lt, rt = lhs.terms, rhs.terms
    support = lt.keys() | rt.keys()
    for m in sorted(support, reverse=True):
        cl = lt.get(m, 0)
        cr = rt.get(m, 0)
        if cl != cr:
            return {"equal": False, "coefficients": len(support),
                    "first_diff": {"exp": {n: e for n, e in zip(names, m) if e},
                                   "lhs": str(cl), "rhs": str(cr)}}
    raise AssertionError("unreachable")
