"""Exact function ring over chart models.

An element is a finite sum

    c * x1^a1 * ... * E(y1; k1) * ...

where the x's are affine coordinates carrying polynomial degrees a >= 0,
the y's are periodic (angle) coordinates carrying Fourier exponentials
E(y; k) = e^{i k y} with k integral, and each coefficient c is a Gaussian
rational.  The representation is a dict mapping each monomial's exponent
to its coefficient, with zero coefficients never stored, so equality of
dicts is equality in the ring.

Inside the kernel an exponent (e0, ..., e_{n-1}) is one int, its key
e0 + e1 * 2^32 + ... + e_{n-1} * 2^(32 (n-1)): 32 bits per coordinate,
each field signed.  The encoding is linear, so the exponent of a product
is the sum of two keys, the exponent of a constant is 0, and an affine
partial derivative subtracts 1 << 32 i.  A key is decoded back to its
tuple only where a tuple is read: the `terms` view, `evaluate`, the text
and the parser's bound screen.  The conjugate negates a key's periodic
fields without decoding it (_mirror).  Keys stay private to this module:
the public constructor takes exponent tuples and encodes them, and
`terms` hands tuples back.

A key stands for one exponent only while each field is below 2^31 in
absolute value.  The public constructor refuses any |e| >= 2^30 with a
ValidationError, and an exponent grows at two places alone, the output
keys of `sum_of_products` and the monomial shift of `*` (a power goes
through both).  Each checks every key it makes with one range test,
(key + lift) & top with 2^30 in every field of lift and 2^31 in every
field of top, which is zero exactly when every field lies in
[-2^30, 2^30); a key outside raises ValidationError and is never
returned.  The parser's own bound, MAX_EXPONENT, is far below.

A Gaussian rational (`Scalar`) is the integer triple (a, b, d) standing
for (a + b*I)/d, normalized to d > 0 and gcd(a, b, d) == 1 with zero as
(0, 0, 1).  Equal values therefore have equal triples, and scalar
arithmetic is plain int work.  Outside this module one reader does
arithmetic on those triples: the pivot loop `linalg._eliminate` reads
each entry's triple once, works on the ints, normalizes each entry it
updates with `_norm` and hands its results back through `_triple`.

Scalar is the package's one exact rational, from the parser to report
text.  `Scalar.re`, `.im` and the repr are compatibility properties that
import the fractions module on first use.

Inside the ring kernel a coefficient is that triple itself, with no
Scalar around it: an element's dict maps each exponent to its triple,
every operation (sum, difference, negation, product, scale, conjugate,
partial derivative, evaluation) works on the ints and normalizes through
the one private normalizer, and no operation builds or unpacks a Scalar.
`evaluate` and `constant_value` build one Scalar for their result, and
readers outside the kernel see `RingElement.terms`, a view of the same
terms with Scalar coefficients.

The ring has one product loop, `sum_of_products`: the sum of +-x*y over
a list of pairs of elements, in which the triples of each pair of terms
are multiplied and summed per output exponent as plain ints, across all
the pairs, and each surviving sum is normalized once.  A product x*y is
that sum over one pair, except when one factor has a single term c*x^e:
then the other's exponents are shifted by e and its triples multiplied
by c in one pass (a scale alone when e = 0, and nothing at all when the
term is the constant one).  The exterior calculus (X(f), the Lie
bracket, interior and wedge products) and the eigen-residual (J - i)u
hand the loop all the products of one output coefficient at once, so
no product or partial sum in between is built as an element.

The parser reads a text in one pass over its words: every operator and
ASCII whitespace character is one separator, and an ASCII numeral or
identifier between two is taken as one slice, so only a word with
another character (non-ASCII, or a mixed one such as 2x) is read one
character at a time.  Rational literals have one reader,
`_rational_literal`, in `parse_expr` and `parse_rational` alike.
Tokens, positions and messages are those of a per-character lexer.

Elements made by the public constructor `RingElement(...)` and by
`parse_expr` are validated: each exponent has the chart's arity and no
negative degree on an affine coordinate.  The named constructors
(`zero`, `one`, `constant`, `coordinate`, `fourier`) build valid terms by
construction, and the results of ring operations are not re-checked:
each operation builds its terms canonical in one pass (see RingElement),
so scenario input is checked once, where it enters.

The ring is closed under addition, multiplication, partial derivatives and
complex conjugation.  Evaluation is exact at points whose periodic
coordinates sit at quarter turns (integer multiples of pi/2), where
e^{i k y} lands in {1, i, -1, -i}.
"""

from __future__ import annotations

import sys
from functools import cache
from math import comb, gcd, prod
from operator import lshift as _lshift
from struct import Struct
from typing import Iterable, Mapping, Union

from .errors import ChartMismatchError, ParseError, ValidationError

AFFINE = "affine"
PERIODIC = "periodic"

_RESERVED_NAMES = {"I", "E", "cos", "sin"}

# Largest integer the parser accepts after '^' and, in absolute value, as
# the k of E(y; k) and as any coordinate's exponent in a product or power.
# The catalog's largest exponent is 2; a bound keeps x^200000 or
# ((x^16)^16)^16 from building huge values at a point.  Numerals have at
# most MAX_DIGITS digits, below the 4300 that int() converts.  A product or
# power may have at most MAX_TERMS terms by the count of its operands'
# terms, which keeps (x1+y1+x2+y2+1)^16 (4845 terms) from being built; the
# catalog's largest element has 4.  A chart has at most MAX_COORDS
# coordinates: checks cost about n^4.5 in the chart size n, the catalog's
# largest chart has 6 and a Kahler C^6 needs 12.
MAX_EXPONENT = 16
MAX_DIGITS = 1000
MAX_TERMS = 1000
MAX_COORDS = 16

# An exponent key has one signed field of _FIELD bits per coordinate (see
# the module docstring).  Every exponent a key holds lies in
# [-_BOUND, _BOUND]: the public constructor takes |e| < _BOUND, and the
# range test of each new key passes [-_BOUND, _BOUND).
_FIELD = 32
_MASK = (1 << _FIELD) - 1
_BOUND = 1 << 30

RationalLike = Union[int, "Scalar"]  # or a standard-library rational: see _real


class Chart:
    """An ordered list of named coordinates, each affine or periodic.

    The names, the affine mask, the name-to-index map and the constants
    of the ring's exponent keys (each field's bit offset, the lift and
    top of the range test, the mask of the periodic fields and the
    decoder) are built once, when the chart is made; they take no part
    in equality or hashing, which read the coordinates alone.
    """

    __slots__ = (
        "coords", "names", "affine", "_positions",
        "_shifts", "_lift", "_top", "_periodic", "_periodic_lift", "_width", "_unpack",
    )

    def __init__(self, coords: tuple[tuple[str, str], ...]) -> None:
        if len(coords) < 1:
            raise ValidationError("chart needs at least one coordinate")
        if len(coords) > MAX_COORDS:
            raise ValidationError(
                f"chart has {len(coords)} coordinates, at most "
                f"{MAX_COORDS} are allowed"
            )
        seen: set[str] = set()
        for name, kind in coords:
            if kind not in (AFFINE, PERIODIC):
                raise ValidationError(f"unknown coordinate kind {kind!r}")
            if not (isinstance(name, str) and name.isidentifier()
                    and name not in _RESERVED_NAMES):
                raise ValidationError(f"bad coordinate name {name!r}")
            if name in seen:
                raise ValidationError(f"duplicate coordinate name {name!r}")
            seen.add(name)
        self.coords = coords
        self.names = tuple(name for name, _ in coords)
        self.affine = tuple(kind == AFFINE for _, kind in coords)
        self._positions = {name: i for i, name in enumerate(self.names)}
        self._shifts = tuple(range(0, _FIELD * len(coords), _FIELD))
        self._lift = sum(_BOUND << s for s in self._shifts)
        self._top = self._lift << 1
        self._periodic = sum(
            _MASK << s for s, aff in zip(self._shifts, self.affine) if not aff
        )
        self._periodic_lift = self._lift & self._periodic
        self._width = _FIELD // 8 * len(coords)
        self._unpack = Struct(f"<{len(coords)}i").unpack

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chart):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        i = self._positions.get(name) if isinstance(name, str) else None
        if i is None:
            raise ValidationError(f"unknown coordinate {name!r}")
        return i

    def kind(self, i: int) -> str:
        return self.coords[i][1]

    def is_affine(self, i: int) -> bool:
        return self.affine[i]

    def __str__(self) -> str:
        return "(" + ", ".join(f"{n}:{k}" for n, k in self.coords) + ")"


def make_chart(*coords: tuple[str, str]) -> Chart:
    return Chart(tuple(coords))


@cache
def _fraction() -> type:
    """The fractions module's rational type, imported on first use."""
    from fractions import Fraction
    return Fraction


def _real(value: RationalLike) -> "Scalar":
    """An int, a real Scalar or a rational of the fractions module as a real
    Scalar; bool, float and the rest raise.  That module's rational exists
    only once it is loaded, so it is found through sys.modules unimported."""
    if isinstance(value, Scalar) and not value._b:
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return _triple(int(value), 0, 1)
    module = sys.modules.get("fractions")
    if module is not None and isinstance(value, module.Fraction):
        return _triple(value.numerator, 0, value.denominator)
    raise ValidationError(f"expected an exact rational, got {value!r}")


class Scalar:
    """Gaussian rational (a + b*I)/d held as an integer triple (a, b, d).

    The triple is normalized: d > 0 and gcd(a, b, d) == 1, with zero as
    (0, 0, 1), so equal values have equal triples, and all work is on the
    ints.  `re`, `im` and the repr, the parts as fractions-module rationals,
    are compatibility properties that import that module on first use.

    Like a ring product by the constant one, the arithmetic does nothing
    where nothing is to be done: x*1, 1*x, x*0, 0*x, x+0, x-0 and 0+x
    return an operand, and x-x returns ZERO, without building a Scalar.
    Since every triple is normalized, the tests are on the ints alone.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        x, y = _real(re), _real(im)  # each (a, 0, d) with gcd(a, d) == 1
        d = x._d // gcd(x._d, y._d) * y._d
        self._a, self._b, self._d = x._a * (d // x._d), y._a * (d // y._d), d

    @staticmethod
    def of(re: RationalLike = 0, im: RationalLike = 0) -> "Scalar":
        return Scalar(re, im)

    @property
    def re(self):
        return _fraction()(self._a, self._d)

    @property
    def im(self):
        return _fraction()(self._b, self._d)

    def __add__(self, other: "Scalar") -> "Scalar":
        c, e = other._a, other._b
        if not (c or e):
            return self
        a, b = self._a, self._b
        if not (a or b):
            return other
        d, f = self._d, other._d
        if d == f:
            return _make(a + c, b + e, d)
        return _make(a * f + c * d, b * f + e * d, d * f)

    def __sub__(self, other: "Scalar") -> "Scalar":
        c, e = other._a, other._b
        if not (c or e):
            return self
        a, b, d, f = self._a, self._b, self._d, other._d
        if d == f:
            if a == c and b == e:
                return ZERO
            return _make(a - c, b - e, d)
        return _make(a * f - c * d, b * f - e * d, d * f)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not e and f == 1:
            if c == 1:
                return self
            if not c:
                return other
        if not b and d == 1:
            if a == 1:
                return other
            if not a:
                return self
        if not b and not e:
            return _make(a * c, 0, d * f)
        return _make(a * c - b * e, a * e + b * c, d * f)

    def __neg__(self) -> "Scalar":
        return _triple(-self._a, -self._b, self._d)

    def conj(self) -> "Scalar":
        return _triple(self._a, -self._b, self._d)

    def inverse(self) -> "Scalar":
        a, b, d = self._a, self._b, self._d
        if not a and not b:
            raise ZeroDivisionError("inverse of zero scalar")
        return _make(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    @property
    def is_zero(self) -> bool:
        return not (self._a or self._b)

    @property
    def is_real(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        # The triple is canonical, so equal values hash equal.
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"Scalar(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        return scalar_text(self)


_new = object.__new__


def _triple(a: int, b: int, d: int) -> Scalar:
    """The Scalar of a triple that is already normalized."""
    s = _new(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


def _make(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*I)/d for any d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    # _triple's body, inline: this runs once per scalar operation.
    s = _new(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


ZERO = Scalar()
ONE = Scalar(1)
IMAG = Scalar(0, 1)
HALF = _triple(1, 0, 2)
_MINUS_HALF_I = _triple(0, -1, 2)  # sin(y) = (E(y;1) - E(y;-1)) * -I/2

# i^k for k mod 4, used by quarter-turn evaluation.
_I_POWERS = (ONE, IMAG, -ONE, -IMAG)


def quarter_phase(k: int) -> Scalar:
    """The exact value of e^{i k pi/2}."""
    return _I_POWERS[k % 4]


def _ratio_text(p: int, q: int) -> str:
    """p/q in lowest terms as "p" or "p/q", q > 0."""
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def scalar_text(s: Scalar) -> str:
    """Canonical text for a scalar, parseable by parse_expr."""
    a, b, d = s._a, s._b, s._d
    if not b:
        return _ratio_text(a, d)
    imag = "I" if b == d else "-I" if b == -d else f"{_ratio_text(b, d)}*I"
    return f"({_ratio_text(a, d)}{'+' if b > 0 else ''}{imag})" if a else imag


class EvalPoint:
    """A chart point: real Scalars on affine coordinates, integer quarter
    turns (value = q*pi/2) on periodic ones.  A point is immutable and
    keys the per-point memos, so its hash is taken once, when it is
    made."""

    __slots__ = ("chart", "values", "_hash")

    def __init__(self, chart: Chart, values: tuple[Union[Scalar, int], ...]) -> None:
        self.chart = chart
        self.values = values
        self._hash = hash((chart, values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvalPoint):
            return NotImplemented
        return (self.chart, self.values) == (other.chart, other.values)

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def at(chart: Chart, **named: RationalLike) -> "EvalPoint":
        return EvalPoint.from_mapping(chart, named)

    @staticmethod
    def from_mapping(chart: Chart, named: Mapping[str, RationalLike]) -> "EvalPoint":
        extra = set(named) - set(chart.names)
        if extra:
            raise ValidationError(f"unknown coordinates in point: {sorted(extra)}")
        values: list[Union[Scalar, int]] = []
        for i, (name, kind) in enumerate(chart.coords):
            if name not in named:
                raise ValidationError(f"point is missing coordinate {name!r}")
            raw = named[name]
            if kind == PERIODIC:
                if isinstance(raw, bool) or not isinstance(raw, int):
                    raise ValidationError(
                        f"periodic coordinate {name!r} takes integer quarter turns"
                    )
                values.append(raw)
            else:
                values.append(_real(raw))
        return EvalPoint(chart, tuple(values))

    def __str__(self) -> str:
        parts = [f"{n}={v}" for (n, _), v in zip(self.chart.coords, self.values)]
        return "(" + ", ".join(parts) + ")"


Exponent = tuple[int, ...]
Key = int  # an exponent as the kernel stores it: one signed field per coordinate


def _encode(chart: Chart, expo: Exponent) -> Key:
    return sum(map(_lshift, expo, chart._shifts))


def _decode(chart: Chart, key: Key) -> Exponent:
    """The exponent tuple of a key.  With 2^31 added to each field, every
    field is e + 2^31 in [0, 2^32), so none borrows from the next; with
    each field's top bit then flipped, the field is e's 32-bit two's
    complement, and the bytes are read as signed 32-bit ints."""
    top = chart._top
    return chart._unpack(((key + top) ^ top).to_bytes(chart._width, "little"))


_OUT_OF_RANGE = "an exponent of a product leaves the range [-2^30, 2^30)"


def _mirror(chart: Chart, key: Key) -> Key:
    """The key of the conjugate exponent, each periodic field negated:
    key - 2P, with P the periodic fields of the key, read under the lift
    as _decode reads them.  On a chart with no periodic coordinate P is 0."""
    return key - 2 * (((key + chart._lift) & chart._periodic) - chart._periodic_lift)


def _check_keys(chart: Chart, keys: Iterable[Key]) -> None:
    """Raise ValidationError unless every field of every key lies in
    [-2^30, 2^30): one range test per key, (key + lift) & top, which is
    zero exactly then.  A plain loop: at every size it takes about half
    the time of the same test mapped over the keys."""
    lift, top = chart._lift, chart._top
    for key in keys:
        if (key + lift) & top:
            raise ValidationError(_OUT_OF_RANGE)


def _check_chart(a: "RingElement", b: "RingElement") -> None:
    if a.chart is not b.chart and a.chart != b.chart:
        raise ChartMismatchError(f"charts differ: {a.chart} vs {b.chart}")


Triple = tuple[int, int, int]


def _norm(a: int, b: int, d: int) -> Triple:
    """The normalized triple of (a + b*I)/d for any d > 0: the kernel's one
    normalizer, with the rule `_make` applies to a Scalar."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return a // g, b // g, d // g
    return a, b, d


def _times(x: Triple, y: Triple) -> Triple:
    """The normalized product of two triples."""
    a, b, d = x
    c, e, f = y
    if not b and not e:
        return _norm(a * c, 0, d * f)
    return _norm(a * c - b * e, a * e + b * c, d * f)


def _merge(out: dict[Key, Triple], terms: dict[Key, Triple], sign: int) -> None:
    """Add sign times each of the terms into out, deleting an exponent
    whose sum cancels."""
    for expo, t in terms.items():
        cur = out.get(expo)
        if cur is None:
            out[expo] = t if sign > 0 else (-t[0], -t[1], t[2])
            continue
        a, b, d = cur
        c, e, f = t
        if sign < 0:
            c, e = -c, -e
        if d == f:
            a, b = a + c, b + e
        else:
            a, b, d = a * f + c * d, b * f + e * d, d * f
        if a or b:
            out[expo] = _norm(a, b, d)
        else:
            del out[expo]


class RingElement:
    """A canonical sparse sum of monomials over a fixed chart.

    Inside the kernel each exponent is its key and each coefficient the
    normalized integer triple (a, b, d) of a Scalar, with no zero stored,
    so equal elements have equal dicts and no ring operation builds or
    unpacks a Scalar.  Readers outside the kernel see `terms`, the same
    terms with exponent tuples and Scalar values.

    The public constructor validates its terms: every exponent has the
    chart's arity, no negative degree on an affine coordinate and no
    |e| >= 2^30, and zero coefficients are dropped.  The named
    constructors and the results of ring operations are built through
    `_of_valid`, which trusts its terms, because each keeps them
    canonical as it builds them: exponents of sums, conjugates and
    derivatives of valid exponents are valid, those of products are
    range-tested, and a coefficient that cancels is deleted where it
    cancels.
    """

    __slots__ = ("chart", "_terms")

    def __init__(self, chart: Chart, terms: Mapping[Exponent, Scalar]) -> None:
        clean: dict[Key, Triple] = {}
        n = chart.dim
        for expo, coeff in terms.items():
            if len(expo) != n:
                raise ValidationError("exponent arity does not match chart")
            for i, e in enumerate(expo):
                if chart.is_affine(i) and e < 0:
                    raise ValidationError("negative degree on affine coordinate")
                if not -_BOUND < e < _BOUND:
                    raise ValidationError("exponent is 2^30 or more in absolute value")
            if not coeff.is_zero:
                clean[_encode(chart, expo)] = (coeff._a, coeff._b, coeff._d)
        self.chart = chart
        self._terms = clean

    @staticmethod
    def _of_valid(chart: Chart, terms: dict[Key, Triple]) -> "RingElement":
        """An element from canonical triples (valid exponents, no zero
        coefficient), taken as they are: the dict becomes the element's,
        so the caller must not keep changing it."""
        out = _new(RingElement)
        out.chart = chart
        out._terms = terms
        return out

    @property
    def terms(self) -> dict[Exponent, Scalar]:
        """The terms with exponent tuples and Scalar coefficients, a new
        dict on each read."""
        chart = self.chart
        return {_decode(chart, k): _triple(a, b, d) for k, (a, b, d) in self._terms.items()}

    # --- constructors -------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "RingElement":
        return RingElement._of_valid(chart, {})

    @staticmethod
    def constant(chart: Chart, value: Scalar) -> "RingElement":
        if not value:
            return RingElement._of_valid(chart, {})
        return RingElement._of_valid(chart, {0: (value._a, value._b, value._d)})

    @staticmethod
    def one(chart: Chart) -> "RingElement":
        return RingElement._of_valid(chart, {0: (1, 0, 1)})

    @staticmethod
    def coordinate(chart: Chart, name: str) -> "RingElement":
        i = chart.index(name)
        if not chart.is_affine(i):
            raise ValidationError(
                f"periodic coordinate {name!r} enters only through E({name}; k)"
            )
        return _unit(chart, i, 1)

    @staticmethod
    def fourier(chart: Chart, name: str, k: int) -> "RingElement":
        i = chart.index(name)
        if chart.is_affine(i):
            raise ValidationError(
                f"Fourier exponential needs a periodic coordinate, {name!r} is affine"
            )
        return _unit(chart, i, k)

    # --- ring operations ----------------------------------------------
    #
    # No operation filters its result for zero coefficients afterwards.
    # A sum can only cancel where two terms meet on one exponent, and
    # there the key is deleted.  Negation, conjugation, scaling by a
    # nonzero scalar and partial derivatives send distinct exponents to
    # distinct exponents and nonzero coefficients to nonzero ones, since
    # Q(i) has no zero divisors.

    def __add__(self, other: "RingElement") -> "RingElement":
        _check_chart(self, other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        _merge(out, other._terms, 1)
        return RingElement._of_valid(self.chart, out)

    def __sub__(self, other: "RingElement") -> "RingElement":
        _check_chart(self, other)
        if not other._terms:
            return self
        out = dict(self._terms)
        _merge(out, other._terms, -1)
        return RingElement._of_valid(self.chart, out)

    def __neg__(self) -> "RingElement":
        if not self._terms:
            return self
        return RingElement._of_valid(
            self.chart, {e: (-a, -b, d) for e, (a, b, d) in self._terms.items()}
        )

    def __mul__(self, other: "RingElement") -> "RingElement":
        _check_chart(self, other)
        if len(other._terms) == 1:
            mono, rest = other, self
        elif len(self._terms) == 1:
            mono, rest = self, other
        else:
            return sum_of_products(self.chart, ((1, self, other),))
        ((shift, c),) = mono._terms.items()
        if shift:
            terms = {e + shift: _times(x, c) for e, x in rest._terms.items()}
            _check_keys(self.chart, terms)
        elif c == (1, 0, 1):
            return rest
        else:
            terms = {e: _times(x, c) for e, x in rest._terms.items()}
        return RingElement._of_valid(self.chart, terms)

    def scale(self, s: Scalar) -> "RingElement":
        if not s:
            return RingElement._of_valid(self.chart, {})
        c = (s._a, s._b, s._d)
        return RingElement._of_valid(self.chart, {e: _times(x, c) for e, x in self._terms.items()})

    def __pow__(self, power: int) -> "RingElement":
        if power < 0:
            raise ValidationError("negative powers are not in the ring")
        out = RingElement.one(self.chart)
        base = self
        p = power
        while p:
            if p & 1:
                out = out * base
            p >>= 1
            if p:
                base = base * base
        return out

    def conj(self) -> "RingElement":
        chart = self.chart
        return RingElement._of_valid(
            chart, {_mirror(chart, k): (a, -b, d) for k, (a, b, d) in self._terms.items()}
        )

    def partial(self, name: str) -> "RingElement":
        """Exact partial derivative in the named coordinate.  Terms
        constant in the coordinate drop out; each other term keeps its
        own exponent (periodic) or lowers it by one (affine), so no two
        terms meet."""
        chart = self.chart
        i = chart.index(name)
        shift, lift = chart._shifts[i], chart._lift
        out: dict[Key, Triple] = {}
        if chart.affine[i]:
            step = 1 << shift
            for key, (a, b, d) in self._terms.items():
                e = ((key + lift) >> shift & _MASK) - _BOUND  # field i, as in _decode
                if e:
                    out[key - step] = _norm(a * e, b * e, d)
        else:
            for key, (a, b, d) in self._terms.items():
                e = ((key + lift) >> shift & _MASK) - _BOUND
                if e:  # d/dy e^{iky} = i k e^{iky}
                    out[key] = _norm(-b * e, a * e, d)
        return RingElement._of_valid(chart, out)

    def evaluate(self, point: EvalPoint) -> Scalar:
        """The exact value at the point.  Each term's value is an
        unnormalized triple; the values are summed over the lcm of their
        denominators, and the one Scalar is built from the normalized sum.
        A constant is its coefficient, and its exponent is not walked."""
        if point.chart is not self.chart and point.chart != self.chart:
            raise ChartMismatchError("point lives on a different chart")
        terms = self._terms
        if len(terms) == 1:
            ((key, t),) = terms.items()
            if not key:
                return _triple(*t)
        ta, tb, td = 0, 0, 1
        chart = self.chart
        slots = tuple(zip(chart.affine, point.values))
        top, width, unpack = chart._top, chart._width, chart._unpack
        for key, (a, b, d) in terms.items():
            expo = unpack(((key + top) ^ top).to_bytes(width, "little"))  # _decode, inline
            for e, (affine, base) in zip(expo, slots):
                if e == 0:
                    continue
                if affine:
                    p = base._a**e
                    a, b, d = a * p, b * p, d * base._d**e
                else:
                    k = (e * base) % 4  # times i^k
                    if k == 1:
                        a, b = -b, a
                    elif k == 2:
                        a, b = -a, -b
                    elif k == 3:
                        a, b = b, -a
            if d == td:
                ta, tb = ta + a, tb + b
            else:
                g = gcd(td, d)
                f, d = td // g, d // g
                ta, tb, td = ta * d + a * f, tb * d + b * f, td * d
        return _triple(*_norm(ta, tb, td))

    # --- predicates and text -------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_real(self) -> bool:
        """Each term's conjugate exponent carries the conjugate triple."""
        chart, terms = self.chart, self._terms
        for key, (a, b, d) in terms.items():
            if terms.get(_mirror(chart, key)) != (a, -b, d):
                return False
        return True

    def is_constant(self) -> bool:
        return not any(self._terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValidationError("element is not constant")
        if self.is_zero:
            return ZERO
        return _triple(*next(iter(self._terms.values())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.chart == other.chart and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def _term_text(self, expo: Exponent, coeff: Scalar) -> tuple[int, str]:
        factors: list[str] = []
        for i, e in enumerate(expo):
            if e == 0:
                continue
            name = self.chart.names[i]
            if self.chart.affine[i]:
                factors.append(name if e == 1 else f"{name}^{e}")
            else:
                factors.append(f"E({name};{e})")
        mono = "*".join(factors)
        a, b = coeff._a, coeff._b
        if a and b:  # a complex coefficient keeps its sign inside parentheses
            sign, body = 1, scalar_text(coeff)
        else:  # a real or imaginary one as its sign and magnitude; one part is zero
            sign, body = (1 if a + b > 0 else -1), scalar_text(_triple(abs(a), abs(b), coeff._d))
        return sign, body if not mono else mono if body == "1" else f"{body}*{mono}"

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        pieces = (self._term_text(expo, terms[expo]) for expo in sorted(terms, reverse=True))
        out = "".join((" - " if sign < 0 else " + ") + body for sign, body in pieces)
        return out[3:] if out[1] == "+" else "-" + out[3:]  # a leading sign takes no spaces

    def __repr__(self) -> str:
        return f"<{self} over {self.chart}>"


def sum_of_products(
    chart: Chart, pairs: Iterable[tuple[int, RingElement, RingElement]]
) -> RingElement:
    """The sum of sign * x * y over (sign, x, y) in pairs, each sign 1 or
    -1 and each x and y over the chart: the ring's one product loop.

    The triples of each pair of terms are multiplied and summed per
    output exponent as plain ints, over every pair at once, and each sum
    that does not cancel is normalized once.  Two sums with different
    denominators meet over their lcm, so an exponent's denominator is at
    most the lcm of its pairs' denominators, never their product.  The
    outer loop runs over the factor with fewer terms.  The exponent of a
    product of terms is the sum of their keys, and each key is
    range-tested once, as _check_keys does, when it first appears."""
    lift, top = chart._lift, chart._top
    sums: dict[Key, Triple] = {}
    for sign, x, y in pairs:
        if (x.chart is not chart or y.chart is not chart) and not x.chart == chart == y.chart:
            raise ChartMismatchError(f"factors over {x.chart} and {y.chart}, not {chart}")
        left, right = x._terms, y._terms
        if len(left) > len(right):
            left, right = right, left
        for e1, (a1, b1, d1) in left.items():
            if sign < 0:
                a1, b1 = -a1, -b1
            for e2, (a2, b2, d2) in right.items():
                a = a1 * a2 - b1 * b2
                b = a1 * b2 + b1 * a2
                d = d1 * d2
                expo = e1 + e2
                acc = sums.get(expo)
                if acc is None:
                    if (expo + lift) & top:
                        raise ValidationError(_OUT_OF_RANGE)
                    sums[expo] = (a, b, d)
                    continue
                p, q, f = acc
                if f == d:
                    sums[expo] = (p + a, q + b, d)
                else:
                    g = gcd(f, d)
                    f, d = f // g, d // g
                    sums[expo] = (p * d + a * f, q * d + b * f, f * d * g)
    return RingElement._of_valid(
        chart, {e: _norm(*t) for e, t in sums.items() if t[0] or t[1]}
    )


# --- parser -----------------------------------------------------------


_OPERATORS = "+-*^();/"
# Operators and ASCII whitespace become the one separator " ", which keeps
# every position; other whitespace stays inside a word.
_SEPARATORS = str.maketrans(
    dict.fromkeys(_OPERATORS + "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f", " ")
)


class _Tokens:
    """Hand lexer producing (kind, text, pos) triples."""

    def __init__(self, src: str) -> None:
        self.items = _lex(src)
        self.cursor = 0

    def peek(self) -> tuple[str, str, int]:
        return self.items[self.cursor]

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        item = self.items[self.cursor]
        if kind is not None and item[0] != kind:
            raise ParseError(f"expected {kind!r}, found {item[1]!r}", item[2])
        self.cursor += 1
        return item


def _lex(src: str) -> list[tuple[str, str, int]]:
    """The tokens of a text in one pass over its words.  With each
    operator and ASCII whitespace character turned into a space, which
    keeps every position, str.split(" ") gives the words between them, one
    piece per separator.  An ASCII word of digits is a numeral and an
    ASCII identifier an identifier, each taken whole; any other word, one
    with a non-ASCII character or a mixed one such as 2x or 1.5, is read
    character by character (_lex_chars).  Each separator that is an
    operator is a token."""
    items: list[tuple[str, str, int]] = []
    append = items.append
    size = len(src)
    pos = 0
    for word in src.translate(_SEPARATORS).split(" "):
        if word:
            if not word.isascii():
                _lex_chars(word, pos, items)
            elif word.isdigit():
                append(("num", word, pos))
            elif word.isidentifier():
                append(("ident", word, pos))
            else:
                _lex_chars(word, pos, items)
            pos += len(word)
        if pos < size:
            ch = src[pos]
            if ch in _OPERATORS:
                append((ch, ch, pos))
            pos += 1
    append(("end", "", size))
    return items


def _lex_chars(word: str, start: int, items: list[tuple[str, str, int]]) -> None:
    """The tokens of a word, one character at a time: whitespace is
    skipped, a run of ASCII digits is a numeral, a letter or underscore
    starts an identifier that takes any letter, digit or underscore, and
    any other character is refused."""
    i = 0
    while i < len(word):
        ch = word[i]
        j = i + 1
        if ch.isspace():
            i = j
            continue
        if "0" <= ch <= "9":
            while j < len(word) and "0" <= word[j] <= "9":
                j += 1
            items.append(("num", word[i:j], start + i))
        elif ch.isalpha() or ch == "_":
            while j < len(word) and (word[j].isalnum() or word[j] == "_"):
                j += 1
            items.append(("ident", word[i:j], start + i))
        else:
            raise ParseError(f"unexpected character {ch!r}", start + i)
        i = j


def parse_expr(src: str, chart: Chart) -> RingElement:
    """Parse expression text into a canonical ring element.

    Grammar:
        expr   := ('+'|'-')? term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := atom ('^' uint)?
        atom   := rational | 'I' | ident | 'E' '(' ident ';' int ')'
                | 'cos' '(' ident ')' | 'sin' '(' ident ')' | '(' expr ')'

    with rationals written p/q or as integers of at most MAX_DIGITS
    digits, the integer after '^' or in E(y; k) at most MAX_EXPONENT in
    absolute value, and every product or power at most MAX_EXPONENT in
    absolute value in each coordinate's exponent and at most MAX_TERMS
    terms, both judged before it is built.  cos and sin
    expand into Fourier exponentials: cos(y) = (E(y;1)+E(y;-1))/2 and
    sin(y) = (E(y;1)-E(y;-1))/(2i).
    """
    toks = _Tokens(src)
    value = _parse_sum(toks, chart)
    kind, text, pos = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", pos)
    return value


def _parse_sum(toks: _Tokens, chart: Chart) -> RingElement:
    kind, _, _ = toks.peek()
    negate = False
    if kind in ("+", "-"):
        toks.take()
        negate = kind == "-"
    total = _parse_term(toks, chart)
    if negate:
        total = -total
    while True:
        kind, _, _ = toks.peek()
        if kind not in ("+", "-"):
            return total
        toks.take()
        rhs = _parse_term(toks, chart)
        total = total + rhs if kind == "+" else total - rhs


def _parse_term(toks: _Tokens, chart: Chart) -> RingElement:
    value = _parse_factor(toks, chart)
    while toks.peek()[0] == "*":
        _, _, pos = toks.take()
        rhs = _parse_factor(toks, chart)
        _check_product(((value, 1), (rhs, 1)), pos)
        value = value * rhs
    return value


def _parse_factor(toks: _Tokens, chart: Chart) -> RingElement:
    value = _parse_atom(toks, chart)
    if toks.peek()[0] == "^":
        toks.take()
        kind, text, pos = toks.take()
        if kind != "num":
            raise ParseError("exponent must be a nonnegative integer", pos)
        power = _bounded(text, pos)
        _check_product(((value, power),), pos)
        value = value ** power
    return value


def _check_product(factors: tuple[tuple[RingElement, int], ...], pos: int) -> None:
    """Raise ParseError when the product of the factors, each to its power,
    could have a coordinate exponent above MAX_EXPONENT in absolute value
    or more than MAX_TERMS terms; judged from the terms of the factors,
    before the product is built.  No coordinate's exponent can exceed the
    sum of p times each factor's largest |exponent|, so the coordinates
    are walked one by one only when that sum does.  A factor of t terms to
    the power p has at most comb(t + p - 1, p) terms, one per multiset of
    p of its terms.  The exponents are decoded from their keys once."""
    exponents = [([_decode(f.chart, k) for k in f._terms], p) for f, p in factors]
    if all(e for e, _ in exponents) and MAX_EXPONENT < sum(
        p * max(max(map(max, e)), -min(map(min, e))) for e, p in exponents
    ):
        dim = factors[0][0].chart.dim
        high, low = [0] * dim, [0] * dim
        for e, p in exponents:
            # one pass over the factor's exponents, coordinate by coordinate
            for i, column in enumerate(zip(*e)):
                high[i] += p * max(column)
                low[i] += p * min(column)
        if any(abs(reach) > MAX_EXPONENT for reach in high + low):
            raise ParseError(f"exponent exceeds the bound {MAX_EXPONENT}", pos)
    terms = prod(comb(max(len(f._terms) + p - 1, 0), p) for f, p in factors)
    if terms > MAX_TERMS:
        raise ParseError(f"product or power could exceed {MAX_TERMS} terms", pos)


def _parse_int(toks: _Tokens) -> int:
    sign = 1
    kind, _, _ = toks.peek()
    if kind in ("+", "-"):
        toks.take()
        sign = -1 if kind == "-" else 1
    _, text, pos = toks.take("num")
    return sign * _bounded(text, pos)


def _bounded(text: str, pos: int) -> int:
    """A digit string as an int of at most MAX_EXPONENT; its length is
    judged first, so that no huge literal is converted."""
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise ParseError(f"integer exceeds the bound {MAX_EXPONENT}", pos)
    return int(digits)


def _numeral(text: str, pos: int) -> int:
    """A digit string as an int, of at most MAX_DIGITS digits."""
    digits = text.lstrip("0") or "0"
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"numeral has more than {MAX_DIGITS} digits", pos)
    return int(digits)


def _rational_literal(toks: _Tokens, text: str, pos: int) -> tuple[int, int]:
    """The rational literal whose first numeral, text at pos, was just
    taken, as (p, q) with q > 0: an integer p has q = 1.  The one reader
    of rational literals, in parse_expr and parse_rational alike."""
    numer = _numeral(text, pos)
    if toks.peek()[0] != "/":
        return numer, 1
    toks.take()
    _, dtext, dpos = toks.take("num")
    denom = _numeral(dtext, dpos)
    if denom == 0:
        raise ParseError("zero denominator", dpos)
    return numer, denom


def parse_rational(src: str) -> Scalar:
    """A signed rational literal as a real Scalar, read by the rule
    parse_expr reads rationals with: an optional sign, then an integer or
    p/q, each numeral of at most MAX_DIGITS digits."""
    toks = _Tokens(src)
    sign = toks.peek()[0]
    if sign in ("+", "-"):
        toks.take()
    _, text, pos = toks.take("num")
    numer, denom = _rational_literal(toks, text, pos)
    kind, text, pos = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", pos)
    return _make(-numer if sign == "-" else numer, 0, denom)


def _parse_atom(toks: _Tokens, chart: Chart) -> RingElement:
    kind, text, pos = toks.take()
    if kind == "num":
        # The constant's triple (p/g, 0, q/g), g = gcd(p, q), built directly.
        numer, denom = _rational_literal(toks, text, pos)
        terms = {0: _norm(numer, 0, denom)} if numer else {}
        return RingElement._of_valid(chart, terms)
    if kind == "(":
        inner = _parse_sum(toks, chart)
        toks.take(")")
        return inner
    if kind == "ident":
        if text == "I":
            return RingElement.constant(chart, IMAG)
        if text == "E":
            toks.take("(")
            _, name, npos = toks.take("ident")
            i = _periodic_index(chart, name, npos)
            toks.take(";")
            k = _parse_int(toks)
            toks.take(")")
            return _unit(chart, i, k)
        if text in ("cos", "sin"):
            toks.take("(")
            _, name, npos = toks.take("ident")
            i = _periodic_index(chart, name, npos)
            toks.take(")")
            plus, minus = _unit(chart, i, 1), _unit(chart, i, -1)
            if text == "cos":
                return (plus + minus).scale(HALF)
            return (plus - minus).scale(_MINUS_HALF_I)
        i = chart._positions.get(text)
        if i is None:
            raise ParseError(f"unknown coordinate {text!r}", pos)
        if not chart.affine[i]:
            raise ParseError(
                f"periodic coordinate {text!r} cannot carry a polynomial degree; "
                f"use E({text}; k), cos({text}) or sin({text})",
                pos,
            )
        return _unit(chart, i, 1)
    raise ParseError(f"unexpected token {text!r}", pos)


def _periodic_index(chart: Chart, name: str, pos: int) -> int:
    """The index of a periodic coordinate named in E(y; k), cos(y) or sin(y)."""
    i = chart._positions.get(name)
    if i is None:
        raise ParseError(f"unknown coordinate {name!r}", pos)
    if chart.affine[i]:
        raise ParseError(f"coordinate {name!r} is affine, not periodic", pos)
    return i


def _unit(chart: Chart, i: int, k: int) -> RingElement:
    """The monomial with exponent k at coordinate i, and coefficient one."""
    return RingElement._of_valid(chart, {k << chart._shifts[i]: (1, 0, 1)})
