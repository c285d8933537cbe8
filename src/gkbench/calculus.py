"""Vector fields, differential forms, and chart maps with exact coefficients.

Forms are sparse: a k-form stores a map from strictly increasing index
tuples (i1 < ... < ik) to ring coefficients.  The exterior derivative,
interior product (contraction in the first slot), wedge product, Lie
derivative and Lie bracket are all implemented directly from their
coordinate formulas, so identities like the Cartan magic formula stay
honest test material instead of definitions.  A form is evaluated on
fields by contracting one field at a time, so this layer needs no
matrix and imports nothing from linalg.

The public constructors (`DiffForm(...)`, `VectorField(...)` and the
named constructors) validate what they are given: index arity,
strictly increasing indices inside the chart, one component per
coordinate, and every coefficient over the same chart; they drop zero
coefficients.  The results of +, -, scale, wedge, d, interior,
lie and the Lie bracket are built through private `_of_valid`
constructors that trust their terms.  That is sound because these
operations only combine valid inputs: merged indices are sorted and stay
inside the chart, every coefficient comes from ring operations on the
operands' coefficients (so it is over their chart), a product of nonzero
coefficients is nonzero because the function ring is an integral
domain, and a sum that cancels is deleted where it cancels.

Each result coefficient is accumulated once: X(f), each component of a
Lie bracket, and each coefficient of an interior or wedge product or of
a Lie derivative is one `sum_of_products` call over all of its signed
products, so no product or partial sum in between is built as an
element.  A Lie derivative differentiates each component of its field
at most once per coordinate, however many terms of the form read it.
A constant is not differentiated: X(f) of a constant f is zero without
a partial derivative, and d and the Lie derivative skip constants.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

from .errors import ChartMismatchError, ValidationError
from .ring import Chart, RingElement, Scalar, PERIODIC, quarter_phase, sum_of_products

Index = tuple[int, ...]
# Signed products (sign, x, y) of ring elements, summed by sum_of_products.
Pairs = list[tuple[int, RingElement, RingElement]]

_new = object.__new__


class VectorField:
    """A vector field written in the coordinate frame of its chart."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: tuple[RingElement, ...]) -> None:
        if len(components) != chart.dim:
            raise ValidationError("component count does not match chart")
        for c in components:
            if c.chart is not chart and c.chart != chart:
                raise ChartMismatchError("component over a different chart")
        self.chart = chart
        self.components = components

    @staticmethod
    def _of_valid(chart: Chart, components: tuple[RingElement, ...]) -> "VectorField":
        """A field from one component per coordinate over the chart, taken
        as it is (results of field operations)."""
        out = _new(VectorField)
        out.chart = chart
        out.components = components
        return out

    def __add__(self, other: "VectorField") -> "VectorField":
        _same_chart(self.chart, other.chart)
        return VectorField._of_valid(
            self.chart, tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __neg__(self) -> "VectorField":
        return VectorField._of_valid(self.chart, tuple(-c for c in self.components))

    def scale(self, f: Union[RingElement, Scalar]) -> "VectorField":
        if isinstance(f, Scalar):
            return VectorField._of_valid(self.chart, tuple(c.scale(f) for c in self.components))
        return VectorField._of_valid(
            self.chart, tuple(c if c.is_zero else f * c for c in self.components)
        )

    def apply(self, f: RingElement) -> RingElement:
        """Directional derivative X(f) = sum_i X^i d_i f."""
        if f.chart is not self.chart and f.chart != self.chart:
            raise ChartMismatchError("function over a different chart")
        return sum_of_products(self.chart, self._derivative_pairs(f, 1))

    def _derivative_pairs(self, f: RingElement, sign: int) -> Pairs:
        """(sign, X^i, d_i f) for each coordinate where both factors are
        nonzero, the pairs of sign * X(f); none when f is constant, which
        is differentiated in no coordinate."""
        if f.is_constant():
            return []
        pairs = []
        for name, comp in zip(self.chart.names, self.components):
            if comp.is_zero:
                continue
            derivative = f.partial(name)
            if not derivative.is_zero:
                pairs.append((sign, comp, derivative))
        return pairs

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.chart == other.chart and self.components == other.components

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.components):
            if c.is_zero:
                continue
            parts.append(f"({c})*d_{self.chart.names[i]}")
        return " + ".join(parts) if parts else "0"


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y] with components X(Y^i) - Y(X^i), each one sum of products."""
    _same_chart(x.chart, y.chart)
    return VectorField._of_valid(
        x.chart,
        tuple(
            sum_of_products(x.chart, x._derivative_pairs(yc, 1) + y._derivative_pairs(xc, -1))
            for xc, yc in zip(x.components, y.components)
        ),
    )


def _same_chart(a: Chart, b: Chart) -> None:
    if a is not b and a != b:
        raise ChartMismatchError(f"charts differ: {a} vs {b}")


def _merge_sign(left: Index, right: Index) -> tuple[Index, int]:
    """The sorted concatenation of two strictly increasing tuples and the
    sign of the sorting permutation, from its inversions; raises
    ValueError on a repeated index, which wedge reads as a zero term."""
    merged = list(left)
    sign = 1
    for r in right:
        pos = len(merged)
        for i, v in enumerate(merged):
            if v == r:
                raise ValueError("repeated index")
            if v > r:
                pos = i
                break
        sign *= (-1) ** (len(merged) - pos)
        merged.insert(pos, r)
    return tuple(merged), sign


def _coordinate_partials(f: RingElement) -> list[tuple[int, RingElement]]:
    """(m, d_m f) for each coordinate m where the derivative is nonzero;
    none for a constant, which is differentiated in no coordinate."""
    if f.is_constant():
        return []
    out = []
    for m, name in enumerate(f.chart.names):
        derivative = f.partial(name)
        if not derivative.is_zero:
            out.append((m, derivative))
    return out


def _sum_groups(chart: Chart, groups: dict[Index, Pairs]) -> dict[Index, RingElement]:
    """One sum of products per output index, leaving out the sums that
    cancel."""
    out = {}
    for idx, pairs in groups.items():
        total = sum_of_products(chart, pairs)
        if not total.is_zero:
            out[idx] = total
    return out


def _accumulate(
    out: dict[Index, RingElement], idx: Index, coeff: RingElement, sign: int = 1
) -> None:
    """Add sign * coeff, for a nonzero coeff and a sign of 1 or -1, into
    out[idx], deleting the key when the sum cancels, so that out never
    holds a zero coefficient.  Only a coefficient that meets no other
    is negated; where two meet, the ring difference takes the sign."""
    cur = out.get(idx)
    if cur is None:
        out[idx] = coeff if sign > 0 else -coeff
    else:
        coeff = cur + coeff if sign > 0 else cur - coeff
        if coeff.is_zero:
            del out[idx]
        else:
            out[idx] = coeff


class DiffForm:
    """A differential form of fixed degree with sparse exact coefficients."""

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: Chart, degree: int, terms: Mapping[Index, RingElement]) -> None:
        if degree < 0:
            raise ValidationError("negative form degree")
        clean: dict[Index, RingElement] = {}
        for idx, coeff in terms.items():
            if len(idx) != degree:
                raise ValidationError("index arity does not match degree")
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise ValidationError("indices must be strictly increasing")
            if idx and (idx[0] < 0 or idx[-1] >= chart.dim):
                raise ValidationError("index out of chart range")
            if coeff.chart is not chart and coeff.chart != chart:
                raise ChartMismatchError("coefficient over a different chart")
            if not coeff.is_zero:
                clean[idx] = coeff
        self.chart = chart
        self.degree = degree
        self.terms = clean

    @staticmethod
    def _of_valid(chart: Chart, degree: int, terms: dict[Index, RingElement]) -> "DiffForm":
        """A form from canonical terms (strictly increasing indices of the
        degree's arity inside the chart, nonzero coefficients over it),
        taken as they are: the dict becomes the form's."""
        out = _new(DiffForm)
        out.chart = chart
        out.degree = degree
        out.terms = terms
        return out

    # --- constructors ----------------------------------------------------

    @staticmethod
    def zero(chart: Chart, degree: int) -> "DiffForm":
        return DiffForm(chart, degree, {})

    @staticmethod
    def function(f: RingElement) -> "DiffForm":
        return DiffForm(f.chart, 0, {(): f})

    @staticmethod
    def d_coord(chart: Chart, name: str) -> "DiffForm":
        return DiffForm(chart, 1, {(chart.index(name),): RingElement.one(chart)})

    # --- linear structure --------------------------------------------------

    def __add__(self, other: "DiffForm") -> "DiffForm":
        return self._signed_sum(other, 1)

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self._signed_sum(other, -1)

    def _signed_sum(self, other: "DiffForm", sign: int) -> "DiffForm":
        """self + sign * other, one merge for the sum and the difference."""
        _same_chart(self.chart, other.chart)
        if self.degree != other.degree:
            raise ValidationError("cannot add forms of different degree")
        if not other.terms:
            return self
        if not self.terms and sign > 0:
            return other
        out = dict(self.terms)
        for idx, coeff in other.terms.items():
            _accumulate(out, idx, coeff, sign)
        return DiffForm._of_valid(self.chart, self.degree, out)

    def __neg__(self) -> "DiffForm":
        return DiffForm._of_valid(
            self.chart, self.degree, {i: -c for i, c in self.terms.items()}
        )

    def scale(self, f: Union[RingElement, Scalar]) -> "DiffForm":
        if isinstance(f, Scalar):
            terms = {i: c.scale(f) for i, c in self.terms.items()}
        else:
            terms = {i: f * c for i, c in self.terms.items()}
        return DiffForm._of_valid(self.chart, self.degree, {} if f.is_zero else terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_real(self) -> bool:
        return all(c.is_real for c in self.terms.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffForm):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.degree == other.degree
            and self.terms == other.terms
        )

    __hash__ = None  # type: ignore[assignment]

    # --- the calculus ------------------------------------------------------
    #
    # Each result is built canonical: merged indices stay sorted and
    # inside the chart, and a coefficient that cancels is left out where
    # it cancels (by _sum_groups or _accumulate).  Wedge, interior and
    # the Lie derivative collect their signed products by output index
    # and sum each index's products in one sum_of_products call.

    def wedge(self, other: "DiffForm") -> "DiffForm":
        _same_chart(self.chart, other.chart)
        groups: dict[Index, Pairs] = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                try:
                    merged, sign = _merge_sign(i1, i2)
                except ValueError:
                    continue
                groups.setdefault(merged, []).append((sign, c1, c2))
        return DiffForm._of_valid(
            self.chart, self.degree + other.degree, _sum_groups(self.chart, groups)
        )

    def d(self) -> "DiffForm":
        """Exterior derivative; a constant coefficient is differentiated
        in no coordinate."""
        out: dict[Index, RingElement] = {}
        names = self.chart.names
        for idx, coeff in self.terms.items():
            if coeff.is_constant():
                continue
            for i in range(self.chart.dim):
                if i in idx:
                    continue
                dcoeff = coeff.partial(names[i])
                if dcoeff.is_zero:
                    continue
                merged, sign = _merge_sign((i,), idx)
                _accumulate(out, merged, dcoeff, sign)
        return DiffForm._of_valid(self.chart, self.degree + 1, out)

    def interior(self, x: VectorField) -> "DiffForm":
        """Contraction in the first slot."""
        _same_chart(self.chart, x.chart)
        if self.degree == 0:
            raise ValidationError("cannot contract a 0-form")
        groups: dict[Index, Pairs] = {}
        for idx, coeff in self.terms.items():
            for pos, i in enumerate(idx):
                comp = x.components[i]
                if not comp.is_zero:
                    rest = idx[:pos] + idx[pos + 1 :]
                    groups.setdefault(rest, []).append((-1 if pos % 2 else 1, comp, coeff))
        return DiffForm._of_valid(self.chart, self.degree - 1, _sum_groups(self.chart, groups))

    def lie(self, x: VectorField) -> "DiffForm":
        """Lie derivative along x, computed term by term from the
        derivation rule (not from the Cartan formula, which stays a
        theorem to test against):

            L_X(f dx_I) = X(f) dx_I
                + sum_j f dx_{i1} ^ ... ^ d(X^{ij}) ^ ... ^ dx_{ik}.

        The product f * d_m X^{ij} lands on I with i_j replaced by m, with
        the sign that sorts it, and on nothing when m is another index of
        I.  Each component of x is differentiated once, in each
        coordinate, when a term first needs it, and a constant component
        not at all.  The signed products are collected by output index
        and each index's products summed in one sum_of_products call."""
        _same_chart(self.chart, x.chart)
        chart = self.chart
        partials: dict[int, list[tuple[int, RingElement]]] = {}
        groups: dict[Index, Pairs] = {}
        for idx, coeff in self.terms.items():
            pairs = x._derivative_pairs(coeff, 1)  # X(f) dx_I
            if pairs:
                groups.setdefault(idx, []).extend(pairs)
            for pos, i in enumerate(idx):
                dcomp = partials.get(i)
                if dcomp is None:
                    dcomp = partials[i] = _coordinate_partials(x.components[i])
                rest = idx[:pos] + idx[pos + 1 :]
                for m, dm in dcomp:
                    if m in rest:
                        continue
                    merged, sign = _merge_sign((m,), rest)
                    # d x_m moves from slot pos to the front: (-1)^pos more
                    groups.setdefault(merged, []).append((-sign if pos % 2 else sign, coeff, dm))
        return DiffForm._of_valid(chart, self.degree, _sum_groups(chart, groups))

    def apply(self, vectors: Sequence[VectorField]) -> RingElement:
        """Full evaluation w(v1, ..., vk): contraction with v1, then v2, and
        so on down to a function."""
        if len(vectors) != self.degree:
            raise ValidationError("wrong number of vector arguments")
        form = self
        for v in vectors:
            form = form.interior(v)
        return form.terms.get((), RingElement.zero(self.chart))

    def covector(self) -> tuple[RingElement, ...]:
        """A 1-form's components in the coordinate coframe, one per
        coordinate."""
        zero = RingElement.zero(self.chart)
        return tuple(self.terms.get((i,), zero) for i in range(self.chart.dim))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.chart.names
        parts = []
        for idx in sorted(self.terms):
            coeff = self.terms[idx]
            frame = "^".join(f"d{names[i]}" for i in idx)
            if not frame:
                parts.append(f"{coeff}")
            elif coeff == RingElement.one(self.chart):
                parts.append(frame)
            else:
                parts.append(f"({coeff})*{frame}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<{self} : {self.degree}-form over {self.chart}>"


# --- chart maps ----------------------------------------------------------


class ChartMap:
    """A map between charts, given per target coordinate.

    An affine target coordinate is assigned a ring element over the source
    chart.  A periodic target coordinate is assigned a pair
    (source periodic name or None, quarter-turn offset), meaning
    target = source + offset * pi/2, with None for a constant angle.
    """

    __slots__ = ("source", "target", "affine_values", "periodic_values")

    def __init__(
        self, source: Chart, target: Chart, affine_values: Mapping[str, RingElement],
        periodic_values: Mapping[str, tuple[Union[str, None], int]],
    ) -> None:
        for name, kind in target.coords:
            if kind == PERIODIC:
                if name not in periodic_values:
                    raise ValidationError(f"no assignment for periodic target {name!r}")
                src, _ = periodic_values[name]
                if src is not None:
                    i = source.index(src)
                    if source.is_affine(i):
                        raise ValidationError(
                            f"periodic target {name!r} must pull back from a periodic "
                            "source coordinate"
                        )
            else:
                if name not in affine_values:
                    raise ValidationError(f"no assignment for affine target {name!r}")
                if affine_values[name].chart != source:
                    raise ChartMismatchError("assignment over a different chart")
        self.source = source
        self.target = target
        self.affine_values = affine_values
        self.periodic_values = periodic_values

    def pull_function(self, f: RingElement) -> RingElement:
        if f.chart != self.target:
            raise ChartMismatchError("function is not over the target chart")
        out = RingElement.zero(self.source)
        for expo, coeff in f.terms.items():
            piece = RingElement.constant(self.source, coeff)
            for i, e in enumerate(expo):
                if e == 0:
                    continue
                name, kind = self.target.coords[i]
                if kind == PERIODIC:
                    src, offset = self.periodic_values[name]
                    piece = piece.scale(quarter_phase(e * offset))
                    if src is not None:
                        piece = piece * RingElement.fourier(self.source, src, e)
                else:
                    piece = piece * (self.affine_values[name] ** e)
            out = out + piece
        return out

    def _pull_coordinate_one_form(self, i: int) -> DiffForm:
        name, kind = self.target.coords[i]
        if kind == PERIODIC:
            src, _ = self.periodic_values[name]
            if src is None:
                return DiffForm.zero(self.source, 1)
            return DiffForm.d_coord(self.source, src)
        return DiffForm.function(self.affine_values[name]).d()

    def pull_form(self, form: DiffForm) -> DiffForm:
        if form.chart != self.target:
            raise ChartMismatchError("form is not over the target chart")
        out = DiffForm.zero(self.source, form.degree)
        for idx, coeff in form.terms.items():
            piece = DiffForm.function(self.pull_function(coeff))
            for i in idx:
                piece = piece.wedge(self._pull_coordinate_one_form(i))
            out = out + piece
        return out
