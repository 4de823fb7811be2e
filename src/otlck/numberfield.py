"""Number fields K = Q[x]/(f), their elements, and exact predicates.

A field carries its signature (s, t) computed by Sturm and an ordered list
of isolated embeddings: sigma_1..sigma_s real ascending, then the
upper-half-plane representatives sigma_{s+1}..sigma_{s+t}, then their
conjugates (so sigma_{s+t+k} = conj(sigma_{s+k})).  Elements are rational
vectors in the power basis of the defining root; all arithmetic is exact.

Integrality is decided by the minimal-polynomial criterion; no integral
basis or ideal machinery is used.  Congruence membership is supported for
principal moduli only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple

import sympy
from sympy.abc import x as _sx, y as _sy

from .balls import ComplexBall, horner_ball
from .errors import InputError, ReducibleError
from .polys import (
    IntPoly,
    RatPoly,
    factor_int_poly,
    irreducibility_witness,
    parse_int_poly,
    poly_gcd,
    sturm_count,
)
from .roots import DEFAULT_CTX, PrecisionContext, RootBox, isolate_roots


class NumberField:
    """Immutable number field; construct via new_field()."""

    def __init__(self, poly: IntPoly, signature, embeddings, ctx: PrecisionContext):
        self.poly = poly
        self.signature = signature
        self.ctx = ctx
        self._embeddings = {ctx.working_digits: tuple(embeddings)}
        self._min_polys = {}  # element coeffs -> monic minimal polynomial

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def s(self) -> int:
        return self.signature[0]

    @property
    def t(self) -> int:
        return self.signature[1]

    def embeddings(self, digits: Optional[int] = None) -> Tuple[RootBox, ...]:
        """Ordered embedding boxes, refined on demand.  The deterministic
        ordering is identical at every precision, so refinement preserves
        the sigma labeling."""
        key = self.ctx.working_digits
        while key < (digits or 0):
            key *= self.ctx.escalation_factor
        if key not in self._embeddings:
            sub = PrecisionContext(key, self.ctx.escalation_factor,
                                   max(self.ctx.max_digits, key))
            self._embeddings[key] = tuple(isolate_roots(self.poly, sub))
        return self._embeddings[key]

    def element(self, coeffs) -> "FieldElement":
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            raise InputError("coefficient vector longer than the degree")
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        return FieldElement(self, tuple(coeffs))

    def zero(self) -> "FieldElement":
        return self.element([])

    def one(self) -> "FieldElement":
        return self.element([1])

    def theta(self) -> "FieldElement":
        return self.element([0, 1])

    def from_rational(self, q) -> "FieldElement":
        return self.element([Fraction(q)])

    def parse_element(self, text: str) -> "FieldElement":
        """JSON array of exact rationals-as-strings, e.g. ["3","2"]."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad element JSON: {exc}") from exc
        if not isinstance(data, list):
            raise InputError("element must be a JSON array of rationals")
        return self.element([Fraction(str(c)) for c in data])

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"NumberField({self.poly}, signature={self.signature})"


def new_field(f, ctx: PrecisionContext = DEFAULT_CTX) -> NumberField:
    """Build a field from a monic irreducible integer polynomial (text,
    coefficient list, or IntPoly)."""
    if isinstance(f, str):
        f = parse_int_poly(f)
    elif not isinstance(f, IntPoly):
        f = IntPoly(tuple(f))
    if f.degree < 1:
        raise InputError("defining polynomial must have degree >= 1")
    if not f.is_monic:
        raise InputError("defining polynomial must be monic")
    w = irreducibility_witness(f)
    if w.status == "reducible":
        raise ReducibleError(f"{f} is reducible (factor {w.factor})", w.factor)
    if w.status == "unknown":
        factors = factor_int_poly(f)
        if len(factors) != 1 or factors[0][1] != 1:
            raise ReducibleError(
                f"{f} is reducible (factor {factors[0][0]})", factors[0][0]
            )
    s = sturm_count(f, None, None)
    t = (f.degree - s) // 2
    embeddings = isolate_roots(f, ctx)
    return NumberField(f, (s, t), embeddings, ctx)


@dataclass(frozen=True)
class FieldElement:
    """Element of a NumberField in the power basis of the defining root."""

    field: NumberField
    coeffs: Tuple[Fraction, ...]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise InputError("element is not rational")
        return self.coeffs[0]

    def _check_same(self, other: "FieldElement"):
        if self.field != other.field:
            raise InputError("elements belong to different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        f = self.field.poly
        # reduce modulo the monic defining polynomial
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod[k]
            if c == 0:
                continue
            prod[k] = Fraction(0)
            for i in range(d):
                prod[k - d + i] -= c * f.coeffs[i]
        return FieldElement(self.field, tuple(prod[:d]))

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise InputError("division by zero in the field")
        g = RatPoly(self.coeffs)
        f = self.field.poly.to_rat()
        # extended Euclid: u*g + v*f = gcd = 1
        r0, r1 = f, g
        s0, s1 = RatPoly(()), RatPoly((Fraction(1),))
        while not r1.is_zero:
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        assert r0.degree == 0
        inv = s0 * (1 / r0.coeffs[0])
        inv = inv % f
        coeffs = list(inv.coeffs) + [Fraction(0)] * (self.field.degree - len(inv.coeffs))
        return FieldElement(self.field, tuple(coeffs))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def to_json(self) -> str:
        return json.dumps([str(c) for c in self.coeffs])

    def __repr__(self):
        return f"FieldElement({list(map(str, self.coeffs))} in {self.field.poly})"


def elem_arith(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    """Dispatch form of the field arithmetic (add|sub|mul|div)."""
    ops = {
        "add": lambda: a + b,
        "sub": lambda: a - b,
        "mul": lambda: a * b,
        "div": lambda: a / b,
    }
    if op not in ops:
        raise InputError(f"unknown operation {op!r}")
    return ops[op]()


def char_poly(a: FieldElement) -> RatPoly:
    """Characteristic polynomial of multiplication by a: monic, degree d,
    equal to min_poly^(d/k)."""
    f = a.field.poly
    if a.is_rational:
        q = a.coeffs[0]
        base = RatPoly((-q, Fraction(1)))
        out = RatPoly((Fraction(1),))
        for _ in range(a.field.degree):
            out = out * base
        return out
    fy = f.to_sympy(_sy).as_expr()
    g = sum(
        sympy.Rational(c.numerator, c.denominator) * _sy**i
        for i, c in enumerate(a.coeffs)
    )
    res = sympy.resultant(fy, _sx - g, _sy)
    poly = sympy.Poly(sympy.expand(res), _sx)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return RatPoly(tuple(coeffs))


def min_poly(a: FieldElement) -> RatPoly:
    """Monic minimal polynomial over Q (squarefree part of the char poly),
    memoized on the field by the element's coefficients."""
    cache = a.field._min_polys
    if a.coeffs not in cache:
        ch = char_poly(a)
        cache[a.coeffs] = (ch // poly_gcd(ch, ch.derivative())).monic()
    return cache[a.coeffs]


def min_poly_int(a: FieldElement) -> IntPoly:
    """Primitive integer form of the minimal polynomial (positive lc)."""
    return min_poly(a).primitive_int()


def norm_trace(a: FieldElement) -> Tuple[Fraction, Fraction]:
    """(field norm, field trace), read off the characteristic polynomial."""
    ch = char_poly(a)
    d = a.field.degree
    norm = ch.coeffs[0] * (-1) ** d
    trace = -ch.coeffs[d - 1]
    return norm, trace


def is_algebraic_integer(a: FieldElement) -> bool:
    return min_poly(a).is_integral


def is_unit(a: FieldElement) -> bool:
    """True iff a and 1/a are both algebraic integers (integral minimal
    polynomial with constant term +-1)."""
    if a.is_zero:
        raise InputError("zero is not a unit candidate")
    m = min_poly(a)
    return m.is_integral and abs(m.coeffs[0]) == 1


def congruence_check(u: FieldElement, alpha: FieldElement) -> bool:
    """u = 1 (mod (alpha)) for the principal ideal (alpha):
    true iff (u - 1) / alpha is an algebraic integer."""
    u._check_same(alpha)
    if alpha.is_zero:
        raise InputError("congruence modulus must be nonzero")
    if not is_algebraic_integer(alpha):
        raise InputError("congruence modulus must be an algebraic integer")
    if not is_unit(u):
        raise InputError("congruence_check expects a unit")
    return is_algebraic_integer((u - u.field.one()) / alpha)


def element_ball(a: FieldElement, i: int, digits: int) -> ComplexBall:
    """Certified enclosure of sigma_i(a) (0-based embedding index), computed
    at the given precision.  Must be called inside an mp.workdps context at
    least that precise; embedding boxes are refined on demand."""
    if not 0 <= i < a.field.degree:
        raise InputError(f"embedding index {i} out of range for degree {a.field.degree}")
    boxes = a.field.embeddings(digits)
    box = boxes[i]
    return horner_ball(a.coeffs, box.ball())
