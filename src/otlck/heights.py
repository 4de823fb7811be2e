"""Mahler measure, absolute Weil heights, the exact root-of-unity test,
unit-point heights for t = 2, and constructive bounded-height enumeration.

The height convention is the absolute multiplicative height
H(alpha) = M(min_poly)^(1/deg); the projective height over Q is computed
exactly place by place and serves as the degree-1 oracle.  The
root-of-unity test is purely exact polynomial arithmetic (Kronecker), so
boundary ties at height 1 in the enumerator are always decidable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Union

import sympy
from mpmath import mp, mpf

from .balls import horner_ball
from .errors import BoundaryTie, BudgetExceeded, InputError, PrecisionExhausted
from .numberfield import FieldElement, element_ball, is_unit, min_poly_int
from .polys import (
    IntPoly,
    conjugate_ratio_poly,
    factor_int_poly,
    is_irreducible,
    squarefree_decomposition,
    squarefree_part,
)
from .roots import (
    DEFAULT_CTX,
    PrecisionContext,
    RootBox,
    isolate_roots,
    mpf_to_fraction,
)
from .units import Decision, UnitSubgroup, is_equal_modulus

_GUARD = 12
DEFAULT_EPS = Fraction(1, 10**30)


@dataclass(frozen=True)
class AlgebraicNumber:
    """One root of an irreducible primitive integer polynomial, selected by
    an isolating box."""

    min_poly: IntPoly
    box: RootBox


@dataclass(frozen=True)
class HeightValue:
    """Absolute multiplicative height (or Mahler measure) with certified
    error radius; exact is set when the value is known exactly."""

    value: object
    error: object
    convention: str = "absolute"
    exact: Optional[Fraction] = None

    @property
    def as_float(self) -> float:
        return float(self.value)


def _mahler_interval(f: IntPoly, digits: int, ctx: PrecisionContext):
    """Certified [lo, hi] enclosure of M(f) at roughly the given digits."""
    cont, parts = squarefree_decomposition(f)
    sub = PrecisionContext(
        max(digits, ctx.working_digits), ctx.escalation_factor,
        max(ctx.max_digits, digits),
    )
    with mp.workdps(digits + _GUARD):
        lo = hi = abs(mpf(cont.numerator) / mpf(cont.denominator))
        for g, mult in parts:
            glo = ghi = mpf(abs(g.lc))
            if g.degree >= 1:
                boxes = isolate_roots(g, sub)
                for b in boxes:
                    a = b.ball().abs_ball()
                    glo *= max(mpf(1), a.lo)
                    ghi *= max(mpf(1), a.hi)
            lo *= glo**mult
            hi *= ghi**mult
        slack = mpf(2) ** (-mp.prec + 8)
        return lo * (1 - slack), hi * (1 + slack)


def mahler_measure(f: IntPoly, eps=DEFAULT_EPS, ctx: PrecisionContext = DEFAULT_CTX) -> HeightValue:
    """M(f) = |lc| * prod max(1, |root|) within eps, from certified boxes."""
    if f.is_zero:
        raise InputError("Mahler measure of the zero polynomial")
    eps = Fraction(eps)
    if f.degree == 0:
        v = Fraction(abs(f.coeffs[0]))
        with mp.workdps(ctx.working_digits):
            return HeightValue(mpf(v.numerator) / mpf(v.denominator), mpf(0), exact=v)
    for digits in ctx.ladder():
        lo, hi = _mahler_interval(f, digits, ctx)
        with mp.workdps(digits + _GUARD):
            if hi - lo <= mpf(eps.numerator) / mpf(eps.denominator):
                return HeightValue((lo + hi) / 2, (hi - lo) / 2)
    raise PrecisionExhausted("Mahler measure did not converge below eps")


def _minpoly_of(a) -> IntPoly:
    if isinstance(a, FieldElement):
        return min_poly_int(a)
    if isinstance(a, AlgebraicNumber):
        return a.min_poly
    if isinstance(a, IntPoly):
        return a
    if isinstance(a, (int, Fraction)):
        q = Fraction(a)
        return IntPoly((-q.numerator, q.denominator)).primitive()
    raise InputError(f"cannot take a minimal polynomial of {a!r}")


def _is_zero_input(a) -> bool:
    if isinstance(a, FieldElement):
        return a.is_zero
    if isinstance(a, (int, Fraction)):
        return Fraction(a) == 0
    if isinstance(a, AlgebraicNumber):
        return a.min_poly == IntPoly((0, 1))
    return False


def height_algebraic(a, eps=DEFAULT_EPS, ctx: PrecisionContext = DEFAULT_CTX) -> HeightValue:
    """Absolute multiplicative height H(a) = M(min_poly)^(1/deg).

    H(0) = 1 by the projective convention [0:1].  Rational inputs and roots
    of unity are computed exactly."""
    if _is_zero_input(a):
        with mp.workdps(ctx.working_digits):
            return HeightValue(mpf(1), mpf(0), exact=Fraction(1))
    g = _minpoly_of(a)
    eps = Fraction(eps)
    if g.degree == 1:
        h = Fraction(max(abs(g.coeffs[0]), abs(g.coeffs[1])))
        with mp.workdps(ctx.working_digits):
            return HeightValue(mpf(h.numerator) / mpf(h.denominator), mpf(0), exact=h)
    if _cyclotomic_minpoly(g):
        with mp.workdps(ctx.working_digits):
            return HeightValue(mpf(1), mpf(0), exact=Fraction(1))
    d = g.degree
    for digits in ctx.ladder():
        lo, hi = _mahler_interval(g, digits, ctx)
        with mp.workdps(digits + _GUARD):
            hlo = lo ** (mpf(1) / d)
            hhi = hi ** (mpf(1) / d)
            slack = mpf(2) ** (-mp.prec + 8)
            hlo, hhi = hlo * (1 - slack), hhi * (1 + slack)
            if hhi - hlo <= mpf(eps.numerator) / mpf(eps.denominator):
                return HeightValue((hlo + hhi) / 2, (hhi - hlo) / 2)
    raise PrecisionExhausted("height did not converge below eps")


# ---------------------------------------------------------------------------
# Kronecker


def _cyclotomic_minpoly(g: IntPoly) -> bool:
    """True iff the irreducible primitive g is the minimal polynomial of a
    root of unity, i.e. g = Phi_n for some n with phi(n) = deg g.
    n is searched up to 2*deg^2 (phi(n) >= sqrt(n/2))."""
    d = g.degree
    if d < 1 or g.lc != 1 or abs(g.coeffs[0]) != 1:
        return False
    return any(
        _euler_phi(n) == d
        and IntPoly.from_sympy(sympy.cyclotomic_poly(n, polys=True)) == g
        for n in range(1, 2 * d * d + 1)
    )


def _euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def is_root_of_unity(a) -> bool:
    """Exact Kronecker test: true iff the minimal polynomial divides some
    x^n - 1.  Purely exact polynomial arithmetic, no numerics."""
    if _is_zero_input(a):
        raise InputError("zero is not in the multiplicative group")
    return _cyclotomic_minpoly(_minpoly_of(a))


# ---------------------------------------------------------------------------
# Exact projective height over Q


def projective_height_rational(coords) -> Fraction:
    """H([x_0 : ... : x_n]) over Q, exactly: clear denominators, divide by
    the gcd, take the max absolute value."""
    qs = [Fraction(c) for c in coords]
    if all(q == 0 for q in qs):
        raise InputError("projective point needs a nonzero coordinate")
    denom = math.lcm(*[q.denominator for q in qs])
    ints = [int(q * denom) for q in qs]
    g = math.gcd(*[abs(v) for v in ints])
    return Fraction(max(abs(v) // g for v in ints))


# ---------------------------------------------------------------------------
# Unit-point height (t = 2)


def unit_point_height(
    u: FieldElement, eps=DEFAULT_EPS, ctx: Optional[PrecisionContext] = None
) -> HeightValue:
    """Absolute height of the conjugate ratio sigma_{s+2}(u)/sigma_{s+1}(u)
    for a unit in a field with exactly two conjugate pairs.  The ratio's
    minimal polynomial is the factor of the conjugate-ratio polynomial whose
    ball evaluation at the ratio alone contains 0; non-archimedean places
    contribute nothing because the ratio is a quotient of units."""
    fld = u.field
    ctx = ctx or fld.ctx
    if fld.t != 2:
        raise InputError("unit_point_height requires a field with t = 2")
    if not is_unit(u):
        raise InputError("unit_point_height requires a unit")
    g = min_poly_int(u)
    if g.degree == 1 or is_root_of_unity(u):
        with mp.workdps(ctx.working_digits):
            return HeightValue(mpf(1), mpf(0), exact=Fraction(1))
    ratio_sf = squarefree_part(conjugate_ratio_poly(g))
    factors = [f for f, _ in factor_int_poly(ratio_sf)]
    target = _match_ratio_factor(u, ratio_sf, factors, ctx)
    if _cyclotomic_minpoly(target):
        with mp.workdps(ctx.working_digits):
            return HeightValue(mpf(1), mpf(0), exact=Fraction(1))
    return height_algebraic(AlgebraicNumber(target, None), eps, ctx)


def _match_ratio_factor(u, ratio_sf, factors, ctx) -> IntPoly:
    """The irreducible factor of ratio_sf vanishing at the ratio
    sigma_{s+2}(u)/sigma_{s+1}(u).  Every factor is evaluated on a ball
    around the ratio: the true factor's enclosure always contains 0, and the
    others' exclude it once the ball is small enough, because the factors
    of the squarefree ratio_sf have no common root."""
    if len(factors) == 1:
        return factors[0]
    s = u.field.s
    for digits in ctx.ladder():
        with mp.workdps(digits + _GUARD):
            try:
                r = element_ball(u, s + 1, digits) / element_ball(u, s, digits)
            except PrecisionExhausted:
                continue
            hits = [
                fac for fac in factors
                if horner_ball(fac.coeffs, r).abs_ball().lo <= 0
            ]
        if len(hits) == 1:
            return hits[0]
    raise PrecisionExhausted("could not attribute the conjugate ratio to a factor")


# ---------------------------------------------------------------------------
# Constructive Northcott enumeration


@dataclass(frozen=True)
class EnumeratedNumber:
    """One algebraic number in a bounded-height sweep: its minimal
    polynomial, which root (index in embedding order), and its height."""

    min_poly: IntPoly
    root_index: int
    height: HeightValue
    is_root_of_unity: bool


def enumerate_bounded_height(
    deg_max: int,
    h_max,
    ctx: PrecisionContext = DEFAULT_CTX,
    candidate_budget: int = 2_000_000,
) -> List[EnumeratedNumber]:
    """The complete finite list of algebraic numbers with degree <= deg_max
    and absolute height <= h_max, one record per number, sorted by
    (degree, minimal-polynomial coefficients, root index).

    Coefficients are swept inside the Mignotte-type box
    |a_i| <= binom(d, i) * h_max^d; candidates are kept when primitive,
    irreducible, and M(f) <= h_max^d with exact tie handling (ties at
    M = 1 are settled by the exact cyclotomic test)."""
    if deg_max < 1 or deg_max > 6:
        raise InputError("deg_max must be between 1 and 6")
    h_max = Fraction(h_max)
    if h_max < 1:
        raise InputError("h_max must be >= 1")
    total = 0
    for d in range(1, deg_max + 1):
        bound = h_max**d
        est = int(bound)  # positive leading coefficients only
        for i in range(d):
            est *= 2 * int(math.comb(d, i) * bound) + 1
        total += est
        if total > candidate_budget:
            raise BudgetExceeded(
                f"candidate estimate {total} exceeds budget {candidate_budget}"
            )
    out: List[EnumeratedNumber] = []
    for d in range(1, deg_max + 1):
        out.extend(_enumerate_degree(d, h_max, ctx))
    return out


def _enumerate_degree(d: int, h_max: Fraction, ctx) -> List[EnumeratedNumber]:
    bound = h_max**d
    limits = [int(math.comb(d, i) * bound) for i in range(d)]
    lc_max = int(bound)
    records = []
    ranges = [range(-b, b + 1) for b in limits]
    for lc in range(1, lc_max + 1):
        for rest in itertools.product(*ranges):
            coeffs = rest + (lc,)
            if math.gcd(*[abs(c) for c in coeffs]) != 1:
                continue
            f = IntPoly(coeffs)
            if d == 1:
                h = Fraction(max(abs(coeffs[0]), coeffs[1]))
                if h <= h_max:
                    hv = HeightValue(mpf(h.numerator) / mpf(h.denominator), mpf(0), exact=h)
                    rou = coeffs[0] != 0 and h == 1
                    records.append(EnumeratedNumber(f, 0, hv, rou))
                continue
            if coeffs[0] == 0:
                continue  # x divides f
            if abs(coeffs[0]) > bound:
                continue  # |a_0| <= M(f)
            if not _float_mahler_plausible(coeffs, bound):
                continue
            if not is_irreducible(f):
                continue
            accepted, hv, rou = _decide_candidate(f, d, h_max, bound, ctx)
            if accepted:
                for idx in range(d):
                    records.append(EnumeratedNumber(f, idx, hv, rou))
    records.sort(key=lambda r: (r.min_poly.degree, r.min_poly.coeffs, r.root_index))
    return records


def _float_mahler_plausible(coeffs, bound: Fraction) -> bool:
    import numpy as np

    roots = np.roots(list(reversed(coeffs)))
    m = abs(coeffs[-1])
    for r in roots:
        m *= max(1.0, abs(r))
    return m <= float(bound) * (1 + 1e-6)


def _decide_candidate(f: IntPoly, d: int, h_max: Fraction, bound: Fraction, ctx):
    if _cyclotomic_minpoly(f):
        hv = HeightValue(mpf(1), mpf(0), exact=Fraction(1))
        return True, hv, True
    # irreducible non-cyclotomic of degree >= 2: M(f) > 1 strictly
    if bound == 1:
        return False, None, False
    for digits in ctx.ladder():
        lo, hi = _mahler_interval(f, digits, ctx)
        lo_f, hi_f = mpf_to_fraction(lo), mpf_to_fraction(hi)
        if hi_f <= bound:
            hv = height_algebraic(AlgebraicNumber(f, None), DEFAULT_EPS, ctx)
            return True, hv, False
        if lo_f > bound:
            return False, None, False
        exact = _exact_mahler_if_all_outside(f, digits, ctx)
        if exact is not None:
            if exact <= bound:
                hv = height_algebraic(AlgebraicNumber(f, None), DEFAULT_EPS, ctx)
                return True, hv, False
            return False, None, False
    raise BoundaryTie(f"M({f}) sits on the boundary {bound} and is not decidable")


def _exact_mahler_if_all_outside(f: IntPoly, digits: int, ctx) -> Optional[Fraction]:
    """If every root is certified outside the unit circle, M(f) = |a_0|."""
    sub = PrecisionContext(
        max(digits, ctx.working_digits), ctx.escalation_factor,
        max(ctx.max_digits, digits),
    )
    with mp.workdps(digits + _GUARD):
        boxes = isolate_roots(f, sub)
        if all(b.ball().abs_ball().lo > 1 for b in boxes):
            return Fraction(abs(f.coeffs[0]))
    return None


# ---------------------------------------------------------------------------
# Empirical search for equal-modulus units


def search_equal_modulus_units(
    group: UnitSubgroup, exponent_box: int
) -> List[FieldElement]:
    """All products +-prod g_i^{e_i} with |e_i| <= exponent_box that pass the
    exact equal-modulus decision, in deterministic sweep order."""
    if exponent_box < 0:
        raise InputError("exponent_box must be >= 0")
    fld = group.field
    k = len(group.generators)
    seen = set()
    passing = []
    for exps in itertools.product(range(-exponent_box, exponent_box + 1), repeat=k):
        u = fld.one()
        for g, e in zip(group.generators, exps):
            if e:
                u = u * g**e
        for torsion in (fld.one(), -fld.one()):
            v = u * torsion
            if v.coeffs in seen:
                continue
            seen.add(v.coeffs)
            if is_equal_modulus(v, group.ctx).value:
                passing.append(v)
    return passing
