"""Mahler measure, absolute Weil heights, the exact root-of-unity test,
unit-point heights for t = 2, and constructive bounded-height enumeration.

The height convention is the absolute multiplicative height
H(alpha) = M(min_poly)^(1/deg); the projective height over Q is computed
exactly place by place and serves as the degree-1 oracle.  The
root-of-unity test is purely exact polynomial arithmetic (Kronecker), so
boundary ties at height 1 in the enumerator are always decidable.

The enumerator sweeps one representative per orbit of f(x) -> f(-x) and
f(x) -> x^d f(1/x), which preserve M(f), irreducibility and the
root-of-unity property, and emits every member of an accepted orbit.  The
representatives pass one batched numpy pre-filter and one batched exact
factor sieve, which tries every factor that Mignotte's bound allows as an
integer matrix product, and each accepted one is isolated once per
precision rung: the boxes give the certified Mahler interval, the height,
and the exact value of M(f) on a tie with the bound (every root inside,
every root outside, or every root on the unit circle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import sympy
from mpmath import mp, mpf

from .balls import horner_ball
from .errors import BoundaryTie, BudgetExceeded, InputError, PrecisionExhausted
from .numberfield import FieldElement, element_ball, is_unit, min_poly_int
from .polys import (
    IntPoly,
    conjugate_ratio_poly,
    factor_int_poly,
    squarefree_decomposition,
    squarefree_part,
    sturm_count,
)
from .roots import (
    DEFAULT_CTX,
    PrecisionContext,
    RootBox,
    isolate_roots,
    mpf_to_fraction,
)

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


def _sub_ctx(ctx: PrecisionContext, digits: int) -> PrecisionContext:
    """The ladder of ctx, started at the given rung."""
    return PrecisionContext(
        max(digits, ctx.working_digits), ctx.escalation_factor,
        max(ctx.max_digits, digits),
    )


def _box_measure(lc: int, boxes):
    """[lo, hi] enclosure of |lc| * prod max(1, |root|) over certified
    boxes, at the working precision, before the final rounding slack."""
    lo = hi = mpf(abs(lc))
    for b in boxes:
        a = b.ball().abs_ball()
        lo *= max(mpf(1), a.lo)
        hi *= max(mpf(1), a.hi)
    return lo, hi


def _slacked(lo, hi):
    slack = mpf(2) ** (-mp.prec + 8)
    return lo * (1 - slack), hi * (1 + slack)


def _mahler_interval(f: IntPoly, digits: int, ctx: PrecisionContext):
    """Certified [lo, hi] enclosure of M(f) at roughly the given digits."""
    cont, parts = squarefree_decomposition(f)
    sub = _sub_ctx(ctx, digits)
    with mp.workdps(digits + _GUARD):
        lo = hi = abs(mpf(cont.numerator) / mpf(cont.denominator))
        for g, mult in parts:
            if g.degree >= 1:
                glo, ghi = _box_measure(g.lc, isolate_roots(g, sub))
            else:
                glo = ghi = mpf(abs(g.lc))
            lo *= glo**mult
            hi *= ghi**mult
        return _slacked(lo, hi)


def _height_enclosure(lo, hi, d: int, eps: Fraction) -> Optional[HeightValue]:
    """H = M^(1/d) from a certified [lo, hi] enclosure of M, at the working
    precision, or None when the enclosure is wider than eps."""
    hlo, hhi = _slacked(lo ** (mpf(1) / d), hi ** (mpf(1) / d))
    if hhi - hlo <= mpf(eps.numerator) / mpf(eps.denominator):
        return HeightValue((hlo + hhi) / 2, (hhi - hlo) / 2)
    return None


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
    for digits in ctx.ladder():
        lo, hi = _mahler_interval(g, digits, ctx)
        with mp.workdps(digits + _GUARD):
            hv = _height_enclosure(lo, hi, g.degree, eps)
        if hv is not None:
            return hv
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
    # the ratio polynomial has degree d^2 with (x - 1)^d among its factors,
    # so its squarefree part has degree at most d(d - 1) + 1
    cap = g.degree * (g.degree - 1) + 1
    factors = [f for f, _ in factor_int_poly(ratio_sf, cap)]
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

    Coefficients of degree d >= 2 are swept inside the Mignotte-type box
    |a_i| <= binom(d, i) * h_max^d, 1 <= lc <= h_max^d, 0 < |a_0| <= h_max^d.
    The box is closed under f(x) -> f(-x) and f(x) -> x^d f(1/x) (with the
    leading coefficient made positive), because binom(d, i) =
    binom(d, d - i); both maps preserve M(f), primitivity, irreducibility
    and the root-of-unity property.  So only the least coefficient tuple of
    each orbit is decided, and every distinct member of an accepted orbit is
    emitted with the representative's height.  Representatives pass a float
    pre-filter M(f) <= h_max^d (1 + 1e-6), batched eigenvalue calls over
    their companion matrices, and are kept when primitive, irreducible, and
    M(f) <= h_max^d.  Irreducibility is decided exactly for a whole batch by
    `_irreducible_rows`, which tries every factor that Mignotte's bound
    allows by an integer matrix product.  The decision M(f) <= h_max^d
    isolates the roots once per precision rung; the same boxes give the height, and settle a tie
    M(f) = h_max^d exactly (ties at M = 1 by the exact cyclotomic test;
    otherwise every root inside the unit circle gives M = |lc|, every root
    outside gives M = |a_0|, and a palindromic f with every root on the
    circle, certified by a Sturm count, gives M = |lc|)."""
    if deg_max < 1 or deg_max > 6:
        raise InputError("deg_max must be between 1 and 6")
    h_max = Fraction(h_max)
    if h_max < 1:
        raise InputError("h_max must be >= 1")
    total = 0
    for d in range(1, deg_max + 1):
        limits, lc_max = _sweep_box(d, h_max**d)
        total += lc_max * math.prod(2 * b + 1 for b in limits)
        if total > candidate_budget:
            raise BudgetExceeded(
                f"candidate estimate {total} exceeds budget {candidate_budget}"
            )
    out: List[EnumeratedNumber] = []
    for d in range(1, deg_max + 1):
        out.extend(_enumerate_degree(d, h_max, ctx))
    return out


def _sweep_box(d: int, bound: Fraction):
    """(limits, lc_max): |a_i| <= limits[i] for i < d and 1 <= lc <= lc_max."""
    return [int(math.comb(d, i) * bound) for i in range(d)], int(bound)


def _enumerate_degree(d: int, h_max: Fraction, ctx) -> List[EnumeratedNumber]:
    records = []
    if d == 1:
        top = int(h_max)
        for lc in range(1, top + 1):
            for a0 in range(-top, top + 1):
                if math.gcd(a0, lc) == 1:
                    h = Fraction(max(abs(a0), lc))
                    hv = HeightValue(mpf(h.numerator) / mpf(h.denominator), mpf(0), exact=h)
                    records.append(EnumeratedNumber(IntPoly((a0, lc)), 0, hv, a0 != 0 and h == 1))
    else:
        bound = h_max**d
        for reps in _orbit_representatives(d, bound):
            survivors = reps[_mahler_plausible(reps, bound)]
            for coeffs in survivors[_irreducible_rows(survivors)].tolist():
                f = IntPoly(coeffs)
                accepted, hv, rou = _decide_candidate(f, bound, ctx)
                if accepted:
                    for member in _orbit(coeffs):
                        g = IntPoly(member)
                        records.extend(EnumeratedNumber(g, idx, hv, rou) for idx in range(d))
    records.sort(key=lambda r: (r.min_poly.degree, r.min_poly.coeffs, r.root_index))
    return records


def _orbit_images(rows):
    """The images of int rows of ascending coefficients (a_0 != 0, lc > 0)
    under f(x) -> f(-x), f(x) -> x^d f(1/x) and both, each scaled by -1 if
    needed to a positive leading coefficient."""
    import numpy as np

    d = rows.shape[1] - 1
    flip = rows * np.array([1 if (i + d) % 2 == 0 else -1 for i in range(d + 1)])
    return flip, rows[:, ::-1] * np.sign(rows[:, :1]), flip[:, ::-1] * np.sign(flip[:, :1])


def _orbit(coeffs) -> List[tuple]:
    """The distinct members of the orbit of coeffs (ascending, a_0 != 0,
    positive lc) under the maps of `_orbit_images`, coeffs first."""
    import numpy as np

    out = [tuple(coeffs)]
    for image in _orbit_images(np.array([coeffs])):
        member = tuple(image[0].tolist())
        if member not in out:
            out.append(member)
    return out


_CHUNK = 1 << 16


def _orbit_representatives(d: int, bound: Fraction):
    """The least member of every orbit of primitive polynomials with
    a_0 != 0 in the degree-d box, in chunks of int64 rows of ascending
    coefficients.  A tuple's rank in the C-order flattening of the box is
    its rank in lexicographic order, so it is kept when no image under the
    maps of `_orbit_images` has a smaller flat index."""
    import numpy as np

    limits, lc_max = _sweep_box(d, bound)
    shape = tuple(2 * b + 1 for b in limits) + (lc_max,)
    offset = np.array(limits + [-1])
    total = math.prod(shape)
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total))
        rows = np.column_stack(np.unravel_index(flat, shape)) - offset
        keep = (rows[:, 0] != 0) & (np.gcd.reduce(np.abs(rows), axis=1) == 1)
        rows, flat = rows[keep], flat[keep]
        least = flat
        for image in _orbit_images(rows):
            rank = np.ravel_multi_index(tuple((image + offset).T), shape)
            least = np.minimum(least, rank)
        yield rows[flat == least]


def _mahler_plausible(rows, bound: Fraction):
    """Float pre-filter M(f) <= bound * (1 + 1e-6) for int rows of ascending
    coefficients (a_0 != 0, lc > 0).  One batched eigvals call over the
    companion matrices, each built as np.roots builds it, and the product
    lc * prod max(1, |r|) formed one root column at a time, so every
    decision is the one a per-polynomial np.roots loop gives."""
    import numpy as np

    n, d = rows.shape[0], rows.shape[1] - 1
    if n == 0:
        return np.zeros(0, dtype=bool)
    p = rows[:, ::-1].astype(float)
    comp = np.zeros((n, d, d))
    comp[:, 0, :] = -p[:, 1:] / p[:, :1]
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    roots = np.linalg.eigvals(comp)
    m = p[:, 0]
    for j in range(d):
        m = m * np.maximum(1.0, np.abs(roots[:, j]))
    return m <= float(bound) * (1 + 1e-6)


# int64 cells in one block of the factor sieve: the reduction matrices of a
# slice of candidates, or their product with a slice of rows
_SIEVE_CELLS = 1 << 20


def _irreducible_rows(rows):
    """Exact irreducibility over Q of int rows of ascending coefficients
    (primitive, a_0 != 0, lc > 0), as a bool mask.

    A reducible primitive f of degree d has a primitive factor g of degree
    k <= d/2 with leading coefficient c > 0, where c | lc(f), g(0) | a_0
    and |g_i| <= binom(k, i) M(g) <= binom(k, i) M(f) <= binom(k, i) ||f||_2
    (Mignotte's factor bound and Landau's inequality).  Every such g is
    tried exactly: row j of the (d+1) x k integer matrix of g is x^j mod g
    times a power of c, so the row of f times that matrix is
    c^(d-k+1) (f mod g), zero iff g | f.  Rows sharing (lc, |a_0|) share
    their candidates, which are tried by `_factor_found`."""
    import numpy as np

    rows = np.asarray(rows, dtype=np.int64)
    irreducible = np.ones(len(rows), dtype=bool)
    d = rows.shape[1] - 1
    if len(rows) == 0 or d < 2:
        return irreducible
    keys, group, counts = np.unique(
        np.column_stack([rows[:, -1], np.abs(rows[:, 0])]),
        axis=0, return_inverse=True, return_counts=True,
    )
    members = np.split(np.argsort(group.reshape(-1), kind="stable"), np.cumsum(counts)[:-1])
    for (lc, a0), idx in zip(keys.tolist(), members):
        group_rows = rows[idx].tolist()
        norm_sq = max(sum(v * v for v in r) for r in group_rows)
        norm_1 = max(sum(abs(v) for v in r) for r in group_rows)
        for k in range(1, d // 2 + 1):
            idx = idx[irreducible[idx]]
            if len(idx) == 0:
                break
            found = _factor_found(rows[idx], k, lc, a0, norm_sq, norm_1)
            irreducible[idx[found]] = False
    return irreducible


def _factor_found(rows, k: int, lc: int, a0: int, norm_sq: int, norm_1: int):
    """Bool mask of the rows (all with leading coefficient lc and
    |a_0| = a0, ||f||_2^2 <= norm_sq, ||f||_1 <= norm_1) divisible by a
    candidate g of degree k of `_irreducible_rows`.  The candidates are
    tried in slices and the rows in blocks of at most _SIEVE_CELLS int64
    cells.  Every entry of a reduction matrix is at most
    (c + G)^(d-k+1), with G the largest |g_i| below the leading one, so
    every product entry is at most ||f||_1 (c + G)^(d-k+1); BudgetExceeded
    is raised before that could reach 2^63."""
    import numpy as np

    d = rows.shape[1] - 1
    cs = np.array(sympy.divisors(lc), dtype=np.int64)
    es = np.array([s * e for e in sympy.divisors(a0) for s in (1, -1)], dtype=np.int64)
    mids = [math.isqrt(math.comb(k, i) ** 2 * norm_sq) for i in range(1, k)]
    entry_max = (lc + max([a0] + mids)) ** (d - k + 1)
    if norm_1 * entry_max >= 2**63:
        raise BudgetExceeded(
            f"factor sieve entries up to {norm_1 * entry_max} exceed int64"
        )
    shape = (len(cs), len(es)) + tuple(2 * b + 1 for b in mids)
    total = math.prod(shape)
    found = np.zeros(len(rows), dtype=bool)
    # row j is scaled by c^(d - max(j, k - 1)) on top of its own c^max(0, j - k + 1)
    powers = np.array([d - max(j, k - 1) for j in range(d + 1)])
    step = max(1, _SIEVE_CELLS // ((d + 1) * k))
    for start in range(0, total, step):
        cand = np.unravel_index(np.arange(start, min(start + step, total)), shape)
        c = cs[cand[0]]
        low = np.column_stack([es[cand[1]]] + [m - b for m, b in zip(cand[2:], mids)])
        red = np.zeros((d + 1, len(c), k), dtype=np.int64)
        red[np.arange(k), :, np.arange(k)] = 1
        for j in range(k, d + 1):
            # x^j = x * x^(j-1), and c x^k = -(g_0 + ... + g_(k-1) x^(k-1))
            red[j, :, 1:] = c[:, None] * red[j - 1, :, :-1]
            red[j] -= red[j - 1, :, k - 1 :] * low
        red *= (c[None, :] ** powers[:, None])[:, :, None]
        red = red.reshape(d + 1, -1)
        todo = np.flatnonzero(~found)
        block = max(1, _SIEVE_CELLS // red.shape[1])
        for lo in range(0, len(todo), block):
            sub = todo[lo : lo + block]
            prod = (rows[sub] @ red).reshape(len(sub), len(c), k)
            found[sub] = (prod == 0).all(axis=2).any(axis=1)
    return found


def _decide_candidate(f: IntPoly, bound: Fraction, ctx):
    """(accepted, height, is_root_of_unity) for M(f) <= bound, f irreducible
    and primitive of degree >= 2.  Each precision rung isolates f once; the
    boxes give the Mahler interval, and the height when f is accepted."""
    if _cyclotomic_minpoly(f):
        hv = HeightValue(mpf(1), mpf(0), exact=Fraction(1))
        return True, hv, True
    # irreducible non-cyclotomic of degree >= 2: M(f) > 1 strictly
    if bound == 1:
        return False, None, False
    accepted = False
    for digits in ctx.ladder():
        boxes = isolate_roots(f, _sub_ctx(ctx, digits))
        with mp.workdps(digits + _GUARD):
            lo, hi = _slacked(*_box_measure(f.lc, boxes))
            if not accepted:
                if mpf_to_fraction(lo) > bound:
                    return False, None, False
                if mpf_to_fraction(hi) > bound:
                    exact = _exact_tie_measure(f, boxes)
                    if exact is None:
                        continue
                    if exact > bound:
                        return False, None, False
                    lo = hi = mpf(exact)
                accepted = True
            hv = _height_enclosure(lo, hi, f.degree, DEFAULT_EPS)
        if hv is not None:
            return True, hv, False
    if accepted:
        raise PrecisionExhausted(f"height of a root of {f} did not converge below eps")
    raise BoundaryTie(f"M({f}) sits on the boundary {bound} and is not decidable")


def _exact_tie_measure(f: IntPoly, boxes) -> Optional[int]:
    """M(f) exactly, when the certified boxes put every root inside the unit
    circle (M = |lc|) or outside it (M = |a_0|), or when f is palindromic
    with every root on the circle (M = |lc|); else None.  f is irreducible
    of degree >= 2."""
    moduli = [b.ball().abs_ball() for b in boxes]
    if all(a.hi < 1 for a in moduli) or _roots_on_unit_circle(f):
        return abs(f.lc)
    if all(a.lo > 1 for a in moduli):
        return abs(f.coeffs[0])
    return None


def _roots_on_unit_circle(f: IntPoly) -> bool:
    """True iff the irreducible f of degree d = 2m >= 2 is palindromic and
    all its roots lie on the unit circle.  Then f = x^m g(x + 1/x), and a
    root z lies on the circle exactly when z + 1/z is real in (-2, 2) (the
    ends would make +-1 a root); Sturm counts g's roots there."""
    d = f.degree
    if d % 2 or f.coeffs != f.coeffs[::-1]:
        return False
    m = d // 2
    # P_k(x + 1/x) = x^k + x^-k: P_0 = 2, P_1 = y, P_{k+1} = y P_k - P_{k-1}
    y = IntPoly((0, 1))
    prev, cur = IntPoly((2,)), y
    g = IntPoly((f.coeffs[m],))
    for k in range(1, m + 1):
        g = g + cur * f.coeffs[m + k]
        prev, cur = cur, y * cur - prev
    return sturm_count(g, -2, 2) == m
