"""Certified complex root isolation at arbitrary precision.

Roots are located by simultaneous Aberth-Ehrlich iteration, started from
numpy's double-precision roots of the coefficients rounded to complex
doubles (of the polynomial rescaled by x -> 2^k x when a coefficient falls
outside the double range; from a circle of the Cauchy root radius when a
root does), and certified a posteriori: around
each approximation z_i we place the inclusion disk of radius
d*(|f(z_i)| + e_i) / (|lc| * prod_{j!=i} |z_i - z_j|), where e_i is a
running bound on the rounding error of the evaluation.  The union of these
disks contains every root, and a disk disjoint from all the others contains
exactly one, so pairwise disjointness turns the approximations into
isolating boxes; the start point only affects the speed.  Realness and
conjugate pairing are certified through the same disks, and the real-root
count is reconciled against Sturm's theorem.
Precision doubles on any failure until max_digits, then fails loudly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

from mpmath import mp, mpc, mpf

from .balls import ComplexBall
from .errors import InputError, PrecisionExhausted
from .polys import (
    IntPoly,
    _chain_count,
    _sturm_chain,
    conjugate_sum_poly,
    discriminant,
    is_squarefree,
)

# guard digits added on top of the requested working precision
_GUARD = 12


@dataclass(frozen=True)
class PrecisionContext:
    """Adaptive-precision policy: start at working_digits, multiply by
    escalation_factor on failure, give up past max_digits."""

    working_digits: int = 64
    escalation_factor: int = 2
    max_digits: int = 4096

    def __post_init__(self):
        if self.working_digits < 32:
            raise InputError("working_digits must be >= 32")
        if self.max_digits < self.working_digits:
            raise InputError("max_digits must be >= working_digits")
        if self.escalation_factor < 2:
            raise InputError("escalation_factor must be >= 2")

    def ladder(self):
        d = self.working_digits
        while d <= self.max_digits:
            yield d
            d *= self.escalation_factor


DEFAULT_CTX = PrecisionContext()


@dataclass(frozen=True)
class RootBox:
    """Disk certified to contain exactly one root of the polynomial it was
    derived from.  kind 'real' boxes have a real (mpf) center and their root
    is provably real; complex boxes come in conjugate pairs linked by
    pair_id (1-based, upper = positive imaginary part)."""

    center: object
    radius: object
    kind: str  # "real" | "complex_upper" | "complex_lower"
    pair_id: Optional[int]
    index: int
    digits: int

    def ball(self) -> ComplexBall:
        return ComplexBall(mpc(self.center), mpf(self.radius))

    def conjugate_center(self):
        return mpc(self.center).conjugate()


def mpf_to_fraction(value) -> Fraction:
    sign, man, exp, _ = value._mpf_
    if man == 0:
        return Fraction(0)
    f = Fraction(man, 1) * Fraction(2) ** exp
    return -f if sign else f


def root_separation_bound(f: IntPoly) -> Optional[Fraction]:
    """Rational delta with 0 < delta <= min |alpha_i - alpha_j|, from the
    Mahler-type bound sqrt(3|disc|) / (d^((d+2)/2) * ||f||_2^(d-1)).
    Returns None for degree 1 (no pair of roots exists)."""
    if not is_squarefree(f):
        raise InputError("separation bound needs a squarefree polynomial")
    d = f.degree
    if d < 1:
        raise InputError("degree must be >= 1")
    if d == 1:
        return None
    norm_sq = sum(c * c for c in f.coeffs)
    delta_sq = Fraction(3 * abs(discriminant(f)), d ** (d + 2) * norm_sq ** (d - 1))
    # rational lower bound of the square root, scaled so it never underflows
    num, den = delta_sq.numerator, delta_sq.denominator
    shift = max(0, (den.bit_length() - num.bit_length()) // 2 + 1) + 64
    lb = math.isqrt((num << (2 * shift)) // den)
    result = Fraction(lb, 1 << shift)
    assert result > 0
    return result


# ---------------------------------------------------------------------------
# Aberth-Ehrlich iteration


def _horner(coeffs, z):
    acc = mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _double_start(coeffs):
    """Roots of the coefficients rounded to complex doubles, as mpc, or None
    when np.roots fails or a root is not a finite double.  When a
    coefficient is not a finite double, the roots are those of
    2^-(e_d + dk) f(2^k x), scaled back by 2^k.  The scalings are exact
    shifts of the binary exponents e_i = mag(c_i), and k is Fujiwara's
    bound max_i ceil((e_i - e_d) / (d - i)), so the scaled roots are at most
    about 2 in modulus and the scaled coefficients at most about 1."""
    import numpy as np

    cs = [complex(c) for c in reversed(coeffs)]
    k = 0
    if not all(cmath.isfinite(c) for c in cs):
        d = len(coeffs) - 1
        mags = [mp.mag(c) for c in coeffs]
        k = max(-((mags[d] - mags[i]) // (d - i)) for i in range(d) if coeffs[i] != 0)
        cs = [complex(c * mpf(2) ** (i * k - mags[d] - d * k))
              for i, c in reversed(list(enumerate(coeffs)))]
    try:
        roots = np.roots(cs)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(roots).all():
        return None
    return [mpc(complex(r)) * mpf(2) ** k for r in roots]


def _aberth(coeffs, maxsteps, tol, warm=None):
    """Simultaneous iteration; coeffs ascending mpc. Returns approximations
    or None if it failed to converge."""
    d = len(coeffs) - 1
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    if warm is None or len(warm) != d:
        warm = _double_start(coeffs)
    if warm is not None:
        z = [mpc(w) for w in warm]
    else:
        radius = 1 + max(abs(c) / abs(coeffs[-1]) for c in coeffs[:-1])
        z = [
            radius * mp.exp(mpc(0, 2 * mp.pi * k / d + mpf(2) / 5))
            for k in range(d)
        ]
    for _ in range(maxsteps):
        moved = mpf(0)
        new = list(z)
        for i in range(d):
            fi = _horner(coeffs, z[i])
            dfi = _horner(deriv, z[i])
            if dfi == 0:
                new[i] = z[i] * (1 + mpf(2) ** (-10)) + mpf(2) ** (-10)
                moved = mpf(1)
                continue
            w = fi / dfi
            s = mpc(0)
            for j in range(d):
                if j != i:
                    dz = z[i] - z[j]
                    if dz == 0:
                        dz = mpf(2) ** (-mp.prec // 2)
                    s += 1 / dz
            denom = 1 - w * s
            corr = w if denom == 0 else w / denom
            new[i] = z[i] - corr
            moved = max(moved, abs(corr) / (1 + abs(new[i])))
        z = new
        if moved < tol:
            return z
    return None


def _smith_radii(coeffs, z):
    """Inclusion radii d*(|f(z_i)| + e_i) / (|lc| * prod_{j!=i} |z_i - z_j|).
    With u = 2^-prec (mpmath rounds to nearest), the Horner value including
    the rounding of the coefficients is off by at most
    gamma_{2d+2} sum |c_k| |z_i|^k, gamma_n = nu/(1-nu) (Higham, Accuracy
    and Stability of Numerical Algorithms, 5.1).  e_i = 4(d+1) u sum is
    about twice that, which also covers the rounding of the sum and of
    |f(z_i)|.  The factor 1 + 2^-20 absorbs the rounding of the
    denominator and quotient."""
    d = len(coeffs) - 1
    lc = abs(coeffs[-1])
    unit = 4 * (d + 1) * mpf(2) ** (-mp.prec)
    abs_coeffs = [abs(c) for c in coeffs]
    radii = []
    for i in range(d):
        prod = mpf(1)
        for j in range(d):
            if j != i:
                dz = abs(z[i] - z[j])
                if dz == 0:
                    return None
                prod *= dz
        err = unit * _horner(abs_coeffs, abs(z[i])).real
        r = d * (abs(_horner(coeffs, z[i])) + err) / (lc * prod)
        radii.append(r * (1 + mpf(2) ** (-20)))
    return radii


class _Retry(Exception):
    pass


def _classify(z, radii):
    """Certified real/pair classification via conjugate-disk intersection.
    Returns (real_indices, pairs) or raises _Retry."""
    d = len(z)
    partner = []
    for i in range(d):
        ci = z[i].conjugate()
        hits = [j for j in range(d) if abs(ci - z[j]) <= radii[i] + radii[j]]
        if len(hits) != 1:
            raise _Retry
        partner.append(hits[0])
    for i in range(d):
        if partner[partner[i]] != i:
            raise _Retry
    reals = [i for i in range(d) if partner[i] == i]
    pairs = []
    for i in range(d):
        if partner[i] > i:
            up, lo = (i, partner[i]) if z[i].imag > 0 else (partner[i], i)
            pairs.append((up, lo))
    return reals, pairs


def _attempt(f: IntPoly, digits: int, nreal: int, warm):
    """One isolation attempt at a given precision.  Returns (z, certified)
    where certified is (radii, reals, pairs) or None; z (when not None) seeds
    the next escalation."""
    coeffs = [mpc(c) for c in f.coeffs]
    tol = mpf(10) ** (-(digits + 5))
    z = _aberth(coeffs, maxsteps=60 + 2 * digits, tol=tol, warm=warm)
    if z is None:
        return None, None
    radii = _smith_radii(coeffs, z)
    if radii is None:
        return z, None
    d = len(z)
    for i in range(d):
        for j in range(i + 1, d):
            if abs(z[i] - z[j]) <= radii[i] + radii[j]:
                return z, None
    try:
        reals, pairs = _classify(z, radii)
    except _Retry:
        return z, None
    if len(reals) != nreal:
        return z, None
    return z, (radii, reals, pairs)


def _pair_sort_keys(f, z, radii, pairs, sum_sep: Callable[[], Fraction]):
    """Deterministic, certified lexicographic (Re, Im) order of the upper
    representatives.  Exact real-part ties are recognized through the
    separation bound of the pairwise root-sum polynomial."""
    ups = [up for up, _ in pairs]

    def re_equal(i, j):
        gap = abs(z[i].real - z[j].real)
        if gap > 2 * (radii[i] + radii[j]):
            return False
        delta = sum_sep()
        # 2*Re values are roots of the sum polynomial, delta apart if distinct
        if radii[i] + radii[j] >= mpf(delta.numerator) / mpf(delta.denominator) / 8:
            raise _Retry
        return 2 * gap < mpf(delta.numerator) / mpf(delta.denominator) / 2

    import functools

    def cmp(i, j):
        if re_equal(i, j):
            if abs(z[i].imag - z[j].imag) <= 2 * (radii[i] + radii[j]):
                raise _Retry
            return -1 if z[i].imag < z[j].imag else 1
        return -1 if z[i].real < z[j].real else 1

    return sorted(ups, key=functools.cmp_to_key(cmp))


def isolate_roots(f: IntPoly, ctx: PrecisionContext = DEFAULT_CTX) -> List[RootBox]:
    """Isolate all deg(f) roots of a squarefree integer polynomial.

    Boxes come back in embedding order: real roots ascending, then the
    upper-half-plane representative of each conjugate pair (pairs sorted by
    (Re, Im) of the representative), then the lower conjugates in matching
    pair order."""
    if f.is_zero or f.degree < 1:
        raise InputError("need degree >= 1")
    if not is_squarefree(f):
        raise InputError("isolate_roots requires a squarefree polynomial")
    d = f.degree
    if d == 1:
        q = Fraction(-f.coeffs[0], f.coeffs[1])
        with mp.workdps(ctx.working_digits + _GUARD):
            c = mpf(q.numerator) / mpf(q.denominator)
            r = abs(c) * mpf(2) ** (-mp.prec + 4) + mpf(2) ** (-mp.prec + 4)
        return [RootBox(c, r, "real", None, 0, ctx.working_digits)]

    nreal = _chain_count(_sturm_chain(f))
    sum_poly_sep = {}

    def sum_sep():
        if "v" not in sum_poly_sep:
            sum_poly_sep["v"] = root_separation_bound(conjugate_sum_poly(f))
        v = sum_poly_sep["v"]
        if v is None:  # single root sum: all real parts equal
            return Fraction(1)
        return v

    warm = None
    for digits in ctx.ladder():
        with mp.workdps(digits + _GUARD):
            z, certified = _attempt(f, digits, nreal, warm)
            if z is not None:
                warm = z
            if certified is None:
                continue
            radii, reals, pairs = certified
            reals_sorted = sorted(reals, key=lambda i: z[i].real)
            # disjointness already certifies the real ordering
            try:
                ups_sorted = _pair_sort_keys(f, z, radii, pairs, sum_sep)
            except _Retry:
                continue
            boxes = []
            idx = 0
            for i in reals_sorted:
                boxes.append(
                    RootBox(
                        z[i].real,
                        radii[i] + abs(z[i].imag),
                        "real",
                        None,
                        idx,
                        digits,
                    )
                )
                idx += 1
            for k, i in enumerate(ups_sorted, start=1):
                boxes.append(
                    RootBox(mpc(z[i]), radii[i], "complex_upper", k, idx, digits)
                )
                idx += 1
            for k, i in enumerate(ups_sorted, start=1):
                # mirror the upper disk: conjugation permutes the root set, so
                # the reflected disk certifiably contains the partner root
                boxes.append(
                    RootBox(
                        mpc(z[i]).conjugate(), radii[i], "complex_lower", k, idx, digits
                    )
                )
                idx += 1
            return boxes
    raise PrecisionExhausted(
        f"could not isolate roots of {f} within {ctx.max_digits} digits"
    )


def certified_sign(ball_fn, ctx: PrecisionContext = DEFAULT_CTX) -> int:
    """Sign of a provably nonzero real quantity.  ball_fn(digits) must return
    a RealBall enclosure computed at that precision."""
    for digits in ctx.ladder():
        with mp.workdps(digits + _GUARD):
            ball = ball_fn(digits)
        s = ball.sign()
        if s is not None:
            return s
    raise PrecisionExhausted("sign not separated from zero before max_digits")
