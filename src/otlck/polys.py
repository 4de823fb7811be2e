"""Exact univariate polynomial arithmetic over Z and Q.

Dense ascending-coefficient representation.  Everything here is exact:
integer or Fraction coefficients, no floating point.  Factorization and
resultants are delegated to sympy's exact routines (dense subresultant PRS /
Zassenhaus); the surrounding contracts, canonical forms and derived
constructions (conjugate ratio/product/sum polynomials, Sturm counting)
are implemented directly.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import sympy
from sympy.abc import x as _sx, y as _sy

from .errors import BudgetExceeded, InputError

DEFAULT_DEGREE_CAP = 24


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, coefficients in ascending degree order.

    Canonical form: no trailing zero coefficients; the zero polynomial is
    the empty tuple (degree -1).
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip(int(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if self.is_zero:
            return 0
        return self.coeffs[-1]

    def __call__(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPoly(tuple(u + v for u, v in zip(a, b)))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def content(self) -> int:
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*[abs(c) for c in self.coeffs]) if self.coeffs else 0

    def primitive(self) -> "IntPoly":
        """Primitive part with positive leading coefficient."""
        if self.is_zero:
            return self
        c = self.content()
        if self.lc < 0:
            c = -c
        return IntPoly(tuple(v // c for v in self.coeffs))

    def reverse(self) -> "IntPoly":
        return IntPoly(tuple(reversed(self.coeffs)))

    @property
    def is_monic(self) -> bool:
        return self.lc == 1

    def to_rat(self) -> "RatPoly":
        return RatPoly(tuple(Fraction(c) for c in self.coeffs))

    def to_sympy(self, sym=_sx):
        return sympy.Poly(list(reversed(self.coeffs)) or [0], sym, domain="ZZ")

    @classmethod
    def from_sympy(cls, poly) -> "IntPoly":
        return cls(tuple(int(c) for c in reversed(poly.all_coeffs())))

    def to_text(self) -> str:
        return _format_terms(self.coeffs)

    def __str__(self):
        return self.to_text()


@dataclass(frozen=True)
class RatPoly:
    """Dense rational polynomial, ascending coefficients, trailing zeros stripped."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip(Fraction(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.coeffs[-1]

    def __call__(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __add__(self, other: "RatPoly") -> "RatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return RatPoly(tuple(u + v for u, v in zip(a, b)))

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return RatPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(tuple(out))

    __rmul__ = __mul__

    def divmod(self, other: "RatPoly"):
        if other.is_zero:
            raise InputError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlc = other.lc
        dn = other.degree
        while len(rem) - 1 >= dn and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dn:
                break
            k = len(rem) - 1 - dn
            q = rem[-1] / dlc
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= q * c
            rem.pop()
        return RatPoly(tuple(quo)), RatPoly(tuple(rem))

    def __mod__(self, other: "RatPoly") -> "RatPoly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "RatPoly") -> "RatPoly":
        return self.divmod(other)[0]

    def monic(self) -> "RatPoly":
        if self.is_zero:
            return self
        inv = 1 / self.lc
        return RatPoly(tuple(c * inv for c in self.coeffs))

    def derivative(self) -> "RatPoly":
        return RatPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def primitive_int(self) -> IntPoly:
        """Exact primitive IntPoly with positive lc (clears denominators)."""
        if self.is_zero:
            return IntPoly(())
        denom = math.lcm(*[c.denominator for c in self.coeffs])
        ints = [int(c * denom) for c in self.coeffs]
        return IntPoly(tuple(ints)).primitive()

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def to_sympy(self, sym=_sx):
        cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(self.coeffs)]
        return sympy.Poly(cs or [0], sym, domain="QQ")

    def to_text(self) -> str:
        return _format_terms(self.coeffs)

    def __str__(self):
        return self.to_text()


# ---------------------------------------------------------------------------
# Parsing / formatting

_TERM_RE = re.compile(
    r"""(?P<sign>[+-])?\s*
        (?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?
        (?P<var>x)?
        (?:\^(?P<exp>\d+))?\s*""",
    re.VERBOSE,
)


def parse_poly(text: str) -> RatPoly:
    """Parse either an ASCII polynomial in x ("x^4 - 2x^2 - 1", rational
    coefficients allowed) or a JSON coefficient array ascending in degree."""
    text = text.strip()
    if text.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad JSON coefficient array: {exc}") from exc
        return RatPoly(tuple(Fraction(str(c)) for c in data))
    coeffs: dict = {}
    pos = 0
    seen = False
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise InputError(f"cannot parse polynomial near {text[pos:]!r}")
        sign, coef, var, exp = m.group("sign", "coef", "var", "exp")
        if coef is None and var is None:
            raise InputError(f"cannot parse polynomial near {text[pos:]!r}")
        if exp is not None and var is None:
            raise InputError(f"exponent without variable near {text[pos:]!r}")
        c = Fraction(coef) if coef is not None else Fraction(1)
        if sign == "-":
            c = -c
        elif sign is None and seen:
            raise InputError(f"missing sign between terms near {text[pos:]!r}")
        e = int(exp) if exp is not None else (1 if var else 0)
        coeffs[e] = coeffs.get(e, Fraction(0)) + c
        pos = m.end()
        seen = True
    if not seen:
        raise InputError("empty polynomial")
    n = max(coeffs) + 1
    return RatPoly(tuple(coeffs.get(i, Fraction(0)) for i in range(n)))


def parse_int_poly(text: str) -> IntPoly:
    p = parse_poly(text)
    if not p.is_integral:
        raise InputError(f"expected integer coefficients in {text!r}")
    return IntPoly(tuple(int(c) for c in p.coeffs))


def _format_terms(coeffs) -> str:
    if not coeffs:
        return "0"
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if e == 0:
            body = str(mag)
        else:
            var = "x" if e == 1 else f"x^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append((sign, body))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# Core operations


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd over Q; poly_gcd(a, 0) = monic(a)."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def resultant(a: IntPoly, b: IntPoly) -> int:
    """Res(a, b) = lc(a)^deg(b) * prod b(alpha_i) over the roots of a, the
    Sylvester determinant, by sympy's dense subresultant resultant.  That
    one agrees with the Sylvester sign when deg a >= deg b; otherwise the
    arguments are swapped, using Res(a, b) = (-1)^(deg a deg b) Res(b, a)."""
    if a.is_zero or b.is_zero:
        raise InputError("resultant of the zero polynomial is undefined")
    m, n = a.degree, b.degree
    if m == 0:
        return a.coeffs[0] ** n
    if n == 0:
        return b.coeffs[0] ** m
    if m < n:
        return (-1) ** (m * n) * resultant(b, a)
    return int(a.to_sympy().resultant(b.to_sympy()))


def discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f)."""
    d = f.degree
    if d < 1:
        raise InputError("discriminant needs degree >= 1")
    if d == 1:
        return 1
    r = resultant(f, f.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    val = sign * r
    q, rem = divmod(val, f.lc)
    assert rem == 0
    return q


def squarefree_part(f: IntPoly) -> IntPoly:
    """Product of the distinct irreducible factors, primitive, positive lc."""
    if f.is_zero:
        raise InputError("squarefree part of zero")
    if f.degree == 0:
        return IntPoly((1,))
    fr = f.to_rat()
    g = poly_gcd(fr, fr.derivative())
    return (fr // g).primitive_int()


def is_squarefree(f: IntPoly) -> bool:
    if f.is_zero or f.degree == 0:
        return False
    fr = f.to_rat()
    return poly_gcd(fr, fr.derivative()).degree == 0


def squarefree_decomposition(f: IntPoly):
    """Yun's algorithm: returns (content, [(g1, 1), (g2, 2), ...]) with the
    g_k primitive, squarefree, pairwise coprime, and
    f = content * prod g_k^k (up to the recorded sign in content)."""
    if f.is_zero:
        raise InputError("squarefree decomposition of zero")
    prim = f.primitive()
    cont = Fraction(f.lc, prim.lc) if prim.lc else Fraction(f.coeffs[0])
    fr = prim.to_rat()
    parts = []
    d = fr.derivative()
    a = poly_gcd(fr, d)
    b = fr // a
    c = d // a
    k = 1
    while b.degree > 0:
        w = c - b.derivative()
        g = poly_gcd(b, w)
        if g.degree > 0:
            parts.append((g.primitive_int(), k))
        b = b // g
        c = w // g
        k += 1
    return cont, parts


_PINF = object()
_NINF = object()


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _sturm_chain(f: IntPoly):
    p0 = f.to_rat()
    p1 = p0.derivative()
    chain = [p0, p1]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero:
        chain.pop()
    return chain


def _variations(values) -> int:
    signs = [s for s in map(_sign, values) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(f: IntPoly, lo=None, hi=None) -> int:
    """Exact number of real roots of squarefree f in the half-open interval
    (lo, hi].  None stands for -inf (lo) / +inf (hi)."""
    if not is_squarefree(f):
        raise InputError("sturm_count requires a squarefree polynomial")
    return _chain_count(_sturm_chain(f), lo, hi)


def _chain_count(chain, lo=None, hi=None) -> int:
    """Sturm's count of roots in (lo, hi] from the Sturm chain of a
    squarefree polynomial; None stands for -inf (lo) / +inf (hi)."""

    def value_at(p: RatPoly, point):
        if point is _NINF:
            return p.lc * (-1) ** p.degree if not p.is_zero else 0
        if point is _PINF:
            return p.lc
        return p(point)

    a = _NINF if lo is None else Fraction(lo)
    b = _PINF if hi is None else Fraction(hi)
    if a is not _NINF and b is not _PINF and a >= b:
        raise InputError("need lo < hi")
    va = _variations(value_at(p, a) for p in chain)
    vb = _variations(value_at(p, b) for p in chain)
    return va - vb


def factor_int_poly(f: IntPoly, degree_cap: int = DEFAULT_DEGREE_CAP):
    """Complete factorization over Q into primitive irreducible IntPolys with
    positive lc, as [(factor, multiplicity)] sorted by (degree, coeffs).
    The integer content (with sign) is f divided by the factor product."""
    if f.is_zero:
        raise InputError("cannot factor the zero polynomial")
    if f.degree > degree_cap:
        raise BudgetExceeded(f"degree {f.degree} exceeds cap {degree_cap}")
    if f.degree == 0:
        return []
    _, factors = f.to_sympy().factor_list()
    out = []
    for fac, mult in factors:
        g = IntPoly.from_sympy(fac).primitive()
        if g.degree >= 1:
            out.append((g, int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


@dataclass(frozen=True)
class Witness:
    """Outcome of the cheap irreducibility pre-check."""

    status: str  # "irreducible" | "reducible" | "unknown"
    prime: Optional[int] = None
    factor: Optional[IntPoly] = None


def _rational_root(f: IntPoly) -> Optional[IntPoly]:
    if f.coeffs[0] == 0:
        return IntPoly((0, 1))
    for p in sympy.divisors(abs(f.coeffs[0])):
        for q in sympy.divisors(abs(f.lc)):
            if math.gcd(p, q) != 1:
                continue
            for num in (p, -p):
                if f(Fraction(num, q)) == 0:
                    return IntPoly((-num, q)).primitive()
    return None


def irreducibility_witness(f: IntPoly, tries: int = 10) -> Witness:
    """Sound, fast pre-check: a prime p with f irreducible mod p proves
    irreducibility over Q; a rational root proves reducibility; otherwise
    unknown and the caller falls back to full factorization."""
    if f.is_zero or f.degree < 1:
        raise InputError("witness needs degree >= 1")
    if f.degree == 1:
        return Witness("irreducible")
    root = _rational_root(f)
    if root is not None:
        return Witness("reducible", factor=root)
    if not is_squarefree(f):
        g = squarefree_part(f)
        h = factor_int_poly(g)[0][0]
        return Witness("reducible", factor=h)
    bad = abs(f.lc * discriminant(f))
    p = 2
    tried = 0
    while tried < tries:
        p = sympy.nextprime(p)
        if bad % p == 0:
            continue
        tried += 1
        if f.to_sympy().set_modulus(p).is_irreducible:
            return Witness("irreducible", prime=p)
    return Witness("unknown")


def is_irreducible(f: IntPoly, degree_cap: int = DEFAULT_DEGREE_CAP) -> bool:
    if f.degree < 1:
        return False
    w = irreducibility_witness(f)
    if w.status == "irreducible":
        return True
    if w.status == "reducible":
        return False
    factors = factor_int_poly(f, degree_cap)
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# Conjugate-combination polynomials


def _biv_resultant(f: IntPoly, other_terms) -> IntPoly:
    """Res_y(f(y), sum of terms), terms given as sympy expr in x, y."""
    fy = f.to_sympy(_sy).as_expr()
    res = sympy.resultant(fy, other_terms, _sy)
    poly = sympy.Poly(sympy.expand(res), _sx, domain="ZZ")
    return IntPoly.from_sympy(poly)


def conjugate_ratio_poly(f: IntPoly) -> IntPoly:
    """Res_y(f(y), f(x*y)): vanishes exactly on all ratios alpha_j/alpha_i of
    roots of f.  Multiplicities (the (x-1)^d factor among them) are kept."""
    if not is_squarefree(f):
        raise InputError("conjugate_ratio_poly requires squarefree input")
    if f.coeffs[0] == 0:
        raise InputError("f(0) = 0: conjugate ratios are undefined")
    fxy = sum(c * _sx**i * _sy**i for i, c in enumerate(f.coeffs))
    return _biv_resultant(f, fxy)


def conjugate_product_poly(f: IntPoly) -> IntPoly:
    """Squarefree polynomial vanishing on all pairwise root products
    alpha_i*alpha_j (i <= j, so squared moduli of conjugate pairs are roots)."""
    if not is_squarefree(f):
        raise InputError("conjugate_product_poly requires squarefree input")
    d = f.degree
    g = sum(c * _sx**i * _sy ** (d - i) for i, c in enumerate(f.coeffs))
    raw = _biv_resultant(f, g)
    return squarefree_part(raw)


def conjugate_sum_poly(f: IntPoly) -> IntPoly:
    """Squarefree polynomial vanishing on all pairwise root sums
    alpha_i+alpha_j (i <= j); used to decide exact equality of real parts."""
    if not is_squarefree(f):
        raise InputError("conjugate_sum_poly requires squarefree input")
    fxmy = sum(c * (_sx - _sy) ** i for i, c in enumerate(f.coeffs))
    raw = _biv_resultant(f, sympy.expand(fxmy))
    return squarefree_part(raw)
