"""Independent reference answers for the benchmark's output checks.

Nothing here imports otlck.  Numerics use mpmath.polyroots at ORACLE_DPS
digits, more than twice the 64 working digits the benchmark gives the
program; exact algebra (irreducibility, factoring, minimal polynomials,
cyclotomic tests) uses sympy directly.  Two numeric values count as equal
when they agree to half of ORACLE_DPS digits: distinct algebraic values of
the sizes drawn here differ by far more than that.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import sympy
from mpmath import mp, mpf
from sympy.abc import x as X

ORACLE_DPS = 160
_TOL_EXP = ORACLE_DPS // 2


class OracleError(RuntimeError):
    """The reference computation itself did not converge."""


def poly_text(coeffs) -> str:
    """ASCII form the otlck CLI parses, e.g. [-1, -1, 0, 0, 0, 1] -> "x^5 - x - 1"."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        var = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        body = str(mag) if e == 0 else (var if mag == 1 else f"{mag}{var}")
        parts.append(("-" if c < 0 else "+", body))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return out + "".join(f" {s} {b}" for s, b in parts[1:])


def parse_poly_text(text: str) -> sympy.Poly:
    """Read a polynomial printed by otlck ("x^3 - 1/2x + 3") into sympy."""
    expr = re.sub(r"(\d)x", r"\1*x", text.replace("^", "**"))
    return sympy.Poly(sympy.sympify(expr), X)


def sympy_poly(coeffs) -> sympy.Poly:
    return sympy.Poly([int(c) for c in reversed(coeffs)], X)


def signature(coeffs):
    p = sympy_poly(coeffs)
    s = p.count_roots()
    return s, (p.degree() - s) // 2


def at_oracle_precision(fn):
    """Run fn with mpmath at ORACLE_DPS digits."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with mp.workdps(ORACLE_DPS):
            return fn(*args, **kwargs)

    return wrapper


def _close(a, b) -> bool:
    return abs(a - b) <= mpf(10) ** (-_TOL_EXP) * max(1, abs(a), abs(b))


@at_oracle_precision
def roots(coeffs):
    """All complex roots at ORACLE_DPS digits."""
    desc = [int(c) for c in reversed(coeffs)]
    start = [mpmath.mpc(complex(z)) for z in np.roots(desc)]  # double-precision start
    found, err = mpmath.polyroots(desc, maxsteps=500, extraprec=2 * mp.dps, error=True,
                                  roots_init=start)
    if err > mpf(10) ** (-_TOL_EXP):
        raise OracleError(f"polyroots did not converge on {coeffs}")
    return found


@at_oracle_precision
def embeddings(coeffs):
    """Roots in the embedding order otlck documents: real roots ascending,
    then upper-half-plane roots by (Re, Im), then their conjugates."""
    rts = roots(coeffs)
    tiny = mpf(10) ** (-_TOL_EXP)
    reals = sorted(mpf(r.real) for r in rts if abs(r.imag) <= tiny)
    uppers = [r for r in rts if r.imag > tiny]

    def key(r):
        # real parts equal to half the oracle digits count as ties
        return (mpmath.nint(r.real * mpf(10) ** (_TOL_EXP // 2)), r.imag)

    uppers.sort(key=key)
    return reals, uppers, [u.conjugate() for u in uppers]


def evaluate(elem, alpha):
    return sum(mpf(Fraction(c).numerator) / Fraction(c).denominator * alpha**i
               for i, c in enumerate(elem))


def element_values(field_coeffs, elem):
    """(values at real embeddings, values at upper pair representatives)."""
    reals, uppers, _ = embeddings(field_coeffs)
    return [evaluate(elem, a) for a in reals], [evaluate(elem, a) for a in uppers]


@at_oracle_precision
def is_totally_positive(field_coeffs, elem) -> bool:
    real_vals, _ = element_values(field_coeffs, elem)
    return all(v > 0 for v in real_vals)


@at_oracle_precision
def is_equal_modulus(field_coeffs, elem) -> bool:
    _, upper_vals = element_values(field_coeffs, elem)
    mods = [abs(v) for v in upper_vals]
    return all(_close(m, mods[0]) for m in mods[1:])


@at_oracle_precision
def norm_trace_int(field_coeffs, elem):
    """Norm and trace of an element with integer coordinates (both integers)."""
    vals = [evaluate(elem, a) for a in roots(field_coeffs)]
    norm = mpmath.fprod(vals)
    trace = mpmath.fsum(vals)
    out = []
    for v in (norm, trace):
        n = int(mpmath.nint(v.real))
        if not _close(mpmath.mpc(n), v):
            raise OracleError(f"non-integral norm or trace {v}")
        out.append(n)
    return tuple(out)


def min_poly(field_coeffs, elem) -> sympy.Poly:
    """Monic minimal polynomial over Q, by sympy.minimal_polynomial."""
    alpha = sympy.CRootOf(sympy_poly(field_coeffs).as_expr(), 0)
    desc = [sympy.Rational(str(Fraction(c))) for c in reversed(elem)]
    a = sympy.AlgebraicNumber(alpha, desc)
    return sympy.Poly(sympy.minimal_polynomial(a, X), X).monic()


@at_oracle_precision
def mahler(coeffs):
    m = abs(mpf(coeffs[-1]))
    for r in roots(coeffs):
        m *= max(mpf(1), abs(r))
    return m


@at_oracle_precision
def height(coeffs):
    """Absolute Weil height M(f)^(1/deg f) of a root of irreducible f."""
    return mahler(coeffs) ** (mpf(1) / (len(coeffs) - 1))


def is_cyclotomic(coeffs) -> bool:
    if len(coeffs) == 2:
        return abs(coeffs[0]) == coeffs[1] == 1
    return sympy_poly(coeffs).is_cyclotomic


@at_oracle_precision
def unit_point_height(field_coeffs, elem):
    """H(sigma_{s+2}(u) / sigma_{s+1}(u)) for a unit u in a field with two
    conjugate pairs.  Every ratio u_j/u_i of conjugates of u is a root of
    prod_{i,j} (x - u_j/u_i), which has integer coefficients when u is a
    unit; its coefficients are rounded from the numeric product, sympy
    factors it, and the factor vanishing at the ratio gives the height."""
    reals, uppers, lowers = embeddings(field_coeffs)
    conj = [evaluate(elem, a) for a in reals + uppers + lowers]
    ratio = conj[len(reals) + 1] / conj[len(reals)]
    prod = [mpmath.mpc(1)]
    for ui in conj:
        for uj in conj:
            q = uj / ui
            prod = [(prod[k - 1] if k else 0) - q * (prod[k] if k < len(prod) else 0)
                    for k in range(len(prod) + 1)]
    ints = [int(mpmath.nint(c.real)) for c in prod]
    if not all(_close(mpmath.mpc(n), c) for n, c in zip(ints, prod)):
        raise OracleError("conjugate-ratio product is not integral")
    _, factors = sympy.Poly(list(reversed(ints)), X).factor_list()
    best = min(factors, key=lambda fm: abs(_poly_at(fm[0], ratio)))[0]
    if abs(_poly_at(best, ratio)) > mpf(10) ** (-_TOL_EXP):
        raise OracleError("no factor of the conjugate-ratio product vanishes at the ratio")
    fac = [int(c) for c in reversed(best.all_coeffs())]
    if fac[-1] < 0:
        fac = [-c for c in fac]
    if is_cyclotomic(fac):
        return mpf(1)
    return height(fac)


def _poly_at(p: sympy.Poly, z):
    acc = mpmath.mpc(0)
    for c in p.all_coeffs():
        acc = acc * z + int(c)
    return acc


# ---------------------------------------------------------------------------
# Bounded-height sweep, by brute force over the same coefficient box


def bounded_height_polys(deg_max: int, h_max: Fraction):
    """Every primitive irreducible integer polynomial with positive leading
    coefficient, degree <= deg_max and M(f) <= h_max^deg, as coefficient
    tuples (ascending).  Mahler measures come from batched numpy
    eigenvalues; candidates within 1e-7 of the boundary are re-measured at
    ORACLE_DPS digits, and an exact tie counts as inside."""
    out = set()
    for d in range(1, deg_max + 1):
        bound = h_max**d
        top = math.floor(bound)
        if d == 1:
            for lc in range(1, top + 1):
                for a0 in range(-top, top + 1):
                    if math.gcd(a0, lc) == 1:
                        out.add((a0, lc))
            continue
        limits = tuple(math.floor(math.comb(d, i) * bound) for i in range(d))
        bf = float(bound)
        for lc, cand, meas in _box_measures(d, limits, top):
            for row, m in zip(cand, meas):
                if m > bf * (1 + 1e-7):
                    continue
                coeffs = tuple(int(c) for c in row) + (lc,)
                if not _is_irreducible(coeffs):
                    continue
                if m > bf * (1 - 1e-7) and _above(coeffs, bound):
                    continue
                out.add(coeffs)
    return out


@functools.lru_cache(maxsize=None)
def _box_measures(d, limits, top):
    """(lc, primitive candidates, float Mahler measures) for each leading
    coefficient lc <= top, over the box |a_i| <= limits[i] of the lower
    coefficients, from batched numpy eigenvalues.  Cached: the sweeps of
    one bin share a box."""
    grid = np.stack(np.meshgrid(*[np.arange(-b, b + 1) for b in limits],
                                indexing="ij"), -1).reshape(-1, d)
    grid = grid[(grid[:, 0] != 0) & (np.abs(grid[:, 0]) <= top)]
    out = []
    for lc in range(1, top + 1):
        cand = grid[np.gcd.reduce(np.abs(np.column_stack([grid, np.full(len(grid), lc)])),
                                  axis=1) == 1]
        comp = np.zeros((len(cand), d, d))
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        comp[:, :, -1] = -cand / lc
        out.append((lc, cand, lc * np.prod(np.maximum(1.0, np.abs(np.linalg.eigvals(comp))),
                                           axis=1)))
    return out


@functools.lru_cache(maxsize=None)
def _is_irreducible(coeffs) -> bool:
    return sympy_poly(coeffs).is_irreducible


@at_oracle_precision
def _above(coeffs, bound: Fraction) -> bool:
    """M(f) > bound for a squarefree f, at ORACLE_DPS digits; a tie is not above."""
    exact = mahler(coeffs)
    target = mpf(bound.numerator) / bound.denominator
    return exact > target and not _close(exact, target)
