"""Exact polynomial layer: parsing, gcd, resultants, squarefree structure,
Sturm counting and the conjugate-combination constructions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otlck import (
    BudgetExceeded,
    InputError,
    IntPoly,
    conjugate_product_poly,
    conjugate_ratio_poly,
    conjugate_sum_poly,
    discriminant,
    factor_int_poly,
    irreducibility_witness,
    is_irreducible,
    parse_poly,
    poly_gcd,
    resultant,
    squarefree_decomposition,
    squarefree_part,
    sturm_count,
)
from otlck.polys import RatPoly, is_squarefree

small_int = st.integers(min_value=-6, max_value=6)


def int_polys(max_deg=4, nonzero=True):
    def build(coeffs):
        p = IntPoly(tuple(coeffs))
        return p

    strat = st.lists(small_int, min_size=1, max_size=max_deg + 1).map(build)
    if nonzero:
        strat = strat.filter(lambda p: not p.is_zero)
    return strat


def test_parse_text_and_json():
    p = parse_poly("x^4 - 2x^2 - 1")
    assert p.coeffs == (Fraction(-1), Fraction(0), Fraction(-2), Fraction(0), Fraction(1))
    q = parse_poly("[-1, 0, -2, 0, 1]")
    assert q.coeffs == p.coeffs
    assert parse_poly("3").coeffs == (Fraction(3),)
    assert parse_poly("-x + 1/2").coeffs == (Fraction(1, 2), Fraction(-1))


def test_parse_rejects_garbage():
    for bad in ("", "x^", "x**2", "x^-1", "y^2 + 1", "1 +"):
        with pytest.raises(InputError):
            parse_poly(bad)


def test_poly_text_round_trip():
    p = parse_poly("x^3 - 2x + 5")
    assert parse_poly(str(p.primitive_int())).coeffs == p.coeffs


@given(int_polys(), int_polys())
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(f, g):
    d = poly_gcd(f.to_rat(), g.to_rat())
    for h in (f.to_rat(), g.to_rat()):
        q, r = h.divmod(d)
        assert r.is_zero


def test_resultant_fixture():
    f = IntPoly((-1, -1, 0, 1))  # x^3 - x - 1
    g = IntPoly((1, 0, 1))
    assert resultant(f, g) == 5


@given(int_polys(max_deg=3), int_polys(max_deg=3))
@settings(max_examples=40, deadline=None)
def test_resultant_antisymmetry(f, g):
    if f.degree < 1 or g.degree < 1:
        return
    sign = (-1) ** (f.degree * g.degree)
    assert resultant(f, g) == sign * resultant(g, f)


def test_resultant_detects_common_root():
    f = IntPoly((-2, 0, 1))  # x^2 - 2
    g = IntPoly((-4, 0, 0, 0, 1))  # x^4 - 4, shares both roots
    assert resultant(f, g) == 0


def test_discriminant_fixture():
    assert discriminant(IntPoly((-1, -1, 0, 1))) == -23
    assert discriminant(IntPoly((-2, 0, 1))) == 8


def test_squarefree_part():
    # (x-1)^2 (x+2) = x^3 - 3x + 2
    f = IntPoly((2, -3, 0, 1))
    sf = squarefree_part(f)
    assert sf.degree == 2
    assert resultant(sf, IntPoly((-1, 1))) == 0
    assert resultant(sf, IntPoly((2, 1))) == 0
    assert is_squarefree(sf)
    assert not is_squarefree(f)


@given(int_polys(max_deg=4))
@settings(max_examples=50, deadline=None)
def test_squarefree_decomposition_reassembles(f):
    if f.degree < 1:
        return
    content, parts = squarefree_decomposition(f)
    prod = IntPoly((1,))
    for g, k in parts:
        for _ in range(k):
            prod = prod * g
    assert (IntPoly((content,)) * prod).coeffs == f.coeffs


def test_sturm_counts():
    assert sturm_count(IntPoly((-1, 0, -2, 0, 1))) == 2  # x^4 - 2x^2 - 1
    assert sturm_count(IntPoly((1, 0, 1))) == 0
    assert sturm_count(IntPoly((-1, -1, 0, 0, 0, 1))) == 1  # x^5 - x - 1
    assert sturm_count(IntPoly((1, 1, 1, 1, 1))) == 0


def test_sturm_interval():
    f = IntPoly((-2, 0, 1))
    assert sturm_count(f, Fraction(0), Fraction(2)) == 1
    assert sturm_count(f, Fraction(-2), Fraction(2)) == 2
    assert sturm_count(f, Fraction(2), Fraction(3)) == 0


def test_factor_fixture():
    f = IntPoly((-1, 0, 0, 0, 1))  # x^4 - 1
    facs = factor_int_poly(f)
    polys = [g.coeffs for g, k in facs]
    assert polys == [(-1, 1), (1, 1), (1, 0, 1)]
    assert all(k == 1 for _, k in facs)


def test_factor_degree_cap():
    f = IntPoly((1,) + (0,) * 29 + (1,))
    with pytest.raises(BudgetExceeded):
        factor_int_poly(f, degree_cap=24)


def test_irreducibility_witness():
    w = irreducibility_witness(IntPoly((-2, 0, 1)))
    assert w.status == "irreducible"
    assert w.prime is not None
    w2 = irreducibility_witness(IntPoly((-1, 0, 1)))
    assert w2.status == "reducible"
    assert w2.factor is not None
    assert is_irreducible(IntPoly((-1, -1, 0, 0, 0, 1)))
    assert not is_irreducible(IntPoly((1, 2, 1)))


def test_conjugate_product_poly():
    # roots of x^2 - 2 are +-sqrt(2); the one distinct-pair product is -2
    g = conjugate_product_poly(IntPoly((-2, 0, 1)))
    assert g(Fraction(-2)) == 0


def test_conjugate_sum_poly():
    g = conjugate_sum_poly(IntPoly((-2, 0, 1)))
    assert g(Fraction(0)) == 0


def test_conjugate_ratio_poly():
    g = conjugate_ratio_poly(IntPoly((-2, 0, 1)))
    assert g(Fraction(-1)) == 0
    with pytest.raises(InputError):
        conjugate_ratio_poly(IntPoly((0, 0, 1)))  # vanishes at 0


@given(int_polys(max_deg=3), int_polys(max_deg=3))
@settings(max_examples=30, deadline=None)
def test_resultant_multiplicative_in_first_slot(f, g):
    h = IntPoly((1, 1))  # x + 1
    if f.degree < 1 or g.degree < 1:
        return
    assert resultant(f * h, g) == resultant(f, g) * resultant(h, g)


def _sylvester_det(a: IntPoly, b: IntPoly) -> int:
    """Reference Res(a, b): the Sylvester determinant by exact Fraction
    elimination (Res(c, b) = c^deg b for a constant c, and symmetrically)."""
    m, n = a.degree, b.degree
    if m == 0 or n == 0:
        return a.coeffs[0] ** n if m == 0 else b.coeffs[0] ** m
    size = m + n
    ad, bd = list(reversed(a.coeffs)), list(reversed(b.coeffs))
    rows = [[Fraction(0)] * i + ad + [Fraction(0)] * (n - 1 - i) for i in range(n)]
    rows += [[Fraction(0)] * i + bd + [Fraction(0)] * (m - 1 - i) for i in range(m)]
    rows = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            q = rows[r][col] / rows[col][col]
            if q:
                rows[r] = [x - q * y for x, y in zip(rows[r], rows[col])]
    assert det.denominator == 1
    return int(det)


def test_resultant_matches_sylvester_reference():
    rng = random.Random(20261018)
    shapes = {"lower": 0, "equal": 0, "higher": 0, "constant": 0, "nonmonic": 0}
    for _ in range(360):
        da, db = rng.randint(0, 7), rng.randint(0, 7)
        a = IntPoly(tuple(rng.randint(-9, 9) for _ in range(da)) + (rng.choice([-3, -1, 1, 2, 5]),))
        b = IntPoly(tuple(rng.randint(-9, 9) for _ in range(db)) + (rng.choice([-2, 1, 3, 7]),))
        shapes["lower" if da < db else "equal" if da == db else "higher"] += 1
        shapes["constant"] += min(da, db) == 0
        shapes["nonmonic"] += abs(a.lc) != 1 or abs(b.lc) != 1
        assert resultant(a, b) == _sylvester_det(a, b), (a, b)
    assert min(shapes.values()) >= 20, shapes
