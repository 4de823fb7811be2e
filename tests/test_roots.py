"""Certified root isolation: separation bounds, box counts against Sturm
and conjugate pairing."""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf, sqrt

from otlck import (
    InputError,
    IntPoly,
    PrecisionContext,
    isolate_roots,
    root_separation_bound,
    sturm_count,
)
from otlck.polys import is_squarefree, squarefree_part
from otlck.roots import _aberth, _smith_radii, certified_sign, mpf_to_fraction

CTX = PrecisionContext(64, 2, 4096)


def test_precision_context_validation():
    with pytest.raises(InputError):
        PrecisionContext(0, 2, 100)
    with pytest.raises(InputError):
        PrecisionContext(64, 1, 100)
    with pytest.raises(InputError):
        PrecisionContext(64, 2, 32)
    assert list(PrecisionContext(50, 2, 200).ladder()) == [50, 100, 200]


def test_separation_bound_is_a_true_lower_bound():
    f = IntPoly((-2, 0, 1))  # roots +-sqrt(2), distance 2 sqrt(2)
    delta = root_separation_bound(f)
    assert isinstance(delta, Fraction)
    assert 0 < delta <= Fraction(2829, 1000)
    assert root_separation_bound(IntPoly((-2, 1))) is None


def test_isolate_real_quadratic():
    boxes = isolate_roots(IntPoly((-2, 0, 1)), CTX)
    assert [b.kind for b in boxes] == ["real", "real"]
    with mp.workdps(70):
        assert abs(boxes[0].center + sqrt(2)) < mpf(10) ** -60
        assert abs(boxes[1].center - sqrt(2)) < mpf(10) ** -60
    assert boxes[0].center < boxes[1].center


def test_isolate_conjugate_pair():
    boxes = isolate_roots(IntPoly((1, 0, 1)), CTX)
    assert [b.kind for b in boxes] == ["complex_upper", "complex_lower"]
    assert boxes[0].pair_id == boxes[1].pair_id == 1
    assert boxes[0].center.imag > 0 > boxes[1].center.imag
    assert boxes[1].center == boxes[0].center.conjugate()


def test_isolate_pure_imaginary_quartet():
    # x^4 + 3x^2 + 1: two conjugate pairs with identical real part 0,
    # exercising the exact real-part tie in the ordering
    boxes = isolate_roots(IntPoly((1, 0, 3, 0, 1)), CTX)
    assert [b.kind for b in boxes] == ["complex_upper", "complex_upper", "complex_lower", "complex_lower"]
    uppers = boxes[:2]
    assert uppers[0].center.imag < uppers[1].center.imag
    assert {b.pair_id for b in boxes} == {1, 2}


def test_isolate_quintic_layout():
    boxes = isolate_roots(IntPoly((-1, -1, 0, 0, 0, 1)), CTX)
    assert [b.kind for b in boxes] == [
        "real", "complex_upper", "complex_upper", "complex_lower", "complex_lower",
    ]
    assert boxes[1].center.real < boxes[2].center.real


def test_isolate_degree_one():
    boxes = isolate_roots(IntPoly((-3, 2)), CTX)
    assert len(boxes) == 1
    assert boxes[0].kind == "real"
    with mp.workdps(70):
        assert boxes[0].center == mpf(3) / 2
        assert boxes[0].radius < mpf(10) ** -60


def test_isolate_rejects_nonsquarefree():
    with pytest.raises(InputError):
        isolate_roots(IntPoly((1, 2, 1)), CTX)


small_int = st.integers(min_value=-5, max_value=5)


@given(st.lists(small_int, min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_isolation_agrees_with_sturm(coeffs):
    f = IntPoly(tuple(coeffs))
    if f.degree < 1:
        return
    f = squarefree_part(f)
    if f.degree < 1:
        return
    boxes = isolate_roots(f, CTX)
    assert len(boxes) == f.degree
    nreal = sum(1 for b in boxes if b.kind == "real")
    assert nreal == sturm_count(f)
    uppers = [b for b in boxes if b.kind == "complex_upper"]
    lowers = [b for b in boxes if b.kind == "complex_lower"]
    assert len(uppers) == len(lowers)
    for up in uppers:
        mates = [lo for lo in lowers if lo.pair_id == up.pair_id]
        assert len(mates) == 1
        with mp.workdps(80):
            assert mates[0].center == up.center.conjugate()


@given(st.lists(small_int, min_size=2, max_size=5))
@settings(max_examples=30, deadline=None)
def test_boxes_are_disjoint(coeffs):
    f = squarefree_part(IntPoly(tuple(coeffs))) if IntPoly(tuple(coeffs)).degree >= 1 else None
    if f is None or f.degree < 2:
        return
    boxes = isolate_roots(f, CTX)
    with mp.workdps(80):
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                d = abs(boxes[i].center - boxes[j].center)
                assert d > boxes[i].radius + boxes[j].radius


def test_certified_sign():
    from otlck.balls import RealBall

    def near_zero_positive(digits):
        with mp.workdps(digits):
            return RealBall(mpf(10) ** -30, mpf(10) ** -(digits - 2))

    assert certified_sign(near_zero_positive, CTX) == 1

    # an identically zero quantity can never be separated from zero
    def exact_zero(digits):
        return RealBall(mpf(0), mpf(10) ** -digits)

    from otlck import PrecisionExhausted

    with pytest.raises(PrecisionExhausted):
        certified_sign(exact_zero, PrecisionContext(50, 2, 100))


def test_isolate_beyond_double_range_without_warning():
    # the constant term overflows a double, so the numpy start comes from
    # the polynomial scaled into the double range, and converges first time
    f = IntPoly((-(10**310 + 3), 1, 0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        boxes = isolate_roots(f, CTX)
    assert [b.kind for b in boxes] == ["real", "complex_upper", "complex_lower"]
    assert [b.digits for b in boxes] == [64, 64, 64]
    assert sturm_count(f) == 1
    with mp.workdps(boxes[0].digits + 20):
        lo = mpf_to_fraction(boxes[0].center - boxes[0].radius)
        hi = mpf_to_fraction(boxes[0].center + boxes[0].radius)
    assert f(lo) < 0 < f(hi)


def test_isolate_mignotte_cluster():
    # x^8 - 2(50x - 1)^2: two real roots about 4.5e-9 apart near 1/50
    f = IntPoly((-2, 200, -5000, 0, 0, 0, 0, 0, 1))
    boxes = isolate_roots(f, CTX)
    assert len(boxes) == 8
    assert [b.kind for b in boxes] == ["real"] * 4 + ["complex_upper"] * 2 + ["complex_lower"] * 2
    assert sturm_count(f) == 4
    assert sturm_count(f, Fraction(1, 50), Fraction(1, 49)) == 1
    assert sturm_count(f, Fraction(1, 51), Fraction(1, 50)) == 1
    with mp.workdps(80):
        assert boxes[1].center < mpf(1) / 50 < boxes[2].center


@given(st.lists(st.integers(min_value=-40, max_value=40), min_size=3, max_size=10))
@settings(max_examples=40, deadline=None)
def test_smith_radii_cover_high_precision_evaluation(coeffs):
    f = IntPoly(tuple(coeffs))
    if f.degree < 2:
        return
    f = squarefree_part(f)
    if f.degree < 2:
        return
    d = f.degree
    with mp.workdps(52):
        cs = [mpc(c) for c in f.coeffs]
        z = _aberth(cs, maxsteps=200, tol=mpf(10) ** -45)
        if z is None:
            return
        radii = _smith_radii(cs, z)
    if radii is None:
        return
    # the same formula with |f(z_i)| re-evaluated at 4x the precision
    with mp.workprec(4 * mp.prec):
        for i in range(d):
            fz = abs(mp.polyval(list(reversed(f.coeffs)), z[i]))
            prod = mp.fprod(abs(z[i] - z[j]) for j in range(d) if j != i)
            assert radii[i] >= d * fz / (abs(f.lc) * prod)


def test_isolate_roots_checks_squarefree_once(monkeypatch):
    from otlck import polys, roots

    calls = []
    original = polys.is_squarefree

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(polys, "is_squarefree", counting)
    monkeypatch.setattr(roots, "is_squarefree", counting)
    for coeffs in [(-1, -1, 0, 1), (-1, 0, -2, 0, 1), (-1, -1, 0, 0, 0, 1), (-3, 2)]:
        calls.clear()
        isolate_roots(IntPoly(coeffs), CTX)
        assert len(calls) == 1, coeffs
