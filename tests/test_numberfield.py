"""Field construction, exact element arithmetic, minimal polynomials,
norms, integrality and congruence membership."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from otlck import (
    InputError,
    IntPoly,
    char_poly,
    congruence_check,
    element_ball,
    is_algebraic_integer,
    is_unit,
    min_poly,
    min_poly_int,
    new_field,
    norm_trace,
)
from otlck import numberfield
from otlck.errors import ReducibleError

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def test_new_field_validation():
    with pytest.raises(ReducibleError) as exc:
        new_field("x^2 - 1")
    assert exc.value.factor is not None
    with pytest.raises(InputError):
        new_field("2x^2 - 1")  # not monic
    assert new_field("x - 3").signature == (1, 0)  # Q itself is fine


def test_signatures(sqrt2, plastic, quartic, zeta5, quintic):
    assert sqrt2.signature == (2, 0)
    assert plastic.signature == (1, 1)
    assert quartic.signature == (2, 1)
    assert zeta5.signature == (0, 2)
    assert quintic.signature == (1, 2)


def test_basic_arithmetic(sqrt2):
    th = sqrt2.theta()
    one = sqrt2.one()
    a = one + th  # 1 + sqrt(2)
    b = one - th
    assert (a * b).as_rational() == Fraction(-1)
    assert (th * th).as_rational() == Fraction(2)
    assert (a * a.inverse()).as_rational() == Fraction(1)
    assert (a / a).as_rational() == Fraction(1)
    assert (a ** -1).coeffs == a.inverse().coeffs


def test_pow_negative_and_zero(sqrt2):
    a = sqrt2.one() + sqrt2.theta()
    assert (a ** 0).as_rational() == Fraction(1)
    assert (a ** -2).coeffs == (a.inverse() * a.inverse()).coeffs
    with pytest.raises(InputError):
        sqrt2.zero().inverse()


def test_min_poly_fixtures(sqrt2, plastic):
    a = sqrt2.one() + sqrt2.theta()
    assert min_poly_int(a).coeffs == (-1, -2, 1)  # x^2 - 2x - 1
    rho = plastic.theta()
    assert min_poly_int(rho * rho + rho).coeffs == (-1, -3, -2, 1)
    assert min_poly_int(rho.inverse()).coeffs == (-1, 0, 1, 1)
    half = sqrt2.from_rational(Fraction(1, 2))
    assert min_poly(half).coeffs == (Fraction(-1, 2), Fraction(1))


def test_char_poly_of_rational(quartic):
    q = quartic.from_rational(Fraction(3, 2))
    cp = char_poly(q)
    # (x - 3/2)^4
    assert cp.degree == 4
    assert cp(Fraction(3, 2)) == 0
    assert cp.coeffs[0] == Fraction(81, 16)


def test_norm_trace_fixture(sqrt2):
    a = sqrt2.one() + sqrt2.theta()
    n, tr = norm_trace(a)
    assert n == Fraction(-1)
    assert tr == Fraction(2)


@given(
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(rationals, min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_norm_is_multiplicative(ca, cb):
    fld = new_field("x^3 - x - 1")
    a, b = fld.element(ca), fld.element(cb)
    na, _ = norm_trace(a)
    nb, _ = norm_trace(b)
    nab, _ = norm_trace(a * b)
    assert nab == na * nb


@given(st.lists(rationals, min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_min_poly_annihilates(coeffs):
    fld = new_field("x^2 - 2")
    a = fld.element(coeffs)
    p = min_poly(a)
    acc = fld.zero()
    power = fld.one()
    for c in p.coeffs:
        acc = acc + power * fld.from_rational(c)
        power = power * a
    assert acc.is_zero


def test_integrality_and_units(sqrt2, sqrt5):
    assert is_algebraic_integer(sqrt2.theta())
    assert is_unit(sqrt2.one() + sqrt2.theta())
    assert not is_unit(sqrt2.theta())  # norm -2
    assert not is_algebraic_integer(sqrt2.from_rational(Fraction(1, 2)))
    golden = sqrt5.element([Fraction(1, 2), Fraction(1, 2)])
    assert is_algebraic_integer(golden)
    assert is_unit(golden)


def test_congruence_fixtures(sqrt2):
    u = sqrt2.element([3, 2])  # 3 + 2 sqrt(2)
    assert congruence_check(u, sqrt2.theta())
    v = sqrt2.element([1, 1])
    assert not congruence_check(v, sqrt2.from_rational(2))


def test_congruence_validation(sqrt2):
    with pytest.raises(InputError):
        congruence_check(sqrt2.one(), sqrt2.zero())
    with pytest.raises(InputError):
        congruence_check(sqrt2.one(), sqrt2.from_rational(Fraction(1, 2)))


def test_element_ball_indexing(quintic):
    th = quintic.theta()
    with pytest.raises(InputError):
        element_ball(th, 5, 64)
    b = element_ball(th, 0, 64)
    with mp.workdps(80):
        assert abs(b.mid - mpf("1.1673039782614186843")) < mpf(10) ** -15


def test_parse_element(sqrt2):
    a = sqrt2.parse_element('["3", "2"]')
    assert a.coeffs == (Fraction(3), Fraction(2))
    with pytest.raises(InputError):
        sqrt2.parse_element("not json")
    with pytest.raises(InputError):
        sqrt2.parse_element('["1", "2", "3"]')  # too many coordinates


def test_cross_field_mixing_rejected(sqrt2, plastic):
    with pytest.raises(InputError):
        sqrt2.theta() + plastic.theta()


def test_min_poly_memoized_per_field(monkeypatch):
    fld = new_field("x^3 - x - 1")  # fresh field: an empty cache
    calls = []
    real = numberfield.char_poly
    monkeypatch.setattr(numberfield, "char_poly", lambda a: calls.append(a) or real(a))
    u = fld.element([1, 1])
    first = min_poly(u)
    assert is_unit(u) and is_unit(fld.element(["1", "1", "0"]))
    assert min_poly_int(u) == first.primitive_int()
    assert len(calls) == 1
    min_poly(fld.theta())
    assert len(calls) == 2
