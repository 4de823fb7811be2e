"""Mahler measures, absolute heights, the Kronecker test and the bounded
height enumeration."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from otlck import (
    BoundaryTie,
    BudgetExceeded,
    InputError,
    IntPoly,
    PrecisionContext,
    enumerate_bounded_height,
    height_algebraic,
    is_root_of_unity,
    mahler_measure,
    new_field,
    projective_height_rational,
    unit_point_height,
)
from otlck.heights import (
    _irreducible_rows,
    _match_ratio_factor,
    _mahler_plausible,
    _orbit,
    _orbit_representatives,
    _roots_on_unit_circle,
)
from otlck.numberfield import min_poly_int
from otlck.polys import (
    RatPoly,
    conjugate_ratio_poly,
    factor_int_poly,
    is_irreducible,
    squarefree_part,
)

CTX = PrecisionContext(64, 2, 4096)


def test_mahler_fixtures():
    m = mahler_measure(IntPoly((-1, -1, 0, 1)))  # plastic
    assert abs(m.as_float - 1.3247179572447460) < 1e-14
    m2 = mahler_measure(IntPoly((-1, -1, 1)))  # golden
    assert abs(m2.as_float - (1 + 5**0.5) / 2) < 1e-14
    # Lehmer's degree-10 polynomial
    lehmer = IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    m3 = mahler_measure(lehmer)
    assert abs(m3.as_float - 1.17628081825991750) < 1e-12


def test_mahler_scales_with_lc():
    m = mahler_measure(IntPoly((-3, 2)))  # 2x - 3, M = 3
    assert abs(m.as_float - 3.0) < 1e-20


def test_height_exact_paths():
    assert height_algebraic(Fraction(0)).exact == 1
    assert height_algebraic(Fraction(2, 3)).exact == 3
    assert height_algebraic(Fraction(-7)).exact == 7
    assert height_algebraic(IntPoly((1, 1))).exact == 1  # -1


def test_height_golden():
    # H = M^(1/deg) = phi^(1/2)
    h = height_algebraic(IntPoly((-1, -1, 1)))
    assert abs(h.as_float - ((1 + 5**0.5) / 2) ** 0.5) < 1e-14


def test_height_inversion_invariance(plastic):
    rho = plastic.theta()
    h1 = height_algebraic(rho)
    h2 = height_algebraic(rho.inverse())
    assert abs(h1.as_float - h2.as_float) < 1e-20


def test_height_power_law(plastic):
    rho = plastic.theta()
    h1 = height_algebraic(rho).as_float
    h3 = height_algebraic(rho ** 3).as_float
    assert abs(h3 - h1**3) < 1e-12


@given(st.fractions(min_value=-30, max_value=30, max_denominator=30))
@settings(max_examples=60, deadline=None)
def test_rational_height_formula(q):
    h = height_algebraic(q)
    expected = max(abs(q.numerator), q.denominator) if q != 0 else 1
    assert h.exact == expected


@given(
    st.fractions(min_value=-10, max_value=10, max_denominator=10),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_rational_height_power_law(q, n):
    if q == 0:
        return
    assert height_algebraic(q**n).exact == height_algebraic(q).exact ** n


def test_root_of_unity_detection():
    assert is_root_of_unity(Fraction(1))
    assert is_root_of_unity(Fraction(-1))
    assert not is_root_of_unity(Fraction(2))
    assert is_root_of_unity(IntPoly((1, 1, 1, 1, 1)))  # Phi_5
    assert is_root_of_unity(IntPoly((1, 0, 0, 0, 1)))  # Phi_8
    assert is_root_of_unity(IntPoly((1, 0, -1, 0, 1)))  # Phi_12
    assert not is_root_of_unity(IntPoly((-1, -1, 1)))  # golden
    assert not is_root_of_unity(IntPoly((-2, 0, 1)))


def test_projective_height():
    assert projective_height_rational([Fraction(1, 2), Fraction(3), Fraction(-5)]) == 10
    assert projective_height_rational([Fraction(2), Fraction(4)]) == 2
    with pytest.raises(InputError):
        projective_height_rational([Fraction(0), Fraction(0)])


@given(
    st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=6),
             min_size=2, max_size=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(lambda q: q != 0),
)
@settings(max_examples=40, deadline=None)
def test_projective_height_scale_invariant(coords, scale):
    if all(c == 0 for c in coords):
        return
    h1 = projective_height_rational(coords)
    h2 = projective_height_rational([scale * c for c in coords])
    assert h1 == h2


def test_unit_point_height_golden(zeta5):
    golden = zeta5.element([0, 0, -1, -1])
    h = unit_point_height(golden, ctx=CTX)
    assert abs(h.as_float - (1 + 5**0.5) / 2) < 1e-12


def test_unit_point_height_torsion(zeta5):
    h = unit_point_height(zeta5.theta(), ctx=CTX)
    assert h.exact == 1


def test_unit_point_height_quintic(quintic):
    h = unit_point_height(quintic.theta(), ctx=CTX)
    assert abs(h.as_float - 1.0962598656179325) < 1e-10


def test_unit_point_height_validation(sqrt2, quintic):
    with pytest.raises(InputError):
        unit_point_height(sqrt2.one() + sqrt2.theta(), ctx=CTX)  # t = 0
    with pytest.raises(InputError):
        unit_point_height(quintic.from_rational(2), ctx=CTX)  # not a unit


def test_enumerate_degree_one():
    records = enumerate_bounded_height(1, Fraction(2), CTX)
    recs = [r for r in records if r.min_poly.degree == 1]
    assert len(recs) == 7
    values = sorted(Fraction(-r.min_poly.coeffs[0], r.min_poly.coeffs[1]) for r in recs)
    assert values == [Fraction(v) for v in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2)]


def test_enumerate_deg2_h1():
    records = enumerate_bounded_height(2, Fraction(1), CTX)
    assert len(records) == 9


def test_enumerate_sorted_and_validated():
    for deg_max, h_max in ((2, Fraction(1)), (1, Fraction(2)), (1, Fraction(7, 2))):
        records = enumerate_bounded_height(deg_max, h_max, CTX)
        keys = [(r.min_poly.degree, r.min_poly.coeffs, r.root_index) for r in records]
        assert keys == sorted(keys)
    with pytest.raises(InputError):
        enumerate_bounded_height(0, Fraction(2), CTX)
    with pytest.raises(InputError):
        enumerate_bounded_height(7, Fraction(2), CTX)
    with pytest.raises(InputError):
        enumerate_bounded_height(2, Fraction(1, 2), CTX)


def test_enumerate_brute_force_degree_one():
    bound = Fraction(6)
    records = enumerate_bounded_height(1, bound, CTX)
    got = sorted(Fraction(-r.min_poly.coeffs[0], r.min_poly.coeffs[1]) for r in records)
    expected = sorted(
        {
            Fraction(p, q)
            for q in range(1, 7)
            for p in range(-6, 7)
            if math.gcd(abs(p), q) == 1 and max(abs(p), q) <= bound
        }
    )
    assert got == expected


def _divides_x_n_minus_1(g: IntPoly) -> bool:
    """Reference root-of-unity test: x^n = 1 mod g for some n <= 2 deg^2."""
    mod, one = g.to_rat(), RatPoly((Fraction(1),))
    power = one
    for _ in range(2 * g.degree**2):
        power = (power * RatPoly((Fraction(0), Fraction(1)))) % mod
        if power == one:
            return True
    return False


def test_cyclotomic_test_matches_divisibility_reference():
    cyclotomic = {
        g for n in range(1, 41)
        for g, _ in factor_int_poly(IntPoly((-1,) + (0,) * (n - 1) + (1,)), degree_cap=40)
    }
    rng = random.Random(7)
    others = set()
    while len(others) < 60:
        d = rng.randint(2, 6)
        g = IntPoly((rng.choice([-1, 1]),) + tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (1,))
        if is_irreducible(g):
            others.add(g)
    lehmer = IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    for g in sorted(cyclotomic | others | {lehmer}, key=lambda p: p.coeffs):
        assert is_root_of_unity(g) == _divides_x_n_minus_1(g), g
    assert all(is_root_of_unity(g) for g in cyclotomic)
    assert not is_root_of_unity(lehmer)


@pytest.mark.parametrize("coeffs", [[0, 1, 0, 0, 0], [0, 0, 0, 1, 1]])
def test_match_ratio_factor_against_polyroots(quintic, coeffs):
    # the factor picked for sigma_{s+2}(u)/sigma_{s+1}(u) vanishes at the
    # ratio computed from mpmath's roots of x^5 - x - 1, and no other does
    u = quintic.element(coeffs)
    ratio_sf = squarefree_part(conjugate_ratio_poly(min_poly_int(u)))
    factors = [f for f, _ in factor_int_poly(ratio_sf)]
    assert len(factors) > 1
    target = _match_ratio_factor(u, ratio_sf, factors, CTX)
    with mp.workdps(60):
        roots = mp.polyroots([1, 0, 0, 0, -1, -1], maxsteps=200, extraprec=200)
        up1, up2 = sorted((r for r in roots if r.imag > 0), key=lambda r: r.real)
        ratio = mp.polyval(coeffs[::-1], up2) / mp.polyval(coeffs[::-1], up1)
        for fac in factors:
            value = abs(mp.polyval(list(fac.coeffs[::-1]), ratio))
            assert (value < mpf(10) ** -40) == (fac == target), fac


# ---------------------------------------------------------------------------
# The orbit sweep against per-candidate references


def _box_rows(d, bound):
    """Every coefficient tuple of the degree-d sweep box with a_0 != 0."""
    limits = [int(math.comb(d, i) * bound) for i in range(d)]
    for lc in range(1, int(bound) + 1):
        for rest in itertools.product(*[range(-b, b + 1) for b in limits]):
            if rest[0] != 0:
                yield rest + (lc,)


def _np_roots_plausible(coeffs, bound):
    """The per-candidate float filter the batched one replaces."""
    m = abs(coeffs[-1])
    for r in np.roots(list(reversed(coeffs))):
        m *= max(1.0, abs(r))
    return m <= float(bound) * (1 + 1e-6)


@pytest.mark.parametrize("d, h", [(2, "7/4"), (3, "3/2"), (4, "11/10")])
def test_batched_filter_matches_np_roots(d, h):
    bound = Fraction(h) ** d
    rows = list(_box_rows(d, bound))
    got = _mahler_plausible(np.array(rows), bound)
    want = [_np_roots_plausible(c, bound) for c in rows]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)


def _reference_orbit(coeffs):
    """f(x), f(-x), x^d f(1/x) and x^d f(-1/x), primitive with lc > 0."""
    f = IntPoly(coeffs)
    neg = IntPoly(tuple(c * (-1) ** i for i, c in enumerate(coeffs))).primitive()
    return {g.coeffs for g in (f, neg, f.reverse().primitive(), neg.reverse().primitive())}


@pytest.mark.parametrize("d, h", [(3, "3/2"), (4, "11/10")])
def test_orbit_representatives_are_least_members(d, h):
    bound = Fraction(h) ** d
    primitive = [c for c in _box_rows(d, bound) if math.gcd(*c) == 1]
    reps = {tuple(r) for chunk in _orbit_representatives(d, bound) for r in chunk.tolist()}
    assert reps == {min(_reference_orbit(c)) for c in primitive}
    for rep in reps:
        assert sorted(_orbit(rep)) == sorted(_reference_orbit(rep))


def _reference_sweep(d, h_max):
    """The per-candidate sweep: every box candidate through the np.roots
    filter, irreducibility, and a Mahler measure and height of its own.
    For a bound h_max^d that is not an integer no tie can occur."""
    bound = h_max**d
    out = []
    for coeffs in _box_rows(d, bound):
        f = IntPoly(coeffs)
        if math.gcd(*coeffs) != 1 or not _np_roots_plausible(coeffs, bound):
            continue
        if not is_irreducible(f):
            continue
        if is_root_of_unity(f):
            hv, rou = height_algebraic(f), True
        else:
            m = mahler_measure(f, ctx=CTX)
            assert abs(m.value - mpf(bound.numerator) / bound.denominator) > m.error
            if m.value > mpf(bound.numerator) / bound.denominator:
                continue
            hv, rou = height_algebraic(f, ctx=CTX), False
        out.extend((coeffs, idx, hv, rou) for idx in range(d))
    return sorted(out, key=lambda rec: rec[:2])


@pytest.mark.parametrize("d, h", [(2, "7/4"), (3, "5/4"), (4, "11/10")])
def test_orbit_sweep_matches_per_candidate_reference(d, h):
    h_max = Fraction(h)
    got = [r for r in enumerate_bounded_height(d, h_max, CTX) if r.min_poly.degree == d]
    want = _reference_sweep(d, h_max)
    assert [(r.min_poly.coeffs, r.root_index, r.height.exact, r.is_root_of_unity)
            for r in got] == [(c, i, hv.exact, rou) for c, i, hv, rou in want]
    for r, (_, _, hv, _) in zip(got, want):
        assert abs(r.height.value - hv.value) <= r.height.error + hv.error


@pytest.mark.parametrize("d, h", [(2, "7/4"), (4, "11/10")])
def test_orbit_member_heights_contain_polyroots(d, h):
    records = [r for r in enumerate_bounded_height(d, Fraction(h), CTX)
               if r.min_poly.degree == d and r.root_index == 0]
    with mp.workdps(60):
        for r in records:
            c = r.min_poly.coeffs
            m = mpf(c[-1])
            for z in mp.polyroots(c[::-1], maxsteps=200, extraprec=200):
                m *= max(1, abs(z))
            ref = m ** (mpf(1) / d)
            assert abs(r.height.value - ref) <= r.height.error + mpf(10) ** -55, c


def test_roots_on_unit_circle_route():
    assert _roots_on_unit_circle(IntPoly((4, -7, 4)))
    assert _roots_on_unit_circle(IntPoly((1, 1, 1, 1, 1)))  # Phi_5
    assert not _roots_on_unit_circle(IntPoly((1, -3, 1)))  # real roots
    lehmer = IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    assert not _roots_on_unit_circle(lehmer)  # a Salem polynomial
    assert not _roots_on_unit_circle(IntPoly((-3, 0, 4)))  # not palindromic


# ---------------------------------------------------------------------------
# The exact factor sieve against is_irreducible


@pytest.mark.parametrize("d, h", [(2, "3"), (3, "3/2"), (4, "11/10")])
def test_factor_sieve_matches_is_irreducible(d, h):
    # every orbit representative, not only the filter survivors, so rows
    # with M(f) far above the bound are decided too
    rows = np.concatenate(list(_orbit_representatives(d, Fraction(h) ** d)))
    want = [is_irreducible(IntPoly(r)) for r in rows.tolist()]
    assert _irreducible_rows(rows).tolist() == want
    assert 0 < sum(want) < len(want)


def test_factor_sieve_hand_built_rows():
    cubic = IntPoly((-1, -1, 0, 1))  # x^3 - x - 1
    quadratic = IntPoly((1, 1, 1))  # x^2 + x + 1
    quartics = [
        IntPoly((1, 3, 1)) * IntPoly((1, -3, 1)),  # x^4 - 7x^2 + 1
        IntPoly((2, 5, 3)) * IntPoly((-1, 4, 1)),  # lc 3, a_0 -2
        IntPoly((1, 0, 0, 0, 1)),  # Phi_8
        IntPoly((-1, -1, 0, 0, 1)),  # x^4 - x - 1
    ]
    sextics = [
        cubic * IntPoly((1, -1, 0, 1)),  # (x^3 - x - 1)(x^3 - x + 1)
        IntPoly((-2, 0, 3, 1)) * IntPoly((5, -2, 0, 1)),  # cubic factors, larger middles
        IntPoly((1,) * 7),  # Phi_7
        IntPoly((1, 0, 0, 1, 0, 0, 1)),  # Phi_9
        IntPoly((-1, 0, -1, 0, 0, 0, 1)),  # x^6 - x^2 - 1
        quadratic * quadratic * IntPoly((-1, -1, 1)),  # not squarefree
        cubic * cubic,  # not squarefree, no factor of degree < 3
    ]
    for polys in (quartics, sextics):
        got = _irreducible_rows(np.array([p.coeffs for p in polys]))
        assert got.tolist() == [is_irreducible(p) for p in polys]
    assert got.tolist() == [False, False, True, True, True, False, False]


def test_factor_sieve_refuses_int64_overflow():
    # ||f||_1 (lc + |a_0|)^3 is about 2^84, far beyond int64
    rows = np.array([[2**21, 1, 1, 1]])
    with pytest.raises(BudgetExceeded):
        _irreducible_rows(rows)
