import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from possing.poly import (
    INFINITY,
    Automorphism,
    Poly,
    PolyParseError,
    Ring,
    RingError,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    poly_from_string,
    poly_to_string,
    substitute,
    unit_inverse,
)

R2 = Ring(2, ("x", "y"))
R3 = Ring(3, ("x", "y", "z"))
RQ = Ring(0, ("x", "y"))


def P(ring, text):
    return poly_from_string(ring, text)


def test_ring_rejects_composite_characteristic():
    with pytest.raises(RingError):
        Ring(4, ("x",))
    with pytest.raises(RingError):
        Ring(-1, ("x",))


def test_frobenius_square_char2():
    assert P(R2, "x+y") * P(R2, "x+y") == P(R2, "x^2+y^2")


def test_mul_identity():
    f = P(RQ, "x^3+2*x*y")
    assert f * RQ.one() == f


def test_difference_of_squares():
    assert P(RQ, "x^2+y^3") * P(RQ, "x^2-y^3") == P(RQ, "x^4-y^6")


def test_partial_kills_char_exponent():
    R5 = Ring(5, ("x", "y"))
    assert P(R5, "x^5").partial(0).is_zero()


def test_partial_char3():
    f = poly_from_string(Ring(3, ("x", "y", "z")), "x^3+x*y^3+z^2")
    assert f.partial(1).is_zero()


def test_partial_char2_reduction():
    f = P(R2, "x^5+x^2*y^2+y^4")
    assert f.partial(0) == P(R2, "x^4")
    assert f.partial(1).is_zero()


def test_filter_terms_keeps_self_when_nothing_drops():
    f = P(R2, "x^3+x*y+y^2")
    assert f.filter_terms(lambda m: True) is f
    low = f.filter_terms(lambda m: sum(m) <= 2)
    assert low is not f and low == P(R2, "x*y+y^2")
    assert f.filter_terms(lambda m: False) == R2.zero()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.tuples(*[st.integers(0, 9)] * n)] * 2)))
def test_monomial_helpers_match_generator_definitions(pair):
    a, b = pair
    for u, v in ((a, b), (b, a), (a, tuple(max(x, y) for x, y in zip(a, b)))):
        assert mono_mul(u, v) == tuple(x + y for x, y in zip(u, v))
        assert mono_div(u, v) == tuple(x - y for x, y in zip(u, v))
        assert mono_divides(u, v) is all(x <= y for x, y in zip(u, v))
        assert mono_lcm(u, v) == tuple(max(x, y) for x, y in zip(u, v))


def test_order_examples():
    assert poly_from_string(R3, "x^2*z+y^3+z^4").order() == 3
    assert P(RQ, "1+x").order() == 0
    assert RQ.zero().order() == INFINITY


def test_substitute_char2():
    phi = Automorphism(offsets=(R2.var(1), R2.zero()))
    assert substitute(P(R2, "x^2"), phi, 10) == P(R2, "x^2+y^2")


def test_substitute_identity():
    f = P(RQ, "x^3+x*y")
    ident = Automorphism(offsets=(RQ.zero(), RQ.zero()))
    assert substitute(f, ident, 8) == f


def test_substitute_truncation_agrees():
    # x -> x + y^2 applied to x*y
    phi = Automorphism(offsets=(P(RQ, "y^2"), RQ.zero()))
    assert substitute(P(RQ, "x*y"), phi, 10) == P(RQ, "x*y+y^3")


def test_unit_inverse_geometric():
    inv = unit_inverse(P(RQ, "1+x"), 2)
    assert inv == P(RQ, "1-x+x^2")
    assert unit_inverse(RQ.one(), 5) == RQ.one()
    inv2 = unit_inverse(P(R2, "1+x"), 2)
    assert inv2 == P(R2, "1+x+x^2")


def test_unit_inverse_rejects_nonunit():
    with pytest.raises(RingError):
        unit_inverse(P(RQ, "x"), 3)


def test_unit_inverse_contract():
    u = P(RQ, "2+x+3*y^2")
    prod = u * unit_inverse(u, 6)
    assert all(sum(m) > 6 for m in (prod - RQ.one()).terms)


def test_parse_round_trip():
    for text in ("x^5+x^2*y^2+y^4", "3*x^2-2*y+1", "x", "-x+y"):
        f = P(RQ, text)
        assert P(RQ, poly_to_string(f)) == f


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError):
        P(RQ, "x^5+w")
    with pytest.raises(PolyParseError):
        P(RQ, "x y")  # implicit multiplication
    with pytest.raises(PolyParseError):
        P(RQ, "x^")


coeffs = st.integers(min_value=-4, max_value=4)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3))


def polys(ring):
    return st.lists(st.tuples(exps, coeffs), min_size=0, max_size=5).map(ring.poly)


@settings(max_examples=120, deadline=None)
@given(polys(R2), polys(R2), polys(R2))
def test_ring_axioms_char2(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=120, deadline=None)
@given(polys(RQ), polys(RQ))
def test_partial_is_a_derivation(f, g):
    for i in range(2):
        assert (f + g).partial(i) == f.partial(i) + g.partial(i)
        assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


@settings(max_examples=60, deadline=None)
@given(polys(RQ))
def test_substitution_inverts(f):
    # x -> x + y^2 has inverse x -> x - y^2 (y untouched), exactly
    phi = Automorphism(offsets=(poly_from_string(RQ, "y^2"), RQ.zero()))
    psi = Automorphism(offsets=(poly_from_string(RQ, "-y^2"), RQ.zero()))
    cutoff = 2 * f.degree() + 4 if f else 4
    assert substitute(substitute(f, phi, cutoff), psi, cutoff).truncate(
        f.degree() if f else 0
    ) == f


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4))
def test_unit_inverse_no_low_terms(c, k):
    u = RQ.const(c) + poly_from_string(RQ, "x") * RQ.monomial((k, 0))
    prod = u * unit_inverse(u, 8)
    diff = prod - RQ.one()
    assert all(sum(m) > 8 for m in diff.terms)
