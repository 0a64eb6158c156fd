import io
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from possing import nondeg
from possing.cli import run
from possing.localalg import INFINITY, milnor, tjurina
from possing.newton import cpolytope_from_poly
from possing.nondeg import (
    detect_qh,
    innd_check,
    saito_check,
    sqh_check,
    weighted_initial_form,
)
from possing.poly import Ring, poly_from_string

RQ = Ring(0, ("x", "y"))


def P(ring, text):
    return poly_from_string(ring, text)


class TestDetectQH:
    def test_space_singularity(self):
        R = Ring(0, ("x", "y", "z"))
        qh = detect_qh(P(R, "x^2*z+y^3+z^4"))
        assert qh.weights == (9, 8, 6) and qh.degree == 24

    def test_cusp_family(self):
        R = Ring(0, ("x", "y", "z"))
        qh = detect_qh(P(R, "x^3+x*y^3+z^2"))
        assert qh.weights == (6, 4, 9) and qh.degree == 18

    def test_two_facet_support_is_not_qh(self):
        f = RQ.poly([((4, 0), 1), ((2, 2), 1), ((0, 5), 1)])
        assert detect_qh(f) is None

    def test_single_monomial_minimal_weights(self):
        qh = detect_qh(P(RQ, "x^3"))
        assert qh.weights == (1, 1) and qh.degree == 3

    def test_gcd_normalized(self):
        qh = detect_qh(P(RQ, "x^2+y^2"))
        assert qh.weights == (1, 1) and qh.degree == 2

    def test_unused_variable_gets_weight_one(self):
        R = Ring(0, ("x", "y", "z"))
        qh = detect_qh(P(R, "x^2+y^3"))
        assert qh.weights == (3, 2, 1) and qh.degree == 6

    def test_constant_term_is_not_qh(self):
        R = Ring(0, ("x", "y", "z"))
        assert detect_qh(P(R, "1+x^2+y^3")) is None


def compositions(total, n):
    """Positive integer vectors of length n and sum total, in lexicographic order."""
    if n == 1:
        yield (total,)
        return
    for first in range(1, total - n + 2):
        for rest in compositions(total - first, n - 1):
            yield (first,) + rest


def least_qh_weights(support, n, cap=40):
    """The least positive w by (L1 norm, lexicographic order) that puts the
    support on one hyperplane w . p = d, searched up to L1 norm cap."""
    for total in range(n, cap + 1):
        for w in compositions(total, n):
            if len({sum(a * b for a, b in zip(w, p)) for p in support}) == 1:
                return w
    return None


@st.composite
def qh_supports(draw):
    """Supports on one weighted hyperplane or drawn freely, with some
    variables unused and possibly a constant term."""
    n = draw(st.integers(1, 3))
    box = list(product(range(5), repeat=n))
    if draw(st.booleans()):
        w = draw(st.tuples(*[st.integers(1, 4)] * n))
        d = sum(a * b for a, b in zip(w, draw(st.sampled_from(box))))
        box = [p for p in box if sum(a * b for a, b in zip(w, p)) == d]
    support = draw(st.sets(st.sampled_from(box), min_size=1, max_size=5))
    unused = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    support = {tuple(0 if i in unused else a for i, a in enumerate(p)) for p in support}
    if draw(st.booleans()):
        support.add((0,) * n)
    return n, sorted(support)


@settings(max_examples=150, deadline=None)
@given(qh_supports())
def test_detect_qh_matches_least_weights(drawn):
    n, support = drawn
    f = Ring(0, ("x", "y", "z")[:n]).poly([(m, 1) for m in support])
    qh = detect_qh(f)
    w = least_qh_weights(support, n)
    if w is None:
        assert qh is None or sum(qh.weights) > 40
    else:
        assert qh is not None
        assert (qh.weights, qh.degree) == (w, sum(a * b for a, b in zip(w, support[0])))


class TestSQH:
    def test_right_product_formula(self):
        R = Ring(0, ("x", "y", "z"))
        rep = sqh_check(P(R, "x^2*z+y^3+z^4"), (9, 8, 6), "right")
        assert rep.semi
        assert rep.principal_invariant == 10
        assert rep.product_formula == 10
        assert rep.formula_consistent

    def test_contact_but_not_right(self):
        R7 = Ring(7, ("x", "y"))
        f = P(R7, "x^7+x^6*y+y^4")
        contact = sqh_check(f, (4, 7), "contact")
        right = sqh_check(f, (4, 7), "right")
        assert contact.semi and contact.principal_invariant == 21
        assert not right.semi and right.principal_invariant == INFINITY

    def test_qh_input_is_its_own_principal_part(self):
        f = P(RQ, "x^3+y^3")
        rep = sqh_check(f, (1, 1), "right")
        assert rep.principal_part == f
        assert rep.semi and rep.principal_invariant == milnor(f)

    def test_weighted_initial_form(self):
        R7 = Ring(7, ("x", "y"))
        assert weighted_initial_form(P(R7, "x^7+x^6*y+y^4"), (4, 7)) == P(
            R7, "x^7+y^4"
        )


class TestINND:
    def test_cusp_sum(self):
        R5 = Ring(5, ("x", "y"))
        f = P(R5, "x^3+y^3")
        assert innd_check(f, cpolytope_from_poly(f)).nondegenerate

    def test_vanishing_jacobian_fails(self):
        R2 = Ring(2, ("x", "y"))
        f = P(R2, "x^2+y^2")
        rep = innd_check(f, cpolytope_from_poly(f))
        assert not rep.nondegenerate
        assert rep.failing is not None

    def test_t45_char7(self):
        R7 = Ring(7, ("x", "y"))
        f = P(R7, "x^5+x^2*y^2+y^4")
        assert innd_check(f, cpolytope_from_poly(f)).nondegenerate

    def test_t45_char2_fails(self):
        R2 = Ring(2, ("x", "y"))
        f = P(R2, "x^5+x^2*y^2+y^4")
        assert not innd_check(f, cpolytope_from_poly(f)).nondegenerate


class TestSaito:
    def test_quasihomogeneous_cases(self):
        assert saito_check(P(RQ, "x^3+y^3"))
        assert saito_check(P(RQ, "x^2+y^7"))

    def test_non_quasihomogeneous(self):
        f = P(RQ, "x^5+y^5+x^3*y^3")
        # frozen from the standard-basis engine: mu=16, tau=15
        assert milnor(f) == 16 and tjurina(f) == 15
        assert not saito_check(f)

    def test_positive_characteristic_rejected(self):
        R5 = Ring(5, ("x", "y"))
        with pytest.raises(ValueError):
            saito_check(P(R5, "x^3+y^3"))

    def test_requires_isolated(self):
        with pytest.raises(ValueError):
            saito_check(P(RQ, "x^2"))

    def test_oracle_disagreement_is_internal(self, monkeypatch):
        """A wrong cross-check count raises AssertionError, and `classify`
        reports it with exit code 3."""
        monkeypatch.setattr(nondeg, "bruteforce_vdim", lambda gens, cap: cap + 1)
        with pytest.raises(AssertionError):
            saito_check(P(RQ, "x^3+y^3"))
        out, err = io.StringIO(), io.StringIO()
        assert run(["classify", "--vars", "x,y", "x^3+y^3"], out=out, err=err) == 3
        assert err.getvalue().startswith("error: internal: ")


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(4, 10),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3), min_size=1),
)
def test_saito_holds_for_quasihomogeneous(w1, w2, d, coeffs):
    """Over Q a quasihomogeneous germ lies in its Jacobian ideal by the Euler
    relation d*f = w1*x*f_x + w2*y*f_y, so mu == tau."""
    support = [
        (a, b)
        for a in range(d + 1)
        for b in range(d + 1)
        if a * w1 + b * w2 == d and a + b >= 2
    ]
    f = RQ.poly(list(zip(support, coeffs)))
    assume(not f.is_zero() and milnor(f) != INFINITY)
    assert saito_check(f)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(6, 12),
    st.integers(0, 255),
)
def test_sqh_tau_bounded_by_principal(char, w1, w2, d, mask):
    """Perturbing above the weight level never raises the Tjurina number."""
    ring = Ring(char, ("x", "y"))
    w = (w1, w2)
    base = [
        (a, b)
        for a in range(d + 1)
        for b in range(d + 1)
        if a * w1 + b * w2 == d and a + b >= 2
    ]
    assume(base)
    f0 = ring.poly([(m, 1) for m in base])
    assume(not f0.is_zero())
    rep = sqh_check(f0, w, "contact")
    assume(rep.semi)
    tail_monos = [
        (a, b)
        for a in range(7)
        for b in range(7)
        if a * w1 + b * w2 > d and 0 < a + b <= 6
    ]
    tail = ring.poly(
        [(m, 1) for i, m in enumerate(tail_monos) if mask & (1 << (i % 8))][:3]
    )
    f = f0 + tail
    assert weighted_initial_form(f, w) == f0
    assert tjurina(f) <= rep.principal_invariant
