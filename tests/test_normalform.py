from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from possing.grading import ConditionFailure, GradedAlgebra, regular_basis
from possing.localalg import _first_zero_level, milnor, mode_ideal_gens, std_basis, tjurina
from possing.newton import cpolytope_from_poly, cpolytope_from_weights, initial_form
from possing.normalform import (
    NormalFormRefusal,
    determinacy_filtered,
    determinacy_generic,
    _tangent_ideal_gens,
    normal_form,
    precondition_constant,
    replay_matches,
)
from possing.poly import INFINITY, Ring, mono_divides, poly_from_string

RQ = Ring(0, ("x", "y"))


def P(ring, text):
    return poly_from_string(ring, text)


def q10_setup():
    ring = Ring(2, ("x", "y", "z"))
    f = P(ring, "x^2*z+y^3+z^4")
    Pw = cpolytope_from_weights([(Fraction(9, 24), Fraction(8, 24), Fraction(6, 24))])
    return ring, f, Pw


class TestDeterminacyGeneric:
    def test_e33(self):
        R3 = Ring(3, ("x", "y"))
        assert determinacy_generic(P(R3, "x^12+x^3*y^2+y^3"), "contact") == 41

    def test_node_right(self):
        assert determinacy_generic(P(RQ, "x^2+y^2"), "right") == 2

    def test_t45_contact(self):
        R2 = Ring(2, ("x", "y"))
        # order of x^5+x^2*y^2+y^4 is 4, so the bound is 2*16-4+2
        assert determinacy_generic(P(R2, "x^5+x^2*y^2+y^4"), "contact") == 30

    def test_infinite_refused(self):
        R2 = Ring(2, ("x", "y"))
        with pytest.raises(Exception):
            determinacy_generic(P(R2, "x^5+x^2*y^2+y^4"), "right")  # mu infinite


class TestDeterminacyFiltered:
    def test_q10(self):
        ring, f, Pw = q10_setup()
        rb = regular_basis(Pw, f, "contact")
        rep = determinacy_filtered(f, rb)
        assert rep.max_valuation == 35
        assert rep.filtered_bound == 5

    def test_e33(self):
        R3 = Ring(3, ("x", "y"))
        f = P(R3, "x^12+x^3*y^2+y^3")
        Pw = cpolytope_from_poly(f)
        rb = regular_basis(Pw, f, "contact")
        rep = determinacy_filtered(f, rb)
        assert rep.max_valuation == 112
        assert rep.filtered_bound == 18
        assert rep.filtered_bound <= determinacy_generic(f, "contact")

    def test_tpq_max(self):
        for p, q, char in ((4, 5, 0), (5, 6, 0), (5, 7, 11)):
            ring = Ring(char, ("x", "y"))
            f = ring.poly([((p, 0), 1), ((2, 2), 1), ((0, q), 1)])
            Pw = cpolytope_from_poly(f)
            rb = regular_basis(Pw, f, "contact")
            rep = determinacy_filtered(f, rb)
            assert rep.filtered_bound == max(p, q)

    def test_mode_is_the_basis_mode(self):
        """The bound's mode is that of the basis: this germ's right graded
        algebra is infinite, so only its contact basis yields a bound."""
        R3 = Ring(3, ("x", "y"))
        f = P(R3, "x^12+x^3*y^2+y^3")
        Pw = cpolytope_from_poly(f)
        with pytest.raises(ConditionFailure):
            determinacy_filtered(f, regular_basis(Pw, f, "right"))
        rep = determinacy_filtered(f, regular_basis(Pw, f, "contact"))
        assert (rep.mode, rep.filtered_bound) == ("contact", 18)


class TestNormalForm:
    def test_right_cusp_with_tail(self):
        f = P(RQ, "x^3+y^3+x^2*y^2")
        Pw = cpolytope_from_poly(f)
        nf = normal_form(Pw, f, "right")
        assert nf.polynomial() == P(RQ, "x^3+y^3")
        assert nf.tail == {}
        assert replay_matches(Pw, f, nf)

    def test_q10_tail(self):
        ring, f, Pw = q10_setup()
        g = f + P(ring, "y*z^3+x*y*z^2+z^5")
        nf = normal_form(Pw, g, "contact")
        assert set(nf.tail_support()) <= {(1, 1, 2), (1, 0, 3), (0, 1, 3), (1, 1, 3)}
        assert replay_matches(Pw, g, nf)
        assert tjurina(nf.polynomial()) == tjurina(g)

    def test_refusal_carries_witness(self):
        R2 = Ring(2, ("x", "y"))
        f = P(R2, "x^5+x^2*y^2+y^4")
        Pw = cpolytope_from_poly(f)
        with pytest.raises(NormalFormRefusal) as info:
            normal_form(Pw, f, "contact", scan_bound=24)
        assert info.value.witness.direction == (0, 1)

    def test_tail_valuations_exceed_principal(self):
        R3 = Ring(3, ("x", "y"))
        f = P(R3, "x^12+x^3*y^2+y^3")
        Pw = cpolytope_from_poly(f)
        g = f + P(R3, "x*y^3")
        nf = normal_form(Pw, g, "contact")
        vf = 72
        assert all(Pw.value(m) > vf for m in nf.tail_support())

    @pytest.mark.parametrize("char", [0, 5])
    def test_wave_tail_removed_by_wider_image(self, char):
        # x*y^4 survives in the inexact graded algebra (dim 15, tau 14) but
        # equals x*E(f) - 7*x*f with E = x d/dx + 2*y d/dy
        ring = Ring(char, ("x", "y"))
        f = P(ring, "x^7+x^3*y^2+y^4")
        Pw = cpolytope_from_poly(f)
        g = f + P(ring, "x*y^4")
        nf = normal_form(Pw, g, "contact")
        assert (1, 4) in nf.candidates
        assert nf.tail == {}
        assert nf.polynomial() == f
        assert replay_matches(Pw, g, nf)
        assert tjurina(nf.polynomial()) == tjurina(g)

    def test_monotone_progress_and_candidates(self):
        ring, f, Pw = q10_setup()
        g = f + P(ring, "x*y*z^2")
        nf = normal_form(Pw, g, "contact")
        assert nf.tail == {(1, 1, 2): 1}
        assert (1, 1, 2) in nf.candidates

    def test_reduction_reuses_the_scanned_pieces(self, monkeypatch):
        """normal_form reduces in the graded algebra its regular basis was
        computed in, so no graded piece is computed twice."""
        calls = Counter()
        compute = GradedAlgebra._compute_piece

        def counting(alg, d):
            calls[d] += 1
            return compute(alg, d)

        monkeypatch.setattr(GradedAlgebra, "_compute_piece", counting)
        ring, f, Pw = q10_setup()
        normal_form(Pw, f + P(ring, "x*y*z^2"), "contact")
        assert calls and [d for d, n in calls.items() if n > 1] == []


class TestPreconditionConstant:
    def test_cusp_right(self):
        assert precondition_constant(P(RQ, "x^3+y^3+x^2*y^2"), "right") == 2

    def test_contact_no_larger_than_right(self):
        f = P(RQ, "x^3+y^4")
        right = precondition_constant(f, "right")
        contact = precondition_constant(f, "contact")
        assert contact <= right

    @pytest.mark.parametrize(
        "char,text,expected",
        [
            (0, "x^2*y^2", (INFINITY, INFINITY)),  # not isolated
            (3, "x^3+y^4", (INFINITY, 3)),  # d/dx vanishes in char 3
            (2, "x^2+y^3", (INFINITY, 2)),
            (5, "x^5+y^6+x*y^4", (INFINITY, 5)),
        ],
    )
    def test_right_and_contact_pairs(self, char, text, expected):
        f = P(Ring(char, ("x", "y")), text)
        assert (precondition_constant(f, "right"), precondition_constant(f, "contact")) == expected


# (characteristic, variables, germ, contact eliminations of precondition_constant):
# the golden `normalform` and `determinacy` germs, and the criterion 1 and
# criterion 3 normal-form germs of the fixtures.  The last two have c = top + 1,
# which a first truncation at top + 1 leaves undecided; the determinacy germ
# has c = top + 2, past any first echelon that stops at level top + 1.
PRECONDITION_GERMS = [
    (2, "x,y,z", "x^2*z+y^3+z^4+x*y*z^2", 1),
    (3, "x,y", "x^12+x^3*y^2+y^3", 2),
    (2, "x,y", "x^5+x^2*y^2+y^4", 1),
    (3, "x,y", "x^12+x^3*y^2+y^3+x*y^3+2*x^2*y^4+x^10*y", 1),
]


def _contact_tangent(char, names, text):
    ring = Ring(char, tuple(names.split(",")))
    f = P(ring, text)
    gens = _tangent_ideal_gens(f, "contact")
    cap = int(tjurina(f)) + len(mode_ideal_gens(f, "contact")) * (ring.nvars + 1)
    return f, gens, cap


@pytest.mark.parametrize("char,names,text,passes", PRECONDITION_GERMS)
def test_first_zero_level_independent_of_start(char, names, text, passes):
    """The first zero level and the count below it do not depend on where
    the truncations start (Nakayama), for every start from 2 to d + 2."""
    _, gens, cap = _contact_tangent(char, names, text)
    stop = _first_zero_level(gens, 2, cap)
    assert stop is not None
    assert {_first_zero_level(gens, s, cap) for s in range(2, stop[0] + 3)} == {stop}


@pytest.mark.parametrize("char,names,text,passes", PRECONDITION_GERMS)
def test_precondition_elimination_count(monkeypatch, char, names, text, passes):
    """precondition_constant's first echelon, truncated at the tangent
    generators' top degree + 2, decides c whenever c <= top + 1."""
    import possing.localalg as localalg

    f, gens, _ = _contact_tangent(char, names, text)
    top = max(g.degree() + k for g, k in gens)
    calls = []
    degree_dims = localalg._degree_dims
    monkeypatch.setattr(localalg, "_degree_dims",
                        lambda gens, dmax: calls.append(dmax) or degree_dims(gens, dmax))
    k = precondition_constant(f, "contact")
    assert len(calls) == passes and calls[0] == top + 1
    assert (k + 2 <= top + 1) == (passes == 1)


@pytest.mark.parametrize("char,names,text,passes", PRECONDITION_GERMS[:2])
def test_precondition_adds_each_tangent_row_once(monkeypatch, char, names, text, passes):
    """Each echelon of precondition_constant adds every row of the contact
    tangent ideal once: x^delta * f with |delta| >= 1 and x^delta * d_i f
    with |delta| >= 2, one add_row call per (g, delta) with |delta| <=
    dmax - ord(g), the rows inside the truncation dmax."""
    import possing.localalg as localalg
    from possing.newton import _Echelon

    f, _, _ = _contact_tangent(char, names, text)
    n = f.ring.nvars
    rows = [(f, 1)] + [(f.partial(i), 2) for i in range(n) if not f.partial(i).is_zero()]
    levels, added = [], []
    degree_dims = localalg._degree_dims
    monkeypatch.setattr(localalg, "_degree_dims",
                        lambda gens, dmax: levels.append(dmax) or degree_dims(gens, dmax))
    add_row = _Echelon.add_row
    monkeypatch.setattr(_Echelon, "add_row",
                        lambda self, vec, label=None: added.append(vec) or add_row(self, vec, label))
    precondition_constant(f, "contact")
    assert len(levels) == passes
    assert len(added) == sum(
        comb(d + n - 1, n - 1)
        for dmax in levels
        for g, k in rows
        for d in range(k, dmax - int(g.order()) + 1)
    )


@st.composite
def small_germs(draw):
    """Germs of order >= 2 in 2 or 3 variables over Q, F_2, F_3 or F_5, from
    up to four terms of degree <= 4, with or without pure powers; without
    them they are often not isolated."""
    char = draw(st.sampled_from([0, 2, 3, 5]))
    n = draw(st.integers(2, 3))
    ring = Ring(char, ("x", "y", "z")[:n])
    exponents = st.tuples(*[st.integers(0, 4)] * n).filter(lambda m: 2 <= sum(m) <= 4)
    f = ring.poly(draw(st.lists(st.tuples(exponents, st.integers(1, 6)), max_size=4)))
    if draw(st.booleans()):
        for i, a in enumerate(draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))):
            f = f + ring.monomial(tuple(a if j == i else 0 for j in range(n)))
    return f


def lazard_least_power(gens):
    """The least c with m^c inside the ideal, read off a local standard basis:
    one more than the top degree of a standard monomial, or INFINITY when
    some variable has no pure power among the leading monomials.

    If m^c lies in I, every monomial of degree >= c is a leading monomial,
    so no standard monomial reaches degree c.  Conversely, let every
    standard monomial have degree < c.  The local order ranks lower degrees
    higher, so for a nonzero combination h of standard monomials and any r
    in m^c, h - r leads with a standard monomial and is not in I.  So
    dim K[[x]]/(I + m^c) = dim K[[x]]/I, and m^c lies in I.
    """
    if not gens:
        return INFINITY
    lms = std_basis(gens).leading_monomials
    bounds = []
    for i in range(len(lms[0])):
        pure = [m[i] for m in lms if sum(m) == m[i]]
        if not pure:
            return INFINITY
        bounds.append(min(pure))
    return max(
        (
            sum(e) + 1
            for e in product(*(range(b) for b in bounds))
            if not any(mono_divides(lm, e) for lm in lms)
        ),
        default=0,
    )


def tangent_products(pairs):
    """The explicit products x^delta * g, |delta| = k, of (g, k) pairs, built
    here by plain multiplication and not by the echelon's row builder."""
    out = []
    for g, k in pairs:
        ring = g.ring
        for delta in product(range(k + 1), repeat=ring.nvars):
            if sum(delta) == k:
                out.append(g * ring.monomial(delta))
    return out


@settings(max_examples=80, deadline=None)
@given(small_germs(), st.sampled_from(["right", "contact"]))
def test_precondition_constant_agrees_with_lazard(f, mode):
    """The echelon route against the least power read off a local standard
    basis of the tangent generators, multiplied out independently."""
    products = tangent_products(_tangent_ideal_gens(f, mode))
    c = lazard_least_power([g for g in products if not g.is_zero()])
    assert precondition_constant(f, mode) == (INFINITY if c == INFINITY else max(c - 2, 0))
