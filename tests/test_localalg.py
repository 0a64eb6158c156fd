import pytest
from hypothesis import assume, given, settings, strategies as st

from possing.localalg import (
    GLOBAL,
    INFINITY,
    LOCAL,
    bruteforce_local_dim,
    bruteforce_vdim,
    contains_one,
    ideal_membership,
    jacobian_ideal_gens,
    milnor,
    min_power_containment,
    saturate,
    std_basis,
    tjurina,
    vdim,
)
from possing.normalform import _tangent_ideal_gens
from possing.poly import Poly, Ring, poly_from_string


def P(ring, text):
    return poly_from_string(ring, text)


RQ = Ring(0, ("x", "y"))
R2 = Ring(2, ("x", "y"))


class TestStdBasis:
    def test_already_a_basis(self):
        sb = std_basis([RQ.poly([((1, 0), 2)]), RQ.poly([((0, 2), 3)])], LOCAL)
        assert set(sb.leading_monomials) == {(1, 0), (0, 2)}

    def test_t45_jacobian_char2(self):
        f = P(R2, "x^5+x^2*y^2+y^4")
        sb = std_basis(jacobian_ideal_gens(f), LOCAL)
        assert sb.leading_monomials == ((4, 0),)

    def test_mixed_linear(self):
        sb = std_basis([P(RQ, "x+y^2"), P(RQ, "y+x^2")], LOCAL)
        assert set(sb.leading_monomials) == {(1, 0), (0, 1)}

    def test_input_generators_reduce_to_zero(self):
        gens = [P(RQ, "x^3+y^3+x^2*y^2"), P(RQ, "3*x^2+2*x*y^2")]
        sb = std_basis(gens, LOCAL)
        assert all(sb.contains(g) for g in gens)


class TestVdim:
    def test_maximal_ideal(self):
        assert vdim(std_basis([RQ.var(0), RQ.var(1)], LOCAL)).dimension == 1

    def test_monomial_box(self):
        sb = std_basis([P(RQ, "x^4"), P(RQ, "y^6")], LOCAL)
        assert vdim(sb).dimension == 24

    def test_missing_pure_power_is_infinite(self):
        sb = std_basis([P(RQ, "x^4")], LOCAL)
        assert vdim(sb).dimension == INFINITY


class TestMilnorTjurina:
    def test_node(self):
        assert milnor(P(RQ, "x^2+y^2")) == 1

    def test_char_divides_degree(self):
        R5 = Ring(5, ("x", "y"))
        f = P(R5, "x^5+y^4")
        assert milnor(f) == INFINITY
        assert tjurina(f) == 5 * 3

    def test_q10_milnor(self):
        R = Ring(0, ("x", "y", "z"))
        assert milnor(P(R, "x^2*z+y^3+z^4")) == 10

    def test_t45_tjurina(self):
        assert tjurina(P(R2, "x^5+x^2*y^2+y^4")) == 16

    def test_e33_tjurina(self):
        R3 = Ring(3, ("x", "y"))
        assert tjurina(P(R3, "x^12+x^3*y^2+y^3")) == 21

    def test_rejects_units(self):
        with pytest.raises(ValueError):
            milnor(P(RQ, "1+x"))


class TestMinPower:
    def test_maximal_ideal(self):
        assert min_power_containment(std_basis([RQ.var(0), RQ.var(1)], LOCAL)) == 1

    def test_squares(self):
        sb = std_basis([P(RQ, "x^2"), P(RQ, "y^2")], LOCAL)
        assert min_power_containment(sb) == 3  # xy is not in the ideal

    def test_infinite(self):
        assert min_power_containment(std_basis([P(RQ, "x^4")], LOCAL)) == INFINITY


class TestMembership:
    def test_euler_formula(self):
        f = P(RQ, "x^3+y^3")
        sb = std_basis(jacobian_ideal_gens(f), LOCAL)
        member, cert = ideal_membership(f, sb, certificate=True)
        assert member
        assert cert.verify(f, sb.generators)

    def test_non_member(self):
        R5 = Ring(5, ("x", "y"))
        f = P(R5, "x^5+y^4")
        sb = std_basis(jacobian_ideal_gens(f), LOCAL)
        assert not ideal_membership(f, sb)[0]

    def test_variable_in_maximal_ideal(self):
        sb = std_basis([RQ.var(0), RQ.var(1)], LOCAL)
        member, cert = ideal_membership(RQ.var(0), sb, certificate=True)
        assert member and cert.verify(RQ.var(0), sb.generators)


class TestSaturate:
    def test_monomial(self):
        x, y = RQ.var(0), RQ.var(1)
        assert [p for p in saturate([x * y], x)] == [y]

    def test_unrelated(self):
        x, y = RQ.var(0), RQ.var(1)
        assert saturate([x], y) == [x]

    def test_unit_result(self):
        x, y = RQ.var(0), RQ.var(1)
        out = saturate([x * x, x * y], x)
        assert contains_one(out)


chars = st.sampled_from([2, 3, 5])
small_polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(1, 6)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(chars, small_polys, st.integers(2, 5), st.integers(2, 5))
def test_vdim_agrees_with_bruteforce(char, terms, a, b):
    """Mora/Lazard dimensions against the truncated linear-algebra oracle."""
    ring = Ring(char, ("x", "y"))
    f = ring.monomial((a, 0)) + ring.monomial((0, b)) + ring.poly(
        [(m, c) for m, c in terms if sum(m) >= 1]
    )
    assume(not f.is_zero() and not f.constant_term())
    gens = jacobian_ideal_gens(f)
    assume(gens)
    value = vdim(std_basis(gens, LOCAL)).dimension
    cap = 40
    oracle = bruteforce_vdim(gens, cap)
    if value != INFINITY and value <= cap:
        assert value == oracle
    elif oracle != INFINITY:
        assert value == oracle


@settings(max_examples=40, deadline=None)
@given(chars, small_polys)
def test_vdim_invariant_under_variable_swap(char, terms):
    ring = Ring(char, ("x", "y"))
    f = ring.poly([(m, c) for m, c in terms if sum(m) >= 1])
    assume(not f.is_zero())
    swapped = ring.poly([((m[1], m[0]), c) for m, c in f.terms.items()])
    gens = jacobian_ideal_gens(f)
    gens_s = jacobian_ideal_gens(swapped)
    assume(gens and gens_s)
    assert (
        vdim(std_basis(gens, LOCAL)).dimension
        == vdim(std_basis(gens_s, LOCAL)).dimension
    )


@settings(max_examples=40, deadline=None)
@given(chars, small_polys, st.integers(2, 4), st.integers(2, 4))
def test_tau_at_most_mu(char, terms, a, b):
    ring = Ring(char, ("x", "y"))
    f = ring.monomial((a, 0)) + ring.monomial((0, b)) + ring.poly(
        [(m, c) for m, c in terms if sum(m) >= 1]
    )
    assume(not f.is_zero() and not f.constant_term())
    mu = milnor(f)
    assume(mu != INFINITY)
    assert tjurina(f) <= mu


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0, 2, 3, 5]),
    small_polys,
    st.integers(2, 4),
    st.integers(2, 4),
    st.sampled_from(["jacobian", "right", "contact"]),
)
def test_min_power_containment_agrees_with_bruteforce(char, terms, a, b, ideal):
    """The read-off k is the least k with dim K[[x]]/(I + m^k) = dim K[[x]]/I."""
    ring = Ring(char, ("x", "y"))
    f = ring.monomial((a, 0)) + ring.monomial((0, b)) + ring.poly(
        [(m, c) for m, c in terms if 2 <= sum(m) <= 4]
    )
    assume(not f.is_zero() and not f.constant_term())
    gens = jacobian_ideal_gens(f) if ideal == "jacobian" else _tangent_ideal_gens(f, ideal)
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    sb = std_basis(gens, LOCAL)
    dim = vdim(sb).dimension
    assume(dim != INFINITY)
    oracle = next(k for k in range(dim + 1) if bruteforce_local_dim(gens, k) == dim)
    assert min_power_containment(sb) == oracle


sat_polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(1, 4)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(
    chars,
    st.lists(sat_polys, min_size=1, max_size=3),
    st.sampled_from([(1, 0), (0, 1), (1, 1)]),
)
def test_saturate_is_the_saturation(char, gen_terms, g_expo):
    """I lies in I : g^inf, each result generator times a power of g lies in I,
    and the result is the unit ideal when a power of g lies in I."""
    ring = Ring(char, ("x", "y"))
    gens = [g for g in (ring.poly(terms) for terms in gen_terms) if not g.is_zero()]
    assume(gens)
    g = ring.monomial(g_expo)
    out = saturate(gens, g)
    sat = std_basis(out, GLOBAL)
    assert all(sat.contains(p) for p in gens)
    ideal = std_basis(gens, GLOBAL)
    powers = [ring.one()]
    for _ in range(16):
        powers.append(powers[-1] * g)
    for s in out:
        assert any(ideal.contains(gk * s) for gk in powers)
    if any(ideal.contains(gk) for gk in powers):
        assert contains_one(out)
