from itertools import product

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from possing.localalg import (
    INFINITY,
    StandardBasis,
    _degree_dims,
    _first_zero_level,
    bruteforce_local_dim,
    bruteforce_vdim,
    jacobian_ideal_gens,
    local_dimension,
    milnor,
    mode_ideal_gens,
    saturate,
    std_basis,
    tjurina,
    tjurina_ideal_gens,
    vdim,
)
from possing.grading import (
    GradedAlgebra,
    check_condition,
    plain_graded_dims,
    regular_basis,
)
from possing.newton import cpolytope_from_poly, cpolytope_from_weights, initial_form
from possing.nondeg import sqh_check
from possing.normalform import (
    determinacy_filtered,
    determinacy_generic,
    normal_form,
    precondition_constant,
)
from possing.poly import Ring, degrevlex_key, poly_from_string, poly_to_string


def P(ring, text):
    return poly_from_string(ring, text)


RQ = Ring(0, ("x", "y"))
R2 = Ring(2, ("x", "y"))


class TestStdBasis:
    def test_already_a_basis(self):
        sb = std_basis([RQ.poly([((1, 0), 2)]), RQ.poly([((0, 2), 3)])])
        assert set(sb.leading_monomials) == {(1, 0), (0, 2)}

    def test_t45_jacobian_char2(self):
        f = P(R2, "x^5+x^2*y^2+y^4")
        sb = std_basis(jacobian_ideal_gens(f))
        assert sb.leading_monomials == ((4, 0),)

    def test_mixed_linear(self):
        sb = std_basis([P(RQ, "x+y^2"), P(RQ, "y+x^2")])
        assert set(sb.leading_monomials) == {(1, 0), (0, 1)}

    def test_input_generators_reduce_to_zero(self):
        """Each input lies in the ideal the basis generates: the quotient is
        finite, and adding the input keeps its dimension."""
        gens = [P(RQ, "x^3+y^3+x^2*y^2"), P(RQ, "3*x^2+2*x*y^2")]
        basis = list(std_basis(gens).generators)
        dim = bruteforce_vdim(basis, 40)
        assert dim != INFINITY
        assert all(bruteforce_vdim(basis + [g], 40) == dim for g in gens)


class TestVdim:
    def test_maximal_ideal(self):
        assert vdim(std_basis([RQ.var(0), RQ.var(1)])) == 1

    def test_monomial_box(self):
        sb = std_basis([P(RQ, "x^4"), P(RQ, "y^6")])
        assert vdim(sb) == 24

    def test_missing_pure_power_is_infinite(self):
        sb = std_basis([P(RQ, "x^4")])
        assert vdim(sb) == INFINITY

    def test_huge_pure_power_is_counted_not_enumerated(self):
        """99,999,999 standard monomials, counted without building their box."""
        sb = std_basis([P(RQ, "x^99999999"), P(RQ, "y")])
        assert vdim(sb) == 99_999_999


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 4), min_size=n, max_size=n),
    st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=4))))
def test_vdim_slice_count_matches_box_count(drawn):
    """vdim against a count over the box of the given pure powers, which
    holds every standard monomial."""
    powers, others = drawn
    n = len(powers)
    lms = [tuple(e if j == i else 0 for j in range(n)) for i, e in enumerate(powers)] + others
    ring = Ring(0, tuple("x%d" % i for i in range(n)))
    sb = StandardBasis(tuple(ring.monomial(m) for m in lms), tuple(lms))
    box = sum(1 for e in product(*(range(b) for b in powers))
              if not any(all(a <= b for a, b in zip(m, e)) for m in lms))
    assert vdim(sb) == box


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


class TestMemo:
    """`local_dimension` remembers each value on the Poly it was asked about."""

    @pytest.fixture
    def lazard_runs(self, monkeypatch):
        import possing.localalg

        calls = []

        def counted(gens):
            calls.append(gens)
            return std_basis(gens)

        monkeypatch.setattr(possing.localalg, "std_basis", counted)
        return calls

    def test_once_per_object_and_mode(self, lazard_runs):
        f, g = P(RQ, "x^3+x*y^3"), P(RQ, "x^3+x*y^3")
        assert f == g and f is not g
        assert [milnor(f), milnor(f), tjurina(f), milnor(g)] == [7, 7, 7, 7]
        assert len(lazard_runs) == 3

    def test_principal_part_equal_to_f_shares_the_memo(self, lazard_runs):
        f = P(RQ, "x^3+y^4")
        assert initial_form(cpolytope_from_poly(f), f) is f
        assert sqh_check(f, (4, 3), "right").principal_invariant == milnor(f) == 6
        assert len(lazard_runs) == 1

    def test_unit_generator_gives_zero_without_a_basis(self, lazard_runs):
        R3 = Ring(0, ("x", "y", "z"))
        f = P(R3, "x^6*y^6*z^5+x^6*y^5*z^3+y^6*z^6+x^6*y^5+x^5*y^2*z^3+y*z+x")
        assert (milnor(f), tjurina(f)) == (0, 0)
        assert lazard_runs == []

    def test_refusals_are_not_remembered(self, lazard_runs):
        f = P(RQ, "1+x")
        for _ in range(2):
            with pytest.raises(ValueError):
                milnor(f)
        with pytest.raises(ValueError, match="^mode must be"):
            local_dimension(P(RQ, "x^2+y^3"), "Contact")
        assert lazard_runs == []


MODE_F = P(RQ, "x^3+y^4")
MODE_P = cpolytope_from_poly(MODE_F)
MODE_ENTRY_POINTS = {
    "GradedAlgebra": lambda mode: GradedAlgebra(MODE_P, MODE_F, mode),
    "regular_basis": lambda mode: regular_basis(MODE_P, MODE_F, mode),
    "plain_graded_dims": lambda mode: plain_graded_dims(MODE_P, MODE_F, mode, 6),
    "check_condition": lambda mode: check_condition(MODE_P, MODE_F, mode, strict=True),
    "determinacy_generic": lambda mode: determinacy_generic(MODE_F, mode),
    "determinacy_filtered": lambda mode: determinacy_filtered(
        MODE_F, regular_basis(MODE_P, MODE_F, mode)),
    "precondition_constant": lambda mode: precondition_constant(MODE_F, mode),
    "normal_form": lambda mode: normal_form(MODE_P, MODE_F, mode),
    "sqh_check": lambda mode: sqh_check(MODE_F, (4, 3), mode),
    "mode_ideal_gens": lambda mode: mode_ideal_gens(MODE_F, mode),
    "local_dimension": lambda mode: local_dimension(MODE_F, mode),
}


@pytest.mark.parametrize("mode", ["right", "contact", "Contact", "milnor"])
@pytest.mark.parametrize("entry", sorted(MODE_ENTRY_POINTS))
def test_mode_check(entry, mode):
    """Every public entry point taking a mode accepts exactly 'right' and 'contact'."""
    call = MODE_ENTRY_POINTS[entry]
    if mode in ("right", "contact"):
        call(mode)
    else:
        with pytest.raises(ValueError, match="^mode must be 'right' or 'contact'$"):
            call(mode)


class TestMinPower:
    """The least power of m inside an ideal: the first zero level of its
    degree echelon."""

    def test_maximal_ideal(self):
        assert _first_zero_level([(RQ.var(0), 0), (RQ.var(1), 0)], 2, 40) == (1, 1)

    def test_squares(self):
        gens = [(P(RQ, "x^2"), 0), (P(RQ, "y^2"), 0)]
        assert _first_zero_level(gens, 2, 40) == (3, 4)  # xy is not in the ideal

    def test_infinite(self):
        assert _first_zero_level([(P(RQ, "x^4"), 0)], 2, 40) is None

    def test_truncation_grows_by_half(self, monkeypatch):
        """The Jacobian ideal of x^2*y^2+x^4+2*x^3*y^2+x^4*y+y^7 over Q has
        zero level 8.  Growing by half, the truncations 2, 3, 4, 6, 9 reach
        it without going past 12; doubling went on to 16."""
        import possing.localalg as localalg

        gens = [(g, 0) for g in jacobian_ideal_gens(P(RQ, "x^2*y^2+x^4+2*x^3*y^2+x^4*y+y^7"))]
        truncations = []
        degree_dims = localalg._degree_dims
        monkeypatch.setattr(localalg, "_degree_dims",
                            lambda gens, dmax: truncations.append(dmax + 1) or degree_dims(gens, dmax))
        assert _first_zero_level(gens, 2, 40) == (8, 12)
        assert max(truncations) <= 12


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0, 2, 3, 5, 7]),
    st.integers(2, 3),
    st.lists(
        st.tuples(
            st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.integers(1, 6)),
                     min_size=1, max_size=3),
            st.integers(0, 2),
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 6),
)
def test_degree_dims_of_pairs_match_explicit_products(char, n, drawn, dmax):
    """A pair (g, k) spans the same rows as the explicit products x^gamma * g
    with |gamma| = k, each taken as a pair (product, 0)."""
    ring = Ring(char, ("x", "y", "z")[:n])
    pairs = [(ring.poly([(m[:n], c) for m, c in terms]), k) for terms, k in drawn]
    products = [
        (g * ring.monomial(gamma), 0)
        for g, k in pairs
        for gamma in product(range(k + 1), repeat=n)
        if sum(gamma) == k
    ]
    assert _degree_dims(pairs, dmax) == _degree_dims(products, dmax)


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
        assert out == [RQ.one()]


# Exact bases, tails included, pinned so that a change to the completion loop
# (selection order, tie-breaks, field arithmetic) shows.  Bases are not
# reduced, so their tails depend on the order in which pairs are treated.
PINNED_Q10 = "x^2*z+y^3+z^4+2*x^2*y^2+3*x*y*z^2"
PINNED_T45 = "x^4+x^2*y^2+y^5+x^3*y^2"
PINNED_T57 = "x^5+x^2*y^2+y^7+2*x^4*y"
PINNED_SAT = ("x^3*y+2*x^2*y^2-x*y^4", "x^2*y^3+x^4-3*x*y^2")
PINNED_BASES = {
    "q10-jacobian": (
        (0, "x,y,z", PINNED_Q10, "right"),
        ["2*x*y^2+3/2*y*z^2+x*z", "4/3*x^2*y+x*z^2+y^2", "6*x*y*z+4*z^3+x^2",
         "3/4*x*y^3*z+5/16*y^2*z^3+z^4"],
        [(1, 0, 1), (0, 2, 0), (2, 0, 0), (0, 0, 4)],
    ),
    "q10-tjurina": (
        (0, "x,y,z", PINNED_Q10, "contact"),
        ["2*x*y^2+3/2*y*z^2+x*z", "4/3*x^2*y+x*z^2+y^2", "6*x*y*z+4*z^3+x^2",
         "-3*x*y^3*z-9/4*y^2*z^3+z^4"],
        [(1, 0, 1), (0, 2, 0), (2, 0, 0), (0, 0, 4)],
    ),
    "t45-f2": (
        (2, "x,y", PINNED_T45, "contact"),
        ["y^4", "x^2*y^2", "x^3*y^2+y^5+x^4+x^2*y^2"],
        [(0, 4), (2, 2), (4, 0)],
    ),
    "t57-f2": (
        (2, "x,y", PINNED_T57, "contact"),
        ["y^7+x^5+x^2*y^2", "x^4", "y^6"],
        [(2, 2), (4, 0), (0, 6)],
    ),
    "t45-f3": (
        (3, "x,y", PINNED_T45, "contact"),
        ["x^3*y+y^4+x^2*y", "x^3+2*x*y^2", "x^4*y+x*y^4+x*y^3", "2*x^4*y^2+2*x*y^5+y^5"],
        [(2, 1), (3, 0), (1, 3), (0, 5)],
    ),
    "t57-f3": (
        (3, "x,y", PINNED_T57, "contact"),
        ["x^4+x^3*y+x*y^2", "2*y^6+x^4+x^2*y", "y^7+x^5", "x^2*y^6+x*y^7+y^7"],
        [(1, 2), (2, 1), (5, 0), (0, 7)],
    ),
    "t45-f5": (
        (5, "x,y", PINNED_T45, "contact"),
        ["x^3*y+x^2*y", "2*x^2*y^2+x^3+3*x*y^2", "3*x^4*y+4*x^2*y^3+x*y^3", "4*x^4*y^2+y^5"],
        [(2, 1), (3, 0), (1, 3), (0, 5)],
    ),
    "t57-f5": (
        (5, "x,y", PINNED_T57, "contact"),
        ["4*x^3*y+x*y^2", "y^6+x^4+x^2*y", "x^5+x^4*y", "3*x^2*y^6+4*x*y^7+y^7"],
        [(1, 2), (2, 1), (5, 0), (0, 7)],
    ),
    "t45-f7": (
        (7, "x,y", PINNED_T45, "contact"),
        ["x^3*y+6*y^4+x^2*y", "6*x^2*y^2+x^3+4*x*y^2", "5*x^4*y+5*x^2*y^3+2*x*y^4+x*y^3",
         "6*x^4*y^2+x*y^5+y^5"],
        [(2, 1), (3, 0), (1, 3), (0, 5)],
    ),
    "t57-f7": (
        (7, "x,y", PINNED_T57, "contact"),
        ["6*x^4+4*x^3*y+x*y^2", "x^4+x^2*y", "x^5+4*x^4*y", "5*x^6*y^2+y^7"],
        [(1, 2), (2, 1), (5, 0), (0, 7)],
    ),
    "infinite": (
        (0, "x,y", "x^2*y^2+x^5", "right"),
        ["5/2*x^4+x*y^2", "x^2*y", "x^5"],
        [(1, 2), (2, 1), (5, 0)],
    ),
    "saturate-one": (
        (0, "x,y", PINNED_SAT, "1"),
        ["x*y^4-x^3*y-2*x^2*y^2", "x^2*y^3+x^4-3*x*y^2", "x^4*y+x^3*y^2-3/2*x*y^3",
         "x^6-x^5*y-2*x^4*y^2+3/2*x*y^5-3*x^3*y^2"],
        [(1, 4), (2, 3), (4, 1), (6, 0)],
    ),
    "saturate-x": (
        (0, "x,y", PINNED_SAT, "x"),
        ["x*y-y^2+2*x-3/2", "y^3-x^2-2*x*y", "x^3+2*x^2*y+x*y^2-3/2*y^2-3/2*x-3*y"],
        [(1, 1), (0, 3), (3, 0)],
    ),
    "saturate-x-f5": (
        (5, "x,y", PINNED_SAT, "x"),
        ["x*y+4*y^2+2*x+1", "y^3+4*x^2+3*x*y", "x^3+2*x^2*y+x*y^2+y^2+x+2*y"],
        [(1, 1), (0, 3), (3, 0)],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_BASES))
def test_pinned_bases(case):
    """Local standard bases of mode ideals, and saturations of one ideal by 1
    and by x, equal the bases recorded before the completion loop was
    rewritten: generators with their tails, and leading monomials."""
    (char, names, source, what), want_gens, want_lms = PINNED_BASES[case]
    ring = Ring(char, tuple(names.split(",")))
    if case.startswith("saturate"):
        gens = [P(ring, text) for text in source]
        basis = saturate(gens, P(ring, what))
        lms = [max(g.terms, key=degrevlex_key) for g in basis]
    else:
        sb = std_basis(mode_ideal_gens(P(ring, source), what))
        basis, lms = sb.generators, list(sb.leading_monomials)
    assert [poly_to_string(g) for g in basis] == want_gens
    assert lms == want_lms


chars = st.sampled_from([2, 3, 5])
small_polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(1, 6)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(chars, small_polys, st.integers(2, 5), st.integers(2, 5))
def test_vdim_agrees_with_bruteforce(char, terms, a, b):
    """Standard-basis dimensions against the truncated linear-algebra oracle."""
    ring = Ring(char, ("x", "y"))
    f = ring.monomial((a, 0)) + ring.monomial((0, b)) + ring.poly(
        [(m, c) for m, c in terms if sum(m) >= 1]
    )
    assume(not f.is_zero() and not f.constant_term())
    gens = jacobian_ideal_gens(f)
    assume(gens)
    value = vdim(std_basis(gens))
    cap = 40
    oracle = bruteforce_vdim(gens, cap)
    if value != INFINITY and value <= cap:
        assert value == oracle
    elif oracle != INFINITY:
        assert value == oracle


# no shrinking: when the oracle is wrong, hypothesis shrinks the failure
# into germs on which std_basis runs for minutes, so report it as drawn
@pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
@settings(max_examples=10, deadline=None, derandomize=True,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(
    st.sampled_from(["right", "contact"]),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.integers(1, 6)),
             max_size=3),
    st.data(),
)
def test_vdim_agrees_with_bruteforce_in_three_variables(char, mode, terms, data):
    """Jacobian and Tjurina colengths of convenient germs in x, y, z against
    the truncated linear-algebra oracle, which reports INFINITY past its cap.
    The pure powers are prime to the characteristic, so their partials
    survive."""
    power = st.integers(2, 5).filter(lambda e: not char or e % char)
    powers = data.draw(st.tuples(power, power, power))
    ring = Ring(char, ("x", "y", "z"))
    f = ring.poly([(tuple(e if j == i else 0 for j in range(3)), 1)
                   for i, e in enumerate(powers)])
    f = f + ring.poly([(m, c) for m, c in terms if sum(m) >= 2])
    gens = mode_ideal_gens(f, mode)
    assume(gens)
    value = vdim(std_basis(gens))
    cap = 30
    assert bruteforce_vdim(gens, cap) == (value if value <= cap else INFINITY)


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
        vdim(std_basis(gens))
        == vdim(std_basis(gens_s))
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


class TestBruteforce:
    def test_local_dims_by_cutoff(self):
        gens = [P(RQ, "x^2"), P(RQ, "y^3")]
        assert [bruteforce_local_dim(gens, c) for c in range(7)] == [0, 1, 3, 5, 6, 6, 6]

    def test_vdim_cap_boundary(self):
        """dim K[[x,y]]/<x^4, y^6> = 24: reported at cap 24, refused at 23."""
        gens = [P(RQ, "x^4"), P(RQ, "y^6")]
        assert bruteforce_vdim(gens, 23) == INFINITY
        assert bruteforce_vdim(gens, 24) == 24

    def test_vdim_infinite_and_unit(self):
        assert bruteforce_vdim([P(RQ, "x^4")], 40) == INFINITY
        assert bruteforce_vdim([P(RQ, "1+x")], 5) == 0

    def test_tail_heavy_jacobian_over_q(self):
        """The partials lead with x^2 and y, and the quotient is #{1, x}; a
        local standard basis takes close to a minute to confirm that over Q."""
        f = P(RQ, "5*x^4*y^5+6*x^5*y^2+y^5+x^3*y+x^3+4*y^2")
        fx, fy = jacobian_ideal_gens(f)
        assert bruteforce_vdim([fx, fy], 4) == 2


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([0, 2, 3, 5]),
    st.sampled_from([("x", "y"), ("x", "y", "z")]),
    st.sampled_from(["right", "contact"]),
    st.integers(0, 8),
    st.data(),
)
def test_bruteforce_dim_sums_degree_graded_dims(char, names, mode, cutoff, data):
    """dim K[[x]]/(I + m^c) is the sum of the plain graded dimensions of the
    degree filtration at levels below c, for Jacobian and Tjurina ideals."""
    ring = Ring(char, names)
    monos = st.tuples(*[st.integers(0, 4)] * len(names))
    terms = data.draw(st.lists(st.tuples(monos, st.integers(1, 6)), min_size=1, max_size=4))
    f = ring.poly([(m, c) for m, c in terms if sum(m) >= 1])
    gens = jacobian_ideal_gens(f) if mode == "right" else tjurina_ideal_gens(f)
    assume(gens)
    P_deg = cpolytope_from_weights([(1,) * len(names)])
    graded = plain_graded_dims(P_deg, f, mode, cutoff - 1)
    assert sum(graded) == bruteforce_local_dim(gens, cutoff)


sat_polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(1, 4)),
    min_size=1,
    max_size=3,
)


def _sympy_expr(p, xs):
    from sympy import Integer, Rational

    return sum(
        (Rational(c.numerator, c.denominator) * xs[0] ** a * xs[1] ** b
         for (a, b), c in p.terms.items()),
        Integer(0),
    )


def _sympy_groebner(gens, char, xs):
    """sympy's reduced grevlex Groebner basis of the ideal, over Q or F_p."""
    import sympy

    options = {"order": "grevlex"}
    if char:
        options["modulus"] = char
    else:
        options["domain"] = "QQ"
    return sympy.groebner([_sympy_expr(p, xs) for p in gens], *xs, **options)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 2, 3, 5]), st.lists(sat_polys, min_size=1, max_size=3))
def test_global_basis_agrees_with_sympy(char, gen_terms):
    """Saturating by 1 gives a minimal degrevlex Groebner basis of the ideal:
    its leading monomials are those of sympy's reduced basis, and each of
    its generators lies in the ideal."""
    sympy = pytest.importorskip("sympy")
    ring = Ring(char, ("x", "y"))
    gens = [g for g in (ring.poly(terms) for terms in gen_terms) if not g.is_zero()]
    assume(gens)
    xs = sympy.symbols("x y")
    oracle = _sympy_groebner(gens, char, xs)
    oracle_lms = [sympy.Poly(e, *xs).monoms(order="grevlex")[0] for e in oracle.exprs]
    basis = saturate(gens, ring.one())
    assert sorted(max(p.terms, key=degrevlex_key) for p in basis) == sorted(oracle_lms)
    assert all(oracle.contains(_sympy_expr(p, xs)) for p in basis)


@settings(max_examples=60, deadline=None)
@given(
    chars,
    st.lists(sat_polys, min_size=1, max_size=3),
    st.sampled_from([(1, 0), (0, 1), (1, 1)]),
)
def test_saturate_is_the_saturation(char, gen_terms, g_expo):
    """I lies in I : g^inf, each result generator times a power of g lies in I,
    and the result is the unit ideal when a power of g lies in I."""
    sympy = pytest.importorskip("sympy")
    ring = Ring(char, ("x", "y"))
    gens = [g for g in (ring.poly(terms) for terms in gen_terms) if not g.is_zero()]
    assume(gens)
    g = ring.monomial(g_expo)
    out = saturate(gens, g)
    xs = sympy.symbols("x y")
    sat = _sympy_groebner(out, char, xs)
    assert all(sat.contains(_sympy_expr(p, xs)) for p in gens)
    ideal = _sympy_groebner(gens, char, xs)
    powers = [ring.one()]
    for _ in range(16):
        powers.append(powers[-1] * g)
    for s in out:
        assert any(ideal.contains(_sympy_expr(gk * s, xs)) for gk in powers)
    if any(ideal.contains(_sympy_expr(gk, xs)) for gk in powers):
        assert out == [ring.one()]
