import io
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from possing.grading import (
    GradedAlgebra,
    check_condition,
    plain_graded_dims,
    ray_criterion,
    regular_basis,
)
from possing.cli import run
from possing.localalg import INFINITY, milnor, tjurina
from possing.newton import _primitive, cpolytope_from_poly, cpolytope_from_weights
from possing.poly import Ring, poly_from_string

R2 = Ring(2, ("x", "y"))
R3 = Ring(3, ("x", "y"))


def P(ring, text):
    return poly_from_string(ring, text)


def q10():
    ring = Ring(2, ("x", "y", "z"))
    f = P(ring, "x^2*z+y^3+z^4")
    Pw = cpolytope_from_weights([(Fraction(9, 24), Fraction(8, 24), Fraction(6, 24))])
    return ring, f, Pw


def e33():
    f = P(R3, "x^12+x^3*y^2+y^3")
    return R3, f, cpolytope_from_poly(f)


def t45():
    f = P(R2, "x^5+x^2*y^2+y^4")
    return R2, f, cpolytope_from_poly(f)


class TestGradedPiece:
    def test_degree_zero_survivor(self):
        ring, f, Pw = q10()
        piece = GradedAlgebra(Pw, f, "contact").piece(0)
        assert piece.quotient_basis == ((0, 0, 0),)

    def test_principal_level_fully_covered(self):
        ring, f, Pw = q10()
        piece = GradedAlgebra(Pw, f, "contact").piece(24)
        assert piece.quotient_basis == ()

    def test_qh_expected_equals_plain(self):
        ring = Ring(5, ("x", "y"))
        f = P(ring, "x^3+y^3")
        Pw = cpolytope_from_poly(f)
        dims_plain = plain_graded_dims(Pw, f, "right", 14)
        alg = GradedAlgebra(Pw, f, "right")
        assert dims_plain == [len(alg.piece(d).quotient_basis) for d in range(15)]

    def test_negative_degree_rejected(self):
        ring, f, Pw = q10()
        with pytest.raises(ValueError):
            GradedAlgebra(Pw, f, "contact").piece(-1)

    def test_t45_high_survivors(self):
        ring, f, Pw = t45()
        alg = GradedAlgebra(Pw, f, "contact")
        for n in (4, 5, 6):
            piece = alg.piece(20 * n)
            assert (0, 4 * n) in piece.quotient_basis


class TestRegularBasis:
    def test_q10_sixteen(self):
        ring, f, Pw = q10()
        rb = regular_basis(Pw, f, "contact")
        assert rb.finite and rb.dimension == 16
        assert rb.max_valuation() == 35
        assert (1, 1, 3) in rb.monomials()  # xyz^3 at the top

    def test_e33_twentytwo(self):
        ring, f, Pw = e33()
        rb = regular_basis(Pw, f, "contact")
        assert rb.finite and rb.dimension == 22
        monos = set(rb.monomials())
        assert (12, 0) in monos and (2, 4) in monos and (13, 0) not in monos

    def test_t45_infinite_with_witness(self):
        ring, f, Pw = t45()
        rb = regular_basis(Pw, f, "contact")
        assert not rb.finite
        assert rb.dimension == INFINITY
        assert rb.witness_ray.direction == (0, 1)

    def test_wave_char2_infinite_with_witness(self):
        """Criterion 8's germ over F_2: no multiple of the ray (3, 2) vanishes."""
        f = P(R2, "x^7+x^3*y^2+y^4")
        rb = regular_basis(cpolytope_from_poly(f), f, "contact", scan_bound=16)
        assert not rb.finite
        assert rb.witness_ray.direction == (3, 2)

    @pytest.mark.parametrize("char,names,text,weights", [
        (2, "x,y", "x^5+x^2*y^2+y^4", None),
        (2, "x,y,z", "x^2*z+y^3+z^4", "9/24,8/24,6/24"),
        (3, "x,y", "x^12+x^3*y^2+y^3", None),
        *[(c, "x,y", "x^7+x^3*y^2+y^4", None) for c in (0, 5, 3, 2)],
        *[(c, "x,y,z", "x^3+x*y^3+z^2", "6/18,4/18,9/18") for c in (0, 5, 3, 2)],
    ])
    @pytest.mark.parametrize("mode", ["right", "contact"])
    def test_fixture_germs_infinite_only_with_witness(self, char, names, text, weights,
                                                      mode):
        """Every infinite verdict on the acceptance germs carries a witness ray,
        one none of whose scanned multiples vanished (at any scan bound; a
        small one keeps this fast)."""
        f = P(Ring(char, tuple(names.split(","))), text)
        if weights:
            Pw = cpolytope_from_weights([tuple(Fraction(w) for w in weights.split(","))])
        else:
            Pw = cpolytope_from_poly(f)
        rb = regular_basis(Pw, f, mode, scan_bound=16)
        assert rb.finite or (rb.witness_ray is not None
                             and rb.witness_ray.first_vanishing is None)


class TestVanishes:
    def test_e33_vanishing_monomials(self):
        ring, f, Pw = e33()
        alg = GradedAlgebra(Pw, f, "contact")
        for m in ((15, 0), (0, 15), (9, 6)):
            assert alg.vanishes(m, use_cone=False)

    def test_e33_surviving_monomial(self):
        ring, f, Pw = e33()
        alg = GradedAlgebra(Pw, f, "contact")
        assert not alg.vanishes((1, 3), use_cone=False)

    def test_tpq_char_divides_p(self):
        # char 5 divides p=5: x^2y^2 = scalar * x * d/dx(f) at expected valuation
        ring = Ring(5, ("x", "y"))
        f = ring.poly([((5, 0), 1), ((2, 2), 1), ((0, 7), 1)])
        Pw = cpolytope_from_poly(f)
        alg = GradedAlgebra(Pw, f, "contact")
        assert alg.vanishes((2, 2), use_cone=False)

    def test_cone_propagation_consistent(self):
        ring = Ring(5, ("x", "y"))
        f = ring.poly([((5, 0), 1), ((2, 2), 1), ((0, 7), 1)])
        Pw = cpolytope_from_poly(f)
        alg = GradedAlgebra(Pw, f, "contact")
        assert alg.vanishes((2, 2), use_cone=False)
        alg.record_kill((2, 2))
        # alpha = beta = (2,2) share the vertex cone
        assert alg.cone_killed((4, 4))
        assert alg.vanishes((4, 4), use_cone=False)

    def test_tpq_x_power_depends_on_minor(self):
        # x^p falls into the graded ideal iff char does not divide pq-2(p+q)
        for char, expect in ((0, True), (11, False)):
            ring = Ring(char, ("x", "y"))
            f = ring.poly([((5, 0), 1), ((2, 2), 1), ((0, 7), 1)])
            Pw = cpolytope_from_poly(f)
            alg = GradedAlgebra(Pw, f, "contact")
            assert alg.vanishes((5, 0), use_cone=False) == expect


class TestRayCriterion:
    def test_e33_witness_points(self):
        ring, f, Pw = e33()
        rc = ray_criterion(GradedAlgebra(Pw, f, "contact"))
        assert rc.all_vanish
        hits = {r.direction: r.first_vanishing for r in rc.rays}
        # the scan returns first kills; the known zero classes x^15, y^15,
        # (x^3y^2)^3 bound them from above
        assert hits[(1, 0)][0] <= 15
        assert hits[(0, 1)][1] <= 15
        assert hits[(3, 2)][0] <= 9

    def test_t45_failing_ray(self):
        ring, f, Pw = t45()
        rc = ray_criterion(GradedAlgebra(Pw, f, "contact"), scan_bound=24)
        assert not rc.all_vanish
        assert rc.witness().direction == (0, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda Pw, f: ray_criterion(GradedAlgebra(Pw, f, "contact"), scan_bound=0),
            lambda Pw, f: regular_basis(Pw, f, "contact", scan_bound=0),
        ],
        ids=["ray_criterion", "regular_basis"],
    )
    def test_scan_bound_below_one_refused(self, call):
        ring, f, Pw = t45()
        with pytest.raises(ValueError, match="scan bound must be at least 1"):
            call(Pw, f)


class TestConditions:
    def test_e33_contact_pair(self):
        ring, f, Pw = e33()
        finite = check_condition(Pw, f, "contact", strict=False)
        exact = check_condition(Pw, f, "contact", strict=True)
        assert finite.holds and not exact.holds
        assert finite.basis.dimension == 22 and finite.local_dimension == 21

    def test_qh_exactness(self):
        ring = Ring(5, ("x", "y"))
        f = P(ring, "x^3+y^3")
        Pw = cpolytope_from_poly(f)
        for mode in ("right", "contact"):
            rep = check_condition(Pw, f, mode, strict=True)
            assert rep.holds, mode

    def test_t45_contact_fails(self):
        ring, f, Pw = t45()
        rep = check_condition(Pw, f, "contact", strict=False, scan_bound=24)
        assert not rep.holds
        assert rep.basis.witness_ray.direction == (0, 1)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(2, 4),
    st.integers(2, 4),
    st.lists(
        st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(1, 4)),
        max_size=2,
    ),
)
def test_graded_product_rule(char, a, b, extra):
    """class(x^u) * class(x^v) is class(x^(u+v)) when valuations add, else zero."""
    ring = Ring(char, ("x", "y"))
    f = ring.monomial((a, 0)) + ring.monomial((0, b)) + ring.poly(
        [(m, c) for m, c in extra if sum(m) >= 1]
    )
    assume(not f.is_zero() and not f.constant_term())
    try:
        Pw = cpolytope_from_poly(f)
    except Exception:
        assume(False)
    alg = GradedAlgebra(Pw, f, "contact")
    u, v = (1, 1), (a - 1, 1)
    s = tuple(x + y for x, y in zip(u, v))
    if Pw.value(s) == Pw.value(u) + Pw.value(v):
        # vanishing propagates along the product when valuations add
        if alg.vanishes(u, use_cone=False):
            assert alg.vanishes(s, use_cone=False)


def test_expected_image_inside_plain_image():
    """The expected-valuation image never exceeds the plain one, piecewise."""
    ring, f, Pw = e33()
    alg = GradedAlgebra(Pw, f, "contact")
    dims_plain = plain_graded_dims(Pw, f, "contact", 130)
    for d in range(131):
        assert dims_plain[d] <= len(alg.piece(d).quotient_basis)


def test_graded_dimension_bounds_local_one():
    # finite graded dimension always dominates the local invariant
    ring, f, Pw = e33()
    rb = regular_basis(Pw, f, "contact")
    assert tjurina(f) <= rb.dimension


# -- the ray search against a linear scan --------------------------------------------


def _linear_ray_scan(P, f, mode, bound):
    """Reference: test x^(k u) for k = 1, 2, ..., bound on each vertex ray u
    in face order, each against its own piece with no kill cache; returns
    [(u, least k or None)] up to and including the first ray with none."""
    alg = GradedAlgebra(P, f, mode)
    rays = []
    for face in P.faces:
        if face.dimension != 0:
            continue
        u = _primitive(face.vertices[0])
        k = next((k for k in range(1, bound + 1)
                  if alg.vanishes(tuple(k * c for c in u), use_cone=False)), None)
        rays.append((u, k))
        if k is None:
            break
    return rays


def _assert_matches_linear_scan(P, f, mode, bound):
    alg = GradedAlgebra(P, f, mode)
    rc = ray_criterion(alg, scan_bound=bound)
    expected = _linear_ray_scan(P, f, mode, bound)
    assert [(r.direction, r.multiple) for r in rc.rays] == expected
    for r in rc.rays:
        hit = None if r.multiple is None else tuple(r.multiple * c for c in r.direction)
        assert r.first_vanishing == hit and r.scan_bound == bound
    assert rc.scan_bound == bound
    assert rc.all_vanish == (expected[-1][1] is not None)
    assert rc.witness() == (None if rc.all_vanish else rc.rays[-1])
    # the kill list the linear scan leaves: one kill x^(k u) per finite ray
    kills = [tuple(k * c for c in u) for u, k in expected if k is not None]
    assert alg.kills == [(m, frozenset(P.attaining(m))) for m in kills]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.sampled_from(["right", "contact"]),
    st.integers(2, 7),
    st.integers(2, 7),
    st.lists(
        st.tuples(st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(1, 6)),
        max_size=3,
    ),
    st.integers(1, 24),
)
def test_ray_search_matches_linear_scan(char, mode, a, b, extra, bound):
    """Doubling and bisection find the least vanishing multiple of every ray
    up to the first infinite one, that ray as the witness, and the kills of
    the linear scan, on convenient curves x^a + y^b + ... over F_2..F_7."""
    ring = Ring(char, ("x", "y"))
    f = ring.monomial((a, 0)) + ring.monomial((0, b)) + ring.poly(
        [(m, c) for m, c in extra if sum(m) >= 2]
    )
    assume(f.terms.get((a, 0)) and f.terms.get((0, b)))
    _assert_matches_linear_scan(cpolytope_from_poly(f), f, mode, bound)


@pytest.mark.parametrize("bound", [1, 3, 7, 13, 24])
@pytest.mark.parametrize("mode", ["right", "contact"])
@pytest.mark.parametrize(
    "char,text",
    [
        (3, "x^12+x^3*y^2+y^3"),  # E33
        (2, "x^7+x^3*y^2+y^4"),  # wave family
        (3, "x^7+x^3*y^2+y^4"),
        (5, "x^7+x^3*y^2+y^4"),
        (7, "x^7+x^3*y^2+y^4"),
        (2, "x^5+x^2*y^2+y^4"),  # T45
    ],
)
def test_ray_search_matches_linear_scan_on_families(char, text, mode, bound):
    f = P(Ring(char, ("x", "y")), text)
    _assert_matches_linear_scan(cpolytope_from_poly(f), f, mode, bound)


@pytest.mark.parametrize("bound", [1, 5, 24])
@pytest.mark.parametrize("mode", ["right", "contact"])
@pytest.mark.parametrize("char", [2, 3, 5])
@pytest.mark.parametrize(
    "text,weights",
    [("x^2*z+y^3+z^4", (9, 8, 6, 24)), ("x^3+x*y^3+z^2", (6, 4, 9, 18))],
    ids=["Q10", "E7+z^2"],
)
def test_ray_search_matches_linear_scan_on_weighted_families(text, weights, char, mode, bound):
    f = P(Ring(char, ("x", "y", "z")), text)
    *w, d = weights
    Pw = cpolytope_from_weights([tuple(Fraction(c, d) for c in w)])
    _assert_matches_linear_scan(Pw, f, mode, bound)


def test_wave_contact_scan_computes_logarithmically_many_pieces(monkeypatch):
    """`regbasis --mode contact` on the char-2 wave family scans to 96 and
    computes at most 2 * ceil(log2 96) + 2 pieces per vertex ray."""
    import possing.grading as grading

    computed, per_ray, reports = [], [], []
    compute = grading.GradedAlgebra._compute_piece
    monkeypatch.setattr(grading.GradedAlgebra, "_compute_piece",
                        lambda self, d: computed.append(d) or compute(self, d))
    search = grading._least_vanishing_multiple

    def counted_search(alg, u, bound):
        before = len(computed)
        k = search(alg, u, bound)
        per_ray.append(len(computed) - before)
        return k

    monkeypatch.setattr(grading, "_least_vanishing_multiple", counted_search)
    scan = grading.ray_criterion
    monkeypatch.setattr(grading, "ray_criterion",
                        lambda alg, scan_bound=None: reports.append(scan(alg, scan_bound))
                        or reports[-1])
    out = io.StringIO()
    argv = ["regbasis", "--char", "2", "--vars", "x,y", "--mode", "contact",
            "x^7+x^3*y^2+y^4", "--json"]
    assert run(argv, out=out, err=io.StringIO()) == 0
    (rc,) = reports
    assert rc.scan_bound == 96 and rc.witness().direction == (3, 2)
    assert len(per_ray) == len(rc.rays)
    assert max(per_ray) <= 2 * math.ceil(math.log2(96)) + 2
