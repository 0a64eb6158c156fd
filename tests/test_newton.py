import heapq
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from possing.newton import (
    CPolytope,
    _Echelon,
    _independent,
    _lattice_sweep,
    _solve_unique,
    PolytopeError,
    cpolytope_from_poly,
    cpolytope_from_weights,
    derivation_monomials,
    face_initial_form,
    initial_form,
    inner_faces,
    lattice_points_shifted,
    monomials_of_valuation,
    newton_diagram,
    valuation,
    valuation_poly,
)
from possing.poly import Ring, degrevlex_key, poly_from_string

RQ = Ring(0, ("x", "y"))
R2 = Ring(2, ("x", "y"))
R3 = Ring(0, ("x", "y", "z"))


def P(ring, text):
    return poly_from_string(ring, text)


PH_EXAMPLE = cpolytope_from_weights([(1, 2), (3, 1)])


class TestNewtonDiagram:
    def test_figure_example(self):
        # x*(y^4 + x*y^3 + x^2*y^2 - x^3*y^2 + x^6)
        f = P(RQ, "x*y^4+x^2*y^3+x^3*y^2-x^4*y^2+x^7")
        nd = newton_diagram(f)
        assert nd.vertices == ((1, 4), (3, 2), (7, 0))
        # (4, 2) lies strictly above every compact facet plane, (2, 3) on one
        assert all(4 * w[0] + 2 * w[1] > c for w, c in nd.facet_forms)
        assert any(2 * w[0] + 3 * w[1] == c for w, c in nd.facet_forms)

    def test_single_facet(self):
        nd = newton_diagram(P(RQ, "x^3+y^4"))
        assert len(nd.facet_forms) == 1
        assert nd.convenient

    def test_t45_hull(self):
        nd = newton_diagram(P(RQ, "x^5+x^2*y^2+y^4"))
        assert nd.vertices == ((0, 4), (2, 2), (5, 0))
        assert nd.convenient

    def test_zero_rejected(self):
        with pytest.raises(PolytopeError):
            newton_diagram(RQ.zero())

    def test_point_above_a_segment_is_no_vertex(self):
        # (4,3,2) lies above (4,2,3/2), the midpoint of the other two points
        nd = newton_diagram(P(R3, "x^3*y^4*z^2+x^4*y^3*z^2+x^5*z"))
        assert not nd.facet_forms
        assert nd.vertices == ((3, 4, 2), (5, 0, 1))

    def test_vertex_on_no_compact_facet(self):
        # w = (1,100,1) makes (4,0,4) the unique minimiser
        nd = newton_diagram(P(R3, "x*y^2*z^2+x^2*y*z+x^2*y^5+x^4*z^4"))
        assert nd.vertices == ((1, 2, 2), (2, 1, 1), (2, 5, 0), (4, 0, 4))
        assert all((4, 0, 4) not in pts for pts in nd.facet_points)


class TestFromWeights:
    def test_two_facets(self):
        assert PH_EXAMPLE.weights == ((1, 2), (3, 1))
        assert PH_EXAMPLE.nscale == 1
        assert PH_EXAMPLE.vertices == (
            (Fraction(0), Fraction(1)),
            (Fraction(1, 5), Fraction(2, 5)),
            (Fraction(1), Fraction(0)),
        )

    def test_standard_simplex(self):
        simplex = cpolytope_from_weights([(1, 1)])
        assert simplex.weights == ((1, 1),)
        inner = inner_faces(simplex)
        assert len(inner) == 1 and inner[0].dimension == 1

    def test_duplicates_dropped(self):
        again = cpolytope_from_weights([(1, 2), (1, 2), (3, 1)])
        assert again.weights == PH_EXAMPLE.weights

    def test_redundant_weight_dropped(self):
        # (2, 2) lies above the polytope of (1,2),(3,1): never the minimum on a facet
        padded = cpolytope_from_weights([(1, 2), (3, 1), (4, 4)])
        assert padded.weights == PH_EXAMPLE.weights

    def test_rejects_nonpositive(self):
        with pytest.raises(PolytopeError):
            cpolytope_from_weights([(1, 0)])


class TestFromPoly:
    def test_t45_scaled_weights(self):
        Pt = cpolytope_from_poly(P(R2, "x^5+x^2*y^2+y^4"))
        assert set(Pt.weights) == {(4, 6), (5, 5)}
        assert Pt.nscale == 20

    def test_q10_single_weight_rule(self):
        R = Ring(0, ("x", "y", "z"))
        Pq = cpolytope_from_poly(P(R, "x^2*z+y^3+z^4"), rule="single")
        assert Pq.weights == ((9, 8, 6),)
        assert Pq.nscale == 24

    def test_single_facet_from_convenient(self):
        Pp = cpolytope_from_poly(P(RQ, "x^3+y^4"))
        assert len(Pp.weights) == 1

    def test_extension_adds_virtual_point(self):
        Pe = cpolytope_from_poly(P(RQ, "x^5+x^2*y^2"))
        assert Pe.virtual_points == ((0, 4),)
        # induced filtration matches the convenient closure on the old support
        assert valuation_poly(Pe, P(RQ, "x^5")) == valuation_poly(
            Pe, P(RQ, "x^2*y^2")
        )

    def test_extension_without_facet(self):
        # x*y has no compact facet: M_i = 2 * (2 * tau - ord + 2) = 4
        Pe = cpolytope_from_poly(P(RQ, "x*y"))
        assert Pe.virtual_points == ((4, 0), (0, 4))
        assert Pe.weights == ((1, 3), (3, 1))
        assert Pe.nscale == 4

    def test_extension_without_facet_computes_tau_once(self, monkeypatch):
        import possing.localalg

        calls = []
        tjurina = possing.localalg.tjurina

        def counted(f):
            calls.append(f)
            return tjurina(f)

        monkeypatch.setattr(possing.localalg, "tjurina", counted)
        Pe = cpolytope_from_poly(P(RQ, "x*y"))
        assert len(calls) == 1
        assert Pe.virtual_points == ((4, 0), (0, 4))
        assert Pe.weights == ((1, 3), (3, 1))
        assert Pe.nscale == 4

    def test_rejects_constant(self):
        with pytest.raises(PolytopeError):
            cpolytope_from_poly(P(RQ, "1+x"))

    def test_one_enumeration_per_polytope(self, monkeypatch):
        """One `_region_vertices` pass per polytope, on the weight forms or on
        the convenient diagram; a non-convenient diagram adds the pass that
        places its virtual points."""
        import possing.newton

        calls = []
        region_vertices = possing.newton._region_vertices

        def counted(lambdas, n):
            calls.append(n)
            return region_vertices(lambdas, n)

        monkeypatch.setattr(possing.newton, "_region_vertices", counted)
        for build, expected in (
            (lambda: cpolytope_from_poly(P(RQ, "x^3+y^4")), 1),
            (lambda: cpolytope_from_poly(P(RQ, "x^5+x^2*y^2")), 2),
            (lambda: cpolytope_from_weights([(1, 2), (3, 1)]), 1),
        ):
            calls.clear()
            build()
            assert len(calls) == expected


def minimal_points(support):
    return [
        p for p in support
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in support)
    ]


def oracle_vertices(support, n):
    """Minimal points not in conv(other minimal points) + R^n_+.

    By Carathéodory, p is such a combination exactly when at most n+1 of
    the other minimal points and unit rays write p, lifted to (p, 1), with
    nonnegative coefficients; a linearly independent choice exists, whose
    coefficients are then unique.
    """
    minimal = minimal_points(support)
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]

    def generated(p):
        gens = [(q, 1) for q in minimal if q != p] + [(r, 0) for r in rays]
        for size in range(1, n + 2):
            for combo in combinations(gens, size):
                rows = [[g[i] for g, _ in combo] for i in range(n)] + [[t for _, t in combo]]
                sol = _solve_unique(rows, list(p) + [1])
                if sol is not None and all(c >= 0 for c in sol):
                    return True
        return False

    return tuple(sorted(p for p in minimal if not generated(p)))


def oracle_facets(support, n):
    """(normal, value) and tight minimal points of every compact facet.

    Every n minimal points that span a hyperplane with a positive primitive
    normal w give a facet w . x = c when c > 0, no minimal point lies below
    it, and the minimal points on it have affine rank n-1.
    """
    minimal = minimal_points(support)
    facets = {}
    for combo in combinations(minimal, n):
        base = combo[0]
        d = [[q[i] - base[i] for i in range(n)] for q in combo[1:]]
        if n == 1:
            w = (1,)
        elif n == 2:
            w = (-d[0][1], d[0][0])
        else:
            (a1, a2, a3), (b1, b2, b3) = d
            w = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
        if sum(w) < 0:
            w = tuple(-a for a in w)
        if any(a <= 0 for a in w):
            continue
        g = gcd(*w)
        w = tuple(a // g for a in w)
        c = sum(a * b for a, b in zip(w, base))
        values = [sum(a * b for a, b in zip(w, p)) for p in minimal]
        if c <= 0 or min(values) < c:
            continue
        tight = tuple(sorted(p for p, v in zip(minimal, values) if v == c))
        if minor_rank([[a - b for a, b in zip(p, tight[0])] for p in tight[1:]]) == n - 1:
            facets[(w, c)] = tight
    return sorted(facets.items())


small_supports = st.integers(1, 3).flatmap(
    lambda n: st.sets(st.tuples(*[st.integers(0, 5)] * n), min_size=1, max_size=7))


@settings(max_examples=150, deadline=None)
@given(small_supports)
def test_diagram_vertices_match_oracle(support):
    n = len(next(iter(support)))
    ring = Ring(0, ("x", "y", "z")[:n])
    nd = newton_diagram(ring.poly([(m, 1) for m in support]))
    assert nd.vertices == oracle_vertices(support, n)


@settings(max_examples=150, deadline=None)
@given(small_supports)
def test_diagram_facets_match_oracle(support):
    """The facets read off the dual vertices are the brute-force facets."""
    n = len(next(iter(support)))
    ring = Ring(0, ("x", "y", "z")[:n])
    nd = newton_diagram(ring.poly([(m, 1) for m in support]))
    facets = oracle_facets(support, n)
    assert nd.facet_forms == tuple(form for form, _ in facets)
    assert nd.facet_points == tuple(tight for _, tight in facets)


def scaled_forms(facets):
    """(weights, nscale) of the oracle facets, scaled as `_build_polytope`
    scales its forms: the forms w / c sorted, times the lcm of their
    denominators."""
    lams = sorted(tuple(Fraction(a, c) for a in w) for (w, c), _ in facets)
    scale = lcm(*(x.denominator for lam in lams for x in lam))
    return tuple(tuple(int(x * scale) for x in lam) for lam in lams), scale


def poly_of(support):
    n = len(next(iter(support)))
    return Ring(0, ("x", "y", "z")[:n]).poly([(m, 1) for m in support])


@settings(max_examples=100, deadline=None)
@given(small_supports)
def test_polytope_from_poly_matches_oracle(support):
    """The polytope of the (extended) diagram has the brute-force vertices
    and compact facets of the extended support."""
    n = len(next(iter(support)))
    assume((0,) * n not in support)
    f = poly_of(support)
    nd = newton_diagram(f)
    assume(nd.convenient or nd.facet_forms)  # else M_i comes from the Tjurina number
    Pd = cpolytope_from_poly(f)
    extended = support | set(Pd.virtual_points)
    assert Pd.vertices == oracle_vertices(extended, n)
    assert (Pd.weights, Pd.nscale) == scaled_forms(oracle_facets(extended, n))


class TestValuation:
    def test_ph_degrees(self):
        assert valuation_poly(PH_EXAMPLE, P(R2, "x^7+y^7")) == 7
        rep = valuation(PH_EXAMPLE, P(R2, "x^8+x*y^7"))
        assert rep.value == 8
        assert set(rep.attaining) == {(8, 0)}

    def test_q10_value(self):
        R = Ring(2, ("x", "y", "z"))
        Pq = cpolytope_from_weights([(Fraction(9, 24), Fraction(8, 24), Fraction(6, 24))])
        assert valuation_poly(Pq, P(R, "x*y*z^3")) == 9 + 8 + 18

    def test_zero_is_infinite(self):
        assert valuation(PH_EXAMPLE, R2.zero()).value == float("inf")

    def test_derivation_euler_is_zero(self):
        # x d/dx has valuation 0
        for Pw in (PH_EXAMPLE, cpolytope_from_weights([(2, 3)])):
            assert (1, 0) in derivation_monomials(Pw, 0, 0)

    def test_t45_derivation(self):
        Pt = cpolytope_from_poly(P(R2, "x^5+x^2*y^2+y^4"))
        for n in (4, 5, 6):
            assert (2, 4 * n - 6) in derivation_monomials(Pt, 0, 20 * n - 25)

    def test_tpq_partial_derivation(self):
        # p=5, q=7: formal scale equals 2pq, so v(d/dx) = 2p - pq
        R = Ring(0, ("x", "y"))
        f = R.poly([((5, 0), 1), ((2, 2), 1), ((0, 7), 1)])
        Pt = cpolytope_from_poly(f)
        assert Pt.nscale == 70
        assert (0, 0) in derivation_monomials(Pt, 0, 2 * 5 - 5 * 7)


class TestInitialForm:
    def test_weighted(self):
        R7 = Ring(7, ("x", "y"))
        Pw = cpolytope_from_weights([(4, 7)])
        assert initial_form(Pw, P(R7, "x^7+x^6*y+y^4")) == P(R7, "x^7+y^4")

    def test_ph_fixed(self):
        f = P(R2, "x^7+y^7")
        assert initial_form(PH_EXAMPLE, f) == f

    def test_product_loses_terms(self):
        assert initial_form(PH_EXAMPLE, P(R2, "x^8+x*y^7")) == P(R2, "x^8")


class TestInnerFaces:
    def test_single_facet(self):
        Pp = cpolytope_from_poly(P(RQ, "x^3+y^5"))
        inner = inner_faces(Pp)
        assert len(inner) == 1 and inner[0].dimension == 1

    def test_tpq_inner_vertex(self):
        f = RQ.poly([((4, 0), 1), ((2, 2), 1), ((0, 5), 1)])
        Pt = cpolytope_from_poly(f)
        inner = inner_faces(Pt)
        dims = sorted(face.dimension for face in inner)
        assert dims == [0, 1, 1]
        vertex = [face for face in inner if face.dimension == 0][0]
        assert vertex.vertices == ((Fraction(2), Fraction(2)),)


class TestFaceInitialForm:
    def test_vertex_face(self):
        f = RQ.poly([((4, 0), 1), ((2, 2), 1), ((0, 5), 1)])
        Pt = cpolytope_from_poly(f)
        vertex = [fc for fc in inner_faces(Pt) if fc.dimension == 0][0]
        assert face_initial_form(Pt, vertex, f) == RQ.monomial((2, 2))


weightvecs = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3
)
monos = st.tuples(st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=100, deadline=None)
@given(weightvecs, monos, monos)
def test_valuation_superadditive_on_monomials(ws, a, b):
    Pw = cpolytope_from_weights(ws)
    s = tuple(x + y for x, y in zip(a, b))
    assert Pw.value(s) >= Pw.value(a) + Pw.value(b)


@settings(max_examples=60, deadline=None)
@given(weightvecs, st.integers(1, 12))
def test_rays_meet_polytope_once(ws, seed):
    """Along any positive ray the scaled valuation is strictly monotone."""
    Pw = cpolytope_from_weights(ws)
    direction = ((seed % 5) + 1, (seed % 3) + 1)
    values = [Pw.value((k * direction[0], k * direction[1])) for k in range(1, 5)]
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


@settings(max_examples=60, deadline=None)
@given(weightvecs, st.integers(1, 4))
def test_degree_k_valuation_minimum_at_a_vertex(ws, k):
    """The least valuation of a degree-k monomial is k times a variable value."""
    Pw = cpolytope_from_weights(ws)
    candidates = [Pw.value((i, k - i)) for i in range(k + 1)]
    assert min(candidates) == k * min(Pw.value((1, 0)), Pw.value((0, 1)))


weightvecs3 = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    min_size=1, max_size=3,
)


def box_filter(Pw, shifts, lo, hi):
    """Exponents with lo <= min_j(W_j . beta - shifts[j]) <= hi, lexicographic.

    Weight entries are at least 1, so every such beta lies in the box of
    side hi + max(shifts).
    """
    return [
        beta
        for beta in product(range(hi + max(shifts) + 1), repeat=Pw.nvars)
        if lo <= min(sum(w * b for w, b in zip(ws, beta)) - s
                     for ws, s in zip(Pw.weights, shifts)) <= hi
    ]


weightvecs1 = st.lists(st.tuples(st.integers(1, 4)), min_size=1, max_size=3)
weightvecs4 = st.lists(st.tuples(*[st.integers(1, 4)] * 4), min_size=1, max_size=2)


@settings(max_examples=80, deadline=None)
@given(st.one_of(weightvecs1, weightvecs, weightvecs3, weightvecs4), st.integers(0, 12), st.data())
def test_monomials_of_valuation_complete(ws, d, data):
    """Level and sublevel sets of the shifted valuation, against a box filter.

    Four-variable draws stop at d = 6, where the box already holds 11^4
    points.  The lower end lo may pass d, an empty range.
    """
    Pw = cpolytope_from_weights(ws)
    if Pw.nvars == 4:
        d = min(d, 6)
    k = len(Pw.weights)
    zero = [0] * k
    shifts = data.draw(st.lists(st.integers(-3, 4), min_size=k, max_size=k))
    lo = data.draw(st.integers(-4, d + 2))
    assert monomials_of_valuation(Pw, d) == sorted(box_filter(Pw, zero, d, d), key=degrevlex_key)
    assert lattice_points_shifted(Pw, shifts, d) == sorted(
        box_filter(Pw, shifts, d, d), key=degrevlex_key
    )
    assert _lattice_sweep(Pw, 0, d) == box_filter(Pw, zero, 0, d)
    assert _lattice_sweep(Pw, lo, d, shifts) == box_filter(Pw, shifts, lo, d)


@pytest.mark.parametrize("ws", [[(2,)], [(2, 3)], [(1, 2, 3), (3, 2, 1)], [(1, 2, 3, 4), (4, 3, 2, 1)]])
def test_lattice_sweep_empty_ranges(ws):
    """lo > hi, or shifts that start the minimum above hi, give no points."""
    Pw = cpolytope_from_weights(ws)
    k = len(Pw.weights)
    assert _lattice_sweep(Pw, 5, 4) == box_filter(Pw, [0] * k, 5, 4) == []
    assert _lattice_sweep(Pw, 3, 3, [-4] * k) == []
    assert _lattice_sweep(Pw, 0, 3, [-4] * k) == []
    assert _lattice_sweep(Pw, -8, 3, [-7, -4, -5][:k]) == []
    assert lattice_points_shifted(Pw, [-5] * k, 4) == []


def test_lattice_sweep_high_level_wave():
    """Level sets at d >= 100 on the criterion-8 wave polytope, against a box filter."""
    Pw = cpolytope_from_poly(P(RQ, "x^7+x^3*y^2+y^4"))
    assert Pw.weights == ((12, 24), (14, 21))
    zero = [0, 0]
    for d in (100, 168, 205):
        assert monomials_of_valuation(Pw, d) == sorted(box_filter(Pw, zero, d, d), key=degrevlex_key)
        for axis in (0, 1):
            shifts = [w[axis] for w in Pw.weights]
            assert derivation_monomials(Pw, axis, d) == sorted(
                box_filter(Pw, shifts, d, d), key=degrevlex_key
            )
    assert monomials_of_valuation(Pw, 168) != []
    assert _lattice_sweep(Pw, 150, 205) == box_filter(Pw, zero, 150, 205)
    assert _lattice_sweep(Pw, 0, 205, [30, -20]) == box_filter(Pw, [30, -20], 0, 205)


def oracle_faces(Pw) -> dict:
    """vertex set -> (weight indices, inner, dimension) of every face.

    Every subset of the constraints (facet forms and axes) that holds a
    facet form cuts out the face of the vertices tight at all of it, when
    there is one.
    """
    n = Pw.nvars
    constraints = [("w", j) for j in range(len(Pw.weights))] + [("a", i) for i in range(n)]

    def tight(constraint, v):
        kind, k = constraint
        if kind == "a":
            return v[k] == 0
        return sum(a * b for a, b in zip(Pw.weights[k], v)) == Pw.nscale

    faces = {}
    for size in range(1, len(constraints) + 1):
        for subset in combinations(constraints, size):
            vs = frozenset(v for v in Pw.vertices if all(tight(c, v) for c in subset))
            if vs and any(kind == "w" for kind, _ in subset):
                base = min(vs)
                faces[vs] = (
                    frozenset(j for j in range(len(Pw.weights))
                              if all(tight(("w", j), v) for v in vs)),
                    not any(all(tight(("a", i), v) for v in vs) for i in range(n)),
                    minor_rank([[a - b for a, b in zip(v, base)] for v in vs if v != base]),
                )
    return faces


convenient_supports = small_supports.flatmap(
    lambda s: st.tuples(*[st.integers(1, 6)] * len(next(iter(s)))).map(
        lambda ks: {p for p in s if any(p)}
        | {tuple(k * (i == j) for j in range(len(ks))) for i, k in enumerate(ks)}))


@settings(max_examples=100, deadline=None)
@given(st.one_of(weightvecs, weightvecs3, convenient_supports))
def test_faces_match_oracle(source):
    """The faces of weight polytopes and convenient diagrams are exactly
    the brute-force tight vertex sets, with their tightness data."""
    Pw = cpolytope_from_poly(poly_of(source)) if isinstance(source, set) \
        else cpolytope_from_weights(source)
    faces = {frozenset(face.vertices): (face.weight_indices, face.inner, face.dimension)
             for face in Pw.faces}
    assert len(faces) == len(Pw.faces)
    assert faces == oracle_faces(Pw)


def det(mat) -> Fraction:
    """Determinant by Laplace expansion along the first row."""
    if not mat:
        return Fraction(1)
    return sum(
        (-1) ** j * Fraction(mat[0][j]) * det([row[:j] + row[j + 1:] for row in mat[1:]])
        for j in range(len(mat))
    )


def minor_rank(rows, char: int = 0) -> int:
    """Rank as the size of the largest nonzero minor: no elimination at all.

    Over F_p (char p) a minor of the integer matrix counts when it is
    nonzero mod p."""
    ncols = len(rows[0]) if rows else 0
    for k in range(min(len(rows), ncols), 0, -1):
        for ri in combinations(range(len(rows)), k):
            for ci in combinations(range(ncols), k):
                minor = det([[rows[r][c] for c in ci] for r in ri])
                if minor % char if char else minor:
                    return k
    return 0


def cramer(rows, rhs) -> list:
    """The solution of a system of rank n = len(rows[0]) by Cramer's rule on
    n rows with a nonzero determinant."""
    n = len(rows[0])
    ri = next(ri for ri in combinations(range(len(rows)), n)
              if det([rows[r] for r in ri]))
    square = [list(rows[r]) for r in ri]
    d = det(square)
    return [
        det([row[:j] + [rhs[r]] + row[j + 1:] for r, row in zip(ri, square)]) / d
        for j in range(n)
    ]


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=1, max_size=4)
)


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.data())
def test_dense_kernel(rows, data):
    """Rank and unique solutions of the exact row reduction, against minors
    and Cramer's rule."""
    n = len(rows[0])
    rhs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    assert len(_independent(rows)) == minor_rank(rows)
    augmented = [row + [b] for row, b in zip(rows, rhs)]
    unique = minor_rank(rows) == n and minor_rank(augmented) == n
    sol = _solve_unique(rows, rhs)
    assert (sol is not None) == unique
    if sol is not None:
        assert sol == cramer(rows, rhs)
        assert all(isinstance(x, Fraction) for x in sol)


@st.composite
def echelon_cases(draw):
    """A characteristic (2, 3, 7 or 0 for Q), a column count, labelled sparse
    rows and a sparse vector, with entries nonzero residues mod p or nonzero
    fractions."""
    char = draw(st.sampled_from([2, 3, 7, 0]))
    ncols = draw(st.integers(1, 5))
    if char:
        entries = st.integers(1, char - 1)
    else:
        entries = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    sparse = st.dictionaries(st.integers(0, ncols - 1), entries, max_size=ncols)
    return char, ncols, draw(st.lists(sparse, min_size=1, max_size=5)), draw(sparse)


def dense(vec: dict, ncols: int, char: int) -> list:
    return [vec.get(j, 0) % char if char else Fraction(vec.get(j, 0)) for j in range(ncols)]


def combination(coeffs: dict, rows: list, ncols: int, char: int) -> list:
    """sum(coeffs[label] * rows[label]), densely, mod p over F_p."""
    out = [0] * ncols
    for label, c in coeffs.items():
        for j, v in rows[label].items():
            out[j] += c * v
    return [x % char if char else Fraction(x) for x in out]


def check_echelon(char: int, ncols: int, rows: list, vec: dict):
    ech = _Echelon(Ring(char, ("x",)), track=True)
    for label, row in enumerate(rows):
        ech.add_row(row, label=label)
    residual, used = ech.reduce(vec)
    assert not set(residual) & set(ech.pivots)
    taken = [(a - b) % char if char else a - b
             for a, b in zip(dense(vec, ncols, char), dense(residual, ncols, char))]
    assert taken == combination(used, rows, ncols, char)
    for pos, (row, combo) in ech.pivots.items():
        assert row[pos] == 1 and min(row) == pos
        assert all(v and (0 < v < char if char else isinstance(v, Fraction))
                   for v in row.values())
        assert dense(row, ncols, char) == combination(combo, rows, ncols, char)
    assert ech.rank == minor_rank([[row.get(j, 0) for j in range(ncols)] for row in rows],
                                  char)


@settings(max_examples=200, deadline=None)
@given(echelon_cases())
def test_echelon_properties(case):
    """Reduction leaves no pivot position and names the combination it took
    off over the original rows; pivot rows are monic and start at their
    pivot; the rank is the minor rank (mod p over F_p)."""
    check_echelon(*case)


def test_echelon_pivot_cancelled_and_recreated(monkeypatch):
    """Pivot position 2 is in the vector, cancelled by the row at 0 and
    created again by the row at 1, so the heap holds it twice; the second
    entry is skipped."""
    import possing.newton as newton

    pushed = []
    monkeypatch.setattr(newton, "heappush", lambda heap, pos: (
        pushed.append(pos), heapq.heappush(heap, pos)))
    rows = [{0: 1, 2: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}]
    vec = {0: 1, 1: 1, 2: 1}
    check_echelon(0, 4, rows, vec)
    ech = _Echelon(Ring(0, ("x",)), track=True)
    for label, row in enumerate(rows):
        ech.add_row(row, label=label)
    pushed.clear()
    residual, used = ech.reduce(vec)
    assert pushed == [2]
    assert residual == {3: 1} and used == {0: 1, 1: 1, 2: -1}


@settings(max_examples=100, deadline=None)
@given(weightvecs, st.lists(st.tuples(monos, st.integers(1, 6)), max_size=4),
       st.lists(st.tuples(monos, st.integers(1, 6)), max_size=4))
def test_sum_valuation_at_least_min(ws, fterms, gterms):
    ring = Ring(7, ("x", "y"))
    Pw = cpolytope_from_weights(ws)
    f, g = ring.poly(fterms), ring.poly(gterms)
    assume(f and g)
    vs = valuation_poly(Pw, f + g)
    lower = min(valuation_poly(Pw, f), valuation_poly(Pw, g))
    if (f + g).is_zero():
        assert vs == float("inf")
    else:
        assert vs >= lower


@settings(max_examples=100, deadline=None)
@given(weightvecs, monos, st.integers(0, 1),
       st.lists(st.tuples(monos, st.integers(1, 6)), min_size=1, max_size=4))
def test_derivation_subadditive(ws, beta, axis, fterms):
    """v(x^b d/dx_axis f) >= t + v(f) for every b that derivation_monomials
    lists at valuation t; t is the level of the drawn monomial derivation."""
    ring = Ring(7, ("x", "y"))
    Pw = cpolytope_from_weights(ws)
    f = ring.poly(fterms)
    assume(f)
    partial = f.partial(axis)
    t = min(w[0] * beta[0] + w[1] * beta[1] - w[axis] for w in Pw.weights)
    level = derivation_monomials(Pw, axis, t)
    assert tuple(beta) in level
    for b in level:
        applied = partial * ring.monomial(b)
        if not applied.is_zero():
            assert valuation_poly(Pw, applied) >= t + valuation_poly(Pw, f)


def test_convenient_initial_form_matches_diagram():
    f = poly_from_string(RQ, "x^5+x^2*y^2+y^4+x^3*y^3+x^6")
    Pw = cpolytope_from_poly(f)
    nd = newton_diagram(f)
    inits = initial_form(Pw, f)
    on_diagram = f.filter_terms(
        lambda m: any(w[0] * m[0] + w[1] * m[1] <= c for w, c in nd.facet_forms)
    )
    assert inits == on_diagram
