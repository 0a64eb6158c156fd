"""Newton polyhedra, weight polytopes and piecewise valuations.

A finite irredundant set of positive rational weight vectors defines a
compact rational polytope of dimension n-1 crossing every positive ray
exactly once; the induced piecewise-linear minimum of the weight forms
filters the power series ring.  All arithmetic is exact: forms are kept
as primitive integer vectors together with the common scale that makes
the valuation integer-valued on lattice points.

The polytope geometry runs in integers.  The one elimination, `_Echelon`,
is fraction-free over Q: every pivot row is a primitive integer vector
with a positive pivot entry, and `reduce` still returns the exact rational
residual and combination, divided once at the end.  Its solver
`_solve_unique` returns integer numerators over one positive denominator;
vertices and forms are split once into an integer vector and a scale, so
feasibility, tightness and rank tests compare integers, and `Fraction`s
are built only for the vertices handed out.

Facet attainment ties are always reported as sets and never broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import ceil, gcd, lcm
from operator import add
from typing import Iterable, Optional, Sequence

from possing.poly import (
    INFINITY,
    Poly,
    Ring,
    degrevlex_key,
    local_key,
)


class PolytopeError(ValueError):
    pass


def _dot(w: Sequence, r: Sequence):
    return sum(a * b for a, b in zip(w, r))


class _Echelon:
    """Sparse row echelon over the coefficient field with combo tracking.

    The package's one exact elimination, also for the rational systems of
    the polytope code.

    Columns are positions into a fixed monomial list (pivot preference
    order), and a row is a dict {position: nonzero entry}.  Pivot rows
    support only columns at or after their pivot.  `pivots` maps each
    pivot position to (row, combo, den): combo is None unless the echelon
    tracks combinations, and otherwise names row / row[pivot] as
    sum(combo[label] * generator row of label) / den.

    Over F_p the entries are residues in [0, p), the arithmetic is inline
    on Python ints with `% p`, pivot rows are monic and den is 1.  Over Q
    the elimination is fraction-free: a pivot row is a primitive integer
    vector (gcd 1) with a positive pivot entry, and its combo holds
    integers over one positive integer den.  Input entries may be ints or
    `Fraction`s; a vector is scaled to integers once on entry, and `reduce`
    divides once on exit, so its residual and `used` are the exact
    rationals of the monic elimination.

    `reduce` takes the next pivot from a heap of the vector's pivot
    positions.  Eliminating at position q touches only positions at or
    after q and clears q, so the positions popped ascend and each is
    eliminated at most once.  A heap entry whose position has left the
    vector, cancelled or already eliminated, is skipped; so is the second
    entry of a position cancelled and re-created before its turn.
    """

    def __init__(self, ring, track: bool):
        self.char = ring.char
        self.track = track
        self.pivots: dict = {}  # pos -> (row dict, combo dict | None, den)

    def reduce(self, vec: dict):
        """(residual, used): the residual is vec minus used[label] times the
        generator row of each label, and holds no pivot position.  used is
        empty unless the echelon tracks combinations.  Over Q both hold
        `Fraction`s."""
        p = self.char
        if not p:
            red, den, used, uden = self._reduce_rational(vec)
            return ({pos: Fraction(v, den) for pos, v in red.items()},
                    {label: Fraction(u, uden) for label, u in used.items()})
        pivots = self.pivots
        track = self.track
        vec = dict(vec)
        used: dict = {}
        heap = [pos for pos in vec if pos in pivots]
        heapify(heap)
        while heap:
            hit = heappop(heap)
            c = vec.get(hit)
            if c is None:
                continue
            row, rowcombo, _ = pivots[hit]
            neg = p - c
            for pos, v in row.items():
                old = vec.get(pos)
                if old is None:
                    vec[pos] = neg * v % p
                    if pos in pivots:
                        heappush(heap, pos)
                else:
                    old = (old + neg * v) % p
                    if old:
                        vec[pos] = old
                    else:
                        del vec[pos]
            if track:
                for label, cc in rowcombo.items():
                    nv = (used.get(label, 0) + c * cc) % p
                    if nv:
                        used[label] = nv
                    else:
                        used.pop(label, None)
        return vec, used

    def _reduce_rational(self, vec: dict):
        """(red, den, used, uden) over Q, all integers: the residual of
        `reduce` is red / den and its used is used / uden.

        The vector is scaled to integers once, by the least common
        denominator den of its entries.  At a pivot with row entry a and
        vector entry c it becomes (a/g) * vec - (c/g) * row, g = gcd(a, c),
        which clears the position and multiplies den by a/g; before that,
        the combination gains c / den times the monic row's combination,
        kept over the least common denominator uden of these multipliers."""
        pivots = self.pivots
        track = self.track
        ints, den = _integral(vec.values())
        vec = dict(zip(vec, ints))
        used: dict = {}
        uden = 1
        heap = [pos for pos in vec if pos in pivots]
        heapify(heap)
        while heap:
            hit = heappop(heap)
            c = vec.get(hit)
            if c is None:
                continue
            row, rowcombo, rowden = pivots[hit]
            if track:
                tnum, tden = c, den * rowden
                g = gcd(tnum, tden)
                tnum //= g
                tden //= g
                if uden % tden:
                    grow = tden // gcd(uden, tden)
                    used = {label: u * grow for label, u in used.items()}
                    uden *= grow
                tnum *= uden // tden
                for label, cc in rowcombo.items():
                    nv = used.get(label, 0) + tnum * cc
                    if nv:
                        used[label] = nv
                    else:
                        used.pop(label, None)
            a = row[hit]
            if a != 1:
                g = gcd(a, c)
                a //= g
                c //= g
                if a != 1:
                    vec = {pos: a * v for pos, v in vec.items()}
                    den *= a
            for pos, v in row.items():
                old = vec.get(pos)
                if old is None:
                    vec[pos] = -c * v
                    if pos in pivots:
                        heappush(heap, pos)
                else:
                    old -= c * v
                    if old:
                        vec[pos] = old
                    else:
                        del vec[pos]
        return vec, den, used, uden

    def add_row(self, vec: dict, label=None) -> bool:
        """Insert a generator row; returns True when it increased the rank."""
        p = self.char
        if not p:
            return self._add_rational(vec, label)
        red, used = self.reduce(vec)
        if not red:
            return False
        pos = min(red)
        inv = pow(red[pos], p - 2, p)
        red = {q: v * inv % p for q, v in red.items()}
        combo = None
        if self.track:
            # red == vec - sum(used * pivot rows): express it over the generators
            combo = {} if label is None else {label: 1}
            for plabel, c in used.items():
                nv = (combo.get(plabel, 0) - c) % p
                if nv:
                    combo[plabel] = nv
                else:
                    combo.pop(plabel, None)
            combo = {l: v * inv % p for l, v in combo.items()}
        self.pivots[pos] = (red, combo, 1)
        return True

    def _add_rational(self, vec: dict, label) -> bool:
        red, den, used, uden = self._reduce_rational(vec)
        if not red:
            return False
        pos = min(red)
        lead = red[pos]
        g = gcd(*red.values())
        if lead < 0:
            g = -g
        row = {q: v // g for q, v in red.items()}
        combo = None
        cden = 1
        if self.track:
            # red / den == vec - used / uden, and row / row[pos] is
            # red / lead, so (uden * vec - used) * den / (uden * lead)
            combo = {} if label is None else {label: uden}
            for plabel, u in used.items():
                nv = combo.get(plabel, 0) - u
                if nv:
                    combo[plabel] = nv
                else:
                    combo.pop(plabel, None)
            scale = den if lead > 0 else -den
            combo = {l: v * scale for l, v in combo.items()}
            cden = uden * abs(lead)
            g = gcd(cden, *combo.values())
            if g != 1:
                combo = {l: v // g for l, v in combo.items()}
                cden //= g
        self.pivots[pos] = (row, combo, cden)
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _row_echelon(ring, cols: list, rows, track: bool):
    """Echelon of (label, g, gamma) rows x^gamma * g restricted to cols.

    The package's one row builder: column i is cols[i], and each row goes
    straight into a {column index: coefficient} dict from g's terms shifted
    by gamma, dropping those outside cols; no product is materialised.
    Returns the echelon and the labels of the rows with a nonzero
    restriction (dependent rows included: they still span the image).
    """
    index = {m: i for i, m in enumerate(cols)}
    ech = _Echelon(ring, track)
    labels = []
    for label, g, gamma in rows:
        vec = {}
        for m, c in g.terms.items():
            pos = index.get(tuple(map(add, m, gamma)))
            if pos is not None:
                vec[pos] = c
        if vec:
            ech.add_row(vec, label=label)
            labels.append(label)
    return ech, labels


# coefficient arithmetic of the rational systems below; the variable is unused
_QQ = Ring(0, ("q",))


def _sparse(row) -> dict:
    return {j: c for j, c in enumerate(row) if c}


def _solve_unique(rows: list, rhs: list) -> Optional[tuple]:
    """(num, den) with rows . (num / den) = rhs over Q when the solution exists
    and is unique, else None.

    num is an integer list and den a positive integer, with gcd(den, *num)
    equal to 1.  The solution exists and is unique when the pivots of the
    rows augmented by rhs (column n) are the columns 0..n-1.
    Back-substitution on the integer pivot rows keeps one common
    denominator: solving row col for x_col multiplies it by the pivot.
    """
    n = len(rows[0])
    ech = _Echelon(_QQ, track=False)
    for row, b in zip(rows, rhs):
        ech.add_row(_sparse(list(row) + [b]))
    if sorted(ech.pivots) != list(range(n)):
        return None
    num = [0] * n
    den = 1
    for col in reversed(range(n)):
        row = ech.pivots[col][0]
        lead = row[col]
        rest = row.get(n, 0) * den - sum(c * num[j] for j, c in row.items() if col < j < n)
        num = [x * lead for x in num]
        num[col] = rest
        den *= lead
    g = gcd(den, *num)
    return [x // g for x in num], den // g


def _independent(vectors: list) -> list:
    """The vectors outside the rational span of the ones before them."""
    ech = _Echelon(_QQ, track=False)
    return [v for v in vectors if ech.add_row(_sparse(v))]


def _integral(v: Sequence) -> tuple:
    """(d * v, d) for the least positive integer d that makes d * v integral."""
    d = lcm(*[c.denominator for c in v])
    return tuple([c.numerator * (d // c.denominator) for c in v]), d


def _primitive(v: Sequence) -> tuple:
    """The integer vector with coprime entries on the ray of a rational vector."""
    ints, _ = _integral(v)
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else ints


@dataclass(frozen=True)
class Face:
    """A face of a weight polytope: its vertices and tightness data."""

    vertices: tuple  # tuples of Fraction
    dimension: int
    weight_indices: frozenset  # facet forms tight on the whole face
    inner: bool  # not contained in any coordinate hyperplane


@dataclass(frozen=True)
class CPolytope:
    """Compact rational polytope meeting each positive ray once.

    weights[i] / nscale is the i-th normalized facet form (value 1 on its
    facet); the integer-valued piecewise valuation of a lattice point is
    min_i weights[i] . alpha.
    """

    weights: tuple  # tuple of int tuples, the scaled facet forms
    nscale: int  # common scale N so weights[i]/N has value 1 on facet i
    vertices: tuple  # tuples of Fraction
    faces: tuple  # all faces, every dimension
    virtual_points: tuple = ()  # lattice points added by a diagram extension

    @property
    def nvars(self) -> int:
        return len(self.weights[0])

    def value(self, alpha: Sequence) -> int:
        """The scaled piecewise valuation of a lattice exponent (an integer)."""
        return min(_dot(w, alpha) for w in self.weights)

    def attaining(self, alpha: Sequence) -> tuple:
        """The facets whose form attains the valuation of alpha."""
        dots = [_dot(w, alpha) for w in self.weights]
        v = min(dots)
        return tuple(j for j, d in enumerate(dots) if d == v)

    def min_variable_value(self) -> int:
        """min_i v(x_i): the least valuation of a single variable."""
        n = self.nvars
        return min(self.value(tuple(1 if j == i else 0 for j in range(n))) for i in range(n))


def _region_vertices(lambdas: list, n: int) -> list:
    """Vertices of {r >= 0 : lambda_j . r >= 1 for all j}, as `Fraction` tuples.

    The one polyhedral enumeration of the package: a vertex is the unique
    solution of n tight constraints, chosen among the lambda_j and the axes.
    The axes of a choice fix their coordinates to 0, so only the k free
    coordinates are solved, from the k chosen forms; the system is unique
    exactly when this k x k one is.  The choice of n axes gives the origin,
    which no constraint lambda . r >= 1 admits.

    The forms are scaled by the least common denominator dl of all their
    entries into integer forms F_j = dl * lambda_j, and a solution comes as
    integers num over a positive den.  Since dl and den are positive,
    lambda_j . (num / den) >= 1 holds exactly when F_j . num >= dl * den,
    and num / den >= 0 exactly when num >= 0; so feasibility is tested in
    integers, and `Fraction`s are built only for the vertices returned.
    """
    dl = lcm(*[c.denominator for lam in lambdas for c in lam])
    forms = [[c.numerator * (dl // c.denominator) for c in lam] for lam in lambdas]
    constraints = [("w", j) for j in range(len(lambdas))] + [("a", i) for i in range(n)]
    seen = set()
    verts = []
    for combo in combinations(constraints, n):
        tight = [forms[j] for kind, j in combo if kind == "w"]
        if not tight:
            continue
        fixed = {i for kind, i in combo if kind == "a"}
        free = [i for i in range(n) if i not in fixed]
        sol = _solve_unique([[form[i] for i in free] for form in tight], [dl] * len(tight))
        if sol is None:
            continue
        num, den = sol
        if any(x < 0 for x in num):
            continue
        if any(sum(form[i] * x for i, x in zip(free, num)) < dl * den for form in forms):
            continue
        full = [0] * n
        for i, x in zip(free, num):
            full[i] = x
        key = (tuple(full), den)
        if key not in seen:
            seen.add(key)
            verts.append(tuple(Fraction(x, den) for x in full))
    return verts


def _build_polytope(lambdas: list, vertices: list, n: int, virtual_points=()) -> CPolytope:
    """Assemble a CPolytope from distinct strictly positive normalized forms
    and the vertices of their region {r >= 0 : lambda . r >= 1}.

    Each constraint's tight vertex set is computed once, in integers: each
    form is split once into lambda = w / c and each vertex into num / den,
    and lambda is tight at the vertex when w . num == c * den.  The forms
    whose set has affine rank n-1 support facets and are kept
    (irredundancy); the faces are the nonempty intersections of a facet's
    set with any of the others, axes included, and their tight forms and
    axes are read off the same sets.  The affine rank of a vertex set is
    one less than the rank of the integer vectors (num, den), which is the
    rank of the points lifted to (v, 1).
    """
    split = {v: _integral(v) for v in vertices}

    def affine_rank(vs) -> int:
        return len(_independent([split[v][0] + (split[v][1],) for v in vs])) - 1

    tight = {}
    for lam in lambdas:
        w, c = _integral(lam)
        tight[lam] = frozenset(v for v, (num, den) in split.items() if _dot(w, num) == c * den)
    essential = sorted(lam for lam in lambdas if affine_rank(tight[lam]) == n - 1)
    facets = [tight[lam] for lam in essential]
    axes = [frozenset(v for v in vertices if not v[i]) for i in range(n)]
    found = set(facets)
    frontier = found
    while frontier:
        frontier = {vs & cut for vs in frontier for cut in facets + axes} - found - {frozenset()}
        found |= frontier
    faces = tuple(
        Face(
            vertices=pts,
            dimension=affine_rank(pts),
            weight_indices=frozenset(j for j, fs in enumerate(facets) if vs <= fs),
            inner=not any(vs <= fs for fs in axes),
        )
        for vs, pts in sorted(((vs, tuple(sorted(vs))) for vs in found),
                              key=lambda item: (len(item[1]), item[1]))
    )
    scale = lcm(*[c.denominator for lam in essential for c in lam])
    return CPolytope(
        weights=tuple(tuple(int(c * scale) for c in lam) for lam in essential),
        nscale=scale,
        vertices=tuple(sorted(vertices)),
        faces=faces,
        virtual_points=tuple(tuple(p) for p in virtual_points),
    )


def cpolytope_from_weights(ws: Iterable) -> CPolytope:
    """Polytope {min_i w_i . r = 1} from rational weight vectors.

    Redundant vectors (those not supporting a facet) are dropped.
    """
    ws = list(dict.fromkeys(tuple(Fraction(c) for c in w) for w in ws))
    if not ws:
        raise PolytopeError("need at least one weight vector")
    n = len(ws[0])
    if any(len(w) != n for w in ws):
        raise PolytopeError("weight vectors of mixed arity")
    if any(c <= 0 for w in ws for c in w):
        raise PolytopeError("weight vectors must be strictly positive")
    return _build_polytope(ws, _region_vertices(ws, n), n)


# -- Newton polyhedron ----------------------------------------------------------


@dataclass(frozen=True)
class NewtonData:
    """Newton polyhedron summary: diagram facets, vertices, convenience."""

    support: tuple
    facet_forms: tuple  # (primitive int normal w, value c) per compact facet
    facet_points: tuple  # support points on each facet
    vertices: tuple  # diagram vertices (lattice points)
    convenient: bool


def _minimal_points(support: list) -> list:
    out = []
    for a in support:
        if not any(b != a and all(x <= y for x, y in zip(b, a)) for b in support):
            out.append(a)
    return out


def _missing_axes(support: list, n: int) -> list:
    """Axes i with no pure power x_i^k, k > 0, in the support."""
    return [i for i in range(n) if not any(0 < m[i] == sum(m) for m in support)]


def newton_diagram(f: Poly) -> NewtonData:
    """Exact Newton polyhedron data of a nonzero polynomial.

    Everything comes by polarity from the vertex set V of the dual region
    D = {w >= 0 : p . w >= 1 for every minimal support point p}, which
    _region_vertices enumerates once.  G = conv(supp f) + R^n_+.

    1. For x >= 0, x lies in G exactly when w . x >= 1 for all w in D.
       If x is not in G, some a . x < b <= a . y for all y in G; since
       G + R^n_+ = G, a >= 0, so b > 0 and w = a / b in D has w . x < 1.
    2. D lies in the orthant, which is its recession cone, so
       D = conv(V) + R^n_+ and G = {x >= 0 : v . x >= 1 for v in V}.
    3. If 0 is in the support, D and V are empty and G's only vertex is 0.
    4. The compact facets {w . x = c}, c > 0, of G are the strictly
       positive v in V, with w primitive on the ray of v and v = w / c.
       Such a v is tight at n independent constraints and at no axis, so
       at n linearly independent minimal points; as v . x >= 1 on G, the
       plane v . x = 1 cuts G in a face of affine rank n-1, bounded since
       v > 0.  Conversely a compact facet has w >= 0 (G + R^n_+ = G) with
       no zero entry (else the facet holds x + t e_i), so w / c lies in D
       and is tight at n linearly independent facet points: a vertex.
    5. The vertices of G come by a rank test, with no second enumeration
       (`_diagram_vertices`).  A point of the polyhedron of step 2 is a
       vertex exactly when its tight constraints, the v in V with
       v . x = 1 and the axes with x_i = 0, have rank n.  Every vertex is
       a minimal point: a support point q above another one b is inside
       the segment from b to q + (q - b), which lies in G.
    6. If the diagram is convenient, each axis carries a pure power
       k e_i, k > 0, among the minimal points, so every w in D has
       k w_i >= 1 and V is strictly positive.  By step 4 every v in V is
       then a compact facet form, and by step 2 these forms alone cut G
       out of the orthant: the CPolytope of the forms is G, with the
       vertices of step 5 (`cpolytope_from_poly`).
    """
    if f.is_zero():
        raise PolytopeError("zero polynomial has no Newton diagram")
    n = f.ring.nvars
    support = sorted(f.support(), key=degrevlex_key)
    minimal = _minimal_points(support)
    dual = _region_vertices(minimal, n)
    facets = []
    for lam in (v for v in dual if all(v)):
        w = _primitive(lam)
        tight = tuple(sorted(p for p in minimal if _dot(lam, p) == 1))
        facets.append(((w, _dot(w, tight[0])), tight))
    facets.sort()
    return NewtonData(
        support=tuple(support),
        facet_forms=tuple(form for form, _ in facets),
        facet_points=tuple(tight for _, tight in facets),
        vertices=tuple(sorted(_diagram_vertices(minimal, dual, n))),
        convenient=not _missing_axes(support, n),
    )


def _diagram_vertices(minimal: list, dual: list, n: int) -> list:
    """The minimal points whose tight dual vertices and axes have rank n:
    the vertices of the diagram (newton_diagram, step 5).  A dual vertex
    num / den is tight at p when num . p == den, and spans the same line
    as num."""
    split = [_integral(v) for v in dual]
    return [p for p in minimal
            if len(_independent([num for num, den in split if _dot(num, p) == den]
                                + [[int(j == i) for j in range(n)] for i in range(n)
                                   if not p[i]])) == n]


def cpolytope_from_poly(f: Poly, rule: str = "extend") -> CPolytope:
    """The Newton diagram of f as a weight polytope, extending when needed.

    rule 'extend': a non-convenient diagram gains, on each missing axis i,
    the virtual point M_i e_i with M_i = ceil(max 1 / lambda_i) over the
    normalized facet forms lambda, the least value that no existing facet
    cuts below; the induced filtration agrees with the diagram's on the
    original support.  When the diagram has no facet at all, M_i falls back
    to twice the Tjurina-based determinacy bound.

    rule 'single': requires a quasihomogeneous f; the polytope of its
    single weight vector.
    """
    if f.is_zero() or f.constant_term():
        raise PolytopeError("need a nonzero input without constant term")
    n = f.ring.nvars
    if rule == "single":
        from possing.nondeg import detect_qh

        qh = detect_qh(f)
        if qh is None:
            raise PolytopeError("input is not quasihomogeneous; cannot use single-weight rule")
        lam = tuple(Fraction(wi, qh.degree) for wi in qh.weights)
        return _build_polytope([lam], _region_vertices([lam], n), n)
    if rule != "extend":
        raise PolytopeError("unknown extension rule %r" % rule)
    support = list(f.support())
    missing = _missing_axes(support, n)
    lambdas = [v for v in _region_vertices(_minimal_points(support), n) if all(v)] if missing else []
    if missing and not lambdas:
        from possing.localalg import tjurina

        tau = tjurina(f)
        if tau == INFINITY:
            raise PolytopeError(
                "no facet to extend and infinite Tjurina number; supply weights explicitly"
            )
        fallback = 2 * (2 * int(tau) - int(f.order()) + 2)
    virtual = []
    for i in missing:
        m_i = ceil(max(1 / lam[i] for lam in lambdas)) if lambdas else fallback
        if m_i <= 0:
            raise PolytopeError("extension failed to produce a convenient diagram")
        virtual.append(tuple(m_i if j == i else 0 for j in range(n)))
    # the support is convenient now, so its diagram is the polytope (step 6)
    minimal = _minimal_points(support + virtual)
    dual = _region_vertices(minimal, n)
    vertices = [tuple(map(Fraction, p)) for p in _diagram_vertices(minimal, dual, n)]
    return _build_polytope(dual, vertices, n, virtual_points=virtual)


# -- valuations -----------------------------------------------------------------


@dataclass(frozen=True)
class ValuationReport:
    value: object  # int, or INFINITY for the zero polynomial
    attaining: dict  # minimal-valuation monomial -> tuple of facet indices


def valuation(P: CPolytope, f: Poly) -> ValuationReport:
    """Scaled piecewise valuation of f with per-term facet attainment."""
    best = valuation_poly(P, f)
    return ValuationReport(best, {m: P.attaining(m) for m in f.terms if P.value(m) == best})


def valuation_poly(P: CPolytope, f: Poly):
    """Scaled piecewise valuation of f: INFINITY for the zero polynomial."""
    return min((P.value(m) for m in f.terms), default=INFINITY)


def initial_form(P: CPolytope, f: Poly) -> Poly:
    """Terms of f attaining the minimal piecewise valuation."""
    if f.is_zero():
        raise PolytopeError("zero polynomial has no initial form")
    v = valuation_poly(P, f)
    return f.filter_terms(lambda m: P.value(m) == v)


def weighted_initial_form(f: Poly, w) -> Poly:
    """Terms of minimal weighted degree under a single weight vector."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    vals = {m: _dot(w, m) for m in f.terms}
    low = min(vals.values())
    return f.filter_terms(lambda m: vals[m] == low)


def face_initial_form(P: CPolytope, face: Face, f: Poly) -> Poly:
    """Initial form along a face: minimize the sum of its tight facet forms."""
    if f.is_zero():
        raise PolytopeError("zero polynomial has no initial form")
    if not face.weight_indices:
        raise PolytopeError("face carries no facet form")
    ws = [P.weights[j] for j in sorted(face.weight_indices)]
    return weighted_initial_form(f, tuple(sum(col) for col in zip(*ws)))


def inner_faces(P: CPolytope) -> list:
    """Faces of every dimension not contained in a coordinate hyperplane."""
    return [face for face in P.faces if face.inner]


# -- lattice enumeration ---------------------------------------------------------


def _lattice_sweep(P: CPolytope, lo: int, hi: int, shifts: Optional[Sequence] = None) -> list:
    """All beta >= 0 with lo <= min_j(W_j . beta - shifts[j]) <= hi.

    Shifts default to zero.  The weight entries are strictly positive, so
    the shifted minimum grows monotonically in every coordinate and the
    recursion over the first n - 1 coordinates prunes as soon as it
    overshoots hi.  The last coordinate e is solved, not stepped: with
    partial_j = W_j . (beta_1..beta_(n-1)) - shifts[j] and every W_j[n] > 0,
    each partial_j + e W_j[n], and so their minimum, rises strictly with e.
    The minimum is >= lo iff every term is, i.e. e >= ceil((lo - partial_j)
    / W_j[n]) for all j, and it is <= hi iff some term is, i.e. e <=
    floor((hi - partial_j) / W_j[n]) for some j.  So the admissible e form
    the range [e_lo, e_hi] with e_lo = max(0, max_j ceil(..)) and e_hi =
    max_j floor(..), which for lo == hi holds at most one e.  One plain
    loop over the weights keeps both running maxima, e_lo seeded at 0 (the
    max with 0) and e_hi at -1 (any e_hi < 0 is an empty range anyway); an
    empty range returns before the prefix tuple is built.  Points come in
    lexicographic order of the exponents.
    """
    weights = P.weights
    last = P.nvars - 1
    columns = [[w[i] for w in weights] for i in range(last + 1)]
    tail = columns[last]
    out = []
    current: list = []

    def rec(i, partial):
        # partial[j] = W_j . current - shifts[j], and min(partial) <= hi
        if i == last:
            e_lo, e_hi = 0, -1
            for p, c in zip(partial, tail):
                e = -((p - lo) // c)
                if e > e_lo:
                    e_lo = e
                e = (hi - p) // c
                if e > e_hi:
                    e_hi = e
            if e_lo > e_hi:
                return
            prefix = tuple(current)
            out.extend(prefix + (e,) for e in range(e_lo, e_hi + 1))
            return
        column = columns[i]
        current.append(0)
        while min(partial) <= hi:
            rec(i + 1, partial)
            partial = [p + c for p, c in zip(partial, column)]
            current[-1] += 1
        current.pop()

    start = [-s for s in shifts] if shifts is not None else [0] * len(weights)
    rec(0, start)
    return out


def lattice_points_shifted(P: CPolytope, shifts: Sequence, target: int) -> list:
    """All beta >= 0 with min_j(W_j . beta - shifts[j]) == target, in degrevlex order."""
    out = _lattice_sweep(P, target, target, shifts)
    out.sort(key=degrevlex_key)
    return out


def monomials_of_valuation(P: CPolytope, d: int) -> list:
    """Lattice exponents with piecewise valuation exactly d."""
    return lattice_points_shifted(P, [0] * len(P.weights), d)


def derivation_monomials(P: CPolytope, axis: int, t: int) -> list:
    """Exponents beta with the derivation x^beta d/dx_axis of valuation t."""
    shifts = [w[axis] for w in P.weights]
    return lattice_points_shifted(P, shifts, t)


# -- filtered echelons -----------------------------------------------------------


def _filtered_dims(P: CPolytope, ring, gens: list, dmax: int) -> list:
    """dims[d] = dim (I + F_d)/(I + F_(d+1)) for d = 0..dmax, one elimination.

    Each pair (g, k) of gens stands for g times every monomial of
    valuation >= k, so (g, 0) is g and, for the degree, (g, 2) is m^2 * g.
    Columns are the monomials of valuation <= dmax by level, local-leading
    first within a level.  `_row_echelon` gets an unlabelled row x^gamma * g
    for each column monomial gamma with k <= v(gamma) <= dmax - v(g) (none
    for a zero g, of valuation INFINITY), since only the pivot positions
    are read; past that bound, v(x^gamma g) >= v(gamma) + v(g) leaves no
    term of the row in a column.  Pivots sit at a row's lowest column, so
    the pivots below level c count the rows' image modulo F_c, the span of
    the monomials of valuation >= c; for c <= dmax + 1 that image is (I +
    F_c)/F_c.  So the dims below level c sum to dim K[[x]]/(I + F_c) for
    every c <= dmax + 1.
    """
    points = [(m, P.value(m)) for m in _lattice_sweep(P, 0, dmax)]
    by_level = {}
    for m, lvl in points:
        by_level.setdefault(lvl, []).append(m)
    cols = [
        m
        for lvl in sorted(by_level)
        for m in sorted(by_level[lvl], key=local_key, reverse=True)
    ]
    bounds = [(g, k, dmax - valuation_poly(P, g)) for g, k in gens]
    rows = ((None, g, gamma) for g, k, bound in bounds
            for gamma, lvl in points if k <= lvl <= bound)
    ech, _ = _row_echelon(ring, cols, rows, track=False)
    dims = [0] * (dmax + 1)
    for pos, m in enumerate(cols):
        if pos not in ech.pivots:
            dims[P.value(m)] += 1
    return dims
