"""Degreewise construction of the graded algebras attached to a filtration.

For a weight polytope P and f with v := v_P(f), the degree-d piece of the
expected-valuation graded algebra is the span of the valuation-d monomials
modulo the degree-d components of products xi*f with v_P(xi) + v >= d
(mode 'right', Jacobian flavor; monomial derivations suffice) and
additionally g*f with v_P(g) + v >= d (mode 'contact', Tjurina flavor).
Only generators of exact complementary valuation can contribute to the
degree-d component, so each piece is a finite exact linear-algebra
problem.  No monomial order refines a multi-facet piecewise degree, which
is why this is done by plain column reduction and not by standard bases.

The plain (non-expected) graded algebras of the quotients by the Jacobian
and Tjurina ideals are computed by a single echelon over all monomials of
bounded valuation, `newton._filtered_dims`: with columns sorted by
valuation, the pivots at level d count the image inside that level.  Every
echelon, expected or plain, is a sparse `newton._Echelon` filled by the one
row builder `newton._row_echelon`, from a column list and (label, g, gamma)
rows that each stand for the shifted generator x^gamma * g; no product is
materialised.  The expected pieces pass labelled rows from
`GradedAlgebra.generators`; `_filtered_dims` passes unlabelled rows for its
(g, k) generator pairs, g times every monomial of valuation >= k.

Pivots always target the leading monomial in the local order, so surviving
quotient monomials match the standard-monomial conventions of the rest of
the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from possing.localalg import local_dimension, mode_ideal_gens
from possing.newton import (
    CPolytope,
    _filtered_dims,
    _lattice_sweep,
    _primitive,
    _row_echelon,
    derivation_monomials,
    monomials_of_valuation,
    valuation_poly,
)
from possing.poly import INFINITY, Mono, Poly, degrevlex_key, local_key


class ConditionFailure(ValueError):
    """A finiteness condition required by the caller does not hold."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass
class GradedPieceReport:
    """One degree of a graded algebra: image generators and survivors."""

    image_labels: tuple  # labels of the image generators with nonzero piece
    rank: int
    quotient_basis: tuple  # surviving monomials, ascending degrevlex
    columns: tuple = field(repr=False)  # pivot-preference order
    echelon: object = field(repr=False)


class GradedAlgebra:
    """Piece cache plus cone-propagation kill cache for one (P, f, mode)."""

    def __init__(self, P: CPolytope, f: Poly, mode: str):
        if f.is_zero() or f.constant_term():
            raise ValueError("graded algebras need a nonzero f without constant term")
        mode_ideal_gens(f, mode)  # refuses an unknown mode
        self.P = P
        self.f = f
        self.mode = mode
        self.ring = f.ring
        self.value_f = valuation_poly(P, f)
        self.partials = [f.partial(i) for i in range(f.ring.nvars)]
        self._pieces: Dict[int, GradedPieceReport] = {}
        # known-zero monomials with their attaining facet sets
        self.kills: List[Tuple[Mono, frozenset]] = []

    # -- pieces ------------------------------------------------------------

    def generators(self, t: int) -> list:
        """(label, g, shift) for the image generators x^shift * g of valuation t.

        ("mult", gamma) labels f*x^gamma (contact mode only) and
        ("deriv", axis, beta) labels x^beta * d f / d x_axis; the shift is
        gamma or beta, and `newton._row_echelon` applies it.
        """
        P = self.P
        gens = []
        if self.mode == "contact" and t >= 0:
            for gamma in monomials_of_valuation(P, t):
                gens.append((("mult", gamma), self.f, gamma))
        for axis, partial in enumerate(self.partials):
            if partial.is_zero():
                continue
            for beta in derivation_monomials(P, axis, t):
                gens.append((("deriv", axis, beta), partial, beta))
        return gens

    def piece(self, d: int) -> GradedPieceReport:
        if d not in self._pieces:
            self._pieces[d] = self._compute_piece(d)
        return self._pieces[d]

    def _compute_piece(self, d: int) -> GradedPieceReport:
        if d < 0:
            raise ValueError("negative filtration degree")
        cols = sorted(monomials_of_valuation(self.P, d), key=local_key, reverse=True)
        ech, labels = _row_echelon(
            self.ring, cols, self.generators(d - self.value_f), track=True
        )
        survivors = [m for i, m in enumerate(cols) if i not in ech.pivots]
        survivors.sort(key=degrevlex_key)
        return GradedPieceReport(
            image_labels=tuple(labels),
            rank=ech.rank,
            quotient_basis=tuple(survivors),
            columns=tuple(cols),
            echelon=ech,
        )

    def solve(self, g: Poly, d: int):
        """Split the valuation-d part of g into surviving-basis and image parts.

        Returns (coeffs on quotient-basis monomials, coeffs on generator
        labels).  Exact at level d: g minus the named combination lies in
        strictly higher valuation.
        """
        piece = self.piece(d)
        index = {m: i for i, m in enumerate(piece.columns)}
        vec = {index[m]: c for m, c in g.terms.items() if self.P.value(m) == d}
        residual, used = piece.echelon.reduce(vec)
        basis_coeffs = {piece.columns[pos]: c for pos, c in residual.items()}
        if any(m not in piece.quotient_basis for m in basis_coeffs):
            raise AssertionError("residual escaped the quotient basis")
        return basis_coeffs, used

    # -- zero tests ----------------------------------------------------------

    def cone_killed(self, m: Mono) -> bool:
        for alpha, facets in self.kills:
            beta = tuple(x - a for x, a in zip(m, alpha))
            if any(b < 0 for b in beta):
                continue
            if set(self.P.attaining(beta)) & facets:
                return True
        return False

    def vanishes(self, m: Mono, use_cone: bool = True) -> bool:
        if use_cone and self.cone_killed(m):
            return True
        d = self.P.value(m)
        piece = self.piece(d)
        if m in piece.quotient_basis:
            return False
        basis_coeffs, _ = self.solve(self.ring.monomial(m), d)
        vanished = not basis_coeffs
        if vanished:
            self.record_kill(m)
        return vanished

    def record_kill(self, m: Mono):
        entry = (m, frozenset(self.P.attaining(m)))
        if entry not in self.kills:
            self.kills.append(entry)


# -- plain graded algebras --------------------------------------------------------


def plain_graded_dims(P: CPolytope, f: Poly, mode: str, dmax: int) -> list:
    """Piece dimensions of the plain graded algebra of the quotient by the
    Jacobian ('right') or Tjurina ('contact') ideal, for degrees 0..dmax."""
    return _filtered_dims(P, f.ring, [(g, 0) for g in mode_ideal_gens(f, mode)], dmax)


@dataclass(frozen=True)
class RayReport:
    """Scan result for the ray through one zero-dimensional face."""

    direction: Mono  # primitive lattice direction
    facets: frozenset  # facet indices whose cone contains the ray
    first_vanishing: Optional[Mono]
    multiple: Optional[int]
    scan_bound: int


@dataclass(frozen=True)
class RayCriterionReport:
    # vertex rays in face order, up to and including the first one with no
    # vanishing multiple; the rays after it are not scanned
    rays: tuple
    all_vanish: bool
    scan_bound: int  # the bound every ray was scanned to

    def witness(self) -> Optional[RayReport]:
        for r in self.rays:
            if r.first_vanishing is None:
                return r
        return None


def _least_vanishing_multiple(alg: GradedAlgebra, u: Mono, bound: int) -> Optional[int]:
    """Least k <= bound with x^(k u) zero in alg, or None: probes k = 1, 2,
    4, ... capped at bound, then bisects (see `ray_criterion`)."""

    def vanishes(k: int) -> bool:
        return alg.vanishes(tuple(k * c for c in u))

    survived, k = 0, 1  # x^(survived u) is not zero, or survived == 0
    while not vanishes(k):
        if k == bound:
            return None
        survived, k = k, min(2 * k, bound)
    while k - survived > 1:
        mid = (survived + k) // 2
        if vanishes(mid):
            k = mid
        else:
            survived = mid
    return k


def ray_criterion(alg: GradedAlgebra, scan_bound: Optional[int] = None) -> RayCriterionReport:
    """Find each vertex ray's first vanishing lattice multiple, in face order.

    Finiteness of the graded algebra is equivalent to every vertex ray of
    alg's polytope carrying a vanishing monomial; the first ray with none
    up to the bound is reported as the witness, and the rays after it are
    not scanned.  The default bound comes from the local invariant of alg's
    mode.  A scan bound below 1 checks no multiple and is refused with
    ValueError.

    Vanishing along a vertex ray u is upward-closed: every multiple k u
    attains the same facets, so for k' > k the product x^(k'u) =
    x^((k'-k)u) * x^(k u) has valuation v(x^((k'-k)u)) + v(x^(k u)), and it
    is zero once x^(k u) is (cone propagation, as in
    `GradedAlgebra.cone_killed`).  So the multiples 1..bound survive up to
    some k* and vanish from it on, and a search finds k* from about
    2 log2 k* pieces where a scan of k = 1, 2, ... takes k*: probe k = 1,
    2, 4, ..., each capped at the bound, until one vanishes, then bisect
    between the last multiple that survived and the first that vanished.  A probe at the bound that
    survives shows that no multiple vanishes.  The least k, the witness
    and the bound are those of the linear scan.

    The probes above k* record kills that x^(k* u) implies; they are
    dropped, so alg.kills ends with one kill x^(k* u) per finite ray in
    face order, as the linear scan leaves it.
    """
    if scan_bound is None:
        local_dim = local_dimension(alg.f, alg.mode)
        scan_bound = 24 if local_dim == INFINITY else max(16, 4 * int(local_dim))
    if scan_bound < 1:
        raise ValueError("scan bound must be at least 1, got %d" % scan_bound)
    rays = []
    for face in alg.P.faces:
        if face.dimension != 0:
            continue
        u = _primitive(face.vertices[0])
        kept = len(alg.kills)
        k = _least_vanishing_multiple(alg, u, scan_bound)
        hit = None if k is None else tuple(k * c for c in u)
        rays.append(
            RayReport(
                direction=u,
                facets=face.weight_indices,
                first_vanishing=hit,
                multiple=k,
                scan_bound=scan_bound,
            )
        )
        if hit is None:
            break
        del alg.kills[kept:]  # probes above k* u, implied by it
        alg.record_kill(hit)
    all_vanish = all(r.first_vanishing for r in rays)
    return RayCriterionReport(rays=tuple(rays), all_vanish=all_vanish, scan_bound=scan_bound)


@dataclass(frozen=True)
class RegularBasisResult:
    """Monomial basis of an expected-valuation graded algebra, or a witness."""

    algebra: GradedAlgebra = field(repr=False, compare=False)  # computed in; carries the mode
    status: str  # "finite" | "infinite"
    basis: tuple  # ((mono, valuation), ...) sorted by (valuation, degrevlex)
    dimension: object  # int or INFINITY
    scan_bound: int  # the bound the vertex rays were scanned to
    witness_ray: Optional[RayReport] = None

    @property
    def finite(self) -> bool:
        return self.status == "finite"

    def max_valuation(self) -> int:
        if not self.basis:
            return 0
        return max(v for _, v in self.basis)

    def monomials(self) -> tuple:
        return tuple(m for m, _ in self.basis)


def regular_basis(
    P: CPolytope, f: Poly, mode: str, scan_bound: Optional[int] = None
) -> RegularBasisResult:
    """Full monomial basis of the graded algebra, or an infiniteness witness.

    After every vertex ray exhibits a vanishing monomial, cone propagation
    confines survivors to a bounded region: inside a facet cone, anything
    at or past the sum of the ray kills is a shifted-cone translate of a
    kill.  Pieces are then computed only at degrees of unkilled candidates.
    The kills are those `ray_criterion` leaves: each ray's first vanishing
    multiple x^(k* u), in face order, and no kill from a probe above it.
    """
    alg = GradedAlgebra(P, f, mode)
    rc = ray_criterion(alg, scan_bound=scan_bound)
    if not rc.all_vanish:
        return RegularBasisResult(
            alg,
            status="infinite",
            basis=(),
            dimension=INFINITY,
            scan_bound=rc.scan_bound,
            witness_ray=rc.witness(),
        )
    # bound: within each facet cone, survivors sit below the sum of ray kills
    dmax = 0
    for facet_index in range(len(P.weights)):
        total = 0
        for ray in rc.rays:
            if facet_index in ray.facets:
                total += P.value(ray.first_vanishing)
        dmax = max(dmax, total)
    candidates = [
        m for m in _lattice_sweep(P, 0, dmax - 1) if not alg.cone_killed(m)
    ]
    degrees = sorted({P.value(m) for m in candidates})
    basis = []
    for d in degrees:
        piece = alg.piece(d)
        for m in piece.quotient_basis:
            if alg.cone_killed(m):
                raise AssertionError("cone-killed monomial survived the echelon")
            basis.append((m, d))
    basis.sort(key=lambda pair: (pair[1], degrevlex_key(pair[0])))
    return RegularBasisResult(
        alg,
        status="finite",
        basis=tuple(basis),
        dimension=len(basis),
        scan_bound=rc.scan_bound,
    )


@dataclass(frozen=True)
class ConditionReport:
    """Verdict for one of the graded finiteness/exactness conditions."""

    holds: bool
    local_dimension: object  # Milnor or Tjurina number of f
    basis: RegularBasisResult  # graded dimension, witness ray and mode


def check_condition(
    P: CPolytope,
    f: Poly,
    mode: str,
    strict: bool,
    scan_bound: Optional[int] = None,
) -> ConditionReport:
    """Decide graded finiteness (strict=False) or exactness (strict=True).

    mode 'right' inspects the Jacobian-flavor algebra against the Milnor
    number; mode 'contact' the Tjurina flavor against the Tjurina number.
    Exactness means finiteness with graded dimension equal to the local one.
    """
    rb = regular_basis(P, f, mode, scan_bound=scan_bound)
    local_dim = local_dimension(f, mode)  # remembered on f if the scan used it
    return ConditionReport(
        holds=rb.finite and (not strict or rb.dimension == local_dim),
        local_dimension=local_dim,
        basis=rb,
    )
