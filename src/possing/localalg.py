"""Local standard bases and ideal-theoretic primitives.

Standard bases under the local degree order are completed by Lazard's
homogenization: Buchberger runs on the homogenized generators under a
degree-first order whose tie-break is the local order of the x-part, and
the result dehomogenizes to a standard basis.  One division routine,
`_reduce`, serves Buchberger and membership; membership is decided in the
extension of the ideal to the formal power series ring, which is what
Milnor/Tjurina numbers need, by division below the power of the maximal
ideal that the ideal contains, or by comparing leading ideals when the
quotient is infinite.  Saturation (used by the inner non-degeneracy test)
is one global Buchberger run that eliminates the Rabinowitsch variable; no
monomial order can refine a multi-facet piecewise degree, so nothing here
is used for the graded algebras themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable, Iterable, Optional

from possing.newton import _filtered_dims, cpolytope_from_weights
from possing.poly import (
    INFINITY,
    Mono,
    Poly,
    Ring,
    RingError,
    degrevlex_key,
    local_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


@dataclass(frozen=True)
class OrderingSpec:
    """Monomial order: 'local' (1 above all variables) or 'global' degrevlex,
    both with reverse-lexicographic tie-break."""

    kind: str  # "local" | "global"

    def __post_init__(self):
        if self.kind not in ("local", "global"):
            raise ValueError("ordering kind must be 'local' or 'global'")

    @property
    def is_local(self) -> bool:
        return self.kind == "local"

    def key(self) -> Callable[[Mono], object]:
        return local_key if self.is_local else degrevlex_key


LOCAL = OrderingSpec("local")
GLOBAL = OrderingSpec("global")


def leading_monomial(f: Poly, key) -> Mono:
    return max(f.terms, key=key)


def _monic(f: Poly, key) -> Poly:
    lm = leading_monomial(f, key)
    return f.scale(f.ring.cinv(f.terms[lm]))


def _reduce(g: Poly, basis, lms, key, cutoff: Optional[int] = None) -> Poly:
    """Remainder of g under top-reduction by a monic basis.

    Each step cancels the remainder's leading term with the first basis
    element whose leading monomial (lms, in the basis order) divides it, and
    stops when none does.  With a cutoff, every term of degree >= cutoff is
    dropped after each step.  Without a cutoff this terminates under a
    global order only.  With one it terminates under any order: the leading
    monomial strictly falls, and finitely many monomials lie below the
    cutoff.
    """
    h = g if cutoff is None else g.truncate(cutoff - 1)
    while not h.is_zero():
        lm_h = leading_monomial(h, key)
        for lm, b in zip(lms, basis):
            if mono_divides(lm, lm_h):
                break
        else:
            break
        h = h - b.term_mul(mono_div(lm_h, lm), h.terms[lm_h])
        if cutoff is not None:
            h = h.truncate(cutoff - 1)
    return h


@dataclass(frozen=True)
class StandardBasis:
    """Completed (standard or Groebner) basis with its leading data."""

    generators: tuple  # monic Poly, minimalized
    ordering: OrderingSpec
    leading_monomials: tuple  # one Mono per generator

    @property
    def ring(self) -> Ring:
        return self.generators[0].ring

    def contains(self, g: Poly) -> bool:
        """Membership of g in the ideal I (extended to the power series ring
        for the local order).  Each branch is exact.

        Global order: g lies in I exactly when its remainder under division
        by the Groebner basis is zero.

        Local order, finite quotient: let c = min_power_containment(self).
        Then m^c lies in I, so I = I + m^c and L(I + m^c) = L(I) + m^c.
        Division with every term of degree >= c dropped changes g only by
        elements of I, so g - h lies in I for its remainder h.  A nonzero h
        leads with a monomial outside L(I), so h is not in I.  Hence g lies
        in I exactly when h is zero.

        Local order, infinite quotient: I lies in J = I + <g>.  If the
        leading ideals of I and J agree, a standard basis of I is one of J,
        so it generates J and I = J (Greuel & Pfister, *A Singular
        Introduction to Commutative Algebra*, 1.6-1.7).  So g lies in I
        exactly when the standard basis of J has the leading monomials of
        I; both lists are minimal and sorted, hence comparable as tuples.
        """
        key = self.ordering.key()
        if not self.ordering.is_local:
            return _reduce(g, self.generators, self.leading_monomials, key).is_zero()
        cutoff = min_power_containment(self)
        if cutoff == INFINITY:
            wider = std_basis(self.generators + (g,), self.ordering)
            return wider.leading_monomials == self.leading_monomials
        return _reduce(g, self.generators, self.leading_monomials, key, cutoff).is_zero()


def _buchberger(gens: list, key) -> list:
    """Completion loop; normal selection with the product criterion."""
    basis = [_monic(g, key) for g in gens if not g.is_zero()]
    lms = [leading_monomial(g, key) for g in basis]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        pairs.sort(key=lambda ij: sum(mono_lcm(lms[ij[0]], lms[ij[1]])), reverse=True)
        i, j = pairs.pop()
        lcm = mono_lcm(lms[i], lms[j])
        if lcm == mono_mul(lms[i], lms[j]):
            continue  # coprime leading monomials: s-poly reduces to zero
        s = basis[i].term_mul(mono_div(lcm, lms[i]), 1) - basis[j].term_mul(
            mono_div(lcm, lms[j]), 1
        )
        if s.is_zero():
            continue
        h = _reduce(s, basis, lms, key)
        if h.is_zero():
            continue
        h = _monic(h, key)
        basis.append(h)
        lms.append(leading_monomial(h, key))
        new = len(basis) - 1
        pairs.extend((k, new) for k in range(new))
    return basis


def _minimalize(basis: list, key) -> list:
    lms = [leading_monomial(g, key) for g in basis]
    keep = []
    for i, lm in enumerate(lms):
        if any(
            mono_divides(lms[j], lm) and (lms[j] != lm or j < i)
            for j in range(len(basis))
            if j != i
        ):
            continue
        keep.append(i)
    kept = [(lms[i], basis[i]) for i in keep]
    kept.sort(key=lambda pair: degrevlex_key(pair[0]))
    return kept


def _homog_key(m: Mono):
    """Global order on the homogenizing ring: total degree, then the local
    order of the x-part.  The homogenizing variable sits in the last slot.
    Leading terms of homogenized polynomials dehomogenize to local leading
    terms, so Groebner bases here dehomogenize to standard bases."""
    return (sum(m), local_key(m[:-1]))


def _homogenize(ring_t: Ring, f: Poly) -> Poly:
    d = f.degree()
    return Poly(ring_t, {m + (d - sum(m),): c for m, c in f.terms.items()})


def _dehomogenize(ring: Ring, f: Poly) -> Poly:
    acc = {}
    for m, c in f.terms.items():
        x = m[:-1]
        prev = acc.get(x)
        acc[x] = c if prev is None else ring.cadd(prev, c)
    return Poly(ring, {m: c for m, c in acc.items() if c})


def std_basis(gens: Iterable, ordering: OrderingSpec = LOCAL) -> StandardBasis:
    """Completed basis under the given order.

    Global orders run Buchberger directly.  Local standard bases go
    through homogenization: a Groebner basis of the homogenized
    generators under a degree-first order whose tie-break is the local
    order of the x-part dehomogenizes to a standard basis (Lazard's
    method).  That route terminates structurally, unlike naive Mora
    completion whose ecart strategy can blow up on tail-heavy input.

    Zero generators are dropped; at least one generator must be nonzero.
    The returned generators are monic with pairwise non-divisible leading
    monomials.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise RingError("mixed ring contexts")
    key = ordering.key()
    if not ordering.is_local:
        basis = _buchberger(gens, key)
        kept = _minimalize(basis, key)
        return StandardBasis(
            generators=tuple(g for _, g in kept),
            ordering=ordering,
            leading_monomials=tuple(lm for lm, _ in kept),
        )
    ring_t = _with_tag_variable(ring)
    lifted = [_homogenize(ring_t, g) for g in gens]
    homog_basis = _buchberger(lifted, _homog_key)
    basis = [_dehomogenize(ring, h) for h in homog_basis]
    basis = [g for g in basis if not g.is_zero()]
    kept = _minimalize([_monic(g, key) for g in basis], key)
    return StandardBasis(
        generators=tuple(g for _, g in kept),
        ordering=ordering,
        leading_monomials=tuple(lm for lm, _ in kept),
    )


@dataclass(frozen=True)
class QuotientReport:
    """K-dimension of the quotient by a zero-dimensional-or-not leading ideal."""

    dimension: object  # int or INFINITY
    standard_monomials: Optional[tuple]  # sorted ascending degrevlex; None if infinite


def vdim(sb: StandardBasis) -> QuotientReport:
    """Dimension of the local quotient ring, via counting standard monomials.

    Infinite exactly when some variable has no pure power among the leading
    monomials (detected exactly, no timeout heuristics).
    """
    n = sb.ring.nvars
    lms = sb.leading_monomials
    bounds = []
    for i in range(n):
        pure = [m[i] for m in lms if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            return QuotientReport(INFINITY, None)
        bounds.append(min(pure))
    std = []
    for expo in product(*(range(b) for b in bounds)):
        if not any(mono_divides(lm, expo) for lm in lms):
            std.append(expo)
    std.sort(key=degrevlex_key)
    return QuotientReport(len(std), tuple(std))


def _require_in_max_ideal(f: Poly, who: str):
    if f.constant_term():
        raise ValueError("%s requires an input without constant term" % who)


def jacobian_ideal_gens(f: Poly) -> list:
    return [p for p in (f.partial(i) for i in range(f.ring.nvars)) if not p.is_zero()]


def tjurina_ideal_gens(f: Poly) -> list:
    gens = [] if f.is_zero() else [f]
    gens.extend(jacobian_ideal_gens(f))
    return gens


def milnor(f: Poly):
    """dim_K K[[x]]/<partials of f>; INFINITY when not an isolated singularity."""
    _require_in_max_ideal(f, "milnor")
    gens = jacobian_ideal_gens(f)
    if not gens:
        return INFINITY
    return vdim(std_basis(gens, LOCAL)).dimension


def tjurina(f: Poly):
    """dim_K K[[x]]/<f and its partials>."""
    _require_in_max_ideal(f, "tjurina")
    gens = tjurina_ideal_gens(f)
    if not gens:
        return INFINITY
    return vdim(std_basis(gens, LOCAL)).dimension


def min_power_containment(sb: StandardBasis):
    """Smallest k with m^k inside the ideal; INFINITY if there is none.

    Read off the standard monomials: k is one more than their largest
    degree, and 0 when there are none (the unit ideal).  If m^k lies in I,
    every monomial of degree >= k is a leading monomial of I, so no
    standard monomial reaches degree k.  Conversely, let every standard
    monomial have degree < k.  The local order is degree-compatible (lower
    degree ranks higher), so for a nonzero combination h of standard
    monomials and any r in m^k, h - r leads with a standard monomial and is
    not in I: the standard monomials stay independent modulo I + m^k.  So
    dim K[[x]]/(I + m^k) = dim K[[x]]/I, and m^k lies in I.
    """
    if not sb.ordering.is_local:
        raise ValueError("min_power_containment needs a local standard basis")
    report = vdim(sb)
    if report.dimension == INFINITY:
        return INFINITY
    return max((sum(m) + 1 for m in report.standard_monomials), default=0)


# -- global-order machinery for saturation -------------------------------------


def _with_tag_variable(ring: Ring) -> Ring:
    tag = "t_"
    while tag in ring.names:
        tag += "_"
    return Ring(ring.char, ring.names + (tag,))


def _elim_key(m: Mono):
    # tag variable sits in the last slot and dominates; degrevlex below
    return (m[-1], degrevlex_key(m[:-1]))


def _lift(ring_t: Ring, f: Poly, tag_exp: int) -> Poly:
    return Poly(ring_t, {m + (tag_exp,): c for m, c in f.terms.items()})


def _drop_tag(ring: Ring, f: Poly) -> Poly:
    return Poly(ring, {m[:-1]: c for m, c in f.terms.items()})


def saturate(gens: Iterable, g: Poly) -> list:
    """Generators of I : g^infinity, by the Rabinowitsch elimination.

    I : g^infinity = (I + <1 - t*g>) meet K[x] for a new variable t.  One
    Groebner basis of the lifted generators and 1 - t*g under an
    elimination order for t (t-degree first, degrevlex below) gives it:
    the t-free basis elements generate the intersection and form a
    degrevlex Groebner basis of it.  They are returned monic, minimalized
    and sorted by leading monomial, as `std_basis(..., GLOBAL)` would.
    Works in the polynomial ring, not the local ring.
    """
    if g.is_zero():
        raise ValueError("cannot saturate by zero")
    gens = [p for p in gens if not p.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    ring_t = _with_tag_variable(ring)
    lifted = [_lift(ring_t, p, 0) for p in gens]
    lifted.append(ring_t.one() - _lift(ring_t, g, 1))
    basis = _buchberger(lifted, _elim_key)
    free = [_drop_tag(ring, b) for b in basis if all(m[-1] == 0 for m in b.terms)]
    return [p for _, p in _minimalize(free, degrevlex_key)]


# -- brute-force oracle ---------------------------------------------------------


@cache
def _simplex(nvars: int):
    """The degree polytope: its valuation is the total degree."""
    return cpolytope_from_weights([(1,) * nvars])


def _degree_dims(gens: list, dmax: int) -> list:
    """Level dimensions 0..dmax of K[[x]]/I under the degree filtration."""
    ring = gens[0].ring
    return _filtered_dims(_simplex(ring.nvars), ring, gens, dmax)


def bruteforce_local_dim(gens: list, cutoff: int) -> int:
    """dim_K K[[x]]/(I + m^cutoff), summed over the degree levels below cutoff
    of one truncated echelon: plain linear algebra, no standard bases."""
    return sum(_degree_dims(gens, cutoff - 1))


def _first_zero_level(gens: list, start: int, cap: int):
    """(d, count): the first degree d with dims[d] == 0, and the count below it.

    An echelon truncated below degree D gives dims[d] = dim (I + m^d)/(I +
    m^(d+1)) for every d < D, and the count dims[0] + ... + dims[d-1] is
    dim K[[x]]/(I + m^d), a lower bound for dim K[[x]]/I.  At the first d
    with dims[d] == 0, m^d lies in I + m^(d+1) = I + m * m^d, so m^d lies in
    I by Nakayama and the count below d is exact.  Until then each degree
    adds at least 1, so when all of dims[0..D-1] are nonzero and the count
    is still at most cap, the truncation min(2D, D + cap + 1 - count)
    reaches a decision or grows again.  The first truncation is start; None
    once the count passes cap.
    """
    top = start
    while True:
        count = 0
        for d, dim in enumerate(_degree_dims(gens, top - 1)):
            if not dim:
                return d, count
            count += dim
            if count > cap:
                return None
        top = min(2 * top, top + cap + 1 - count)


def bruteforce_vdim(gens: list, cap: int):
    """Quotient dimension read off truncated echelons; INFINITY past cap.

    The count below the first zero level of the degree echelon, from
    truncation 2 on (see `_first_zero_level`); a count past cap gives
    INFINITY.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return INFINITY
    stop = _first_zero_level(gens, 2, cap)
    return INFINITY if stop is None else stop[1]
