"""Structural classifiers: quasihomogeneity, semi-quasihomogeneity,
inner non-degeneracy, and the characteristic-zero Milnor==Tjurina test.

Inner non-degeneracy is decided ideal-theoretically: along every inner
face, for every coordinate zero-pattern the face meets, the partials of
the face-initial form with those variables set to zero may not have a
common zero with the remaining coordinates nonzero.  The saturation form
of that test is insensitive to field extension, so verdicts are valid
over the algebraic closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from possing.localalg import (
    bruteforce_vdim,
    jacobian_ideal_gens,
    local_dimension,
    milnor,
    saturate,
    tjurina,
    tjurina_ideal_gens,
)
from possing.newton import (
    CPolytope,
    _dot,
    _independent,
    _primitive,
    _region_vertices,
    face_initial_form,
    inner_faces,
    weighted_initial_form,
)
from possing.poly import INFINITY, Poly, Ring


@dataclass(frozen=True)
class QHType:
    """Certificate of quasihomogeneity: positive weights of gcd 1 and degree."""

    weights: tuple
    degree: int


_SEARCH_CAP = 120  # L1 cap for the minimal-weight search; past it the ray sum wins


def detect_qh(f: Poly) -> Optional[QHType]:
    """Weights putting the whole support on one positive hyperplane, if any.

    Among valid integer weight vectors (gcd 1) the one of least L1 norm is
    returned, ties broken lexicographically.

    The valid weights are the positive points of the cone C of w >= 0 with
    p . w equal on the support; C lies in the orthant, so its extreme rays
    generate it, and f is quasihomogeneous exactly when their sum is
    positive.  An extreme ray r with p . r = d > 0 gives the vertex r / d of
    the face of D = {w >= 0 : p . w >= 1 on the support} where every p is
    tight, and these are the vertices of D with every p tight; a linearly
    independent B spanning the support has the same ones, as the tight rows
    of D and of B's dual region span the same space there.  An extreme ray
    with p . r = 0 lives on the variables no p uses: a unit vector e_i.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    support = sorted(f.support())
    n = f.ring.nvars
    basis = _independent(support)
    rays = [
        _primitive(v)
        for v in _region_vertices(basis, n)
        if all(_dot(p, v) == 1 for p in support)
    ]
    rays += [tuple(int(j == i) for j in range(n)) for i in range(n)
             if not any(p[i] for p in support)]
    summed = tuple(sum(col) for col in zip(*rays))
    if not rays or any(c <= 0 for c in summed):
        return None
    w0 = _primitive(summed)
    # w0 is valid, so the least valid weights have L1 norm at most sum(w0)
    totals = range(n, sum(w0) + 1) if sum(w0) <= _SEARCH_CAP else ()
    w = next(
        (w for total in totals for w in _compositions(total, n)
         if len({_dot(w, p) for p in support}) == 1),
        w0,
    )
    return QHType(weights=w, degree=_dot(w, support[0]))


def _compositions(total: int, n: int):
    """Positive integer n-vectors of sum total, in lexicographic order."""
    if n == 1:
        yield (total,)
        return
    for first in range(1, total - n + 2):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class SQHReport:
    """Semi-quasihomogeneity of f along one weight vector."""

    mode: str  # "right" | "contact"
    weights: tuple
    degree: int  # weighted degree of the principal part
    principal_part: Poly
    principal_invariant: object  # Milnor resp. Tjurina number of the principal part
    semi: bool
    product_formula: Optional[int] = None  # prod(d/w_i - 1) in right mode
    formula_consistent: Optional[bool] = None


def sqh_check(f: Poly, w, mode: str) -> SQHReport:
    """Is f semi-quasihomogeneous for w, in the right or contact sense?

    Right mode evaluates the product formula prod(d/w_i - 1); when the
    principal part has finite Milnor number the formula value equals it
    (and equals the Milnor number of f itself).
    """
    w = tuple(int(c) for c in w)
    if any(c <= 0 for c in w):
        raise ValueError("weights must be positive")
    principal = weighted_initial_form(f, w)
    degree = min(sum(a * b for a, b in zip(w, m)) for m in principal.terms)
    inv = local_dimension(principal, mode)
    formula = consistent = None
    if mode == "right" and inv != INFINITY:
        value = Fraction(1)
        for wi in w:
            value *= Fraction(degree, wi) - 1
        formula = int(value) if value.denominator == 1 else None
        consistent = formula == inv
    return SQHReport(
        mode=mode,
        weights=w,
        degree=degree,
        principal_part=principal,
        principal_invariant=inv,
        semi=inv != INFINITY,
        product_formula=formula,
        formula_consistent=consistent,
    )


@dataclass(frozen=True)
class FaceCheck:
    face_vertices: tuple
    zero_pattern: tuple  # variable indices set to zero
    passed: bool


@dataclass(frozen=True)
class INNDReport:
    nondegenerate: bool
    checks: tuple  # FaceCheck per (inner face, pattern)
    failing: Optional[FaceCheck] = None


def _restrict_ring(ring: Ring, kept: list) -> Ring:
    return Ring(ring.char, tuple(ring.names[i] for i in kept))


def _substitute_zeros(p: Poly, ring_sub: Ring, kept: list, zeros: set) -> Poly:
    acc = []
    for m, c in p.terms.items():
        if any(m[i] for i in zeros):
            continue
        acc.append((tuple(m[i] for i in kept), c))
    return ring_sub.poly(acc)


def innd_check(f: Poly, P: CPolytope) -> INNDReport:
    """Inner non-degeneracy of f with respect to P.

    For every inner face and every zero-pattern its vertices meet, the
    substituted partials of the face-initial form must generate, after
    saturation by the product of the surviving variables, the unit ideal.
    """
    if f.is_zero() or f.constant_term():
        raise ValueError("need a nonzero f without constant term")
    ring = f.ring
    n = ring.nvars
    checks = []
    failing = None
    for face in inner_faces(P):
        in_face = face_initial_form(P, face, f)
        partials = [in_face.partial(i) for i in range(n)]
        patterns = set()
        for v in face.vertices:
            zero_set = tuple(i for i in range(n) if v[i] == 0)
            for r in range(len(zero_set) + 1):
                for sub in combinations(zero_set, r):
                    patterns.add(sub)
        for pattern in sorted(patterns):
            zeros = set(pattern)
            kept = [i for i in range(n) if i not in zeros]
            ring_sub = _restrict_ring(ring, kept)
            gens = [
                q
                for q in (_substitute_zeros(p, ring_sub, kept, zeros) for p in partials)
                if not q.is_zero()
            ]
            if not gens:
                ok = False
            else:
                prod = ring_sub.one()
                for i in range(len(kept)):
                    prod = prod * ring_sub.var(i)
                # a monic minimal Groebner basis of the unit ideal is [1]
                ok = saturate(gens, prod) == [ring_sub.one()]
            check = FaceCheck(
                face_vertices=tuple(tuple(str(c) for c in v) for v in face.vertices),
                zero_pattern=pattern,
                passed=ok,
            )
            checks.append(check)
            if not ok and failing is None:
                failing = check
    return INNDReport(
        nondegenerate=failing is None, checks=tuple(checks), failing=failing
    )


def saito_check(f: Poly) -> bool:
    """Characteristic zero only: does the Milnor number equal the Tjurina number?

    mu == tau exactly when f lies in its Jacobian ideal J in K[[x]].  J lies
    in J + <f>, and both have finite colength (mu is finite and tau <= mu),
    so mu = tau + dim (J + <f>)/J.  Hence mu == tau exactly when
    (J + <f>)/J is zero, that is, when f lies in J.

    Both numbers are cross-checked against the truncated degree echelon,
    which uses no standard basis.  Capping it at mu refuses neither value,
    because tau <= mu; a disagreement is an AssertionError.
    """
    if f.ring.char != 0:
        raise ValueError("the Milnor==Tjurina criterion is a characteristic-zero test")
    mu = milnor(f)
    if mu == INFINITY:
        raise ValueError("requires an isolated singularity (finite Milnor number)")
    tau = tjurina(f)
    oracle = (
        bruteforce_vdim(jacobian_ideal_gens(f), mu),
        bruteforce_vdim(tjurina_ideal_gens(f), mu),
    )
    if oracle != (mu, tau):
        raise AssertionError("standard-basis and echelon colengths disagree")
    return mu == tau
