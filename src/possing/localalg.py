"""Local standard bases and ideal-theoretic primitives.

Standard bases under the local degree order are completed by Lazard's
homogenization: Buchberger runs on the homogenized generators under a
degree-first order whose tie-break is the local order of the x-part, and
the result dehomogenizes to a standard basis.  The one thing read off it is
the colength of the ideal in the formal power series ring, which gives the
Milnor and Tjurina numbers.  The choice between the two, by the mode
'right' or 'contact', is made here and nowhere else (`mode_ideal_gens`).
Saturation (used by the inner non-degeneracy test) is one global
Buchberger run that eliminates the Rabinowitsch variable; no monomial
order can refine a multi-facet piecewise degree, so nothing here is used
for the graded algebras themselves.

Both run the one completion loop `_buchberger`, specialised to its field
like the echelon: it reduces plain term dicts in place, with residues and
`% p` over F_p and `Fraction` operators over Q, and builds Polys only on
return.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Iterable

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
class StandardBasis:
    """Local standard basis with its leading monomials."""

    generators: tuple  # monic Poly, minimalized
    leading_monomials: tuple  # one Mono per generator

    @property
    def ring(self) -> Ring:
        return self.generators[0].ring


def _buchberger(gens: list, key) -> list:
    """Completion loop; normal selection with the product criterion.

    `key` maps a monomial to a flat tuple of ints whose maximum marks the
    leading monomial.  The loop works on plain term dicts specialised to the
    field, and builds Polys only on return, as (leading monomial, monic
    Poly) pairs.  Each basis element is kept monic, as its leading monomial
    and a list of tail terms.  Over F_p the
    coefficients are residues in [0, p) combined inline with `% p`; over Q
    they are `Fraction`s combined with the plain operators.

    Selection: the next pair has the lowest degree of its lcm, and among
    ties the newest pair, the one inserted last.  Pairs sit in a heap keyed
    by (lcm degree, minus insertion counter), each lcm computed once.  This
    is the rule of re-sorting the pair list by decreasing lcm degree and
    popping its end: that sort is stable and pairs are appended in
    insertion order, so among equal degrees the list end is the newest
    pair.  Pairs with coprime leading monomials are never inserted, since
    their s-polynomials reduce to zero (the product criterion); no other
    criterion is applied.

    Remainders are top-reduced: each step cancels the leading term with
    the first basis element whose leading monomial divides it, and stops
    when none does.  The leading monomial strictly falls, so this
    terminates under the well-orders used here.  It is read off a heap of
    negated keys (ascending there is descending in the order), each
    computed once per monomial per call.  Every term of the remainder has
    an entry, pushed when the term appears, and a step adds only terms
    below the monomial it clears; so the first popped monomial still
    present is the leading one, and an entry whose monomial has cancelled
    is skipped.

    The first divisor of each monomial is remembered for the whole call:
    its index once found, or else the number of elements already tried, as
    that number's bitwise complement.  The basis only grows at its end, so
    a first divisor once found stays the first, and a miss resumes its
    scan at the first element not yet tried: the reducer is the one a scan
    from index 0 would pick, and the basis is the same.
    """
    ring = gens[0].ring
    p = ring.char
    ranks: dict = {}  # monomial -> negated key
    first: dict = {}  # monomial -> index of its first divisor, or ~elements tried
    lms: list = []  # leading monomial of each basis element
    tails: list = []  # its other terms, as (monomial, coefficient) pairs
    pairs: list = []  # heap of (lcm degree, -insertion counter, lcm, i, j)
    counter = count()

    def rank(m):
        r = ranks.get(m)
        if r is None:
            r = ranks[m] = tuple([-e for e in key(m)])
        return r

    def append(h: dict, lm_h) -> None:
        """Append h, made monic at lm_h (popped from h)."""
        inv = ring.cinv(h.pop(lm_h))
        if p:
            tails.append([(m, v * inv % p) for m, v in h.items()])
        else:
            tails.append([(m, v * inv) for m, v in h.items()])
        lms.append(lm_h)

    def queue(i: int, j: int) -> None:
        lcm = mono_lcm(lms[i], lms[j])
        if lcm != mono_mul(lms[i], lms[j]):  # else the product criterion drops it
            heappush(pairs, (sum(lcm), -next(counter), lcm, i, j))

    def top_reduce(h: dict):
        """Top-reduce h in place; its leading monomial, None once h is 0."""
        heap = [(rank(m), m) for m in h]
        heapify(heap)
        while heap:
            lm_h = heappop(heap)[1]
            c = h.get(lm_h)
            if c is None:
                continue
            k = first.get(lm_h, -1)
            if k < 0:  # none among the first ~k elements; scan the rest
                for k in range(~k, len(lms)):
                    if mono_divides(lms[k], lm_h):
                        break
                else:
                    first[lm_h] = ~len(lms)
                    return lm_h
                first[lm_h] = k
            del h[lm_h]
            shift = mono_div(lm_h, lms[k])
            if p:
                neg = p - c
                for m, v in tails[k]:
                    m = mono_mul(m, shift)
                    old = h.get(m)
                    if old is None:
                        h[m] = neg * v % p
                        heappush(heap, (rank(m), m))
                    else:
                        old = (old + neg * v) % p
                        if old:
                            h[m] = old
                        else:
                            del h[m]
            else:
                neg = -c
                for m, v in tails[k]:
                    m = mono_mul(m, shift)
                    old = h.get(m)
                    if old is None:
                        h[m] = neg * v
                        heappush(heap, (rank(m), m))
                    else:
                        old += neg * v
                        if old:
                            h[m] = old
                        else:
                            del h[m]
        return None

    for g in gens:
        if g.terms:
            append(dict(g.terms), min(g.terms, key=rank))
    for i in range(len(lms)):
        for j in range(i + 1, len(lms)):
            queue(i, j)
    while pairs:
        _, _, lcm, i, j = heappop(pairs)
        shift = mono_div(lcm, lms[i])
        h = {mono_mul(m, shift): v for m, v in tails[i]}
        shift = mono_div(lcm, lms[j])
        for m, v in tails[j]:
            m = mono_mul(m, shift)
            old = h.get(m)
            if old is None:
                h[m] = p - v if p else -v
            else:
                old = (old - v) % p if p else old - v
                if old:
                    h[m] = old
                else:
                    del h[m]
        lm_h = top_reduce(h) if h else None
        if lm_h is not None:
            append(h, lm_h)
            new = len(lms) - 1
            for k in range(new):
                queue(k, new)
    one = ring.coeff(1)
    return [(lm, Poly(ring, dict([(lm, one), *tail]))) for lm, tail in zip(lms, tails)]


def _minimalize(basis: list) -> list:
    """The (leading monomial, element) pairs whose leading monomial no other
    one divides, the first of equal ones kept, sorted by degrevlex."""
    kept = [(lm, g) for i, (lm, g) in enumerate(basis)
            if not any(mono_divides(other, lm) and (other != lm or j < i)
                       for j, (other, _) in enumerate(basis) if j != i)]
    kept.sort(key=lambda pair: degrevlex_key(pair[0]))
    return kept


def _homog_key(m: Mono):
    """Global order on the homogenizing ring: total degree, then the local
    order of the x-part.  The homogenizing variable sits in the last slot.
    Leading terms of homogenized polynomials dehomogenize to local leading
    terms, so Groebner bases here dehomogenize to standard bases.  The key
    is flat, as `_buchberger` takes it."""
    order, tie = local_key(m[:-1])
    return (sum(m), order, *tie)


def _homogenize(ring_t: Ring, f: Poly) -> Poly:
    d = f.degree()
    return Poly(ring_t, {m + (d - sum(m),): c for m, c in f.terms.items()})


def std_basis(gens: Iterable) -> StandardBasis:
    """Standard basis under the local degree order, by Lazard's method.

    A Groebner basis of the homogenized generators under a degree-first
    order whose tie-break is the local order of the x-part dehomogenizes to
    a standard basis.  That route terminates structurally, unlike naive
    Mora completion whose ecart strategy can blow up on tail-heavy input.

    Zero generators are dropped; at least one generator must be nonzero.
    The returned generators are monic with pairwise non-divisible leading
    monomials.

    Dehomogenizing is dropping the tag variable, and it keeps each leading
    monomial and its coefficient 1.  The lifted generators are homogeneous,
    and so is every s-polynomial and remainder of homogeneous elements
    under a degree-first order, so every basis element is homogeneous, of
    some degree d.  Its terms x^a t^(d-|a|) are then told apart by their
    x-parts, so no two merge, and under `_homog_key` they compare by the
    local order of the x-part: the leading term dehomogenizes to the local
    leading term.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise RingError("mixed ring contexts")
    ring_t = _with_tag_variable(ring)
    lifted = [_homogenize(ring_t, g) for g in gens]
    kept = _minimalize([(lm[:-1], _drop_tag(ring, h))
                        for lm, h in _buchberger(lifted, _homog_key)])
    return StandardBasis(
        generators=tuple(g for _, g in kept),
        leading_monomials=tuple(lm for lm, _ in kept),
    )


def vdim(sb: StandardBasis):
    """Dimension of the local quotient ring: the number of standard monomials.

    INFINITY exactly when some variable has no pure power among the leading
    monomials (detected exactly, no timeout heuristics).
    """
    lms = sb.leading_monomials
    for i in range(sb.ring.nvars):
        if not any(all(e == 0 for j, e in enumerate(m) if j != i) for m in lms):
            return INFINITY
    return _standard_count(lms)


def _standard_count(lms) -> int:
    """The number of monomials no member of lms divides, where lms holds a
    pure power of each variable, counted by slices of fixed last exponent.

    The monomials with last exponent k are standard exactly when their
    other exponents are standard for the members with last exponent at
    most k.  That set changes only at those members' last exponents, the
    first of which is 0, and from the least pure power of the last
    variable on it holds 1, so no slice there has a standard monomial.
    """
    if len(lms[0]) == 1:
        return min(m[0] for m in lms)
    top = min(m[-1] for m in lms if not any(m[:-1]))
    cuts = sorted({m[-1] for m in lms if m[-1] <= top})
    return sum((hi - lo) * _standard_count([m[:-1] for m in lms if m[-1] <= lo])
               for lo, hi in zip(cuts, cuts[1:]))


def jacobian_ideal_gens(f: Poly) -> list:
    return [p for p in (f.partial(i) for i in range(f.ring.nvars)) if not p.is_zero()]


def tjurina_ideal_gens(f: Poly) -> list:
    gens = [] if f.is_zero() else [f]
    gens.extend(jacobian_ideal_gens(f))
    return gens


def mode_ideal_gens(f: Poly, mode: str) -> list:
    """Generators of the ideal of an equivalence: the Jacobian ideal for
    'right', the Tjurina ideal for 'contact'.

    The package's one mode check: any other mode raises ValueError.
    """
    if mode == "right":
        return jacobian_ideal_gens(f)
    if mode == "contact":
        return tjurina_ideal_gens(f)
    raise ValueError("mode must be 'right' or 'contact'")


def local_dimension(f: Poly, mode: str):
    """Colength of the ideal of mode in K[[x]] (see `mode_ideal_gens`): the
    Milnor number for 'right', the Tjurina number for 'contact'.

    The package's one caller of `std_basis`; the value is remembered on f,
    per mode.  A generator with a nonzero constant term is a unit of K[[x]],
    so the ideal is the whole ring, of colength 0 with no basis needed.
    """
    memo = f._local_dims
    if memo is None:
        memo = f._local_dims = {}
    if mode not in memo:
        gens = mode_ideal_gens(f, mode)
        if f.constant_term():
            raise ValueError("%s requires an input without constant term"
                             % ("milnor" if mode == "right" else "tjurina"))
        if not gens:
            memo[mode] = INFINITY
        elif any(g.constant_term() for g in gens):
            memo[mode] = 0
        else:
            memo[mode] = vdim(std_basis(gens))
    return memo[mode]


def milnor(f: Poly):
    """dim_K K[[x]]/<partials of f>; INFINITY when not an isolated singularity."""
    return local_dimension(f, "right")


def tjurina(f: Poly):
    """dim_K K[[x]]/<f and its partials>."""
    return local_dimension(f, "contact")


# -- global-order machinery for saturation -------------------------------------


def _with_tag_variable(ring: Ring) -> Ring:
    tag = "t_"
    while tag in ring.names:
        tag += "_"
    return Ring(ring.char, ring.names + (tag,))


def _elim_key(m: Mono):
    # tag variable sits in the last slot and dominates; degrevlex below,
    # flattened as `_buchberger` takes flat keys
    degree, tie = degrevlex_key(m[:-1])
    return (m[-1], degree, *tie)


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
    and sorted by leading monomial: with g = 1 this is a minimal degrevlex
    Groebner basis of the ideal itself.  Works in the polynomial ring, not
    the local ring.

    Under the elimination order an element's leading monomial has its
    largest t-degree, so the element is free of t exactly when its leading
    monomial is: the test reads lm[-1] alone.
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
    free = [(lm[:-1], _drop_tag(ring, b)) for lm, b in _buchberger(lifted, _elim_key)
            if not lm[-1]]
    return [p for _, p in _minimalize(free)]


# -- brute-force oracle ---------------------------------------------------------


@cache
def _simplex(nvars: int):
    """The degree polytope: its valuation is the total degree."""
    return cpolytope_from_weights([(1,) * nvars])


def _degree_dims(gens: list, dmax: int) -> list:
    """Level dimensions 0..dmax of K[[x]]/I under the degree filtration,
    for I generated by the (g, k) pairs of gens, each standing for m^k * g."""
    ring = gens[0][0].ring
    return _filtered_dims(_simplex(ring.nvars), ring, gens, dmax)


def bruteforce_local_dim(gens: list, cutoff: int) -> int:
    """dim_K K[[x]]/(I + m^cutoff), summed over the degree levels below cutoff
    of one truncated echelon: plain linear algebra, no standard bases."""
    return sum(_degree_dims([(g, 0) for g in gens], cutoff - 1))


def _first_zero_level(gens: list, start: int, cap: int):
    """(d, count): the first degree d with dims[d] == 0, and the count below it.

    An echelon of the (g, k) pairs of `_degree_dims` truncated below degree
    D gives dims[d] = dim (I + m^d)/(I + m^(d+1)) for every d < D, and the
    count dims[0] + ... + dims[d-1] is dim K[[x]]/(I + m^d), a lower bound
    for dim K[[x]]/I.  At the first d with dims[d] == 0, m^d lies in I +
    m^(d+1) = I + m * m^d, so m^d lies in I by Nakayama and the count below
    d is exact.  Until then each degree
    adds at least 1, so when all of dims[0..D-1] are nonzero and the count
    is still at most cap, the truncation min(D + max(1, D // 2), D + cap +
    1 - count) reaches a decision or grows again.  It grows by half rather
    than doubling: an echelon's cost rises steeply with its levels, and
    doubling can pass the zero level by nearly twice.  The first truncation
    is start; None once the count passes cap.
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
        top = min(top + max(1, top // 2), top + cap + 1 - count)


def bruteforce_vdim(gens: list, cap: int):
    """Quotient dimension read off truncated echelons; INFINITY past cap.

    The count below the first zero level of the degree echelon, from
    truncation 2 on (see `_first_zero_level`); a count past cap gives
    INFINITY.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return INFINITY
    stop = _first_zero_level([(g, 0) for g in gens], 2, cap)
    return INFINITY if stop is None else stop[1]
