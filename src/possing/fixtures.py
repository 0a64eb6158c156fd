"""Built-in verification fixtures.

Each criterion function returns a list of CheckResult; run_all drives them
and is shared by the CLI selftest and the pytest acceptance module.

The randomized property suites of criterion 9 run through one driver,
_property: a suite states its property once, as a trial on a seeded
generator, and the driver counts the draws and stops at the first failure.
A suite takes its case count, so the selftest runs a reduced sampling
(SELFTEST_CASES) while the test suite runs the full size.  Only a named
refusal (PolytopeError, NormalFormRefusal) skips a draw; any other error
propagates.  The two normal-form suites draw from one pool of principal
parts, built once per process.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, List, Optional, TextIO

from possing.grading import (
    GradedAlgebra,
    check_condition,
    plain_graded_dims,
    regular_basis,
)
from possing.localalg import (
    INFINITY,
    bruteforce_vdim,
    jacobian_ideal_gens,
    milnor,
    tjurina,
)
from possing.newton import (
    CPolytope,
    PolytopeError,
    cpolytope_from_poly,
    cpolytope_from_weights,
    initial_form,
    valuation_poly,
)
from possing.nondeg import detect_qh, innd_check, sqh_check, weighted_initial_form
from possing.normalform import (
    NormalFormRefusal,
    determinacy_filtered,
    determinacy_generic,
    normal_form,
    replay_matches,
)
from possing.poly import Poly, Ring, _mono_str, poly_from_string, poly_to_string


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str = ""


def _check(out: list, criterion: int, name: str, passed: bool, detail: str = ""):
    out.append(CheckResult(criterion, name, bool(passed), detail))


def _ring(char: int, names=("x", "y")) -> Ring:
    return Ring(char, names)


# -- criterion 1: plane quartic-quintic over F_2 ---------------------------------


def checks_criterion_1() -> List[CheckResult]:
    out: list = []
    R = _ring(2)
    f = poly_from_string(R, "x^5+x^2*y^2+y^4")
    P = cpolytope_from_poly(f)
    tau = tjurina(f)
    _check(out, 1, "tau = 16", tau == 16, "tau=%s" % tau)
    rep = check_condition(P, f, "contact", strict=False)
    _check(out, 1, "contact graded finiteness fails", not rep.holds)
    witness = rep.basis.witness_ray.direction if rep.basis.witness_ray else None
    _check(out, 1, "witness ray is the y-axis", witness == (0, 1), "witness=%s" % (witness,))
    alg = rep.basis.algebra
    for n in (4, 5, 6):
        survives = not alg.vanishes((0, 4 * n), use_cone=False)
        _check(out, 1, "y^%d survives in the graded algebra" % (4 * n), survives)
    return out


# -- criterion 2: the space singularity over F_2 ----------------------------------


Q10_BASIS = [
    "1", "x", "y", "z", "x*y", "x*z", "y*z", "z^2",
    "x*y*z", "x*z^2", "y*z^2", "z^3", "x*y*z^2", "x*z^3", "y*z^3", "x*y*z^3",
]


def checks_criterion_2() -> List[CheckResult]:
    out: list = []
    R = Ring(2, ("x", "y", "z"))
    f = poly_from_string(R, "x^2*z+y^3+z^4")
    P = cpolytope_from_weights(
        [(Fraction(9, 24), Fraction(8, 24), Fraction(6, 24))]
    )
    _check(out, 2, "scaled weights are (9,8,6)", P.weights == ((9, 8, 6),), str(P.weights))
    vf = valuation_poly(P, f)
    _check(out, 2, "valuation of f is 24", vf == 24, "v=%s" % vf)
    rb = regular_basis(P, f, "contact")
    got = sorted(_mono_str(R.names, m) for m in rb.monomials())
    want = sorted(Q10_BASIS)
    _check(out, 2, "regular basis is the 16 listed monomials", got == want,
           "got=%s" % got)
    _check(out, 2, "max basis valuation is 35", rb.max_valuation() == 35,
           str(rb.max_valuation()))
    det = determinacy_filtered(f, rb)
    _check(out, 2, "filtered contact determinacy is 5", det.filtered_bound == 5,
           "k=%s" % det.filtered_bound)
    return out


# -- criterion 3: the bimodal curve over F_3 ---------------------------------------


E33_BASIS = (
    ["1"]
    + ["x" if k == 1 else "x^%d" % k for k in range(1, 13)]
    + ["y", "x*y", "x^2*y", "y^2", "x*y^2", "x^2*y^2", "x*y^3", "x^2*y^3", "x^2*y^4"]
)


def checks_criterion_3() -> List[CheckResult]:
    out: list = []
    R = _ring(3)
    f = poly_from_string(R, "x^12+x^3*y^2+y^3")
    P = cpolytope_from_poly(f)
    exact = check_condition(P, f, "contact", strict=True)
    tau, rb = exact.local_dimension, exact.basis
    _check(out, 3, "tau = 21", tau == 21, "tau=%s" % tau)
    _check(out, 3, "graded dimension 22", rb.dimension == 22, str(rb.dimension))
    got = sorted(_mono_str(R.names, m) for m in rb.monomials())
    _check(out, 3, "regular basis is the 22 listed monomials",
           got == sorted(E33_BASIS), "got=%s" % got)
    _check(out, 3, "contact graded finiteness holds", rb.finite)
    _check(out, 3, "contact graded exactness fails", not exact.holds,
           "dim=%s tau=%s" % (rb.dimension, tau))
    g = f + poly_from_string(R, "x*y^3+2*x^2*y^4+x^10*y")
    nf = normal_form(P, g, "contact")
    allowed = {(1, 3), (2, 3), (2, 4)}
    _check(out, 3, "normal-form tail within {xy^3, x^2y^3, x^2y^4}",
           set(nf.tail_support()) <= allowed, str(nf.tail_support()))
    det = determinacy_filtered(g, rb)
    _check(out, 3, "filtered determinacy 18", det.filtered_bound == 18,
           "k=%s" % det.filtered_bound)
    generic = determinacy_generic(f, "contact")
    _check(out, 3, "generic bound 41", generic == 41, str(generic))
    return out


# -- criterion 4: the two-term family ----------------------------------------------


def _tpq(p: int, q: int, char: int) -> Poly:
    R = _ring(char)
    return R.poly([((p, 0), 1), ((2, 2), 1), ((0, q), 1)])


def _expected_tau(p, q, char):
    if char and (p * q - 2 * (p + q)) % char == 0:
        return p + q + 1
    return p + q


def checks_criterion_4() -> List[CheckResult]:
    out: list = []
    cases = {
        (4, 5): [0, 5, 2],
        (5, 6): [0, 5, 3, 2],
        (5, 7): [0, 5, 7, 11, 2],
    }
    for (p, q), chars in cases.items():
        for char in chars:
            f = _tpq(p, q, char)
            label = "T_%d,%d char %d" % (p, q, char)
            mu = milnor(f)
            tau = tjurina(f)
            if char == 2:
                oracle = bruteforce_vdim(jacobian_ideal_gens(f), 2 * (p + q) + 10)
                _check(out, 4, label + ": Milnor number matches the brute-force oracle",
                       mu == oracle, "mu=%s oracle=%s" % (mu, oracle))
                oracle_tau = bruteforce_vdim(
                    [f] + jacobian_ideal_gens(f), 2 * (p + q) + 10
                )
                _check(out, 4, label + ": Tjurina number matches the brute-force oracle",
                       tau == oracle_tau, "tau=%s oracle=%s" % (tau, oracle_tau))
                continue
            if char == 0 or (2 * p * q) % char:
                _check(out, 4, label + ": mu = p+q+1", mu == p + q + 1,
                       "mu=%s" % mu)
            else:
                _check(out, 4, label + ": mu infinite", mu == INFINITY, "mu=%s" % mu)
            expected_tau = _expected_tau(p, q, char)
            _check(out, 4, label + ": tau = %d" % expected_tau, tau == expected_tau,
                   "tau=%s" % tau)
            P = cpolytope_from_poly(f)
            rb = regular_basis(P, f, "contact")
            _check(out, 4, label + ": contact graded algebra finite", rb.finite)
            if rb.finite:
                det = determinacy_filtered(f, rb)
                _check(out, 4, label + ": contact determinacy max{p,q}",
                       det.filtered_bound == max(p, q), "k=%s" % det.filtered_bound)
                pert = f + f.ring.monomial((3, 3))
                assert valuation_poly(P, f.ring.monomial((3, 3))) > valuation_poly(P, f)
                nf = normal_form(P, pert, "contact")
                _check(out, 4, label + ": normal form equals the principal part",
                       not nf.tail and nf.polynomial() == f,
                       "tail=%s" % (nf.tail_support(),))
    return out


# -- criterion 5: the product formula ----------------------------------------------


def checks_criterion_5() -> List[CheckResult]:
    out: list = []
    R = Ring(0, ("x", "y", "z"))
    f = poly_from_string(R, "x^2*z+y^3+z^4")
    mu = milnor(f)
    formula = (Fraction(24, 9) - 1) * (Fraction(24, 8) - 1) * (Fraction(24, 6) - 1)
    _check(out, 5, "mu = 10", mu == 10, "mu=%s" % mu)
    _check(out, 5, "product formula gives 10", formula == 10, str(formula))
    rep = sqh_check(f, (9, 8, 6), "right")
    _check(out, 5, "product formula agrees with the principal Milnor number",
           rep.formula_consistent is True)
    rng = random.Random(110)
    w = (9, 8, 6)
    candidates = [
        m
        for m in (
            (a, b, c) for a in range(4) for b in range(4) for c in range(4)
        )
        if sum(x * y for x, y in zip(w, m)) > 24 and 0 < sum(m) <= 6
    ]
    failures = []
    cases = 20
    for _ in range(cases):
        pert = R.zero()
        for m in rng.sample(candidates, rng.randrange(1, 4)):
            pert = pert + R.monomial(m, rng.randrange(1, 5))
        g = f + pert
        if milnor(g) != 10:
            failures.append(poly_to_string(g))
    _check(out, 5, "Milnor number is 10 for %d perturbations" % cases,
           not failures, "; ".join(failures[:3]))
    return out


# -- criterion 6: the degree-seven curve over F_7 -----------------------------------


def checks_criterion_6() -> List[CheckResult]:
    out: list = []
    R = _ring(7)
    f = poly_from_string(R, "x^7+x^6*y+y^4")
    inw = weighted_initial_form(f, (4, 7))
    _check(out, 6, "principal part is x^7+y^4",
           inw == poly_from_string(R, "x^7+y^4"), poly_to_string(inw))
    vals = (tjurina(f), tjurina(inw), milnor(f), milnor(inw))
    _check(out, 6, "tau(f) = 17", vals[0] == 17, str(vals[0]))
    _check(out, 6, "tau of the principal part = 21", vals[1] == 21, str(vals[1]))
    _check(out, 6, "mu(f) = 21", vals[2] == 21, str(vals[2]))
    _check(out, 6, "mu of the principal part infinite", vals[3] == INFINITY, str(vals[3]))
    return out


# -- criterion 7: the three-variable cusp family ------------------------------------


def checks_criterion_7() -> List[CheckResult]:
    out: list = []
    w = [(Fraction(6, 18), Fraction(4, 18), Fraction(9, 18))]
    cases = [
        (0, 7, 4, frozenset()),
        (5, 7, 4, frozenset()),
        (3, 9, 4, frozenset({(2, 2, 0)})),
        (2, 14, 5, frozenset({(0, 3, 1), (0, 4, 1)})),
    ]
    perts = {
        0: "x^2*y^2+y^4*z",
        5: "x^2*y^2+y^4*z",
        3: "x^2*y^2+y^4*z",
        2: "y^3*z+y^4*z",
    }
    for char, tau_expected, k_expected, tail_expected in cases:
        R = Ring(char, ("x", "y", "z"))
        f = poly_from_string(R, "x^3+x*y^3+z^2")
        P = cpolytope_from_weights(w)
        label = "char %d" % char
        tau = tjurina(f)
        _check(out, 7, label + ": tau of the principal part = %d" % tau_expected,
               tau == tau_expected, "tau=%s" % tau)
        rb = regular_basis(P, f, "contact")
        det = determinacy_filtered(f, rb)
        _check(out, 7, label + ": filtered contact determinacy %d" % k_expected,
               det.filtered_bound == k_expected,
               "k=%s d=%s" % (det.filtered_bound, det.max_valuation))
        g = f + poly_from_string(R, perts[char])
        nf = normal_form(P, g, "contact")
        _check(out, 7, label + ": normal-form tail support as stated",
               frozenset(nf.tail_support()) == tail_expected,
               "tail=%s" % (nf.tail_support(),))
    return out


# -- criterion 8: the unimodal wave family ------------------------------------------


def checks_criterion_8() -> List[CheckResult]:
    out: list = []
    perts = {
        0: ("x^2*y^3+x^6*y", frozenset()),
        5: ("x^2*y^3+x^6*y", frozenset()),
        3: ("x*y^4+x^2*y^3+2*x^2*y^4+x^2*y^5",
            frozenset({(1, 4), (2, 3), (2, 4), (2, 5)})),
        2: ("x^6*y+x^5*y^3", frozenset({(6, 1)})),
    }
    for char, (pert, allowed) in perts.items():
        R = _ring(char)
        f = poly_from_string(R, "x^7+x^3*y^2+y^4")
        P = cpolytope_from_poly(f)
        g = f + poly_from_string(R, pert)
        label = "char %d" % char
        try:
            nf = normal_form(P, g, "contact")
        except NormalFormRefusal as exc:
            _check(out, 8, label + ": normal-form tail as stated", False,
                   "refused: %s (witness %s)" % (
                       exc, exc.witness.direction if exc.witness else None))
            continue
        got = frozenset(nf.tail_support())
        if char in (0, 5):
            _check(out, 8, label + ": normal-form tail empty", got == allowed,
                   "tail=%s" % (sorted(got),))
        else:
            _check(out, 8, label + ": normal-form tail within the stated set",
                   got <= allowed, "tail=%s" % (sorted(got),))
    return out


# -- criterion 9: randomized property suites ----------------------------------------


def _property(seed: int, cases: int, title: str, trial: Callable) -> CheckResult:
    """Run trial(rng) on one seeded generator until `cases` draws have counted.

    A trial returns None for a draw that does not count, "" for a pass, and
    otherwise the failure detail, which ends the run.
    """
    rng = random.Random(seed)
    done, bad = 0, ""
    while done < cases and not bad:
        detail = trial(rng)
        if detail is not None:
            done += 1
            bad = detail
    return CheckResult(9, "%s (%d cases)" % (title, done), not bad, bad)


def _random_ring(rng) -> Ring:
    return _ring(rng.choice([2, 3, 5, 7]))


def _random_weights(rng) -> CPolytope:
    k = rng.choice([1, 1, 2])
    return cpolytope_from_weights(
        [(Fraction(rng.randrange(1, 5)), Fraction(rng.randrange(1, 5))) for _ in range(k)]
    )


def _random_poly(rng, ring: Ring, maxdeg: int = 6, terms: int = 4) -> Poly:
    acc = []
    for _ in range(rng.randrange(1, terms + 1)):
        a = rng.randrange(0, maxdeg + 1)
        b = rng.randrange(0, maxdeg + 1 - a)
        if a + b == 0:
            continue
        c = rng.randrange(1, max(2, ring.char or 7))
        acc.append(((a, b), c))
    return ring.poly(acc)


def _random_convenient(rng, ring: Ring, maxdeg: int = 6) -> Poly:
    a = rng.randrange(2, maxdeg + 1)
    b = rng.randrange(2, maxdeg + 1)
    f = ring.monomial((a, 0)) + ring.monomial((0, b))
    return f + _random_poly(rng, ring, maxdeg=maxdeg, terms=3)


def suite_valuation_subadditivity(cases: int = 200) -> CheckResult:
    """v(fg) >= v(f)+v(g) with equality iff a common facet attains both."""

    def trial(rng):
        ring = _random_ring(rng)
        P = _random_weights(rng)
        f = _random_poly(rng, ring)
        g = _random_poly(rng, ring)
        if f.is_zero() or g.is_zero():
            return None
        vf, vg, vfg = valuation_poly(P, f), valuation_poly(P, g), valuation_poly(P, f * g)
        if vfg < vf + vg:
            return "subadditivity: %s, %s" % (poly_to_string(f), poly_to_string(g))
        att_f = {j for m in f.terms if P.value(m) == vf for j in P.attaining(m)}
        att_g = {j for m in g.terms if P.value(m) == vg for j in P.attaining(m)}
        equality = vfg == vf + vg
        criterion = bool(att_f & att_g)
        if equality != criterion:
            return "facet criterion: %s | %s (eq=%s crit=%s)" % (
                poly_to_string(f), poly_to_string(g), equality, criterion)
        return ""

    return _property(901, cases, "valuation subadditivity and facet criterion", trial)


def suite_plain_dims_match_tjurina(cases: int = 200) -> CheckResult:
    """Total plain graded dimension equals the Tjurina number."""

    def trial(rng):
        ring = _random_ring(rng)
        f = _random_convenient(rng, ring, maxdeg=5)
        tau = tjurina(f)
        if tau == INFINITY or tau > 14:
            return None
        P = _random_weights(rng)
        dmax = int(tau) * max(P.value((1, 0)), P.value((0, 1))) + 1
        dims = plain_graded_dims(P, f, "contact", dmax)
        if sum(dims) != tau:
            return "%s char %d: sum=%s tau=%s" % (
                poly_to_string(f), ring.char, sum(dims), tau)
        return ""

    return _property(902, cases, "plain graded dimension equals Tjurina number", trial)


def suite_tail_invariance(cases: int = 200) -> CheckResult:
    """Graded pieces only depend on the initial form (higher tails drop out)."""

    def trial(rng):
        ring = _random_ring(rng)
        f = _random_convenient(rng, ring, maxdeg=5)
        try:
            P = cpolytope_from_poly(f)
        except PolytopeError:
            return None
        fP = initial_form(P, f)
        vf = valuation_poly(P, fP)
        tail = _random_poly(rng, ring, maxdeg=6, terms=2)
        tail = tail.filter_terms(lambda m: P.value(m) > vf)
        if tail.is_zero():
            return None
        mode = rng.choice(["right", "contact"])
        a1 = GradedAlgebra(P, fP, mode)
        a2 = GradedAlgebra(P, fP + tail, mode)
        for d in sorted(rng.sample(range(0, 3 * vf + 1), 5)):
            if a1.piece(d).quotient_basis != a2.piece(d).quotient_basis:
                return "%s + %s char %d at degree %d" % (
                    poly_to_string(fP), poly_to_string(tail), ring.char, d)
        return ""

    return _property(903, cases, "graded pieces unchanged by higher-valuation tails", trial)


def suite_quasihomogeneous_mu_tau(cases: int = 200) -> CheckResult:
    """For quasihomogeneous f of order >= 3 (detected weights have gcd 1):
    finite Milnor number iff finite Tjurina number and characteristic not
    dividing the degree; then the numbers agree."""

    def trial(rng):
        ring = _random_ring(rng)
        char = ring.char
        w = (rng.randrange(1, 4), rng.randrange(1, 4))
        d = rng.randrange(6, 13)
        monos = [
            (a, b)
            for a in range(0, d + 1)
            for b in range(0, d + 1)
            if a * w[0] + b * w[1] == d and a + b >= 3
        ]
        acc = [(m, rng.randrange(1, char)) for m in monos if rng.random() < 0.7]
        f = ring.poly(acc)
        qh = None if f.is_zero() else detect_qh(f)
        if qh is None:
            return None
        mu, tau = milnor(f), tjurina(f)
        divides = qh.degree % char == 0
        lhs = mu != INFINITY
        rhs = tau != INFINITY and not divides
        if lhs != rhs or (lhs and mu != tau):
            return "%s char %d: mu=%s tau=%s char|d=%s" % (
                poly_to_string(f), char, mu, tau, divides)
        return ""

    return _property(904, cases, "quasihomogeneous Milnor/Tjurina dichotomy", trial)


def suite_innd_implies_finiteness(cases: int = 200) -> CheckResult:
    """Inner non-degenerate implies both graded finiteness conditions and
    tau <= mu < infinity."""

    def trial(rng):
        ring = _random_ring(rng)
        f = _random_convenient(rng, ring, maxdeg=5)
        try:
            P = cpolytope_from_poly(f)
        except PolytopeError:
            return None
        if not innd_check(f, P).nondegenerate:
            return None
        mu, tau = milnor(f), tjurina(f)
        right = check_condition(P, f, "right", strict=False)
        contact = check_condition(P, f, "contact", strict=False)
        if right.holds and contact.holds and tau <= mu < INFINITY:
            return ""
        return "%s char %d: mu=%s tau=%s right=%s contact=%s" % (
            poly_to_string(f), ring.char, mu, tau, right.holds, contact.holds)

    return _property(
        905, cases, "inner non-degeneracy forces graded finiteness and tau <= mu", trial)


@functools.cache
def _normal_form_pool() -> tuple:
    """The first 24 principal parts x^a + x^c*y^d + y^b over F_2, F_3, F_5, F_7
    with finite contact graded algebra, with their polytope and regular basis.
    Built once per process and shared by the normal-form suites."""
    shapes = [
        (4, 5, 2, 2), (5, 6, 2, 2), (3, 4, 1, 2), (4, 4, 1, 2),
        (5, 4, 2, 1), (6, 5, 2, 2), (4, 6, 2, 2), (5, 5, 2, 2),
    ]

    def members():
        for char in (2, 3, 5, 7):
            ring = _ring(char)
            for (a, b, c, d) in shapes:
                f = ring.poly([((a, 0), 1), ((c, d), 1), ((0, b), 1)])
                P = cpolytope_from_poly(f)
                if initial_form(P, f) != f:
                    continue
                rb = regular_basis(P, f, "contact")
                if rb.finite:
                    yield ring, f, P, rb

    return tuple(islice(members(), 24))


def _perturbed_pool_member(rng):
    """A pool member (ring, P, rb) and its principal part plus a random tail
    of higher valuation."""
    ring, f, P, rb = rng.choice(_normal_form_pool())
    vf = valuation_poly(P, f)
    pert = _random_poly(rng, ring, maxdeg=7, terms=2)
    return ring, P, rb, f + pert.filter_terms(lambda m: P.value(m) > vf)


def suite_normal_form_tjurina(cases: int = 200) -> CheckResult:
    """Contact normal forms preserve the Tjurina number and replay exactly."""

    def trial(rng):
        ring, P, _, g = _perturbed_pool_member(rng)
        try:
            nf = normal_form(P, g, "contact")
        except NormalFormRefusal:
            return None
        if tjurina(nf.polynomial()) != tjurina(g):
            return "tau changed: %s char %d" % (poly_to_string(g), ring.char)
        if not replay_matches(P, g, nf):
            return "replay mismatch: %s char %d" % (poly_to_string(g), ring.char)
        return ""

    return _property(906, cases, "normal forms preserve Tjurina number and replay", trial)


def suite_truncation_stability(cases: int = 200) -> CheckResult:
    """Truncating past the filtered determinacy bound never changes the tail."""

    def trial(rng):
        ring, P, rb, g = _perturbed_pool_member(rng)
        k = determinacy_filtered(g, rb).filtered_bound
        try:
            base = normal_form(P, g, "contact")
            cut = normal_form(P, g.truncate(k), "contact")
            cut2 = normal_form(P, g.truncate(k + 2), "contact")
        except NormalFormRefusal:
            return None
        if base.tail != cut.tail or base.tail != cut2.tail:
            return "%s char %d (k=%s): %s vs %s vs %s" % (
                poly_to_string(g), ring.char, k, base.tail, cut.tail, cut2.tail)
        return ""

    return _property(
        907, cases, "tail stable under truncation at the determinacy bound", trial)


PROPERTY_SUITES: List[Callable] = [
    suite_valuation_subadditivity,
    suite_plain_dims_match_tjurina,
    suite_tail_invariance,
    suite_quasihomogeneous_mu_tau,
    suite_innd_implies_finiteness,
    suite_normal_form_tjurina,
    suite_truncation_stability,
]


CRITERIA = {
    1: checks_criterion_1,
    2: checks_criterion_2,
    3: checks_criterion_3,
    4: checks_criterion_4,
    5: checks_criterion_5,
    6: checks_criterion_6,
    7: checks_criterion_7,
    8: checks_criterion_8,
}


SELFTEST_CASES = 40  # draws per property suite in run_all


def run_all(out: Optional[TextIO] = None) -> List[CheckResult]:
    """Every check, criteria first; each line goes to out as its check finishes."""
    checks = chain(
        (check for crit in sorted(CRITERIA) for check in CRITERIA[crit]()),
        (suite(cases=SELFTEST_CASES) for suite in PROPERTY_SUITES),
    )
    results: List[CheckResult] = []
    for check in checks:
        results.append(check)
        if out is not None:
            print(
                "[criterion %d] %-64s %s"
                % (check.criterion, check.name, "PASS" if check.passed else "FAIL"),
                file=out,
            )
            if not check.passed and check.detail:
                print("    %s" % check.detail, file=out)
    return results
