"""Built-in verification fixtures.

Each criterion function returns a list of CheckResult; run_all drives them
and is shared by the CLI selftest and the pytest acceptance module.  The
randomized property suites take an explicit case count so the selftest can
run a reduced sampling while the test suite runs the full size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, List

from possing.grading import (
    GradedAlgebra,
    Grading,
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
    witness = rep.witness_ray.direction if rep.witness_ray else None
    _check(out, 1, "witness ray is the y-axis", witness == (0, 1), "witness=%s" % (witness,))
    alg = GradedAlgebra(P, f, Grading.TJURINA_EXPECTED)
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
    rb = regular_basis(P, f, Grading.TJURINA_EXPECTED)
    got = sorted(_mono_str(R.names, m) for m in rb.monomials())
    want = sorted(Q10_BASIS)
    _check(out, 2, "regular basis is the 16 listed monomials", got == want,
           "got=%s" % got)
    _check(out, 2, "max basis valuation is 35", rb.max_valuation() == 35,
           str(rb.max_valuation()))
    det = determinacy_filtered(P, f, rb, "contact")
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
    _check(out, 3, "contact graded finiteness holds", exact.graded_dimension != INFINITY)
    _check(out, 3, "contact graded exactness fails", not exact.holds,
           "dim=%s tau=%s" % (exact.graded_dimension, exact.local_dimension))
    g = f + poly_from_string(R, "x*y^3+2*x^2*y^4+x^10*y")
    nf = normal_form(P, g, "contact")
    allowed = {(1, 3), (2, 3), (2, 4)}
    _check(out, 3, "normal-form tail within {xy^3, x^2y^3, x^2y^4}",
           set(nf.tail_support()) <= allowed, str(nf.tail_support()))
    det = determinacy_filtered(P, g, rb, "contact")
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
    if char == 0:
        return p + q
    if (p * q - 2 * (p + q)) % char == 0:
        return p + q + 1
    if p % char == 0 or q % char == 0:
        return p + q
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
            rb = regular_basis(P, f, Grading.TJURINA_EXPECTED)
            _check(out, 4, label + ": contact graded algebra finite", rb.finite)
            if rb.finite:
                det = determinacy_filtered(P, f, rb, "contact")
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


def checks_criterion_5(cases: int = 20) -> List[CheckResult]:
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
    for i in range(cases):
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
        rb = regular_basis(P, f, Grading.TJURINA_EXPECTED)
        det = determinacy_filtered(P, f, rb, "contact")
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


def _random_weights(rng) -> CPolytope:
    k = rng.choice([1, 1, 2])
    ws = []
    for _ in range(k):
        ws.append((Fraction(rng.randrange(1, 5)), Fraction(rng.randrange(1, 5))))
    try:
        return cpolytope_from_weights(ws)
    except Exception:
        return cpolytope_from_weights([(1, 1)])


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
    rng = random.Random(901)
    bad = None
    done = 0
    while done < cases:
        char = rng.choice([2, 3, 5, 7])
        ring = _ring(char)
        P = _random_weights(rng)
        f = _random_poly(rng, ring)
        g = _random_poly(rng, ring)
        if f.is_zero() or g.is_zero():
            continue
        done += 1
        vf, vg, vfg = valuation_poly(P, f), valuation_poly(P, g), valuation_poly(P, f * g)
        if vfg < vf + vg:
            bad = "subadditivity: %s, %s" % (poly_to_string(f), poly_to_string(g))
            break
        att_f = {j for m in f.terms if P.value(m) == vf for j in P.attaining(m)}
        att_g = {j for m in g.terms if P.value(m) == vg for j in P.attaining(m)}
        equality = vfg == vf + vg
        criterion = bool(att_f & att_g)
        if equality != criterion:
            bad = "facet criterion: %s | %s (eq=%s crit=%s)" % (
                poly_to_string(f), poly_to_string(g), equality, criterion)
            break
    return CheckResult(9, "valuation subadditivity and facet criterion (%d cases)" % done,
                       bad is None, bad or "")


def suite_plain_dims_match_tjurina(cases: int = 200) -> CheckResult:
    """Total plain graded dimension equals the Tjurina number."""
    rng = random.Random(902)
    bad = None
    done = 0
    while done < cases:
        char = rng.choice([2, 3, 5, 7])
        ring = _ring(char)
        f = _random_convenient(rng, ring, maxdeg=5)
        tau = tjurina(f)
        if tau == INFINITY or tau > 14:
            continue
        P = _random_weights(rng)
        done += 1
        dmax = int(tau) * max(P.value((1, 0)), P.value((0, 1))) + 1
        dims = plain_graded_dims(P, f, Grading.TJURINA, dmax)
        if sum(dims) != tau:
            bad = "%s char %d: sum=%s tau=%s" % (
                poly_to_string(f), char, sum(dims), tau)
            break
    return CheckResult(9, "plain graded dimension equals Tjurina number (%d cases)" % done,
                       bad is None, bad or "")


def suite_tail_invariance(cases: int = 200) -> CheckResult:
    """Graded pieces only depend on the initial form (higher tails drop out)."""
    rng = random.Random(903)
    bad = None
    done = 0
    while done < cases:
        char = rng.choice([2, 3, 5, 7])
        ring = _ring(char)
        f = _random_convenient(rng, ring, maxdeg=5)
        try:
            P = cpolytope_from_poly(f)
        except Exception:
            continue
        fP = initial_form(P, f)
        vf = valuation_poly(P, fP)
        tail = _random_poly(rng, ring, maxdeg=6, terms=2)
        tail = tail.filter_terms(lambda m: P.value(m) > vf)
        if tail.is_zero():
            continue
        done += 1
        mode = rng.choice([Grading.MILNOR_EXPECTED, Grading.TJURINA_EXPECTED])
        a1 = GradedAlgebra(P, fP, mode)
        a2 = GradedAlgebra(P, fP + tail, mode)
        for d in sorted(rng.sample(range(0, 3 * vf + 1), 5)):
            if a1.piece(d).quotient_basis != a2.piece(d).quotient_basis:
                bad = "%s + %s char %d at degree %d" % (
                    poly_to_string(fP), poly_to_string(tail), char, d)
                break
        if bad:
            break
    return CheckResult(9, "graded pieces unchanged by higher-valuation tails (%d cases)" % done,
                       bad is None, bad or "")


def suite_quasihomogeneous_mu_tau(cases: int = 200) -> CheckResult:
    """For quasihomogeneous f of order >= 3 with gcd(w)=1: finite Milnor number
    iff finite Tjurina number and characteristic not dividing the degree; then
    the numbers agree."""
    rng = random.Random(904)
    bad = None
    done = 0
    while done < cases:
        char = rng.choice([2, 3, 5, 7])
        ring = _ring(char)
        w = (rng.randrange(1, 4), rng.randrange(1, 4))
        d = rng.randrange(6, 13)
        monos = [
            (a, b)
            for a in range(0, d + 1)
            for b in range(0, d + 1)
            if a * w[0] + b * w[1] == d and a + b >= 3
        ]
        if not monos:
            continue
        acc = [(m, rng.randrange(1, char)) for m in monos if rng.random() < 0.7]
        if not acc:
            continue
        f = ring.poly(acc)
        if f.is_zero():
            continue
        qh = detect_qh(f)
        if qh is None:
            continue
        from math import gcd

        g = 0
        for wi in qh.weights:
            g = gcd(g, wi)
        if g != 1:
            continue
        done += 1
        mu, tau = milnor(f), tjurina(f)
        divides = qh.degree % char == 0
        lhs = mu != INFINITY
        rhs = tau != INFINITY and not divides
        if lhs != rhs or (lhs and mu != tau):
            bad = "%s char %d: mu=%s tau=%s char|d=%s" % (
                poly_to_string(f), char, mu, tau, divides)
            break
    return CheckResult(9, "quasihomogeneous Milnor/Tjurina dichotomy (%d cases)" % done,
                       bad is None, bad or "")


def suite_innd_implies_finiteness(cases: int = 200) -> CheckResult:
    """Inner non-degenerate implies both graded finiteness conditions and
    tau <= mu < infinity."""
    rng = random.Random(905)
    bad = None
    done = 0
    while done < cases:
        char = rng.choice([2, 3, 5, 7])
        ring = _ring(char)
        f = _random_convenient(rng, ring, maxdeg=5)
        try:
            P = cpolytope_from_poly(f)
        except Exception:
            continue
        rep = innd_check(f, P)
        if not rep.nondegenerate:
            continue
        done += 1
        mu, tau = milnor(f), tjurina(f)
        right = check_condition(P, f, "right", strict=False)
        contact = check_condition(P, f, "contact", strict=False)
        ok = (
            right.holds
            and contact.holds
            and mu != INFINITY
            and tau != INFINITY
            and tau <= mu
        )
        if not ok:
            bad = "%s char %d: mu=%s tau=%s right=%s contact=%s" % (
                poly_to_string(f), char, mu, tau, right.holds, contact.holds)
            break
    return CheckResult(
        9,
        "inner non-degeneracy forces graded finiteness and tau <= mu (%d cases)" % done,
        bad is None,
        bad or "",
    )


def _normal_form_pool(count: int):
    """Principal parts with finite contact graded algebra, with their data."""
    pool = []
    shapes = [
        (4, 5, 2, 2), (5, 6, 2, 2), (3, 4, 1, 2), (4, 4, 1, 2),
        (5, 4, 2, 1), (6, 5, 2, 2), (4, 6, 2, 2), (5, 5, 2, 2),
    ]
    for char in (2, 3, 5, 7):
        for (a, b, c, d) in shapes:
            ring = _ring(char)
            f = ring.poly([((a, 0), 1), ((c, d), 1), ((0, b), 1)])
            try:
                P = cpolytope_from_poly(f)
                fP = initial_form(P, f)
                if fP != f:
                    continue
                rb = regular_basis(P, f, Grading.TJURINA_EXPECTED)
            except Exception:
                continue
            if not rb.finite:
                continue
            pool.append((ring, f, P, rb))
            if len(pool) >= count:
                return pool
    return pool


def suite_normal_form_tjurina(cases: int = 200) -> CheckResult:
    """Contact normal forms preserve the Tjurina number and replay exactly."""
    rng = random.Random(906)
    pool = _normal_form_pool(24)
    bad = None
    done = 0
    while done < cases and pool:
        ring, f, P, rb = pool[rng.randrange(len(pool))]
        vf = valuation_poly(P, f)
        pert = _random_poly(rng, ring, maxdeg=7, terms=2)
        pert = pert.filter_terms(lambda m: P.value(m) > vf)
        g = f + pert
        done += 1
        try:
            nf = normal_form(P, g, "contact")
        except NormalFormRefusal:
            done -= 1
            continue
        if tjurina(nf.polynomial()) != tjurina(g):
            bad = "tau changed: %s char %d" % (poly_to_string(g), ring.char)
            break
        if not replay_matches(P, g, nf):
            bad = "replay mismatch: %s char %d" % (poly_to_string(g), ring.char)
            break
    return CheckResult(
        9,
        "normal forms preserve Tjurina number and replay (%d cases)" % done,
        bad is None,
        bad or "",
    )


def suite_truncation_stability(cases: int = 200) -> CheckResult:
    """Truncating past the filtered determinacy bound never changes the tail."""
    rng = random.Random(907)
    pool = _normal_form_pool(24)
    bad = None
    done = 0
    while done < cases and pool:
        ring, f, P, rb = pool[rng.randrange(len(pool))]
        vf = valuation_poly(P, f)
        pert = _random_poly(rng, ring, maxdeg=7, terms=2)
        pert = pert.filter_terms(lambda m: P.value(m) > vf)
        g = f + pert
        det = determinacy_filtered(P, g, rb, "contact")
        k = det.filtered_bound
        done += 1
        try:
            base = normal_form(P, g, "contact")
            cut = normal_form(P, g.truncate(k), "contact")
            cut2 = normal_form(P, g.truncate(k + 2), "contact")
        except NormalFormRefusal:
            done -= 1
            continue
        if base.tail != cut.tail or base.tail != cut2.tail:
            bad = "%s char %d (k=%s): %s vs %s vs %s" % (
                poly_to_string(g), ring.char, k,
                base.tail, cut.tail, cut2.tail)
            break
    return CheckResult(
        9,
        "tail stable under truncation at the determinacy bound (%d cases)" % done,
        bad is None,
        bad or "",
    )


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


def run_all(verbose: bool = False, property_cases: int = 40) -> List[CheckResult]:
    checks = chain(
        (check for crit in sorted(CRITERIA) for check in CRITERIA[crit]()),
        (suite(cases=property_cases) for suite in PROPERTY_SUITES),
    )
    results: List[CheckResult] = []
    for check in checks:
        results.append(check)
        if verbose:
            print(
                "[criterion %d] %-64s %s"
                % (check.criterion, check.name, "PASS" if check.passed else "FAIL")
            )
            if not check.passed and check.detail:
                print("    %s" % check.detail)
    return results
