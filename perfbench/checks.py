"""Answer checks, run outside the timed region.

Every answered query is checked by one of three means:

* a closed form: mu = 10 for the Q10 perturbations (product formula) and
  mu = p + q + 1 for x^p + x^2*y^2 + y^q plus terms above its diagram over Q;
* the brute-force oracle in `oracle.py` for every other Milnor or Tjurina
  number an answer states or implies;
* the program's own certificate for normal forms: replaying the logged
  transformations reproduces the normal form up to the reached valuation,
  and the normal form has the input's Tjurina (contact) or Milnor (right)
  number.

Graded verdicts are also checked for internal consistency: a finite
algebra has as many basis monomials as its dimension, exactness means
graded dimension equal to the local one, and the expected-valuation
algebra is never smaller than the local quotient.  An inner non-degenerate
verdict must come with finite mu, tau <= mu and both graded finiteness
conditions; a degenerate one is checked only for naming its failing face.

`check` returns None for a correct answer and a one-line reason otherwise.
An infinite Milnor or Tjurina number is confirmed only as "larger than
INF_CAP"; finite values are confirmed exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from oracle import INF, local_dim, milnor_gens, tjurina_gens
from possing.grading import check_condition
from possing.newton import cpolytope_from_poly, cpolytope_from_weights, valuation_poly
from possing.poly import Automorphism, Ring, apply_transformation, poly_from_string

INF_CAP = 48


class Input:
    """A query's polynomial, parsed once, with its oracle invariants."""

    def __init__(self, query):
        self.query = query
        self.ring = Ring(query.char, tuple(query.vars.split(",")))
        self.f = poly_from_string(self.ring, query.poly)
        self._dims = {}

    def invariant(self, which: str, claim=None):
        """Oracle mu or tau; with a finite claim, the cap sits just above it."""
        cap = _cap(claim)
        key = (which, cap)
        if key not in self._dims:
            self._dims[key] = invariant_of(self.f, which, cap)
        return self._dims[key]

    def polytope(self):
        weights = self.query.option("--weights")
        if weights:
            return cpolytope_from_weights(
                [tuple(Fraction(x) for x in weights.split(","))])
        return cpolytope_from_poly(self.f)


def parse_answer(ring, text: str):
    """A polynomial from an answer.  Answers may carry rational coefficients
    ("3/2*x^2"), which the input grammar does not accept."""
    terms = []
    for sign, body in re.findall(r"([+-]?)([^+-]+)", text.replace(" ", "")):
        coeff, expo = Fraction(-1 if sign == "-" else 1), [0] * ring.nvars
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, power = factor.partition("^")
                expo[ring.names.index(name)] += int(power or 1)
        terms.append((tuple(expo), coeff))
    return ring.poly(terms)


def _cap(claim) -> int:
    return max(INF_CAP, claim + 2) if isinstance(claim, int) else INF_CAP


def _mode_invariant(inp: Input) -> str:
    """The local invariant of the query's --mode: mu for right, tau for contact."""
    return "milnor" if inp.query.option("--mode") == "right" else "tjurina"


def invariant_of(f, which: str, cap: int):
    n, p = f.ring.nvars, f.ring.char
    gens = (milnor_gens if which == "milnor" else tjurina_gens)(dict(f.terms), n, p)
    return local_dim(gens, n, p, cap)


def _local(inp: Input, which: str, claim):
    """Reason string if the claimed mu/tau disagrees with the oracle."""
    truth = inp.query.expect.get(which)
    if truth is None:
        truth = inp.invariant(which, claim)
    if claim != truth:
        return "%s: answer %s, expected %s" % (which, claim, truth)
    return None


def _graded_vs_local(dim_gr, local):
    return dim_gr == INF or local == INF or dim_gr >= local


def check_invariant(inp: Input, result: dict):
    which = "milnor" if inp.query.command == "mu" else "tjurina"
    return _local(inp, which, result.get(which))


def check_conditions(inp: Input, result: dict):
    for mode, local_key in (("right", "milnor"), ("contact", "tjurina")):
        local = result[local_key]
        bad = _local(inp, local_key, local)
        if bad:
            return bad
        dim_gr = result["dim_gr_" + mode]
        finite = result[mode + "_graded_finite"]
        exact = result[mode + "_graded_exact"]
        has_witness = mode + "_graded_finite" in result.get("witness_rays", {})
        if finite != (dim_gr != INF) or finite == has_witness:
            return "%s: finiteness verdict disagrees with dimension or witness" % mode
        if exact != (finite and local != INF and dim_gr == local):
            return "%s: exactness verdict disagrees with the dimensions" % mode
        if not _graded_vs_local(dim_gr, local):
            return "%s: graded dimension %s below local %s" % (mode, dim_gr, local)
    return None


def check_regbasis(inp: Input, result: dict):
    if result["status"] == "infinite":
        ray = result.get("witness_ray")
        if result["dimension"] != INF or not ray or min(ray) < 0:
            return "infinite status without dimension inf and witness ray"
        return None
    basis = result["basis"]
    monos = [b["monomial"] for b in basis]
    vals = [b["valuation"] for b in basis]
    if result["dimension"] != len(basis) or len(set(monos)) != len(monos):
        return "dimension %s but %d distinct basis monomials" % (
            result["dimension"], len(set(monos)))
    if basis[0] != {"monomial": "1", "valuation": 0} or vals != sorted(vals):
        return "basis does not start at 1 or is not sorted by valuation"
    if result["max_valuation"] != vals[-1]:
        return "max_valuation disagrees with the basis"
    which = _mode_invariant(inp)
    local = inp.invariant(which)
    if not _graded_vs_local(result["dimension"], local):
        return "graded dimension %s below local %s" % (result["dimension"], local)
    return None


def check_innd(inp: Input, result: dict):
    if result["inner_nondegenerate"]:
        # inner non-degeneracy forces finite mu, tau <= mu and both graded
        # finiteness conditions (the latter decided by the ray criterion,
        # a different path through the program than the saturation test)
        mu, tau = inp.invariant("milnor"), inp.invariant("tjurina")
        if mu == INF or tau == INF or tau > mu:
            return "non-degenerate but mu=%s tau=%s" % (mu, tau)
        P = inp.polytope()
        for mode in ("right", "contact"):
            if not check_condition(P, inp.f, mode, strict=False).holds:
                return "non-degenerate but %s graded finiteness fails" % mode
        return None
    if "failing_face" not in result or "failing_pattern" not in result:
        return "degenerate verdict without a failing face"
    return None


def _replay(inp: Input, result: dict):
    ring, window = inp.ring, result["window_degree"]
    cur = inp.f.truncate(window)
    for step in result["transformations"]:
        offsets = tuple(
            parse_answer(ring, step["offsets"][name]) if name in step["offsets"]
            else ring.zero()
            for name in ring.names
        )
        unit = parse_answer(ring, step["unit"]) if step["unit"] is not None else None
        cur = apply_transformation(cur, Automorphism(offsets=offsets, unit=unit), window)
    return cur


def check_normalform(inp: Input, result: dict):
    if result["transformation_steps"] != len(result["transformations"]):
        return "transformation_steps disagrees with the log"
    nf = parse_answer(inp.ring, result["normal_form"])
    diff = _replay(inp, result) - nf
    reached = result["residual_valuation"]
    if not diff.is_zero() and (reached == INF
                               or valuation_poly(inp.polytope(), diff) < reached):
        return "replaying the log does not reproduce the normal form"
    which = _mode_invariant(inp)
    before = inp.invariant(which)
    after = invariant_of(nf, which, _cap(before))
    if before != after:
        return "%s changed from %s to %s" % (which, before, after)
    return None


def check_determinacy(inp: Input, result: dict):
    which = _mode_invariant(inp)
    inv = inp.invariant(which)
    if inv == INF:
        return "determinacy answered for infinite %s" % which
    generic = 2 * inv - min(sum(m) for m in inp.f.terms) + 2
    if result["generic_bound"] != generic:
        return "generic bound %s, expected %s" % (result["generic_bound"], generic)
    filtered = result["filtered_bound"]
    if filtered is None:
        return None if result.get("witness_ray") else "no filtered bound and no witness"
    if not 0 <= filtered <= result["max_valuation"]:
        return "filtered bound %s outside [0, max valuation]" % filtered
    return None


CHECKS = {
    "mu": check_invariant,
    "tau": check_invariant,
    "conditions": check_conditions,
    "regbasis": check_regbasis,
    "innd": check_innd,
    "normalform": check_normalform,
    "determinacy": check_determinacy,
}


def check(query, result: dict):
    return CHECKS[query.command](Input(query), result)
