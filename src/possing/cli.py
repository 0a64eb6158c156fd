"""Command-line frontend.

Polynomial grammar (the frozen interchange format):

    poly   := ['-'] term ( ('+'|'-') term )*
    term   := factor ( '*' factor )*
    factor := INT | VAR ( '^' INT )?

Integer coefficients, explicit '*', no implicit multiplication, whitespace
insignificant.  Weight lists are semicolon-separated vectors of comma
separated positive rationals, e.g. --weights "4,6;5,5".

Exit codes: 0 success, 1 usage error, 2 mathematical refusal (for example
a normal form request whose finiteness condition fails), 3 a failed
internal consistency check or exhausted memory or recursion depth.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from possing.grading import ConditionFailure, check_condition, regular_basis
from possing.localalg import milnor, tjurina
from possing.newton import (
    PolytopeError,
    cpolytope_from_poly,
    cpolytope_from_weights,
    initial_form,
    newton_diagram,
    valuation,
)
from possing.nondeg import detect_qh, innd_check, saito_check, sqh_check
from possing.normalform import (
    NormalFormRefusal,
    determinacy_filtered,
    determinacy_generic,
    normal_form,
)
from possing.poly import (
    INFINITY,
    Poly,
    PolyParseError,
    Ring,
    RingError,
    _mono_str,
    poly_from_string,
    poly_to_string,
)

USAGE_ERROR = 1
MATH_REFUSAL = 2
INTERNAL_ERROR = 3


class UsageError(ValueError):
    pass


def _jsonify(value):
    if value == INFINITY:
        return "inf"
    if isinstance(value, Poly):
        return poly_to_string(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonify(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def parse_weights(text: str, nvars: int):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        entries = []
        for c in chunk.split(","):
            c = c.strip()
            try:
                entries.append(Fraction(c))
            except (ValueError, ZeroDivisionError):
                raise UsageError("malformed weight entry %r" % c)
        if len(entries) != nvars:
            raise UsageError(
                "weight vector %r has %d entries for %d variables"
                % (chunk, len(entries), nvars)
            )
        if any(e <= 0 for e in entries):
            raise UsageError("weight entries must be positive: %r" % chunk)
        out.append(tuple(entries))
    if not out:
        raise UsageError("empty weight list")
    return out


def build_ring(args) -> Ring:
    char = args.char
    names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not names:
        raise UsageError("no variables declared")
    try:
        return Ring(char, names)
    except RingError as exc:
        raise UsageError(str(exc))


def build_poly(ring: Ring, text: str) -> Poly:
    try:
        return poly_from_string(ring, text)
    except PolyParseError as exc:
        raise UsageError("cannot parse polynomial: %s" % exc)


def build_polytope(args, ring: Ring, f) -> tuple:
    """(polytope, provenance dict) from --weights or from the diagram of f."""
    if args.weights:
        ws = parse_weights(args.weights, ring.nvars)
        try:
            P = cpolytope_from_weights(ws)
        except PolytopeError as exc:
            raise UsageError(str(exc))
        return P, {"source": "weights", "weights": [list(map(str, w)) for w in ws]}
    if f is None:
        raise UsageError("this command needs --weights or a polynomial")
    try:
        P = cpolytope_from_poly(f, rule=args.rule)
    except PolytopeError as exc:
        raise ConditionFailure(str(exc))
    prov = {"source": "diagram", "rule": args.rule}
    if P.virtual_points:
        prov["virtual_points"] = [list(p) for p in P.virtual_points]
    return P, prov


def _poly_dict(ring: Ring, table: dict) -> dict:
    return {
        _mono_str(ring.names, m): _jsonify(c)
        for m, c in sorted(table.items())
    }


# -- command implementations ----------------------------------------------------


def cmd_mu(args, ring, f):
    return {"milnor": _jsonify(milnor(f))}, {}


def cmd_tau(args, ring, f):
    return {"tjurina": _jsonify(tjurina(f))}, {}


def cmd_newton(args, ring, f):
    nd = newton_diagram(f)
    return {
        "support": [list(m) for m in nd.support],
        "facets": [
            {"normal": list(w), "value": c, "points": [list(p) for p in pts]}
            for (w, c), pts in zip(nd.facet_forms, nd.facet_points)
        ],
        "vertices": [list(v) for v in nd.vertices],
        "convenient": nd.convenient,
    }, {}


def cmd_cpoly(args, ring, f):
    P, prov = build_polytope(args, ring, f)
    return {
        "weights": [list(w) for w in P.weights],
        "nscale": P.nscale,
        "vertices": [[str(c) for c in v] for v in P.vertices],
        "faces": [
            {
                "dimension": face.dimension,
                "vertices": [[str(c) for c in v] for v in face.vertices],
                "inner": face.inner,
            }
            for face in P.faces
        ],
    }, prov


def cmd_val(args, ring, f):
    P, prov = build_polytope(args, ring, f)
    rep = valuation(P, f)
    return {
        "value": _jsonify(rep.value),
        "attaining": {
            _mono_str(ring.names, m): list(facets) for m, facets in sorted(rep.attaining.items())
        },
    }, prov


def cmd_inform(args, ring, f):
    P, prov = build_polytope(args, ring, f)
    return {"initial_form": poly_to_string(initial_form(P, f))}, prov


def cmd_conditions(args, ring, f):
    P, prov = build_polytope(args, ring, f)
    return _conditions(args, P, f), prov


def _conditions(args, P, f) -> dict:
    out = {}
    for mode, local_name in (("right", "milnor"), ("contact", "tjurina")):
        # one regular basis per mode: exactness is finiteness plus a count
        rep = check_condition(P, f, mode, strict=True, scan_bound=args.scan_bound)
        finite_key, exact_key = mode + "_graded_finite", mode + "_graded_exact"
        out[finite_key] = rep.basis.finite
        out[local_name] = _jsonify(rep.local_dimension)
        out["dim_gr_" + mode] = _jsonify(rep.basis.dimension)
        if rep.basis.witness_ray is not None:
            witnesses = out.setdefault("witness_rays", {})
            for key in (finite_key, exact_key):
                witnesses[key] = list(rep.basis.witness_ray.direction)
        out[exact_key] = rep.holds
    return out


def cmd_regbasis(args, ring, f):
    P, prov = build_polytope(args, ring, f)
    rb = regular_basis(P, f, args.mode, scan_bound=args.scan_bound)
    result = {"status": rb.status, "dimension": _jsonify(rb.dimension)}
    if rb.finite:
        result["basis"] = [
            {"monomial": _mono_str(ring.names, m), "valuation": v} for m, v in rb.basis
        ]
        result["max_valuation"] = rb.max_valuation()
    else:
        result["witness_ray"] = list(rb.witness_ray.direction)
        result["scan_bound"] = rb.scan_bound
    return result, prov


def cmd_innd(args, ring, f):
    P, prov = build_polytope(args, ring, f)
    rep = innd_check(f, P)
    result = {"inner_nondegenerate": rep.nondegenerate}
    if rep.failing is not None:
        result["failing_face"] = [list(v) for v in rep.failing.face_vertices]
        result["failing_pattern"] = [ring.names[i] for i in rep.failing.zero_pattern]
    return result, prov


def cmd_classify(args, ring, f):
    P, prov = build_polytope(args, ring, f)
    result = {}
    qh = detect_qh(f)
    result["quasihomogeneous"] = (
        {"weights": list(qh.weights), "degree": qh.degree} if qh else None
    )
    # a single-facet filtration gives a weight to test semi-quasihomogeneity
    w = qh.weights if qh else (P.weights[0] if len(P.weights) == 1 else None)
    for mode in ("right", "contact"):
        if w is None:
            result["semi_quasihomogeneous_%s" % mode] = None
            result["principal_invariant_%s" % mode] = None
            continue
        rep = sqh_check(f, w, mode)
        result["semi_quasihomogeneous_%s" % mode] = rep.semi
        result["principal_invariant_%s" % mode] = _jsonify(rep.principal_invariant)
    result["inner_nondegenerate"] = innd_check(f, P).nondegenerate
    result.update(_conditions(args, P, f))
    if ring.char == 0 and result["milnor"] != "inf":
        result["milnor_equals_tjurina"] = saito_check(f)
    return result, prov


def cmd_normalform(args, ring, f):
    P, prov = build_polytope(args, ring, f)
    try:
        nf = normal_form(P, f, args.mode, scan_bound=args.scan_bound)
    except NormalFormRefusal as exc:
        if not args.truncate_generic:
            raise
        bound = determinacy_generic(f, args.mode)
        return {
            "refused": str(exc),
            "witness_ray": list(exc.witness.direction) if exc.witness else None,
            "generic_truncation": poly_to_string(f.truncate(bound)),
            "generic_bound": bound,
        }, prov
    return {
        "principal_part": poly_to_string(nf.principal_part),
        "normal_form": poly_to_string(nf.polynomial()),
        "coefficients": _poly_dict(ring, nf.tail),
        "candidates": [_mono_str(ring.names, m) for m in nf.candidates],
        "transformation_steps": len(nf.transformations),
        "transformations": [
            {
                "offsets": {
                    ring.names[i]: poly_to_string(g)
                    for i, g in enumerate(phi.offsets)
                    if not g.is_zero()
                },
                "unit": poly_to_string(phi.unit) if phi.unit is not None else None,
            }
            for phi in nf.transformations
        ],
        "residual_valuation": _jsonify(nf.residual_valuation),
        "window_degree": nf.window_degree,
        "precondition_k0": nf.precondition_k0,
    }, prov


def cmd_determinacy(args, ring, f):
    P, prov = build_polytope(args, ring, f)
    fP = initial_form(P, f)
    rb = regular_basis(P, fP, args.mode, scan_bound=args.scan_bound)
    result = {"generic_bound": _jsonify(determinacy_generic(f, args.mode))}
    if rb.finite:
        rep = determinacy_filtered(f, rb)
        result.update(
            {
                "filtered_bound": rep.filtered_bound,
                "max_valuation": rep.max_valuation,
                "precondition_k0": rep.precondition_k0,
            }
        )
    else:
        result["filtered_bound"] = None
        result["witness_ray"] = list(rb.witness_ray.direction)
    return result, prov


def cmd_selftest(args, ring, f):
    from possing.fixtures import run_all

    checks = run_all(out=None if args.json else args.out)
    passed = sum(1 for c in checks if c.passed)
    result = {
        "total": len(checks),
        "passed": passed,
        "failed": len(checks) - passed,
        "checks": [
            {"criterion": c.criterion, "name": c.name, "passed": c.passed, "detail": c.detail}
            for c in checks
        ],
    }
    return result, {}


COMMANDS = {
    "mu": (cmd_mu, True),
    "tau": (cmd_tau, True),
    "newton": (cmd_newton, True),
    "cpoly": (cmd_cpoly, False),
    "val": (cmd_val, True),
    "inform": (cmd_inform, True),
    "conditions": (cmd_conditions, True),
    "regbasis": (cmd_regbasis, True),
    "innd": (cmd_innd, True),
    "classify": (cmd_classify, True),
    "normalform": (cmd_normalform, True),
    "determinacy": (cmd_determinacy, True),
    "selftest": (cmd_selftest, False),
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="possing",
        description="Exact invariants, graded conditions and normal forms of "
        "isolated hypersurface singularities in arbitrary characteristic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, needs_poly) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("poly", nargs="?" if not needs_poly else None, default=None,
                       help="polynomial in the declared variables")
        p.add_argument("--char", type=int, default=0, help="field characteristic (0 or a prime)")
        p.add_argument("--vars", default="x,y", help="comma-separated variable names")
        p.add_argument("--weights", default=None, help='weight vectors, e.g. "4,6;5,5"')
        p.add_argument("--rule", default="extend", choices=("extend", "single"),
                       help="diagram extension rule when no weights are given")
        p.add_argument("--mode", default="contact", choices=("right", "contact"))
        p.add_argument("--scan-bound", type=int, default=None,
                       help="override the ray scan bound")
        p.add_argument("--truncate-generic", action="store_true",
                       help="on refusal, emit the jet at the generic determinacy bound")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(func=func, needs_poly=needs_poly)
    return parser


def render_text(report: dict, out) -> None:
    def walk(prefix, value):
        if isinstance(value, dict):
            for k in value:
                walk(prefix + [str(k)], value[k])
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, v in enumerate(value):
                walk(prefix + [str(i)], v)
        else:
            print("%-32s %s" % (".".join(prefix) + ":", value), file=out)

    walk([], report["result"])


def run(argv=None, out=sys.stdout, err=sys.stderr) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    args.out = out  # selftest writes each check's line as the check finishes
    started = time.perf_counter()
    try:
        if args.scan_bound is not None and args.scan_bound < 1:
            raise UsageError("--scan-bound must be at least 1, got %d" % args.scan_bound)
        ring = build_ring(args)
        f = None
        if args.poly is not None:
            f = build_poly(ring, args.poly)
        elif args.needs_poly:
            raise UsageError("command %r needs a polynomial argument" % args.command)
        result, provenance = args.func(args, ring, f)
    except UsageError as exc:
        print("error: usage: %s" % exc, file=err)
        return USAGE_ERROR
    except (ConditionFailure, NormalFormRefusal) as exc:
        detail = ""
        if getattr(exc, "witness", None) is not None:
            detail = " witness_ray=%s" % (list(exc.witness.direction),)
        print("error: refused: %s%s" % (exc, detail), file=err)
        return MATH_REFUSAL
    except (ValueError, ArithmeticError) as exc:
        print("error: invalid: %s" % exc, file=err)
        return USAGE_ERROR
    except (AssertionError, MemoryError, RecursionError) as exc:
        print("error: internal: %s" % (str(exc) or type(exc).__name__), file=err)
        return INTERNAL_ERROR
    report = {
        "command": args.command,
        "inputs": {
            "char": args.char,
            "vars": args.vars,
            "poly": args.poly,
            "weights": args.weights,
            "mode": args.mode,
        },
        "result": result,
        "provenance": provenance,
        "timing_ms": int((time.perf_counter() - started) * 1000),
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2), file=out)
    elif args.command == "selftest":
        print(
            "selftest: %d checks, %d passed, %d failed"
            % (result["total"], result["passed"], result["failed"]),
            file=out,
        )
    else:
        render_text(report, out)
    if args.command == "selftest" and result["failed"]:
        return MATH_REFUSAL
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
