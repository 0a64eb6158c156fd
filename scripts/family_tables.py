#!/usr/bin/env python3
"""Reproduce the invariant tables of the worked singularity families.

Prints, for each family member and a spread of characteristics: Milnor and
Tjurina numbers, the graded finiteness/exactness verdicts, determinacy
bounds, and the contact normal form of a generic perturbation.

Usage: python scripts/family_tables.py [--quick]
"""

import argparse
import sys
import time
from fractions import Fraction

sys.path.insert(0, "src")

from possing.grading import check_condition
from possing.localalg import milnor, tjurina
from possing.newton import cpolytope_from_poly, cpolytope_from_weights
from possing.normalform import (
    NormalFormRefusal,
    determinacy_filtered,
    determinacy_generic,
    normal_form,
)
from possing.poly import INFINITY, Ring, poly_from_string, poly_to_string


def fmt(v):
    return "inf" if v == INFINITY else str(v)


def row(family, char, f, P, pert_text):
    # one report gives both verdicts: exactness is finiteness plus a count
    rep = check_condition(P, f, "contact", strict=True, scan_bound=40)
    mu, tau = milnor(f), rep.local_dimension
    finite = rep.basis.finite
    generic = fmt(determinacy_generic(f, "contact") if tau != INFINITY else INFINITY)
    if finite:
        det = determinacy_filtered(f, rep.basis)
        bound = str(det.filtered_bound)
        pert = f + poly_from_string(f.ring, pert_text) if pert_text else f
        try:
            nf = normal_form(P, pert, "contact")
            nftext = poly_to_string(nf.polynomial())
        except NormalFormRefusal:
            nftext = "(refused)"
    else:
        bound = "-"
        nftext = "(condition fails: ray %s)" % (
            list(rep.basis.witness_ray.direction) if rep.basis.witness_ray else "?",
        )
    print(
        "%-10s char %2d | mu %-4s tau %-4s | finite %-5s exact %-5s | k %-3s (generic %-4s) | %s"
        % (family, char, fmt(mu), fmt(tau), finite, rep.holds, bound, generic, nftext)
    )


def tpq_table(quick=False):
    print("== two-term family x^p + x^2y^2 + y^q ==")
    pairs = [(4, 5), (5, 7)] if quick else [(4, 5), (5, 6), (5, 7)]
    for p, q in pairs:
        for char in (0, 3, 5, 7, 11, 2):
            ring = Ring(char, ("x", "y"))
            f = ring.poly([((p, 0), 1), ((2, 2), 1), ((0, q), 1)])
            P = cpolytope_from_poly(f)
            row("T_%d,%d" % (p, q), char, f, P, "x^3*y^3")


def q10_table():
    print("== space singularity x^2z + y^3 + z^4 ==")
    for char in (0, 2, 3):
        ring = Ring(char, ("x", "y", "z"))
        f = poly_from_string(ring, "x^2*z+y^3+z^4")
        P = cpolytope_from_weights(
            [(Fraction(9, 24), Fraction(8, 24), Fraction(6, 24))]
        )
        row("Q_10", char, f, P, "x*y*z^2+z^5")


def e7_table():
    print("== cusp family x^3 + xy^3 + z^2 ==")
    for char in (0, 5, 3, 2):
        ring = Ring(char, ("x", "y", "z"))
        f = poly_from_string(ring, "x^3+x*y^3+z^2")
        P = cpolytope_from_weights(
            [(Fraction(6, 18), Fraction(4, 18), Fraction(9, 18))]
        )
        row("E_7", char, f, P, "x^2*y^2+y^4*z")


def wave_table():
    print("== wave family x^7 + x^3y^2 + y^4 ==")
    for char in (0, 3, 2):
        ring = Ring(char, ("x", "y"))
        f = poly_from_string(ring, "x^7+x^3*y^2+y^4")
        P = cpolytope_from_poly(f)
        row("W_1,1", char, f, P, "x^2*y^3")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller sweep")
    args = parser.parse_args()
    started = time.time()
    tpq_table(quick=args.quick)
    q10_table()
    e7_table()
    if not args.quick:
        wave_table()
    print("done in %.1fs" % (time.time() - started))


if __name__ == "__main__":
    main()
