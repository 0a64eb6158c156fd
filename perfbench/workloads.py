"""Seeded query streams for the three benchmark workloads.

Each workload is a list of `Query` values built from a seed alone, before
anything is timed.  The program only ever sees a query's argv.  Inputs are
built with the benchmark's own small polynomial arithmetic (exponent tuple
-> integer coefficient dicts), so generation does not depend on the code
under measurement.

Every stream interleaves its query classes in a fixed order; the seed only
draws the random parts inside each class, and perturbation terms are dealt
from seeded shuffles so that every candidate term comes up equally often.
That keeps the input mix, and so the throughput and latency figures, the
same from seed to seed while the inputs themselves differ.
"""

from __future__ import annotations

import random
from functools import lru_cache
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice

# Queries generated per workload: several times what a run completes today,
# so that the timed loop does not wrap around after a speed-up.
STREAM_LENGTH = 3000


@dataclass(frozen=True)
class Query:
    """One CLI call plus what the checks need to know about its input."""

    command: str
    char: int
    vars: str
    poly: str
    options: tuple = ()  # extra CLI arguments, e.g. ("--mode", "right")
    expect: dict = field(default_factory=dict)  # closed-form answers

    @property
    def argv(self) -> list:
        return [self.command, "--char", str(self.char), "--vars", self.vars,
                *self.options, self.poly]

    def option(self, name: str):
        opts = list(self.options)
        return opts[opts.index(name) + 1] if name in opts else None


# -- exact polynomial helpers (dict: exponent tuple -> int) --------------------


def _add(f: dict, g: dict, p: int) -> dict:
    out = dict(f)
    for m, c in g.items():
        s = out.get(m, 0) + c
        s = s % p if p else s
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def poly_str(f: dict, names: tuple) -> str:
    """Render in the CLI grammar: integer coefficients, explicit '*'."""
    parts = []
    for m in sorted(f, key=lambda m: (sum(m), m)):
        c = f[m]
        factors = [n if e == 1 else "%s^%d" % (n, e) for n, e in zip(names, m) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        sign = "-" if c < 0 else "+"
        parts.append((sign if parts or c < 0 else "") + "*".join(factors))
    return "".join(parts)


def _weights_3term(a: int, b: int, c: int, d: int) -> tuple:
    """Facet weights of x^a + x^c*y^d + y^b, each normalised to value 1."""
    return ((Fraction(d, a * d), Fraction(a - c, a * d)),
            (Fraction(b - d, b * c), Fraction(c, b * c)))


def _value(ws: list, m: tuple) -> Fraction:
    return min(sum(wi * e for wi, e in zip(w, m)) for w in ws)


def _coeff(rng: random.Random, p: int) -> int:
    """A nonzero coefficient: a residue mod p, or 1-4 over Q."""
    return rng.randrange(1, p) if p else rng.randrange(1, 5)


def _monomials(nvars: int, lo: int, hi: int) -> list:
    """Exponent tuples of total degree in [lo, hi]."""
    out = []

    def rec(prefix):
        if len(prefix) == nvars:
            if lo <= sum(prefix):
                out.append(tuple(prefix))
            return
        for e in range(hi + 1 - sum(prefix)):
            rec(prefix + [e])

    rec([])
    return out


@lru_cache(maxsize=None)
def _above(ws: tuple, nvars: int, maxdeg: int, mindeg: int = 1) -> list:
    """Monomials of total degree in [mindeg, maxdeg] strictly above value 1."""
    return [m for m in _monomials(nvars, mindeg, maxdeg) if _value(ws, m) > 1]


class _Deck:
    """Deals candidate monomials from successive seeded shuffles.

    Every candidate comes up equally often, so runs on different seeds see
    nearly the same monomials, in a different order and with different
    coefficients: the cost of a run then depends little on the seed.
    """

    def __init__(self, rng, cands: list):
        self.rng, self.cands, self.pile = rng, list(cands), []

    def deal(self, k: int) -> list:
        out = []
        while len(out) < k:
            if not self.pile:
                self.pile = list(self.cands)
                self.rng.shuffle(self.pile)
            m = self.pile.pop()
            if m not in out:
                out.append(m)
        return out


def _dealt(rng, f: dict, deck: _Deck, p: int, k: int) -> dict:
    """f plus k terms dealt from the deck, with seeded coefficients."""
    return _add(f, {m: _coeff(rng, p) for m in deck.deal(k)}, p)


def _spread(groups: list) -> list:
    """The items of all groups in one list, each group spread evenly over it.

    Item i of a group of n sits at (i + 1/2) / n of the way along, so every
    stretch of the list holds each group in its share.  A run that stops
    partway through the list then sees the same mix however far it got.
    """
    keyed = [((i + 0.5) / len(g), k, item)
             for k, g in enumerate(groups) for i, item in enumerate(g)]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


# -- invariants ------------------------------------------------------------------

# x^2*z+y^3+z^4 with weights (9,8,6)/24; criterion-5 perturbations restricted
# to total degree <= 4 and at most two terms.  Degree 6 and three terms (the
# full criterion-5 generator) reach 43 s per query; this size keeps the
# Buchberger tail at about 10x the median.
Q10 = {(2, 0, 1): 1, (0, 3, 0): 1, (0, 0, 4): 1}
Q10_WEIGHTS = ((Fraction(9, 24), Fraction(8, 24), Fraction(6, 24)),)
Q10_CANDIDATES = [
    m for m in _above(Q10_WEIGHTS, 3, 4) if max(m) < 4
]


# hyperbolic T_pq (1/p + 1/q < 1/2): the principal part is non-degenerate
# over Q, so mu = p + q + 1 (Kouchnirenko).  Over F_p, shapes where the
# characteristic divides 2pq are skipped: their mu is infinite.
TPQ_SHAPES = [(p_, q_) for p_ in (4, 5, 6) for q_ in (5, 6, 7)]
TPQ_MOD_P = [(p_, q_, char) for char in (3, 5, 7) for p_, q_ in TPQ_SHAPES
             if (2 * p_ * q_) % char]


def _tpq_candidates(p_: int, q_: int) -> list:
    """Monomials of degree 2..6 above the diagram of x^p + x^2*y^2 + y^q."""
    return _above(_weights_3term(p_, q_, 2, 2), 2, 6, mindeg=2)


def invariants_stream(seed: int):
    """mu and tau in turn on Q10 over Q, T_pq over Q and T_pq over F_p.

    The T_pq shapes and characteristics are taken in a fixed cycle and the
    perturbations alternate between one and two terms; the seed deals the
    terms and draws their coefficients.
    """
    rng = random.Random(seed)
    names2, names3 = ("x", "y"), ("x", "y", "z")
    decks = {}

    def deck(key, cands):
        if key not in decks:
            decks[key] = _Deck(rng, cands)
        return decks[key]

    for k in count():
        nterms = 1 + k % 2
        for command in ("mu", "tau"):
            f = _dealt(rng, Q10, deck("q10", Q10_CANDIDATES), 0, nterms)
            expect = {"milnor": 10} if command == "mu" else {}
            yield Query(command, 0, "x,y,z", poly_str(f, names3), expect=expect)
        for p_, q_, char in (TPQ_SHAPES[k % len(TPQ_SHAPES)] + (0,),
                             TPQ_MOD_P[k % len(TPQ_MOD_P)]):
            tpq = {(p_, 0): 1, (2, 2): 1, (0, q_): 1}
            for command in ("mu", "tau"):
                f = _dealt(rng, tpq, deck((p_, q_), _tpq_candidates(p_, q_)), char, nterms)
                expect = {"milnor": p_ + q_ + 1} if (command == "mu" and char == 0) else {}
                yield Query(command, char, "x,y", poly_str(f, names2), expect=expect)


# -- graded ----------------------------------------------------------------------

# The paper's families.  The wave family in characteristics 2 and 3 is left
# out: its contact (char 2) and right (char 3) ray scans run 8-25 s each, so
# one query would fill most of a run.
FAMILIES = [
    ("x,y", None, "x^12+x^3*y^2+y^3", (0, 2, 3, 5, 7)),  # E33
    ("x,y", None, "x^7+x^3*y^2+y^4", (0, 5, 7)),  # wave family
    ("x,y,z", "9,8,6", "x^2*z+y^3+z^4", (0, 2, 3, 5, 7)),  # Q10
    ("x,y,z", "6,4,9", "x^3+x*y^3+z^2", (0, 2, 3, 5, 7)),  # E7 (+ z^2)
]
GRADED_COMMANDS = [
    ("conditions", ()),
    ("regbasis", ("--mode", "right")),
    ("regbasis", ("--mode", "contact")),
    ("innd", ()),
]
# Random curves scan every vertex ray up to this multiple.  The default bound
# (4 * tau) reaches 84 on these inputs and single queries then take seconds.
# At 16, a curve with an infinite ray took up to 0.9 s, and whether the
# seed drew such curves moved p90 by a quarter from seed to seed.
RANDOM_SCAN_BOUND = "8"


def _family_queries() -> list:
    """Every family, characteristic and command once, the families spread
    evenly, so that every stretch of the list mixes the cheap plane families
    with the costly three-variable ones."""
    per_family = [
        [Query(command, char, vars_, poly,
               options=opts + (("--weights", weights) if weights else ()))
         for char in chars for command, opts in GRADED_COMMANDS]
        for vars_, weights, poly, chars in FAMILIES
    ]
    return _spread(per_family)


CURVE_SHAPES = [(a, b) for a in range(3, 6) for b in range(3, 6)]
CURVE_TERMS = [(i, j) for i in range(1, 5) for j in range(1, 5) if 3 <= i + j <= 5]
CURVE_CHARS = (2, 3, 5, 7)


def graded_stream(seed: int):
    """Three seeded random curves over F_p, then the next family query.

    Random curves are x^a + y^b (a, b <= 5) plus 1-3 terms of degree 3..5,
    in the style of the fixtures' `_random_convenient`.  Commands and
    characteristics run through all 16 pairs in turn; the seed deals the
    shapes (a, b) and the terms and draws the coefficients.  Each pair
    deals its shapes from a deck of its own, so that every pair meets every
    shape equally often, whatever the seed: the cost of a query depends on
    the shape together with the command, the characteristic and the terms
    (`conditions` over F_2 takes from 10 ms to 0.9 s).  The family queries
    follow one fixed order (every family, characteristic and command once),
    so that a query repeats only after 72 family slots.
    """
    rng = random.Random(seed)
    families = _family_queries()
    shapes, terms = {}, _Deck(rng, CURVE_TERMS)
    j = 0
    for k in count():
        for _ in range(3):
            command, opts = GRADED_COMMANDS[j % len(GRADED_COMMANDS)]
            char = CURVE_CHARS[(j // len(GRADED_COMMANDS)) % len(CURVE_CHARS)]
            deck = shapes.setdefault((command, opts, char), _Deck(rng, CURVE_SHAPES))
            (a, b), = deck.deal(1)
            f = _dealt(rng, {(a, 0): 1, (0, b): 1}, terms, char, 1 + j % 3)
            yield Query(command, char, "x,y", poly_str(f, ("x", "y")),
                        options=opts + ("--scan-bound", RANDOM_SCAN_BOUND))
            j += 1
        yield families[k % len(families)]


# -- normalform ------------------------------------------------------------------

# Principal parts with a finite contact graded algebra: the fixture pool
# shapes x^a + x^c*y^d + y^b over F_p (as in the fixtures), then Q10 and E7
# over Q and F_p.  The last field lists the characteristics whose right-mode
# algebra is finite as well.  E33 is left out: its perturbed queries took up
# to 1.8 s and moved the throughput by a fifth from seed to seed.
NF_PARTS = [
    # (vars, weights option, shape or exponent dict, chars, right-finite chars)
    ("x,y", None, (4, 5, 2, 2), (3, 5, 7), (3, 7)),
    ("x,y", None, (5, 6, 2, 2), (3, 5, 7), (7,)),
    ("x,y", None, (3, 4, 1, 2), (3, 5, 7), (5, 7)),
    ("x,y", None, (4, 4, 1, 2), (2, 3, 5, 7), (3, 5, 7)),
    ("x,y", None, (5, 4, 2, 1), (2, 3, 5, 7), (3, 5, 7)),
    ("x,y", None, (6, 5, 2, 2), (3, 5, 7), (7,)),
    ("x,y", None, (4, 6, 2, 2), (3, 5, 7), (5, 7)),
    ("x,y", None, (5, 5, 2, 2), (3, 5, 7), (3, 7)),
    ("x,y,z", "9,8,6", Q10, (0, 2, 3, 5, 7), (0, 5, 7)),
    ("x,y,z", "6,4,9", {(3, 0, 0): 1, (1, 3, 0): 1, (0, 0, 2): 1},
     (0, 2, 3, 5, 7), (0, 5, 7)),  # E7 + z^2
]
# Size of the perturbation: one term of degree <= min(deg f, 6) whose
# valuation is above the principal part's but at most 3/2 of it.  Q10 and
# E7 have basis monomials in that range, so the reduction loop takes steps
# there; the fixture shapes have none and reduce in zero steps.
# Probes with scrambles (coordinate changes x_i -> x_i + c*m and a unit
# 1 + c*x_j) put 8 of 12 queries past 40 s at degree <= 4; at degree 2 the
# median tripled, the spread between seeds reached 25-37%, and the loop took
# no more steps, so the workload uses the extra term alone.
NF_MAX_VALUE = Fraction(3, 2)


def _part_data(entry):
    vars_, wopt, shape, chars, right_chars = entry
    if isinstance(shape, dict):
        f = dict(shape)
        w = tuple(Fraction(int(x)) for x in wopt.split(","))
        value_f = min(sum(wi * e for wi, e in zip(w, m)) for m in f)
        ws = (tuple(wi / value_f for wi in w),)
    else:
        a, b, c, d = shape
        f = {(a, 0): 1, (c, d): 1, (0, b): 1}
        ws = _weights_3term(a, b, c, d)
    near = [m for m in _above(ws, len(ws[0]), min(max(sum(m) for m in f), 6), mindeg=2)
            if _value(ws, m) <= NF_MAX_VALUE]
    return vars_, wopt, f, near, chars, right_chars


def _nf_classes() -> list:
    """(part, char, command, mode) in a fixed order, the principal parts
    spread evenly, so that every stretch of the stream mixes them.  Q10 and
    E7 have the most classes and the costliest queries: spread evenly, they
    take the same share of a run wherever in the cycle it stops."""
    per_part = []
    for entry in NF_PARTS:
        vars_, wopt, f, near, chars, right_chars = _part_data(entry)
        per_part.append([
            (vars_, wopt, f, near, char, command, mode)
            for char in chars
            for mode in ("contact", "right")
            if mode == "contact" or char in right_chars
            for command in ("normalform", "determinacy")
        ])
    return _spread(per_part)


def normalform_stream(seed: int):
    rng = random.Random(seed)
    classes = _nf_classes()
    decks = {}
    while True:
        for vars_, wopt, f, near, char, command, mode in classes:
            part = (vars_, tuple(sorted(f)))
            deck = decks.setdefault(part, _Deck(rng, near))
            g = _dealt(rng, f, deck, char, 1)
            opts = ("--mode", mode) + (("--weights", wopt) if wopt else ())
            yield Query(command, char, vars_, poly_str(g, tuple(vars_.split(","))),
                        options=opts)


STREAMS = {
    "invariants": invariants_stream,
    "graded": graded_stream,
    "normalform": normalform_stream,
}


def generate(workload: str, seed: int, count: int = STREAM_LENGTH) -> list:
    return list(islice(STREAMS[workload](seed), count))
