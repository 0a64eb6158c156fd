"""Sparse exact multivariate polynomials over Q or a prime field F_p.

Monomials are exponent tuples; a polynomial is a map from monomials to
nonzero coefficients.  Over F_p coefficients are ints in [0, p); over Q
they are Fractions.  Everything is immutable after construction and all
operations are pure, so values can be shared freely.  A Poly remembers
its hash and its Milnor and Tjurina numbers (`localalg.local_dimension`);
a filter that keeps every term returns its input, memo and all.

Power series never appear as data: series-producing operations (inverse,
composition) take an explicit total-degree cutoff and return polynomials
that agree with the series up to that degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, Optional, Union

INFINITY = float("inf")

Mono = tuple  # exponent vector, one entry per ring variable
Coeff = Union[int, Fraction]


class RingError(ValueError):
    """Invalid field data or mismatched ring contexts."""


# Characteristics from here on are refused: `_is_prime` divides by trial, which
# takes about 46,000 steps just below this bound but 10^9, over a minute, near 10^18.
CHAR_LIMIT = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# The monomial helpers map C-level operators over the exponents, with no
# Python frame per entry: every layer calls them.
def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(map(sub, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def degrevlex_key(m: Mono):
    """Sort key realizing degree-reverse-lexicographic order (max = largest)."""
    return (sum(m), tuple(-e for e in reversed(m)))


def local_key(m: Mono):
    """Sort key for the local order: 1 ranks above all variables.

    The maximum under this key is the leading monomial; it has minimal
    total degree, with degrevlex breaking ties.
    """
    return (-sum(m), tuple(-e for e in reversed(m)))


@dataclass(frozen=True)
class Ring:
    """Ring context: characteristic (0 for Q, else a prime p) and variable names."""

    char: int
    names: tuple

    def __post_init__(self):
        if self.char >= CHAR_LIMIT:
            raise RingError("characteristic must be below 2^31, got %r" % (self.char,))
        if self.char != 0 and not _is_prime(self.char):
            raise RingError("characteristic must be 0 or a prime, got %r" % (self.char,))
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names or len(set(names)) != len(names):
            raise RingError("variable names must be nonempty and distinct")

    @property
    def nvars(self) -> int:
        return len(self.names)

    # -- coefficient field -------------------------------------------------

    def coeff(self, c) -> Coeff:
        if self.char:
            return int(c) % self.char
        return Fraction(c)

    def cadd(self, a: Coeff, b: Coeff) -> Coeff:
        return (a + b) % self.char if self.char else a + b

    def cmul(self, a: Coeff, b: Coeff) -> Coeff:
        return (a * b) % self.char if self.char else a * b

    def cneg(self, a: Coeff) -> Coeff:
        return (-a) % self.char if self.char else -a

    def cinv(self, a: Coeff) -> Coeff:
        if self.char:
            a %= self.char
            if a == 0:
                raise ZeroDivisionError("inverse of 0 in F_%d" % self.char)
            return pow(a, self.char - 2, self.char)
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return Fraction(1) / a

    # -- constructors --------------------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        c = self.coeff(c)
        zero = (0,) * self.nvars
        return Poly(self, {zero: c} if c else {})

    def var(self, i: int) -> "Poly":
        e = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {e: self.coeff(1)})

    def monomial(self, expo: Iterable, c=1) -> "Poly":
        expo = tuple(int(e) for e in expo)
        if len(expo) != self.nvars or any(e < 0 for e in expo):
            raise RingError("bad exponent vector %r" % (expo,))
        c = self.coeff(c)
        return Poly(self, {expo: c} if c else {})

    def poly(self, terms: Iterable) -> "Poly":
        """Build a polynomial from (exponent-tuple, coefficient) pairs."""
        acc = {}
        zero = self.coeff(0)
        for expo, c in terms:
            expo = tuple(int(e) for e in expo)
            c = self.coeff(c)
            s = self.cadd(acc.get(expo, zero), c)
            if s:
                acc[expo] = s
            else:
                acc.pop(expo, None)
        return Poly(self, acc)


class Poly:
    """Immutable sparse polynomial attached to a Ring."""

    __slots__ = ("ring", "terms", "_hash", "_local_dims")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._local_dims = None  # mode -> colength, filled by localalg.local_dimension

    # -- basic queries -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return set(self.terms)

    def sorted_terms(self):
        """Terms in descending degrevlex order (deterministic iteration)."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=degrevlex_key, reverse=True)]

    def order(self):
        """Minimal total degree over the support; INFINITY for 0."""
        if not self.terms:
            return INFINITY
        return min(sum(m) for m in self.terms)

    def degree(self):
        """Maximal total degree over the support; -1 for 0."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def constant_term(self) -> Coeff:
        zero = (0,) * self.ring.nvars
        return self.terms.get(zero, self.ring.coeff(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return "Poly(%s)" % (poly_to_string(self),)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise RingError("mixed ring contexts")

    def _plus_terms(self, terms) -> "Poly":
        """self plus the (monomial, coefficient) pairs of terms, in one pass."""
        ring = self.ring
        zero = ring.coeff(0)
        acc = dict(self.terms)
        for m, c in terms:
            s = ring.cadd(acc.get(m, zero), c)
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
        return Poly(ring, acc)

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return self._plus_terms(other.terms.items())

    def __neg__(self) -> "Poly":
        ring = self.ring
        return Poly(ring, {m: ring.cneg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        cneg = self.ring.cneg
        return self._plus_terms((m, cneg(c)) for m, c in other.terms.items())

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        ring = self.ring
        zero = ring.coeff(0)
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = ring.cadd(acc.get(m, zero), ring.cmul(c1, c2))
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return Poly(ring, acc)

    def scale(self, c) -> "Poly":
        ring = self.ring
        c = ring.coeff(c)
        if not c:
            return ring.zero()
        return Poly(ring, {m: ring.cmul(cc, c) for m, cc in self.terms.items()})

    def truncate(self, cutoff: int) -> "Poly":
        """Drop all terms of total degree above the cutoff."""
        return Poly(self.ring, {m: c for m, c in self.terms.items() if sum(m) <= cutoff})

    def filter_terms(self, keep) -> "Poly":
        """The terms whose monomial passes keep; self when all of them do."""
        terms = {m: c for m, c in self.terms.items() if keep(m)}
        return self if len(terms) == len(self.terms) else Poly(self.ring, terms)

    def partial(self, i: int) -> "Poly":
        """Partial derivative along variable i (0-based); exponents reduce mod p."""
        ring = self.ring
        zero = ring.coeff(0)
        acc = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            cc = ring.cmul(c, ring.coeff(m[i]))
            if not cc:
                continue
            dm = tuple(e - 1 if j == i else e for j, e in enumerate(m))
            s = ring.cadd(acc.get(dm, zero), cc)
            if s:
                acc[dm] = s
            else:
                acc.pop(dm, None)
        return Poly(ring, acc)


@dataclass(frozen=True)
class Automorphism:
    """Coordinate change x_i -> x_i + g_i with ord(g_i) >= 1, plus optional unit.

    The offsets g_i may be zero.  Callers constructing transformations for a
    filtration are responsible for the contractivity requirement on g_i with
    respect to the active polytope; it is not checkable here.
    """

    offsets: tuple  # one Poly per variable, the g_i
    unit: Optional[Poly] = None  # a unit 1 + b multiplied in after substitution

    def __post_init__(self):
        ring = self.offsets[0].ring
        if any(p.ring != ring for p in self.offsets):
            raise RingError("mixed ring contexts in automorphism")
        if len(self.offsets) != ring.nvars:
            raise RingError("automorphism arity does not match ring")
        for g in self.offsets:
            if g and g.order() < 1:
                raise RingError("offset with constant term")
        if self.unit is not None and not self.unit.constant_term():
            raise RingError("unit factor must have nonzero constant term")

    @property
    def ring(self) -> Ring:
        return self.offsets[0].ring


def substitute(f: Poly, phi: Automorphism, cutoff: int) -> Poly:
    """Compose f with x_i -> x_i + g_i, truncated to total degree <= cutoff.

    Agrees with the untruncated composition on all terms of degree <= cutoff.
    The optional unit factor of phi is NOT applied here.
    """
    if phi.ring != f.ring:
        raise RingError("mixed ring contexts")
    if cutoff < 0:
        raise RingError("cutoff must be >= 0")
    ring = f.ring
    images = [ring.var(i) + g for i, g in enumerate(phi.offsets)]
    # cache powers of each image up to the needed exponent
    powers = [[ring.one()] for _ in range(ring.nvars)]
    out = ring.zero()
    for m, c in f.terms.items():
        if sum(m) > cutoff:
            # minimal degree of the image of x^m equals deg(m) since ord(g_i) >= 1
            continue
        term = ring.const(c)
        for i, e in enumerate(m):
            cache = powers[i]
            while len(cache) <= e:
                cache.append((cache[-1] * images[i]).truncate(cutoff))
            term = (term * cache[e]).truncate(cutoff)
        out = out + term
    return out


def unit_inverse(u: Poly, cutoff: int) -> Poly:
    """Inverse of a unit power series, truncated: u * result == 1 mod degree > cutoff."""
    c0 = u.constant_term()
    if not c0:
        raise RingError("not a unit: zero constant term")
    if cutoff < 0:
        raise RingError("cutoff must be >= 0")
    ring = u.ring
    c0inv = ring.cinv(c0)
    # u = c0 (1 + b) with ord(b) >= 1; geometric series in -b
    b = (u.scale(c0inv) - ring.one()).truncate(cutoff)
    out = ring.one()
    power = ring.one()
    for _ in range(cutoff):
        power = (power * (-b)).truncate(cutoff)
        if power.is_zero():
            break
        out = out + power
    return out.scale(c0inv)


def apply_transformation(f: Poly, phi: Automorphism, cutoff: int) -> Poly:
    """substitute, then multiply by the unit factor when present."""
    out = substitute(f, phi, cutoff)
    if phi.unit is not None:
        out = (out * phi.unit).truncate(cutoff)
    return out


# -- text form ----------------------------------------------------------------
#
# Grammar (the CLI interchange format, frozen in module cli):
#   poly   := ['-'] term ( ('+'|'-') term )*
#   term   := factor ( '*' factor )*
#   factor := INT | VAR ( '^' INT )?
# Integer coefficients, explicit '*', no implicit multiplication, whitespace
# insignificant.  Printing emits fractional coefficients over Q as a/b, an
# output-only extension.


class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise PolyParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", len(text)))
    return tokens


def poly_from_string(ring: Ring, text: str) -> Poly:
    """Parse the frozen polynomial grammar into a Poly over the given ring."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise PolyParseError("expected %s, found %r" % (kind, tok[1] or "end of input"), tok[2])
        pos += 1
        return tok

    var_index = {name: i for i, name in enumerate(ring.names)}

    def parse_factor():
        kind, value, at = peek()
        if kind == "int":
            take()
            return ((0,) * ring.nvars, int(value))
        if kind == "name":
            take()
            if value not in var_index:
                raise PolyParseError("unknown variable %r" % value, at)
            e = 1
            if peek()[0] == "^":
                take()
                etok = take("int")
                e = int(etok[1])
            expo = tuple(e if j == var_index[value] else 0 for j in range(ring.nvars))
            return (expo, 1)
        raise PolyParseError("expected a coefficient or variable, found %r" % (value or "end of input"), at)

    def parse_term():
        expo, coeff = parse_factor()
        while peek()[0] == "*":
            take()
            e2, c2 = parse_factor()
            expo = mono_mul(expo, e2)
            coeff *= c2
        return expo, coeff

    out = []
    sign = 1
    if peek()[0] == "-":
        take()
        sign = -1
    elif peek()[0] == "+":
        take()
    expo, coeff = parse_term()
    out.append((expo, sign * coeff))
    while peek()[0] in ("+", "-"):
        op = take()[0]
        expo, coeff = parse_term()
        out.append((expo, coeff if op == "+" else -coeff))
    tok = peek()
    if tok[0] != "end":
        raise PolyParseError("trailing input %r" % tok[1], tok[2])
    return ring.poly(out)


def _coeff_str(c: Coeff) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return "%d/%d" % (c.numerator, c.denominator)
    return str(int(c))


def _mono_str(names: tuple, m: Mono) -> str:
    """The monomial x^m in the input grammar, "1" for the unit."""
    return "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in zip(names, m) if e) or "1"


def poly_to_string(f: Poly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for m, c in f.sorted_terms():
        neg = c < 0
        a = -c if neg else c
        chunk = _mono_str(f.ring.names, m)
        if chunk == "1":
            chunk = _coeff_str(a)
        elif a != 1:
            chunk = _coeff_str(a) + "*" + chunk
        if not parts:
            parts.append(("-" if neg else "") + chunk)
        else:
            parts.append(("-" if neg else "+") + chunk)
    return "".join(parts)
