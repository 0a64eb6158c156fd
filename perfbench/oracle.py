"""Brute-force local quotient dimensions, independent of the program.

dim K[[x]]/I is computed by plain linear algebra on the monomials below a
degree cutoff c: the rank of all monomial multiples of the generators,
truncated at c, gives dim K[[x]]/(I + m^c).  When two consecutive cutoffs
give the same value, m^c lies in I + m^(c+1), hence in I (Nakayama), and
the value is the exact dimension.  Polynomials are dicts from exponent
tuples to integers or Fractions.

One elimination at cutoff C gives the values at every cutoff c <= C.
Columns are ordered by degree and each pivot is its row's lowest column,
so the pivots in the columns of degree < c are the leading columns of the
row space projected to those columns; that projection is the row space at
cutoff c, whose rank is therefore the number of those pivots.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

INF = "inf"


def _monomials_below(nvars: int, cutoff: int) -> list:
    out = [()]
    for _ in range(nvars):
        out = [m + (e,) for m in out for e in range(cutoff - sum(m))]
    out.sort(key=lambda m: (sum(m), m))
    return out


def _pivots(rows: list, p: int) -> list:
    """Pivot columns of sparse rows (dict column -> coefficient) over F_p or
    Q, each pivot taken at its row's lowest column."""
    pivots: dict = {}
    for row in rows:
        r = dict(row)
        while r:
            col = min(r)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(r[col], -1, p) if p else 1 / Fraction(r[col])
                pivots[col] = {c: (v * inv) % p if p else v * inv for c, v in r.items()}
                break
            factor = r[col]
            for c, v in piv.items():
                nv = r.get(c, 0) - factor * v
                if p:
                    nv %= p
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
    return list(pivots)


def truncated_dims(gens: list, nvars: int, p: int, cutoff: int) -> list:
    """[dim K[[x]]/(I + m^c) for c in 0..cutoff]."""
    cols = _monomials_below(nvars, cutoff)
    index = {m: i for i, m in enumerate(cols)}
    rows = []
    for g in gens:
        order = min(sum(m) for m in g)
        for gamma in cols:
            if sum(gamma) + order >= cutoff:
                break
            row = {}
            for m, c in g.items():
                shifted = tuple(a + b for a, b in zip(m, gamma))
                if sum(shifted) < cutoff:
                    row[index[shifted]] = c
            rows.append(row)
    monomials = Counter(sum(m) for m in cols)
    pivots = Counter(sum(cols[col]) for col in _pivots(rows, p))
    dims, n, r = [0], 0, 0
    for degree in range(cutoff):
        n, r = n + monomials[degree], r + pivots[degree]
        dims.append(n - r)  # at cutoff degree + 1
    return dims


def local_dim(gens: list, nvars: int, p: int, cap: int):
    """dim K[[x]]/I, or INF once the truncated dimension exceeds cap.

    Until the values settle, each cutoff adds at least one to the truncated
    dimension.  So when the values up to cutoff C settle nothing, the answer
    is known by cutoff C + cap + 1 - dims[C]; the next elimination goes that
    far, or half again as far as C if that is less.
    """
    gens = [g for g in gens if g]
    if not gens:
        return INF
    cutoff = 8
    while True:
        dims = truncated_dims(gens, nvars, p, cutoff)
        for c in range(1, cutoff + 1):
            if dims[c] > cap:
                return INF
            if c < cutoff and dims[c + 1] == dims[c]:
                return dims[c]
        cutoff = min(cutoff + cutoff // 2, cutoff + cap + 1 - dims[cutoff])


def partial(f: dict, i: int, p: int) -> dict:
    out = {}
    for m, c in f.items():
        if m[i]:
            d = c * m[i]
            d = d % p if p else d
            if d:
                out[m[:i] + (m[i] - 1,) + m[i + 1:]] = d
    return out


def milnor_gens(f: dict, nvars: int, p: int) -> list:
    return [partial(f, i, p) for i in range(nvars)]


def tjurina_gens(f: dict, nvars: int, p: int) -> list:
    return [f] + milnor_gens(f, nvars, p)
