"""Exact row reduction over the rationals, shared by consum and t2cone.

Entries are Fractions (or ints).  The reduction itself runs on Python
ints, fraction-free (Bareiss, Math. Comp. 22, 1968, in its gcd-reduced
Gauss-Jordan form): each row is scaled to integers by the lcm of its
denominators, a row is eliminated by cross-multiplying,
``other * piv - f * row``, and the result is divided by its content gcd.
Every integer row is therefore a nonzero rational multiple of the row
that Fraction elimination with the same pivoting rule would hold at the
same step.  The two share their zero pattern, so they choose the same
pivots and make the same swaps, and the reduced form is rebuilt as
Fractions once at the end: a pivot row by dividing by its pivot entry, a
row past the rank by the exact scale carried with it.  The output is
``==`` to the Fraction elimination's, entry by entry.

Nothing here imports numpy or a solver module, so the numpy-free modules
stay numpy-free.
"""
from __future__ import annotations

import math
from fractions import Fraction


def _reduce(rows, ncols: int) -> tuple:
    """Fraction-free Gauss-Jordan reduction on the first ``ncols`` columns.

    Returns ``(a, pivots, scales)``: the integer rows, the pivot columns
    in increasing order, and per row a pair ``(num, den)`` such that
    ``a[i] / (num / den)`` is row i of the rational reduced form.  Rows
    are swapped exactly as Fraction elimination swaps them: the pivot of
    column c is the first row at or below the current rank that is
    nonzero there.
    """
    a = []
    scales = []
    for row in rows:
        lcm = math.lcm(*(x.denominator for x in row))
        ints = [x.numerator * (lcm // x.denominator) for x in row]
        g = math.gcd(*ints)
        if g > 1:
            ints = [x // g for x in ints]
        a.append(ints)
        scales.append((lcm, g or 1))
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        for p in range(r, len(a)):
            if a[p][c] != 0:
                break
        else:
            continue
        row = a[p]
        a[p], a[r] = a[r], row
        scales[p], scales[r] = scales[r], scales[p]
        piv = row[c]
        for i, other in enumerate(a):
            f = other[c]
            if i != r and f != 0:
                new = [piv * x - f * y for x, y in zip(other, row)]
                g = math.gcd(*new)
                num, den = scales[i]
                num, den = num * piv, den * (g or 1)
                if g > 1:
                    new = [x // g for x in new]
                h = math.gcd(num, den)
                scales[i] = (num // h, den // h)
                a[i] = new
        pivots.append(c)
    return a, pivots, scales


def rref(rows: list, ncols: int) -> list:
    """Bring ``rows`` (a list of mutable rows) to reduced row echelon form
    in place, pivoting on the first ``ncols`` columns only; returns the
    pivot columns in increasing order.  Every entry of the result is a
    Fraction, the entries past ``ncols`` of rows past the rank included."""
    a, pivots, scales = _reduce(rows, ncols)
    for i, row in enumerate(a):
        if i < len(pivots):
            piv = row[pivots[i]]
            rows[i] = [Fraction(x, piv) for x in row]
        else:
            num, den = scales[i]
            rows[i] = [Fraction(x * den, num) for x in row]
    return pivots


def rank(rows) -> int:
    """Rank of a nonempty rational matrix given as a sequence of rows."""
    return len(_reduce(rows, len(rows[0]))[1])


def kernel(rows, ncols: int) -> list:
    """Exact basis of {c : c . row = 0 for every row}, one tuple per free
    column of the reduced form."""
    a, pivots, _ = _reduce(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for ri, c in enumerate(pivots):
            vec[c] = Fraction(-a[ri][free], a[ri][c])
        basis.append(tuple(vec))
    return basis
