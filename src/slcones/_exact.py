"""Exact row reduction over the rationals, for t2cone's rank and kernel.

Entries are Fractions (or ints).  The reduction itself runs on Python
ints, fraction-free (Bareiss, Math. Comp. 22, 1968, in its gcd-reduced
Gauss-Jordan form): each row is scaled to integers by the lcm of its
denominators, a row is eliminated by cross-multiplying,
``other * piv - f * row``, and the result is divided by its content gcd.
Every integer row is therefore a nonzero rational multiple of the row
that Fraction elimination with the same pivoting rule would hold at the
same step.  The two share their zero pattern, so they choose the same
pivots and make the same swaps, and a pivot row divided by its pivot
entry is ``==`` to the Fraction elimination's row, entry by entry.

Nothing here imports numpy or a solver module, so the numpy-free modules
stay numpy-free.
"""
from __future__ import annotations

import math
from fractions import Fraction


def _reduce(rows, ncols: int) -> tuple:
    """Fraction-free Gauss-Jordan reduction on the first ``ncols`` columns.

    Returns ``(a, pivots)``: the integer rows and the pivot columns in
    increasing order; row i < len(pivots) divided by its entry in column
    ``pivots[i]`` is row i of the rational reduced form.  Rows are swapped
    exactly as Fraction elimination swaps them: the pivot of column c is
    the first row at or below the current rank that is nonzero there.
    """
    a = []
    for row in rows:
        lcm = math.lcm(*(x.denominator for x in row))
        ints = [x.numerator * (lcm // x.denominator) for x in row]
        g = math.gcd(*ints)
        if g > 1:
            ints = [x // g for x in ints]
        a.append(ints)
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
        piv = row[c]
        for i, other in enumerate(a):
            f = other[c]
            if i != r and f != 0:
                new = [piv * x - f * y for x, y in zip(other, row)]
                g = math.gcd(*new)
                if g > 1:
                    new = [x // g for x in new]
                a[i] = new
        pivots.append(c)
    return a, pivots


def rank(rows) -> int:
    """Rank of a nonempty rational matrix given as a sequence of rows."""
    return len(_reduce(rows, len(rows[0]))[1])


def kernel(rows, ncols: int) -> list:
    """Exact basis of {c : c . row = 0 for every row}, one tuple per free
    column of the reduced form."""
    a, pivots = _reduce(rows, ncols)
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
