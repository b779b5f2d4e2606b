"""Exact row reduction over the rationals, shared by consum and t2cone.

Entries are Fractions (or ints); nothing here imports numpy or a solver
module, so the numpy-free modules stay numpy-free.
"""
from __future__ import annotations

from fractions import Fraction


def rref(rows: list, ncols: int) -> list:
    """Bring ``rows`` (a list of mutable rows) to reduced row echelon form
    in place, pivoting on the first ``ncols`` columns only; returns the
    pivot columns in increasing order."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        for p in range(r, len(rows)):
            if rows[p][c] != 0:
                break
        else:
            continue
        inv = rows[p][c]
        row = [x / inv for x in rows[p]]
        rows[p] = rows[r]
        rows[r] = row
        for i, other in enumerate(rows):
            f = other[c]
            if i != r and f != 0:
                rows[i] = [a - f * b for a, b in zip(other, row)]
        pivots.append(c)
    return pivots


def rank(rows) -> int:
    """Rank of a nonempty rational matrix given as a sequence of rows."""
    return len(rref([list(r) for r in rows], len(rows[0])))


def kernel(rows, ncols: int) -> list:
    """Exact basis of {c : c . row = 0 for every row}, one tuple per free
    column of the reduced form."""
    a = [list(r) for r in rows]
    pivots = rref(a, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for ri, c in enumerate(pivots):
            vec[c] = -a[ri][free]
        basis.append(tuple(vec))
    return basis
