"""Oracle tests for the fraction-free exact kernels.

``_exact`` reduces on Python ints and ``check_balance`` sums over a common
denominator; both must give exactly what plain Fraction arithmetic gives.
The references below are that plain Fraction arithmetic: Gauss-Jordan
elimination dividing each pivot row by its pivot, and the balance check
summing Fraction products.  rank and kernel are also checked against
sympy's exact ``Matrix.rank`` and ``nullspace``.
"""
import random
from fractions import Fraction

import pytest
import sympy

from slcones._exact import kernel, rank, rref
from slcones.consum import (
    BalanceSolution,
    IntersectionGraph,
    check_balance,
    solve_areas,
)


def fraction_rref(rows: list, ncols: int) -> list:
    """Reference: Fraction Gauss-Jordan with the same pivoting rule (the
    first row at or below the rank that is nonzero in the column)."""
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


def fraction_check_balance(g: IntersectionGraph, sol: BalanceSolution) -> bool:
    """Reference: sum the Fraction products w_e * A_e at every component."""
    net = [Fraction(0)] * (g.q + 1)
    for e, a in zip(g.edges, sol.A):
        f = e.weight * a
        net[e.tail] += f
        net[e.head] -= f
    return not any(net[1:])


def _entry(rng):
    u = rng.random()
    if u < 0.3:
        return 0
    if u < 0.55:
        return rng.randint(-10**6, 10**6)
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def random_matrix(rng, width_extra: int = 1) -> tuple:
    """1-6 rows and 1-8 pivot columns plus ``width_extra`` augmented
    columns; ints mixed with Fractions, some zero and dependent rows."""
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
    rows = [[_entry(rng) for _ in range(ncols + width_extra)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.5:
        # a multiple of another row, sometimes off in the augmented column
        i, j = rng.sample(range(nrows), 2)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        rows[i] = [c * x for x in rows[j]]
        if width_extra and rng.random() < 0.5:
            rows[i][-1] += rng.randint(1, 5)
    if nrows > 2 and rng.random() < 0.3:
        # a sum of two other rows
        i, j, k = rng.sample(range(nrows), 3)
        rows[i] = [x + y for x, y in zip(rows[j], rows[k])]
    if rng.random() < 0.2:
        rows[rng.randrange(nrows)] = [0] * (ncols + width_extra)
    return rows, ncols


class TestRref:
    def test_equals_fraction_elimination_on_every_row(self):
        rng = random.Random(20261018)
        for _ in range(2500):
            rows, ncols = random_matrix(rng)
            want = [[Fraction(x) for x in r] for r in rows]
            want_pivots = fraction_rref(want, ncols)
            got = [list(r) for r in rows]
            assert rref(got, ncols) == want_pivots, rows
            # every row, the augmented entries of rows past the rank included
            assert got == want, rows
            assert all(type(x) is Fraction for r in got for x in r)

    def test_wide_augmentation(self):
        rng = random.Random(7)
        for _ in range(300):
            rows, ncols = random_matrix(rng, width_extra=3)
            want = [[Fraction(x) for x in r] for r in rows]
            want_pivots = fraction_rref(want, ncols)
            got = [list(r) for r in rows]
            assert rref(got, ncols) == want_pivots
            assert got == want

    def test_rows_past_the_rank_keep_their_scale(self):
        # rows 2 and 3 depend on row 1 in the pivot columns, so only their
        # augmented entries remain, and those carry the elimination's scale
        rows = [
            [Fraction(2, 3), 4, Fraction(1, 5)],
            [Fraction(-1, 3), -2, 7],
            [6, 36, Fraction(-9, 2)],
        ]
        want = [[Fraction(x) for x in r] for r in rows]
        assert rref(rows, 2) == fraction_rref(want, 2) == [0]
        assert rows == want
        assert rows[1] == [0, 0, Fraction(71, 10)]
        assert rows[2] == [0, 0, Fraction(-63, 10)]

    def test_all_zero_matrix(self):
        rows = [[0, 0, 0], [Fraction(0), 0, 0]]
        assert rref(rows, 2) == []
        assert rows == [[0, 0, 0], [0, 0, 0]]


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          if isinstance(x, Fraction) else x for x in r] for r in rows])


class TestRankAndKernel:
    def test_against_sympy(self):
        rng = random.Random(11)
        for _ in range(300):
            rows, ncols = random_matrix(rng, width_extra=0)
            m = _sympy(rows)
            assert rank(rows) == m.rank(), rows
            basis = kernel(rows, ncols)
            null = m.nullspace()
            assert len(basis) == len(null)
            for vec in basis:
                assert all(type(x) is Fraction for x in vec)
                for r in rows:
                    assert sum(Fraction(a) * b for a, b in zip(r, vec)) == 0
            if basis:
                # same span: stacking the two bases adds no rank
                stacked = _sympy(basis).col_join(sympy.Matrix.hstack(*null).T)
                assert stacked.rank() == len(null)

    def test_kernel_entries_equal_fraction_reduction(self):
        rng = random.Random(12)
        for _ in range(500):
            rows, ncols = random_matrix(rng, width_extra=0)
            red = [[Fraction(x) for x in r] for r in rows]
            pivots = fraction_rref(red, ncols)
            want = []
            for free in range(ncols):
                if free in pivots:
                    continue
                vec = [Fraction(0)] * ncols
                vec[free] = Fraction(1)
                for ri, c in enumerate(pivots):
                    vec[c] = -red[ri][free]
                want.append(tuple(vec))
            assert kernel(rows, ncols) == want
            assert rank(rows) == len(pivots)


def _random_strong_graph(rng, q: int) -> IntersectionGraph:
    order = list(range(1, q + 1))
    rng.shuffle(order)
    pairs = [(order[i], order[(i + 1) % q]) for i in range(q)]
    pairs += [(rng.randint(1, q), rng.randint(1, q)) for _ in range(rng.randint(0, q))]
    return IntersectionGraph(
        q, [(u, v, Fraction(rng.randint(1, 12), rng.randint(1, 12))) for u, v in pairs]
    )


class TestCheckBalance:
    @pytest.mark.parametrize("seed", range(6))
    def test_true_on_solved_areas_false_after_a_perturbation(self, seed):
        rng = random.Random(seed)
        for q in (1, 2, 3, 5, 8, 20, 60):
            g = _random_strong_graph(rng, q)
            sol = solve_areas(g)
            assert check_balance(g, sol) is True
            assert fraction_check_balance(g, sol)
            bumped = list(sol.A)
            k = rng.randrange(len(bumped))
            bumped[k] += Fraction(1, rng.randint(1, 10**6))
            bad = BalanceSolution(bumped)
            if g.edges[k].tail == g.edges[k].head:
                # a self-loop's area never enters the balance
                assert check_balance(g, bad) is True
            else:
                assert check_balance(g, bad) is False
            assert check_balance(g, bad) == fraction_check_balance(g, bad)

    def test_equals_fraction_sum_on_random_areas(self):
        rng = random.Random(99)
        for _ in range(500):
            q = rng.randint(1, 5)
            g = _random_strong_graph(rng, q)
            # areas on a coarse grid, so that some of them balance
            A = BalanceSolution([Fraction(rng.randint(1, 3), rng.randint(1, 2))
                                 for _ in g.edges])
            assert check_balance(g, A) == fraction_check_balance(g, A)
