"""Tests for the torus-cone k-calculus and two-point gluing solver.

The solver builds the annihilator of span(B1, B2) in closed form from
the Pluecker coordinates of the integer-scaled rows and ranks one 4-row
stack per type pair by integer elimination.  Span membership in the
gluing tests is cross-checked with sympy's exact rational rank, the
annihilator with sympy's nullspace, and the whole solver is compared
with ``elimination_oracle``, the Fraction Gauss-Jordan solver it
replaced, kept here frozen.
"""
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from slcones.errors import InputError
from slcones.t2cone import (
    FamilyRegionResult,
    GluingSolution,
    T2PairBasis,
    T2Singularity,
    W_VECTORS,
    _annihilator,
    _integer_row,
    _rank,
    family_region,
    gluing_candidates,
    h1_order,
    k_from_generator,
    two_singularity_gluings,
)


def sympy_in_span(basis: T2PairBasis, vec4) -> bool:
    """Independent oracle: is vec4 in the rational span of (B1, B2)?"""
    b1, b2 = basis.flat()
    rows = [[sympy.Rational(x) for x in r] for r in (b1, b2, vec4)]
    return sympy.Matrix(rows).rank() == 2


def family_vector(j1, j2, a1, a2):
    w1, w2 = W_VECTORS[j1], W_VECTORS[j2]
    return (a1 * w1[0], a1 * w1[1], a2 * w2[0], a2 * w2[1])


def random_consistent_basis(seed):
    """Random exact basis satisfying the pairing identity."""
    import numpy as np

    rng = np.random.default_rng(seed)
    for _ in range(50):
        vals = [Fraction(int(rng.integers(-4, 5))) for _ in range(4)]
        b1 = tuple(vals)
        if all(v == 0 for v in b1):
            continue
        # pairing is linear in B2 with gradient (-v1, u1, -z1, y1);
        # fix the component with a nonzero coefficient
        grads = (-b1[1], b1[0], -b1[3], b1[2])
        slot = next((i for i, g in enumerate(grads) if g != 0), None)
        if slot is None:
            continue
        b2 = [Fraction(int(rng.integers(-4, 5))) for _ in range(4)]
        partial = sum(g * x for i, (g, x) in enumerate(zip(grads, b2)) if i != slot)
        b2[slot] = -partial / grads[slot]
        try:
            return T2PairBasis((b1[:2], b1[2:]), (tuple(b2[:2]), tuple(b2[2:])))
        except InputError:
            continue
    raise RuntimeError("could not build a basis")


def _fraction_rref(rows, ncols: int) -> tuple:
    """Fraction Gauss-Jordan; the pivot of column c is the first row at
    or below the current rank that is nonzero there.  Returns the reduced
    rows and the pivot columns."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        p = next((p for p in range(r, len(rows)) if rows[p][c] != 0), None)
        if p is None:
            continue
        row = [x / rows[p][c] for x in rows[p]]
        rows[p] = rows[r]
        rows[r] = row
        for i, other in enumerate(rows):
            f = other[c]
            if i != r and f != 0:
                rows[i] = [a - f * b for a, b in zip(other, row)]
        pivots.append(c)
    return rows, pivots


def elimination_oracle(basis: T2PairBasis) -> list:
    """The gluing solver as it was before the Pluecker construction: the
    annihilator is the kernel of the reduced form of (B1; B2), one vector
    per free column, and each 2x2 system and each dimY stack is ranked
    by the same Fraction elimination."""
    b1, b2 = basis.flat()
    red, pivots = _fraction_rref([b1, b2], 4)
    annihilator = []
    for free in range(4):
        if free in pivots:
            continue
        vec = [Fraction(0)] * 4
        vec[free] = Fraction(1)
        for ri, c in enumerate(pivots):
            vec[c] = -red[ri][free]
        annihilator.append(vec)

    def rank(rows):
        return len(_fraction_rref(rows, len(rows[0]))[1])

    solutions = []
    for j1 in (1, 2, 3):
        for j2 in (1, 2, 3):
            w1, w2 = W_VECTORS[j1], W_VECTORS[j2]
            m = [(c[0] * w1[0] + c[1] * w1[1], c[2] * w2[0] + c[3] * w2[1])
                 for c in annihilator]
            r = rank(m)
            if r == 0:
                ratio, dim_y = None, 2
            elif r == 1:
                p, q = next(row for row in m if row != (0, 0))
                if p * q >= 0:
                    continue
                ratio, dim_y = -p / q, 1
            else:
                continue
            assert dim_y == 4 - rank([(*w1, 0, 0), (0, 0, *w2), b1, b2])
            solutions.append(GluingSolution(j1, j2, ratio, dim_y))
    return solutions


def _pairing(b1, b2):
    return b1[0] * b2[1] - b2[0] * b1[1] + b1[2] * b2[3] - b2[2] * b1[3]


def _rat(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def mixed_basis(rng, v):
    """(B1, B2) = an invertible integer mix of v and a random vector r
    with pairing(v, r) = 0, so the pairing identity holds; None when the
    mix is degenerate or v pairs with nothing."""
    grads = (-v[1], v[0], -v[3], v[2])
    slots = [i for i, g in enumerate(grads) if g != 0]
    if not slots:
        return None
    r = [_rat(rng) for _ in range(4)]
    s = rng.choice(slots)
    r[s] = 0
    r[s] = -sum(g * x for g, x in zip(grads, r)) / grads[s]
    if rng.random() < 0.3:
        al, be, ga, de = 1, 0, 0, 1
    else:
        al, be, ga, de = (rng.randint(-3, 3) for _ in range(4))
    b1 = [al * x + be * y for x, y in zip(v, r)]
    b2 = [ga * x + de * y for x, y in zip(v, r)]
    assert _pairing(b1, b2) == 0
    try:
        return T2PairBasis((b1[:2], b1[2:]), (b2[:2], b2[2:]))
    except InputError:  # dependent
        return None


def planted_basis(rng):
    """A basis whose span holds the family vector of a random type pair
    at random positive scales; returns (basis, (j1, j2, a1, a2))."""
    while True:
        j1, j2 = rng.randint(1, 3), rng.randint(1, 3)
        a1 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        a2 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        basis = mixed_basis(rng, family_vector(j1, j2, a1, a2))
        if basis is not None:
            return basis, (j1, j2, a1, a2)


def random_rational_basis(rng):
    """A random basis with rational entries that satisfies the pairing
    identity."""
    while True:
        basis = mixed_basis(rng, [_rat(rng) for _ in range(4)])
        if basis is not None:
            return basis


class TestSingularity:
    def test_validation(self):
        with pytest.raises(InputError):
            T2Singularity((1, 1, 1))  # sum != 0
        with pytest.raises(InputError):
            T2Singularity((2, 4, -6))  # not primitive
        with pytest.raises(InputError):
            T2Singularity((0, 0, 0))
        with pytest.raises(InputError):
            T2Singularity((1, -1))

    def test_sign_normalization(self):
        assert T2Singularity((0, 1, -1)).k == T2Singularity((0, -1, 1)).k
        assert T2Singularity((-1, 2, -1)).k == T2Singularity((1, -2, 1)).k

    @given(st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=60, deadline=None)
    def test_at_most_one_zero_entry(self, p, q):
        if (p, q) == (0, 0) or math.gcd(p, q) != 1:
            return
        s = k_from_generator(p, q)
        assert sum(1 for x in s.k if x == 0) <= 1
        assert sum(s.k) == 0


class TestKFromGenerator:
    def test_axis_generators(self):
        assert k_from_generator(1, 0).k == (0, 1, -1)
        assert k_from_generator(0, 1).k == (-1, 0, 1)

    def test_global_sign_quotient(self):
        assert k_from_generator(-1, 0).k == k_from_generator(1, 0).k
        assert k_from_generator(-3, -5).k == k_from_generator(3, 5).k

    def test_rejects_imprimitive(self):
        with pytest.raises(InputError):
            k_from_generator(2, 4)
        with pytest.raises(InputError):
            k_from_generator(0, 0)


class TestGluingCandidates:
    def test_reads_off_zero(self):
        assert gluing_candidates(T2Singularity((0, 1, -1))) == {1}
        assert gluing_candidates(T2Singularity((-1, 0, 1))) == {2}
        assert gluing_candidates(T2Singularity((1, -2, 1))) == set()

    @given(st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_at_most_one_candidate(self, p, q):
        if (p, q) == (0, 0) or math.gcd(p, q) != 1:
            return
        assert len(gluing_candidates(k_from_generator(p, q))) <= 1


class TestH1Order:
    def test_formula(self):
        s = T2Singularity((-2, 1, 1))
        assert h1_order(s, 3, 2) == 3
        assert h1_order(s, 3, 1) == 6

    def test_conservation_of_orders(self):
        # with k1 < 0 < k2, k3, gluing the first neck yields the same
        # order as the other two combined
        s = T2Singularity((-5, 2, 3))
        for h in (1, 4, 9):
            assert h1_order(s, h, 1) == h1_order(s, h, 2) + h1_order(s, h, 3)

    def test_zero_entry_undefined(self):
        assert h1_order(T2Singularity((0, 1, -1)), 5, 1) is None

    def test_validation(self):
        s = T2Singularity((0, 1, -1))
        with pytest.raises(InputError):
            h1_order(s, 0, 1)
        with pytest.raises(InputError):
            h1_order(s, 3, 4)


class TestFamilyRegion:
    def test_wall_with_trivial_k(self):
        res = family_region(0.0, 0)
        assert res == FamilyRegionResult("wall", None, True)

    def test_wall_with_nontrivial_k(self):
        res = family_region(0.0, 2)
        assert res.region == "wall"
        assert res.t is None
        assert not res.any_t

    def test_unit_solution(self):
        res = family_region(math.pi, 1)
        assert res.region == "positive"
        assert res.t == pytest.approx(1.0, rel=1e-15)

    def test_sign_mismatch_gives_no_scale(self):
        assert family_region(2.0, -1).t is None
        assert family_region(-2.0, 3).t is None

    @given(st.floats(-10, 10), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_scale_solves_the_equation(self, pairing, kj):
        res = family_region(pairing, kj)
        if res.t is not None:
            assert math.pi * res.t**2 * kj == pytest.approx(
                pairing, rel=1e-12, abs=1e-300
            )
            assert res.t > 0
        elif pairing != 0.0 and kj != 0:
            assert (pairing > 0) != (kj > 0)


class TestTwoSingularityGluings:
    def test_independent_scales(self):
        basis = T2PairBasis(((1, 0), (0, 0)), ((0, 0), (1, 0)))
        assert two_singularity_gluings(basis) == [GluingSolution(1, 1, None, 2)]

    def test_locked_ratio_single_family(self):
        r = Fraction(2, 3)
        basis = T2PairBasis(((1, 0), (r, 0)), ((2, -2), (5, 3)))
        assert two_singularity_gluings(basis) == [GluingSolution(1, 1, r, 1)]

    def test_two_distinct_gluings(self):
        r = Fraction(3, 2)
        basis = T2PairBasis(((1, 0), (0, r)), ((0, r), (1, 0)))
        sols = two_singularity_gluings(basis)
        assert len(sols) == 2
        assert GluingSolution(1, 2, r, 1) in sols
        assert GluingSolution(2, 1, 1 / r, 1) in sols

    def test_three_gluings_at_equal_parameter(self):
        basis = T2PairBasis(((1, 0), (0, 1)), ((0, 1), (1, 0)))
        sols = two_singularity_gluings(basis)
        assert len(sols) == 3
        one = Fraction(1)
        assert GluingSolution(1, 2, one, 1) in sols
        assert GluingSolution(2, 1, one, 1) in sols
        assert GluingSolution(3, 3, one, 1) in sols

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_reported_families_lie_in_span(self, seed):
        basis = random_consistent_basis(seed)
        for sol in two_singularity_gluings(basis):
            assert sol.dimY in (1, 2)
            if sol.ratio is None:
                assert sol.dimY == 2
                samples = [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(5, 3))]
            else:
                assert sol.ratio > 0  # scales degenerate together or not at all
                samples = [(Fraction(1), sol.ratio), (Fraction(3), 3 * sol.ratio)]
            for a1, a2 in samples:
                vec = family_vector(sol.j1, sol.j2, a1, a2)
                assert sympy_in_span(basis, vec)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_completeness_against_grid_oracle(self, seed):
        # any positive integer point of any type pair that the oracle
        # finds inside the span must be covered by a reported family
        basis = random_consistent_basis(seed)
        sols = {(s.j1, s.j2): s for s in two_singularity_gluings(basis)}
        for j1 in (1, 2, 3):
            for j2 in (1, 2, 3):
                for a1 in (1, 2, 3):
                    for a2 in (1, 2, 3):
                        inside = sympy_in_span(
                            basis, family_vector(j1, j2, Fraction(a1), Fraction(a2))
                        )
                        sol = sols.get((j1, j2))
                        covered = sol is not None and (
                            sol.ratio is None or sol.ratio == Fraction(a2, a1)
                        )
                        assert covered == inside

    def test_equals_elimination_oracle(self):
        rng = random.Random(20261018)
        families = 0
        for i in range(3000):
            basis = planted_basis(rng)[0] if i % 2 else random_rational_basis(rng)
            got = two_singularity_gluings(basis)
            assert got == elimination_oracle(basis), basis
            assert all(type(s.ratio) in (Fraction, type(None)) for s in got)
            families += bool(got)
        assert families > 1500

    def test_planted_families_are_found_and_lie_in_span(self):
        rng = random.Random(11)
        for _ in range(200):
            basis, (j1, j2, a1, a2) = planted_basis(rng)
            sols = two_singularity_gluings(basis)
            planted = next(s for s in sols if (s.j1, s.j2) == (j1, j2))
            assert planted.ratio in (None, a2 / a1)
            for sol in sols:
                assert sol.ratio is None or sol.ratio > 0
                ratios = [Fraction(1), Fraction(2)] if sol.ratio is None else [sol.ratio]
                for ratio in ratios:
                    vec = family_vector(sol.j1, sol.j2, Fraction(1), ratio)
                    assert sympy_in_span(basis, vec)

    def test_basis_validation(self):
        with pytest.raises(InputError):
            T2PairBasis(((1, 0), (0, 0)), ((2, 0), (0, 0)))  # dependent
        with pytest.raises(InputError):
            T2PairBasis(((1, 0), (0, 1)), ((0, 1), (2, 0)))  # pairing = -1

    def test_float_basis_entries_read_as_rationals(self):
        # pairing = 0.3 - 0.1 - 0.2: zero for the decimals, not for the
        # binary values of the floats; entries follow errors.as_rational
        basis = T2PairBasis(((1, 1), (0, 1)), ((0.1, 0.3), (0.2, 0)))
        assert basis.B2 == ((Fraction(1, 10), Fraction(3, 10)), (Fraction(1, 5), 0))
        exact = T2PairBasis(((1, 1), (0, 1)),
                            ((Fraction(1, 10), Fraction(3, 10)), (Fraction(1, 5), 0)))
        assert basis == exact

    def test_rational_string_basis_entries(self):
        basis = T2PairBasis(((1, 0), (0, "3/2")), ((0, "3/2"), (1, 0)))
        assert basis.B1 == ((1, 0), (0, Fraction(3, 2)))
        with pytest.raises(InputError, match=r"B1\[0\]\[1\] is not a valid rational"):
            T2PairBasis(((1, "x"), (0, 1)), ((0, 1), (1, 0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, True, None])
    def test_bad_basis_entry_is_input_error(self, bad):
        with pytest.raises(InputError, match=r"B1\[0\]\[1\] must be a finite rational"):
            T2PairBasis(((1, bad), (0, 1)), ((0, 1), (1, 0)))

    @pytest.mark.parametrize("b1, b2, name", [
        (((1, 0, 0), (0, 0)), ((0, 0), (1, 0)), "B1"),
        ((1, 0), ((0, 0), (1, 0)), "B1"),
        (((1, 0), (0, 0)), [[0, 0]], "B2"),
        (((1, 0), (0, 0)), {"u": 0, "v": 1}, "B2"),
        (((1, 0), "10"), ((0, 0), (1, 0)), "B1"),
    ])
    def test_malformed_shape_is_input_error(self, b1, b2, name):
        with pytest.raises(InputError, match=rf"^{name} must be \[\[u, v\], \[y, z\]\]$"):
            T2PairBasis(b1, b2)


def _sympy_rows(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in map(Fraction, r)] for r in rows])


def random_stack(rng, entry):
    """Four rows of width 4 from ``entry``, sometimes with a zero row, a
    multiple of another row or a sum of two others."""
    rows = [[entry(rng) for _ in range(4)] for _ in range(4)]
    if rng.random() < 0.5:
        i, j = rng.sample(range(4), 2)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        rows[i] = [c * x for x in rows[j]]
    if rng.random() < 0.3:
        i, j, k = rng.sample(range(4), 3)
        rows[i] = [x + y for x, y in zip(rows[j], rows[k])]
    if rng.random() < 0.2:
        rows[rng.randrange(4)] = [0] * 4
    return rows


def _int_entry(rng):
    return 0 if rng.random() < 0.3 else rng.randint(-10**6, 10**6)


def _fraction_entry(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


class TestExactKernels:
    """The Pluecker annihilator and the stack rank against sympy's exact
    ``nullspace`` and ``rank``."""

    @pytest.mark.parametrize("entry", [_int_entry, _fraction_entry])
    def test_rank_equals_sympy(self, entry):
        rng = random.Random(12)
        for _ in range(300):
            rows = random_stack(rng, entry)
            assert _rank(rows) == _sympy_rows(rows).rank(), rows
            k = rng.randint(1, 3)
            assert _rank(rows[:k]) == _sympy_rows(rows[:k]).rank(), rows[:k]

    @pytest.mark.parametrize("entry", [_int_entry, _fraction_entry])
    def test_annihilator_spans_the_sympy_nullspace(self, entry):
        rng = random.Random(13)
        checked = 0
        for _ in range(200):
            b1, b2 = random_stack(rng, entry)[:2]
            pair = _sympy_rows([b1, b2])
            if pair.rank() < 2:
                continue
            checked += 1
            c1, c2 = _annihilator(_integer_row(b1), _integer_row(b2))
            for c in (c1, c2):
                assert all(type(x) is int for x in c)
                assert sum(x * y for x, y in zip(c, b1)) == 0
                assert sum(x * y for x, y in zip(c, b2)) == 0
            assert _sympy_rows([c1, c2]).rank() == 2
            null = sympy.Matrix.hstack(*pair.nullspace()).T
            assert _sympy_rows([c1, c2]).col_join(null).rank() == 2
        assert checked > 150
