"""Tests for the torus-cone k-calculus and two-point gluing solver.

Span membership in the gluing tests is cross-checked with sympy's exact
rational rank computation, which shares no code with the module's own
annihilator/elimination path.
"""
import math
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
