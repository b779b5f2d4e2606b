"""Spectrum module tests.

Two enumeration oracles tally Q(n) vector by vector.  The box oracle
deliberately ignores the package's ball bound: it scans the full cube
[-R-1, R+1]^(m-1), one step larger than any vector that could matter.
The ball oracle walks the ball sum n_i^2 <= cutoff depth first; it
reaches the larger m where the DP's band on the digit sum binds.  The
DP oracle is the (sum n_i, sum n_i^2) dynamic program the package counted
with before its multiset walk; it reaches the largest cutoffs that the
package served while it admitted requests by that program's size.
"""
from __future__ import annotations

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slcones import spectrum
from slcones.cli import _goldens
from slcones.errors import IncompleteSpectrumError, InputError
from slcones.spectrum import (
    ConeSpectrum,
    enumerate_spectrum,
    exponents,
    hl_eigenvalue,
    n_sigma,
    stability_index,
)


def box_oracle(m: int, cutoff: int) -> dict[int, int]:
    """Count Q(n) <= cutoff by scanning a strictly larger box."""
    r = math.isqrt(cutoff) + 1
    counts: dict[int, int] = {}
    for n in itertools.product(range(-r, r + 1), repeat=m - 1):
        q = m * sum(v * v for v in n) - sum(n) ** 2
        if q <= cutoff:
            counts[q] = counts.get(q, 0) + 1
    return counts


def ball_oracle(m: int, cutoff: int) -> dict[int, int]:
    """Count Q(n) <= cutoff over the ball sum n_i^2 <= cutoff by a
    depth-first search over the coordinates, each one bounded by the
    square sum the earlier ones left."""
    d = m - 1
    counts: dict[int, int] = {}

    def visit(i: int, s: int, t: int) -> None:
        if i == d or t == cutoff:  # the remaining coordinates are 0
            q = m * t - s * s
            if q <= cutoff:
                counts[q] = counts.get(q, 0) + 1
            return
        r = math.isqrt(cutoff - t)
        for v in range(-r, r + 1):
            visit(i + 1, s + v, t + v * v)

    visit(0, 0, 0)
    return counts


def dp_oracle(m: int, cutoff: int) -> np.ndarray:
    """``counts[q]`` = number of lattice vectors n with Q(n) = q, from an
    int64 DP over the joint distribution of (s, t) = (sum n_i, sum n_i^2).

    Q depends on n only through (s, t), and Q(n) >= ||n||^2, so the ball
    t <= cutoff holds every vector that matters.  The digit-sum axis stops
    at |s| <= min(d * r, cutoff): a prefix with square sum t <= cutoff has
    |s| <= sum |n_i| <= t, so any step that lands outside the band had
    t > cutoff and is dropped either way.
    """
    d = m - 1
    r = math.isqrt(cutoff)
    smax = min(d * r, cutoff)
    # ways[s + smax, t] = number of prefixes with digit sum s, square sum t
    ways = np.zeros((2 * smax + 1, cutoff + 1), dtype=np.int64)
    ways[smax, 0] = 1
    width = 2 * smax + 1
    for _ in range(d):
        new = np.zeros_like(ways)
        for v in range(-r, r + 1):
            v2 = v * v
            lo, hi = max(v, 0), max(-v, 0)
            new[lo:width - hi, v2:] += ways[hi:width - lo, : cutoff + 1 - v2]
        ways = new
    counts = np.zeros(cutoff + 1, dtype=np.int64)
    s_idx, t_idx = np.nonzero(ways)
    s = s_idx - smax
    q = m * t_idx - s * s
    keep = q <= cutoff
    np.add.at(counts, q[keep], ways[s_idx[keep], t_idx[keep]])
    return counts


#: the exact-sweep benchmark grid of (m, cutoff)
GRID = [
    (3, 50), (3, 200), (4, 100), (5, 100), (7, 60),
    (9, 40), (12, 30), (16, 30), (20, 30), (30, 30),
]

NOT_INTEGERS = [2.7, "3", True]


class TestEigenvalue:
    def test_zero_vector(self):
        assert hl_eigenvalue(3, (0, 0)) == 0

    def test_unit_vector(self):
        assert hl_eigenvalue(3, (1, 0)) == 2

    def test_m4_vector(self):
        assert hl_eigenvalue(4, (2, 1, 1)) == 8

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_strict_integers(self, bad):
        with pytest.raises(InputError, match="must be an integer"):
            hl_eigenvalue(bad, (1, 0))
        with pytest.raises(InputError, match="must be an integer"):
            hl_eigenvalue(3, (bad, 0))

    def test_integral_floats_accepted(self):
        assert hl_eigenvalue(3.0, (1.0, 0)) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            hl_eigenvalue(3, (1, 0, 0))
        with pytest.raises(InputError):
            hl_eigenvalue(2, (1,))

    @given(
        st.integers(min_value=3, max_value=8).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(
                    st.integers(min_value=-30, max_value=30),
                    min_size=m - 1,
                    max_size=m - 1,
                ),
            )
        )
    )
    def test_ball_bound(self, m_and_n):
        # Q(n) >= ||n||^2, the inequality that makes ball enumeration complete
        m, n = m_and_n
        assert hl_eigenvalue(m, n) >= sum(v * v for v in n)


class TestEnumerate:
    def test_m3_cutoff6(self):
        spec = enumerate_spectrum(3, 6)
        assert spec.entries == ((0, 1), (2, 6), (6, 6))

    def test_m4_cutoff8(self):
        spec = enumerate_spectrum(4, 8)
        assert spec.entries == ((0, 1), (3, 8), (4, 6), (8, 12))

    def test_cutoff_zero(self):
        assert enumerate_spectrum(3, 0).entries == ((0, 1),)

    def test_negative_cutoff(self):
        with pytest.raises(InputError):
            enumerate_spectrum(3, -1)

    def test_small_m(self):
        with pytest.raises(InputError):
            enumerate_spectrum(2, 5)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    @pytest.mark.parametrize("cutoff", [0, 7, 19, 30])
    def test_against_box_oracle(self, m, cutoff):
        spec = enumerate_spectrum(m, cutoff)
        assert {int(lam): mult for lam, mult in spec.entries} == box_oracle(
            m, cutoff
        )
        # the unchecked build equals the checked one, field types included
        checked = ConeSpectrum(m, spec.entries, cutoff)
        assert spec == checked
        assert [type(x) for x in spec] == [type(x) for x in checked] == [int, tuple, Fraction]
        assert {type(x) for e in spec.entries for x in e} <= {int}

    # (m - 1) * isqrt(cutoff) > cutoff at each point, so the DP's band
    # |s| <= cutoff is narrower than the digit-sum range of the ball.  At
    # cutoff = m - 1 the all-ones vector sits on the band's edge:
    # s = t = m - 1 and Q = m - 1.
    @pytest.mark.parametrize("m, cutoff", [
        (8, 10), (10, 8), (16, 4), (30, 3), (7, 20), (8, 16), (10, 14),
        (8, 7), (10, 9),
    ])
    def test_against_ball_oracle_where_the_band_binds(self, m, cutoff):
        assert (m - 1) * math.isqrt(cutoff) > cutoff
        spec = enumerate_spectrum(m, cutoff)
        assert {int(lam): mult for lam, mult in spec.entries} == ball_oracle(
            m, cutoff
        )

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_strict_integers(self, bad):
        with pytest.raises(InputError, match="must be an integer"):
            enumerate_spectrum(bad, 6)
        with pytest.raises(InputError, match="must be an integer"):
            enumerate_spectrum(3, bad)

    def test_integral_floats_accepted(self):
        spec = enumerate_spectrum(3.0, 6.0)
        assert spec.entries == enumerate_spectrum(3, 6).entries
        assert spec.m == 3 and type(spec.m) is int

    # the table's cutoff + 1 cells alone pass the budget: refused at once,
    # before the table is allocated
    @pytest.mark.parametrize("call", [
        lambda: enumerate_spectrum(3, 10**8),
        lambda: stability_index(10**7),
    ], ids=["cutoff", "stability"])
    def test_over_budget_is_input_error(self, call):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="units of work"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 10**6

    def test_work_budget_admits_mid_m_stability(self):
        # m = 76..135 fit the banded table of the retired DP's bound;
        # values from that DP with its bound lifted
        assert stability_index(76).s_ind == 5700
        assert stability_index(100).s_ind == 9900

    # requests the retired DP-cell bound refused, now served
    @pytest.mark.parametrize("m, cutoff", [(3, 10**5), (10**9, 0)])
    def test_served_past_the_retired_bound(self, m, cutoff):
        spec = enumerate_spectrum(m, cutoff)
        assert {int(lam): mult for lam, mult in spec.entries} == ball_oracle(m, cutoff)

    def test_stability_past_the_retired_bound(self):
        rep = stability_index(136)
        counts = dp_oracle(136, 272)
        assert (rep.n_sigma2, rep.m_sigma2) == (int(counts.sum()), int(counts[272]))
        assert rep.s_ind == 136 * 135 and not rep.stable and rep.rigid

    def test_work_budget_is_inclusive(self, monkeypatch):
        # the work of (m, cutoff) = (4, 9): 10 table cells, 4 walk nodes
        # and 8 values in the ranges it scans
        work = 10 + 15 * 4 + 8
        monkeypatch.setattr(spectrum, "MAX_WALK_WORK", work)
        assert enumerate_spectrum(4, 9).entries[0] == (0, 1)
        monkeypatch.setattr(spectrum, "MAX_WALK_WORK", work - 1)
        with pytest.raises(InputError, match="units of work"):
            enumerate_spectrum(4, 9)

    # the table fits the budget with 100 units to spare, and the walk's
    # count passes it at a node (m = 11), at a range of the rem coordinates
    # at one value (m = 3) or at an inlined range of the last one (m = 4)
    @pytest.mark.parametrize("m, cutoff", [(11, 200), (3, 5000), (4, 1000)])
    def test_refused_mid_walk(self, m, cutoff, monkeypatch):
        monkeypatch.setattr(spectrum, "MAX_WALK_WORK", cutoff + 101)
        with pytest.raises(InputError, match="units of work"):
            enumerate_spectrum(m, cutoff)

    @pytest.mark.parametrize("m, cutoff", GRID + [
        (m, 2 * m) for m in range(3, 41)
    ] + [
        (8, 7), (10, 9), (40, 100), (100, 200), (3, 2000), (12, 400),
    ])
    def test_against_dp_oracle(self, m, cutoff):
        assert spectrum._counts(m, cutoff) == dp_oracle(m, cutoff).tolist()

    # the largest cutoffs the retired DP-cell bound let through at these
    # m, where the DP oracle takes about a second each; the walk's budget
    # admits larger ones
    @pytest.mark.parametrize("m, cutoff", [(60, 410), (135, 272)])
    def test_against_dp_oracle_at_large_cutoffs(self, m, cutoff):
        assert spectrum._counts(m, cutoff) == dp_oracle(m, cutoff).tolist()

    def test_counts_are_python_ints(self):
        assert all(type(c) is int for c in spectrum._counts(7, 60))

    # admitted requests at huge m: the walk's work depends on cutoff / m,
    # not on m, where the DP's time grew linearly in m
    @pytest.mark.parametrize("m, cutoff", [(2 * 10**7 + 1, 0), (3_300_000, 1)])
    def test_huge_m_is_fast(self, m, cutoff):
        start = time.perf_counter()
        spec = enumerate_spectrum(m, cutoff)
        assert time.perf_counter() - start < 1.0
        assert dict(spec.entries) == {0: 1}

    def test_deterministic(self):
        a = enumerate_spectrum(6, 25)
        b = enumerate_spectrum(6, 25)
        assert a == b


class TestGenericTable:
    def test_merges_duplicate_eigenvalues(self):
        spec = ConeSpectrum(3, [(2, 4), (2, 2), (0, 1)], 6)
        assert spec.entries == ((0, 1), (2, 6))

    def test_ascending_int_table_is_kept_as_it_is(self):
        spec = ConeSpectrum(3, [(0, 1), (2, 6), (6, 6)], 6)
        assert spec.entries == ((0, 1), (2, 6), (6, 6))
        assert all(type(lam) is int for lam, _ in spec.entries)
        assert all(type(lam) is int for lam, _ in enumerate_spectrum(4, 30).entries)

    def test_unsorted_or_repeated_tables_are_merged_and_sorted(self):
        spec = ConeSpectrum(3, [(0, 1), (Fraction(5, 2), 3), (2, 1), (Fraction(2), 4)], 6)
        assert spec.entries == ((0, 1), (2, 5), (Fraction(5, 2), 3))
        assert ConeSpectrum(3, [(2, 1), (2, 2)], 6).entries == ((2, 3),)

    @pytest.mark.parametrize("rows", [[(0, 1), (7, 1), (9, 1)], [(9, 1), (7, 1), (0, 1)]])
    def test_cutoff_error_names_the_smallest_excess(self, rows):
        with pytest.raises(InputError, match="^eigenvalue 7 exceeds the declared cutoff 6$"):
            ConeSpectrum(3, rows, 6)

    def test_rational_eigenvalues(self):
        spec = ConeSpectrum(3, [(0, 1), (Fraction(5, 2), 3)], 4)
        assert spec.multiplicity(Fraction(5, 2)) == 3

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_strict_integers(self, bad):
        with pytest.raises(InputError, match="must be an integer"):
            ConeSpectrum(bad, [(0, 1)], 6)
        with pytest.raises(InputError, match="must be an integer"):
            ConeSpectrum(3, [(0, bad)], 6)

    def test_rejects_bad_rows(self):
        with pytest.raises(InputError):
            ConeSpectrum(3, [(-1, 2)], 6)
        with pytest.raises(InputError):
            ConeSpectrum(3, [(1, 0)], 6)
        with pytest.raises(InputError):
            ConeSpectrum(3, [(7, 1)], 6)  # exceeds cutoff

    @pytest.mark.parametrize("bad", [True, False, math.nan, math.inf, "2", None])
    def test_real_inputs_read_by_the_rational_policy(self, bad):
        # errors.as_rational: a bool is not a number here, although it is
        # a numbers.Rational
        data = exponents(enumerate_spectrum(3, 6))
        calls = [
            lambda: n_sigma(data, bad),
            lambda: data.multiplicity_at(bad),
            lambda: ConeSpectrum(3, [(bad, 1)], 6),
            lambda: ConeSpectrum(3, [(0, 1)], bad),
        ]
        for call in calls:
            with pytest.raises(InputError, match="must be a finite rational"):
                call()

    def test_float_inputs_read_as_their_decimals(self):
        spec = ConeSpectrum(3, [(0.1, 1), (Fraction(1, 10), 2)], 0.3)
        assert spec.entries == ((Fraction(1, 10), 3),)
        assert spec.cutoff == Fraction(3, 10)


class TestExponents:
    def test_m3_lambda2(self):
        data = exponents(enumerate_spectrum(3, 6))
        assert data.multiplicity_at(1) == 6
        assert data.multiplicity_at(-2) == 6
        plus = [e for e in data.entries if e.lam == 2 and e.branch == 1]
        assert len(plus) == 1 and plus[0].alpha == pytest.approx(1.0)

    def test_lambda_zero_roots(self):
        data = exponents(enumerate_spectrum(3, 6))
        assert data.multiplicity_at(0) == 1
        assert data.multiplicity_at(2 - 3) == 1

    def test_m4_irrational_root(self):
        data = exponents(enumerate_spectrum(4, 8))
        entry = [e for e in data.entries if e.lam == 4 and e.branch == 1][0]
        assert entry.alpha == pytest.approx(math.sqrt(5) - 1, abs=1e-12)
        assert entry.multiplicity == 6

    def test_gap_interval_empty(self):
        # no exponents fall strictly between 2-m and 0
        for m in (3, 4, 5):
            data = exponents(enumerate_spectrum(m, 2 * m))
            for e in data.entries:
                assert not (2 - m + 1e-9 < e.alpha < -1e-9)

    def test_order_is_exact_where_float_roots_tie(self):
        # two eigenvalues closer than an ulp share both float roots; the
        # lower root of the larger one is the smaller exponent
        lam = 1 + Fraction(1, 10**30)
        data = exponents(ConeSpectrum(3, [(1, 1), (lam, 2)], 2))
        assert data.entries[0].alpha == data.entries[1].alpha
        assert [(e.lam, e.branch) for e in data.entries] == [
            (lam, -1), (1, -1), (1, 1), (lam, 1),
        ]


class TestNSigma:
    def test_table1_values(self):
        for m, n2 in [(3, 13), (7, 169)]:
            data = exponents(enumerate_spectrum(m, 2 * m))
            assert n_sigma(data, 2) == n2

    def test_zero_on_gap_interval(self):
        data = exponents(enumerate_spectrum(3, 6))
        assert n_sigma(data, -0.5) == 0
        assert n_sigma(data, Fraction(-99, 100)) == 0

    def test_refuses_insufficient_cutoff(self):
        data = exponents(enumerate_spectrum(3, 6))
        with pytest.raises(IncompleteSpectrumError):
            n_sigma(data, 2.001)
        # delta = 2 needs lambda up to exactly 6: fine
        assert n_sigma(data, 2) == 13

    def test_exact_threshold_semantics(self):
        # alpha = 1 occurs for m = 3 (lam = 2); the count jumps there
        data = exponents(enumerate_spectrum(3, 6))
        assert n_sigma(data, 1) - n_sigma(data, Fraction(999, 1000)) == 6

    @given(
        st.fractions(
            min_value=0, max_value=2, max_denominator=50
        ),
        st.fractions(
            min_value=0, max_value=2, max_denominator=50
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_increasing(self, d1, d2):
        data = exponents(enumerate_spectrum(4, 8))
        lo, hi = sorted([d1, d2])
        assert n_sigma(data, lo) <= n_sigma(data, hi)

    def test_negative_branch_counts_negatively(self):
        # in a generic table with exponents inside (delta, 0), the count
        # is minus the multiplicity sum
        m = 3
        # pick lam so that the lower root is -1/2: alpha(alpha+1) = -1/4 is
        # negative, not a valid eigenvalue; instead use a table with an
        # eigenvalue whose *lower* root lands in (-1, 0): impossible for
        # m = 3 since lower roots are <= -1.  Use delta < 2-m to capture
        # lower roots of small eigenvalues instead.
        data = exponents(enumerate_spectrum(m, 6))
        # lower roots: lam=0 -> -1, lam=2 -> -2, lam=6 -> -3
        assert n_sigma(data, Fraction(-3, 2)) == -1
        assert n_sigma(data, Fraction(-5, 2)) == -7


class TestStability:
    @pytest.mark.parametrize("m,n2,m2,sind", [
        (int(m), *row) for m, row in _goldens("stability").items()
    ])
    def test_table1(self, m, n2, m2, sind):
        rep = stability_index(m)
        assert (rep.n_sigma2, rep.m_sigma2, rep.s_ind) == (n2, m2, sind)

    @pytest.mark.parametrize("m", [10, 11, 12])
    def test_asymptotic_identities(self, m):
        rep = stability_index(m)
        assert rep.n_sigma2 == 2 * m * m + 1
        assert rep.m_sigma2 == m * m - m

    def test_rigid_iff_not_8_9(self):
        for m in range(3, 13):
            assert stability_index(m).rigid == (m not in (8, 9))

    def test_stable_only_m3(self):
        for m in range(3, 13):
            rep = stability_index(m)
            assert rep.stable == (m == 3)
            if rep.stable:
                assert rep.rigid  # stability implies rigidity

    def test_multiplicity_bounds(self):
        for m in range(3, 10):
            spec = enumerate_spectrum(m, 2 * m)
            data = exponents(spec)
            assert data.multiplicity_at(0) == 1
            # alpha = 1 corresponds to lam = m-1
            assert data.multiplicity_at(1) >= 2 * m
            assert stability_index(m).m_sigma2 >= m * m - 1 - (m - 1)

    def test_s_ind_nonnegative(self):
        for m in range(3, 13):
            assert stability_index(m).s_ind >= 0

    def test_rejects_small_m(self):
        with pytest.raises(InputError):
            stability_index(2)

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_strict_integers(self, bad):
        with pytest.raises(InputError, match="must be an integer"):
            stability_index(bad)

    def test_integral_floats_accepted(self):
        assert stability_index(3.0) == stability_index(3)

    # the exponent route, table -> exponents -> n_sigma and multiplicity,
    # is the oracle of the two cells the report reads off the count table
    @pytest.mark.parametrize("m", range(3, 41))
    def test_equals_the_exponent_route(self, m):
        spec = enumerate_spectrum(m, 2 * m)
        rep = stability_index(m)
        assert rep.n_sigma2 == n_sigma(exponents(spec), 2)
        assert rep.m_sigma2 == spec.multiplicity(2 * m)

    def test_refused_as_the_table_is(self):
        # one past the largest m admitted (test_asymptotic_counts)
        msg = ("spectrum for m = 1699981, cutoff = 3399962 needs more than "
               f"{spectrum.MAX_WALK_WORK} units of work")
        for call in (lambda: stability_index(1699981),
                     lambda: enumerate_spectrum(1699981, 3399962)):
            with pytest.raises(InputError) as exc:
                call()
            assert str(exc.value) == msg
