"""Tests for connected-sum feasibility, exact balance, and phase regions.

The exhaustive bipartition oracle is the reference implementation for
the strong-connectivity criterion; the two are compared on every small
digraph and on randomized larger ones.  The max-flow verdict of
family_balance_region is compared with Fourier-Motzkin elimination on
small graphs and with the exhaustive cut condition on larger ones.
"""
import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slcones.consum import (
    BalanceSolution,
    Edge,
    IntersectionGraph,
    PhaseFamilyQuery,
    bipartition_oracle,
    check_balance,
    family_balance_region,
    feasible,
    moduli_dim_relation,
    phase_region,
    solve_areas,
)
from slcones.errors import (
    DegeneratePhaseError,
    InfeasibleGraphError,
    InputError,
    PreconditionError,
    as_finite,
    as_rational,
)


def random_connected_graph(seed, q, extra):
    """Random digraph on q vertices whose underlying graph is connected:
    a random spanning tree with random orientations plus extra edges."""
    rng = np.random.default_rng(seed)
    edges = []
    for v in range(2, q + 1):
        u = int(rng.integers(1, v))
        tail, head = (u, v) if rng.random() < 0.5 else (v, u)
        edges.append((tail, head, Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 6)))))
    for _ in range(extra):
        u = int(rng.integers(1, q + 1))
        v = int(rng.integers(1, q + 1))
        edges.append((u, v, Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 6)))))
    return IntersectionGraph(q, edges)


def chorded_cycle(seed, q):
    """Strongly connected digraph: a shuffled Hamiltonian cycle plus q
    random chords (self-loops and parallel edges allowed), in shuffled
    edge order, with random rational weights."""
    rng = random.Random(seed)
    order = list(range(1, q + 1))
    rng.shuffle(order)
    pairs = [(order[i], order[(i + 1) % q]) for i in range(q)]
    pairs += [(rng.randint(1, q), rng.randint(1, q)) for _ in range(q)]
    rng.shuffle(pairs)
    return IntersectionGraph(
        q, [(u, v, Fraction(rng.randint(1, 12), rng.randint(1, 12))) for u, v in pairs]
    )


def undirected_connected(q, pairs):
    if q == 1:
        return True
    adj = {v: set() for v in range(1, q + 1)}
    for t, h in pairs:
        adj[t].add(h)
        adj[h].add(t)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == q


def fm_oracle(g, pairings) -> bool:
    """Reference for family_balance_region without areas (t = 1): exact
    strict feasibility of the weighted balance rows with x > 0, by
    Fraction Gauss-Jordan elimination and then Fourier-Motzkin
    elimination of the free variables (no redundancy removal, so for
    small graphs only)."""
    b = [as_rational(p, "pairing") for p in pairings]
    if sum(b) != 0:
        return False
    n = g.n
    rows = []
    for k in range(1, g.q + 1):
        row = [Fraction(0)] * (n + 1)
        for idx, e in enumerate(g.edges):
            if e.tail == k:
                row[idx] += e.weight
            if e.head == k:
                row[idx] -= e.weight
        row[n] = b[k - 1]
        rows.append(row)
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        row = [x / rows[p][c] for x in rows[p]]
        rows[p], rows[r] = rows[r], row
        for i, other in enumerate(rows):
            f = other[c]
            if i != r and f != 0:
                rows[i] = [x - f * y for x, y in zip(other, row)]
        pivots.append(c)
    if any(row[n] != 0 for row in rows[len(pivots):]):
        return False
    # each pivot variable is affine in the free ones and must be > 0, as
    # must every free one: rows (a, c) stand for a . free + c > 0
    free = [c for c in range(n) if c not in pivots]
    ineqs = [[-rows[r][f] for f in free] + [rows[r][n]] for r in range(len(pivots))]
    ineqs += [[Fraction(int(i == j)) for j in range(len(free))] + [Fraction(0)]
              for i in range(len(free))]
    for v in range(len(free) - 1, -1, -1):
        pos = [q for q in ineqs if q[v] > 0]
        neg = [q for q in ineqs if q[v] < 0]
        ineqs = [q for q in ineqs if q[v] == 0] + [
            [a / p[v] - c / ng[v] for a, c in zip(p, ng)] for p in pos for ng in neg
        ]
    return all(q[-1] > 0 for q in ineqs)


def cut_oracle(g, pairings) -> bool:
    """Literal exhaustive evaluation of the cut condition of Gale and
    Hoffman (2^q subsets): some x > 0 balances to the pairings b iff
    sum(b) = 0 and every vertex set S that no edge enters has b(S) > 0,
    or b(S) >= 0 when no edge leaves it either."""
    b = [as_rational(p, "pairing") for p in pairings]
    if sum(b) != 0:
        return False
    preds = [0] * g.q  # bit masks of the tails of edges into each vertex
    succs = [0] * g.q  # and of the heads of edges out of it
    for e in g.edges:
        preds[e.head - 1] |= 1 << (e.tail - 1)
        succs[e.tail - 1] |= 1 << (e.head - 1)
    for mask in range(1, 2**g.q):
        members = [k for k in range(g.q) if mask >> k & 1]
        if any(preds[k] & ~mask for k in members):
            continue
        bs = sum(b[k] for k in members)
        leaves = any(succs[k] & ~mask for k in members)
        if bs < 0 or (leaves and bs == 0):
            return False
    return True


def random_flow_case(rng, q: int, n: int) -> tuple:
    """A digraph on q vertices with n edges (self-loops and parallel edges
    allowed, not necessarily connected) and integer pairings: half of
    them the balance of planted positive flows, some of those perturbed
    by one unit between two components, the rest random with sum 0."""
    edges = [(rng.randint(1, q), rng.randint(1, q),
              Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(n)]
    g = IntersectionGraph(q, edges)
    b = [0] * q
    if rng.random() < 0.5:
        for u, v, _ in edges:
            x = rng.randint(1, 4)
            b[u - 1] += x
            b[v - 1] -= x
        if rng.random() < 0.4:
            i, j = rng.randrange(q), rng.randrange(q)
            b[i] += 1
            b[j] -= 1
    else:
        b = [rng.randint(-3, 3) for _ in range(q - 1)]
        b.append(-sum(b))
    if rng.random() < 0.1:
        b[rng.randrange(q)] += rng.choice((-1, 1))  # a sum that is not zero
    return g, b


def acyclic_tournament(q: int) -> IntersectionGraph:
    return IntersectionGraph(q, [(a, b, 1) for a in range(1, q + 1)
                                 for b in range(a + 1, q + 1)])


class TestFeasible:
    def test_two_cycle(self):
        assert feasible(IntersectionGraph(2, [(1, 2, 1), (2, 1, 8)]))

    def test_parallel_edges_one_way(self):
        assert not feasible(IntersectionGraph(2, [(1, 2, 1), (1, 2, 1)]))

    def test_single_component_vacuous(self):
        assert feasible(IntersectionGraph(1, []))
        assert feasible(IntersectionGraph(1, [(1, 1, 5), (1, 1, 2)]))

    def test_disconnected_rejected(self):
        g = IntersectionGraph(3, [(1, 2, 1), (2, 1, 1)])
        with pytest.raises(PreconditionError):
            feasible(g)
        with pytest.raises(PreconditionError):
            bipartition_oracle(g)

    def test_self_loops_never_matter(self):
        base = IntersectionGraph(2, [(1, 2, 1), (2, 1, 1)])
        looped = IntersectionGraph(2, [(1, 2, 1), (2, 1, 1), (1, 1, 7), (2, 2, 3)])
        assert feasible(base) == feasible(looped) is True
        bad = IntersectionGraph(2, [(1, 2, 1), (1, 1, 7)])
        assert not feasible(bad)

    def test_input_validation(self):
        with pytest.raises(InputError):
            IntersectionGraph(0, [])
        with pytest.raises(InputError):
            IntersectionGraph(2, [(1, 3, 1)])
        with pytest.raises(InputError):
            Edge(1, 2, 0)
        with pytest.raises(InputError):
            Edge(1, 2, Fraction(-1, 2))

    @pytest.mark.parametrize("bad", ["abc", "2", True, 1.5, float("inf"), float("nan"), None])
    def test_integer_fields_are_strict(self, bad):
        with pytest.raises(InputError):
            IntersectionGraph(bad, [])
        with pytest.raises(InputError):
            Edge(bad, 1, 1)
        with pytest.raises(InputError):
            Edge(1, bad, 1)

    def test_integral_floats_and_numpy_ints_accepted(self):
        g = IntersectionGraph(2.0, [(np.int64(1), 2.0, 1), (2, 1, 1)])
        assert g.q == 2 and type(g.q) is int
        assert (g.edges[0].tail, g.edges[0].head) == (1, 2)
        assert type(g.edges[0].tail) is int and type(g.edges[0].head) is int

    def test_disconnected_message_counts_pieces(self):
        g = IntersectionGraph(5, [(1, 2, 1), (2, 1, 1), (4, 3, 1)])
        with pytest.raises(PreconditionError, match="found 3 pieces"):
            feasible(g)


class TestOracleAgreement:
    def test_exhaustive_two_vertices(self):
        # every digraph on 2 vertices with up to 3 edges
        kinds = [(1, 1), (1, 2), (2, 1), (2, 2)]
        for n in range(1, 4):
            for combo in itertools.combinations_with_replacement(kinds, n):
                if not undirected_connected(2, combo):
                    continue
                g = IntersectionGraph(2, [(t, h, 1) for t, h in combo])
                assert feasible(g) == bipartition_oracle(g), combo

    def test_directed_three_cycle(self):
        g = IntersectionGraph(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])
        assert bipartition_oracle(g)
        assert feasible(g)

    @given(st.integers(0, 10**6), st.integers(2, 5), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_randomized_agreement(self, seed, q, extra):
        g = random_connected_graph(seed, q, extra)
        assert feasible(g) == bipartition_oracle(g)

    def test_oracle_size_limit(self):
        edges = [(v, v + 1, 1) for v in range(1, 21)] + [(21, 1, 1)]
        with pytest.raises(InputError):
            bipartition_oracle(IntersectionGraph(21, edges))


class TestSolveAreas:
    def test_two_cycle_weighted(self):
        sol = solve_areas(IntersectionGraph(2, [(1, 2, 1), (2, 1, 8)]))
        assert sol.A == (Fraction(1), Fraction(1, 8))

    def test_single_self_loop(self):
        sol = solve_areas(IntersectionGraph(1, [(1, 1, 5)]))
        assert sol.A == (Fraction(1, 5),)

    def test_unit_triangle(self):
        sol = solve_areas(IntersectionGraph(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)]))
        assert sol.A == (Fraction(1), Fraction(1), Fraction(1))

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleGraphError):
            solve_areas(IntersectionGraph(2, [(1, 2, 1), (1, 2, 1)]))

    # Both graphs offer several shortest return paths for some edges; the
    # areas pin the choice (first in edge order, breadth first).
    def test_frozen_areas_four_components(self):
        g = IntersectionGraph(4, [(1, 2, 1), (1, 3, 2), (2, 4, 3), (3, 4, 1),
                                  (4, 1, 5), (2, 3, Fraction(1, 2)), (3, 1, 1)])
        assert solve_areas(g).A == (4, Fraction(3, 2), 1, 1, Fraction(4, 5), 2, 3)

    def test_frozen_areas_six_components(self):
        g = IntersectionGraph(6, [(1, 2, 1), (2, 3, 2), (3, 4, Fraction(1, 3)),
                                  (4, 5, 1), (5, 6, 4), (6, 1, 1), (1, 4, 3),
                                  (4, 1, 2), (2, 5, 1), (6, 3, Fraction(5, 2)),
                                  (5, 2, 1), (3, 3, 7)])
        assert solve_areas(g).A == (3, 1, 12, 4, Fraction(5, 4), 3, 1, Fraction(3, 2), 4,
                                    Fraction(4, 5), 3, Fraction(1, 7))

    # The chords give many edges several shortest return paths; these
    # digests of "p/q" areas pin which one the search takes.
    @pytest.mark.parametrize("q, digest", [
        (50, "4a8a291594b221df1e2b41c9df0be9f5ec2c18b201a64480c24853dbcf908d46"),
        (100, "be37aa89aea4481f585fc6b2d321908e125b9084966f8702174255ef48b4bead"),
        (200, "268bf404160f5030cbcfc2f45913fcd1e7526e664b03252f7bd155acb25a80a3"),
    ])
    def test_frozen_areas_chorded_cycles(self, q, digest):
        areas = solve_areas(chorded_cycle(q, q)).A
        text = ",".join(f"{a.numerator}/{a.denominator}" for a in areas)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_solutions_positive_balanced_normalized(self, seed, q, extra):
        g = random_connected_graph(seed, q, extra)
        if not feasible(g):
            with pytest.raises(InfeasibleGraphError):
                solve_areas(g)
            return
        sol = solve_areas(g)
        assert all(a > 0 for a in sol.A)
        assert check_balance(g, sol)
        if g.n:
            assert min(a * e.weight for a, e in zip(sol.A, g.edges)) == 1
        # scale invariance of balance
        scaled = BalanceSolution([3 * a / 7 for a in sol.A])
        assert check_balance(g, scaled)

    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_balance_rows_sum_to_zero(self, seed, q, extra):
        # each edge enters one balance equation positively and one
        # negatively, so the q equations always sum to the zero form
        g = random_connected_graph(seed, q, extra)
        rng = np.random.default_rng(seed + 1)
        arbitrary = BalanceSolution(
            [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in g.edges]
        )
        total = Fraction(0)
        for k in range(1, g.q + 1):
            for e, a in zip(g.edges, arbitrary.A):
                if e.tail == k:
                    total += e.weight * a
                if e.head == k:
                    total -= e.weight * a
        assert total == 0


class TestModuliDim:
    def test_two_spheres_single_sum(self):
        r = moduli_dim_relation(1, 2, 0)
        assert r.b1 == 0
        assert not r.index_one

    def test_formula(self):
        assert moduli_dim_relation(2, 2, 3).b1 == 4

    def test_index_one_boundary(self):
        assert moduli_dim_relation(2, 2, 0).index_one
        assert moduli_dim_relation(3, 3, 1).index_one
        assert not moduli_dim_relation(3, 2, 0).index_one

    def test_too_few_sums(self):
        with pytest.raises(InputError):
            moduli_dim_relation(1, 3, 0)
        with pytest.raises(InputError):
            moduli_dim_relation(2, 2, -1)

    @pytest.mark.parametrize("bad", [2.7, "3", True])
    def test_strict_integers(self, bad):
        for args in ((bad, 2, 0), (3, bad, 0), (3, 2, bad)):
            with pytest.raises(InputError, match="must be an integer"):
                moduli_dim_relation(*args)

    def test_integral_floats_accepted(self):
        assert moduli_dim_relation(3.0, 2.0, 1.0) == moduli_dim_relation(3, 2, 1)


class TestPhaseRegion:
    def test_equal_phases_wall(self):
        res = phase_region(PhaseFamilyQuery(2, 3, 0.0, 0.0, 1.0, 3))
        assert res.region == "wall"
        assert res.t is None

    def test_symmetric_positive(self):
        res = phase_region(PhaseFamilyQuery(1, 1, 0.1, -0.1, 1.0, 3))
        assert res.region == "positive"
        assert res.t == pytest.approx(math.sin(0.1) ** (1 / 3), rel=1e-12)

    @given(
        st.floats(0.2, 3.0), st.floats(0.2, 3.0),
        st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
        st.integers(3, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry_and_second_equation(self, r1, r2, th1, th2, m):
        qr = phase_region(PhaseFamilyQuery(r1, r2, th1, th2, 1.3, m))
        flipped = phase_region(PhaseFamilyQuery(r1, r2, -th1, -th2, 1.3, m))
        swap = {"positive": "negative", "negative": "positive", "wall": "wall"}
        assert flipped.region == swap[qr.region]
        if qr.region == "positive":
            # the mirror equation R2 sin(th2 - th) = -t^m psi^m holds for free
            z = r1 * np.exp(1j * th1) + r2 * np.exp(1j * th2)
            th = np.angle(z)
            assert r2 * math.sin(th2 - th) == pytest.approx(
                -(qr.t**m) * 1.3**m, rel=1e-9, abs=1e-12
            )

    def test_antipodal_cancellation(self):
        with pytest.raises(DegeneratePhaseError):
            phase_region(PhaseFamilyQuery(1.0, 1.0, 0.0, math.pi, 1.0, 3))

    def test_validation(self):
        with pytest.raises(InputError):
            PhaseFamilyQuery(0.0, 1.0, 0.0, 0.0, 1.0, 3)
        with pytest.raises(InputError):
            PhaseFamilyQuery(1.0, 1.0, 0.0, 0.0, -1.0, 3)

    @pytest.mark.parametrize("bad", [2.7, "3", True])
    def test_dimension_is_a_strict_integer(self, bad):
        with pytest.raises(InputError, match="must be an integer"):
            PhaseFamilyQuery(1.0, 1.0, 0.5, -0.5, 1.0, bad)
        assert PhaseFamilyQuery(1.0, 1.0, 0.5, -0.5, 1.0, 3.0).m == 3


class TestFamilyBalanceRegion:
    def test_single_edge_cases(self):
        g = IntersectionGraph(2, [(1, 2, 1)])
        assert family_balance_region(g, [2.0, -2.0], 1.0)
        assert not family_balance_region(g, [-2.0, 2.0], 1.0)
        assert not family_balance_region(g, [1.0, 1.0], 1.0)

    def test_with_explicit_areas(self):
        g = IntersectionGraph(2, [(1, 2, 1)])
        sol = BalanceSolution([Fraction(2)])
        assert family_balance_region(g, [2.0, -2.0], 1.0, sol)
        assert family_balance_region(g, [16.0, -16.0], 2.0, sol)
        assert not family_balance_region(g, [2.0, -2.0], 2.0, sol)
        assert family_balance_region(g, [2.0 * 2**4, -2.0 * 2**4], 2.0, sol, m=4)

    def test_balanced_areas_zero_pairings_any_t(self):
        g = IntersectionGraph(2, [(1, 2, 1), (2, 1, 8)])
        sol = solve_areas(g)
        for t in (0.1, 1.0, 17.5):
            assert family_balance_region(g, [0.0, 0.0], t, sol)

    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(0, 5),
           st.floats(0.1, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_zero_pairings_reduce_to_feasibility(self, seed, q, extra, t):
        g = random_connected_graph(seed, q, extra)
        assert family_balance_region(g, [0.0] * q, t) == feasible(g)

    def test_scale_independence_without_areas(self):
        g = IntersectionGraph(3, [(1, 2, 1), (2, 3, 2), (3, 1, 4)])
        pairings = [3.0, -1.0, -2.0]
        answers = {family_balance_region(g, pairings, t, m=m)
                   for t in (0.25, 1.0, 4.0) for m in (3, 5)}
        assert len(answers) == 1

    @given(st.integers(0, 10**6), st.integers(-256, 256), st.integers(-256, 256))
    @settings(max_examples=25, deadline=None)
    def test_feasible_graph_accepts_every_zero_sum_pairing(self, seed, n1, n2):
        # adding a large multiple of the positive circulation fixes signs,
        # so a feasible graph realizes every pairing vector summing to zero
        # (pairings on a 1/64 grid keep the float sum exactly zero)
        g = random_connected_graph(seed, 3, 3)
        if not feasible(g):
            return
        p1, p2 = n1 / 64.0, n2 / 64.0
        assert family_balance_region(g, [p1, p2, -(p1 + p2)], 1.0)

    def test_infeasible_graph_accepts_only_matching_signs(self):
        # both edges point 1 -> 2, so the flow imbalance at 1 is positive
        g = IntersectionGraph(2, [(1, 2, 1), (1, 2, 3)])
        assert not feasible(g)
        assert family_balance_region(g, [2.0, -2.0], 1.0)
        assert not family_balance_region(g, [-2.0, 2.0], 1.0)
        assert not family_balance_region(g, [0.0, 0.0], 1.0)

    def test_validation(self):
        g = IntersectionGraph(2, [(1, 2, 1)])
        with pytest.raises(InputError):
            family_balance_region(g, [1.0], 1.0)
        with pytest.raises(InputError):
            family_balance_region(g, [0.0, 0.0], 0.0)
        with pytest.raises(InputError):
            family_balance_region(g, [0.0, 0.0], 1.0, BalanceSolution([1, 2]))

    @pytest.mark.parametrize("bad", [2.7, "3", True])
    def test_dimension_is_a_strict_integer(self, bad):
        g = IntersectionGraph(2, [(1, 2, 1), (2, 1, 1)])
        with pytest.raises(InputError, match="must be an integer"):
            family_balance_region(g, [0.0, 0.0], 1.0, m=bad)
        assert family_balance_region(g, [0.0, 0.0], 1.0, m=3.0)

    def test_float_pairings_read_as_rationals(self):
        # 0.1 + 0.2 - 0.3 is not 0 in binary floating point; the pairings
        # are read as the nearest fractions with denominator <= 10^12, the
        # CLI's rule, so the decimal vector answers as its scaled integers do
        g = IntersectionGraph(3, [(1, 2, 1), (2, 3, 2), (3, 1, 4)])
        assert family_balance_region(g, [1, 2, -3], 1.0)
        assert family_balance_region(g, [0.1, 0.2, -0.3], 1.0)
        assert family_balance_region(g, [Fraction(1, 10), 0.2, -0.3], 1.0)
        assert not family_balance_region(g, [0.1, 0.2, -0.2], 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1", True, None])
    def test_non_finite_or_non_numeric_pairing_rejected(self, bad):
        g = IntersectionGraph(2, [(1, 2, 1), (2, 1, 1)])
        sol = solve_areas(g)
        for areas in (None, sol):
            with pytest.raises(InputError, match="pairing 2"):
                family_balance_region(g, [0.0, bad], 1.0, areas)


    def test_huge_pairing_with_explicit_areas_is_input_error(self):
        # the tolerance check compares floats, and 10**400 has none
        g = IntersectionGraph(2, [(1, 2, 1), (2, 1, 1)])
        sol = solve_areas(g)
        for huge in (10**400, Fraction(10**400, 3)):
            with pytest.raises(InputError, match="pairing 1 must be a finite real"):
                family_balance_region(g, [huge, -huge], 1.0, sol)
        # without areas the pairings stay exact, so the same input is answered
        assert family_balance_region(g, [10**400, -10**400], 1.0)
        assert not family_balance_region(g, [10**400, 0], 1.0)

    @pytest.mark.parametrize("bad", [10**400, math.nan, math.inf, "1", True])
    def test_bad_scale_is_input_error(self, bad):
        g = IntersectionGraph(2, [(1, 2, 1), (2, 1, 1)])
        with pytest.raises(InputError, match="scale t"):
            family_balance_region(g, [0.0, 0.0], bad)

    def test_huge_scale_with_explicit_areas(self):
        # t^m is taken exactly, so it cannot overflow
        g = IntersectionGraph(2, [(1, 2, 1), (2, 1, 1)])
        sol = solve_areas(g)
        assert family_balance_region(g, [0.0, 0.0], 1e200, sol)
        assert not family_balance_region(g, [1.0, -1.0], 1e200, sol)
        # an imbalance of 2 * 1e600 has no float pairing to match it
        one_way = IntersectionGraph(2, [(1, 2, 1)])
        two = BalanceSolution([2])
        assert not family_balance_region(one_way, [1e300, -1e300], 1e200, two)
        assert family_balance_region(one_way, [2e300, -2e300], 1e100, two)

    def test_equals_fm_oracle_on_small_graphs(self):
        rng = random.Random(20261018)
        for _ in range(3000):
            g, b = random_flow_case(rng, rng.randint(1, 6), rng.randint(0, 10))
            assert family_balance_region(g, b, 1.0) == fm_oracle(g, b), (g, b)

    def test_equals_cut_oracle_on_larger_graphs(self):
        rng = random.Random(7)
        for q in range(7, 14):
            for _ in range(30):
                g, b = random_flow_case(rng, q, rng.randint(q - 1, 3 * q))
                assert family_balance_region(g, b, 1.0) == cut_oracle(g, b), (g, b)

    def test_cut_oracle_equals_fm_oracle(self):
        # the cut oracle, the reference for larger graphs, against FM
        rng = random.Random(8)
        for _ in range(300):
            g, b = random_flow_case(rng, rng.randint(1, 5), rng.randint(0, 8))
            assert cut_oracle(g, b) == fm_oracle(g, b), (g, b)

    @pytest.mark.parametrize("q", [8, 30])
    def test_acyclic_tournament_is_fast(self, q):
        # Fourier-Motzkin ran past 30 s at q = 8; the flow takes about
        # 1.5 ms at q = 30, and the bound leaves room for slow hosts
        g = acyclic_tournament(q)
        rng = random.Random(q)
        planted = [0] * q
        for e in g.edges:
            x = rng.randint(1, 9)
            planted[e.tail - 1] += x
            planted[e.head - 1] -= x
        # the top vertex only receives, so no flow can leave it
        hostile = [-1] * (q - 1) + [q - 1]
        start = time.perf_counter()
        assert family_balance_region(g, planted, 0.5, m=7)
        assert not family_balance_region(g, hostile, 0.5, m=7)
        assert time.perf_counter() - start < 0.5


class TestLibraryRationals:
    """Edge weights and areas are read by ``errors.as_rational``, the CLI's
    rule, so a float means the same in the library as on the command line."""

    def test_float_weight_reads_as_the_cli_does(self):
        assert Edge(1, 2, 0.1).weight == Fraction(1, 10)
        assert Edge(1, 2, 1 / 3).weight == Fraction(1, 3)
        assert Edge(1, 2, 2.0).weight == 2

    def test_fraction_weight_is_kept_as_it_is(self):
        w = Fraction(3, 7)
        assert Edge(1, 2, w).weight is w

    def test_float_weights_balance_as_their_decimals(self):
        floats = IntersectionGraph(2, [(1, 2, 0.1), (2, 1, 0.3)])
        exact = IntersectionGraph(2, [(1, 2, Fraction(1, 10)), (2, 1, Fraction(3, 10))])
        assert floats == exact
        assert solve_areas(floats) == solve_areas(exact)

    def test_float_areas(self):
        assert BalanceSolution([0.5, 0.1, 3]).A == (Fraction(1, 2), Fraction(1, 10), 3)

    def test_rational_strings_read_as_the_cli_does(self):
        assert Edge(1, 2, "1/3").weight == Fraction(1, 3)
        assert BalanceSolution(["2/4", "0.1"]).A == (Fraction(1, 2), Fraction(1, 10))
        for bad in ("x", "1/0"):
            with pytest.raises(InputError, match="edge weight is not a valid rational"):
                Edge(1, 2, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, None, [1]])
    def test_bad_weight_or_area_is_input_error(self, bad):
        with pytest.raises(InputError, match="edge weight must be a finite rational"):
            Edge(1, 2, bad)
        with pytest.raises(InputError, match="area must be a finite rational"):
            BalanceSolution([1, bad])


class TestAsFinite:
    def test_reals_become_floats(self):
        assert as_finite(2, "x") == 2.0 and type(as_finite(2, "x")) is float
        assert as_finite(Fraction(1, 4), "x") == 0.25
        assert as_finite(np.float64(-1.5), "x") == -1.5
        assert as_finite(10**300, "x") == 1e300

    @pytest.mark.parametrize("bad", [True, False, math.nan, math.inf, -math.inf, 10**400,
                                     Fraction(10**400, 3), "1", None, [1], 1j])
    def test_rejected(self, bad):
        with pytest.raises(InputError, match="must be a finite real number"):
            as_finite(bad, "x")


class TestAsRational:
    def test_exact_inputs_stay_exact(self):
        third = Fraction(1, 3)
        assert as_rational(third, "x") is third
        assert as_rational(7, "x") == 7
        assert as_rational(10**40 + 1, "x") == 10**40 + 1
        assert as_rational(np.int64(-5), "x") == -5

    def test_floats_use_the_denominator_limit(self):
        assert as_rational(0.1, "x") == Fraction(1, 10)
        assert as_rational(-2.5, "x") == Fraction(-5, 2)
        assert as_rational(1e300, "x") == int(1e300)
        assert as_rational(np.float64(0.75), "x") == Fraction(3, 4)
        # a denominator above 10^12 is rounded to the nearest allowed one
        assert as_rational(1 / 3, "x") == Fraction(1, 3)
        assert as_rational(1e-13, "x") == 0

    @pytest.mark.parametrize("bad", [True, False, math.nan, math.inf, -math.inf,
                                     "1/2", None, [1], 1j])
    def test_rejected(self, bad):
        with pytest.raises(InputError, match="must be a finite rational"):
            as_rational(bad, "x")
