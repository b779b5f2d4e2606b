"""Tests for connected-sum feasibility, exact balance, and phase regions.

The exhaustive bipartition oracle is the reference implementation for
the strong-connectivity criterion; the two are compared on every small
digraph and on randomized larger ones.  The areas of solve_areas are
compared with an independent walk of its two-tree rule on seeded graphs
up to q = 200.  The max-flow verdict of
family_balance_region is compared with Fourier-Motzkin elimination on
small graphs and with the exhaustive cut condition on larger ones, and
check_balance with plain Fraction sums.  The graph's edge checks are
compared with a frozen copy of the earlier dataclass checks, and the
bipartition oracle with a frozen copy of its attribute-reading form.
"""
import collections
import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slcones import cli
from slcones.consum import (
    BalanceSolution,
    Edge,
    IntersectionGraph,
    PhaseFamilyQuery,
    _subset_words,
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
    NumericError,
    PreconditionError,
    as_finite,
    as_int,
    as_positive,
    as_rational,
    as_tuple,
    read_rational,
    shown,
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


def split_graph(seed, q, extra):
    """Connected digraph that is not strongly connected: a shuffled order
    cut into parts S and T, each a path of random orientations, one edge
    S -> T, and extra edges (loops allowed) none of which runs T -> S."""
    rng = random.Random(seed)
    order = list(range(1, q + 1))
    rng.shuffle(order)
    cut = rng.randint(1, q - 1)
    side_s, side_t = order[:cut], order[cut:]
    pairs = [(u, v) if rng.random() < 0.5 else (v, u)
             for part in (side_s, side_t) for u, v in zip(part, part[1:])]
    pairs.append((rng.choice(side_s), rng.choice(side_t)))
    in_t = set(side_t)
    for _ in range(extra):
        u, v = rng.randint(1, q), rng.randint(1, q)
        pairs.append((v, u) if u in in_t and v not in in_t else (u, v))
    return IntersectionGraph(q, [(u, v, 1) for u, v in pairs])


def tree_walk_oracle(g):
    """Reference for solve_areas: both breadth-first trees from component
    1 by a deque search scanning edges in input order, then the closed
    walk v -> 1 (in-tree) -> u (out-tree) -> v of every non-loop edge
    u -> v, walked edge by edge.  None when a tree misses a component."""

    def tree(arcs):
        nbrs = collections.defaultdict(list)
        for idx, a, b in arcs:
            nbrs[a].append((idx, b))
        up = {1: None}  # vertex -> (edge index, next vertex toward 1)
        queue = collections.deque([1])
        while queue:
            a = queue.popleft()
            for idx, b in nbrs[a]:
                if b not in up:
                    up[b] = (idx, a)
                    queue.append(b)
        return up

    in_tree = tree([(idx, e.head, e.tail) for idx, e in enumerate(g.edges)])
    out_tree = tree([(idx, e.tail, e.head) for idx, e in enumerate(g.edges)])
    if len(in_tree) < g.q or len(out_tree) < g.q:
        return None
    flows = [1] * g.n
    for e in g.edges:
        if e.tail == e.head:
            continue
        for w, up in ((e.head, in_tree), (e.tail, out_tree)):
            while up[w] is not None:
                idx, w = up[w]
                flows[idx] += 1
    lo = min(flows, default=1)
    return tuple(Fraction(f, lo) / e.weight for f, e in zip(flows, g.edges))


def undirected_connected(q, pairs):
    return undirected_pieces(q, pairs) == 1


def undirected_pieces(q, edges) -> int:
    """Connected pieces of the underlying undirected graph of ``edges``,
    pairs or (tail, head, weight) triples, counted by breadth-first
    search over an adjacency of sets."""
    adj = {v: set() for v in range(1, q + 1)}
    for u, v, *_ in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    pieces = 0
    for root in adj:
        if root in seen:
            continue
        pieces += 1
        seen.add(root)
        queue = [root]
        for u in queue:
            for w in adj[u] - seen:
                seen.add(w)
                queue.append(w)
    return pieces


def random_multigraph(rng, q):
    """Random directed multigraph on q vertices in a few clusters: a
    random forest of random orientations inside each cluster, then extra
    edges, self-loops and repeats of earlier edges, and some vertices
    left isolated.  Edges come in shuffled order."""
    verts = list(range(1, q + 1))
    rng.shuffle(verts)
    cuts = sorted(rng.sample(range(1, q), min(q - 1, rng.choice([0, 0, 0, 1, 2, 4]))))
    pairs = []
    for part in (verts[i:j] for i, j in zip([0] + cuts, cuts + [q])):
        if rng.random() < 0.2:
            continue  # every vertex of this cluster stays isolated
        for k in range(1, len(part)):
            if rng.random() < 0.95:  # a missed tree edge may split the cluster
                u, v = part[k], part[rng.randrange(k)]
                pairs.append((u, v) if rng.random() < 0.5 else (v, u))
        for _ in range(rng.randint(0, len(part))):
            pairs.append((rng.choice(part), rng.choice(part)))
    for _ in range(rng.randint(0, 3)):
        v = rng.randint(1, q)
        pairs.append((v, v))
    pairs += rng.choices(pairs, k=rng.randint(0, len(pairs) // 2)) if pairs else []
    rng.shuffle(pairs)
    return [(u, v, Fraction(rng.randint(1, 5), rng.randint(1, 5))) for u, v in pairs]


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


def fraction_check_balance(g: IntersectionGraph, sol: BalanceSolution) -> bool:
    """Reference: sum the Fraction products w_e * A_e at every component."""
    net = [Fraction(0)] * (g.q + 1)
    for e, a in zip(g.edges, sol.A):
        f = e.weight * a
        net[e.tail] += f
        net[e.head] -= f
    return not any(net[1:])


def _random_strong_graph(rng, q: int) -> IntersectionGraph:
    order = list(range(1, q + 1))
    rng.shuffle(order)
    pairs = [(order[i], order[(i + 1) % q]) for i in range(q)]
    pairs += [(rng.randint(1, q), rng.randint(1, q)) for _ in range(rng.randint(0, q))]
    return IntersectionGraph(
        q, [(u, v, Fraction(rng.randint(1, 12), rng.randint(1, 12))) for u, v in pairs]
    )


class _Weight(Fraction):
    """A subclass of Fraction, as a caller's own rational type may be."""


def validation_oracle(q, edges) -> list:
    """Frozen copy of the checks of the dataclass ``Edge`` and of
    ``IntersectionGraph`` before edges became tuples: the ``(tail, head,
    weight)`` triples a graph holds, or the exception it raises.  Every
    edge went through ``Edge(*e)``; a wrong arity is an ``InputError``."""

    def edge(tail, head, weight):
        w = read_rational(weight, "edge weight")
        if w.numerator <= 0:
            raise InputError(f"edge weight must be positive, got {w}")
        return as_int(tail, "edge tail"), as_int(head, "edge head"), w

    q = as_int(q, "number of components q")
    if q < 1:
        raise InputError(f"need at least one component, got q = {q}")
    triples = []
    for e in edges:
        try:
            tail, head, weight = edge(*e)
        except TypeError:
            raise InputError(f"edge must be a (tail, head, weight) triple, got {e!r}") from None
        if not (1 <= tail <= q and 1 <= head <= q):
            raise InputError(f"edge endpoints must lie in 1..{q}, got ({tail}, {head})")
        triples.append((tail, head, weight))
    return triples


def literal_bipartition_oracle(g) -> bool:
    """Frozen copy of bipartition_oracle as it read edge attributes: every
    mask against every edge, after the connectivity and size checks."""
    if not undirected_connected(g.q, [(e.tail, e.head) for e in g.edges]):
        raise PreconditionError("disconnected")
    if g.q > 20:
        raise InputError("too large")
    for mask in range(1, 2**g.q - 1):
        fwd = bwd = False
        for e in g.edges:
            tail_in = bool(mask >> (e.tail - 1) & 1)
            head_in = bool(mask >> (e.head - 1) & 1)
            if tail_in and not head_in:
                fwd = True
            elif head_in and not tail_in:
                bwd = True
        if not (fwd and bwd):
            return False
    return True


# Edge fields of every kind the checks tell apart, out-of-range endpoints
# and non-positive weights included.
_FIELD = st.one_of(
    st.integers(-1, 4),
    st.just(10**30),
    st.booleans(),
    st.just(np.bool_(True)),
    st.integers(0, 4).map(np.int64),
    st.sampled_from([1.0, 2.0, -1.0, 1.5, 0.1, math.nan, math.inf, -math.inf]),
    st.sampled_from(["3/7", "x", "2", "1/0"]),
    st.fractions(max_value=0, max_denominator=9),
    st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
    st.fractions(max_denominator=9).map(lambda f: _Weight(f.numerator, f.denominator)),
    st.none(),
)
_VALID_EDGE = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5))
# int endpoints, some out of range, and a Fraction weight, some not
# positive: the kind of edge IntersectionGraph reads inline when its
# container is an Edge or a tuple, and _edge reads when it is a list
_FRACTION_EDGE = st.tuples(
    st.integers(0, 4), st.integers(0, 4),
    st.fractions(min_value=-1, max_value=9, max_denominator=9),
)
_EDGE = st.one_of(
    _VALID_EDGE,
    _VALID_EDGE,
    _VALID_EDGE,
    _FRACTION_EDGE,
    _FRACTION_EDGE,
    _FRACTION_EDGE.map(Edge._make),  # skips Edge's checks
    _FRACTION_EDGE.filter(lambda e: e[2] > 0).map(lambda e: Edge(*e)),
    _FRACTION_EDGE.map(list),
    st.tuples(_FIELD, _FIELD, _FIELD),
    st.tuples(_FIELD, _FIELD, _FIELD).map(Edge._make),  # skips Edge's checks
    st.tuples(_FIELD, _FIELD, _FIELD).map(list),
    st.lists(_FIELD, max_size=5).filter(lambda f: len(f) != 3).map(tuple),
    st.lists(_FIELD, min_size=2, max_size=4).filter(lambda f: len(f) != 3),
)


def _json_field(x):
    if isinstance(x, np.generic):
        return x.item()
    return f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else x


def _consum_cli(q, edges) -> int:
    """Exit code of ``cli.main(["consum"])`` on the graph as a document; a
    wrong-arity edge becomes a JSON list, which is no edge object."""
    doc = {"q": q, "edges": [
        dict(zip(("tail", "head", "weight"), map(_json_field, e))) if len(e) == 3
        else [_json_field(x) for x in e]
        for e in edges
    ]}
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["consum"])
    finally:
        sys.stdin = stdin


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
        with pytest.raises(PreconditionError):
            solve_areas(g)

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
        # _make skips Edge's checks; the graph checks every edge again
        for bad, same in ((Edge._make((1, 2, Fraction(-1, 2))), (1, 2, Fraction(-1, 2))),
                          (Edge._make((True, 2, 1)), (True, 2, 1))):
            with pytest.raises(InputError) as want:
                IntersectionGraph(2, [same])
            with pytest.raises(InputError) as got:
                IntersectionGraph(2, [bad])
            assert str(got.value) == str(want.value)

    def test_edge_equals_its_plain_tuple(self):
        assert Edge(1, 2, 0.5) == (1, 2, Fraction(1, 2))
        assert IntersectionGraph(2, [Edge(2, 1, 3)]).edges == ((2, 1, 3),)

    @given(st.sampled_from([1, 2, 3] * 3 + [0, 2.0, True, "2", 1.5, math.nan]),
           st.lists(_EDGE, max_size=6))
    @settings(max_examples=400, deadline=None)
    def test_checks_equal_validation_oracle(self, q, edges):
        try:
            want = validation_oracle(q, edges)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                IntersectionGraph(q, edges)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            assert _consum_cli(q, edges) == 2
            return
        g = IntersectionGraph(q, edges)
        assert [tuple(e) for e in g.edges] == want
        # int endpoints, and the weight's type is the oracle's: a Fraction,
        # or the caller's own subclass of it
        assert [tuple(map(type, e)) for e in g.edges] == [tuple(map(type, e)) for e in want]
        for e in g.edges:
            assert type(e) is Edge
            assert (type(e.tail), type(e.head)) == (int, int)
            assert type(e.weight) in (Fraction, _Weight)
        try:
            feasible(g)
        except PreconditionError:
            assert _consum_cli(q, edges) == 2
        else:
            assert _consum_cli(q, edges) == 0

    def test_trees_built_once_per_graph(self, monkeypatch):
        built = []

        def counted(g, build=IntersectionGraph._build_trees):
            built.append(g)
            return build(g)

        monkeypatch.setattr(IntersectionGraph, "_build_trees", counted)
        edges = chorded_cycle(7, 30).edges
        g = IntersectionGraph(30, edges)
        assert feasible(g)
        areas = solve_areas(g).A
        assert solve_areas(g).A == areas == tree_walk_oracle(g)
        assert len(built) == 1 and built[0] is g
        h = IntersectionGraph(30, edges)
        solve_areas(h)
        assert feasible(h)
        assert len(built) == 2 and built[1] is h
        split = IntersectionGraph(2, [(1, 2, 1)])
        assert not feasible(split)
        with pytest.raises(InfeasibleGraphError):
            solve_areas(split)
        assert len(built) == 3 and built[2] is split

    @pytest.mark.parametrize("bad", ["abc", "2", True, 1.5, float("inf"), float("nan"), None])
    def test_integer_fields_are_strict(self, bad):
        with pytest.raises(InputError, match="must be an integer"):
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

    def test_fraction_subclass_weight_is_kept(self):
        # a caller's Fraction subclass passes through the weight reader,
        # and a non-positive one is refused with the oracle's message
        w = _Weight(3, 4)
        assert IntersectionGraph(2, [(1, 2, w)]).edges[0].weight is w
        with pytest.raises(InputError) as got:
            Edge(1, 2, _Weight(-1, 2))
        with pytest.raises(InputError) as want:
            validation_oracle(2, [(1, 2, _Weight(-1, 2))])
        assert str(got.value) == str(want.value)

    def test_disconnected_message_counts_pieces(self):
        g = IntersectionGraph(5, [(1, 2, 1), (2, 1, 1), (4, 3, 1)])
        for call in (feasible, solve_areas):
            with pytest.raises(PreconditionError, match="found 3 pieces"):
                call(g)


class TestConnectivity:
    """The union-find's piece count against breadth-first search."""

    def test_pieces_equal_a_breadth_first_count(self):
        rng = random.Random(20261021)
        counts = collections.Counter()
        for _ in range(500):
            q = rng.randint(1, 60)
            edges = random_multigraph(rng, q)
            g = IntersectionGraph(q, edges)
            pieces = undirected_pieces(q, edges)
            calls = [feasible, solve_areas] + ([bipartition_oracle] if q <= 20 else [])
            for call in calls:
                if pieces > 1:
                    with pytest.raises(PreconditionError) as got:
                        call(g)
                    assert str(got.value).endswith(f"found {pieces} pieces")
                else:
                    with contextlib.suppress(InfeasibleGraphError):
                        call(g)
            counts[min(pieces, 3)] += 1
            touched = {x for u, v, _ in edges for x in (u, v)}
            counts["isolated"] += 1 < q and len(touched) < q
        assert min(counts[1], counts[2], counts[3], counts["isolated"]) >= 50, counts

    def test_huge_q_message_shows_the_digit_count(self):
        g = IntersectionGraph(10**400, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])
        want = f"found {shown(10**400 - 2)} pieces"
        assert "<int of 400 digits>" in want
        for call in (feasible, solve_areas, bipartition_oracle):
            with pytest.raises(PreconditionError) as got:
                call(g)
            assert str(got.value).endswith(want)

    def test_many_components_refused_in_little_memory(self):
        # lists of length q would take about 8 MB each at q = 10^6; the
        # refusal comes before any is built
        g = IntersectionGraph(10**6, [(1, 2, 1), (2, 1, 1)])
        for call in (feasible, solve_areas):
            tracemalloc.start()
            try:
                with pytest.raises(PreconditionError, match="found 999999 pieces"):
                    call(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (call.__name__, peak)
        assert g._trees is None


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

    def test_equals_literal_oracle(self):
        rng = random.Random(20261020)
        verdicts = collections.Counter()
        for seed in range(300):
            q = rng.randint(1, 8)
            if seed % 2:
                g = random_connected_graph(seed, q, rng.randint(0, 2 * q))
            else:
                g = IntersectionGraph(q, [(rng.randint(1, q), rng.randint(1, q), 1)
                                          for _ in range(rng.randint(0, 2 * q))])
            if rng.random() < 0.5 and g.n:  # a parallel edge and a self-loop
                u, v, w = g.edges[rng.randrange(g.n)]
                g = IntersectionGraph(q, g.edges + ((u, v, w), (v, v, 2)))
            try:
                want = literal_bipartition_oracle(g)
            except PreconditionError:
                with pytest.raises(PreconditionError):
                    bipartition_oracle(g)
                verdicts["disconnected"] += 1
                continue
            assert bipartition_oracle(g) == want, g
            verdicts[want] += 1
        assert min(verdicts[True], verdicts[False], verdicts["disconnected"]) >= 30

    @pytest.mark.parametrize("q", range(9, 21))
    def test_equals_feasible_beyond_the_literal_copy(self, q):
        # the literal copy takes 2^q steps per edge; these sizes are
        # checked against feasible alone
        for seed in range(2):
            for g in (chorded_cycle(1000 * q + seed, q), split_graph(1000 * q + seed, q, q)):
                assert bipartition_oracle(g) == feasible(g)
            assert feasible(chorded_cycle(1000 * q + seed, q))
            assert not feasible(split_graph(1000 * q + seed, q, q))

    def test_disconnected_graph_still_refused(self):
        g = IntersectionGraph(12, [(v, v % 6 + 1, 1) for v in range(1, 7)]
                              + [(v, 7 + (v - 6) % 6, 1) for v in range(7, 13)])
        with pytest.raises(PreconditionError):
            bipartition_oracle(g)

    def test_oracle_size_limit(self):
        edges = [(v, v + 1, 1) for v in range(1, 21)] + [(21, 1, 1)]
        with pytest.raises(InputError):
            bipartition_oracle(IntersectionGraph(21, edges))

    @pytest.mark.parametrize("q", range(1, 13))
    def test_subset_words(self, q):
        words = _subset_words(q)
        assert words[0] == 0 and len(words) == q + 1
        for v in range(1, q + 1):
            want = sum(1 << s for s in range(1 << q) if s >> (v - 1) & 1)
            assert words[v] == want

    def test_oversized_graph_builds_no_words(self):
        edges = [(v, v + 1, 1) for v in range(1, 21)] + [(21, 1, 1)]
        before = _subset_words.cache_info()
        with pytest.raises(InputError, match="oracle limited to q <= 20"):
            bipartition_oracle(IntersectionGraph(21, edges))
        assert _subset_words.cache_info() == before


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

    # Both graphs offer several breadth-first trees; the areas pin the
    # choice (first in edge order).
    def test_frozen_areas_four_components(self):
        g = IntersectionGraph(4, [(1, 2, 1), (1, 3, 2), (2, 4, 3), (3, 4, 1),
                                  (4, 1, 5), (2, 3, Fraction(1, 2)), (3, 1, 1)])
        assert solve_areas(g).A == (4, Fraction(3, 2), 1, 1, Fraction(4, 5), 2, 3)

    def test_frozen_areas_six_components(self):
        g = IntersectionGraph(6, [(1, 2, 1), (2, 3, 2), (3, 4, Fraction(1, 3)),
                                  (4, 5, 1), (5, 6, 4), (6, 1, 1), (1, 4, 3),
                                  (4, 1, 2), (2, 5, 1), (6, 3, Fraction(5, 2)),
                                  (5, 2, 1), (3, 3, 7)])
        areas = solve_areas(g).A
        assert areas == (8, 1, 9, 1, Fraction(7, 4), 6, 1, Fraction(5, 2), 7,
                         Fraction(2, 5), 1, Fraction(1, 7))
        assert areas == tree_walk_oracle(g)

    # The chords give the trees many choices; these digests of "p/q"
    # areas pin which ones the searches take.
    @pytest.mark.parametrize("q, digest", [
        pytest.param(50, "8c5aedf9e55e4772315d9e7426d14f91760292367a03e68059122c809d0fc0af",
                     id="50"),
        pytest.param(100, "e8322f2629609f8d1c6ddb3a5174af02c388bed376f787d0140c336c993b9e8a",
                     id="100"),
        pytest.param(200, "a8f47edc1321255d1bcd412d21fab10ef39bd90295d8bb4375273380d45fb5d5",
                     id="200"),
    ])
    def test_frozen_areas_chorded_cycles(self, q, digest):
        g = chorded_cycle(q, q)
        areas = solve_areas(g).A
        assert areas == tree_walk_oracle(g)
        text = ",".join(f"{a.numerator}/{a.denominator}" for a in areas)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_equals_tree_walk_oracle(self):
        rng = random.Random(20261019)
        graphs = [random_connected_graph(seed, rng.randint(1, 40), rng.randint(0, 80))
                  for seed in range(1500)]
        graphs += [chorded_cycle(seed, rng.randint(1, 200)) for seed in range(500)]
        solved = 0
        for g in graphs:
            want = tree_walk_oracle(g)
            if want is None:
                with pytest.raises(InfeasibleGraphError):
                    solve_areas(g)
            else:
                assert solve_areas(g).A == want, g
                solved += 1
        assert solved >= 1000

    def test_unbalanced_flows_are_a_numeric_error(self, monkeypatch):
        # one subtree count of the in-tree one too high sends one more walk
        # from its vertex to component 1, so the flows no longer balance
        g = chorded_cycle(3, 12)
        (order, parent, via, below), out_tree = g._build_trees()
        below = below[:]
        below[order[-1]] += 1
        monkeypatch.setitem(g.__dict__, "_trees", [(order, parent, via, below), out_tree])
        with pytest.raises(NumericError) as exc:
            solve_areas(g)
        assert str(exc.value) == "computed areas do not balance the weighted flow"

    @pytest.mark.parametrize("chords", [0, 3000])
    def test_directed_cycle_of_3000(self, chords):
        # one search per edge head, O(q * n), takes seconds on the plain
        # cycle; the two trees take about 10 ms
        rng = random.Random(chords)
        q = 3000
        edges = [(v, v % q + 1, Fraction(rng.randint(1, 12), rng.randint(1, 12)))
                 for v in range(1, q + 1)]
        edges += [(rng.randint(1, q), rng.randint(1, q), rng.randint(1, 5))
                  for _ in range(chords)]
        g = IntersectionGraph(q, edges)
        start = time.perf_counter()
        sol = solve_areas(g)
        assert time.perf_counter() - start < 1.0
        assert all(a > 0 for a in sol.A)
        assert check_balance(g, sol) and fraction_check_balance(g, sol)
        assert min(a * e.weight for a, e in zip(sol.A, g.edges)) == 1

    @given(st.integers(0, 10**6), st.integers(1, 30), st.integers(0, 60))
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

    def test_zero_sum_test_equals_the_fraction_sum(self):
        # the integer supplies D(n + 1) b sum to zero exactly when the
        # pairings' Fraction readings do: planted balances with
        # denominators up to 10^12, the same nudged off a zero sum by
        # 1/D, their float values, and decimals whose float sum is not 0
        rng = random.Random(20261020)
        kinds = collections.Counter()
        for i in range(1200):
            q = rng.randint(2, 6)
            if i % 2:
                g = _random_strong_graph(rng, q)
            else:
                g = IntersectionGraph(q, [(rng.randint(1, q), rng.randint(1, q), 1)
                                          for _ in range(rng.randint(1, 2 * q))])
            kind = rng.choice(("planted", "nudged", "float", "decimal"))
            if kind == "decimal":
                scale = 10 ** rng.randint(1, 2)  # read back as these decimals
                ints = [rng.randint(-9 * scale, 9 * scale) for _ in range(q - 1)]
                b = [x / scale for x in ints + [-sum(ints)]]
            else:
                b = [Fraction(0)] * q
                for u, v, _ in g.edges:
                    x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**12))
                    b[u - 1] += x
                    b[v - 1] -= x
                if kind == "nudged":
                    b[rng.randrange(q)] += Fraction(rng.choice((-1, 1)), rng.randint(1, 10**12))
                elif kind == "float":
                    b = [float(x) for x in b]
            readings = [as_rational(p, "pairing") for p in b]
            got = family_balance_region(g, b, 1.0)
            assert got == cut_oracle(g, b), (g, b)
            zero = sum(readings) == 0
            assert got <= zero
            kinds[kind, zero, sum(map(Fraction, b)) == 0, got] += 1
        assert kinds["nudged", False, False, False] > 250
        assert kinds["planted", True, True, True] > 100
        assert kinds["float", False, False, False] > 100
        # read as decimals, float pairings that do not sum to 0 balance
        assert kinds["decimal", True, False, True] > 50
        assert not any(k[:2] == ("decimal", False) for k in kinds)

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

    def test_huge_dimension_on_balanced_areas_is_fast(self):
        # with every imbalance zero t^m is never formed, so m = 10^6 costs
        # no more than m = 3
        g = IntersectionGraph(2, [(1, 2, 1), (2, 1, 8)])
        sol = solve_areas(g)
        start = time.perf_counter()
        assert family_balance_region(g, [0.0, 0.0], 3.7, sol, m=10**6)
        assert not family_balance_region(g, [1e-3, -1e-3], 3.7, sol, m=10**6)
        assert time.perf_counter() - start < 0.05

    def test_exact_power_is_bounded(self):
        # a nonzero imbalance is compared with t^m exactly; a power past
        # MAX_POWER_BITS is refused before it is formed (t = 1.1 took 0.8 s
        # at m = 10^5), while every float t still answers at m = 10^4
        one_way = IntersectionGraph(2, [(1, 2, 1)])
        two = BalanceSolution([2])
        start = time.perf_counter()
        with pytest.raises(InputError, match="bits"):
            family_balance_region(one_way, [1.0, -1.0], 1.1, two, m=10**6)
        assert time.perf_counter() - start < 0.05
        widest = math.nextafter(2.0**-1021, 0)  # 53 + 1075 bits as a fraction
        for t in (1.1, widest):
            assert not family_balance_region(one_way, [1.0, -1.0], t, two, m=10**4)
        # the bound is on bits, not on m: 1^m has 2 bits per factor
        assert family_balance_region(one_way, [2.0, -2.0], 1.0, two, m=10**6)

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

    @pytest.mark.parametrize("q", [10**10, 10**400], ids=["q 10**10", "q 10**400"])
    def test_work_depends_on_the_edges_not_on_q(self, q):
        # components that no edge touches have net flow 0 and take no memory
        start = time.perf_counter()
        g = IntersectionGraph(q, [(1, 2, 1), (2, 1, 1)])
        assert check_balance(g, BalanceSolution((1, 1))) is True
        assert check_balance(g, BalanceSolution((1, 2))) is False
        assert time.perf_counter() - start < 1.0


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


class TestAsInt:
    def test_integers(self):
        assert as_int(7, "x") == 7 and type(as_int(7, "x")) is int
        assert as_int(-(10**40), "x") == -(10**40)
        assert as_int(np.int64(-5), "x") == -5 and type(as_int(np.int64(-5), "x")) is int
        assert as_int(3.0, "x") == 3 and type(as_int(3.0, "x")) is int

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), 2.5, math.nan, math.inf,
                                     "3", None, Fraction(3), [1]])
    def test_rejected_with_one_message(self, bad):
        with pytest.raises(InputError) as info:
            as_int(bad, "edge tail")
        assert str(info.value) == f"edge tail must be an integer, got {bad!r}"

    def test_least_bound(self):
        assert as_int(3, "m", least=3) == 3
        assert as_int(4.0, "m", least=3) == 4 and type(as_int(4.0, "m", least=3)) is int
        assert as_int(np.int64(0), "cutoff", least=0) == 0
        assert as_int(-7, "x", least=None) == -7
        for bad, got in ((2, 2), (2.0, 2), (np.int64(-1), -1), (-(10**40), -(10**40))):
            with pytest.raises(InputError) as info:
                as_int(bad, "dimension m", least=3)
            assert str(info.value) == f"dimension m must be >= 3, got {got}"

    @pytest.mark.parametrize("bad", [True, np.bool_(True), 3.5, "3", None])
    def test_type_is_checked_before_the_bound(self, bad):
        with pytest.raises(InputError, match="^dimension m must be an integer"):
            as_int(bad, "dimension m", least=3)


class TestAsPositive:
    def test_positive_reals_become_floats(self):
        assert as_positive(2, "tol") == 2.0 and type(as_positive(2, "tol")) is float
        assert as_positive(Fraction(1, 4), "tol") == 0.25
        assert as_positive(np.float64(1e-300), "tol") == 1e-300
        assert as_positive(5e-324, "tol") == 5e-324

    @pytest.mark.parametrize("bad", [0, 0.0, -0.0, -1e-300, -(10**300)])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(InputError) as info:
            as_positive(bad, "tol")
        assert str(info.value) == f"tol must be positive, got {float(bad)}"

    @pytest.mark.parametrize("bad", [True, math.nan, math.inf, -math.inf, 10**400, "1",
                                     None, [1], 1j])
    def test_rejected_as_as_finite_rejects(self, bad):
        with pytest.raises(InputError, match="^tol must be a finite real number"):
            as_positive(bad, "tol")


class TestAsTuple:
    def test_iterables_become_tuples(self):
        assert as_tuple([1, 2], "x") == (1, 2)
        assert as_tuple((1,), "x") == (1,)
        assert as_tuple(np.array([0.5, 1.5]), "x") == (0.5, 1.5)
        assert as_tuple((k for k in range(3)), "x") == (0, 1, 2)

    @pytest.mark.parametrize("bad", ["12", b"12", {"a": 1}, None, 1, True, 1.5, np.float64(1.0)])
    def test_rejected(self, bad):
        with pytest.raises(InputError) as info:
            as_tuple(bad, "areas")
        assert str(info.value) == f"areas must be a sequence, got {bad!r}"


class TestAsRational:
    def test_exact_inputs_stay_exact(self):
        third = Fraction(1, 3)
        assert as_rational(third, "x") is third
        assert as_rational(7, "x") == 7
        assert as_rational(10**40 + 1, "x") == 10**40 + 1
        assert as_rational(np.int64(-5), "x") == -5

    def test_numpy_integer_reads_with_int_parts(self):
        # Fraction(np.int64(-5)) keeps numpy parts, which shown() cannot
        # measure, so a non-positive numpy weight raised AttributeError
        x = as_rational(np.int64(-5), "x")
        assert (type(x.numerator), type(x.denominator)) == (int, int)
        with pytest.raises(InputError, match="^edge weight must be positive, got 0$"):
            IntersectionGraph(2, [(1, 2, np.int64(0))])

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
