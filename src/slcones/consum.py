"""Feasibility and balance for multiple connected-sum constructions.

Component-crossing intersection points form a directed multigraph on the
q components: an edge runs from the component containing the positive
sheet to the one containing the negative sheet, weighted by the m-th
power of the point's angle invariant.  Desingularizing all points at
once is possible iff positive areas A_i can balance the weighted flow at
every component, which holds iff every vertex bipartition is crossed in
both directions — equivalently (on a connected graph) iff the digraph is
strongly connected, which two reachability searches decide: component
1 must reach every component both along the edges and against them.
Areas come from the two breadth-first trees of those searches: each
edge closes into a walk through component 1, and subtree counts sum the
walks' unit circulations in O(q + n) for q components and n edges.
Each edge is validated once, into a ``(tail, head, weight)`` tuple that
every kernel unpacks, and both trees are built once per graph, on first
use, and shared by :func:`feasible` and :func:`solve_areas`.

All feasibility and balance arithmetic here is exact over the rationals;
floating point enters only through the phase-region classifier, whose
wall tolerance is :data:`WALL_TOL`.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .errors import (
    DegeneratePhaseError,
    InfeasibleGraphError,
    InputError,
    NumericError,
    PreconditionError,
    as_finite,
    as_int,
    as_rational,
    read_rational,
)

__all__ = [
    "Edge",
    "IntersectionGraph",
    "BalanceSolution",
    "PhaseFamilyQuery",
    "PhaseRegionResult",
    "ModuliDim",
    "feasible",
    "bipartition_oracle",
    "solve_areas",
    "check_balance",
    "moduli_dim_relation",
    "phase_region",
    "family_balance_region",
]

#: angle-difference tolerance under which phase_region reports the wall
WALL_TOL = 1e-12
#: relative tolerance for checking a supplied area vector in family_balance_region
PAIRING_TOL = 1e-9
#: bits (m times those of t's numerator and denominator) of the largest exact
#: t^m family_balance_region forms: any float t at m <= 10^4, about 1 s at most
MAX_POWER_BITS = 12 * 10**6
_MAX_ORACLE_Q = 20


def _edge(tail, head, weight) -> tuple:
    """The checked fields of one edge: weight, then tail, then head."""
    w = read_rational(weight, "edge weight")
    if w.numerator <= 0:
        raise InputError(f"edge weight must be positive, got {w}")
    return as_int(tail, "edge tail"), as_int(head, "edge head"), w


class Edge(NamedTuple("Edge", [("tail", int), ("head", int), ("weight", Fraction)])):
    """Directed weighted edge: tail = component of the positive sheet,
    head = component of the negative sheet, weight = psi^m > 0 exact.

    An immutable tuple, so it compares equal to the plain tuple with the
    same fields.  ``_replace`` and ``_make`` skip the checks, and
    :class:`IntersectionGraph` checks every edge it is given again."""

    __slots__ = ()

    def __new__(cls, tail, head, weight):
        return tuple.__new__(cls, _edge(tail, head, weight))


@dataclass(frozen=True)
class IntersectionGraph:
    """Directed multigraph on components 1..q; self-loops allowed."""

    q: int
    edges: tuple

    def __init__(self, q: int, edges: Sequence):
        q = as_int(q, "number of components q")
        if q < 1:
            raise InputError(f"need at least one component, got q = {q}")
        new = tuple.__new__
        norm = []
        for e in edges:
            u, v, _ = e = _edge(*e)
            if not (1 <= u <= q and 1 <= v <= q):
                raise InputError(f"edge endpoints must lie in 1..{q}, got ({u}, {v})")
            norm.append(new(Edge, e))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.edges)

    @cached_property
    def _trees(self) -> list:
        """The in-tree and the out-tree of the breadth-first searches from
        component 1, each as ``(order, parent, via, below)``: the vertices
        in visit order, each vertex's tree parent and the index of its tree
        edge, and the count of non-loop edges into (in-tree) or out of
        (out-tree) each vertex.  Neighbours are scanned in edge order."""
        q = self.q
        into = [[] for _ in range(q + 1)]
        out = [[] for _ in range(q + 1)]
        for idx, (u, v, _) in enumerate(self.edges):
            if u != v:
                into[v].append((idx, u))
                out[u].append((idx, v))
        trees = []
        for adj in (into, out):
            parent = [0] * (q + 1)
            via = [0] * (q + 1)
            parent[1] = 1
            order = [1]
            for v in order:
                for idx, w in adj[v]:
                    if not parent[w]:
                        parent[w] = v
                        via[w] = idx
                        order.append(w)
            trees.append((order, parent, via, [len(a) for a in adj]))
        return trees


@dataclass(frozen=True)
class BalanceSolution:
    """Exact positive areas, one per intersection point."""

    A: tuple

    def __init__(self, A):
        vals = tuple(read_rational(x, "area") for x in A)
        if any(v.numerator <= 0 for v in vals):
            raise InputError(f"areas must be positive, got {vals}")
        object.__setattr__(self, "A", vals)


def _reach(adj: list, start: int, seen: list) -> int:
    """Mark in ``seen`` every vertex reachable from ``start`` over ``adj``
    and return how many vertices were newly marked."""
    seen[start] = True
    stack = [start]
    count = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count


def _require_connected(g: IntersectionGraph) -> None:
    both = [[] for _ in range(g.q + 1)]
    for u, v, _ in g.edges:
        both[u].append(v)
        both[v].append(u)
    seen = [False] * (g.q + 1)
    pieces = 0
    for v in range(1, g.q + 1):
        if not seen[v]:
            pieces += 1
            _reach(both, v, seen)
    if pieces != 1:
        raise PreconditionError(
            f"underlying undirected graph must be connected, found {pieces} pieces"
        )


def feasible(g: IntersectionGraph) -> bool:
    """True iff every bipartition of the components is crossed by edges
    in both directions; on a connected graph this is strong connectivity
    of the directed multigraph.

    Strong connectivity is decided by reachability: it holds iff the
    graph's two search trees from component 1 (shared with
    :func:`solve_areas`) reach all q components, along the edges and
    against them.  A disconnected graph raises :class:`PreconditionError`.
    """
    if all(len(order) == g.q for order, *_ in g._trees):
        return True
    _require_connected(g)
    return False


def bipartition_oracle(g: IntersectionGraph) -> bool:
    """Literal exhaustive evaluation of the bipartition criterion
    (2^q subsets); the reference oracle for :func:`feasible`."""
    _require_connected(g)
    if g.q > _MAX_ORACLE_Q:
        raise InputError(f"oracle limited to q <= {_MAX_ORACLE_Q}, got q = {g.q}")
    bits = [(1 << (u - 1), 1 << (v - 1)) for u, v, _ in g.edges]
    for mask in range(1, 2**g.q - 1):
        fwd = bwd = False
        for tail_bit, head_bit in bits:
            tail_in = bool(mask & tail_bit)
            head_in = bool(mask & head_bit)
            if tail_in and not head_in:
                fwd = True
            elif head_in and not tail_in:
                bwd = True
        if not (fwd and bwd):
            return False
    return True


def solve_areas(g: IntersectionGraph) -> BalanceSolution:
    """Exact positive areas balancing the weighted flow at every
    component, normalized so that min_i A_i w_i = 1.

    The graph's two breadth-first trees rooted at component 1 give both
    the verdict and the flows.  The out-tree follows the edges and the
    in-tree goes against them, each scanning its neighbour lists in edge
    order; the graph is strongly connected iff both reach all q
    components.  Every non-loop edge u -> v then closes into the walk
    from v to 1 in the in-tree and from 1 to u in the out-tree, and the
    flow f_i of an edge is 1 plus the number of these walks through it:
    a sum of unit circulations, so positive and balanced at every
    vertex, and A_i = f_i / w_i.  The tree edge into a vertex carries one
    walk per edge head (in-tree) or edge tail (out-tree) in the subtree
    below it, so the flows are subtree counts summed in each tree's visit
    order reversed: O(q + n) time and memory.
    """
    flows = [1] * g.n
    for order, parent, via, below in g._trees:
        if len(order) < g.q:
            _require_connected(g)
            raise InfeasibleGraphError(
                "graph is not strongly connected: no positive balanced areas exist"
            )
        below = below[:]  # edge heads (in-tree) or tails (out-tree) per subtree
        for w in reversed(order[1:]):
            flows[via[w]] += below[w]
            below[parent[w]] += below[w]
    if g.n == 0:
        return BalanceSolution(())
    lo = min(flows)
    areas = [
        Fraction(f * w.denominator, lo * w.numerator)
        for f, (_, _, w) in zip(flows, g.edges)
    ]
    sol = BalanceSolution(areas)
    if not check_balance(g, sol):
        raise NumericError("computed areas do not balance the weighted flow")
    return sol


def _scaled_net(g: IntersectionGraph, A: Sequence) -> tuple:
    """Weighted outflow minus inflow of areas ``A`` at components 1..q,
    as integers over one common denominator: returns ``(net, d)`` with
    ``net[k - 1] / d`` the net flow at component k."""
    terms = [(w.numerator * a.numerator, w.denominator * a.denominator)
             for (_, _, w), a in zip(g.edges, A)]
    d = math.lcm(*(den for _, den in terms))
    net = [0] * (g.q + 1)
    for (u, v, _), (num, den) in zip(g.edges, terms):
        f = num * (d // den)
        net[u] += f
        net[v] -= f
    return net[1:], d


def _net_flow(g: IntersectionGraph, A: Sequence) -> list:
    """Weighted outflow minus inflow of areas ``A`` at components 1..q."""
    net, d = _scaled_net(g, A)
    return [Fraction(x, d) for x in net]


def check_balance(g: IntersectionGraph, sol: BalanceSolution) -> bool:
    """Exact check of the weighted flow balance at every component.

    The terms w_e * A_e are summed at each component as integers over the
    lcm of their denominators, so the check builds no Fraction; the flow
    balances iff every such integer sum is zero.
    """
    if len(sol.A) != g.n:
        raise InputError(f"expected {g.n} areas, got {len(sol.A)}")
    return not any(_scaled_net(g, sol.A)[0])


@dataclass(frozen=True)
class ModuliDim:
    """First Betti number of the connected sum and the index-one flag."""

    b1: int
    index_one: bool


def moduli_dim_relation(n: int, q: int, b1X: int) -> ModuliDim:
    """b1 of the n-fold connected sum of q components: n + 1 - q + b1X.

    Each sum either joins two pieces (dropping b0 by one) or adds a
    handle (raising b1 by one); n = q marks the index-one boundary case
    where the glued moduli space has exactly one extra dimension.
    """
    n, q, b1X = as_int(n, "n"), as_int(q, "q"), as_int(b1X, "b1X")
    if q < 1:
        raise InputError(f"need q >= 1 components, got {q}")
    if n < q - 1:
        raise InputError(
            f"{n} sums cannot connect {q} components: need n >= q - 1"
        )
    if b1X < 0:
        raise InputError(f"negative Betti number b1X = {b1X}")
    return ModuliDim(n + 1 - q + b1X, n == q)


@dataclass(frozen=True)
class PhaseFamilyQuery:
    """Phase data of a two-component family: [class]·[X_k] = R_k e^{i theta_k}."""

    R1: float
    R2: float
    theta1: float
    theta2: float
    psi: float
    m: int

    def __init__(self, R1, R2, theta1, theta2, psi, m):
        R1, R2, psi = float(R1), float(R2), float(psi)
        if R1 <= 0 or R2 <= 0:
            raise InputError(f"component magnitudes must be positive, got {R1}, {R2}")
        if psi <= 0:
            raise InputError(f"angle invariant must be positive, got {psi}")
        m = as_int(m, "dimension m")
        if m < 1:
            raise InputError(f"dimension must be >= 1, got {m}")
        object.__setattr__(self, "R1", R1)
        object.__setattr__(self, "R2", R2)
        object.__setattr__(self, "theta1", float(theta1))
        object.__setattr__(self, "theta2", float(theta2))
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class PhaseRegionResult:
    """Which side of the wall the total phase lies on, and the neck
    scale t in the positive region."""

    region: str  # "positive" | "negative" | "wall"
    t: Optional[float]


def phase_region(qr: PhaseFamilyQuery) -> PhaseRegionResult:
    """Classify theta relative to (theta1, theta2) for the summed phase
    R e^{i theta} = R1 e^{i theta1} + R2 e^{i theta2}.

    The positive region has theta strictly between theta2 and theta1;
    there the unique neck scale is t = (R1 sin(theta1 - theta))^(1/m) / psi.
    Angle differences within :data:`WALL_TOL` count as the wall.
    """
    z = qr.R1 * cmath.exp(1j * qr.theta1) + qr.R2 * cmath.exp(1j * qr.theta2)
    if abs(z) <= WALL_TOL * (qr.R1 + qr.R2):
        raise DegeneratePhaseError(
            "total phase class vanishes (antipodal components)"
        )
    theta = cmath.phase(z)
    s1 = math.sin(qr.theta1 - theta)
    if abs(s1) <= WALL_TOL:
        return PhaseRegionResult("wall", None)
    if s1 > 0:
        t = (qr.R1 * s1 / qr.psi**qr.m) ** (1.0 / qr.m)
        return PhaseRegionResult("positive", t)
    return PhaseRegionResult("negative", None)


def _saturates(q: int, arcs: Sequence, supply: Sequence) -> bool:
    """Whether some flow on the uncapacitated ``arcs`` between vertices
    1..q has net outflow ``supply[k - 1]`` at every vertex k, for integer
    supplies that sum to zero.

    One max-flow by breadth-first augmenting paths (Edmonds-Karp) on
    Python ints: source -> positive supplies -> arcs -> negative supplies
    -> sink, each arc with the total supply as its capacity, which no
    flow can exceed.  The supplies are met iff the flow saturates the
    source.  ``res[u][v]`` is the residual capacity from u to v.
    """
    src, sink = 0, q + 1
    res = [{} for _ in range(q + 2)]

    def link(u, v, cap):
        res[u][v] = res[u].get(v, 0) + cap
        res[v].setdefault(u, 0)

    for k, s in enumerate(supply, 1):
        if s > 0:
            link(src, k, s)
        elif s < 0:
            link(k, sink, -s)
    left = sum(res[src].values())
    for u, v in arcs:
        link(u, v, left)
    while left:
        parent = {src: src}
        queue = [src]
        for u in queue:
            for v, cap in res[u].items():
                if cap and v not in parent:
                    parent[v] = u
                    queue.append(v)
            if sink in parent:
                break
        else:
            return False
        path = []
        v = sink
        while v != src:
            path.append((parent[v], v))
            v = parent[v]
        push = min(res[u][v] for u, v in path)
        for u, v in path:
            res[u][v] -= push
            res[v][u] += push
        left -= push
    return True


def family_balance_region(
    g: IntersectionGraph,
    pairings: Sequence[float],
    t: float,
    A: Optional[BalanceSolution] = None,
    m: int = 3,
) -> bool:
    """Whether the per-component pairing values match the scaled flow
    imbalance t^m * (outflow_k - inflow_k) of some (or the given)
    positive area vector.

    Every pairing and ``t`` must be a finite real number.  With ``A``
    supplied the pairings are read as floats by
    :func:`~slcones.errors.as_finite` and compared exactly, as
    Fractions, with t^m times the exact imbalance of ``A``, to relative
    tolerance :data:`PAIRING_TOL`.  When that imbalance is nonzero, an
    exact t^m beyond :data:`MAX_POWER_BITS` raises :class:`InputError`.

    Without ``A`` the pairings b_k are read as exact rationals by
    :func:`~slcones.errors.as_rational` (a float becomes the nearest
    fraction with denominator at most 10^12, so 0.1 reads as 1/10).  The
    question is then whether some x > 0 has outflow minus inflow b_k at
    every component, for x_e = w_e * A_e * t^m: the weights, ``t`` and
    ``m`` are positive scalings, so they drop out, as do self-loops,
    which enter no balance.  By the cut condition of Gale (1957) and
    Hoffman (1960), x >= c exists iff sum(b) = 0 and b(S) >= c times the
    number of edges leaving S, for every vertex set S that no edge
    enters.  With D the lcm of the denominators of b and n the number
    of edges left, a positive b(S) is at least 1/D, so scaling b by D(n + 1)
    turns "some x > 0" into "some x >= 1" exactly.  Then x = 1 + y with
    y >= 0 moves one unit of supply from each edge's tail to its head,
    and one integer max-flow decides whether some y meets the rest.
    """
    if len(pairings) != g.q:
        raise InputError(f"expected {g.q} pairing values, got {len(pairings)}")
    read = as_rational if A is None else as_finite
    vals = [read(p, f"pairing {k}") for k, p in enumerate(pairings, 1)]
    t = as_finite(t, "scale t")
    if not t > 0:
        raise InputError(f"scale t must be positive, got {t}")
    m_exp = as_int(m, "dimension m")
    if m_exp < 1:
        raise InputError(f"dimension must be >= 1, got {m_exp}")
    if A is not None:
        if len(A.A) != g.n:
            raise InputError(f"expected {g.n} areas, got {len(A.A)}")
        nets = _net_flow(g, A.A)
        # t^m only scales a nonzero imbalance, and grows with m
        tf = Fraction(t)
        bits = m_exp * (tf.numerator.bit_length() + tf.denominator.bit_length())
        if any(nets) and bits > MAX_POWER_BITS:
            raise InputError(f"t^m for m = {m_exp} needs {bits} bits, over {MAX_POWER_BITS}")
        tm = tf ** m_exp if any(nets) else 0
        tol = Fraction(PAIRING_TOL)
        for p, net in zip(vals, nets):
            p, target = Fraction(p), tm * net
            if abs(p - target) > tol * max(1, abs(target), abs(p)):
                return False
        return True

    if sum(vals) != 0:
        return False
    arcs = [(u, v) for u, v, _ in g.edges if u != v]
    scale = math.lcm(*(p.denominator for p in vals)) * (len(arcs) + 1)
    supply = [p.numerator * (scale // p.denominator) for p in vals]
    for u, v in arcs:
        supply[u - 1] -= 1
        supply[v - 1] += 1
    return _saturates(g.q, arcs, supply)
