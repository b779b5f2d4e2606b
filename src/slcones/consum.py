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
Each edge is read once, in :class:`IntersectionGraph`: an :class:`Edge`
or a plain triple whose int endpoints lie in 1..q and whose Fraction
weight is positive is taken inline, by the type tests of :func:`_edge`,
and any other value goes through :func:`_edge`.  The graph holds
:class:`Edge` records, which every kernel unpacks.  Each edge is indexed
once, by ``IntersectionGraph._build_trees``, whose one pass over the
edges lists every component's edges in both directions before both
searches run.  Only :func:`feasible` and :func:`solve_areas` use the
trees: the first of them called on a graph builds them and keeps them in
the graph for the other, and :func:`bipartition_oracle`,
:func:`check_balance` and :func:`family_balance_region` never build
them.  Each edge is then solved once, in one loop of :func:`solve_areas`
that builds its area and certifies it in Python ints: each edge's
w_i A_i equals its integer flow over the least flow, and the integer
flows balance at every component, which together are what
:func:`check_balance` decides.

All feasibility and balance arithmetic here is exact over the rationals;
floating point enters only through the phase-region classifier, whose
wall tolerance is :data:`WALL_TOL`.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

from .errors import (
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
    checked_replace,
    read_rational,
    shown,
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
    """The checked fields of one edge: the weight read by
    :func:`~slcones.errors.read_rational`, then tail and head by
    :func:`~slcones.errors.as_int`.  An ``int`` or ``Fraction`` weight and
    ``int`` endpoints take those readers' first-line fast paths inline,
    with no call; every other value goes to the reader, so each verdict
    and message is the reader's."""
    if type(weight) is int:  # as in as_rational
        w = Fraction(weight)
    elif isinstance(weight, Fraction):
        w = weight
    else:
        w = read_rational(weight, "edge weight")
    if w.numerator <= 0:
        raise InputError(f"edge weight must be positive, got {shown(w)}")
    if type(tail) is not int:  # type() lets no bool through, as in as_int
        tail = as_int(tail, "edge tail")
    if type(head) is not int:
        head = as_int(head, "edge head")
    return tail, head, w


class Edge(NamedTuple("Edge", [("tail", int), ("head", int), ("weight", Fraction)])):
    """Directed weighted edge: tail = component of the positive sheet,
    head = component of the negative sheet, weight = psi^m > 0 exact.
    Only ``Edge(...)`` checks its fields, so :class:`IntersectionGraph`
    checks every edge it is given again."""

    __slots__ = ()

    def __new__(cls, tail, head, weight):
        return tuple.__new__(cls, _edge(tail, head, weight))

    _replace = checked_replace


class IntersectionGraph(NamedTuple("IntersectionGraph", [("q", int), ("edges", tuple)])):
    """Directed multigraph on components 1..q; self-loops allowed."""

    # no __slots__: the search trees, once built, live in the instance __dict__;
    # until then this class attribute answers None
    _trees = None

    def __new__(cls, q: int, edges: Sequence):
        q = as_int(q, "number of components q")
        if q < 1:
            raise InputError(f"need at least one component, got q = {shown(q)}")
        checked = []
        append = checked.append
        for e in as_tuple(edges, "edges"):
            # an Edge or a plain triple whose fields pass _edge's type()
            # tests and lie in 1..q is read here; any other goes to _edge
            if (type(e) is tuple or type(e) is Edge) and len(e) == 3:
                u, v, w = e
                if (type(u) is int and type(v) is int and type(w) is Fraction
                        and w.numerator > 0 and 1 <= u <= q and 1 <= v <= q):
                    append(e)
                    continue
            try:
                u, v, _ = e = _edge(*e)
            except TypeError:  # _edge's readers raise only InputError
                raise InputError(
                    f"edge must be a (tail, head, weight) triple, got {shown(e)!r}"
                ) from None
            if not (1 <= u <= q and 1 <= v <= q):
                raise InputError(f"edge endpoints must lie in 1..{shown(q)}, got {shown((u, v))}")
            append(e)
        new = tuple.__new__  # every checked triple becomes an Edge record here
        return new(cls, (q, tuple(map(new, repeat(Edge), checked))))

    _replace = checked_replace

    @property
    def n(self) -> int:
        return len(self.edges)

    def _build_trees(self) -> list:
        """Build, keep as ``self._trees`` and return the in-tree and the
        out-tree of the breadth-first searches from component 1, which
        :func:`feasible` and :func:`solve_areas` call while ``self._trees``
        is None.  Each tree is ``(order, parent, via, below)``: the
        vertices in visit order, each vertex's tree parent and the index of
        its tree edge, and the count of non-loop edges into (in-tree) or
        out of (out-tree) each vertex.  One pass over the edges lists, for
        each vertex, the indices of its edges in both directions; an edge's
        far end is its tail (in-tree) or head (out-tree), and neighbours
        are scanned in edge order.  A graph with more than n + 1 components
        cannot be connected, and is refused before any list of length q is
        built."""
        q, edges = self.q, self.edges
        if q > len(edges) + 1:
            _require_connected(self)
        into = [[] for _ in range(q + 1)]
        out = [[] for _ in range(q + 1)]
        for idx, (u, v, _) in enumerate(edges):
            if u != v:
                into[v].append(idx)
                out[u].append(idx)
        trees = []
        for adj, far in ((into, 0), (out, 1)):
            parent = [0] * (q + 1)
            via = [0] * (q + 1)
            parent[1] = 1
            order = [1]
            for v in order:
                for idx in adj[v]:
                    w = edges[idx][far]
                    if not parent[w]:
                        parent[w] = v
                        via[w] = idx
                        order.append(w)
            trees.append((order, parent, via, [len(a) for a in adj]))
        self._trees = trees
        return trees


class BalanceSolution(NamedTuple("BalanceSolution", [("A", tuple)])):
    """Exact positive areas, one per intersection point."""

    __slots__ = ()

    def __new__(cls, A):
        vals = tuple(read_rational(x, "area") for x in as_tuple(A, "areas"))
        if any(v.numerator <= 0 for v in vals):
            raise InputError(f"areas must be positive, got {shown(vals)}")
        return tuple.__new__(cls, (vals,))

    _replace = checked_replace


def _require_connected(g: IntersectionGraph) -> None:
    """Raise :class:`PreconditionError` unless the underlying undirected
    graph is connected.

    Union-find over the edge endpoints, with path halving, counts the
    merges, and the pieces are q minus the merges, so the work depends
    only on the edges: a huge q with few edges is refused at once.
    """
    parent = {}
    pieces = g.q
    for u, v, _ in g.edges:
        # walk u and v to their roots, halving both paths on the way
        while u in parent:
            w = parent[u]
            if w in parent:
                parent[u] = w = parent[w]
            u = w
        while v in parent:
            w = parent[v]
            if w in parent:
                parent[v] = w = parent[w]
            v = w
        if u != v:
            parent[u] = v
            pieces -= 1
    if pieces != 1:
        raise PreconditionError(
            f"underlying undirected graph must be connected, found {shown(pieces)} pieces"
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
    in_tree, out_tree = g._trees or g._build_trees()
    if len(in_tree[0]) == len(out_tree[0]) == g.q:
        return True
    _require_connected(g)
    return False


def bipartition_oracle(g: IntersectionGraph) -> bool:
    """Exhaustive evaluation of the bipartition criterion; the reference
    oracle for :func:`feasible`.

    It tests every one of the 2^q - 2 proper subsets, word-parallel: bit
    s of the Python int ``inside[v]`` is set iff component v lies in
    subset s, so an edge u -> v leaves exactly the subsets in
    ``inside[u] & ~inside[v]`` and enters those in the reverse.  The
    graph passes iff the edges leave and enter every proper subset.  The
    words depend on q alone, so they are built once per q, after the
    size check: q 2^q bits for one q, about 5 MB for every q up to
    the limit of 20.
    """
    _require_connected(g)
    if g.q > _MAX_ORACLE_Q:
        raise InputError(f"oracle limited to q <= {_MAX_ORACLE_Q}, got q = {shown(g.q)}")
    inside = _subset_words(g.q)
    leaves = enters = 0
    for u, v, _ in g.edges:
        leaves |= inside[u] & ~inside[v]
        enters |= inside[v] & ~inside[u]
    proper = (1 << ((1 << g.q) - 1)) - 2  # bits 1 .. 2^q - 2
    return leaves & enters == proper


@lru_cache(maxsize=None)
def _subset_words(q: int) -> tuple:
    """``(0, inside[1], ..., inside[q])``: bit s of ``inside[v]`` is set
    iff bit v - 1 of s is, for every s < 2^q."""
    subsets = 1 << q
    inside = [0]
    for v in range(q):
        # bit v of s repeats as 2^v zeros then 2^v ones; double to 2^q bits
        word, width = ((1 << (1 << v)) - 1) << (1 << v), 2 << v
        while width < subsets:
            word |= word << width
            width *= 2
        inside.append(word)
    return tuple(inside)


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

    One loop over the edges then solves each one: it reads the weight's
    integer ratio, builds the area Fraction once, and certifies it in
    Python ints from that Fraction's own ``as_integer_ratio``.  With
    w = wn/wd and the returned A = an/ad in lowest terms,
    wn * an * lo == f * wd * ad says that w * A = f / lo exactly, for lo
    the least flow; and the integer flows f, summed at each edge's ends in
    the same loop, must balance at every component.  Together these prove
    what :func:`check_balance` proves: the weighted flow w * A balances.
    Positivity holds by construction, since f >= 1, lo >= 1 and w > 0.
    If either check fails, :class:`NumericError` is raised.
    """
    q, edges = g.q, g.edges
    flows = [1] * len(edges)
    for order, parent, via, below in g._trees or g._build_trees():
        if len(order) < q:
            _require_connected(g)
            raise InfeasibleGraphError(
                "graph is not strongly connected: no positive balanced areas exist"
            )
        below = below[:]  # edge heads (in-tree) or tails (out-tree) per subtree
        for w in reversed(order[1:]):
            flows[via[w]] += below[w]
            below[parent[w]] += below[w]
    if not edges:
        return BalanceSolution(())
    lo = min(flows)
    areas = []
    add = areas.append
    net = [0] * (q + 1)
    # Fraction defines no __init__, so its __new__ alone builds the area
    # that Fraction(x, y) would, without type.__call__'s dispatch
    ratio, new = Fraction, Fraction.__new__
    for f, (u, v, w) in zip(flows, edges):
        wn, wd = w.as_integer_ratio()
        x, y = f * wd, lo * wn
        a = new(ratio, x, y)
        an, ad = a.as_integer_ratio()
        if an * y != ad * x:  # wn * an * lo == f * wd * ad: w * A == f / lo
            raise NumericError("computed areas do not balance the weighted flow")
        add(a)
        net[u] += f
        net[v] -= f
    if any(net):
        raise NumericError("computed areas do not balance the weighted flow")
    return tuple.__new__(BalanceSolution, (tuple(areas),))


def _scaled_net(g: IntersectionGraph, A: Sequence) -> tuple:
    """Weighted outflow minus inflow of areas ``A`` at the edge endpoints,
    as integers over one common denominator: returns ``(net, d)`` with
    ``net[k] / d`` the net flow at component k, a dict holding only the
    components that some edge touches (the net flow is 0 elsewhere)."""
    terms = []
    for (_, _, w), a in zip(g.edges, A):
        (wn, wd), (an, ad) = w.as_integer_ratio(), a.as_integer_ratio()
        terms.append((wn * an, wd * ad))
    d = math.lcm(*(den for _, den in terms))
    net = {}
    for (u, v, _), (num, den) in zip(g.edges, terms):
        f = num * (d // den)
        net[u] = net.get(u, 0) + f
        net[v] = net.get(v, 0) - f
    return net, d


def check_balance(g: IntersectionGraph, sol: BalanceSolution) -> bool:
    """Exact check of the weighted flow balance at every component.

    The terms w_e * A_e are summed at each edge endpoint as integers over
    the lcm of their denominators, so the check builds no Fraction and
    takes O(n) work whatever q is; the flow balances iff every such
    integer sum is zero.
    """
    if len(sol.A) != g.n:
        raise InputError(f"expected {g.n} areas, got {len(sol.A)}")
    return not any(_scaled_net(g, sol.A)[0].values())


class ModuliDim(NamedTuple):
    """First Betti number of the connected sum and the index-one flag."""

    b1: int
    index_one: bool


def moduli_dim_relation(n: int, q: int, b1X: int) -> ModuliDim:
    """b1 of the n-fold connected sum of q components: n + 1 - q + b1X.

    Each sum either joins two pieces (dropping b0 by one) or adds a
    handle (raising b1 by one); n = q marks the index-one boundary case
    where the glued moduli space has exactly one extra dimension.
    """
    n, q, b1X = as_int(n, "n"), as_int(q, "q", least=1), as_int(b1X, "b1X", least=0)
    if n < q - 1:
        raise InputError(
            f"{shown(n)} sums cannot connect {shown(q)} components: need n >= q - 1"
        )
    return ModuliDim(n + 1 - q + b1X, n == q)


class PhaseFamilyQuery(NamedTuple("PhaseFamilyQuery", [
    ("R1", float), ("R2", float), ("theta1", float), ("theta2", float), ("psi", float), ("m", int),
])):
    """Phase data of a two-component family: [class]·[X_k] = R_k e^{i theta_k}."""

    __slots__ = ()

    def __new__(cls, R1, R2, theta1, theta2, psi, m):
        return tuple.__new__(cls, (
            as_positive(R1, "component magnitude R1"),
            as_positive(R2, "component magnitude R2"),
            as_finite(theta1, "phase theta1"),
            as_finite(theta2, "phase theta2"),
            as_positive(psi, "angle invariant psi"),
            as_int(m, "dimension m", least=1),
        ))

    _replace = checked_replace


class PhaseRegionResult(NamedTuple):
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
        t = (qr.R1 * s1) ** (1 / qr.m) / qr.psi  # psi^m could overflow
        if t == math.inf:
            raise NumericError(f"neck scale t overflows: psi = {qr.psi} is too small")
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
    turns "some x > 0" into "some x >= 1" exactly.  The scaled supplies
    are integers, and sum(b) = 0 is tested on them, as their sum is
    D(n + 1) sum(b).  Then x = 1 + y with y >= 0 moves one unit of supply
    from each edge's tail to its head, and one integer max-flow decides
    whether some y meets the rest.
    """
    pairings = as_tuple(pairings, "pairings")
    if len(pairings) != g.q:
        raise InputError(f"expected {g.q} pairing values, got {len(pairings)}")
    read = as_rational if A is None else as_finite
    vals = [read(p, f"pairing {k}") for k, p in enumerate(pairings, 1)]
    t = as_positive(t, "scale t")
    m_exp = as_int(m, "dimension m", least=1)
    if A is not None:
        if len(A.A) != g.n:
            raise InputError(f"expected {g.n} areas, got {len(A.A)}")
        net, d = _scaled_net(g, A.A)
        # t^m only scales a nonzero imbalance, and grows with m
        imbalanced = any(net.values())
        tf = Fraction(t)
        bits = m_exp * (tf.numerator.bit_length() + tf.denominator.bit_length())
        if imbalanced and bits > MAX_POWER_BITS:
            raise InputError(
                f"t^m for m = {shown(m_exp)} needs {shown(bits)} bits, over {MAX_POWER_BITS}"
            )
        tm = tf ** m_exp / d if imbalanced else 0
        tol = Fraction(PAIRING_TOL)
        for k, p in enumerate(vals, 1):
            p, target = Fraction(p), tm * net.get(k, 0)
            if abs(p - target) > tol * max(1, abs(target), abs(p)):
                return False
        return True

    arcs = [(u, v) for u, v, _ in g.edges if u != v]
    scale = math.lcm(*(p.denominator for p in vals)) * (len(arcs) + 1)
    supply = [p.numerator * (scale // p.denominator) for p in vals]
    if sum(supply):  # D(n + 1) sum(b), so zero iff sum(b) is
        return False
    for u, v in arcs:
        supply[u - 1] -= 1
        supply[v - 1] += 1
    return _saturates(g.q, arcs, supply)
