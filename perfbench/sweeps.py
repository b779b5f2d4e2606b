"""Seeded in-process items of the ``neck-sweep`` and ``exact-sweep`` workloads.

Each item's ``compute`` makes the timed calls into the library through
``fns``, a mapping from ``module.function`` to either the function itself
or a tracing wrapper; its ``check`` verifies the result untimed.

Inputs come from ``random.Random`` seeded with a string built from the
workload seed and the pass number, so the same seed gives the same items
on every machine and Python version.  A pass has a fixed composition (the
count of each kind of item is constant, only the values are drawn), so
the work mix, and the computed counts in ``props``, do not drift with the
seed.
"""
from __future__ import annotations

import cmath
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from items import Item, expect
from slcones import consum, dims, lawlor, planes, spectrum, t2cone

#: every public function a sweep calls, by span name
FUNCTIONS = {
    "spectrum.enumerate_spectrum": spectrum.enumerate_spectrum,
    "spectrum.stability_index": spectrum.stability_index,
    "lawlor.angles_from_a": lawlor.angles_from_a,
    "lawlor.a_from_angles": lawlor.a_from_angles,
    "lawlor.verify_sl_neck": lawlor.verify_sl_neck,
    "consum.feasible": consum.feasible,
    "consum.bipartition_oracle": consum.bipartition_oracle,
    "consum.solve_areas": consum.solve_areas,
    "consum.family_balance_region": consum.family_balance_region,
    "t2cone.two_singularity_gluings": t2cone.two_singularity_gluings,
    "t2cone.k_from_generator": t2cone.k_from_generator,
    "t2cone.h1_order": t2cone.h1_order,
    "dims.full_report": dims.full_report,
    "planes.characteristic_angles": planes.characteristic_angles,
    "planes.canonical_transform": planes.canonical_transform,
}

#: per pass: (m, items with a in [0.2, 5]^m, items with a = 10^U[-2, 2]).
#: m = 8 draws no wide ratios: their cost is heavy-tailed (median 0.4 s,
#: about one draw in 40 over 2 s), so a run's total would hang on the seed.
NECK_MIX = ((3, 4, 1), (5, 4, 1), (8, 5, 0))
NECK_SAMPLES = 4
ROUND_TRIP_TOL = 1e-8

#: (m, cutoff) grid of the retired two-backend spectrum script, extended to m = 30
SPECTRUM_GRID = (
    (3, 50), (3, 200), (4, 100), (5, 100), (7, 60),
    (9, 40), (12, 30), (16, 30), (20, 30), (30, 30),
)
STABILITY_M = tuple(range(3, 13))
#: tiny graphs per pass: CONSUM_TINY_PER_Q feasible and as many infeasible per q
CONSUM_TINY_Q = (2, 3, 4, 5, 6)
CONSUM_TINY_PER_Q = 4
CONSUM_LARGE_Q = (50, 100, 200)
CONSUM_FAMILY = 10
T2_RANDOM_BASES = 8
T2_GENERATORS = 8
DIMS_PROFILES = 20
PLANES_M = (3, 4, 5, 6)
PLANES_PER_M = 3
PLANES_TOL = 1e-8

_GOLDENS = json.loads(Path(__file__).with_name("goldens.json").read_text())


# ---------------------------------------------------------------------------
# neck-sweep


def _neck_item(rng, m: int, wide: bool) -> Item:
    if wide:
        a = tuple(10.0 ** rng.uniform(-2.0, 2.0) for _ in range(m))
    else:
        a = tuple(rng.uniform(0.2, 5.0) for _ in range(m))

    def compute(fns):
        p = lawlor.NeckParams(a)
        spec = fns["lawlor.angles_from_a"](p)
        back = fns["lawlor.a_from_angles"](spec)
        res = fns["lawlor.verify_sl_neck"](p, sample_count=NECK_SAMPLES)
        return spec, back, res

    def check(out):
        spec, back, res = out
        rel = max(abs(b - x) / x for b, x in zip(back.a, a))
        expect(rel <= ROUND_TRIP_TOL, f"round trip rel error {rel:.3e} at a={a}")
        dev = abs(sum(spec.phi) - math.pi)
        expect(dev <= m * lawlor.DEFAULT_TOL, f"angle sum off pi by {dev:.3e}")
        worst = max(res.max_omega_residual, res.max_phase_residual)
        expect(worst <= lawlor.NECK_RESIDUAL_BOUND, f"neck SL residual {worst:.3e}")

    return Item(f"lawlor_m{m}", compute, check, {"m": m, "wide": wide})


def neck_pass(rng) -> list:
    items = [
        _neck_item(rng, m, wide)
        for m, narrow, wide_count in NECK_MIX
        for wide in [False] * narrow + [True] * wide_count
    ]
    rng.shuffle(items)
    return items


def neck_warmup(rng) -> list:
    return [_neck_item(rng, m, False) for m, _, _ in NECK_MIX]


# ---------------------------------------------------------------------------
# exact-sweep: spectrum


def _dp_cells(m: int, cutoff: int) -> int:
    """Cells the lattice DP updates: m-1 layers of a (2 s_max + 1) x (cutoff + 1)
    table, s_max = (m-1) floor(sqrt(cutoff))."""
    d = m - 1
    return d * (2 * d * math.isqrt(cutoff) + 1) * (cutoff + 1)


def _entries_digest(entries) -> str:
    doc = [[str(lam), int(mult)] for lam, mult in entries]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _spectrum_item(m: int, cutoff: int) -> Item:
    def compute(fns):
        return fns["spectrum.enumerate_spectrum"](m, cutoff)

    def check(spec):
        got = _entries_digest(spec.entries)
        want = _GOLDENS["spectrum"][f"{m},{cutoff}"]
        expect(got == want, f"spectrum table m={m} cutoff={cutoff} differs from golden")

    return Item("spectrum", compute, check, {"dp_cells": _dp_cells(m, cutoff)})


def _stability_item(m: int) -> Item:
    def compute(fns):
        return fns["spectrum.stability_index"](m)

    def check(rep):
        want = tuple(_GOLDENS["stability"][str(m)])
        got = (rep.n_sigma2, rep.m_sigma2, rep.s_ind)
        expect(got == want, f"stability m={m}: got {got}, want {want}")
        expect(rep.stable == (m == 3), f"stable flag m={m}")
        expect(rep.rigid == (m not in (8, 9)), f"rigid flag m={m}")

    return Item("stability", compute, check, {"dp_cells": _dp_cells(m, 2 * m)})


# ---------------------------------------------------------------------------
# exact-sweep: consum


def _weight(rng) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(1, 12))


def _strong_graph(rng, q: int, extra: int) -> list:
    """A directed Hamiltonian cycle plus random extra edges: strongly connected."""
    order = list(range(1, q + 1))
    rng.shuffle(order)
    pairs = [(order[i], order[(i + 1) % q]) for i in range(q)]
    pairs += [(rng.randint(1, q), rng.randint(1, q)) for _ in range(extra)]
    return pairs


def _split_graph(rng, q: int, extra: int) -> list:
    """Connected, but every edge between the parts S and T runs S -> T, so
    T cannot reach S: not strongly connected."""
    order = list(range(1, q + 1))
    rng.shuffle(order)
    cut = rng.randint(1, q - 1)
    side_s, side_t = order[:cut], order[cut:]
    pairs = []
    for part in (side_s, side_t):
        for u, v in zip(part, part[1:]):
            pairs.append((u, v) if rng.random() < 0.5 else (v, u))
    pairs.append((rng.choice(side_s), rng.choice(side_t)))
    for _ in range(extra):
        u, v = rng.randint(1, q), rng.randint(1, q)
        if u in side_t and v in side_s:
            u, v = v, u
        pairs.append((u, v))
    return pairs


def _check_areas(edges, q: int, areas) -> None:
    expect(len(areas) == len(edges), "one area per edge")
    expect(all(x > 0 for x in areas), "areas must be positive")
    net = [Fraction(0)] * (q + 1)
    for (tail, head, w), x in zip(edges, areas):
        net[tail] += w * x
        net[head] -= w * x
    expect(not any(net), "areas do not balance the weighted flow")


def _consum_tiny_item(rng, q: int, strong: bool) -> Item:
    extra = rng.randint(0, q + 2)
    pairs = _strong_graph(rng, q, extra) if strong else _split_graph(rng, q, extra)
    edges = [(u, v, _weight(rng)) for u, v in pairs]

    def compute(fns):
        g = consum.IntersectionGraph(q, edges)
        ok = fns["consum.feasible"](g)
        oracle = fns["consum.bipartition_oracle"](g)
        sol = fns["consum.solve_areas"](g) if ok else None
        return ok, oracle, sol

    def check(out):
        ok, oracle, sol = out
        expect(ok == oracle, f"feasible {ok} != bipartition oracle {oracle}")
        expect(ok == strong, f"feasible {ok}, constructed {strong}")
        if ok:
            _check_areas(edges, q, sol.A)

    return Item("consum_tiny", compute, check, {"edges": len(edges), "feasible": strong})


def _consum_large_item(rng, q: int) -> Item:
    edges = [(u, v, _weight(rng)) for u, v in _strong_graph(rng, q, q)]

    def compute(fns):
        g = consum.IntersectionGraph(q, edges)
        ok = fns["consum.feasible"](g)
        return ok, fns["consum.solve_areas"](g)

    def check(out):
        ok, sol = out
        expect(ok, f"strongly connected graph with q={q} reported infeasible")
        _check_areas(edges, q, sol.A)

    return Item("consum_large", compute, check, {"edges": len(edges), "feasible": True})


def _net(edges, q: int, areas) -> list:
    net = [0] * q
    for (tail, head, w), x in zip(edges, areas):
        net[tail - 1] += w * x
        net[head - 1] -= w * x
    return net


def _family_item(rng, reachable: bool) -> Item:
    """Pairings t^3 * (imbalance of an integer area vector), exact in floats.

    Reachable: positive areas on a strongly connected graph.  Unreachable:
    a tree, where the areas are the unique solution, with one negative."""
    q = rng.randint(3, 5)
    if reachable:
        pairs = _strong_graph(rng, q, rng.randint(1, 3))
    else:
        order = list(range(1, q + 1))
        rng.shuffle(order)
        pairs = []
        for i in range(1, q):
            u, v = order[i], order[rng.randint(0, i - 1)]
            pairs.append((u, v) if rng.random() < 0.5 else (v, u))
    edges = [(u, v, rng.randint(1, 6)) for u, v in pairs]
    areas = [rng.randint(1, 5) for _ in edges]
    if not reachable:
        areas[rng.randrange(len(areas))] *= -1
    t = 2.0
    pairings = [float(8 * x) for x in _net(edges, q, areas)]

    def compute(fns):
        g = consum.IntersectionGraph(q, edges)
        return fns["consum.family_balance_region"](g, pairings, t)

    def check(got):
        expect(got == reachable, f"family_balance_region {got}, constructed {reachable}")

    return Item("consum_family", compute, check, {"edges": len(edges)})


# ---------------------------------------------------------------------------
# exact-sweep: t2cone


def _rank(rows) -> int:
    a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(a[0])):
        piv = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][c] != 0:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


_W = {1: (1, 0), 2: (0, 1), 3: (-1, -1)}


def _in_span(b1, b2, v) -> bool:
    return _rank([b1, b2, v]) == 2


def _golden_gluing_item(case) -> Item:
    (b1, b2), want = case
    want = [tuple(w) for w in want]

    def compute(fns):
        return fns["t2cone.two_singularity_gluings"](t2cone.T2PairBasis(b1, b2))

    def check(sols):
        got = sorted(
            (s.j1, s.j2, None if s.ratio is None else str(s.ratio), s.dimY) for s in sols
        )
        expect(got == want, f"gluings of golden basis {b1}, {b2}: got {got}")

    return Item("t2cone", compute, check)


def _random_basis(rng):
    """B1, B2 in Q^4 with u1 v2 - u2 v1 + y1 z2 - y2 z1 = 0, independent."""
    def rat():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    while True:
        b1 = [rat() for _ in range(4)]
        if b1[0] == 0:
            continue
        # solve the pairing identity for v2
        u2, y2, z2 = rat(), rat(), rat()
        v2 = (u2 * b1[1] - b1[2] * z2 + y2 * b1[3]) / b1[0]
        b2 = [u2, v2, y2, z2]
        if _rank([b1, b2]) == 2:
            return b1, b2


def _random_gluing_item(rng) -> Item:
    b1, b2 = _random_basis(rng)
    basis = ((tuple(b1[:2]), tuple(b1[2:])), (tuple(b2[:2]), tuple(b2[2:])))

    def compute(fns):
        return fns["t2cone.two_singularity_gluings"](t2cone.T2PairBasis(*basis))

    def check(sols):
        for s in sols:
            w1, w2 = _W[s.j1], _W[s.j2]
            if s.ratio is None:
                vecs = [(*w1, 0, 0), (0, 0, *w2)]
                expect(s.dimY == 2, f"quadrant family with dimY {s.dimY}")
            else:
                expect(s.ratio > 0, f"non-positive ratio {s.ratio}")
                vecs = [(*w1, s.ratio * w2[0], s.ratio * w2[1])]
                expect(s.dimY == 1, f"ray family with dimY {s.dimY}")
            expect(all(_in_span(b1, b2, v) for v in vecs),
                    f"family ({s.j1}, {s.j2}) leaves span(B1, B2)")

    return Item("t2cone", compute, check)


def _generator_item(rng) -> Item:
    while True:
        p, q = rng.randint(-20, 20), rng.randint(-20, 20)
        if math.gcd(p, q) == 1:
            break
    h1x = rng.randint(1, 30)

    def compute(fns):
        s = fns["t2cone.k_from_generator"](p, q)
        return s, [fns["t2cone.h1_order"](s, h1x, j) for j in (1, 2, 3)]

    def check(out):
        s, orders = out
        k = (-q, p, q - p)
        first = next(x for x in (k[1], -k[0]) if x != 0)
        if first < 0:
            k = tuple(-x for x in k)
        expect(s.k == k, f"k_from_generator({p}, {q}) = {s.k}, want {k}")
        want = [None if kj == 0 else abs(kj) * h1x for kj in k]
        expect(orders == want, f"h1 orders {orders}, want {want}")

    return Item("t2cone", compute, check)


# ---------------------------------------------------------------------------
# exact-sweep: dims and planes


def _dims_item(rng, n: int) -> Item:
    """A random profile with n cones, chosen so that every dimension
    formula is >= 0."""
    m = rng.randint(3, 8)
    cones, necks = [], []
    for _ in range(n):
        l = rng.randint(1, 3)
        b0 = rng.randint(1, l)
        b1cs = rng.randint(0, 2)
        b1 = rng.randint(max(0, b0 + b1cs - l), b0 + b1cs - l + 3)
        cones.append({"l": l, "s_ind": rng.randint(0, 50), "rigid": rng.random() < 0.8})
        necks.append({"b0L": b0, "b1L": b1, "b1csL": b1cs})
    sum_l = sum(c["l"] for c in cones)
    sum_b0 = sum(n["b0L"] for n in necks)
    sum_b1cs = sum(n["b1csL"] for n in necks)
    q = rng.randint(1, 1 + sum_l - sum_b0)
    b1cs_x = rng.randint(max(0, sum_l - q), sum_l - q + 3)
    dim_y = rng.randint(max(0, q - 1 - sum_b1cs, sum_l - 1 - b1cs_x - sum_b1cs), 2 * q + 2)

    def compute(fns):
        p = dims.TopologyProfile(m, q, b1cs_x, cones, necks, dim_y)
        return fns["dims.full_report"](p)

    def check(rep):
        dim_i = b1cs_x + q - sum_l
        b1n = dim_y + 1 + b1cs_x + sum_b1cs - sum_l
        dim_f = dim_y + 1 - q + sum_b1cs
        want = (
            dim_i,
            1 - q + sum_l - sum_b0,
            tuple(n["b1L"] - n["b0L"] + c["l"] - n["b1csL"] for c, n in zip(cones, necks)),
            tuple(c["l"] - n["b0L"] for c, n in zip(cones, necks)),
            tuple(n["b1L"] - n["b0L"] + c["l"] for c, n in zip(cones, necks)),
            b1n,
            dim_f,
            dim_f + sum(c["s_ind"] for c in cones),
            not all(c["rigid"] for c in cones),
        )
        got = (rep.dimI, rep.dimZ, rep.dimYi, rep.dimZi, rep.dimML0, rep.b1N,
               rep.dimF, rep.indX, rep.non_rigid_warning)
        expect(got == want, f"dimension report {got}, want {want}")
        expect(dim_f == b1n - dim_i, "dimF = b1(N) - dimI")

    return Item("dims", compute, check)


def _special_unitary(rng, m: int) -> np.ndarray:
    z = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(m)]
                  for _ in range(m)])
    qm, r = np.linalg.qr(z)
    qm = qm * (np.diag(r) / np.abs(np.diag(r)))
    return qm / cmath.exp(1j * cmath.phase(np.linalg.det(qm)) / m)


def _planes_item(rng, m: int) -> Item:
    f1, f2 = _special_unitary(rng, m), _special_unitary(rng, m)

    def compute(fns):
        p1, p2 = planes.SLPlane(f1), planes.SLPlane(f2)
        rep = fns["planes.characteristic_angles"](p1, p2)
        return rep, fns["planes.canonical_transform"](p1, p2)

    def check(out):
        rep, b = out
        expect(rep.transverse and 1 <= rep.k <= m - 1, f"type {rep.k} of a random pair")
        expect(all(0 < x < math.pi for x in rep.angles), "angles inside (0, pi)")
        dev = abs(sum(rep.angles) - rep.k * math.pi)
        expect(dev <= PLANES_TOL, f"angle sum off k*pi by {dev:.3e}")
        expect(np.max(np.abs(b @ b.conj().T - np.eye(m))) <= PLANES_TOL, "B unitary")
        expect(abs(np.linalg.det(b) - 1) <= PLANES_TOL, "det B = 1")
        expect(np.max(np.abs((b @ f1).imag)) <= PLANES_TOL, "B p1 spans R^m")
        model = np.exp(-1j * np.array(rep.angles))[:, None] * (b @ f2)
        expect(np.max(np.abs(model.imag)) <= PLANES_TOL, "B p2 spans the model plane")

    return Item("planes", compute, check)


def exact_pass(rng) -> list:
    items = [_spectrum_item(m, c) for m, c in SPECTRUM_GRID]
    items += [_stability_item(m) for m in STABILITY_M]
    items += [_consum_tiny_item(rng, q, strong) for q in CONSUM_TINY_Q
              for strong in (True, False) for _ in range(CONSUM_TINY_PER_Q)]
    items += [_consum_large_item(rng, q) for q in CONSUM_LARGE_Q]
    items += [_family_item(rng, i % 2 == 0) for i in range(CONSUM_FAMILY)]
    items += [_golden_gluing_item(case) for case in _GOLDENS["gluings"]]
    items += [_random_gluing_item(rng) for _ in range(T2_RANDOM_BASES)]
    items += [_generator_item(rng) for _ in range(T2_GENERATORS)]
    items += [_dims_item(rng, 1 + i % 4) for i in range(DIMS_PROFILES)]
    items += [_planes_item(rng, m) for m in PLANES_M for _ in range(PLANES_PER_M)]
    rng.shuffle(items)
    return items


def exact_warmup(rng) -> list:
    """One item of every kind."""
    seen, out = set(), []
    for it in exact_pass(rng):
        if it.kind not in seen:
            seen.add(it.kind)
            out.append(it)
    return out
