"""Acceptance gate: every shipped guarantee checked at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` verdict line (bypassing pytest's
capture) so a run of this file reads as a checklist.  Tolerances and sample
sizes here are contractual — do not loosen them to make a failure go away.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from haar import haar_so, haar_su
from slcones.cli import _goldens
from slcones.consum import (
    IntersectionGraph,
    bipartition_oracle,
    check_balance,
    feasible,
    solve_areas,
)
from slcones.dims import (
    ConeData,
    NeckTopology,
    TopologyProfile,
    ac_moduli_dims,
    full_report,
    moduli_jump,
)
from slcones.errors import InconsistentProfileError
from slcones.lawlor import (
    HL_CONE_RESIDUAL_BOUND,
    NECK_RESIDUAL_BOUND,
    NeckParams,
    a_from_angles,
    angles_from_a,
    neck_point,
    verify_sl_hl_cone,
    verify_sl_neck,
    z_invariant,
)
from slcones.planes import (
    SLPlane,
    canonical_transform,
    characteristic_angles,
    phi_frame,
    z_pairing_signs,
)
from slcones.spectrum import stability_index
from slcones.t2cone import (
    GluingSolution,
    T2PairBasis,
    T2Singularity,
    h1_order,
    two_singularity_gluings,
)

PI = math.pi


def _verdict(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Link spectrum and stability


GOLDEN_STABILITY = {int(m): tuple(row) for m, row in _goldens("stability").items()}


@lru_cache(maxsize=1)
def _stability_reports():
    t0 = time.perf_counter()
    reps = {m: stability_index(m) for m in GOLDEN_STABILITY}
    return reps, time.perf_counter() - t0


def test_stability_table(capsys):
    reps, elapsed = _stability_reports()
    bad = [
        m
        for m, want in GOLDEN_STABILITY.items()
        if (reps[m].n_sigma2, reps[m].m_sigma2, reps[m].s_ind) != want
    ]
    ok = not bad and elapsed <= 10.0
    _verdict(
        capsys,
        "stability table m=3..12 exact",
        ok,
        f"{len(GOLDEN_STABILITY) - len(bad)}/{len(GOLDEN_STABILITY)} rows, "
        f"{elapsed:.2f} s (budget 10 s)" + (f", wrong: {bad}" if bad else ""),
    )


# From m = 10 on, the closed form holds; 1699980 is the largest m that
# spectrum.MAX_WALK_WORK admits.
ASYMPTOTIC_M = (*range(10, 41), 100, 1000, 10**5, 1699980)


def test_asymptotic_counts(capsys):
    bad = []
    for m in ASYMPTOTIC_M:
        rep = stability_index(m)
        got = (rep.n_sigma2, rep.m_sigma2, rep.s_ind, rep.rigid, rep.stable)
        if got != (2 * m * m + 1, m * m - m, m * (m - 1), True, False):
            bad.append(m)
    _verdict(
        capsys,
        "large-m count identities (2m^2+1, m^2-m, m(m-1)), rigid, not stable",
        not bad,
        "m=10..40, 100, 1000, 10^5, 1699980 exact" if not bad else f"wrong at {bad}",
    )


def test_rigidity_window(capsys):
    reps, _ = _stability_reports()
    bad = [m for m in GOLDEN_STABILITY if reps[m].rigid != (m not in (8, 9))]
    _verdict(
        capsys,
        "rigidity exactly outside m=8,9",
        not bad,
        "all 10 flags correct" if not bad else f"wrong at {bad}",
    )


# ---------------------------------------------------------------------------
# Neck angle map


@lru_cache(maxsize=1)
def _angle_solutions():
    """100 random parameter vectors per dimension, solved once and shared."""
    rng = np.random.default_rng(905732)
    t0 = time.perf_counter()
    solved = []
    for m in (3, 4, 5):
        for _ in range(100):
            a = tuple(rng.uniform(0.2, 5.0, size=m))
            solved.append((m, a, angles_from_a(NeckParams(a))))
    return solved, time.perf_counter() - t0


def test_neck_angle_sum(capsys):
    solved, elapsed = _angle_solutions()
    worst_sum = max(abs(sum(spec.phi) - PI) for _, _, spec in solved)
    worst_sym = max(
        max(abs(p - PI / m) for p in angles_from_a(NeckParams((1.0,) * m)).phi)
        for m in (3, 4, 5)
    )
    ok = worst_sum <= 1e-10 and worst_sym <= 1e-12 and elapsed <= 30.0
    _verdict(
        capsys,
        "neck angles sum to pi",
        ok,
        f"300 samples, max |sum-pi| = {worst_sum:.2e} (tol 1e-10), "
        f"symmetric offset {worst_sym:.2e} (tol 1e-12), {elapsed:.2f} s (budget 30 s)",
    )


def test_neck_round_trip(capsys):
    solved, _ = _angle_solutions()
    worst = 0.0
    for _, a, spec in solved:
        back = a_from_angles(spec).a
        worst = max(worst, max(abs(b - x) / x for b, x in zip(back, a)))
    _verdict(
        capsys,
        "neck parameter round trip",
        worst <= 1e-8,
        f"300 samples, max rel err = {worst:.2e} (tol 1e-8)",
    )


def test_sl_residuals(capsys):
    cone3 = verify_sl_hl_cone(3, sample_count=500)
    cone5 = verify_sl_hl_cone(5, sample_count=500)
    cone_worst = max(
        cone3.max_omega_residual,
        cone3.max_phase_residual,
        cone5.max_omega_residual,
        cone5.max_phase_residual,
    )
    neck_worst = 0.0
    for a in ((4.0, 1.0, 1.0), (1.0, 2.0, 3.0)):
        r = verify_sl_neck(NeckParams(a), sample_count=400)
        neck_worst = max(neck_worst, r.max_omega_residual, r.max_phase_residual)
    ok = cone_worst <= HL_CONE_RESIDUAL_BOUND and neck_worst <= NECK_RESIDUAL_BOUND
    _verdict(
        capsys,
        "calibration residuals (cone analytic, neck analytic)",
        ok,
        f"cone m=3,5 max {cone_worst:.2e} (tol {HL_CONE_RESIDUAL_BOUND:.0e}); "
        f"neck m=3 max {neck_worst:.2e} (tol {NECK_RESIDUAL_BOUND:.0e})",
    )


# ---------------------------------------------------------------------------
# Plane pairs


def _plane_projector(frame):
    x = np.vstack([frame.real, frame.imag])
    q, _ = np.linalg.qr(x)
    return q @ q.T


def _subspace_distance(f1, f2):
    return np.linalg.norm(_plane_projector(f1) - _plane_projector(f2), 2)


def test_plane_pair_invariances(capsys):
    rng = np.random.default_rng(415263)
    worst_swap = worst_su = worst_so = worst_rec = 0.0
    k_bad = 0
    for trial in range(200):
        m = 3 + trial % 4
        p1 = SLPlane(haar_su(rng, m))
        p2 = SLPlane(haar_su(rng, m))
        rep = characteristic_angles(p1, p2)

        swapped = characteristic_angles(p2, p1)
        want = [PI - phi for phi in reversed(rep.angles)]
        worst_swap = max(
            worst_swap, max(abs(g - w) for g, w in zip(swapped.angles, want))
        )
        if swapped.k != m - rep.k:
            k_bad += 1

        u = haar_su(rng, m)
        left = characteristic_angles(SLPlane(u @ p1.frame), SLPlane(u @ p2.frame))
        worst_su = max(
            worst_su, max(abs(g - w) for g, w in zip(left.angles, rep.angles))
        )
        if left.k != rep.k:
            k_bad += 1

        o = haar_so(rng, m)
        right = characteristic_angles(SLPlane(p1.frame @ o), SLPlane(p2.frame @ o))
        worst_so = max(
            worst_so, max(abs(g - w) for g, w in zip(right.angles, rep.angles))
        )
        if right.k != rep.k:
            k_bad += 1

        b = canonical_transform(p1, p2)
        worst_rec = max(
            worst_rec,
            _subspace_distance(b @ p1.frame, np.eye(m)),
            _subspace_distance(b @ p2.frame, phi_frame(rep.angles).frame),
        )
    ok = (
        worst_swap <= 1e-9
        and worst_su <= 1e-9
        and worst_so <= 1e-9
        and k_bad == 0
        and worst_rec <= 1e-8
    )
    _verdict(
        capsys,
        "plane-pair swap/U-action laws and reconstruction",
        ok,
        f"200 pairs m=3..6: swap {worst_swap:.2e}, left-SU {worst_su:.2e}, "
        f"right-SO {worst_so:.2e} (tol 1e-9), type mismatches {k_bad}, "
        f"reconstruction {worst_rec:.2e} (tol 1e-8)",
    )


def _end_frame(p, y):
    """The frame with columns z(y) e_k / |z_k(y)|: the tangent plane of the
    neck's end at y -> +-inf, up to the normalisation."""
    f = np.array([neck_point(p, y, e) for e in np.eye(p.m)]).T
    return f / np.linalg.norm(f, axis=0)


def test_neck_ends_are_a_type_one_pair(capsys):
    """A Lawlor neck with angles phi joins R^m (its end at y -> -inf) to
    the model plane of phi (its end at y -> +inf), a transverse pair of
    type 1.  The end frame at +inf is diag(e^(i phi_k)), whose det is
    e^(i pi) = -1; its last column is negated, as :func:`phi_frame` does
    for odd type, so that both frames are special unitary."""
    rng = np.random.default_rng(1989)
    worst = 0.0
    bad = []
    for m in (3, 5, 8):
        for _ in range(5):
            p = NeckParams(tuple(rng.uniform(0.2, 5.0, size=m)))
            spec = angles_from_a(p)
            lower, upper = _end_frame(p, -1e8), _end_frame(p, 1e8)
            upper[:, -1] *= -1.0
            rep = characteristic_angles(SLPlane(lower), SLPlane(upper))
            worst = max(worst, max(abs(g - w) for g, w in zip(rep.angles, sorted(spec.phi))))
            signs = z_pairing_signs(rep) if rep.transverse else None
            if (
                rep.k != 1
                or not rep.lawlor_exists
                or signs != (1, -1)
                or tuple(s * spec.A for s in signs) != z_invariant(spec)
            ):
                bad.append(p.a)
    _verdict(
        capsys,
        "Lawlor neck ends -> plane pair of type 1",
        worst <= 1e-14 and not bad,
        f"15 necks m=3,5,8: angles vs angles_from_a {worst:.2e} (tol 1e-14), "
        f"pairs not of type 1 with signs (1, -1) = z_invariant / A: {len(bad)}",
    )


def test_neck_is_asymptotically_conical_with_rate_2_minus_m(capsys):
    """A Lawlor neck approaches its end plane Pi^phi at rate 2 - m, the
    end of the "negative" rate regime of :func:`dims.rate_lambda_dims`:
    the distance from neck_point(p, y, x) to Pi^phi, with phi from
    angles_from_a, is y |x| / (m sqrt(prod a) y^m) to leading order, so
    its log-log slope in y is 1 - m.  At m = 5 the distance meets the
    rounding of |z| ~ y near y = 1000, so only points where it exceeds
    y * 1e-13 enter the fitted slope."""
    ys = np.geomspace(10.0, 1000.0, 9)
    worst_slope = worst_lead = 0.0
    for a in [(4, 1, 1), (4, 1, 1, 2, 0.5), (1, 1, 1, 1, 1)]:
        p = NeckParams(a)
        m = p.m
        turn = np.exp(-1j * np.array(angles_from_a(p).phi))
        for x in (np.ones(m) / math.sqrt(m), np.eye(m)[0]):
            dist = np.array([np.linalg.norm((neck_point(p, y, x) * turn).imag) for y in ys])
            keep = dist > ys * 1e-13
            slope = np.polyfit(np.log(ys[keep]), np.log(dist[keep]), 1)[0]
            worst_slope = max(worst_slope, abs(slope - (1 - m)))
            if m == 3:  # the leading term at y = 316, where rounding is far below it
                lead = ys[6] / (m * math.sqrt(math.prod(a)) * ys[6] ** m)
                worst_lead = max(worst_lead, abs(dist[6] / lead - 1.0))
    _verdict(
        capsys,
        "Lawlor neck -> its end plane at rate 2 - m",
        worst_slope <= 0.01 and worst_lead <= 1e-4,
        f"3 necks m=3,5 x 2 directions, y=10..1000: log-log slope vs 1 - m "
        f"{worst_slope:.1e} (tol 0.01), m=3 leading term at y=316 {worst_lead:.1e} (tol 1e-4)",
    )


# ---------------------------------------------------------------------------
# Intersection graphs


def _undirected_connected(q, arcs):
    parent = list(range(q + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, h in arcs:
        parent[find(t)] = find(h)
    return len({find(v) for v in range(1, q + 1)}) == 1


def _check_feasible_case(g):
    sol = solve_areas(g)
    check_balance(g, sol)
    return all(x > 0 for x in sol.A)


def test_graph_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    # Exhaustive over simple digraphs (loops allowed).  Parallel arcs can
    # change neither strong connectivity nor the bipartition test, so this
    # covers every digraph on <= 6 arcs up to multiplicity.
    checked = disagreements = feasible_count = 0
    for q in range(1, 5):
        arc_types = [(t, h) for t in range(1, q + 1) for h in range(1, q + 1)]
        for n in range(0, 7):
            for arcs in itertools.combinations(arc_types, n):
                if not _undirected_connected(q, arcs):
                    continue
                g = IntersectionGraph(q, [(t, h, 1) for t, h in arcs])
                got = feasible(g)
                if got != bipartition_oracle(g):
                    disagreements += 1
                elif got:
                    feasible_count += 1
                    if not _check_feasible_case(g):
                        disagreements += 1
                checked += 1
    exhaustive = checked

    rng = np.random.default_rng(77113)
    accepted = 0
    while accepted < 10_000:
        q = int(rng.integers(1, 6))
        n = int(rng.integers(max(0, q - 1), 9))
        arcs = [
            (int(rng.integers(1, q + 1)), int(rng.integers(1, q + 1)))
            for _ in range(n)
        ]
        if not _undirected_connected(q, arcs):
            continue
        accepted += 1
        weights = rng.integers(1, 6, size=(n, 2)) if n else []
        g = IntersectionGraph(
            q, [(t, h, Fraction(int(p), int(s))) for (t, h), (p, s) in zip(arcs, weights)]
        )
        got = feasible(g)
        if got != bipartition_oracle(g):
            disagreements += 1
        elif got:
            feasible_count += 1
            if not _check_feasible_case(g):
                disagreements += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        "feasibility matches the sign-bipartition oracle",
        disagreements == 0,
        f"{exhaustive} exhaustive (q<=4, n<=6) + 10000 random (q<=5, n<=8), "
        f"{feasible_count} feasible cases balanced exactly, "
        f"{disagreements} disagreements, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# Torus-cone gluings


def test_torus_gluing_goldens(capsys):
    key = lambda s: (s.j1, s.j2)
    cases = _goldens("gluings")
    bad = [
        i
        for i, ((b1, b2), want) in enumerate(cases)
        if sorted(two_singularity_gluings(T2PairBasis(b1, b2)), key=key)
        != [GluingSolution(j1, j2, None if r is None else Fraction(r), dim_y)
            for j1, j2, r, dim_y in want]
    ]
    _verdict(
        capsys,
        "two-singularity gluing goldens (free / ray / double / triple)",
        not bad,
        f"{len(cases)}/{len(cases)} exact rational matches" if not bad
        else f"mismatch in cases {bad}",
    )


def test_h1_conservation(capsys):
    rng = np.random.default_rng(6047)
    checked = bad = 0
    while checked < 100:
        p = int(rng.integers(1, 50))
        q = int(rng.integers(p + 1, 99))
        if math.gcd(p, q) != 1:
            continue
        h1x = int(rng.integers(1, 11))
        s = T2Singularity((-q, p, q - p))
        orders = [h1_order(s, h1x, j) for j in (1, 2, 3)]
        if None in orders or orders[0] != orders[1] + orders[2]:
            bad += 1
        checked += 1
    _verdict(
        capsys,
        "first-homology order conservation across the three necks",
        bad == 0,
        f"100 random triples k1<0<k2,k3, {bad} violations",
    )


# ---------------------------------------------------------------------------
# Dimension identities


def test_dimension_identities(capsys):
    rng = np.random.default_rng(90210)
    consistent = bad_split = bad_stable = 0
    attempts = 0
    while consistent < 1000:
        attempts += 1
        stable_case = bool(rng.integers(0, 2))
        n = int(rng.integers(1, 5))
        cones = [
            ConeData(
                l=int(rng.integers(1, 4)),
                s_ind=0 if stable_case else int(rng.integers(0, 6)),
            )
            for _ in range(n)
        ]
        necks = [
            NeckTopology(
                b0L=int(rng.integers(1, 4)),
                b1L=int(rng.integers(0, 4)),
                b1csL=int(rng.integers(0, 4)),
            )
            for _ in range(n)
        ]
        p = TopologyProfile(
            m=int(rng.integers(3, 8)),
            q=int(rng.integers(1, 4)),
            b1csX=int(rng.integers(0, 5)),
            cones=cones,
            necks=necks,
            dimY=int(rng.integers(0, 4)),
        )
        try:
            rep = full_report(p)
        except InconsistentProfileError:
            continue
        consistent += 1
        if rep.dimF != rep.b1N - rep.dimI:
            bad_split += 1
        if stable_case and rep.dimI + rep.dimF != rep.b1N:
            bad_stable += 1

    golden_ok = all(
        ac_moduli_dims(NeckTopology(1, m - 2, 0), l=1).dimM0 == m - 2
        for m in (3, 4, 5, 6, 7)
    ) and ac_moduli_dims(NeckTopology(1, 0, 1), l=2).dimM0 == 1

    ok = bad_split == 0 and bad_stable == 0 and golden_ok
    _verdict(
        capsys,
        "family dimension splits as glued-Betti minus core",
        ok,
        f"1000 consistent profiles (of {attempts} drawn): "
        f"{bad_split} split violations, {bad_stable} stable-case violations; "
        f"golden neck dims (m-2 and 1) {'exact' if golden_ok else 'WRONG'}",
    )


def test_stability_index_enters_the_dimension_count(capsys):
    """spectrum -> dims: the T^(m-1) cone, one link component, carries
    its stability report into a profile glued by one Harvey-Lawson neck
    (b0 = 1, b1 = m - 2, b1_cs = 0) with dimY that neck's dimY.  The
    singularity index exceeds the family dimension by s-ind, the
    non-rigid warning (``nonRigidWarning`` on the CLI) is raised exactly
    at m = 8, 9, and the moduli dimension just above rate 0 is the
    neck's rate-0 dimension plus s-ind + 2m."""
    bad = []
    for m in range(3, 13):
        rep = stability_index(m)
        neck = NeckTopology(1, m - 2, 0)
        dimy = ac_moduli_dims(neck, 1).dimY
        dims = full_report(TopologyProfile(m, 1, 0, [ConeData(1, rep.s_ind, rep.rigid)],
                                           [neck], dimY=dimy))
        d = dims.dimML0[0]
        if (
            dims.indX - dims.dimF != rep.s_ind
            or dims.non_rigid_warning != (m in (8, 9))
            or moduli_jump(d, rep.s_ind, m) != d + rep.s_ind + 2 * m
        ):
            bad.append(m)
    _verdict(
        capsys,
        "stability index -> dimension count -> moduli jump",
        not bad,
        "m=3..12: indX - dimF = s-ind, warning exactly at m=8,9, jump dimM0 + s-ind + 2m"
        if not bad else f"wrong at {bad}",
    )
