"""Tests for the neck angle/area maps and the SL verification suite.

Expected values for the forward map were computed with an independent
high-precision oracle (mpmath, 50 digits, tanh-sinh quadrature over
[0, 1, inf]) and frozen below; a trimmed-down live oracle cross-check
runs at 30 digits.  The product prod_k(1 + a_k x^2) - 1 is accumulated
incrementally (r <- r + u + r*u) so the oracle stays cancellation-free
near x = 0.
"""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slcones import lawlor
from slcones.errors import InputError, NumericError
from slcones.lawlor import (
    AngleSpec,
    NeckParams,
    a_from_angles,
    angles_from_a,
    neck_point,
    sphere_area,
    verify_sl_hl_cone,
    verify_sl_neck,
    z_invariant,
)
from slcones.lawlor import (
    _angles,
    _integrands,
    _max_residuals,
    _neck_samples,
    _partial_phases,
    _poly_coeffs,
)

# ---------------------------------------------------------------------------
# frozen oracle values (mpmath, dps=50)

ORACLE_ANGLES = {
    (4.0, 1.0, 1.0): (
        (1.780430063294842329186, 0.6805812951474754546381, 0.6805812951474754546381),
        6.283185307179586476925,  # = 2 pi
    ),
    (1.0, 2.0, 3.0): (
        (0.6481161030709770672175, 1.072685896746844778374, 1.420790653771971392871),
        5.130199320647456382176,
    ),
    (0.5, 1.0, 2.0, 4.0): (
        (0.2965983374857809835552, 0.5196834397542385550768,
         0.8807945289723818355043, 1.444516347377391864326),
        9.869604401089358618834,  # = pi^2
    ),
    (1.0, 1.0, 1.0): (
        (1.047197551196597746154,) * 3,  # = pi/3 each
        12.56637061435917295385,  # = 4 pi
    ),
}

# psi_k(y): frozen partial-phase values
ORACLE_PSI_123_AT_1 = (0.5888715428838197270261, 1.002064256203328351659,
                       1.345087923341471306551)
ORACLE_PSI_111_AT_M075 = 0.1791705023765506583245


def mp_oracle(a, dps=30):
    """Independent recomputation of (phi, A) at ``dps`` digits."""
    mp = pytest.importorskip("mpmath").mp
    old = mp.dps
    mp.dps = dps
    try:
        a = [mp.mpf(x) for x in a]
        m = len(a)

        def prod1m(x):
            # prod(1 + a_k x^2) - 1 without cancellation
            r = mp.mpf(0)
            for ak in a:
                u = ak * x * x
                r = r + u + r * u
            return r

        def P(x):
            if x == 0:
                return mp.fsum(a)
            return prod1m(x) / (x * x)

        phi = []
        for ak in a:
            f = lambda x: 1 / ((1 + ak * x * x) * mp.sqrt(P(x)))
            phi.append(2 * ak * mp.quad(f, [0, 1, mp.inf]))
        om = 2 * mp.pi ** (mp.mpf(m) / 2) / mp.gamma(mp.mpf(m) / 2)
        A = om / mp.sqrt(mp.fprod(a))
        return [float(v) for v in phi], float(A)
    finally:
        mp.dps = old


def mp_psi(a, y, dps=30):
    """Independent recomputation of psi_k(y) = a_k int_{-inf}^y f_k."""
    mp = pytest.importorskip("mpmath").mp
    old = mp.dps
    mp.dps = dps
    try:
        a = [mp.mpf(x) for x in a]

        def P(x):
            if x == 0:
                return mp.fsum(a)
            r = mp.mpf(0)
            for ak in a:
                u = ak * x * x
                r = r + u + r * u
            return r / (x * x)

        return [
            float(ak * mp.quad(lambda x: 1 / ((1 + ak * x * x) * mp.sqrt(P(x))),
                               [-mp.inf, -1, 0, y]))
            for ak in a
        ]
    finally:
        mp.dps = old


# ---------------------------------------------------------------------------
# forward map


class TestAnglesFromA:
    @pytest.mark.parametrize("a", sorted(ORACLE_ANGLES))
    def test_matches_frozen_oracle(self, a):
        phi_exp, A_exp = ORACLE_ANGLES[a]
        spec = angles_from_a(NeckParams(a), tol=1e-11)
        assert spec.phi == pytest.approx(phi_exp, abs=1e-10)
        assert spec.A == pytest.approx(A_exp, rel=1e-12)

    def test_live_oracle_cross_check(self):
        phi_exp, A_exp = mp_oracle((1.0, 2.0, 3.0))
        spec = angles_from_a(NeckParams((1, 2, 3)))
        assert spec.phi == pytest.approx(phi_exp, abs=1e-12)
        assert spec.A == pytest.approx(A_exp, rel=1e-12)

    def test_symmetric_point_gives_equal_angles(self):
        spec = angles_from_a(NeckParams((2.5, 2.5, 2.5, 2.5, 2.5)))
        assert spec.phi == pytest.approx([math.pi / 5] * 5, abs=1e-11)

    def test_area_closed_form(self):
        # A depends on a only through the product
        spec = angles_from_a(NeckParams((4, 1, 1)))
        assert spec.A == pytest.approx(2 * math.pi, rel=1e-14)
        spec = angles_from_a(NeckParams((0.5, 1, 2, 4)))
        assert spec.A == pytest.approx(math.pi**2, rel=1e-14)

    @given(
        st.lists(st.floats(0.05, 20.0), min_size=3, max_size=5),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_sum_pi_and_scale_invariance(self, a, t):
        spec = angles_from_a(NeckParams(a))
        m = spec.m
        assert sum(spec.phi) == pytest.approx(math.pi, abs=m * 1e-10)
        scaled = angles_from_a(NeckParams([t * x for x in a]))
        assert scaled.phi == pytest.approx(spec.phi, abs=1e-9)
        assert scaled.A == pytest.approx(t ** (-m / 2) * spec.A, rel=1e-11)

    def test_angle_increases_with_own_parameter(self):
        lo = angles_from_a(NeckParams((1, 1, 1))).phi[0]
        hi = angles_from_a(NeckParams((3, 1, 1))).phi[0]
        assert hi > lo

    def test_unachievable_tolerance_raises_with_achieved(self):
        with pytest.raises(NumericError) as exc:
            angles_from_a(NeckParams((1, 2, 3)), tol=1e-30)
        assert exc.value.achieved > 1e-30

    def test_garbage_quadrature_is_numeric_error(self):
        # quad certifies each angle here, yet phi_1 < 0 and the angles
        # sum to ~0: a numeric failure, not an invalid AngleSpec
        with pytest.raises(NumericError) as exc:
            angles_from_a(NeckParams((1e12, 1e-12, 1.0)))
        assert exc.value.achieved == pytest.approx(math.pi, rel=1e-4)
        # overflowing coefficients give NaN angles: no finite bound exists
        with pytest.raises(NumericError) as exc:
            angles_from_a(NeckParams((1e308,) * 4))
        assert exc.value.achieved is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(InputError):
            NeckParams((1.0, -2.0, 3.0))
        with pytest.raises(InputError):
            NeckParams((1.0, 0.0, 3.0))
        with pytest.raises(InputError):
            NeckParams((1.0, 2.0))
        with pytest.raises(InputError):
            angles_from_a(NeckParams((1, 2, 3)), tol=0.0)


# ---------------------------------------------------------------------------
# inverse map


class TestAFromAngles:
    @pytest.mark.parametrize("a", [(1.0, 2.0, 3.0), (4.0, 1.0, 1.0),
                                   (0.5, 1.0, 2.0, 4.0), (0.2, 5.0, 0.7, 1.3, 2.0)])
    def test_round_trip_through_angles(self, a):
        spec = angles_from_a(NeckParams(a))
        rec = a_from_angles(spec)
        assert rec.a == pytest.approx(a, rel=1e-8)

    def test_round_trip_through_parameters(self):
        spec = AngleSpec((0.7, 1.1, math.pi - 1.8), 6.0)
        p = a_from_angles(spec)
        back = angles_from_a(p)
        assert back.phi == pytest.approx(spec.phi, abs=1e-9)
        assert back.A == pytest.approx(spec.A, rel=1e-9)

    @given(
        st.lists(st.floats(0.3, 1.2), min_size=3, max_size=4),
        st.floats(0.5, 20.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_round_trip_random_angle_specs(self, raw, A):
        phi = [math.pi * x / sum(raw) for x in raw]
        spec = AngleSpec(phi, A)
        back = angles_from_a(a_from_angles(spec))
        assert back.phi == pytest.approx(spec.phi, abs=1e-8)
        assert back.A == pytest.approx(spec.A, rel=1e-8)

    def test_spec_validation(self):
        with pytest.raises(InputError):
            AngleSpec((1.0, 1.0, 1.0), 5.0)  # sum != pi
        with pytest.raises(InputError):
            AngleSpec((math.pi, 0.0, 0.0), 5.0)  # boundary angles
        with pytest.raises(InputError):
            AngleSpec((1.0, 1.0, math.pi - 2.0), -5.0)  # bad area
        with pytest.raises(InputError):
            AngleSpec((1.5, math.pi - 1.5), 5.0)  # too short


# ---------------------------------------------------------------------------
# bit identity: frozen exact floats of both maps, compared with == so a
# change to the quadrature cannot drift in the last digits unnoticed.  The
# README inputs (4, 1, 1) are goldens of goldens.json, whose CLI bytes
# test_cli.py::TestGoldens compares.

EXACT_ROUND_TRIPS = {
    (0.7, 1.9, 3.1, 0.4, 2.2): (
        (0.32685818012993234, 0.7328359332154417, 1.0601521023799763,
         0.20171767581633826, 0.8200287620481046),
        13.817213688860445,
        (0.7, 1.8999999999999997, 3.1, 0.4000000000000001, 2.2),
    ),
    (0.5, 1.3, 2.0, 4.4, 0.9, 1.7, 3.3, 0.6): (
        (0.12921045535661702, 0.305771713558401, 0.4422170319857811,
         0.8378662154482118, 0.2209209565330798, 0.3853589913274124,
         0.6673412395372863, 0.15290604984300427),
        7.800131261709493,
        (0.5000000000000003, 1.3000000000000005, 2.0000000000000004,
         4.400000000000005, 0.9000000000000001, 1.7000000000000008,
         3.300000000000003, 0.5999999999999981),
    ),
    # wide ratio
    (50.0, 0.03, 1.0): (
        (2.8494368628836444, 0.01842856634931385, 0.27372722435683505),
        10.260398641294913,
        (50.000000000005734, 0.029999999999999145, 0.999999999999988),
    ),
}


class TestBitIdentity:
    @pytest.mark.parametrize("a", list(EXACT_ROUND_TRIPS))
    def test_forward_and_round_trip_exact(self, a):
        phi, A, back = EXACT_ROUND_TRIPS[a]
        spec = angles_from_a(NeckParams(a))
        assert spec.phi == phi
        assert spec.A == A
        assert a_from_angles(spec).a == back

    def test_repeated_parameters_inverse_exact(self):
        # equal a_k share one integral in the Newton residual
        spec = angles_from_a(NeckParams((2.0, 2.0, 2.0, 5.0)))
        assert spec.phi == (0.6308276085858945,) * 3 + (1.24910982783211,)
        assert spec.A == 3.121042951226439
        assert a_from_angles(spec).a == (
            2.0000000000000124, 2.0000000000000124, 2.0000000000000124,
            5.000000000000528,
        )

    def test_neck_residuals_exact(self):
        res = verify_sl_neck(NeckParams((0.7, 1.9, 3.1, 0.4, 2.2)), sample_count=8)
        assert res.max_omega_residual == 1.0407488470156876e-16
        assert res.max_phase_residual == 1.3322676295501878e-15
        assert max(res.max_omega_residual, res.max_phase_residual) <= 1e-14


# ---------------------------------------------------------------------------
# the compiled integrand against the loop it replaces


def loop_integrand(coeffs, ak):
    """The reference: Horner in x^2 as a loop from the top coefficient."""
    rev = [float(c) for c in coeffs[::-1]]

    def f(x):
        u = x * x
        v = 0.0
        for cj in rev:
            v = v * u + cj
        return 1.0 / ((1.0 + ak * x * x) * math.sqrt(v))

    return f


def convolve_coeffs(a):
    """The reference: the product expanded by np.convolve."""
    c = np.array([1.0])
    for ak in a:
        c = np.convolve(c, [1.0, ak])
    return c[1:]


class TestCompiledIntegrand:
    NODES = (0.0, 1e-300, 0.3, 1.0, 7.5, 1e10, 1e60)

    @pytest.mark.parametrize("m", [*range(3, 13), 250])
    def test_equals_loop_horner(self, m):
        # every integrand of one shared table, in both orders: the one that
        # fills it first and the ones that read it, or the readers first
        rng = np.random.default_rng(m)
        cases = [rng.uniform(0.2, 5.0, size=m)]
        if m == 4:
            cases.append(np.array([1e-3, 1e3, 1.0, 50.0]))  # wide ratio
        for a in cases:
            coeffs = _poly_coeffs(a)
            refs = [loop_integrand(coeffs, float(ak)) for ak in a]
            for fill_first in (True, False):
                filling, reading = _integrands(coeffs)
                pairs = [(filling(a[0]), refs[0]), *zip(map(reading, a[1:]), refs[1:])]
                for f, ref in pairs if fill_first else pairs[::-1]:
                    for x in self.NODES:
                        assert f(x) == ref(x), (m, fill_first, x)
                        assert f(-x) == ref(-x), (m, fill_first, -x)

    def test_compiled_once_per_coefficient_count(self):
        a, b = _poly_coeffs((1.0, 2.0, 3.0)), _poly_coeffs((4.0, 0.5, 7.0))
        for i in (0, 1):  # the filling and the reading integrand
            code = _integrands(a)[i](1.0).__code__
            assert code is _integrands(b)[i](7.0).__code__
            assert code is not _integrands(a + [1.0])[i](1.0).__code__

    def test_poly_coeffs_equal_convolve(self):
        rng = np.random.default_rng(20261018)
        for _ in range(500):
            m = int(rng.integers(3, 13))
            a = 10.0 ** rng.uniform(-3, 3, size=m)
            assert _poly_coeffs(a) == convolve_coeffs(a).tolist()


def unshared_angles(a, tol=None):
    """The reference: one quad per a_k of an unshared loop integrand, with
    the arguments of the forward map (tol given) or of the Newton
    residual (tol None), as (phi_k, quad's error estimate of phi_k)."""
    from scipy.integrate import quad

    coeffs = _poly_coeffs(a)
    out = []
    for ak in map(float, a):
        epsabs = 1e-13 if tol is None else tol / (4.0 * ak)
        val, err = quad(loop_integrand(coeffs, ak), 0.0, np.inf, epsabs=epsabs,
                        epsrel=1e-13, limit=200, full_output=1)[:2]
        out.append((2.0 * ak * val, 2.0 * ak * err))
    return out


class TestSharedTable:
    """All the integrals of one forward map or one Newton residual share
    one table of sqrt(P(x)); every bit must stay that of unshared quad."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(20261020)
        for m in range(3, 13):
            for _ in range(3):
                yield tuple(10.0 ** rng.uniform(-3.0, 3.0, size=m))
            a = 10.0 ** rng.uniform(-3.0, 3.0, size=m)
            a[rng.integers(0, m, size=m // 2)] = a[0]  # repeated a_k
            yield tuple(a)
        yield (2.0, 2.0, 2.0, 5.0)
        yield (1.0, 1.0, 1.0)
        yield (0.5, 3.0, 0.5, 3.0, 7.0)

    def test_equal_unshared_quad(self):
        answered = 0
        for a in self.cases():
            coeffs = _poly_coeffs(a)
            forward = unshared_angles(a, lawlor.DEFAULT_TOL)
            assert _angles(coeffs, a, lawlor.DEFAULT_TOL) == forward, a
            assert _angles(coeffs, a[:-1]) == unshared_angles(a)[:-1], a
            try:
                phi = angles_from_a(NeckParams(a)).phi
            except NumericError:
                continue
            assert phi == tuple(angle for angle, _ in forward), a
            answered += 1
        assert answered >= 30

    def test_sqrt_p_once_per_distinct_node(self, monkeypatch):
        # in the forward map and in each Newton residual of an inverse,
        # every node an integrand takes from another one's table is saved
        import scipy.integrate  # noqa: F401 -- its first import calls math.sqrt

        calls, roots, sqrt, quad, angles = [], [], math.sqrt, lawlor._quad, lawlor._angles

        def recording_quad(f, *args, **kwargs):
            def g(x):
                calls[-1][0].append(x)
                return f(x)
            return quad(g, *args, **kwargs)

        def counting_sqrt(v):
            roots.append(v)
            return sqrt(v)

        def recording_angles(*args):
            calls.append(([], len(roots)))
            out = angles(*args)
            calls[-1] = (calls[-1][0], len(roots) - calls[-1][1])
            return out

        monkeypatch.setattr(lawlor, "_quad", recording_quad)
        monkeypatch.setattr(lawlor, "_angles", recording_angles)
        monkeypatch.setattr(math, "sqrt", counting_sqrt)
        # at the wide ratio, nodes the first integral never took recur in
        # several of the others
        for a in [(0.5, 1.3, 2.0, 4.4, 0.9, 1.7, 3.3, 0.6), (50.0, 0.03, 1.0, 2.0)]:
            a_from_angles(angles_from_a(NeckParams(a)))
        monkeypatch.undo()
        assert len(calls) > 20
        for nodes, computed in calls:
            assert computed == len(set(nodes))
        shared = sum(len(nodes) - computed for nodes, computed in calls)
        assert shared > 0.6 * sum(len(nodes) for nodes, _ in calls)


class TestPrivateQuadpack:
    """``_quad`` calls QUADPACK's qagie without quad's Python wrapper; its
    (value, error) must be the public quad's bits, also where QUADPACK
    reports a failure, which neither warns nor raises (warnings are
    errors in this suite)."""

    @pytest.mark.parametrize("a, inverse", [
        ((1e12, 1e-12, 1.0), False),  # the forward map's quads
        ((50.0, 0.03, 1.0), True),  # and every Newton trial point of the inverse
    ])
    def test_equals_public_quad_also_where_quadpack_fails(self, a, inverse, monkeypatch):
        from scipy.integrate import quad

        quads, failed, private = [], [], lawlor._quad

        def compared(f, epsabs, epsrel):
            out = private(f, epsabs, epsrel)
            public = quad(f, 0.0, np.inf, epsabs=epsabs, epsrel=epsrel,
                          limit=200, full_output=1)
            quads.append(out == public[:2])
            failed.append(len(public) == 4)  # quad appends its failure notice
            return out

        monkeypatch.setattr(lawlor, "_quad", compared)
        if inverse:
            a_from_angles(angles_from_a(NeckParams(a)))
        else:
            with pytest.raises(NumericError):  # certified, yet garbage angles
                angles_from_a(NeckParams(a))
        assert all(quads) and len(quads) >= 3
        assert any(failed)


# ---------------------------------------------------------------------------
# neck parametrization


class TestNeckPoint:
    def test_waist_phase_is_half_angle(self):
        p = NeckParams((1, 2, 3))
        spec = angles_from_a(p)
        e1 = np.array([1.0, 0.0, 0.0])
        for k in range(3):
            z = neck_point(p, 0.0, np.roll(e1, k))
            assert np.angle(z[k]) == pytest.approx(spec.phi[k] / 2, abs=1e-10)
            assert abs(z[k]) == pytest.approx(math.sqrt(1 / p.a[k]), rel=1e-14)

    def test_frozen_phases_positive_y(self):
        p = NeckParams((1, 2, 3))
        psi = _partial_phases(p, np.array([1.0]))[0]
        assert psi == pytest.approx(ORACLE_PSI_123_AT_1, abs=1e-13)

    def test_frozen_phases_negative_y(self):
        p = NeckParams((1, 1, 1))
        psi = _partial_phases(p, np.array([-0.75]))[0]
        assert psi == pytest.approx([ORACLE_PSI_111_AT_M075] * 3, abs=1e-13)

    def test_live_oracle_phases_wide_ratio(self):
        p = NeckParams((50.0, 0.03, 1.0))
        y = np.array([0.7, -1.2, 2.5])
        psi = _partial_phases(p, y)
        for yi, row in zip(y, psi):
            assert row == pytest.approx(mp_psi(p.a, float(yi)), abs=1e-13)

    def test_moduli(self):
        p = NeckParams((1, 2, 3))
        x = np.full(3, 1 / math.sqrt(3))
        z = neck_point(p, 0.8, x)
        expected = np.sqrt(1 / np.array(p.a) + 0.64) / math.sqrt(3)
        assert np.abs(z) == pytest.approx(expected, rel=1e-12)

    def test_phase_range_spans_zero_to_phi(self):
        # psi_k(y) -> 0 as y -> -inf and -> phi_k as y -> +inf
        p = NeckParams((1, 2, 3))
        spec = angles_from_a(p)
        far, near = _partial_phases(p, np.array([60.0, -60.0]))
        assert far == pytest.approx(spec.phi, abs=1e-3)
        assert near == pytest.approx([0.0] * 3, abs=1e-3)
        assert np.all(near > 0)

    @pytest.mark.parametrize("y", [1e200, -1e300, 1.7976931348623157e308])
    def test_huge_y_is_finite(self, y):
        # y * y overflows from |y| ~ 1.3e154 on; the modulus must not
        p = NeckParams((1.0, 2.0, 3.0))
        phi = ORACLE_ANGLES[p.a][0]
        for k in range(3):
            z = neck_point(p, y, np.eye(3)[k])
            assert np.all(np.isfinite(z))
            assert abs(abs(z[k]) / abs(y) - 1.0) <= 1e-15
            assert abs(np.angle(z[k]) - (phi[k] if y > 0 else 0.0)) <= 1e-15

    def test_huge_direction_is_input_error_without_a_warning(self):
        with pytest.raises(InputError, match="unit vector"):
            neck_point(NeckParams((1, 2, 3)), 0.5, [1e200, 0.0, 0.0])

    def test_rejects_non_unit_direction(self):
        p = NeckParams((1, 2, 3))
        with pytest.raises(InputError):
            neck_point(p, 0.0, np.array([1.0, 1.0, 0.0]))
        with pytest.raises(InputError):
            neck_point(p, 0.0, np.array([1.0, 0.0]))
        with pytest.raises(InputError):
            neck_point(p, math.nan, np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# batched partial phases against the scipy partial phase they replace


def quad_phase_oracle(a, y, half):
    """The reference: psi_k(y) = phi_k/2 + a_k int_0^y f_k by scipy's
    adaptive quadrature, one call per k, as the finite-difference neck
    check computed it."""
    from scipy.integrate import quad

    coeffs = _poly_coeffs(a)
    return [
        half[k] + ak * quad(loop_integrand(coeffs, ak), 0.0, y,
                            epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        for k, ak in enumerate(a)
    ]


class TestPartialPhases:
    def test_equal_quad_oracle(self):
        rng = np.random.default_rng(20261019)
        pairs = 0
        for trial in range(100):
            m = int(rng.integers(3, 9))
            if trial % 2:
                a = 10.0 ** rng.uniform(-2.0, 2.0, size=m)
            else:
                a = rng.uniform(0.2, 5.0, size=m)
            p = NeckParams(a)
            half = _partial_phases(p, np.zeros(1))[0]
            y = rng.uniform(-3.0, 3.0, size=5)
            for yi, row in zip(y, _partial_phases(p, y)):
                ref = quad_phase_oracle(p.a, float(yi), half)
                assert np.max(np.abs(row - ref)) <= 1e-13, (p.a, yi)
                pairs += 1
        assert pairs == 500

    def test_zero_and_repeated_y(self):
        p = NeckParams((0.5, 1.0, 2.0, 4.0))
        half = _partial_phases(p, np.zeros(1))[0]
        psi = _partial_phases(p, np.array([0.0, 1.1, -1.1, 1.1, 0.0]))
        assert np.array_equal(psi[0], half) and np.array_equal(psi[4], half)
        assert np.array_equal(psi[1], psi[3])
        assert psi[1] + psi[2] == pytest.approx(2 * half, abs=1e-15)

    def test_blocks_continue_one_stream(self, monkeypatch):
        whole = next(_neck_samples(5, 10))
        monkeypatch.setattr(lawlor, "_BLOCK_ENTRIES", 150)  # 3 samples of m = 5
        blocks = list(_neck_samples(5, 10))
        assert [len(y) for y, _ in blocks] == [3, 3, 3, 1]
        assert np.array_equal(np.concatenate([y for y, _ in blocks]), whole[0])
        assert np.array_equal(np.concatenate([x for _, x in blocks]), whole[1])

    @pytest.mark.parametrize("a", [(1.0, 2.0, 3.0), (0.7, 1.9, 3.1, 0.4, 2.2),
                                   (0.5, 1.3, 2.0, 4.4, 0.9, 1.7, 3.3, 0.6)])
    def test_neck_makes_no_quadrature(self, a, monkeypatch):
        calls = []

        def refused(*args, **kwargs):
            calls.append(args)
            raise AssertionError("the neck called _quad")

        monkeypatch.setattr(lawlor, "_quad", refused)
        p = NeckParams(a)
        verify_sl_neck(p, 1000)
        neck_point(p, 0.3, np.eye(p.m)[0])
        assert calls == []

    def test_waist_against_mpmath(self):
        # ratios up to 10^12, where quad's angles were off by up to 7e-13,
        # and (1e12, 1e-12, 1), where angles_from_a raises
        rng = np.random.default_rng(20261020)
        cases = [tuple(10.0 ** rng.uniform(-6.0, 6.0, size=m)) for m in (3, 4, 5, 6, 8)]
        for a in [*cases, (1e12, 1e-12, 1.0)]:
            half = _partial_phases(NeckParams(a), np.zeros(1))[0]
            assert half == pytest.approx(mp_psi(a, 0.0), abs=4e-15), a

    def test_waist_check_is_numeric_error(self, monkeypatch):
        # a rule that halves every panel misses the angle sum by pi / 2
        nodes, weights = lawlor._gauss_legendre()
        monkeypatch.setattr(lawlor, "_gauss_legendre", lambda: (nodes, weights / 2.0))
        with pytest.raises(NumericError, match="waist angles") as exc:
            neck_point(NeckParams((1, 2, 3)), 0.0, (1.0, 0.0, 0.0))
        assert exc.value.achieved == pytest.approx(math.pi / 2.0, rel=1e-12)
        monkeypatch.undo()
        # an overflowing or an underflowing coefficient of P, without a warning
        for a in [(1e200, 1e200, 1e-100), (5e-324,) * 3]:
            with pytest.raises(NumericError, match="coefficient of P"):
                verify_sl_neck(NeckParams(a), 8)

    def test_memory_bounded_in_sample_count(self):
        p = NeckParams((0.5, 1.3, 2.0, 4.4, 0.9, 1.7, 3.3, 0.6))
        verify_sl_neck(p, 8)  # Gauss-Legendre set-up
        tracemalloc.start()
        try:
            verify_sl_neck(p, 5000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("run", [
        lambda: verify_sl_neck(NeckParams(tuple(np.linspace(0.5, 3.0, 40))), 1000),
        lambda: verify_sl_hl_cone(40, 1000),
    ], ids=["neck", "cone"])
    def test_memory_bounded_in_m(self, run):
        run()  # Gauss-Legendre set-up
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# SL verification


class TestVerifySL:
    @pytest.mark.parametrize("a", [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0),
                                   (0.5, 1.0, 2.0, 4.0), (50.0, 0.03, 1.0)])
    def test_neck_residuals_small(self, a):
        res = verify_sl_neck(NeckParams(a), sample_count=200)
        assert res.max_omega_residual <= 1e-12
        assert res.max_phase_residual <= 1e-12

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_hl_cone_residuals_tiny(self, m):
        res = verify_sl_hl_cone(m, sample_count=400)
        assert res.max_omega_residual < lawlor.HL_CONE_RESIDUAL_BOUND
        assert res.max_phase_residual < lawlor.HL_CONE_RESIDUAL_BOUND

    @pytest.mark.parametrize("m", [3, 4, 5, 7])
    def test_cone_defining_condition(self, m):
        # independent check of the parametrization used by the verifier:
        # i^(m+1) z_1...z_m must be real and nonnegative on the cone
        gamma = -(m + 1) * math.pi / (2 * m)
        rng = np.random.default_rng(7)
        for _ in range(50):
            r = rng.uniform(0.1, 3.0)
            th = rng.uniform(0, 2 * math.pi, size=m - 1)
            z = r * np.exp(1j * (gamma + np.append(th, -th.sum()))) / math.sqrt(m)
            w = (1j) ** (m + 1) * np.prod(z)
            assert abs(w.imag) < 1e-12 * abs(w)
            assert w.real > 0

    def test_degenerate_frame_is_numeric_error(self):
        # rows 1 and 3 agree up to 1e-13 after normalisation
        dependent = [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0 + 1e-13]]
        frames = np.array([np.eye(3), dependent], dtype=complex)
        with pytest.raises(NumericError, match="degenerate tangent frame") as exc:
            _max_residuals(frames)
        assert exc.value.achieved == pytest.approx(5e-14, rel=1e-3)
        assert _max_residuals(frames[:1]) == (0.0, 0.0)
        # a NaN det counts as degenerate
        frames[1] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="degenerate"):
            _max_residuals(frames)

    def test_small_row_scale_is_not_degenerate(self):
        # a row scaled by 1e-13 leaves the frame's arg det exact
        scaled = [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-13]]
        assert _max_residuals(np.array([scaled], dtype=complex)) == (0.0, 0.0)

    def test_wide_ratio_necks_answer(self):
        # the rows of a neck frame scale with r_k = sqrt(1/a_k + y^2), so
        # they span the ratio of the a_k without the frame being singular
        rng = np.random.default_rng(777)
        cases = [(1e-10, 1, 1, 1, 1), (1e200, 1e-200, 1, 1, 1)]
        for i in range(60):
            e = (0.5, 1.5, 3.0, 6.0, 12.0)[i % 5]
            cases.append(tuple(10.0 ** rng.uniform(-e, e, size=int(rng.integers(3, 41)))))
        for a in cases:
            assert max(verify_sl_neck(NeckParams(a), 16)) <= 1e-14, a

    @pytest.mark.parametrize("a", [(1e-310, 1.0, 1.0), (1e-320, 1.0, 1.0, 1.0, 1.0)])
    def test_subnormal_parameter_answers_without_a_warning(self, a):
        # frame rows of length 1e155 and more, whose squares leave the
        # float range: the frame is not degenerate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert max(verify_sl_neck(NeckParams(a), 16)) <= lawlor.NECK_RESIDUAL_BOUND

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            verify_sl_hl_cone(2)
        for bad in (0, True, 2.5, "8"):
            with pytest.raises(InputError):
                verify_sl_neck(NeckParams((1, 2, 3)), sample_count=bad)
            with pytest.raises(InputError):
                verify_sl_hl_cone(3, sample_count=bad)
        with pytest.raises(InputError):
            verify_sl_hl_cone(3.5)


# ---------------------------------------------------------------------------
# misc


def test_sphere_area_known_values():
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
    assert sphere_area(4) == pytest.approx(2 * math.pi**2)


def test_sphere_area_against_mpmath_up_to_m_2000():
    # Gamma(m/2) passes the float range from m = 344, the area falls below
    # the normal floats from m = 439 and underflows to 0.0 from m = 456;
    # within one subnormal step of the exact value there
    mp = pytest.importorskip("mpmath").mp
    old = mp.dps
    mp.dps = 30
    try:
        for m in range(1, 2001):
            exact = 2 * mp.pi ** (mp.mpf(m) / 2) / mp.gamma(mp.mpf(m) / 2)
            assert abs(sphere_area(m) - exact) <= 1e-12 * exact + 1e-323, m
    finally:
        mp.dps = old
    assert sphere_area(10**400) == 0.0


def test_z_invariant_is_plus_minus_area():
    spec = angles_from_a(NeckParams((1, 2, 3)))
    lo, hi = sorted(z_invariant(spec))
    assert hi == pytest.approx(spec.A)
    assert lo == pytest.approx(-spec.A)
