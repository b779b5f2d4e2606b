"""Tests for the neck angle/area maps and the SL verification suite.

Expected values for the forward map were computed with an independent
high-precision oracle (mpmath, 50 digits, tanh-sinh quadrature over
[0, 1, inf]) and frozen below; a trimmed-down live oracle cross-check
runs at 30 digits.  The product prod_k(1 + a_k x^2) - 1 is accumulated
incrementally (r <- r + u + r*u) so the oracle stays cancellation-free
near x = 0.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from slcones.lawlor import _half_phases, _integrands, _phases_at

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
# change to the quadrature cannot drift in the last digits unnoticed (the
# CLI output bytes for the README inputs are part of the contract).

EXACT_ROUND_TRIPS = {
    (4.0, 1.0, 1.0): (
        (1.7804300632948424, 0.6805812951474753, 0.6805812951474753),
        6.283185307179586,
        (4.000000000000113, 1.0000000000000064, 1.0000000000000067),
    ),
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

    def test_cli_golden_inverse_exact(self):
        # the README `lawlor --phi ... --area ...` example
        spec = AngleSpec(
            (1.7804300632948424, 0.6805812951474753, 0.6805812951474753),
            6.283185307179586,
        )
        assert a_from_angles(spec).a == (
            4.000000000000113, 1.0000000000000064, 1.0000000000000067
        )


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
        psi = _phases_at(p, 1.0, _half_phases(p), _integrands(p))
        assert psi == pytest.approx(ORACLE_PSI_123_AT_1, abs=1e-10)

    def test_frozen_phases_negative_y(self):
        p = NeckParams((1, 1, 1))
        psi = _phases_at(p, -0.75, _half_phases(p), _integrands(p))
        assert psi == pytest.approx([ORACLE_PSI_111_AT_M075] * 3, abs=1e-10)

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
        half, integrands = _half_phases(p), _integrands(p)
        far = _phases_at(p, 60.0, half, integrands)
        near = _phases_at(p, -60.0, half, integrands)
        assert far == pytest.approx(spec.phi, abs=1e-3)
        assert near == pytest.approx([0.0] * 3, abs=1e-3)
        assert np.all(near > 0)

    def test_rejects_non_unit_direction(self):
        p = NeckParams((1, 2, 3))
        with pytest.raises(InputError):
            neck_point(p, 0.0, np.array([1.0, 1.0, 0.0]))
        with pytest.raises(InputError):
            neck_point(p, 0.0, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# SL verification


class TestVerifySL:
    @pytest.mark.parametrize("a", [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0),
                                   (0.5, 1.0, 2.0, 4.0)])
    def test_neck_residuals_small(self, a):
        res = verify_sl_neck(NeckParams(a), sample_count=200)
        assert res.max_omega_residual < 1e-4
        assert res.max_phase_residual < 1e-4

    def test_neck_residual_scales_with_step(self):
        # second-order finite differences: shrinking h by 10 should not
        # make the residual worse by more than quadrature noise
        p = NeckParams((1, 2, 3))
        coarse = verify_sl_neck(p, sample_count=50, h=1e-3)
        fine = verify_sl_neck(p, sample_count=50, h=1e-5)
        assert fine.max_omega_residual < coarse.max_omega_residual + 1e-8

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_hl_cone_residuals_tiny(self, m):
        res = verify_sl_hl_cone(m, sample_count=400)
        assert res.max_omega_residual < 1e-10
        assert res.max_phase_residual < 1e-10

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

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            verify_sl_hl_cone(2)
        with pytest.raises(InputError):
            verify_sl_neck(NeckParams((1, 2, 3)), sample_count=0)
        with pytest.raises(InputError):
            verify_sl_neck(NeckParams((1, 2, 3)), h=0.0)


# ---------------------------------------------------------------------------
# misc


def test_sphere_area_known_values():
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
    assert sphere_area(4) == pytest.approx(2 * math.pi**2)


def test_z_invariant_is_plus_minus_area():
    spec = angles_from_a(NeckParams((1, 2, 3)))
    lo, hi = sorted(z_invariant(spec))
    assert hi == pytest.approx(spec.A)
    assert lo == pytest.approx(-spec.A)
