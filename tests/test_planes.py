"""Tests for characteristic angles, types, and plane-pair reconstruction."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import special_ortho_group, unitary_group

from slcones import planes
from slcones.errors import InputError
from slcones.planes import (
    PlanePairReport,
    SLPlane,
    canonical_transform,
    characteristic_angles,
    identity_plane,
    lawlor_family_exists,
    phi_frame,
    z_pairing_signs,
)

PI = math.pi


def random_su(m, seed):
    rng = np.random.default_rng(seed)
    u = unitary_group.rvs(m, random_state=rng)
    return u * np.linalg.det(u) ** (-1.0 / m)


def random_pair(m, seed):
    return SLPlane(random_su(m, seed)), SLPlane(random_su(m, seed + 10_000))


def plane_projector(frame):
    """Orthogonal projector of R^{2m} onto the real span of the columns."""
    x = np.vstack([frame.real, frame.imag])
    q, _ = np.linalg.qr(x)
    return q @ q.T


def subspace_distance(f1, f2):
    return np.linalg.norm(plane_projector(f1) - plane_projector(f2), 2)


class TestCharacteristicAngles:
    def test_model_pair(self):
        rep = characteristic_angles(identity_plane(3), phi_frame([PI / 4, PI / 4, PI / 2]))
        assert rep.angles == pytest.approx((PI / 4, PI / 4, PI / 2), abs=1e-12)
        assert rep.k == 1
        assert rep.transverse
        assert rep.lawlor_exists

    def test_swapped_model_pair(self):
        rep = characteristic_angles(phi_frame([PI / 4, PI / 4, PI / 2]), identity_plane(3))
        assert rep.angles == pytest.approx((PI / 2, 3 * PI / 4, 3 * PI / 4), abs=1e-12)
        assert rep.k == 2

    @given(st.integers(3, 6), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_su_invariance(self, m, seed):
        p1, p2 = random_pair(m, seed)
        rep = characteristic_angles(p1, p2)
        b = random_su(m, seed + 1)
        rep_moved = characteristic_angles(SLPlane(b @ p1.frame), SLPlane(b @ p2.frame))
        assert rep_moved.angles == pytest.approx(rep.angles, abs=1e-9)
        assert rep_moved.k == rep.k

    @given(st.integers(3, 6), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_stabilizer_invariance(self, m, seed):
        # right multiplication by SO(m) changes the frame, not the plane
        p1, p2 = random_pair(m, seed)
        rep = characteristic_angles(p1, p2)
        rng = np.random.default_rng(seed + 2)
        r1 = special_ortho_group.rvs(m, random_state=rng)
        r2 = special_ortho_group.rvs(m, random_state=rng)
        rep_moved = characteristic_angles(SLPlane(p1.frame @ r1), SLPlane(p2.frame @ r2))
        assert rep_moved.angles == pytest.approx(rep.angles, abs=1e-9)
        assert rep_moved.k == rep.k

    @given(st.integers(3, 6), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_swap_law(self, m, seed):
        p1, p2 = random_pair(m, seed)
        rep = characteristic_angles(p1, p2)
        swapped = characteristic_angles(p2, p1)
        assert swapped.k == m - rep.k
        expected = tuple(PI - a for a in reversed(rep.angles))
        assert swapped.angles == pytest.approx(expected, abs=1e-9)

    @given(st.integers(3, 6), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_angle_sum_is_k_pi(self, m, seed):
        rep = characteristic_angles(*random_pair(m, seed))
        assert rep.transverse  # random pairs are transverse a.s.
        assert sum(rep.angles) == pytest.approx(rep.k * PI, abs=1e-9)
        assert 1 <= rep.k <= m - 1
        assert all(0 < a < PI for a in rep.angles)

    def test_equal_angle_pair(self):
        # S is a multiple of the identity here; the eigenbasis is free
        rep = characteristic_angles(identity_plane(3), phi_frame([PI / 3] * 3))
        assert rep.angles == pytest.approx((PI / 3,) * 3, abs=1e-12)
        assert rep.k == 1

    def test_self_pair_not_transverse(self):
        rep = characteristic_angles(identity_plane(4), identity_plane(4))
        assert not rep.transverse
        assert not rep.lawlor_exists
        assert rep.angles == pytest.approx((0.0,) * 4, abs=1e-12)

    def test_boundary_angle_pi_not_transverse(self):
        rep = characteristic_angles(identity_plane(3), phi_frame([PI / 2, PI / 2, PI]))
        assert not rep.transverse

    def test_near_degenerate_respects_tol(self):
        eps = 1e-12
        p2 = phi_frame([eps, PI / 2, PI / 2 - eps])
        rep = characteristic_angles(identity_plane(3), p2, tol=1e-9)
        assert not rep.transverse
        loose = phi_frame([1e-5, PI / 2, PI / 2 - 1e-5])
        rep2 = characteristic_angles(identity_plane(3), loose, tol=1e-9)
        assert rep2.transverse

    def test_input_validation(self):
        with pytest.raises(InputError):
            SLPlane(np.eye(3) * 2.0)  # not unitary
        with pytest.raises(InputError):
            SLPlane(np.diag([1.0, 1.0, -1.0]))  # det = -1
        with pytest.raises(InputError):
            SLPlane(np.ones((2, 3)))
        with pytest.raises(InputError):
            characteristic_angles(identity_plane(3), identity_plane(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_non_finite_frame_rejected(self, bad, where):
        # NaN compares False with any tolerance, so it must not slip
        # through a `defect > tol` check into the eigen-solver
        frame = np.eye(3, dtype=complex)
        frame[where] = bad
        with np.errstate(invalid="ignore"), pytest.raises(InputError, match="not unitary"):
            SLPlane(frame)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.inf, 1.0)])
    def test_non_finite_frame_rejected_without_a_warning(self, bad):
        # the finite check runs before the Gram product, which would warn
        frame = np.eye(3, dtype=complex)
        frame[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="non-finite entry"):
                SLPlane(frame)

    @pytest.mark.parametrize("big", [1e200, -1e200, 1e200j, 1e155 + 1e155j, 1.5])
    def test_oversized_frame_entry_rejected_without_a_warning(self, big):
        # a unitary frame has every |entry| <= 1; the modulus check runs
        # before the Gram product, which would overflow on 1e200
        frame = np.eye(3, dtype=complex)
        frame[0, 1] = big
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="entry of modulus"):
                SLPlane(frame)


class TestLawlorExistence:
    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_m3_always_exists(self, seed):
        # for m = 3 the only possible types are 1 and m-1 = 2
        rep = characteristic_angles(*random_pair(3, seed))
        assert lawlor_family_exists(rep)

    def test_type2_m4_has_no_family(self):
        rep = characteristic_angles(identity_plane(4), phi_frame([PI / 2] * 4))
        assert rep.k == 2
        assert rep.transverse
        assert not lawlor_family_exists(rep)
        with pytest.raises(InputError):
            z_pairing_signs(rep)

    def test_type_m_minus_1_from_swap(self):
        p1 = identity_plane(4)
        p2 = phi_frame([PI / 8, PI / 8, PI / 4, PI / 2])  # sum = pi, type 1
        assert lawlor_family_exists(characteristic_angles(p1, p2))
        swapped = characteristic_angles(p2, p1)
        assert swapped.k == 3
        assert lawlor_family_exists(swapped)

    def test_z_pairing_signs(self):
        p1 = identity_plane(4)
        p2 = phi_frame([PI / 8, PI / 8, PI / 4, PI / 2])
        assert z_pairing_signs(characteristic_angles(p1, p2)) == (1, -1)
        assert z_pairing_signs(characteristic_angles(p2, p1)) == (-1, 1)

    def test_non_transverse_rejected(self):
        rep = characteristic_angles(identity_plane(3), identity_plane(3))
        with pytest.raises(InputError):
            lawlor_family_exists(rep)


class TestReconstruction:
    @given(st.integers(3, 6), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_canonical_transform_moves_pair_to_model(self, m, seed):
        p1, p2 = random_pair(m, seed)
        rep = characteristic_angles(p1, p2)
        b = canonical_transform(p1, p2)
        # b is special unitary
        assert np.max(np.abs(b.conj().T @ b - np.eye(m))) < 1e-10
        assert abs(np.linalg.det(b) - 1.0) < 1e-9
        assert subspace_distance(b @ p1.frame, np.eye(m)) < 1e-8
        assert subspace_distance(b @ p2.frame, phi_frame(rep.angles).frame) < 1e-8

    def test_equal_angle_reconstruction(self):
        p2 = phi_frame([PI / 3] * 3)
        b = canonical_transform(identity_plane(3), p2)
        assert subspace_distance(b @ p2.frame, p2.frame) < 1e-12

    def test_requires_transverse(self):
        with pytest.raises(InputError):
            canonical_transform(identity_plane(3), identity_plane(3))

    def test_rejects_what_characteristic_angles_rejects(self):
        p2 = phi_frame([PI / 3] * 3)
        for args in [(identity_plane(3), identity_plane(4)),
                     (identity_plane(3), p2, 0.0), (identity_plane(3), p2, math.nan)]:
            with pytest.raises(InputError):
                characteristic_angles(*args)
            with pytest.raises(InputError):
                canonical_transform(*args)

    def test_diagonalizes_once_per_call(self, monkeypatch):
        calls = []
        eigenstructure = planes._eigenstructure

        def counted(p1, p2):
            calls.append(1)
            return eigenstructure(p1, p2)

        monkeypatch.setattr(planes, "_eigenstructure", counted)
        p1, p2 = random_pair(4, 11)
        canonical_transform(p1, p2)
        assert len(calls) == 1
        characteristic_angles(p1, p2)
        assert len(calls) == 2


def test_phi_frame_det_fix():
    # odd-type angle sets need the last-column sign flip to stay special
    f = phi_frame([PI / 4, PI / 4, PI / 2])
    assert abs(np.linalg.det(f.frame) - 1.0) < 1e-12
    with pytest.raises(InputError):
        phi_frame([0.3, 0.4, 0.5])  # sum not a multiple of pi


def test_report_is_plain_data():
    rep = PlanePairReport(3, (0.5, 1.0, PI - 1.5), 1, True, True)
    assert rep.m == 3 and rep.k == 1
