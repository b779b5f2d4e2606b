"""Tests for characteristic angles, types, and plane-pair reconstruction.

Pairs whose eigenvalues e^{2 i phi} share (nearly) the same cosine are
checked against their planted angles and an mpmath eigenvalue oracle, and
generic pairs against a frozen copy of the earlier cluster-gap
diagonalization.  The decomposition a pair's report and its transform
share is counted, and a Lawlor neck's angles are carried through random
SU(m) frames and back.
"""
import io
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haar import haar_so, haar_su
from slcones import cli, planes
from slcones.errors import InputError, NumericError
from slcones.lawlor import NeckParams, angles_from_a
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
    return haar_su(np.random.default_rng(seed), m)


def random_pair(m, seed):
    return SLPlane(random_su(m, seed)), SLPlane(random_su(m, seed + 10_000))


def planted_pair(rng, phi):
    """Frames u O1 and u F O2 of a pair with characteristic angles phi: u
    Haar in SU(m), O1 and O2 Haar in SO(m), F the model frame of phi."""
    m = len(phi)
    u = haar_su(rng, m)
    return (SLPlane(u @ haar_so(rng, m)),
            SLPlane(u @ phi_frame(phi).frame @ haar_so(rng, m)))


def cosine_collision(a, delta):
    """Angles (a, pi - a + delta, pi - delta): the eigenvalues e^{2 i phi}
    of the first two have cosines 2 delta sin 2a apart, and sines of
    opposite signs."""
    return [a, PI - a + delta, PI - delta]


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
        r1 = haar_so(rng, m)
        r2 = haar_so(rng, m)
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

    def test_empty_frame_rejected(self):
        # a nested list cannot give a 0 x 0 frame, an array can
        with pytest.raises(InputError, match="frame must be nonempty"):
            SLPlane(np.zeros((0, 0)))

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

    def test_non_real_orthogonal_factor_is_a_numeric_failure(self, monkeypatch):
        # M turned by the phase 1e-4 leaves S's phases, and so the report,
        # unchanged, but its factor O2 is no longer real
        eigenstructure = planes._eigenstructure
        monkeypatch.setattr(planes, "_eigenstructure", lambda p1, p2: (
            eigenstructure(p1, p2)[0] * np.exp(1e-4j), *eigenstructure(p1, p2)[1:]))
        p1, p2 = random_pair(4, 11)
        characteristic_angles(p1, p2)
        with pytest.raises(NumericError, match="orthogonal factor is not real") as info:
            canonical_transform(p1, p2)
        assert 1e-8 < info.value.achieved <= 1e-4

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


def assert_moves_to_model(p1, p2, angles):
    b = canonical_transform(p1, p2)
    m = p1.m
    assert np.max(np.abs(b.conj().T @ b - np.eye(m))) < 1e-10
    assert abs(np.linalg.det(b) - 1.0) < 1e-9
    assert subspace_distance(b @ p1.frame, np.eye(m)) < 1e-8
    assert subspace_distance(b @ p2.frame, phi_frame(angles).frame) < 1e-8


class TestCosineCollisions:
    """Eigenvalues of S with equal or nearly equal real parts: ``eigh`` of
    Re S alone cannot separate them, the Jacobi rotations on the pair
    (Re, Im) must."""

    @pytest.mark.parametrize("delta", [5e-9, 7e-9, 1e-8, 2e-8, 5e-8, 1e-7])
    def test_near_collision_band(self, delta):
        # the cluster-gap diagonalization raised NumericError on about
        # two thirds of such draws at delta = 1e-8
        rng = np.random.default_rng(int(delta * 1e10))
        for _ in range(200):
            phi = cosine_collision(rng.uniform(0.2, 1.3), delta)
            p1, p2 = planted_pair(rng, phi)
            rep = characteristic_angles(p1, p2)
            assert rep.angles == pytest.approx(sorted(phi), abs=1e-9)
            assert rep.transverse and rep.k == 2
            assert_moves_to_model(p1, p2, rep.angles)

    def test_near_collision_through_the_cli(self, monkeypatch, capsys):
        # a pair on which the cluster-gap diagonalization exited 3
        rng = np.random.default_rng(0)
        phi = cosine_collision(rng.uniform(0.2, 1.3), 1e-8)
        p1, p2 = planted_pair(rng, phi)
        doc = {key: [[[z.real, z.imag] for z in row] for row in p.frame.tolist()]
               for key, p in (("p1", p1), ("p2", p2))}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert cli.main(["planes"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["angles"] == pytest.approx(sorted(phi), abs=1e-9)
        assert out["k"] == 2

    @pytest.mark.parametrize("phi", [
        [0.5, PI - 0.5, 0.7, PI - 0.7],  # equal cosines, distinct sines
        [PI / 4] * 4,
        [PI / 3] * 3,
    ])
    def test_exact_collisions(self, phi):
        pairs = [(identity_plane(len(phi)), phi_frame(phi))]
        rng = np.random.default_rng(len(phi))
        pairs += [planted_pair(rng, phi) for _ in range(20)]
        for p1, p2 in pairs:
            rep = characteristic_angles(p1, p2)
            assert rep.angles == pytest.approx(sorted(phi), abs=1e-9)
            assert_moves_to_model(p1, p2, rep.angles)

    @pytest.mark.parametrize("m", range(3, 11))
    def test_against_mpmath_eigenvalues(self, m):
        rng = np.random.default_rng(100 + m)
        # two generic pairs and one with planted cosine collisions: pairs
        # (b, pi - b) and, for odd m, a near collision
        phi = cosine_collision(rng.uniform(0.2, 1.3), 1e-8) if m % 2 else []
        while len(phi) < m:
            b = rng.uniform(0.2, 1.3)
            phi += [b, PI - b]
        pairs = [random_pair(m, 100 + m), random_pair(m, 200 + m), planted_pair(rng, phi)]
        with mpmath.workdps(40):
            for p1, p2 in pairs:
                mrel = mpmath.matrix(p1.frame.conj().T.tolist()) * mpmath.matrix(p2.frame.tolist())
                eig = mpmath.eig(mrel * mrel.T, left=False, right=False)
                want = sorted(float((mpmath.arg(z) % (2 * mpmath.pi)) / 2) for z in eig)
                rep = characteristic_angles(p1, p2)
                assert rep.angles == pytest.approx(want, abs=1e-12)
        assert rep.angles == pytest.approx(sorted(phi), abs=1e-9)


def cluster_oracle(p1, p2):
    """Frozen copy of the cluster-gap diagonalization that the joint Jacobi
    rotations replaced: ``eigh`` of Re S, then ``eigh`` of Im S inside each
    run of eigenvalues of Re S closer than 1e-8.  Returns (M, O, d) as
    ``planes._eigenstructure`` does, d an array."""
    mrel = p1.frame.conj().T @ p2.frame
    s = mrel @ mrel.T
    ar, br = s.real, s.imag
    w, o = np.linalg.eigh(ar)
    o = o.copy()
    n = len(w)
    i = 0
    while i < n:
        j = i + 1
        while j < n and w[j] - w[j - 1] < 1e-8:
            j += 1
        if j - i > 1:
            block = o[:, i:j]
            bb = block.T @ br @ block
            _, u = np.linalg.eigh((bb + bb.T) / 2.0)
            o[:, i:j] = block @ u
        i = j
    full = o.T @ s @ o
    d = np.diag(full).copy()
    off = np.max(np.abs(full - np.diag(d)))
    if off > 1e-8:
        raise NumericError(f"joint diagonalization failed: off-diagonal residual {off:.3e}")
    order = np.argsort(np.mod(np.angle(d), 2.0 * math.pi))
    return mrel, o[:, order], d[order]


@pytest.mark.parametrize("m", range(3, 9))
def test_generic_pairs_equal_cluster_oracle(m):
    # A generic pair's eigh residual (up to 6.7e-12 at m = 8) is below the
    # rotation threshold, so no rotation runs and O, d and the report are
    # those of the cluster-gap diagonalization, bit for bit.
    checked = 0
    for seed in range(60):
        p1, p2 = random_pair(m, 1000 * m + seed)
        mrel, o, d = cluster_oracle(p1, p2)
        _, o_eigh = np.linalg.eigh((mrel @ mrel.T).real)
        if planes._off_diagonal(o_eigh.T @ (mrel @ mrel.T) @ o_eigh) > planes._ROTATION_TOL:
            continue
        checked += 1
        mrel_new, o_new, d_new = planes._eigenstructure(p1, p2)
        assert np.array_equal(mrel_new, mrel)
        assert np.array_equal(o_new, o)
        assert d_new == d.tolist()
        assert characteristic_angles(p1, p2) == planes._report(m, d.tolist(), 1e-9)
    assert checked >= 55


class TestSharedDecomposition:
    """The last pair decomposed is kept by the identity of its planes, so
    classifying a pair and then transforming it decompose S once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        joint_diagonalize = planes._joint_diagonalize

        def counted(s):
            calls.append(1)
            return joint_diagonalize(s)

        monkeypatch.setattr(planes, "_joint_diagonalize", counted)
        return calls

    def test_classify_then_transform_decomposes_once(self, calls):
        p1, p2 = random_pair(5, 21)
        rep = characteristic_angles(p1, p2)
        b = canonical_transform(p1, p2)
        assert len(calls) == 1
        planes._eigenstructure.cache_clear()
        assert np.array_equal(canonical_transform(p1, p2), b)
        assert characteristic_angles(p1, p2) == rep
        assert len(calls) == 2

    def test_equal_frames_in_new_planes_decompose_again(self, calls):
        f1, f2 = random_su(4, 31), random_su(4, 41)
        rep = characteristic_angles(SLPlane(f1), SLPlane(f2))
        canonical_transform(SLPlane(f1), SLPlane(f2))
        assert characteristic_angles(SLPlane(f1), SLPlane(f2)) == rep
        assert len(calls) == 3

    def test_negative_det_transform_leaves_the_kept_o_alone(self):
        for seed in range(40):
            p1, p2 = random_pair(3, 500 + seed)
            o = planes._eigenstructure(p1, p2)[1]
            if np.linalg.det(o) < 0:
                break
        else:
            pytest.fail("no pair with det O < 0 among 40 seeds")
        kept = o.copy()
        b = canonical_transform(p1, p2)
        assert np.array_equal(canonical_transform(p1, p2), b)
        assert np.array_equal(planes._eigenstructure(p1, p2)[1], kept)
        assert_moves_to_model(p1, p2, characteristic_angles(p1, p2).angles)

    def test_kept_arrays_are_read_only(self):
        mrel, o, d = planes._eigenstructure(*random_pair(4, 51))
        for x in (mrel, o):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0, 0] = 0.0
        assert type(d) is list


@pytest.mark.parametrize("m", range(3, 9))
def test_neck_angles_under_random_su_frames(m):
    # Lawlor neck -> plane pair: the neck's angles phi, the pair
    # (u R^m, u Pi^phi) for a Haar u in SU(m), its report and its
    # canonical transform back to (R^m, Pi^phi)
    rng = np.random.default_rng(2700 + m)
    for _ in range(4):
        phi = sorted(angles_from_a(NeckParams(tuple(10.0 ** rng.uniform(-1, 1, m)))).phi)
        u = haar_su(rng, m)
        p1, p2 = SLPlane(u), SLPlane(u @ phi_frame(phi).frame)
        rep = characteristic_angles(p1, p2)
        assert rep.angles == pytest.approx(phi, abs=1e-10)
        assert rep.transverse and rep.k == 1 and rep.lawlor_exists
        assert_moves_to_model(p1, p2, phi)


def test_phi_frame_det_fix():
    # odd-type angle sets need the last-column sign flip to stay special
    f = phi_frame([PI / 4, PI / 4, PI / 2])
    assert abs(np.linalg.det(f.frame) - 1.0) < 1e-12
    with pytest.raises(InputError):
        phi_frame([0.3, 0.4, 0.5])  # sum not a multiple of pi


def test_report_is_plain_data():
    rep = PlanePairReport(3, (0.5, 1.0, PI - 1.5), 1, True, True)
    assert rep.m == 3 and rep.k == 1
