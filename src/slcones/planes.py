"""Classification of transverse pairs of special Lagrangian planes.

A special Lagrangian plane in C^m is the image of R^m under a special
unitary matrix.  A transverse pair is characterized, up to the natural
SU(m) x O(m) x O(m) symmetry, by m characteristic angles in (0, pi)
whose sum is k*pi for an integer type k in {1, ..., m-1}.  The angles
are the halved eigenvalue phases of the unitary symmetric matrix
S = M M^T, M = p1^{-1} p2.  Necks with the given planes as asymptotic
ends exist exactly for types 1 and m-1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._tolerances import TRANSVERSE_TOL as DEFAULT_TRANSVERSE_TOL
from .errors import InputError, NumericError

__all__ = [
    "SLPlane",
    "PlanePairReport",
    "identity_plane",
    "phi_frame",
    "characteristic_angles",
    "lawlor_family_exists",
    "z_pairing_signs",
    "canonical_transform",
]

_FRAME_TOL = 1e-12
_CLUSTER_GAP = 1e-8


@dataclass(frozen=True, eq=False)
class SLPlane:
    """A plane frame·R^m with ``frame`` special unitary."""

    frame: np.ndarray

    def __init__(self, frame):
        frame = np.array(frame, dtype=complex)
        if frame.ndim != 2 or frame.shape[0] != frame.shape[1]:
            raise InputError(f"frame must be square, got shape {frame.shape}")
        m = frame.shape[0]
        if m < 1:
            raise InputError("frame must be nonempty")
        # checked before any arithmetic, which would warn on a NaN or inf
        if not np.isfinite(frame).all():
            raise InputError("frame is not unitary: it has a non-finite entry")
        # a unitary frame has every |entry| <= 1; a huge finite entry would
        # overflow the Gram product below, with numpy's warning
        big = np.max(np.abs(frame))
        if big > 1.0 + _FRAME_TOL:
            raise InputError(f"frame is not unitary: it has an entry of modulus {big:.3e}")
        unitary_defect = np.max(np.abs(frame.conj().T @ frame - np.eye(m)))
        # written as not (x <= tol) so that a Gram product overflowing to
        # NaN fails too
        if not (unitary_defect <= _FRAME_TOL):
            raise InputError(
                f"frame is not unitary: max |frame^* frame - I| = {unitary_defect:.3e}"
            )
        det = np.linalg.det(frame)
        if not (abs(det - 1.0) <= _FRAME_TOL * max(1.0, m)):
            raise InputError(f"frame must have unit determinant, got det = {det}")
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

    @property
    def m(self) -> int:
        return self.frame.shape[0]


@dataclass(frozen=True)
class PlanePairReport:
    """Sorted characteristic angles, type k, and existence flags."""

    m: int
    angles: tuple
    k: int
    transverse: bool
    lawlor_exists: bool


def identity_plane(m: int) -> SLPlane:
    """The reference plane R^m itself."""
    return SLPlane(np.eye(m))


def phi_frame(phi) -> SLPlane:
    """Special unitary frame of the model plane with angles ``phi``.

    The diagonal frame diag(e^{i phi_1}, ..., e^{i phi_m}) spans the
    model plane but has determinant (-1)^k; for odd k the last column is
    negated, which fixes the determinant without moving the plane.
    """
    phi = np.asarray(phi, dtype=float)
    frame = np.diag(np.exp(1j * phi))
    k = round(float(np.sum(phi)) / math.pi)
    if abs(np.sum(phi) / math.pi - k) > 1e-9:
        raise InputError(f"angle sum {np.sum(phi)} is not an integer multiple of pi")
    if k % 2:
        frame[:, -1] *= -1.0
    return SLPlane(frame)


def _joint_diagonalize(ar: np.ndarray, br: np.ndarray) -> np.ndarray:
    """Real orthogonal O diagonalizing two commuting real symmetric
    matrices: eigendecompose the first, then rediagonalize the second
    inside each eigenvalue cluster of the first."""
    w, o = np.linalg.eigh(ar)
    o = o.copy()
    n = len(w)
    i = 0
    while i < n:
        j = i + 1
        while j < n and w[j] - w[j - 1] < _CLUSTER_GAP:
            j += 1
        if j - i > 1:
            block = o[:, i:j]
            bb = block.T @ br @ block
            _, u = np.linalg.eigh((bb + bb.T) / 2.0)
            o[:, i:j] = block @ u
        i = j
    return o


def _eigenstructure(p1: SLPlane, p2: SLPlane):
    """O real orthogonal and unimodular d with S = O diag(d) O^T for
    S = M M^T, M = p1^{-1} p2; columns ordered by ascending angle."""
    mrel = p1.frame.conj().T @ p2.frame
    s = mrel @ mrel.T
    o = _joint_diagonalize(s.real, s.imag)
    full = o.T @ s @ o
    d = np.diag(full).copy()
    off = np.max(np.abs(full - np.diag(d)))
    if off > 1e-8:
        raise NumericError(
            f"joint diagonalization failed: off-diagonal residual {off:.3e}",
            achieved=off,
        )
    order = np.argsort(np.mod(np.angle(d), 2.0 * math.pi))
    return mrel, o[:, order], d[order]


def characteristic_angles(
    p1: SLPlane, p2: SLPlane, tol: float = DEFAULT_TRANSVERSE_TOL
) -> PlanePairReport:
    """Angles, type, and transversality of the pair (p1·R^m, p2·R^m).

    Eigenvalue phases of S = M M^T are taken in (0, 2*pi) and halved.
    An eigenvalue within ``tol`` of 1 marks the pair non-transverse (an
    angle at the boundary 0 or pi), and boundary values are reported
    as computed.
    """
    if p1.m != p2.m:
        raise InputError(f"dimension mismatch: {p1.m} vs {p2.m}")
    m = p1.m
    _, _, d = _eigenstructure(p1, p2)
    transverse = bool(np.min(np.abs(d - 1.0)) > tol)
    phi = np.sort(np.mod(np.angle(d), 2.0 * math.pi) / 2.0)
    total = float(np.sum(phi)) / math.pi
    k = round(total)
    if transverse and abs(total - k) > 1e-6:
        raise NumericError(
            f"angle sum {total}*pi is not close to an integer multiple",
            achieved=abs(total - k),
        )
    lawlor = transverse and k in (1, m - 1)
    return PlanePairReport(m, tuple(float(x) for x in phi), k, transverse, lawlor)


def lawlor_family_exists(report: PlanePairReport) -> bool:
    """Whether a one-parameter neck family joins the pair: type 1 or m-1."""
    if not report.transverse:
        raise InputError("neck existence is only defined for transverse pairs")
    return report.k in (1, report.m - 1)


def z_pairing_signs(report: PlanePairReport) -> tuple:
    """Signs (s+, s-) with which the neck's invariant pairs with the two
    ends: (+1, -1) for type 1 and (-1, +1) for type m-1."""
    if not lawlor_family_exists(report):
        raise InputError(f"no neck family exists for type {report.k}")
    return (1, -1) if report.k == 1 else (-1, 1)


def canonical_transform(
    p1: SLPlane, p2: SLPlane, tol: float = DEFAULT_TRANSVERSE_TOL
) -> np.ndarray:
    """Special unitary B carrying p1·R^m to R^m and p2·R^m to the model
    plane of the pair's characteristic angles.

    With S = O diag(e^{2 i phi}) O^T the factor M = p1^{-1} p2 splits as
    O diag(e^{i phi}) O2 for a real orthogonal O2, and B = O^T p1^{-1}
    works.  The square roots e^{i phi} take the branch with phase in
    (0, pi), matching the angle convention.
    """
    report = characteristic_angles(p1, p2, tol)
    if not report.transverse:
        raise InputError("canonical transform requires a transverse pair")
    mrel, o, d = _eigenstructure(p1, p2)
    phi = np.mod(np.angle(d), 2.0 * math.pi) / 2.0
    roots = np.exp(1j * phi)
    o2 = np.diag(1.0 / roots) @ o.T @ mrel
    real_defect = np.max(np.abs(o2.imag))
    if real_defect > 1e-8:
        raise NumericError(
            f"orthogonal factor is not real: residual {real_defect:.3e}",
            achieved=real_defect,
        )
    if np.linalg.det(o) < 0:
        o = o.copy()
        o[:, 0] *= -1.0
    return o.T @ p1.frame.conj().T
