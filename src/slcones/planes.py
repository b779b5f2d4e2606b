"""Classification of transverse pairs of special Lagrangian planes.

A special Lagrangian plane in C^m is the image of R^m under a special
unitary matrix.  A transverse pair is characterized, up to the natural
SU(m) x O(m) x O(m) symmetry, by m characteristic angles in (0, pi)
whose sum is k*pi for an integer type k in {1, ..., m-1}.  The angles
are the halved eigenvalue phases of the unitary symmetric matrix
S = M M^T, M = p1^{-1} p2.  Necks with the given planes as asymptotic
ends exist exactly for types 1 and m-1.

S is diagonalized by a real orthogonal O, found jointly for its
commuting real and imaginary parts: LAPACK ``eigh`` of Re S seeds O, and
cyclic Jacobi rotations on the pair (Re, Im) of O^T S O remove whatever
off-diagonal entry still exceeds a fixed threshold of 1e-10.  That
happens where two eigenvalues have (nearly) equal cosines, which
``eigh`` of Re S alone cannot separate; a generic pair does no rotation.

Classifying a pair and then bringing it to canonical form needs that
decomposition twice.  The last pair decomposed is kept by identity (an
``SLPlane`` compares and hashes by identity), so the second call reuses
it; its arrays are read-only, and no caller mutates its list of
eigenvalues.  Equal frames in new ``SLPlane`` objects are decomposed
afresh.
"""
from __future__ import annotations

import cmath
import functools
import math
import numbers
from typing import NamedTuple

import numpy as np

from ._tolerances import TRANSVERSE_TOL as DEFAULT_TRANSVERSE_TOL
from .errors import (
    InputError,
    NumericError,
    as_finite,
    as_int,
    as_positive,
    as_tuple,
    checked_replace,
    shown,
)

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
#: a joint Jacobi rotation runs on (p, q) only while |(O^T S O)_pq| exceeds this
_ROTATION_TOL = 1e-10
#: Jacobi sweeps after which the residual check decides
_MAX_SWEEPS = 30
_TWO_PI = 2.0 * math.pi


class SLPlane(NamedTuple("SLPlane", [("frame", np.ndarray)])):
    """A plane frame·R^m with ``frame`` special unitary.  Planes compare
    and hash by identity, as tuple equality would compare the arrays."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, frame):
        if isinstance(frame, np.ndarray):
            if frame.dtype.kind not in "iufc":  # bools, strings, objects
                raise InputError(f"frame entries must be numbers, got dtype {frame.dtype}")
        else:  # numpy would read a bool or a numeric string as a number
            frame = [as_tuple(row, "frame row") for row in as_tuple(frame, "frame")]
            bad = [x for row in frame for x in row
                   if isinstance(x, bool) or not isinstance(x, numbers.Number)]
            if bad:
                raise InputError(f"frame entries must be numbers, got {shown(bad[0])!r}")
        try:
            frame = np.array(frame, dtype=complex)
        except (ValueError, OverflowError):  # ragged rows, or an int beyond the float range
            raise InputError("frame must be a square matrix of finite numbers") from None
        if frame.ndim != 2 or frame.shape[0] != frame.shape[1]:
            raise InputError(f"frame must be square, got shape {frame.shape}")
        m = frame.shape[0]
        if m < 1:
            raise InputError("frame must be nonempty")
        # A unitary frame has every |entry| <= 1, so a NaN, an inf or a huge
        # finite entry fails here, before the Gram product below could warn
        # or overflow; the finite test runs only to name the failure.
        big = np.abs(frame).max()
        if not (big <= 1.0 + _FRAME_TOL):
            if not np.isfinite(frame).all():
                raise InputError("frame is not unitary: it has a non-finite entry")
            raise InputError(f"frame is not unitary: it has an entry of modulus {big:.3e}")
        gram = frame.conj().T @ frame
        gram.flat[:: m + 1] -= 1.0
        unitary_defect = np.abs(gram).max()
        if unitary_defect > _FRAME_TOL:
            raise InputError(
                f"frame is not unitary: max |frame^* frame - I| = {unitary_defect:.3e}"
            )
        det = np.linalg.det(frame)
        if not (abs(det - 1.0) <= _FRAME_TOL * max(1.0, m)):
            raise InputError(f"frame must have unit determinant, got det = {det}")
        frame.setflags(write=False)
        return tuple.__new__(cls, (frame,))

    _replace = checked_replace

    @property
    def m(self) -> int:
        return self.frame.shape[0]


class PlanePairReport(NamedTuple):
    """Sorted characteristic angles, type k, and existence flags."""

    m: int
    angles: tuple
    k: int
    transverse: bool
    lawlor_exists: bool


def identity_plane(m: int) -> SLPlane:
    """The reference plane R^m itself."""
    m = as_int(m, "dimension m", least=1)
    try:
        frame = np.eye(m)
    except ValueError:  # m past numpy's largest dimension
        raise InputError(f"dimension m = {shown(m)} is too large for an array") from None
    return SLPlane(frame)


def phi_frame(phi) -> SLPlane:
    """Special unitary frame of the model plane with angles ``phi``.

    The diagonal frame diag(e^{i phi_1}, ..., e^{i phi_m}) spans the
    model plane but has determinant (-1)^k; for odd k the last column is
    negated, which fixes the determinant without moving the plane.
    """
    phi = np.array([as_finite(x, "angle phi_k") for x in as_tuple(phi, "angles")])
    frame = np.diag(np.exp(1j * phi))
    k = round(float(np.sum(phi)) / math.pi)
    if abs(np.sum(phi) / math.pi - k) > 1e-9:
        raise InputError(f"angle sum {np.sum(phi)} is not an integer multiple of pi")
    if k % 2:
        frame[:, -1] *= -1.0
    return SLPlane(frame)


def _off_diagonal(f: np.ndarray) -> float:
    """Largest modulus of an off-diagonal entry of the square matrix f."""
    a = np.abs(f)
    a.flat[:: len(a) + 1] = 0.0
    return float(a.max())


def _rotate(f: np.ndarray, o: np.ndarray, p: int, q: int) -> None:
    """One joint Jacobi step on (p, q): F <- R^T F R and O <- O R for the
    plane rotation R by theta, where (cos 2*theta, sin 2*theta) is the
    principal axis of the 2x2 aggregate sum h h^T over the real and the
    imaginary part of h = (F_pp - F_qq, 2 F_pq)."""
    u, v = f[p, p] - f[q, q], 2.0 * f[p, q]
    # sum h h^T = [[|u|^2, Re(u conj v)], [Re(u conj v), |v|^2]]
    uu, vv = abs(u) ** 2, abs(v) ** 2
    uv = u.real * v.real + u.imag * v.imag
    theta = math.atan2(2.0 * uv, uu - vv) / 4.0
    c, s = math.cos(theta), math.sin(theta)
    for x in (f, o):
        xp, xq = x[:, p].copy(), x[:, q].copy()
        x[:, p] = c * xp + s * xq
        x[:, q] = c * xq - s * xp
    fp, fq = f[p].copy(), f[q].copy()
    f[p] = c * fp + s * fq
    f[q] = c * fq - s * fp


def _joint_diagonalize(s: np.ndarray):
    """Real orthogonal O and F = O^T S O with F diagonal, for a complex
    symmetric S whose real and imaginary parts commute; the residual is
    the largest off-diagonal |F_pq|.

    O starts as the eigenvectors of Re S from LAPACK ``eigh``.  Where
    eigenvalues e^{2 i phi} share (nearly) the same cosine, those vectors
    mix them and Im F is not diagonal.  Cyclic Jacobi rotations on the
    pair (Re F, Im F) then diagonalize both at once (Cardoso & Souloumiac,
    SIAM J. Matrix Anal. Appl. 17(1), 1996): a rotation runs on (p, q)
    only while |F_pq| exceeds ``_ROTATION_TOL``, and sweeps stop when none
    does.  There is no eigenvalue cluster gap, and a generic pair, whose
    ``eigh`` residual is far below the threshold, does no rotation.
    """
    _, o = np.linalg.eigh(s.real)
    f = o.T @ s @ o
    off = _off_diagonal(f)
    for _ in range(_MAX_SWEEPS):
        if off <= _ROTATION_TOL:
            break
        for p in range(len(f) - 1):
            for q in range(p + 1, len(f)):
                if abs(f[p, q]) > _ROTATION_TOL:
                    _rotate(f, o, p, q)
        off = _off_diagonal(f)
    return o, f, off


def _phase(z: complex) -> float:
    """Argument of z in [0, 2*pi)."""
    return cmath.phase(z) % _TWO_PI


@functools.lru_cache(maxsize=1)
def _eigenstructure(p1: SLPlane, p2: SLPlane):
    """M = p1^{-1} p2, and O real orthogonal and unimodular d with
    S = O diag(d) O^T for S = M M^T; columns ordered by ascending angle,
    d a list of Python complex numbers.

    The last pair's answer is kept, keyed by the identity of the two
    planes, so :func:`characteristic_angles` then
    :func:`canonical_transform` on one pair decompose S once.  M and O
    are returned read-only, and d is shared with every later call on the
    pair: it must not be mutated."""
    if p1.m != p2.m:
        raise InputError(f"dimension mismatch: {p1.m} vs {p2.m}")
    mrel = p1.frame.conj().T @ p2.frame
    o, full, off = _joint_diagonalize(mrel @ mrel.T)
    if off > 1e-8:
        raise NumericError(
            f"joint diagonalization failed: off-diagonal residual {off:.3e}",
            achieved=off,
        )
    d = full.diagonal().tolist()
    phases = [_phase(x) for x in d]
    order = sorted(range(len(d)), key=phases.__getitem__)
    o = o[:, order]
    mrel.setflags(write=False)
    o.setflags(write=False)
    return mrel, o, [d[i] for i in order]


def _report(m: int, d: list, tol: float) -> PlanePairReport:
    """The report of a pair from the eigenvalues d of its S."""
    transverse = min(abs(x - 1.0) for x in d) > tol
    phi = sorted(_phase(x) / 2.0 for x in d)
    total = sum(phi) / math.pi
    k = round(total)
    if transverse and abs(total - k) > 1e-6:
        raise NumericError(
            f"angle sum {total}*pi is not close to an integer multiple",
            achieved=abs(total - k),
        )
    lawlor = transverse and k in (1, m - 1)
    return PlanePairReport(m, tuple(phi), k, transverse, lawlor)


def characteristic_angles(
    p1: SLPlane, p2: SLPlane, tol: float = DEFAULT_TRANSVERSE_TOL
) -> PlanePairReport:
    """Angles, type, and transversality of the pair (p1·R^m, p2·R^m).

    Eigenvalue phases of S = M M^T are taken in (0, 2*pi) and halved.
    An eigenvalue within ``tol`` (a finite positive number) of 1 marks
    the pair non-transverse (an angle at the boundary 0 or pi), and
    boundary values are reported as computed.
    """
    tol = as_positive(tol, "tol")
    _, _, d = _eigenstructure(p1, p2)
    return _report(p1.m, d, tol)


def lawlor_family_exists(report: PlanePairReport) -> bool:
    """Whether a one-parameter neck family joins the pair: type 1 or m-1,
    as :func:`characteristic_angles` decided in ``report.lawlor_exists``."""
    if not report.transverse:
        raise InputError("neck existence is only defined for transverse pairs")
    return report.lawlor_exists


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
    tol = as_positive(tol, "tol")
    mrel, o, d = _eigenstructure(p1, p2)
    if not _report(p1.m, d, tol).transverse:
        raise InputError("canonical transform requires a transverse pair")
    roots = np.array([cmath.exp(0.5j * _phase(x)) for x in d])
    o2 = (o.T @ mrel) / roots[:, None]
    real_defect = np.abs(o2.imag).max()
    if real_defect > 1e-8:
        raise NumericError(
            f"orthogonal factor is not real: residual {real_defect:.3e}",
            achieved=real_defect,
        )
    if np.linalg.det(o) < 0:
        o = o.copy()  # the kept decomposition is read-only
        o[:, 0] *= -1.0
    return o.T @ p1.frame.conj().T
