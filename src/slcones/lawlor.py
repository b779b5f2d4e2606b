"""Lawlor-neck numerics on flat complex m-space.

A neck is determined by m positive parameters a_1..a_m.  Its asymptotic
data are m angles phi_k in (0, pi) summing to pi together with an area
parameter A, and the two descriptions are in bijection:

    phi_k = a_k * integral dx / ((1 + a_k x^2) sqrt(P(x))),  over all x,
    A     = omega_m * (a_1 ... a_m)^(-1/2),

where P(x) = (prod_k (1 + a_k x^2) - 1) / x^2 and omega_m is the
(m-1)-volume of the unit sphere in R^m.  This module computes both
directions of the bijection with certified quadrature error, evaluates
the neck parametrization itself, and numerically verifies the special
Lagrangian conditions (the symplectic form and the imaginary part of
the holomorphic volume form both restrict to zero) for the neck and for
the torus cone it desingularizes.

P(x) is always evaluated through its polynomial coefficients in x^2
(the elementary symmetric polynomials of the a_k), never as the raw
product quotient: the series form is exact at x = 0 where the quotient
is 0/0, with P(0) = a_1 + ... + a_m.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._tolerances import LAWLOR_TOL as DEFAULT_TOL
from .errors import InputError, NumericError

__all__ = [
    "NeckParams",
    "AngleSpec",
    "SLResidual",
    "sphere_area",
    "angles_from_a",
    "a_from_angles",
    "neck_point",
    "verify_sl_neck",
    "verify_sl_hl_cone",
    "z_invariant",
]

#: tolerance on sum(phi) - pi accepted when constructing an AngleSpec
ANGLE_SUM_TOL = 1e-6
#: finite-difference step used by verify_sl_neck
DEFAULT_FD_STEP = 1e-5
#: residual bounds the verification suites assert against
HL_CONE_RESIDUAL_BOUND = 1e-10
NECK_RESIDUAL_BOUND = 1e-4
#: Newton iteration cap and positivity floor for the inverse map
_NEWTON_MAX_ITER = 60
_POSITIVITY_EPS = 1e-12

_QUAD_LIMIT = 200


def _quad(f, lo: float, hi: float, epsabs: float, epsrel: float):
    """scipy's adaptive quadrature of f over [lo, hi], as (value, error).

    scipy is imported here, at the first quadrature, so that importing
    this module (and with it the CLI) loads no scipy module.
    """
    from scipy.integrate import quad

    return quad(f, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=_QUAD_LIMIT)


def sphere_area(m: int) -> float:
    """(m-1)-dimensional volume of the unit sphere in R^m."""
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


@dataclass(frozen=True)
class NeckParams:
    """The m positive neck parameters a_1..a_m."""

    m: int
    a: tuple

    def __init__(self, a):
        a = tuple(float(x) for x in a)
        if len(a) < 3:
            raise InputError(f"need at least 3 parameters, got {len(a)}")
        if any(x <= 0 or not math.isfinite(x) for x in a):
            raise InputError(f"all parameters must be positive, got {a}")
        object.__setattr__(self, "m", len(a))
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class AngleSpec:
    """Asymptotic angles phi_1..phi_m (each in (0, pi), summing to pi
    within ``sum_tol``) and the positive area parameter A."""

    m: int
    phi: tuple
    A: float
    sum_tol: float

    def __init__(self, phi, A, sum_tol: float = ANGLE_SUM_TOL):
        phi = tuple(float(x) for x in phi)
        A = float(A)
        if len(phi) < 3:
            raise InputError(f"need at least 3 angles, got {len(phi)}")
        if any(not 0.0 < x < math.pi for x in phi):
            raise InputError(f"angles must lie strictly inside (0, pi): {phi}")
        if abs(sum(phi) - math.pi) > sum_tol:
            raise InputError(
                f"angles must sum to pi within {sum_tol}, "
                f"got sum deviation {sum(phi) - math.pi:.3e}"
            )
        if not (A > 0 and math.isfinite(A)):
            raise InputError(f"area parameter must be positive, got {A}")
        object.__setattr__(self, "m", len(phi))
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "sum_tol", float(sum_tol))


@dataclass(frozen=True)
class SLResidual:
    """Sup of |omega| over sampled tangent 2-planes and sup of the
    normalized imaginary part of the holomorphic volume form on sampled
    tangent frames."""

    max_omega_residual: float
    max_phase_residual: float


def _poly_coeffs(a) -> np.ndarray:
    """Coefficients c_0..c_{m-1} of P(x) = sum_j c_j x^(2j).

    c_j is the (j+1)-st elementary symmetric polynomial of the a_k, so
    every coefficient is positive and P > 0 on all of R.
    """
    c = np.array([1.0])
    for ak in a:
        c = np.convolve(c, [1.0, ak])
    return c[1:]  # drop the constant 1 of the product; c[0] = sum(a)


def _integrand(coeffs, ak):
    """The angle integrand 1 / ((1 + a_k x^2) sqrt(P(x))) as a closure.

    quad calls it tens of thousands of times per inverse map, so it works
    on Python floats only: numpy-scalar arithmetic costs about four times
    as much.  P is evaluated by Horner in x^2 from the top coefficient
    down, and ``ak * x * x`` is kept as ``(ak * x) * x``; reusing ``u``
    there would round differently.
    """
    rev = tuple(float(c) for c in coeffs[::-1])
    ak = float(ak)
    sqrt = math.sqrt

    def f(x: float) -> float:
        u = x * x
        v = 0.0
        for cj in rev:
            v = v * u + cj
        return 1.0 / ((1.0 + ak * x * x) * sqrt(v))

    return f


def angles_from_a(p: NeckParams, tol: float = DEFAULT_TOL) -> AngleSpec:
    """Forward map (a_1..a_m) -> (phi_1..phi_m, A).

    Each angle is computed by adaptive quadrature with certified
    absolute error at most ``tol``, so the angle sum is within m*tol of
    pi.  Raises :class:`NumericError` with the achieved bound if the
    quadrature cannot certify ``tol``.
    """
    if not (tol > 0):
        raise InputError(f"tol must be positive, got {tol}")
    coeffs = _poly_coeffs(p.a)
    phi = []
    for ak in p.a:
        # phi_k = 2 a_k * int_0^inf by evenness
        val, err = _quad(
            _integrand(coeffs, ak), 0.0, np.inf, epsabs=tol / (4.0 * ak), epsrel=1e-13
        )
        achieved = 2.0 * ak * err
        if achieved > tol:
            raise NumericError(
                f"quadrature certified only {achieved:.3e} > tol {tol:.3e} "
                f"for a_k = {ak}",
                achieved=achieved,
            )
        phi.append(2.0 * ak * val)
    # a certified quadrature can still return garbage at extreme ratios
    # of the a_k; that is a numeric failure, not a bad AngleSpec input
    sum_tol = max(p.m * tol, 1e-14)
    dev = abs(sum(phi) - math.pi)
    if any(not 0.0 < x < math.pi for x in phi) or dev > sum_tol:
        raise NumericError(
            f"quadrature angles {tuple(phi)} are not inside (0, pi) with "
            f"sum pi within {sum_tol:.3e}: sum deviation {dev:.3e}",
            achieved=dev if math.isfinite(dev) else None,
        )
    prod = math.prod(p.a)
    A = sphere_area(p.m) / math.sqrt(prod)
    return AngleSpec(phi, A, sum_tol=sum_tol)


def _angles_only(coeffs, a, count: int) -> np.ndarray:
    """Uncertified fast evaluation of the first ``count`` angles, used
    inside the Newton loop."""
    out = np.empty(count)
    for k, ak in enumerate(a[:count]):
        val, _ = _quad(_integrand(coeffs, ak), 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
        out[k] = 2.0 * ak * val
    return out


def a_from_angles(spec: AngleSpec, tol: float = DEFAULT_TOL) -> NeckParams:
    """Inverse map (phi, A) -> a by damped Newton iteration.

    The residual stacks the first m-1 angle equations (the last angle is
    determined by the sum identity) with the logarithm of the area
    equation.  Iteration starts from the symmetric point scaled so the
    area equation holds exactly, takes damped Newton steps with the
    positivity projection a_k <- max(a_k, eps), and stops when the
    residual drops below ``tol``.
    """
    if not (tol > 0):
        raise InputError(f"tol must be positive, got {tol}")
    m = spec.m
    phi_target = np.array(spec.phi[: m - 1])
    logA_target = math.log(spec.A)
    om = sphere_area(m)

    # symmetric start satisfying A = omega_m (prod a)^(-1/2)
    s0 = (om / spec.A) ** (2.0 / m)
    a = np.full(m, s0)

    def residual(avec: np.ndarray) -> np.ndarray:
        coeffs = _poly_coeffs(avec)
        ang = _angles_only(coeffs, avec, m - 1)
        logA = math.log(om) - 0.5 * float(np.sum(np.log(avec)))
        return np.concatenate([ang - phi_target, [logA - logA_target]])

    g = residual(a)
    norm = float(np.max(np.abs(g)))
    for _ in range(_NEWTON_MAX_ITER):
        if norm <= tol:
            return NeckParams(a)
        jac = np.empty((m, m))
        for j in range(m):
            step = 1e-6 * max(a[j], 1e-3)
            bumped = a.copy()
            bumped[j] += step
            jac[:, j] = (residual(bumped) - g) / step
        try:
            delta = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"singular Jacobian in Newton iteration, residual {norm:.3e}",
                achieved=norm,
            ) from exc
        # damped update with positivity projection
        lam = 1.0
        for _ in range(12):
            trial = np.maximum(a + lam * delta, _POSITIVITY_EPS)
            g_trial = residual(trial)
            norm_trial = float(np.max(np.abs(g_trial)))
            if norm_trial < norm:
                a, g, norm = trial, g_trial, norm_trial
                break
            lam *= 0.5
        else:
            raise NumericError(
                f"Newton line search stalled at residual {norm:.3e}",
                achieved=norm,
            )
    if norm <= tol:
        return NeckParams(a)
    raise NumericError(
        f"Newton did not reach tol {tol:.3e} within {_NEWTON_MAX_ITER} "
        f"iterations, residual {norm:.3e}",
        achieved=norm,
    )


def _half_phases(p: NeckParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """phi_k / 2 = psi_k(0), the phase at the neck waist."""
    return np.array(angles_from_a(p, tol).phi) / 2.0


def _integrands(p: NeckParams) -> list:
    """The m angle integrands of the neck, built once per neck."""
    coeffs = _poly_coeffs(p.a)
    return [_integrand(coeffs, ak) for ak in p.a]


def _phases_at(
    p: NeckParams, y: float, half: np.ndarray, integrands: list
) -> np.ndarray:
    """psi_k(y) = phi_k/2 + a_k int_0^y (signed for negative y), with the
    integrands from :func:`_integrands`."""
    out = np.empty(p.m)
    for k, (ak, f) in enumerate(zip(p.a, integrands)):
        val, _ = _quad(f, 0.0, y, epsabs=1e-13, epsrel=1e-13)
        out[k] = half[k] + ak * val
    return out


def _radii_at(p: NeckParams, y: float) -> np.ndarray:
    return np.sqrt(1.0 / np.array(p.a) + y * y)


def neck_point(p: NeckParams, y: float, x) -> np.ndarray:
    """Point (z_1(y) x_1, ..., z_m(y) x_m) of the neck.

    ``x`` must be a unit vector in R^m; ``z_k(y)`` has modulus
    sqrt(1/a_k + y^2) and phase psi_k(y) increasing from 0 at y -> -inf
    to phi_k at y -> +inf.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (p.m,):
        raise InputError(f"direction must have shape ({p.m},), got {x.shape}")
    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
        raise InputError(f"direction must be a unit vector, |x| = {np.linalg.norm(x)}")
    psi = _phases_at(p, y, _half_phases(p), _integrands(p))
    z = _radii_at(p, y) * np.exp(1j * psi)
    return z * x


def _omega_residual(frame: np.ndarray) -> float:
    """Largest |omega(v_i, v_j)| / (|v_i| |v_j|) over frame columns."""
    norms = np.linalg.norm(frame, axis=0)
    gram = frame.conj().T @ frame
    om = np.abs(np.imag(gram)) / np.outer(norms, norms)
    return float(np.max(om))


def _phase_residual(frame: np.ndarray) -> float:
    """|Im det| / |det| of the complex frame matrix."""
    det = np.linalg.det(frame)
    mag = abs(det)
    scale = float(np.prod(np.linalg.norm(frame, axis=0)))
    if mag < 1e-12 * scale:
        raise NumericError(
            f"degenerate tangent frame: |det| = {mag:.3e} vs scale {scale:.3e}",
            achieved=mag,
        )
    return float(abs(det.imag) / mag)


def _sphere_tangent_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space of the unit sphere at x,
    via the Householder reflection exchanging e_1 and x."""
    m = x.size
    v = x.copy()
    v[0] += 1.0 if v[0] >= 0 else -1.0
    v /= np.linalg.norm(v)
    h = np.eye(m) - 2.0 * np.outer(v, v)
    return h[:, 1:]


def verify_sl_neck(
    p: NeckParams, sample_count: int = 1000, h: float = DEFAULT_FD_STEP
) -> SLResidual:
    """Residuals of the special Lagrangian conditions on sampled necks.

    At each sampled (y, x) a tangent frame is built by symmetric finite
    differences of :func:`neck_point` in y and along sphere tangent
    directions at x; the symplectic form is evaluated on every frame
    2-plane and the volume-form phase on the full frame.
    """
    if sample_count < 1:
        raise InputError("sample_count must be >= 1")
    if not (h > 0):
        raise InputError("finite-difference step must be positive")
    m = p.m
    integrands = _integrands(p)
    half = _half_phases(p)
    a_arr = np.array(p.a)
    rng = np.random.default_rng(20250821)
    max_om = 0.0
    max_ph = 0.0
    for _ in range(sample_count):
        y = rng.uniform(-1.5, 1.5)
        x = rng.normal(size=m)
        x /= np.linalg.norm(x)

        psi = _phases_at(p, y, half, integrands)
        z = _radii_at(p, y) * np.exp(1j * psi)
        # phase increments over [y, y +- h] keep the 1/h amplification of
        # quadrature noise out of the derivative
        dplus = np.empty(m)
        dminus = np.empty(m)
        for k, (ak, f) in enumerate(zip(p.a, integrands)):
            vp, _ = _quad(f, y, y + h, epsabs=1e-14, epsrel=1e-13)
            vm, _ = _quad(f, y, y - h, epsabs=1e-14, epsrel=1e-13)
            dplus[k] = ak * vp
            dminus[k] = ak * vm
        zp = np.sqrt(1.0 / a_arr + (y + h) ** 2) * np.exp(1j * (psi + dplus))
        zm = np.sqrt(1.0 / a_arr + (y - h) ** 2) * np.exp(1j * (psi + dminus))

        frame = np.empty((m, m), dtype=complex)
        frame[:, 0] = (zp - zm) * x / (2.0 * h)
        taus = _sphere_tangent_basis(x)
        for j in range(m - 1):
            xp = x + h * taus[:, j]
            xp /= np.linalg.norm(xp)
            xm = x - h * taus[:, j]
            xm /= np.linalg.norm(xm)
            frame[:, j + 1] = z * (xp - xm) / (2.0 * h)

        max_om = max(max_om, _omega_residual(frame))
        max_ph = max(max_ph, _phase_residual(frame))
    return SLResidual(max_om, max_ph)


def verify_sl_hl_cone(m: int, sample_count: int = 1000) -> SLResidual:
    """Residuals of the SL conditions on the torus cone, with analytic
    tangent vectors.

    The cone is sampled through its torus-orbit parametrization
    r * e^(i gamma) * (e^(i t_1), ..., e^(i t_{m-1}), e^(-i(t_1+...+t_{m-1}))) / sqrt(m)
    with the overall phase gamma chosen so that the defining condition
    i^(m+1) z_1 ... z_m >= 0 holds exactly.
    """
    if m < 3:
        raise InputError(f"dimension m must be >= 3, got {m}")
    if sample_count < 1:
        raise InputError("sample_count must be >= 1")
    gamma = -(m + 1) * math.pi / (2.0 * m)
    phase = complex(math.cos(gamma), math.sin(gamma))
    rng = np.random.default_rng(20250821)
    max_om = 0.0
    max_ph = 0.0
    for _ in range(sample_count):
        r = rng.uniform(0.5, 2.0)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=m - 1)
        angles = np.append(theta, -np.sum(theta))
        point = r * phase * np.exp(1j * angles) / math.sqrt(m)

        frame = np.empty((m, m), dtype=complex)
        frame[:, 0] = point / r
        for j in range(m - 1):
            col = np.zeros(m, dtype=complex)
            col[j] = 1j * point[j]
            col[m - 1] = -1j * point[m - 1]
            frame[:, j + 1] = col

        max_om = max(max_om, _omega_residual(frame))
        max_ph = max(max_ph, _phase_residual(frame))
    return SLResidual(max_om, max_ph)


def z_invariant(spec: AngleSpec) -> tuple:
    """The pair (A, -A): pairing of the neck's codimension-one invariant
    with the two ends, in the natural coordinates."""
    return (spec.A, -spec.A)
