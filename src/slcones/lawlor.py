"""Lawlor-neck numerics on flat complex m-space.

A neck is determined by m positive parameters a_1..a_m.  Its asymptotic
data are m angles phi_k in (0, pi) summing to pi together with an area
parameter A, and the two descriptions are in bijection:

    phi_k = a_k * integral dx / ((1 + a_k x^2) sqrt(P(x))),  over all x,
    A     = omega_m * (a_1 ... a_m)^(-1/2),

where P(x) = (prod_k (1 + a_k x^2) - 1) / x^2 and omega_m is the
(m-1)-volume of the unit sphere in R^m.

The neck joins two planes.  Write Pi^phi for the plane of the points
(e^(i phi_1) x_1, ..., e^(i phi_m) x_m), x in R^m.  As y -> -inf the
neck approaches Pi^0 = R^m, and as y -> +inf it approaches Pi^phi, at
rate 2 - m: the distance of neck_point(p, y, x) from its end plane is
|x| |y|^(1-m) / (m sqrt(a_1 ... a_m)) to leading order.  Pi^phi is
oriented by the frame diag(e^(i phi_k)) with its last column negated,
which is special unitary because the phi_k sum to pi; this is the frame
:func:`slcones.planes.phi_frame` builds for a pair of type 1.

This module computes both directions of the bijection with certified
quadrature error, evaluates the neck parametrization itself, and
numerically verifies the special Lagrangian conditions (the symplectic
form and the imaginary part of the holomorphic volume form both
restrict to zero) for the neck and for the torus cone it desingularizes.

P(x) is always evaluated through its polynomial coefficients in x^2
(the elementary symmetric polynomials of the a_k), never as the raw
product quotient: the series form is exact at x = 0 where the quotient
is 0/0, with P(0) = a_1 + ... + a_m.  The integrand Horner-evaluates P
in straight-line code that is compiled once per m and then reused for
every neck of that dimension.  The angle integrals of one forward map,
or of one Newton residual, share one table from quadrature node x to
sqrt(P(x)): quad visits largely the same nodes for every a_k, and P is
evaluated once per node.  The table lives for that call only, and
every integral keeps the bits of an unshared integrand.

The angle maps integrate by QUADPACK's qagie, the C routine that
``scipy.integrate.quad`` runs on [0, inf), called through its private
entry point ``scipy.integrate._quadpack._qagie``.  Only that extension
is loaded, from its file, at the first quadrature: importing the
``scipy.integrate`` package would also load ``scipy.special``,
``scipy.optimize``, ``scipy.sparse`` and ``scipy.linalg``, 0.4-0.5 s
of a cold start that computes in milliseconds.  Every angle and error
estimate keeps the public quad's bits, which
``tests/test_lawlor.py::TestPrivateQuadpack`` pins; ROADMAP item 2
deletes the entry point when the angle maps move onto the panel rule
below.

The neck and its check call no scipy.  Their tangents are analytic:
d/dy of z_k(y) is (y / r_k + i r_k a_k f_k(y)) e^(i psi_k(y)) with f_k
the angle integrand in closed form, and the sphere directions are an
exact Householder basis.  The phases psi_k(y), the waist psi_k(0) =
phi_k / 2 included, come from one pass of a fixed 10-point
Gauss-Legendre rule over panels narrower than a quarter of
max(1 / sqrt(a_1 + ... + a_m), t), which keeps them clear of the poles
and branch points of f_k.  The samples
come from two seeded streams and are checked in blocks of at most 2^16
array entries, with one batched Gram product and one batched det.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from ._tolerances import LAWLOR_TOL as DEFAULT_TOL
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
#: residual bounds the verification suites assert against; the neck's
#: waist phases are guarded to (m/2) * LAWLOR_TOL, and the rest is rounding
HL_CONE_RESIDUAL_BOUND = 1e-10
NECK_RESIDUAL_BOUND = 1e-9
#: Newton iteration cap and positivity floor for the inverse map
_NEWTON_MAX_ITER = 60
_POSITIVITY_EPS = 1e-12
#: absolute accuracy each quad of the uncertified Newton residual asks
#: for (and the relative accuracy of every quad): the least tol the
#: inverse accepts
_RESIDUAL_QUAD_ACC = 1e-13

_QUAD_LIMIT = 200

#: seed of the two sample streams of both SL checks
_SAMPLE_SEED = 20250821
#: array entries per sample block of the SL checks, bounding their memory
_BLOCK_ENTRIES = 2**16
#: Gauss-Legendre points per panel of the partial phases, and the largest
#: panel width as a fraction of max(1 / sqrt(a_1 + ... + a_m), t)
_GL_POINTS = 10
_PANEL_FRACTION = 0.25


@functools.lru_cache(maxsize=None)
def _quadpack():
    """scipy's QUADPACK extension ``scipy.integrate._quadpack``, loaded at
    the first quadrature rather than at import.

    It is loaded from its file alone: ``importlib.util.find_spec`` locates
    the scipy package without importing it, and ``PathFinder`` finds the
    extension in its ``integrate`` directory, so the ``scipy.integrate``
    package, and with it ``scipy.special``, ``scipy.optimize``,
    ``scipy.sparse`` and ``scipy.linalg``, is never imported.  The module
    is registered under its own name in ``sys.modules``, and one already
    there, after a caller's ``import scipy.integrate``, is reused, so
    ``scipy.integrate.quad`` and this module share one module object
    whichever comes first.
    """
    name = "scipy.integrate._quadpack"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(path, "integrate") for path in scipy.submodule_search_locations])
        if spec is None:
            raise ModuleNotFoundError(f"the Lawlor angle maps need scipy's {name}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def _quad(f, epsabs: float, epsrel: float):
    """QUADPACK's qagie quadrature of f over [0, inf), as (value, error).

    This is the C routine that ``scipy.integrate.quad`` dispatches to for
    [0, inf), called with quad's own arguments (bound 0.0, inf flag 1, no
    extra args) but without its Python wrapper, which costs the
    ``scipy.integrate`` import (see :func:`_quadpack`) and, with
    ``full_output``, an info dict per call.  It returns quad's bits
    (``tests/test_lawlor.py::TestPrivateQuadpack``), also where QUADPACK
    reports a failure (ier != 0), which neither raises nor warns here:
    :func:`angles_from_a` certifies every angle from the error estimate,
    and the Newton residual of :func:`a_from_angles` is uncertified by
    design and guarded by its line search.  ROADMAP item 2 deletes this
    entry point.
    """
    return _quadpack()._qagie(f, 0.0, 1, (), 0, epsabs, epsrel, _QUAD_LIMIT)[:2]


def sphere_area(m: int) -> float:
    """(m-1)-dimensional volume of the unit sphere in R^m.

    From m = 344 on, Gamma(m/2) passes the float range and the area is
    formed from log Gamma instead; it underflows to 0.0 from m = 456.
    """
    m = as_int(m, "dimension m", least=1)
    try:
        return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
    except OverflowError:
        if m > 1000:  # the area is 0.0 in floats, and m / 2.0 may overflow too
            return 0.0
        return math.exp(math.log(2.0) + m / 2.0 * math.log(math.pi) - math.lgamma(m / 2.0))


class NeckParams(NamedTuple("NeckParams", [("a", tuple)])):
    """The m = len(a) positive neck parameters a_1..a_m."""

    __slots__ = ()

    def __new__(cls, a):
        a = tuple(as_positive(x, "neck parameter a_k") for x in as_tuple(a, "neck parameters"))
        if len(a) < 3:
            raise InputError(f"need at least 3 parameters, got {len(a)}")
        return tuple.__new__(cls, (a,))

    _replace = checked_replace

    @property
    def m(self) -> int:
        return len(self.a)


class AngleSpec(NamedTuple("AngleSpec", [("phi", tuple), ("A", float), ("sum_tol", float)])):
    """Asymptotic angles phi_1..phi_m, m = len(phi) (each in (0, pi),
    summing to pi within ``sum_tol``), and the positive area parameter A."""

    __slots__ = ()

    def __new__(cls, phi, A, sum_tol: float = ANGLE_SUM_TOL):
        phi = tuple(as_finite(x, "angle phi_k") for x in as_tuple(phi, "angles"))
        A = as_positive(A, "area parameter A")
        sum_tol = as_positive(sum_tol, "angle sum tolerance")
        if len(phi) < 3:
            raise InputError(f"need at least 3 angles, got {len(phi)}")
        if any(not 0.0 < x < math.pi for x in phi):
            raise InputError(f"angles must lie strictly inside (0, pi): {phi}")
        if abs(sum(phi) - math.pi) > sum_tol:
            raise InputError(
                f"angles must sum to pi within {sum_tol}, "
                f"got sum deviation {sum(phi) - math.pi:.3e}"
            )
        return tuple.__new__(cls, (phi, A, sum_tol))

    _replace = checked_replace

    @property
    def m(self) -> int:
        return len(self.phi)


class SLResidual(NamedTuple):
    """Sup of |omega| over sampled tangent 2-planes and sup of the
    normalized imaginary part of the holomorphic volume form on sampled
    tangent frames."""

    max_omega_residual: float
    max_phase_residual: float


def _poly_coeffs(a) -> list:
    """Coefficients c_0..c_{m-1} of P(x) = sum_j c_j x^(2j), as floats.

    c_j is the (j+1)-st elementary symmetric polynomial of the a_k, so
    every coefficient is positive and P > 0 on all of R.  The product
    prod_k (1 + a_k x^2) is expanded one factor at a time, each new
    coefficient as ``c[i] + c[i-1] * a_k``.
    """
    c = [1.0]
    for ak in a:
        c = [1.0, *(c[i] + c[i - 1] * ak for i in range(1, len(c))), c[-1] * ak]
    return c[1:]  # drop the constant 1 of the product; c[0] = sum(a)


@functools.lru_cache(maxsize=None)
def _integrand_maker(n: int):
    """Compile the maker of the integrands for n >= 2 coefficients.

    The generated ``make(c0, ..., c{n-1}, sqrt, table)`` returns the pair
    ``(filling, reading)`` of :func:`_integrands`, with c0 the top
    coefficient of P.  Both integrands run the same Horner statements;
    the reading one runs them only where ``table.get(x)`` finds nothing.
    Only names enter the source; the values arrive as arguments.
    """
    horner = [
        "u = x * x",
        "v = c0 * u + c1",
        *(f"v = v * u + c{j}" for j in range(2, n)),
        "s = table[x] = sqrt(v)",
    ]
    src = (
        f"def make({', '.join(f'c{j}' for j in range(n))}, sqrt, table):\n"
        "    get = table.get\n"
        "    def filling(ak):\n"
        "        def f(x):\n"
        + "".join(f"            {line}\n" for line in horner)
        + "            return 1.0 / ((1.0 + ak * x * x) * s)\n"
        "        return f\n"
        "    def reading(ak):\n"
        "        def f(x):\n"
        "            s = get(x)\n"
        "            if s is None:\n"
        + "".join(f"                {line}\n" for line in horner)
        + "            return 1.0 / ((1.0 + ak * x * x) * s)\n"
        "        return f\n"
        "    return filling, reading\n"
    )
    namespace = {}
    exec(compile(src, f"<lawlor integrand, {n} coefficients>", "exec"), namespace)
    return namespace["make"]


def _integrands(coeffs):
    """The makers ``(filling, reading)`` of the angle integrands
    1 / ((1 + a_k x^2) sqrt(P(x))) of one P, sharing one new table, a
    dict from node x to sqrt(P(x)).

    ``filling(ak)`` computes sqrt(P(x)) at every call and stores it in the
    table; ``reading(ak)`` takes it from the table and computes and stores
    it only where x is missing.  The first integral of a P fills the
    table, since quad evaluates no node twice within one integral, and
    the others read it: all the angles of one neck integrate over nodes
    that largely coincide.  Both return the same float for the same x, so
    the sharing changes no bit of any integral.

    quad calls the integrands tens of thousands of times per inverse map,
    so they work on Python floats only, and their bodies are straight-line
    code compiled once per coefficient count by :func:`_integrand_maker`:
    Horner in x^2 from the top coefficient down, one statement per step,
    with ``ak * x * x`` kept as ``(ak * x) * x`` (reusing ``u`` there would
    round differently).

    This is bit-identical to the loop ``v = 0.0; for c in reversed
    coeffs: v = v * u + c``: the statements are the loop's IEEE
    operations in the loop's order, except that the loop's first step
    ``0.0 * u + c_top`` becomes ``c_top``, which is equal whenever u is
    finite: on [0, inf) with the subdivision limit of 200, quad's nodes
    stay below about 1e60, and u overflows only past |x| ~ 1.3e154,
    where the loop gave NaN and this form gives the limit 0.  The steps
    are statements rather than one nested expression because the parser
    rejects more than 200 nested parentheses, and m is unbounded.
    """
    make = _integrand_maker(len(coeffs))
    return make(*map(float, reversed(coeffs)), math.sqrt, {})


def _angles(coeffs, a, tol: float | None = None) -> list:
    """(phi_k, quad's error estimate of phi_k) for every a_k of ``a``.

    phi_k = 2 a_k int_0^inf f_k by evenness.  quad is asked for absolute
    error tol / (4 a_k) on the half integral, that is tol / 2 on phi_k,
    or for :data:`_RESIDUAL_QUAD_ACC` when ``tol`` is None: the
    uncertified Newton residual.
    ``coeffs`` are those of P, so ``a`` may be the first m-1 parameters
    alone.  Parameters with equal a_k share one integrand, and quad is
    deterministic, so each distinct a_k is integrated once and its angle
    reused; every inverse starts from the symmetric point, where all the
    a_k are equal.  The integrals of one call share one table of
    sqrt(P(x)) (see :func:`_integrands`), which lives for this call only:
    a table kept across calls would hold the nodes of a P that is not
    asked for again.
    """
    filling, reading = _integrands(coeffs)
    done = {}
    out = []
    for ak in map(float, a):
        if ak not in done:
            epsabs = _RESIDUAL_QUAD_ACC if tol is None else tol / (4.0 * ak)
            val, err = _quad((reading if done else filling)(ak), epsabs, _RESIDUAL_QUAD_ACC)
            done[ak] = (2.0 * ak * val, 2.0 * ak * err)
        out.append(done[ak])
    return out


def angles_from_a(p: NeckParams, tol: float = DEFAULT_TOL) -> AngleSpec:
    """Forward map (a_1..a_m) -> (phi_1..phi_m, A).

    Each angle is computed by adaptive quadrature with certified
    absolute error at most ``tol``, so the angle sum is within m*tol of
    pi.  ``tol`` must be a finite positive number, and m*tol finite
    too, else :class:`InputError` names it.  Raises
    :class:`NumericError` with the achieved bound if the quadrature cannot
    certify ``tol``, and when the product of the a_k, and with it A,
    leaves the float range.
    """
    tol = as_positive(tol, "tol")
    sum_tol = max(p.m * tol, 1e-14)
    if sum_tol == math.inf:
        raise InputError(f"tol = {tol} is too large: m * tol overflows at m = {p.m}")
    angles = _angles(_poly_coeffs(p.a), p.a, tol)
    for ak, (_, achieved) in zip(p.a, angles):
        if achieved > tol:
            raise NumericError(
                f"quadrature certified only {achieved:.3e} > tol {tol:.3e} "
                f"for a_k = {ak}",
                achieved=achieved,
            )
    phi = [angle for angle, _ in angles]
    # a certified quadrature can still return garbage at extreme ratios
    # of the a_k; that is a numeric failure, not a bad AngleSpec input
    dev = abs(sum(phi) - math.pi)
    if any(not 0.0 < x < math.pi for x in phi) or dev > sum_tol:
        raise NumericError(
            f"quadrature angles {tuple(phi)} are not inside (0, pi) with "
            f"sum pi within {sum_tol:.3e}: sum deviation {dev:.3e}",
            achieved=dev,
        )
    prod = math.prod(p.a)
    if not 0.0 < prod < math.inf:
        raise NumericError(f"prod(a) = {prod} leaves the float range, so A cannot be formed")
    A = sphere_area(p.m) / math.sqrt(prod)
    if A == 0.0:
        raise NumericError(f"A underflows at m = {p.m}, prod(a) = {prod}")
    # phi, A and sum_tol passed AngleSpec's checks above
    return AngleSpec._make((tuple(phi), A, sum_tol))


def a_from_angles(spec: AngleSpec, tol: float = DEFAULT_TOL) -> NeckParams:
    """Inverse map (phi, A) -> a by damped Newton iteration.

    The residual stacks the first m-1 angle equations (the last angle is
    determined by the sum identity) with the logarithm of the area
    equation.  Iteration starts from the symmetric point scaled so the
    area equation holds exactly, takes damped Newton steps with the
    positivity projection a_k <- max(a_k, eps), and stops when the
    residual drops below ``tol``, which must be a finite positive number.
    Raises :class:`NumericError` where the unit sphere's area underflows,
    and before any residual when ``tol`` is below the residual's
    quadrature accuracy :data:`_RESIDUAL_QUAD_ACC`, which no residual
    can certify.
    """
    tol = as_positive(tol, "tol")
    if tol < _RESIDUAL_QUAD_ACC:
        raise NumericError(
            f"tol {tol:.3e} is below the {_RESIDUAL_QUAD_ACC:.0e} accuracy "
            "of the Newton residual's quadrature",
            achieved=_RESIDUAL_QUAD_ACC,
        )
    m = spec.m
    phi_target = np.array(spec.phi[: m - 1])
    logA_target = math.log(spec.A)
    om = sphere_area(m)
    if om == 0.0:
        raise NumericError(f"the unit sphere's area underflows at m = {m}")

    # symmetric start satisfying A = omega_m (prod a)^(-1/2)
    s0 = (om / spec.A) ** (2.0 / m)
    a = np.full(m, s0)

    def residual(avec: np.ndarray) -> np.ndarray:
        ang = np.array([angle for angle, _ in _angles(_poly_coeffs(avec), avec[: m - 1])])
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


@functools.lru_cache(maxsize=None)
def _gauss_legendre():
    """The fixed Gauss-Legendre rule on [0, 1] as (nodes, weights), built
    at the first partial phase rather than at import."""
    x, w = np.polynomial.legendre.leggauss(_GL_POINTS)
    rule = (x + 1.0) / 2.0, w / 2.0
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _angle_integrands(coeffs, a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """f_k(t) = 1 / ((1 + a_k t^2) sqrt(P(t))) for every entry of ``t``,
    with k on a new last axis; P is Horner-evaluated in t^2.

    For huge t, t^2 or P overflows to inf and f_k becomes 0, the limit
    that the scalar integrand also gives; the overflow is not warned about.
    """
    with np.errstate(over="ignore"):
        u = t * t
        v = np.full_like(u, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            v = v * u + c
        return 1.0 / ((1.0 + a * u[..., None]) * np.sqrt(v)[..., None])


def _partial_phases(p: NeckParams, y: np.ndarray) -> np.ndarray:
    """psi_k(y) = psi_k(0) + sign(y) a_k int_0^|y| f_k for every y, as an
    array of shape (len(y), m).

    All the integrals come from one pass of the fixed Gauss-Legendre rule
    over a grid of panels that depends on p alone.  The waist phases
    psi_k(0) = phi_k / 2 sum its panels up to X: P(x) >= (prod a)
    x^(2(m-1)), so the tail a_k int_X^inf f_k <= 1 / (m sqrt(prod a) X^m)
    is 2^-53.  Up to max |y| the grid is also cut at every |y|, and those
    panel sums are added up outward from 0.  No panel is wider
    than _PANEL_FRACTION * max(s, t), with t its left end and
    s = 1 / sqrt(a_1 + ... + a_m).  That keeps the rule's Bernstein
    ellipse clear of every singularity of f_k: the poles sit at
    +-i / sqrt(a_k), and a branch point x of sqrt(P) has x^2 = w with
    prod_k (1 + a_k w) = 1.  Every such w has Re w < 0 (otherwise each
    factor has modulus > 1), so |arg x| lies in (pi/4, 3pi/4), and
    |w| >= min(1 / (2 max a), 4.5 / sum a), so every singularity lies at
    least max(s / 2, t / sqrt(2)) from the panel.  Raises
    :class:`NumericError` where a coefficient of P leaves the float range
    or the waist fails the angle check of :func:`angles_from_a`.
    """
    a = np.array(p.a)
    coeffs = _poly_coeffs(p.a)
    if not 0.0 < min(coeffs) <= max(coeffs) < math.inf:
        raise NumericError(f"a coefficient of P leaves the float range at a = {p.a}")
    s = np.abs(y)
    X = math.exp((53 * math.log(2) - math.log(p.m) - math.fsum(map(math.log, p.a)) / 2) / p.m)
    top = max(X, float(s.max()))
    scale = 1.0 / math.sqrt(coeffs[0])
    grid = [0.0]
    while grid[-1] < top:
        grid.append(min(top, grid[-1] + _PANEL_FRACTION * max(scale, grid[-1])))
    grid = np.array(grid)
    waist = np.append(grid[grid < X], X)
    ends = np.sort(np.concatenate([grid[grid < s.max()], s]))
    lefts = np.concatenate([waist[:-1], ends[:-1]])
    width = np.concatenate([np.diff(waist), np.diff(ends)])
    nodes, weights = _gauss_legendre()
    f = _angle_integrands(coeffs, a, lefts[:, None] + width[:, None] * nodes)
    panels = np.einsum("pnk,n->pk", f, weights) * width[:, None]
    n = len(waist) - 1
    phi = 2.0 * a * np.sum(panels[:n], axis=0)
    dev = abs(math.fsum(phi) - math.pi)
    if not (all(0.0 < x < math.pi for x in phi) and dev <= p.m * DEFAULT_TOL):
        raise NumericError(f"waist angles {phi.tolist()} are not inside (0, pi) with sum "
                           f"pi within {p.m * DEFAULT_TOL:.3e}: deviation {dev:.3e}", achieved=dev)
    cumulative = np.concatenate([np.zeros((1, p.m)), np.cumsum(panels[n:], axis=0)])
    return phi / 2.0 + np.sign(y)[:, None] * a * cumulative[np.searchsorted(ends, s)]


def neck_point(p: NeckParams, y: float, x) -> np.ndarray:
    """Point (z_1(y) x_1, ..., z_m(y) x_m) of the neck.

    ``x`` must be a unit vector in R^m; ``z_k(y)`` has modulus
    sqrt(1/a_k + y^2) and phase psi_k(y) increasing from 0 at y -> -inf
    to phi_k at y -> +inf.
    """
    y = as_finite(y, "y")
    x = np.array([as_finite(v, "direction entry") for v in as_tuple(x, "direction")])
    if x.shape != (p.m,):
        raise InputError(f"direction must have shape ({p.m},), got {x.shape}")
    if abs(math.hypot(*x) - 1.0) > 1e-9:
        raise InputError(f"direction must be a unit vector, |x| = {math.hypot(*x)}")
    psi = _partial_phases(p, np.array([y]))[0]
    z = np.hypot(1.0 / np.sqrt(p.a), y) * np.exp(1j * psi)
    return z * x


def _sample_blocks(m: int, sample_count: int):
    """The streams of a check's scalar and vector coordinates, seeded
    [_SAMPLE_SEED, 0] and [_SAMPLE_SEED, 1], with each block's size: at
    least one sample, and at most _BLOCK_ENTRIES entries in its largest
    array, m^2 per sample in a frame and _GL_POINTS * m in the phase
    pass.  Drawn in order, the samples do not depend on the block size."""
    block = max(1, _BLOCK_ENTRIES // (m * max(m, _GL_POINTS)))
    scalars, vectors = (np.random.default_rng([_SAMPLE_SEED, i]) for i in (0, 1))
    for start in range(0, sample_count, block):
        yield scalars, vectors, min(block, sample_count - start)


def _neck_samples(m: int, sample_count: int):
    """Blocks (y, x) of the neck check: y uniform in [-1.5, 1.5], x a unit
    vector normalized from a standard normal draw."""
    for ys, xs, n in _sample_blocks(m, sample_count):
        x = xs.normal(size=(n, m))
        yield ys.uniform(-1.5, 1.5, size=n), x / np.linalg.norm(x, axis=1)[:, None]


def _sphere_tangent_bases(x: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the tangent spaces of the unit sphere at the
    rows of x, as an (N, m, m-1) stack: the Householder reflection
    exchanging e_1 and x, without its first column."""
    v = x.copy()
    v[:, 0] += np.where(v[:, 0] >= 0, 1.0, -1.0)
    v /= np.linalg.norm(v, axis=1)[:, None]
    return np.eye(x.shape[1])[:, 1:] - 2.0 * v[:, :, None] * v[:, None, 1:]


def _max_residuals(frames: np.ndarray) -> tuple:
    """Over a stack of complex frames (N, m, m): the largest
    |omega(v_i, v_j)| / (|v_i| |v_j|) over frame columns, from one batched
    Gram product, and the largest |Im det| / |det|, from one batched det
    of the frames with unit rows: positive row scales, such as a neck's
    r_k = sqrt(1/a_k + y^2), leave arg det unchanged.  A frame is
    degenerate where that det is NaN or below 1e-12 times the product of
    its unit-row column norms.

    Each frame is first divided by the power of two just above its
    largest entry, so that rows as long as 1e155 (a subnormal a_k) square
    inside the float range.  The division is exact, and both ratios keep
    every bit, wherever no entry or product of two entries falls below
    the normal floats."""
    _, exponent = np.frexp(np.max(np.abs(frames), axis=(1, 2)))
    frames = frames * np.ldexp(1.0, -exponent)[:, None, None]
    gram = frames.conj().transpose(0, 2, 1) @ frames
    norms = np.sqrt(np.diagonal(gram, axis1=1, axis2=2).real)
    unit = frames / np.linalg.norm(frames, axis=2, keepdims=True)
    det = np.linalg.det(unit)
    mag = np.abs(det)
    scale = np.prod(np.linalg.norm(unit, axis=1), axis=1)
    degenerate = ~(mag >= 1e-12 * scale)  # NaN counts as degenerate
    if degenerate.any():
        i = int(np.argmax(degenerate))
        raise NumericError(
            f"degenerate tangent frame: |det| = {mag[i]:.3e} vs scale {scale[i]:.3e}",
            achieved=float(mag[i]),
        )
    omega = np.abs(gram.imag) / (norms[:, :, None] * norms[:, None, :])
    return float(np.max(omega)), float(np.max(np.abs(det.imag) / mag))


def verify_sl_neck(p: NeckParams, sample_count: int = 1000) -> SLResidual:
    """Residuals of the special Lagrangian conditions on sampled necks.

    At each sampled (y, x) the tangent frame is analytic: its first
    column is dz/dy = (y / r_k + i r_k a_k f_k(y)) e^(i psi_k(y)) x_k,
    with f_k in closed form, and the others are z(y) * tau_j for the
    sphere tangent basis tau_j at x.  The phases psi_k come from
    :func:`_partial_phases`, waist included.  The symplectic form is
    evaluated on every frame 2-plane and the volume-form phase on the
    row-normalised frame, whose arg det is the frame's.  y and x come
    from two seeded streams, drawn once per block of at most
    _BLOCK_ENTRIES array entries, so memory stays bounded for any m and
    ``sample_count`` (an integer >= 1).  The waist's check allows a
    phase residual of (m/2) * LAWLOR_TOL; the rest is rounding.
    """
    sample_count = as_int(sample_count, "sample_count", least=1)
    m = p.m
    a = np.array(p.a)
    coeffs = _poly_coeffs(p.a)
    max_om = max_ph = 0.0
    for y, x in _neck_samples(m, sample_count):
        r = np.hypot(1.0 / np.sqrt(a), y[:, None])
        rot = np.exp(1j * _partial_phases(p, y))
        dz = (y[:, None] / r + 1j * r * a * _angle_integrands(coeffs, a, y)) * rot
        frames = np.empty((len(y), m, m), dtype=complex)
        frames[:, :, 0] = dz * x
        frames[:, :, 1:] = (r * rot)[:, :, None] * _sphere_tangent_bases(x)
        om, ph = _max_residuals(frames)
        max_om, max_ph = max(max_om, om), max(max_ph, ph)
    return SLResidual(max_om, max_ph)


def verify_sl_hl_cone(m: int, sample_count: int = 1000) -> SLResidual:
    """Residuals of the SL conditions on the torus cone, with analytic
    tangent vectors.

    The cone is sampled through its torus-orbit parametrization
    r * e^(i gamma) * (e^(i t_1), ..., e^(i t_{m-1}), e^(-i(t_1+...+t_{m-1}))) / sqrt(m)
    with the overall phase gamma chosen so that the defining condition
    i^(m+1) z_1 ... z_m >= 0 holds exactly.  r and the t_j come from two
    seeded streams, and the frames are checked in blocks, as in
    :func:`verify_sl_neck`.
    """
    m = as_int(m, "dimension m", least=3)
    sample_count = as_int(sample_count, "sample_count", least=1)
    try:
        torus = np.arange(m - 1)
    except ValueError:  # m past numpy's largest size
        raise InputError(f"dimension m = {shown(m)} is too large for an array") from None
    gamma = -(m + 1) * math.pi / (2.0 * m)
    phase = complex(math.cos(gamma), math.sin(gamma))
    max_om = max_ph = 0.0
    for rs, ts, n in _sample_blocks(m, sample_count):
        r = rs.uniform(0.5, 2.0, size=n)
        theta = ts.uniform(0.0, 2.0 * math.pi, size=(n, m - 1))
        angles = np.concatenate([theta, -np.sum(theta, axis=1, keepdims=True)], axis=1)
        points = (r * phase)[:, None] * np.exp(1j * angles) / math.sqrt(m)
        frames = np.zeros((len(r), m, m), dtype=complex)
        frames[:, :, 0] = points / r[:, None]
        frames[:, torus, torus + 1] = 1j * points[:, :-1]
        frames[:, m - 1, 1:] = -1j * points[:, m - 1 :]
        om, ph = _max_residuals(frames)
        max_om, max_ph = max(max_om, om), max(max_ph, ph)
    return SLResidual(max_om, max_ph)


def z_invariant(spec: AngleSpec) -> tuple:
    """The pair (A, -A): pairing of the neck's codimension-one invariant
    with the two ends, in the natural coordinates."""
    return (spec.A, -spec.A)
