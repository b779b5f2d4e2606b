"""Laplace spectrum of the flat torus link of the Harvey-Lawson
U(1)^(m-1)-invariant cone, homogeneity exponents, and the cone's
stability index.

The link is a flat (m-1)-torus whose Laplace eigenvalues are indexed by
integer vectors n with eigenvalue Q(n) = m*sum(n_i^2) - (sum n_i)^2.
From the eigenvalue table the module derives the exponent set (both
roots of alpha*(alpha+m-2) = lambda), the counting function ``n_sigma``,
and the stability/rigidity report for each dimension m.

Multiplicities come from one exact int64 dynamic program over the joint
distribution of (s, t) = (sum n_i, sum n_i^2): Q depends on n only
through (s, t), and because (sum n_i)^2 <= (m-1)*sum(n_i^2)
(Cauchy-Schwarz), Q(n) >= ||n||^2, so the ball ||n||^2 <= cutoff holds
every vector that can matter.  The digit-sum axis is banded to
|s| <= min((m-1)*isqrt(cutoff), cutoff): every kept state has
|s| <= sum |n_i| <= sum n_i^2 = t <= cutoff, so a step that leaves the
band has already left the ball.  The brute-force box scan and the ball
enumeration in the tests are its independent oracles.

Exponent comparisons against rational thresholds are carried out through
the exact quadratic relation (integer/Fraction arithmetic only); floats
appear purely as display approximations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import IncompleteSpectrumError, InputError, as_int

__all__ = [
    "ConeSpectrum",
    "ExponentData",
    "ExponentEntry",
    "StabilityReport",
    "hl_eigenvalue",
    "enumerate_spectrum",
    "exponents",
    "n_sigma",
    "stability_index",
]

#: largest DP work (m-1) * (2 s_max + 1) * (cutoff + 1) enumerate_spectrum
#: accepts; the table alone holds (2 s_max + 1) * (cutoff + 1) int64 cells
MAX_DP_CELLS = 2 * 10**7


def _as_exact(x, what: str) -> Fraction:
    """Coerce x to Fraction; floats convert via their exact binary value."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InputError(f"{what} must be finite, got {x!r}")
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x)
    raise InputError(f"{what} must be a real number, got {type(x).__name__}")


def hl_eigenvalue(m: int, n) -> int:
    """Eigenvalue Q(n) = m*sum(n_i^2) - (sum n_i)^2 of the lattice point n.

    n must have exactly m-1 integer entries.  Q(n) >= ||n||^2 always
    (Cauchy-Schwarz), which is what makes ball enumeration complete.
    """
    m = as_int(m, "dimension m")
    if m < 3:
        raise InputError(f"dimension m must be >= 3, got {m}")
    entries = [as_int(v, "lattice point entry") for v in n]
    if len(entries) != m - 1:
        raise InputError(
            f"lattice point needs m-1 = {m - 1} entries, got {len(entries)}"
        )
    s = sum(entries)
    t = sum(v * v for v in entries)
    return m * t - s * s


@dataclass(frozen=True)
class ConeSpectrum:
    """Eigenvalue table (lambda, multiplicity), complete up to ``cutoff``.

    ``entries`` is sorted strictly increasing in lambda.  Instances for
    the torus link come from :func:`enumerate_spectrum`; a generic link
    can be described by passing an explicit table (rational eigenvalues
    allowed).  Equal eigenvalues in a supplied table are merged by
    summing their multiplicities.
    """

    m: int
    entries: tuple  # of (eigenvalue, multiplicity)
    cutoff: Fraction

    def __init__(self, m: int, entries, cutoff):
        m = as_int(m, "dimension m")
        if m < 3:
            raise InputError(f"dimension m must be >= 3, got {m}")
        cut = _as_exact(cutoff, "cutoff")
        merged: dict[Fraction, int] = {}
        for lam, mult in entries:
            lam_e = _as_exact(lam, "eigenvalue")
            mult = as_int(mult, "multiplicity")
            if lam_e < 0:
                raise InputError(f"eigenvalues must be nonnegative, got {lam}")
            if mult <= 0:
                raise InputError(f"multiplicities must be positive, got {mult}")
            merged[lam_e] = merged.get(lam_e, 0) + mult
        table = tuple(sorted(merged.items()))
        for lam_e, _ in table:
            if lam_e > cut:
                raise InputError(
                    f"eigenvalue {lam_e} exceeds the declared cutoff {cut}"
                )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "entries", table)
        object.__setattr__(self, "cutoff", cut)

    def multiplicity(self, lam) -> int:
        lam = _as_exact(lam, "eigenvalue")
        for ev, mult in self.entries:
            if ev == lam:
                return mult
        return 0


def _dp_cells(m: int, cutoff: int) -> int:
    """DP work of :func:`_counts_dp`: m-1 layers over its banded
    (2 s_max + 1) x (cutoff + 1) table, s_max = min((m-1) * floor(sqrt(cutoff)),
    cutoff)."""
    d = m - 1
    smax = min(d * math.isqrt(cutoff), cutoff)
    return d * (2 * smax + 1) * (cutoff + 1)


def _counts_dp(m: int, cutoff: int) -> np.ndarray:
    """``counts[q]`` = exact number of lattice vectors n with Q(n) = q.

    The digit-sum axis stops at |s| <= min(d * r, cutoff): a prefix with
    square sum t <= cutoff has |s| <= sum |n_i| <= t, so any step that
    lands outside the band had t > cutoff and is dropped either way.
    """
    d = m - 1
    r = math.isqrt(cutoff)
    smax = min(d * r, cutoff)
    # ways[s + smax, t] = number of prefixes with digit sum s, square sum t
    ways = np.zeros((2 * smax + 1, cutoff + 1), dtype=np.int64)
    ways[smax, 0] = 1
    width = 2 * smax + 1
    for _ in range(d):
        new = np.zeros_like(ways)
        for v in range(-r, r + 1):
            v2 = v * v
            lo, hi = max(v, 0), max(-v, 0)
            new[lo:width - hi, v2:] += ways[hi:width - lo, : cutoff + 1 - v2]
        ways = new
    counts = np.zeros(cutoff + 1, dtype=np.int64)
    s_idx, t_idx = np.nonzero(ways)
    s = s_idx - smax
    q = m * t_idx - s * s
    keep = q <= cutoff
    np.add.at(counts, q[keep], ways[s_idx[keep], t_idx[keep]])
    return counts


def enumerate_spectrum(m: int, cutoff: int) -> ConeSpectrum:
    """Complete eigenvalue table of the torus link up to ``cutoff``.

    Enumerates the lattice ball ||n||^2 <= cutoff, which covers every
    eigenvalue <= cutoff because Q(n) >= ||n||^2.  Raises
    :class:`InputError`, before allocating anything, when the DP work
    exceeds :data:`MAX_DP_CELLS`.
    """
    m = as_int(m, "dimension m")
    if m < 3:
        raise InputError(f"dimension m must be >= 3, got {m}")
    cutoff = as_int(cutoff, "cutoff")
    if cutoff < 0:
        raise InputError(f"cutoff must be >= 0, got {cutoff}")
    cells = _dp_cells(m, cutoff)
    if cells > MAX_DP_CELLS:
        raise InputError(
            f"spectrum for m = {m}, cutoff = {cutoff} needs {cells} DP "
            f"cells, more than the limit of {MAX_DP_CELLS}"
        )
    counts = _counts_dp(m, cutoff)
    entries = [(lam, int(c)) for lam, c in enumerate(counts) if c > 0]
    return ConeSpectrum(m, entries, cutoff)


@dataclass(frozen=True)
class ExponentEntry:
    """One exponent alpha with alpha*(alpha+m-2) = lam.

    ``branch`` is +1 for the upper root, -1 for the lower; ``alpha`` is a
    float approximation only - order/threshold decisions always go back
    to (lam, branch).
    """

    alpha: float
    lam: Fraction
    branch: int
    multiplicity: int


@dataclass(frozen=True)
class ExponentData:
    """Both exponent roots for every eigenvalue of a spectrum.

    The exponents in the open interval (2-m, 0) never occur: lower roots
    sit at or below 2-m and upper roots at or above 0.
    """

    m: int
    cutoff: Fraction
    entries: tuple  # of ExponentEntry, sorted ascending by alpha

    def multiplicity_at(self, alpha) -> int:
        """Total multiplicity of the exact exponent value ``alpha``.

        ``alpha`` is interpreted as a rational and matched through the
        quadratic relation, not by float comparison.
        """
        a = _as_exact(alpha, "alpha")
        lam = a * (a + self.m - 2)
        branch = 1 if 2 * a + (self.m - 2) >= 0 else -1
        return sum(
            e.multiplicity
            for e in self.entries
            if e.lam == lam and e.branch == branch
        )


def exponents(spec: ConeSpectrum) -> ExponentData:
    """Exponent table alpha+-(lam) = (-(m-2) +- sqrt((m-2)^2+4*lam))/2."""
    m = spec.m
    c = m - 2
    out = []
    for lam, mult in spec.entries:
        disc = math.sqrt(c * c + 4 * lam)
        out.append(ExponentEntry((-c - disc) / 2, lam, -1, mult))
        out.append(ExponentEntry((-c + disc) / 2, lam, +1, mult))
    out.sort(key=lambda e: (e.alpha, e.branch))
    return ExponentData(m, spec.cutoff, tuple(out))


def n_sigma(data: ExponentData, delta) -> int:
    """Exponent counting function.

    For delta >= 0 this sums multiplicities of exponents in [0, delta];
    for delta < 0 it is minus the sum over (delta, 0).  Which eigenvalues
    can contribute is decided exactly: an upper root lies in [0, delta]
    iff lam <= delta*(delta+m-2), and a lower root lies in (delta, 0)
    iff lam < delta*(delta+m-2).  Raises when the cutoff cannot certify
    that every contributing eigenvalue is in the table.
    """
    d = _as_exact(delta, "delta")
    m = data.m
    lam_needed = d * (d + m - 2)
    if lam_needed > data.cutoff:
        raise IncompleteSpectrumError(
            f"n_sigma({delta}) needs eigenvalues up to {lam_needed} but the "
            f"table is only complete up to {data.cutoff}"
        )
    seen: dict[Fraction, int] = {}
    for e in data.entries:
        if e.branch == +1 and e.lam not in seen:
            seen[e.lam] = e.multiplicity
    if d >= 0:
        return sum(mult for lam, mult in seen.items() if lam <= lam_needed)
    return -sum(mult for lam, mult in seen.items() if lam < lam_needed)


@dataclass(frozen=True)
class StabilityReport:
    """Stability/rigidity data of the Harvey-Lawson cone in dimension m."""

    m: int
    n_sigma2: int
    m_sigma2: int
    dim_g: int
    s_ind: int
    stable: bool
    rigid: bool


def stability_index(m: int) -> StabilityReport:
    """Stability index of the U(1)^(m-1)-invariant cone.

    s-ind = N_sigma(2) - b0(link) - m^2 - 2m + 1 + dim G with b0 = 1 and
    dim G = m-1 here; stable means s-ind = 0, rigid means the exponent-2
    multiplicity equals m^2 - 1 - dim G.  Stability implies rigidity.
    """
    m = as_int(m, "dimension m")
    if m < 3:
        raise InputError(f"dimension m must be >= 3, got {m}")
    spec = enumerate_spectrum(m, 2 * m)
    data = exponents(spec)
    n2 = n_sigma(data, 2)
    m2 = spec.multiplicity(2 * m)  # alpha = 2 corresponds to lam = 2m
    dim_g = m - 1
    s_ind = n2 - 1 - m * m - 2 * m + 1 + dim_g
    return StabilityReport(
        m=m,
        n_sigma2=n2,
        m_sigma2=m2,
        dim_g=dim_g,
        s_ind=s_ind,
        stable=(s_ind == 0),
        rigid=(m2 == m * m - 1 - dim_g),
    )
