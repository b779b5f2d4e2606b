"""Laplace spectrum of the flat torus link of the Harvey-Lawson
U(1)^(m-1)-invariant cone, homogeneity exponents, and the cone's
stability index.

The link is a flat (m-1)-torus whose Laplace eigenvalues are indexed by
integer vectors n with eigenvalue Q(n) = m*sum(n_i^2) - (sum n_i)^2.
From the eigenvalue table the module derives the exponent set (both
roots of alpha*(alpha+m-2) = lambda) and the counting function ``n_sigma``;
the stability/rigidity report of each dimension m reads the count table.

Multiplicities are counted exactly, in Python ints, over multisets of
coordinate values.  Append a 0 to n to get x in Z^m; by Lagrange's
identity Q(n) = sum_{i<j} (x_i - x_j)^2, which is unchanged when the
same constant is added to every x_i, and n -> x mod (1, ..., 1) is a
bijection onto Z^m / Z(1, ..., 1) (the lattice A_{m-1}^*; Conway and
Sloane, SPLAG, ch. 4 sec. 6.6).  Each class has one representative
whose most frequent value is 0, taking the smallest of tied values;
write k_v for the count of the value v in it.  Q depends only on the
multiset {v: k_v}, and the multiset stands for m!/prod(k_v!) classes,
so ``counts[Q]`` is a sum of multinomials over the multisets with
Q <= cutoff.  The walk places the j = m - k_0 coordinates off the mode
at ascending values; each placement only adds pairs to the pair sum
n*S2 - S1^2 of the coordinates placed so far, so a partial multiset
whose sum has passed the cutoff is dropped with all its completions.
At least m*j/2 pairs of coordinates differ (the mode's count k_0 bounds
every k_v), so Q >= m*j/2 and j <= 2*cutoff/m: the walk's work does not
grow with m.  The brute-force box scan, the ball enumeration and the
(sum n_i, sum n_i^2) dynamic program that counted before the walk are
its independent oracles in the tests.

A request is served while the walk's own work count stays within
:data:`MAX_WALK_WORK`; the walk itself refuses the others.

Exponent order and comparisons against rational thresholds are decided
exactly, from (lambda, branch) and the quadratic relation; floats appear
purely as display approximations.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    IncompleteSpectrumError,
    InputError,
    as_int,
    as_rational,
    as_tuple,
    checked_replace,
    shown,
)

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

#: admission budget of enumerate_spectrum: the largest work count it serves,
#: cutoff + 1 table cells, plus 15 per walk node, plus one per value in each
#: range the walk scans (at most about 1 s of walk on a 2-core x86 host)
MAX_WALK_WORK = 3_400_000


def hl_eigenvalue(m: int, n) -> int:
    """Eigenvalue Q(n) = m*sum(n_i^2) - (sum n_i)^2 of the lattice point n.

    n must have exactly m-1 integer entries.  Q(n) >= ||n||^2 always
    (Cauchy-Schwarz), which is what makes ball enumeration complete.
    """
    m = as_int(m, "dimension m", least=3)
    entries = [as_int(v, "lattice point entry") for v in as_tuple(n, "lattice point")]
    if len(entries) != m - 1:
        raise InputError(
            f"lattice point needs m-1 = {shown(m - 1)} entries, got {len(entries)}"
        )
    s = sum(entries)
    t = sum(v * v for v in entries)
    return m * t - s * s


class ConeSpectrum(NamedTuple("ConeSpectrum", [
    ("m", int), ("entries", tuple), ("cutoff", Fraction),
])):
    """Eigenvalue table (lambda, multiplicity), complete up to ``cutoff``.

    ``entries`` is sorted strictly increasing in lambda; int eigenvalues
    stay ints and the others are read by :func:`~slcones.errors.as_rational`.
    Instances for the torus link come from :func:`enumerate_spectrum`; a
    generic link can be described by passing an explicit table (rational
    eigenvalues allowed).  Equal eigenvalues in a supplied table are
    merged by summing their multiplicities.
    """

    __slots__ = ()

    def __new__(cls, m: int, entries, cutoff):
        m = as_int(m, "dimension m", least=3)
        cut = as_rational(cutoff, "cutoff")
        merged: dict = {}
        for entry in as_tuple(entries, "spectrum entries"):
            try:
                lam, mult = entry
            except (TypeError, ValueError):
                raise InputError(f"spectrum entry must be a pair, got {shown(entry)!r}") from None
            lam_e = lam if type(lam) is int else as_rational(lam, "eigenvalue")
            mult = as_int(mult, "multiplicity", least=1)
            if lam_e < 0:
                raise InputError(f"eigenvalues must be nonnegative, got {shown(lam)}")
            merged[lam_e] = merged.get(lam_e, 0) + mult
        table = tuple(sorted(merged.items()))  # linear on an ascending table
        if table and table[-1][0] > cut:
            lam_e = next(lam_e for lam_e, _ in table if lam_e > cut)
            raise InputError(f"eigenvalue {shown(lam_e)} exceeds the declared cutoff {shown(cut)}")
        return tuple.__new__(cls, (m, table, cut))

    _replace = checked_replace

    def multiplicity(self, lam) -> int:
        lam = as_rational(lam, "eigenvalue")
        for ev, mult in self.entries:
            if ev == lam:
                return mult
        return 0


def _counts(m: int, cutoff: int) -> list:
    """``counts[q]`` = exact number of lattice vectors n with Q(n) = q.

    Sums m!/prod(k_v!) over the multisets {0: k0, v: k_v} with the mode 0
    (see the module docstring).  For each j = m - k0 the walk places the
    j coordinates off the mode at ascending nonzero values; a value below
    0 may occur at most k0 - 1 times (0 is the smallest of tied modes),
    one above 0 at most k0 times.  With n coordinates placed, s1 and s2
    their sum and square sum and p = n*s2 - s1^2 their pair sum, k more
    at v add k*f(v) to p, where f(v) = n*v^2 - 2*s1*v + s2 and
    n*f(v) = (n*v - s1)^2 + p.  Two cuts keep the walk on live multisets:
    each later coordinate adds at least p/n (the minimum of f, and p/n
    never falls), and if the smallest of the rem coordinates left sits at
    v above the mean s1/n, each of them adds at least f(v).  The work count
    is the table's cutoff + 1 cells, 15 per ``walk`` call and the length of
    each range scanned; past :data:`MAX_WALK_WORK` the walk raises InputError.
    """
    isqrt = math.isqrt
    left = MAX_WALK_WORK - (cutoff + 1)  # the work budget still unspent

    def walk(n, s1, s2, p, rem, lo, coef):
        # place rem >= 1 more coordinates at nonzero values >= lo; coef is
        # m! / (k0! * prod k_v!) over the values placed so far, and k0 is
        # the enclosing loop's mode count
        nonlocal left
        left -= 15
        d = n * (cutoff - p) // rem - p
        if d < 0 or left < 0:  # rem coordinates at the mean overshoot, or over budget
            return
        r = isqrt(d)
        vhi = (s1 + r) // n  # p + rem * f(v) <= cutoff for v above the mean
        s1d = 2 * s1
        if rem <= k0:  # the rem coordinates at one value v
            vlo = -((r - s1) // n)
            if vlo < lo:
                vlo = lo
            if vlo <= vhi:
                left -= vhi - vlo + 1
            c = coef // fact[rem]
            if vlo <= 0:
                if rem < k0:
                    for v in range(vlo, min(vhi, -1) + 1):
                        counts[p + rem * ((n * v - s1d) * v + s2)] += c
                vlo = 1
            for v in range(vlo, vhi + 1):
                counts[p + rem * ((n * v - s1d) * v + s2)] += c
        if rem == 1:
            return
        # k < rem at v and the rest above v: one at v must leave
        # p + f(v) <= cutoff * (n + 1) / (n + rem) for the rest at p/n each
        d1 = n * (cutoff * (n + 1) // (n + rem) - p) - p
        if d1 < 0:
            return
        vlo = -((isqrt(d1) - s1) // n)
        if vlo < lo:
            vlo = lo
        for v in range(vlo, vhi + 1):
            if not v:
                continue
            kmax = rem - 1
            if v < 0:
                if kmax >= k0:
                    kmax = k0 - 1
            elif kmax > k0:
                kmax = k0
            fv = (n * v - s1d) * v + s2
            pk = p
            for k in range(1, kmax + 1):
                pk += fv
                if pk > cutoff or left < 0:
                    break
                n2 = n + k
                t1 = s1 + k * v
                t2 = s2 + k * v * v
                if rem - k > 1:
                    walk(n2, t1, t2, pk, rem - k, v + 1, coef // fact[k])
                    continue
                # the last coordinate, at w > v, inline: this is the hot loop
                dd = n2 * (cutoff - pk) - pk
                if dd < 0:
                    continue
                rr = isqrt(dd)
                wlo = -((rr - t1) // n2)
                if wlo <= v:
                    wlo = v + 1
                whi = (t1 + rr) // n2
                if wlo > whi:
                    continue
                left -= whi - wlo + 1
                c = coef // fact[k]
                t1d = 2 * t1
                q0 = pk + t2
                if wlo <= 0:  # then v < 0, so k0 > 1 and w < 0 may occur once
                    for w in range(wlo, min(whi, -1) + 1):
                        counts[q0 + (n2 * w - t1d) * w] += c
                    wlo = 1
                for w in range(wlo, whi + 1):
                    counts[q0 + (n2 * w - t1d) * w] += c

    if left >= 0:  # else refused before the table is allocated
        counts = [0] * (cutoff + 1)
        counts[0] = 1  # the mode alone, j = 0
        jmax = min(m - 1, 2 * cutoff // m)
        fact = [1] * (jmax + 1)
        for i in range(1, jmax + 1):
            fact[i] = fact[i - 1] * i
        coef = 1  # m! / k0!
        for j in range(1, jmax + 1):
            k0 = m - j
            coef *= k0 + 1
            if k0 * j <= cutoff:  # each of the j differs from all k0 mode coordinates
                walk(k0, 0, 0, 0, j, -isqrt(cutoff // k0), coef)
    if left < 0:
        raise InputError(f"spectrum for m = {shown(m)}, cutoff = {shown(cutoff)} needs "
                         f"more than {MAX_WALK_WORK} units of work")
    return counts


def enumerate_spectrum(m: int, cutoff: int) -> ConeSpectrum:
    """Complete eigenvalue table of the torus link up to ``cutoff``.

    Counts the multisets of coordinate values with Q <= cutoff (see the
    module docstring).  Raises :class:`InputError` once the walk's work
    count passes the budget :data:`MAX_WALK_WORK` (see :func:`_counts`).
    """
    m = as_int(m, "dimension m", least=3)
    cutoff = as_int(cutoff, "cutoff", least=0)
    # already a valid table: int pairs, ascending, none past the cutoff
    entries = [(lam, c) for lam, c in enumerate(_counts(m, cutoff)) if c]
    return ConeSpectrum._make((m, tuple(entries), Fraction(cutoff)))


class ExponentEntry(NamedTuple):
    """One exponent alpha with alpha*(alpha+m-2) = lam.

    ``branch`` is +1 for the upper root, -1 for the lower; ``alpha`` is a
    float approximation only - order/threshold decisions always go back
    to (lam, branch).
    """

    alpha: float
    lam: Fraction
    branch: int
    multiplicity: int


class ExponentData(NamedTuple):
    """Both exponent roots for every eigenvalue of a spectrum.

    The exponents in the open interval (2-m, 0) never occur: lower roots
    sit at or below 2-m and upper roots at or above 0.
    """

    m: int
    cutoff: Fraction
    entries: tuple  # of ExponentEntry, in ascending order of alpha

    def multiplicity_at(self, alpha) -> int:
        """Total multiplicity of the exact exponent value ``alpha``.

        ``alpha`` is interpreted as a rational and matched through the
        quadratic relation, not by float comparison.
        """
        a = as_rational(alpha, "alpha")
        lam = a * (a + self.m - 2)
        branch = 1 if 2 * a + (self.m - 2) >= 0 else -1
        return sum(
            e.multiplicity
            for e in self.entries
            if e.lam == lam and e.branch == branch
        )


def exponents(spec: ConeSpectrum) -> ExponentData:
    """Exponent table alpha+-(lam) = (-(m-2) +- sqrt((m-2)^2+4*lam))/2 in
    exact order: lower roots by descending lam, then upper by ascending lam."""
    m = spec.m
    c = m - 2
    lower, upper = [], []
    for lam, mult in spec.entries:
        try:
            disc = math.sqrt(c * c + 4 * lam)
        except OverflowError:  # no float alpha could hold it either
            msg = f"exponents of {shown(lam)} at m = {shown(m)} exceed the float range"
            raise InputError(msg) from None
        lower.append(ExponentEntry((-c - disc) / 2, lam, -1, mult))
        upper.append(ExponentEntry((-c + disc) / 2, lam, +1, mult))
    return ExponentData(m, spec.cutoff, (*reversed(lower), *upper))


def n_sigma(data: ExponentData, delta) -> int:
    """Exponent counting function.

    For delta >= 0 this sums multiplicities of exponents in [0, delta];
    for delta < 0 it is minus the sum over (delta, 0).  Which eigenvalues
    can contribute is decided exactly: an upper root lies in [0, delta]
    iff lam <= delta*(delta+m-2), and a lower root lies in (delta, 0)
    iff lam < delta*(delta+m-2).  Every entry counts, as in
    :meth:`ExponentData.multiplicity_at`.  Raises when the cutoff cannot
    certify that every contributing eigenvalue is in the table.
    """
    d = as_rational(delta, "delta")
    m = data.m
    lam_needed = d * (d + m - 2)
    if lam_needed > data.cutoff:
        raise IncompleteSpectrumError(
            f"n_sigma({shown(delta)}) needs eigenvalues up to {shown(lam_needed)} but the "
            f"table is only complete up to {shown(data.cutoff)}"
        )
    upper = [e for e in data.entries if e.branch == +1]
    if d >= 0:
        return sum(e.multiplicity for e in upper if e.lam <= lam_needed)
    return -sum(e.multiplicity for e in upper if e.lam < lam_needed)


class StabilityReport(NamedTuple):
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
    alpha_+(lam) <= 2 exactly when lam <= 2m, so N_sigma(2) is the total
    of the count table up to 2m and the multiplicity is its cell 2m.
    """
    m = as_int(m, "dimension m", least=3)
    counts = _counts(m, 2 * m)  # refused as enumerate_spectrum refuses it
    n2 = sum(counts)
    m2 = counts[2 * m]
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
