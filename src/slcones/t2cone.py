"""Gluing calculus for the stable torus cone with one or two singular points.

A torus-cone singular point inside a compact 3-fold carries an integer
triple (k1, k2, k3) summing to zero: the components of the generator of
the boundary-restriction image against the three standard 2-cycles of
the link.  Desingularization by the j-th harmonic neck is possible only
when k_j = 0, and with two singular points the admissible neck scales
are cut out of the positive quadrant by an exact rational span
condition, which this module solves in closed form.

The asymptotic classes of the three necks are positive multiples of
w1 = (1, 0), w2 = (0, 1), w3 = (-1, -1) times pi; the factor pi is a
common positive scale, so all span arithmetic stays in exact rationals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ._exact import kernel, rank as _rank
from .errors import InputError, NumericError, as_finite, as_int, read_rational

__all__ = [
    "T2Singularity",
    "T2PairBasis",
    "GluingSolution",
    "FamilyRegionResult",
    "W_VECTORS",
    "k_from_generator",
    "gluing_candidates",
    "two_singularity_gluings",
    "h1_order",
    "family_region",
]

#: asymptotic-class directions of the three neck types (rational part;
#: the true class is pi * a * w_j)
W_VECTORS = {
    1: (Fraction(1), Fraction(0)),
    2: (Fraction(0), Fraction(1)),
    3: (Fraction(-1), Fraction(-1)),
}


@dataclass(frozen=True)
class T2Singularity:
    """k-invariant of one torus-cone point, sign-normalized so that the
    first nonzero entry of the generator (k2, -k1) is positive."""

    k: tuple

    def __init__(self, k):
        k = tuple(as_int(x, "k entry") for x in k)
        if len(k) != 3:
            raise InputError(f"need a triple, got {k}")
        if sum(k) != 0:
            raise InputError(f"entries must sum to zero, got {k}")
        if math.gcd(k[0], k[1]) != 1:
            raise InputError(
                f"(k1, k2) must be coprime (the class is a generator), got {k}"
            )
        gen = (k[1], -k[0])
        first = next(x for x in gen if x != 0)
        if first < 0:
            k = tuple(-x for x in k)
        object.__setattr__(self, "k", k)


def k_from_generator(p: int, q: int) -> T2Singularity:
    """k-triple of the singular point whose restriction image is
    generated by (p, q): k = (-q, p, q - p)."""
    p, q = as_int(p, "generator entry p"), as_int(q, "generator entry q")
    if (p, q) == (0, 0):
        raise InputError("generator cannot be zero")
    if math.gcd(p, q) != 1:
        raise InputError(f"generator must be primitive, got ({p}, {q})")
    return T2Singularity((-q, p, q - p))


def gluing_candidates(s: T2Singularity) -> frozenset:
    """Which of the three neck types can desingularize the point: those
    j with k_j = 0 (at most one); the others are topologically blocked."""
    return frozenset(j for j in (1, 2, 3) if s.k[j - 1] == 0)


def h1_order(s: T2Singularity, h1X: int, j: int) -> Optional[int]:
    """Order of the first integral homology after gluing neck j:
    |k_j| times the order for the singular 3-fold; None when k_j = 0
    (the homology need not stay finite)."""
    h1X = as_int(h1X, "group order h1X")
    if h1X < 1:
        raise InputError(f"group order must be positive, got {h1X}")
    if j not in (1, 2, 3):
        raise InputError(f"neck index must be 1, 2, or 3, got {j}")
    kj = s.k[j - 1]
    if kj == 0:
        return None
    return abs(kj) * h1X


@dataclass(frozen=True)
class T2PairBasis:
    """Exact basis (B1, B2) of the span of restriction images for two
    torus-cone points, as vectors in R^2 + R^2.

    The symplectic pairing of the two classes must cancel between the
    two points: u1 v2 - u2 v1 + y1 z2 - y2 z1 = 0.
    """

    B1: tuple
    B2: tuple

    def __init__(self, B1, B2):
        def vec4(b, name):
            (u, v), (y, z) = b
            return (
                read_rational(u, f"{name}[0][0]"),
                read_rational(v, f"{name}[0][1]"),
                read_rational(y, f"{name}[1][0]"),
                read_rational(z, f"{name}[1][1]"),
            )

        b1 = vec4(B1, "B1")
        b2 = vec4(B2, "B2")
        # rank check: all six 2x2 minors vanish iff dependent
        if all(
            b1[i] * b2[j] - b1[j] * b2[i] == 0
            for i in range(4)
            for j in range(i + 1, 4)
        ):
            raise InputError("B1 and B2 must be linearly independent")
        pairing = b1[0] * b2[1] - b2[0] * b1[1] + b1[2] * b2[3] - b2[2] * b1[3]
        if pairing != 0:
            raise InputError(
                f"basis violates the pairing identity: "
                f"u1 v2 - u2 v1 + y1 z2 - y2 z1 = {pairing} != 0"
            )
        object.__setattr__(self, "B1", ((b1[0], b1[1]), (b1[2], b1[3])))
        object.__setattr__(self, "B2", ((b2[0], b2[1]), (b2[2], b2[3])))

    def flat(self):
        return (
            (*self.B1[0], *self.B1[1]),
            (*self.B2[0], *self.B2[1]),
        )


@dataclass(frozen=True)
class GluingSolution:
    """One admissible family of simultaneous desingularizations.

    ``ratio`` is a2/a1 for a ray family (the two neck scales are
    locked); None means the scales are independent over the full
    positive quadrant.  dimY is the dimension of the family's span of
    asymptotic classes; the singularity index of the glued 3-fold
    equals it.
    """

    j1: int
    j2: int
    ratio: Optional[Fraction]
    dimY: int


def two_singularity_gluings(basis: T2PairBasis) -> list:
    """All families of neck pairs (j1, j2) whose joint asymptotic
    classes (a1 w_{j1}, a2 w_{j2}), a1, a2 > 0, fit in span(B1, B2).

    For each of the nine type pairs the span condition is a homogeneous
    2x2 rational system in (a1, a2): full kernel gives the independent
    quadrant family (dimY = 2), a kernel line meeting the open quadrant
    gives a locked-ratio family (dimY = 1), anything else is empty.
    """
    b1, b2 = basis.flat()
    annihilator = kernel([b1, b2], 4)
    solutions = []
    for j1 in (1, 2, 3):
        for j2 in (1, 2, 3):
            w1 = W_VECTORS[j1]
            w2 = W_VECTORS[j2]
            # rows of the 2x2 system M (a1, a2)^T = 0
            m = [
                (
                    c[0] * w1[0] + c[1] * w1[1],
                    c[2] * w2[0] + c[3] * w2[1],
                )
                for c in annihilator
            ]
            rank = _rank(m)
            if rank == 0:
                ratio = None
                dim_y = 2
            elif rank == 1:
                row = next(r for r in m if r != (0, 0))
                # kernel direction (-Q, P); strictly positive iff P*Q < 0
                p_, q_ = row
                if p_ * q_ >= 0:
                    continue
                ratio = -p_ / q_
                dim_y = 1
            else:
                continue
            # cross-check dimY against the intersection-dimension formula
            stack = [
                (w1[0], w1[1], Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(0), w2[0], w2[1]),
                b1,
                b2,
            ]
            expected = 4 - _rank(stack)
            if dim_y != expected:
                raise NumericError(
                    f"dimY cross-check failed for ({j1}, {j2}): the kernel gives "
                    f"{dim_y}, the intersection formula {expected}"
                )
            solutions.append(GluingSolution(j1, j2, ratio, dim_y))
    return solutions


@dataclass(frozen=True)
class FamilyRegionResult:
    """Sign classification of the area pairing, the locked neck scale
    where one exists, and whether every scale is admissible."""

    region: str  # "positive" | "negative" | "wall"
    t: Optional[float]
    any_t: bool


def family_region(omega_pairing: float, kj: int) -> FamilyRegionResult:
    """Solve pi t^2 k_j = pairing for the neck scale t.

    The pairing's sign names the region.  A solution exists only when
    the signs of pairing and k_j agree; on the wall (zero pairing) the
    k_j = 0 neck admits every scale and any other neck admits none.
    """
    pairing = as_finite(omega_pairing, "pairing")
    kj = as_int(kj, "k_j")
    if pairing == 0.0:
        return FamilyRegionResult("wall", None, kj == 0)
    region = "positive" if pairing > 0 else "negative"
    if kj != 0 and (pairing > 0) == (kj > 0):
        t = math.sqrt(pairing / (math.pi * kj))
        if t == 0.0:
            # subnormal pairing: the quotient underflowed, but the true
            # scale sqrt(|pairing| / (pi |kj|)) is representable
            t = math.exp(
                0.5 * (math.log(abs(pairing)) - math.log(math.pi * abs(kj)))
            )
        return FamilyRegionResult(region, t, False)
    return FamilyRegionResult(region, None, False)
