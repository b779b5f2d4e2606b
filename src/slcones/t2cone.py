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
common positive scale, so the span arithmetic is exact: on integers once
the basis rows are scaled by the lcm of their denominators.  A
:class:`T2PairBasis` scales its rows once, when it is built, checks them
in ints and keeps them, so the gluing solver reads no Fraction.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import (
    InputError,
    NumericError,
    as_finite,
    as_int,
    as_tuple,
    checked_replace,
    read_rational,
    shown,
)

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

#: asymptotic-class directions of the three neck types (integer part;
#: the true class is pi * a * w_j)
W_VECTORS = {1: (1, 0), 2: (0, 1), 3: (-1, -1)}


class T2Singularity(NamedTuple("T2Singularity", [("k", tuple)])):
    """k-invariant of one torus-cone point, sign-normalized so that the
    first nonzero entry of the generator (k2, -k1) is positive."""

    __slots__ = ()

    def __new__(cls, k):
        k = tuple(as_int(x, "k entry") for x in as_tuple(k, "k"))
        if len(k) != 3:
            raise InputError(f"need a triple, got {shown(k)}")
        if sum(k) != 0:
            raise InputError(f"entries must sum to zero, got {shown(k)}")
        if math.gcd(k[0], k[1]) != 1:
            raise InputError(
                f"(k1, k2) must be coprime (the class is a generator), got {shown(k)}"
            )
        gen = (k[1], -k[0])
        first = next(x for x in gen if x != 0)
        if first < 0:
            k = tuple(-x for x in k)
        return tuple.__new__(cls, (k,))

    _replace = checked_replace


def k_from_generator(p: int, q: int) -> T2Singularity:
    """k-triple of the singular point whose restriction image is
    generated by (p, q): k = (-q, p, q - p)."""
    p, q = as_int(p, "generator entry p"), as_int(q, "generator entry q")
    if (p, q) == (0, 0):
        raise InputError("generator cannot be zero")
    if math.gcd(p, q) != 1:
        raise InputError(f"generator must be primitive, got {shown((p, q))}")
    return T2Singularity((-q, p, q - p))


def gluing_candidates(s: T2Singularity) -> frozenset:
    """Which of the three neck types can desingularize the point: those
    j with k_j = 0 (at most one); the others are topologically blocked."""
    return frozenset(j for j in (1, 2, 3) if s.k[j - 1] == 0)


def h1_order(s: T2Singularity, h1X: int, j: int) -> Optional[int]:
    """Order of the first integral homology after gluing neck j:
    |k_j| times the order for the singular 3-fold; None when k_j = 0
    (the homology need not stay finite)."""
    h1X = as_int(h1X, "group order h1X", least=1)
    j = as_int(j, "neck index j")
    if j not in (1, 2, 3):
        raise InputError(f"neck index must be 1, 2, or 3, got {shown(j)}")
    kj = s.k[j - 1]
    if kj == 0:
        return None
    return abs(kj) * h1X


def _integer_row(b) -> tuple:
    """The positive integer multiple of the rational row ``b`` by the lcm
    of its denominators."""
    lcm = math.lcm(*[x.denominator for x in b])
    return tuple([x.numerator * (lcm // x.denominator) for x in b])


class T2PairBasis(NamedTuple("T2PairBasis", [("B1", tuple), ("B2", tuple)])):
    """Exact basis (B1, B2) of the span of restriction images for two
    torus-cone points, as vectors in R^2 + R^2, each given as
    [[u, v], [y, z]] with entries read by
    :func:`~slcones.errors.read_rational`.

    B1 and B2 must be independent, that is some Pluecker coordinate
    p_ij = b1_i b2_j - b1_j b2_i of the flattened rows is nonzero (the
    gluing solver builds the annihilator of the span from the first
    one), and the symplectic pairing of the two classes must cancel
    between the two points: u1 v2 - u2 v1 + y1 z2 - y2 z1 = 0.

    Both checks run once, in Python ints, on the rows scaled by the lcm
    of their denominators, L1 and L2: scaling multiplies every Pluecker
    coordinate and the pairing by L1 L2 > 0, so each verdict is the
    rational one.  The rational pairing is formed only to word the
    error.  The basis keeps the integer rows, ``_rows``, for
    :func:`two_singularity_gluings`; ``_replace``, copy and pickle build
    them again through the constructor.
    """

    # no __slots__: the integer rows live in the instance __dict__

    def __new__(cls, B1, B2):
        def vec4(b, name):
            if not (
                isinstance(b, (list, tuple))
                and len(b) == 2
                and all(isinstance(h, (list, tuple)) and len(h) == 2 for h in b)
            ):
                raise InputError(f"{name} must be [[u, v], [y, z]]")
            (u, v), (y, z) = b
            return (
                read_rational(u, f"{name}[0][0]"),
                read_rational(v, f"{name}[0][1]"),
                read_rational(y, f"{name}[1][0]"),
                read_rational(z, f"{name}[1][1]"),
            )

        b1 = vec4(B1, "B1")
        b2 = vec4(B2, "B2")
        r1, r2 = _integer_row(b1), _integer_row(b2)
        u1, v1, y1, z1 = r1
        u2, v2, y2, z2 = r2
        # all six Pluecker coordinates vanish iff B1 and B2 are dependent
        if not (u1 * v2 - v1 * u2 or u1 * y2 - y1 * u2 or u1 * z2 - z1 * u2
                or v1 * y2 - y1 * v2 or v1 * z2 - z1 * v2 or y1 * z2 - z1 * y2):
            raise InputError("B1 and B2 must be linearly independent")
        if u1 * v2 - u2 * v1 + y1 * z2 - y2 * z1:
            pairing = b1[0] * b2[1] - b2[0] * b1[1] + b1[2] * b2[3] - b2[2] * b1[3]
            raise InputError(
                f"basis violates the pairing identity: "
                f"u1 v2 - u2 v1 + y1 z2 - y2 z1 = {shown(pairing)} != 0"
            )
        self = tuple.__new__(cls, (
            ((b1[0], b1[1]), (b1[2], b1[3])),
            ((b2[0], b2[1]), (b2[2], b2[3])),
        ))
        self._rows = (r1, r2)
        return self

    _replace = checked_replace

    def flat(self):
        return (
            (*self.B1[0], *self.B1[1]),
            (*self.B2[0], *self.B2[1]),
        )


class GluingSolution(NamedTuple):
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


def _annihilator(b1, b2) -> list:
    """Integer basis of {c in Q^4 : c . b1 = c . b2 = 0} for independent
    integer rows b1, b2, from their Pluecker coordinates
    p_ij = b1_i b2_j - b1_j b2_i.

    With (i, j) the first pair with p_ij != 0, the vector
    c^(f) = p_ij e_f - p_fj e_i - p_if e_j is the cofactor expansion of
    det(x_(i, j, f); b1_(i, j, f); b2_(i, j, f)) in x, so it annihilates
    b1 and b2; the two free indices f give two independent vectors.
    """
    def p(i, j):
        return b1[i] * b2[j] - b1[j] * b2[i]

    i, j = next((i, j) for i in range(4) for j in range(i + 1, 4) if p(i, j))
    basis = []
    for f in range(4):
        if f not in (i, j):
            c = [0] * 4
            c[f], c[i], c[j] = p(i, j), -p(f, j), -p(i, f)
            basis.append(c)
    return basis


def _rank(rows) -> int:
    """Rank of an exact (int or Fraction) matrix by fraction-free
    elimination: each remaining row r becomes piv * r - r[c] * row, which
    clears the pivot column c of ``row``."""
    rows = [list(r) for r in rows]
    rank = 0
    while rows:
        row = rows.pop()
        c = next((c for c, x in enumerate(row) if x), None)
        if c is not None:
            rank += 1
            rows = [[row[c] * x - r[c] * y for x, y in zip(r, row)] for r in rows]
    return rank


def two_singularity_gluings(basis: T2PairBasis) -> list:
    """All families of neck pairs (j1, j2) whose joint asymptotic
    classes (a1 w_{j1}, a2 w_{j2}), a1, a2 > 0, fit in span(B1, B2).

    For each of the nine type pairs the span condition is a homogeneous
    2x2 integer system in (a1, a2), one row per annihilator vector of
    span(B1, B2): a zero system gives the independent quadrant family
    (dimY = 2), a singular nonzero one a kernel line, which is a
    locked-ratio family (dimY = 1) when it meets the open quadrant, and
    a regular one nothing.  dimY is cross-checked against
    4 - rank(w_{j1} + 0, 0 + w_{j2}, B1, B2).
    """
    b1, b2 = basis._rows
    c1, c2 = _annihilator(b1, b2)
    solutions = []
    for j1 in (1, 2, 3):
        for j2 in (1, 2, 3):
            (u1, v1), (u2, v2) = W_VECTORS[j1], W_VECTORS[j2]
            # rows (p, q) of the system p a1 + q a2 = 0
            p1, q1 = c1[0] * u1 + c1[1] * v1, c1[2] * u2 + c1[3] * v2
            p2, q2 = c2[0] * u1 + c2[1] * v1, c2[2] * u2 + c2[3] * v2
            if not (p1 or q1 or p2 or q2):
                ratio = None
                dim_y = 2
            elif p1 * q2 == p2 * q1:
                # kernel direction (-q, p); strictly positive iff p q < 0
                p, q = (p1, q1) if p1 or q1 else (p2, q2)
                if p * q >= 0:
                    continue
                ratio = Fraction(-p, q)
                dim_y = 1
            else:
                continue
            # cross-check dimY against the intersection-dimension formula
            expected = 4 - _rank([(u1, v1, 0, 0), (0, 0, u2, v2), b1, b2])
            if dim_y != expected:
                raise NumericError(
                    f"dimY cross-check failed for ({j1}, {j2}): the kernel gives "
                    f"{dim_y}, the intersection formula {expected}"
                )
            solutions.append(GluingSolution(j1, j2, ratio, dim_y))
    return solutions


class FamilyRegionResult(NamedTuple):
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
        try:
            t = math.sqrt(pairing / (math.pi * kj))
        except OverflowError:  # k_j beyond the float range
            t = 0.0
        if t == 0.0:  # the quotient underflowed; sqrt(|pairing| / (pi |kj|)) may not
            t = math.exp(0.5 * (math.log(abs(pairing)) - math.log(math.pi) - math.log(abs(kj))))
            if t == 0.0:
                raise NumericError(f"neck scale t underflows at pairing {pairing}", achieved=0.0)
        return FamilyRegionResult(region, t, False)
    return FamilyRegionResult(region, None, False)
