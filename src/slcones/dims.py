"""Integer dimension bookkeeping for desingularization moduli spaces.

Every formula here is pure integer arithmetic over a declarative
topology profile: Betti numbers of the compact piece and of the gluing
necks, end counts, and cone stability indices.  The module derives
deformation/obstruction dimensions, the glued Betti number b1(N), the
family dimension, and the singularity index, and rejects profiles whose
numbers violate the exact-sequence constraints instead of clamping.
Each formula is written once: :func:`full_report` evaluates them all on
the sums of one pass over the cones and necks, and :func:`dim_I`,
:func:`dim_Z` and :func:`ac_moduli_dims` share its formulas but need no dimY.

The span dimension dimY of the admissible asymptotic classes cannot be
computed from Betti numbers alone; it is supplied by the caller (exactly
computable in the torus-cone case) and validated here.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import (
    InconsistentProfileError,
    InputError,
    WallError,
    as_finite,
    as_int,
    as_tuple,
    checked_replace,
    shown,
)

__all__ = [
    "ConeData",
    "NeckTopology",
    "TopologyProfile",
    "AcDims",
    "DimensionReport",
    "dim_I",
    "ac_moduli_dims",
    "dim_Z",
    "full_report",
    "rate_lambda_dims",
    "moduli_jump",
    "yz_vanishing_check",
    "check_boundary_image",
]


class ConeData(NamedTuple("ConeData", [("l", int), ("s_ind", int), ("rigid", bool)])):
    """One singular cone: number of link components l and stability
    index; ``rigid`` marks whether the index formula applies as stated."""

    __slots__ = ()

    def __new__(cls, l: int, s_ind: int, rigid: bool = True):
        if not isinstance(rigid, bool):
            raise InputError(f"rigid must be true or false, got {shown(rigid)!r}")
        return tuple.__new__(cls, (
            as_int(l, "link component count", least=1),
            as_int(s_ind, "stability index", least=0),
            rigid,
        ))

    _replace = checked_replace


class NeckTopology(NamedTuple("NeckTopology", [("b0L", int), ("b1L", int), ("b1csL", int)])):
    """Betti data of one asymptotically conical neck."""

    __slots__ = ()

    def __new__(cls, b0L: int, b1L: int, b1csL: int):
        return tuple.__new__(cls, (
            as_int(b0L, "b0(L)", least=1),
            as_int(b1L, "b1(L)", least=0),
            as_int(b1csL, "b1_cs(L)", least=0),
        ))

    _replace = checked_replace


def _entry(cls, e, what: str):
    """A profile entry: a ``cls`` instance, or a mapping of its keyword arguments."""
    if isinstance(e, cls):
        return e
    try:
        return cls(**e)
    except TypeError as exc:  # not a mapping, or a missing, unknown or non-string key
        raise InputError(f"{what}: {exc}") from None


class TopologyProfile(NamedTuple("TopologyProfile", [
    ("m", int), ("q", int), ("b1csX", int), ("cones", tuple), ("necks", tuple),
    ("dimY", Optional[int]),
])):
    __slots__ = ()

    def __new__(cls, m, q, b1csX, cones: Sequence, necks: Sequence, dimY=None):
        m = as_int(m, "ambient dimension m", least=3)
        q = as_int(q, "component count q", least=1)
        cones = tuple([_entry(ConeData, c, "cone") for c in as_tuple(cones, "cones")])
        necks = tuple([_entry(NeckTopology, n, "neck") for n in as_tuple(necks, "necks")])
        if len(cones) != len(necks):
            raise InputError(
                f"profile lists {len(cones)} cones but {len(necks)} necks"
            )
        if dimY is not None:
            dimY = as_int(dimY, "dimY", least=0)
        b1csX = as_int(b1csX, "b1_cs(X')", least=0)
        return tuple.__new__(cls, (m, q, b1csX, cones, necks, dimY))

    _replace = checked_replace

    @property
    def n(self) -> int:
        return len(self.cones)


class AcDims(NamedTuple):
    """Per-neck moduli dimensions at the three standard rates."""

    dimY: int
    dimZ: int
    dimM0: int


class DimensionReport(NamedTuple):
    dimI: int
    dimZ: int
    dimYi: tuple
    dimZi: tuple
    dimML0: tuple
    b1N: int
    dimF: int
    indX: int
    non_rigid_warning: bool


def dim_I(p: TopologyProfile) -> int:
    """Dimension of the compactly supported deformation space:
    b1_cs(X') + q - sum_i l_i."""
    return _dim_I(p, sum(c.l for c in p.cones))


def _dim_I(p: TopologyProfile, sum_l: int) -> int:
    val = p.b1csX + p.q - sum_l
    if val < 0:
        raise InconsistentProfileError(
            f"dim I = {shown(val)} < 0: the end count exceeds what the exact "
            f"sequence of the pair allows"
        )
    return val


def ac_moduli_dims(neck: NeckTopology, l: int) -> AcDims:
    """Dimensions of the neck's moduli space at the three rate regimes,
    together with its Y and Z invariant-space dimensions."""
    return AcDims._make(_neck_dims(*neck, as_int(l, "end count l", least=0)))


def _neck_dims(b0: int, b1: int, b1cs: int, l: int) -> tuple:
    """(dimY, dimZ, dimM0) of the neck (b0, b1, b1cs) with ``l`` ends, l an int >= 0."""
    dim_y = b1 - b0 + l - b1cs
    dim_z = l - b0
    dim_m0 = b1 - b0 + l
    if dim_y < 0 or dim_z < 0 or dim_m0 < 0:
        raise InconsistentProfileError(
            f"negative neck dimension from (b0={shown(b0)}, b1={shown(b1)}, "
            f"b1_cs={shown(b1cs)}, l={shown(l)}): "
            f"(dimY, dimZ, dimM0) = {shown((dim_y, dim_z, dim_m0))}"
        )
    return dim_y, dim_z, dim_m0


def dim_Z(p: TopologyProfile) -> int:
    """Dimension of the joint area-invariant space after the q - 1
    independent matching restrictions: 1 - q + sum l_i - sum b0(L_i)."""
    return _dim_Z(p, sum(c.l for c in p.cones), sum(n.b0L for n in p.necks))


def _dim_Z(p: TopologyProfile, sum_l: int, sum_b0: int) -> int:
    val = 1 - p.q + sum_l - sum_b0
    if val < 0:
        raise InconsistentProfileError(f"dim Z = {shown(val)} < 0")
    return val


def full_report(p: TopologyProfile) -> DimensionReport:
    """All dimension formulas evaluated on one profile: dim I, dim Z, the
    necks' dimensions, b1(N) = dimY + 1 + b1_cs(X') + sum b1_cs(L) - sum l
    of the glued manifold, the family dimension dimF = dimY + 1 - q +
    sum b1_cs(L) = b1(N) - dim I, and the singularity index indX = dimF +
    sum s-ind, flagged when a cone is not rigid (its formula then needs a
    correction the profile cannot express).

    One pass over the cones and necks applies each neck's formula to its
    validated l and takes the sums the profile formulas read.  A profile
    that breaks several formulas raises for the first of: the necks'
    dimensions in order, a missing dimY, dim F, b1(N), dim I and dim Z."""
    per = []
    sum_l = sum_b0 = sum_b1cs = sum_s_ind = 0
    all_rigid = True
    for (l, s_ind, rigid), (b0, b1, b1cs) in zip(p.cones, p.necks):
        per.append(_neck_dims(b0, b1, b1cs, l))
        sum_l += l
        sum_b0 += b0
        sum_b1cs += b1cs
        sum_s_ind += s_ind
        all_rigid = all_rigid and rigid
    if p.dimY is None:
        raise InputError("profile must carry dimY to compute dimF")
    dim_f = p.dimY + 1 - p.q + sum_b1cs
    if dim_f < 0:
        raise InconsistentProfileError(f"dim F = {shown(dim_f)} < 0")
    b1n = p.dimY + 1 + p.b1csX + sum_b1cs - sum_l
    if b1n < 0:
        raise InconsistentProfileError(f"b1(N) = {shown(b1n)} < 0")
    dim_yi, dim_zi, dim_m0 = tuple(zip(*per)) or ((), (), ())
    return DimensionReport._make((
        _dim_I(p, sum_l), _dim_Z(p, sum_l, sum_b0), dim_yi, dim_zi, dim_m0,
        b1n, dim_f, dim_f + sum_s_ind, not all_rigid,
    ))


def rate_lambda_dims(
    neck: NeckTopology,
    regime: str,
    n_sigma_lambda: Optional[int] = None,
    exceptional: bool = False,
) -> int:
    """Moduli dimension of one neck at a generic decay rate.

    ``regime`` is "positive" for rates in (0, 2) off the exceptional
    set, where the dimension is b1(L) - b0(L) + N_Sigma(lambda) and the
    caller supplies N_Sigma(lambda) from the cone spectrum; or
    "negative" for rates in (2 - m, 0), where it is b1_cs(L).  A rate
    in the exceptional set has no well-defined moduli dimension.
    """
    if not isinstance(exceptional, bool):
        raise InputError(f"exceptional must be true or false, got {shown(exceptional)!r}")
    if exceptional:
        raise WallError("rate lies in the exceptional set; dimension jumps there")
    if regime == "negative":
        return neck.b1csL
    if regime == "positive":
        if n_sigma_lambda is None:
            raise InputError("positive regime needs N_Sigma(lambda)")
        val = neck.b1L - neck.b0L + as_int(n_sigma_lambda, "N_Sigma(lambda)")
        if val < 0:
            raise InconsistentProfileError(f"moduli dimension {shown(val)} < 0")
        return val
    raise InputError(f"regime must be 'positive' or 'negative', got {shown(regime)!r}")


def moduli_jump(dim_m0: int, s_ind: int, m: int) -> int:
    """Moduli dimension just above rate 0 for a neck on a rigid cone:
    the translations and the cone's excess eigenfunctions enter, adding
    s-ind + 2m to the rate-0 dimension."""
    return as_int(dim_m0, "dimM0", least=0) + as_int(s_ind, "s_ind", least=0) + 2 * as_int(m, "m")


def yz_vanishing_check(
    neck: NeckTopology, lam: float, b0Sigma: int, m: int
) -> tuple:
    """Which of the two invariants are forced to vanish: Y when the rate
    is negative or b1(L) = 0; Z when the rate is below 2 - m or the
    cone link is connected."""
    lam = as_finite(lam, "rate lambda")
    b0Sigma = as_int(b0Sigma, "b0(Sigma)", least=0)
    y_must = lam < 0 or neck.b1L == 0
    z_must = lam < 2 - as_int(m, "m") or b0Sigma == 1
    return (y_must, z_must)


def check_boundary_image(b1_sigma: int, image_dim: int) -> None:
    """The boundary map image is half-dimensional in H^1 of the link;
    declared data violating 2 * image = b1(Sigma) is rejected."""
    b1_sigma = as_int(b1_sigma, "b1(Sigma)", least=0)
    image_dim = as_int(image_dim, "image dimension", least=0)
    if 2 * image_dim != b1_sigma:
        raise InconsistentProfileError(
            f"boundary image must be half of b1(Sigma): "
            f"2*{shown(image_dim)} != {shown(b1_sigma)}"
        )
