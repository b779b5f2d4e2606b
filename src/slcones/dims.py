"""Integer dimension bookkeeping for desingularization moduli spaces.

Every formula here is pure integer arithmetic over a declarative
topology profile: Betti numbers of the compact piece and of the gluing
necks, end counts, and cone stability indices.  The module derives
deformation/obstruction dimensions, the glued Betti number b1(N), the
family dimension, and the singularity index, and rejects profiles whose
numbers violate the exact-sequence constraints instead of clamping.

The span dimension dimY of the admissible asymptotic classes cannot be
derived from Betti numbers alone; it is supplied by the caller (exactly
computable in the torus-cone case) and validated here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InconsistentProfileError, InputError, WallError, as_int

__all__ = [
    "ConeData",
    "NeckTopology",
    "TopologyProfile",
    "AcDims",
    "IndexReport",
    "DimensionReport",
    "dim_I",
    "ac_moduli_dims",
    "dim_Z",
    "b1_N",
    "dim_F_and_index",
    "full_report",
    "rate_lambda_dims",
    "moduli_jump",
    "yz_vanishing_check",
    "check_boundary_image",
]


def _nonneg(value: int, what: str) -> int:
    value = as_int(value, what)
    if value < 0:
        raise InputError(f"{what} must be nonnegative, got {value}")
    return value


@dataclass(frozen=True)
class ConeData:
    """One singular cone: number of link components l and stability
    index; ``rigid`` marks whether the index formula applies as stated."""

    l: int
    s_ind: int
    rigid: bool = True

    def __init__(self, l: int, s_ind: int, rigid: bool = True):
        if not isinstance(rigid, bool):
            raise InputError(f"rigid must be true or false, got {rigid!r}")
        object.__setattr__(self, "l", _nonneg(l, "link component count"))
        object.__setattr__(self, "s_ind", _nonneg(s_ind, "stability index"))
        object.__setattr__(self, "rigid", rigid)
        if self.l < 1:
            raise InputError("every cone has at least one link component")


@dataclass(frozen=True)
class NeckTopology:
    """Betti data of one asymptotically conical neck."""

    b0L: int
    b1L: int
    b1csL: int

    def __init__(self, b0L: int, b1L: int, b1csL: int):
        object.__setattr__(self, "b0L", _nonneg(b0L, "b0(L)"))
        object.__setattr__(self, "b1L", _nonneg(b1L, "b1(L)"))
        object.__setattr__(self, "b1csL", _nonneg(b1csL, "b1_cs(L)"))
        if self.b0L < 1:
            raise InputError("a neck has at least one component")


@dataclass(frozen=True)
class TopologyProfile:
    m: int
    q: int
    b1csX: int
    cones: tuple
    necks: tuple
    dimY: Optional[int] = None

    def __init__(self, m, q, b1csX, cones: Sequence, necks: Sequence, dimY=None):
        m = as_int(m, "ambient dimension m")
        if m < 3:
            raise InputError(f"ambient dimension must be >= 3, got {m}")
        q = _nonneg(q, "component count q")
        if q < 1:
            raise InputError("need at least one component")
        cones = tuple(c if isinstance(c, ConeData) else ConeData(**c) for c in cones)
        necks = tuple(n if isinstance(n, NeckTopology) else NeckTopology(**n) for n in necks)
        if len(cones) != len(necks):
            raise InputError(
                f"profile lists {len(cones)} cones but {len(necks)} necks"
            )
        if dimY is not None:
            dimY = _nonneg(dimY, "dimY")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "b1csX", _nonneg(b1csX, "b1_cs(X')"))
        object.__setattr__(self, "cones", cones)
        object.__setattr__(self, "necks", necks)
        object.__setattr__(self, "dimY", dimY)

    @property
    def n(self) -> int:
        return len(self.cones)


@dataclass(frozen=True)
class AcDims:
    """Per-neck moduli dimensions at the three standard rates."""

    dimY: int
    dimZ: int
    dimM0: int


@dataclass(frozen=True)
class IndexReport:
    dimF: int
    indX: int
    non_rigid_warning: bool


@dataclass(frozen=True)
class DimensionReport:
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
    val = p.b1csX + p.q - sum(c.l for c in p.cones)
    if val < 0:
        raise InconsistentProfileError(
            f"dim I = {val} < 0: the end count exceeds what the exact "
            f"sequence of the pair allows"
        )
    return val


def ac_moduli_dims(neck: NeckTopology, l: int) -> AcDims:
    """Dimensions of the neck's moduli space at the three rate regimes,
    together with its Y and Z invariant-space dimensions."""
    l = _nonneg(l, "end count l")
    dim_y = neck.b1L - neck.b0L + l - neck.b1csL
    dim_z = l - neck.b0L
    dim_m0 = neck.b1L - neck.b0L + l
    if dim_y < 0 or dim_z < 0 or dim_m0 < 0:
        raise InconsistentProfileError(
            f"negative neck dimension from (b0={neck.b0L}, b1={neck.b1L}, "
            f"b1_cs={neck.b1csL}, l={l}): "
            f"(dimY, dimZ, dimM0) = ({dim_y}, {dim_z}, {dim_m0})"
        )
    return AcDims(dim_y, dim_z, dim_m0)


def dim_Z(p: TopologyProfile) -> int:
    """Dimension of the joint area-invariant space after the q - 1
    independent matching restrictions: 1 - q + sum l_i - sum b0(L_i)."""
    val = 1 - p.q + sum(c.l for c in p.cones) - sum(n.b0L for n in p.necks)
    if val < 0:
        raise InconsistentProfileError(f"dim Z = {val} < 0")
    return val


def b1_N(p: TopologyProfile) -> int:
    """First Betti number of the glued compact manifold:
    dimY + 1 + b1_cs(X') + sum b1_cs(L_i) - sum l_i."""
    if p.dimY is None:
        raise InputError("profile must carry dimY to compute b1(N)")
    val = p.dimY + 1 + p.b1csX + sum(n.b1csL for n in p.necks) - sum(
        c.l for c in p.cones
    )
    if val < 0:
        raise InconsistentProfileError(f"b1(N) = {val} < 0")
    return val


def dim_F_and_index(p: TopologyProfile) -> IndexReport:
    """Family dimension dimF = dimY + 1 - q + sum b1_cs(L_i) and the
    singularity index indX = dimF + sum s-ind(C_i).

    The identity dimF = b1(N) - dim I is rechecked; a profile carrying a
    non-rigid cone gets the warning flag (the index formula needs a
    correction the profile cannot express)."""
    if p.dimY is None:
        raise InputError("profile must carry dimY to compute dimF")
    dim_f = p.dimY + 1 - p.q + sum(n.b1csL for n in p.necks)
    if dim_f < 0:
        raise InconsistentProfileError(f"dim F = {dim_f} < 0")
    if dim_f != b1_N(p) - dim_I(p):
        raise InconsistentProfileError(
            f"identity dimF = b1(N) - dimI violated: "
            f"{dim_f} != {b1_N(p)} - {dim_I(p)}"
        )
    ind_x = dim_f + sum(c.s_ind for c in p.cones)
    warn = any(not c.rigid for c in p.cones)
    return IndexReport(dim_f, ind_x, warn)


def full_report(p: TopologyProfile) -> DimensionReport:
    """All dimension formulas evaluated on one profile."""
    per = [ac_moduli_dims(n, c.l) for n, c in zip(p.necks, p.cones)]
    idx = dim_F_and_index(p)
    return DimensionReport(
        dimI=dim_I(p),
        dimZ=dim_Z(p),
        dimYi=tuple(a.dimY for a in per),
        dimZi=tuple(a.dimZ for a in per),
        dimML0=tuple(a.dimM0 for a in per),
        b1N=b1_N(p),
        dimF=idx.dimF,
        indX=idx.indX,
        non_rigid_warning=idx.non_rigid_warning,
    )


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
    if exceptional:
        raise WallError("rate lies in the exceptional set; dimension jumps there")
    if regime == "negative":
        return neck.b1csL
    if regime == "positive":
        if n_sigma_lambda is None:
            raise InputError("positive regime needs N_Sigma(lambda)")
        val = neck.b1L - neck.b0L + as_int(n_sigma_lambda, "N_Sigma(lambda)")
        if val < 0:
            raise InconsistentProfileError(f"moduli dimension {val} < 0")
        return val
    raise InputError(f"regime must be 'positive' or 'negative', got {regime!r}")


def moduli_jump(dim_m0: int, s_ind: int, m: int) -> int:
    """Moduli dimension just above rate 0 for a neck on a rigid cone:
    the translations and the cone's excess eigenfunctions enter, adding
    s-ind + 2m to the rate-0 dimension."""
    return _nonneg(dim_m0, "dimM0") + _nonneg(s_ind, "s_ind") + 2 * as_int(m, "m")


def yz_vanishing_check(
    neck: NeckTopology, lam: float, b0Sigma: int, m: int
) -> tuple:
    """Which of the two invariants are forced to vanish: Y when the rate
    is negative or b1(L) = 0; Z when the rate is below 2 - m or the
    cone link is connected."""
    b0Sigma = _nonneg(b0Sigma, "b0(Sigma)")
    y_must = lam < 0 or neck.b1L == 0
    z_must = lam < 2 - as_int(m, "m") or b0Sigma == 1
    return (y_must, z_must)


def check_boundary_image(b1_sigma: int, image_dim: int) -> None:
    """The boundary map image is half-dimensional in H^1 of the link;
    declared data violating 2 * image = b1(Sigma) is rejected."""
    b1_sigma = _nonneg(b1_sigma, "b1(Sigma)")
    image_dim = _nonneg(image_dim, "image dimension")
    if 2 * image_dim != b1_sigma:
        raise InconsistentProfileError(
            f"boundary image must be half of b1(Sigma): "
            f"2*{image_dim} != {b1_sigma}"
        )
