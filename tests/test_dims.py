"""Tests for the integer dimension formulas and profile validation."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slcones.dims import (
    AcDims,
    DimensionReport,
    ConeData,
    NeckTopology,
    TopologyProfile,
    ac_moduli_dims,
    b1_N,
    check_boundary_image,
    dim_F_and_index,
    dim_I,
    dim_Z,
    full_report,
    moduli_jump,
    rate_lambda_dims,
    yz_vanishing_check,
)
from slcones.errors import InconsistentProfileError, InputError, WallError


def hl_neck(m):
    """Neck topology of the torus-cone desingularization in dimension m."""
    return NeckTopology(b0L=1, b1L=m - 2, b1csL=0)


LAWLOR_NECK = NeckTopology(b0L=1, b1L=0, b1csL=1)


def profile(m=3, q=1, b1csX=0, cones=(), necks=(), dimY=None):
    return TopologyProfile(m, q, b1csX, cones, necks, dimY)


class TestDimI:
    def test_single_cone_single_end(self):
        p = profile(cones=[ConeData(1, 0)], necks=[hl_neck(3)])
        assert dim_I(p) == 0

    def test_two_cones_with_handles(self):
        p = profile(b1csX=3, cones=[ConeData(1, 0), ConeData(1, 0)],
                    necks=[hl_neck(3), hl_neck(3)])
        assert dim_I(p) == 2

    def test_two_components_two_ends(self):
        for b1csX in (0, 1, 5):
            p = profile(q=2, b1csX=b1csX, cones=[ConeData(2, 0)], necks=[LAWLOR_NECK])
            assert dim_I(p) == b1csX

    def test_negative_rejected(self):
        p = profile(cones=[ConeData(3, 0)], necks=[NeckTopology(1, 0, 0)])
        with pytest.raises(InconsistentProfileError):
            dim_I(p)


class TestAcModuliDims:
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_hl_neck_moduli(self, m):
        dims = ac_moduli_dims(hl_neck(m), l=1)
        assert dims.dimM0 == m - 2
        assert dims.dimZ == 0

    def test_lawlor_neck(self):
        dims = ac_moduli_dims(LAWLOR_NECK, l=2)
        assert dims == AcDims(dimY=0, dimZ=1, dimM0=1)

    def test_each_end_own_component_kills_z(self):
        dims = ac_moduli_dims(NeckTopology(b0L=3, b1L=3, b1csL=0), l=3)
        assert dims.dimZ == 0

    def test_negative_rejected(self):
        with pytest.raises(InconsistentProfileError):
            ac_moduli_dims(NeckTopology(b0L=2, b1L=0, b1csL=0), l=1)


class TestDimZ:
    def test_one_lawlor_neck(self):
        p = profile(cones=[ConeData(2, 0)], necks=[LAWLOR_NECK])
        assert dim_Z(p) == 1

    def test_one_hl_neck(self):
        p = profile(cones=[ConeData(1, 0)], necks=[hl_neck(3)])
        assert dim_Z(p) == 0

    def test_two_components_two_lawlor_necks(self):
        p = profile(q=2, cones=[ConeData(2, 0), ConeData(2, 0)],
                    necks=[LAWLOR_NECK, LAWLOR_NECK])
        assert dim_Z(p) == 1


class TestB1N:
    def test_torus_cone_trivial_class(self):
        for b1csX in (0, 2):
            p = profile(b1csX=b1csX, cones=[ConeData(1, 0)], necks=[hl_neck(3)],
                        dimY=1)
            assert b1_N(p) == b1csX + 1

    def test_torus_cone_nontrivial_class(self):
        p = profile(b1csX=4, cones=[ConeData(1, 0)], necks=[hl_neck(3)], dimY=0)
        assert b1_N(p) == 4

    def test_two_cone_case(self):
        for dimY in (0, 1, 2):
            p = profile(b1csX=3, cones=[ConeData(1, 0), ConeData(1, 0)],
                        necks=[hl_neck(3), hl_neck(3)], dimY=dimY)
            assert b1_N(p) == dimY + 3 - 1

    def test_requires_dimY(self):
        p = profile(cones=[ConeData(1, 0)], necks=[hl_neck(3)])
        with pytest.raises(InputError):
            b1_N(p)


class TestDimFAndIndex:
    def test_index_one_singularity(self):
        p = profile(cones=[ConeData(1, 0)], necks=[hl_neck(3)], dimY=1)
        rep = dim_F_and_index(p)
        assert rep.dimF == 1
        assert rep.indX == 1
        assert not rep.non_rigid_warning

    def test_stable_cones_make_index_equal_family_dim(self):
        p = profile(q=2, b1csX=1, cones=[ConeData(1, 0), ConeData(2, 0)],
                    necks=[hl_neck(3), LAWLOR_NECK], dimY=2)
        rep = dim_F_and_index(p)
        assert rep.indX == rep.dimF

    def test_unstable_cone_shifts_index(self):
        p = profile(cones=[ConeData(1, 6)], necks=[hl_neck(4)], dimY=1)
        rep = dim_F_and_index(p)
        assert rep.indX == rep.dimF + 6

    def test_non_rigid_cone_flagged(self):
        # a plane-pair cone is not rigid, so the index value carries a caveat
        p = profile(b1csX=1, cones=[ConeData(2, 0, rigid=False)],
                    necks=[LAWLOR_NECK], dimY=0)
        rep = dim_F_and_index(p)
        assert rep.indX == 1
        assert rep.non_rigid_warning

    @given(
        st.integers(1, 3), st.integers(0, 4), st.integers(0, 3),
        st.lists(st.tuples(st.integers(1, 3), st.integers(0, 5),
                           st.integers(1, 3), st.integers(0, 3), st.integers(0, 3)),
                 min_size=1, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_family_identity_holds_on_consistent_profiles(self, q, b1csX, dimY, raw):
        cones = [ConeData(l, s) for l, s, _, _, _ in raw]
        necks = [NeckTopology(b0, b1, b1cs) for _, _, b0, b1, b1cs in raw]
        p = profile(q=q, b1csX=b1csX, cones=cones, necks=necks, dimY=dimY)
        try:
            rep = dim_F_and_index(p)
        except InconsistentProfileError:
            return
        # the family dimension always splits as glued-Betti minus core
        assert rep.dimF == b1_N(p) - dim_I(p)
        assert rep.indX >= rep.dimF


class TestFullReport:
    def test_assembles_everything(self):
        p = profile(b1csX=2, cones=[ConeData(1, 0)], necks=[hl_neck(4)], dimY=1)
        rep = full_report(p)
        assert rep.dimI == 2
        assert rep.dimZ == 0
        assert rep.dimML0 == (2,)
        assert rep.b1N == 3
        assert rep.dimF == rep.b1N - rep.dimI
        assert rep.indX == rep.dimF


def per_formula_report(p: TopologyProfile) -> DimensionReport:
    """full_report as the public formulas compose it, each reading the
    profile itself: the neck dimensions in order, then dimF and indX
    (which raise for a missing dimY, dim F, b1(N) and dim I in that
    order), then dim I, dim Z and b1(N)."""
    per = [ac_moduli_dims(n, c.l) for n, c in zip(p.necks, p.cones)]
    idx = dim_F_and_index(p)
    return DimensionReport(
        dimI=dim_I(p), dimZ=dim_Z(p),
        dimYi=tuple(a.dimY for a in per), dimZi=tuple(a.dimZ for a in per),
        dimML0=tuple(a.dimM0 for a in per), b1N=b1_N(p),
        dimF=idx.dimF, indX=idx.indX, non_rigid_warning=idx.non_rigid_warning,
    )


def seeded_profile(rng):
    """Profile arguments with 0..4 cones drawn so that every formula is
    >= 0; in two draws of three, one to three of the numbers are then
    moved, so that one formula or several may break, and in one draw of
    eight dimY is left out."""
    cones, necks = [], []
    for _ in range(rng.randint(0, 4)):
        l = rng.randint(1, 3)
        b0, b1cs = rng.randint(1, l), rng.randint(0, 2)
        b1 = rng.randint(max(0, b0 + b1cs - l), b0 + b1cs - l + 3)
        cones.append([l, rng.randint(0, 9), rng.random() < 0.8])
        necks.append([b0, b1, b1cs])
    sum_l = sum(c[0] for c in cones)
    sum_b0, sum_b1cs = sum(n[0] for n in necks), sum(n[2] for n in necks)
    q = rng.randint(1, 1 + sum_l - sum_b0)
    b1cs_x = rng.randint(max(0, sum_l - q), sum_l - q + 3)
    dim_y = rng.randint(max(0, q - 1 - sum_b1cs, sum_l - 1 - b1cs_x - sum_b1cs), 2 * q + 2)
    top = [q, b1cs_x, dim_y]
    if rng.random() < 2 / 3:
        # (list, index, least value) of every number a move may change
        slots = [(top, 0, 1), (top, 1, 0), (top, 2, 0)]
        slots += [(c, 0, 1) for c in cones]
        slots += [(n, k, 1 if k == 0 else 0) for n in necks for k in range(3)]
        for row, k, least in rng.sample(slots, min(len(slots), rng.randint(1, 3))):
            row[k] = max(least, row[k] + rng.choice((-3, -2, -1, 1, 2, 3)))
    if rng.random() < 1 / 8:
        top[2] = None
    return top, cones, necks


def first_broken(top, cones, necks):
    """The first formula, in full_report's order, that the profile's
    numbers make negative (or the missing dimY), by the formulas
    themselves; None when there is none."""
    q, b1cs_x, dim_y = top
    sum_l = sum(c[0] for c in cones)
    sum_b0, sum_b1cs = sum(n[0] for n in necks), sum(n[2] for n in necks)
    necks_bad = any(min(b1 - b0 + c[0] - b1cs, c[0] - b0, b1 - b0 + c[0]) < 0
                    for c, (b0, b1, b1cs) in zip(cones, necks))
    checks = [
        ("negative neck dimension", necks_bad),
        ("profile must carry dimY", dim_y is None),
        ("dim F", dim_y is not None and dim_y + 1 - q + sum_b1cs < 0),
        ("b1(N)", dim_y is not None and dim_y + 1 + b1cs_x + sum_b1cs - sum_l < 0),
        ("dim I", b1cs_x + q - sum_l < 0),
        ("dim Z", 1 - q + sum_l - sum_b0 < 0),
    ]
    broken = [name for name, bad in checks if bad]
    return broken[0] if broken else None, len(broken)


def _outcome(fn, p):
    try:
        return fn(p)
    except InputError as exc:
        return type(exc), str(exc)


class TestFullReportOnePass:
    def test_equals_the_per_formula_route(self):
        rng = random.Random(20261020)
        seen = {}
        several = 0
        for _ in range(3000):
            top, cones, necks = seeded_profile(rng)
            p = TopologyProfile(3, top[0], top[1],
                                [ConeData(*c) for c in cones],
                                [NeckTopology(*n) for n in necks], top[2])
            got = _outcome(full_report, p)
            assert got == _outcome(per_formula_report, p), (top, cones, necks)
            first, count = first_broken(top, cones, necks)
            several += count > 1
            seen[first] = seen.get(first, 0) + 1
            if first is None:
                assert type(got) is DimensionReport
                assert got.dimF == got.b1N - got.dimI
            else:
                assert got[0] in (InputError, InconsistentProfileError)
                assert got[1].startswith(first), (first, got)
        # b1(N) = dim F + dim I, so b1(N) breaks first only with dim I
        assert len(seen) == 7 and min(seen.values()) >= 10, seen
        assert seen[None] > 1000 and several > 300


class TestRateLambdaDims:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_positive_regime_hl(self, m):
        # just above rate 0 only the constant eigenfunction contributes
        assert rate_lambda_dims(hl_neck(m), "positive", n_sigma_lambda=1) == m - 2

    def test_negative_regime_lawlor(self):
        assert rate_lambda_dims(LAWLOR_NECK, "negative") == 1

    def test_exceptional_rate_is_a_wall(self):
        with pytest.raises(WallError):
            rate_lambda_dims(hl_neck(3), "positive", n_sigma_lambda=7,
                             exceptional=True)

    def test_bad_regime(self):
        with pytest.raises(InputError):
            rate_lambda_dims(hl_neck(3), "sideways")
        with pytest.raises(InputError):
            rate_lambda_dims(hl_neck(3), "positive")

    def test_rigid_jump(self):
        assert moduli_jump(1, 0, 3) == 7
        assert moduli_jump(2, 6, 4) == 16


class TestYZVanishing:
    def test_negative_rate_kills_y(self):
        y, z = yz_vanishing_check(LAWLOR_NECK, lam=2 - 3, b0Sigma=2, m=3)
        assert y  # lam < 0
        assert not z  # lam = 2-m is not < 2-m and the link is disconnected

    def test_connected_link_kills_z(self):
        y, z = yz_vanishing_check(hl_neck(3), lam=1.5, b0Sigma=1, m=3)
        assert z
        assert not y  # b1 = 1 > 0 and lam > 0

    def test_no_criterion_fires(self):
        neck = NeckTopology(b0L=1, b1L=2, b1csL=0)
        assert yz_vanishing_check(neck, lam=0.0, b0Sigma=2, m=4) == (False, False)

    def test_zero_b1_kills_y(self):
        y, _ = yz_vanishing_check(NeckTopology(1, 0, 1), lam=1.0, b0Sigma=2, m=3)
        assert y


class TestValidation:
    def test_boundary_image_halving(self):
        check_boundary_image(2, 1)  # torus link
        check_boundary_image(0, 0)
        with pytest.raises(InconsistentProfileError):
            check_boundary_image(2, 2)
        with pytest.raises(InconsistentProfileError):
            check_boundary_image(3, 1)

    def test_profile_shape_checks(self):
        with pytest.raises(InputError):
            profile(cones=[ConeData(1, 0)], necks=[])
        with pytest.raises(InputError):
            TopologyProfile(2, 1, 0, [ConeData(1, 0)], [hl_neck(3)])
        with pytest.raises(InputError):
            ConeData(0, 0)
        with pytest.raises(InputError):
            ConeData(1, -1)
        with pytest.raises(InputError):
            NeckTopology(0, 1, 0)
        with pytest.raises(InputError):
            profile(cones=[ConeData(1, 0)], necks=[hl_neck(3)], dimY=-1)

    def test_profile_accepts_dict_entries(self):
        p = TopologyProfile(3, 1, 0, [{"l": 1, "s_ind": 0}],
                            [{"b0L": 1, "b1L": 1, "b1csL": 0}], dimY=1)
        assert p.n == 1
        assert full_report(p).indX == 1

    @pytest.mark.parametrize("rigid", ["no", "", 0, 1, None])
    def test_rigid_must_be_a_bool(self, rigid):
        with pytest.raises(InputError, match="rigid must be true or false"):
            ConeData(2, 0, rigid=rigid)
        assert ConeData(2, 0, rigid=False).rigid is False
