"""Record semantics, checked for every record type of the package.

Each input and result type is an immutable named tuple: a field cannot
be assigned, a rebuild from the same input is equal and hashes the same,
the repr names the class and its fields, and copy and pickle rebuild an
equal record.  ``SLPlane`` alone compares and hashes by identity.  A
record that checks its fields in ``__new__`` checks a replaced field the
same way.  A checked record's fields are its constructor's parameters,
and the CLI's JSON reader inverts its writer on each of them.
"""
import copy
import inspect
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from slcones import cli, consum, dims, lawlor, planes, spectrum, t2cone
from slcones.errors import InputError, SLConesError
from slcones.consum import (
    BalanceSolution,
    Edge,
    IntersectionGraph,
    PhaseFamilyQuery,
    moduli_dim_relation,
    phase_region,
    solve_areas,
)
from slcones.dims import (
    ConeData,
    NeckTopology,
    TopologyProfile,
    ac_moduli_dims,
    dim_F_and_index,
    full_report,
)
from slcones.lawlor import AngleSpec, NeckParams, SLResidual, sphere_area
from slcones.planes import SLPlane, characteristic_angles, identity_plane, phi_frame
from slcones.spectrum import ConeSpectrum, enumerate_spectrum, exponents, stability_index
from slcones.t2cone import T2PairBasis, T2Singularity, family_region, two_singularity_gluings

_CYCLE = [(1, 2, 1), (2, 1, Fraction(1, 2))]
_PROFILE = (3, 2, 0, [{"l": 2, "s_ind": 0}], [{"b0L": 1, "b1L": 1, "b1csL": 0}], 1)
_BASIS = ([[1, 0], [0, 1]], [[0, 1], [1, 0]])

# one builder per record type, each from one valid input
BUILDERS = {
    # consum
    "Edge": lambda: Edge(1, 2, Fraction(1, 2)),
    "IntersectionGraph": lambda: IntersectionGraph(2, _CYCLE),
    "BalanceSolution": lambda: solve_areas(IntersectionGraph(2, _CYCLE)),
    "ModuliDim": lambda: moduli_dim_relation(3, 2, 1),
    "PhaseFamilyQuery": lambda: PhaseFamilyQuery(1.0, 2.0, 0.5, -0.25, 1.3, 3),
    "PhaseRegionResult": lambda: phase_region(PhaseFamilyQuery(1.0, 2.0, 0.5, -0.25, 1.3, 3)),
    # dims
    "ConeData": lambda: ConeData(2, 0, False),
    "NeckTopology": lambda: NeckTopology(1, 1, 0),
    "TopologyProfile": lambda: TopologyProfile(*_PROFILE),
    "AcDims": lambda: ac_moduli_dims(NeckTopology(1, 1, 0), 2),
    "IndexReport": lambda: dim_F_and_index(TopologyProfile(*_PROFILE)),
    "DimensionReport": lambda: full_report(TopologyProfile(*_PROFILE)),
    # lawlor
    "NeckParams": lambda: NeckParams([4.0, 1.0, 1.0]),
    "AngleSpec": lambda: AngleSpec([math.pi / 3] * 3, sphere_area(3)),
    "SLResidual": lambda: SLResidual(1e-15, 2e-15),
    # planes
    "SLPlane": lambda: identity_plane(3),
    "PlanePairReport": lambda: characteristic_angles(identity_plane(3),
                                                     phi_frame([math.pi / 3] * 3)),
    # spectrum
    "ConeSpectrum": lambda: ConeSpectrum(3, [(0, 1), (Fraction(3), 6)], 6),
    "ExponentEntry": lambda: exponents(enumerate_spectrum(3, 6)).entries[0],
    "ExponentData": lambda: exponents(enumerate_spectrum(3, 6)),
    "StabilityReport": lambda: stability_index(3),
    # t2cone
    "T2Singularity": lambda: T2Singularity((1, -1, 0)),
    "T2PairBasis": lambda: T2PairBasis(*_BASIS),
    "GluingSolution": lambda: two_singularity_gluings(T2PairBasis(*_BASIS))[0],
    "FamilyRegionResult": lambda: family_region(math.pi, 1),
}


def test_every_record_type_has_a_builder():
    records = {
        name
        for module in (consum, dims, lawlor, planes, spectrum, t2cone)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
        and obj.__module__ == module.__name__
    }
    assert records == set(BUILDERS)


@pytest.mark.parametrize("name", BUILDERS)
def test_record_semantics(name):
    r = BUILDERS[name]()
    assert type(r).__name__ == name
    with pytest.raises(AttributeError):
        setattr(r, r._fields[0], r[0])
    text = repr(r)
    assert text.startswith(name + "(")
    assert all(f"{field}=" in text for field in r._fields)
    if name == "SLPlane":
        assert r == r and not r != r
        assert r != SLPlane(r.frame) and not r == SLPlane(r.frame)
        assert hash(r) == hash(r)
        for twin in (copy.copy(r), pickle.loads(pickle.dumps(r))):
            assert np.array_equal(twin.frame, r.frame)
        return
    again = BUILDERS[name]()
    assert again == r and hash(again) == hash(r)
    assert r == tuple(r)
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(twin) is type(r) and twin == r


_FIFTH = [math.pi / 5] * 5

# per record type that checks its fields in __new__: a field, a value the
# constructor accepts for it, the constructor call with that value, and a
# value it refuses
REPLACEMENTS = {
    "Edge": ("weight", "3/2", lambda: Edge(1, 2, Fraction(3, 2)), Fraction(-1, 2)),
    "IntersectionGraph": ("edges", [(1, 2, 1), (2, 1, 1)],
                          lambda: IntersectionGraph(2, [(1, 2, 1), (2, 1, 1)]), [(1, 3, 1)]),
    "BalanceSolution": ("A", (1, "1/2"), lambda: BalanceSolution((1, "1/2")), (0,)),
    "PhaseFamilyQuery": ("psi", 0.7, lambda: PhaseFamilyQuery(1.0, 2.0, 0.5, -0.25, 0.7, 3),
                         -1.0),
    "ConeData": ("s_ind", 4, lambda: ConeData(2, 4, False), -1),
    "NeckTopology": ("b1L", 3, lambda: NeckTopology(1, 3, 0), "3"),
    "TopologyProfile": ("cones", ({"l": 1, "s_ind": 2},),
                        lambda: TopologyProfile(3, 2, 0, [{"l": 1, "s_ind": 2}], _PROFILE[4], 1),
                        ({"l": 2, "s_ind": 0, "rigid": "no"},)),
    "NeckParams": ("a", (4, 1, 2), lambda: NeckParams([4, 1, 2]), (4, 1, "x")),
    "AngleSpec": ("phi", _FIFTH, lambda: AngleSpec(_FIFTH, sphere_area(3)), [math.pi / 2] * 2),
    "SLPlane": ("frame", np.diag([1j, -1j, 1.0]), lambda: SLPlane(np.diag([1j, -1j, 1.0])),
                2 * np.eye(3)),
    "ConeSpectrum": ("cutoff", 10, lambda: ConeSpectrum(3, [(0, 1), (Fraction(3), 6)], 10), 2),
    "T2Singularity": ("k", (0, 1, -1), lambda: T2Singularity((0, 1, -1)), (1, 1, 1)),
    "T2PairBasis": ("B2", ((0, 2), (2, 0)), lambda: T2PairBasis(_BASIS[0], ((0, 2), (2, 0))),
                    ((1, 0), (0, 1))),
}


def test_every_checked_record_has_replacements():
    checked = {
        name
        for module in (consum, dims, lawlor, planes, spectrum, t2cone)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, tuple)
        and obj.__new__.__code__.co_filename == module.__file__  # not namedtuple's own
    }
    assert checked == set(REPLACEMENTS)


@pytest.mark.parametrize("name", REPLACEMENTS)
def test_replace_checks_as_the_constructor(name):
    field, good, built, bad = REPLACEMENTS[name]
    r = BUILDERS[name]()
    with pytest.raises(SLConesError):
        r._replace(**{field: bad})
    got, want = r._replace(**{field: good}), built()
    assert type(got) is type(want)
    if name == "SLPlane":
        assert np.array_equal(got.frame, want.frame) and not got.frame.flags.writeable
    else:
        assert got == want and hash(got) == hash(want)
    if name != "SLPlane":  # planes compare by identity
        assert r._replace() == r
    with pytest.raises(InputError, match="has no field 'nope'"):
        r._replace(nope=1)


@pytest.mark.parametrize("name", ["NeckParams", "AngleSpec"])
def test_replace_refuses_the_derived_dimension(name):
    r = BUILDERS[name]()
    with pytest.raises(InputError, match="has no field 'm'"):
        r._replace(m=r.m + 1)
    with pytest.raises(InputError, match="has no field 'm'"):
        r._replace(m=r.m)


@pytest.mark.parametrize("name", REPLACEMENTS)
def test_fields_are_the_constructor_parameters(name):
    # checked_replace and the CLI's reader build a record by cls(**fields)
    cls = type(BUILDERS[name]())
    assert cls._fields == tuple(inspect.signature(cls.__new__).parameters)[1:]


# the record classes of the fields that hold records, as the CLI reads them
_ENTRIES = {
    "IntersectionGraph": {"edges": Edge},
    "TopologyProfile": {"cones": ConeData, "necks": NeckTopology},
}


@pytest.mark.parametrize("name", [name for name in REPLACEMENTS if name != "SLPlane"])
def test_json_round_trip(name):
    r = BUILDERS[name]()
    doc = json.loads(cli._dumps(cli._json(r)))
    assert cli._record(type(r), doc, "x", **_ENTRIES.get(name, {})) == r


@pytest.mark.parametrize("example", [
    lambda: two_singularity_gluings(T2PairBasis(*_BASIS)._replace(B1=((0.5, 0), (0, 1)))),
    lambda: full_report(TopologyProfile(*_PROFILE)._replace(cones=({"l": 2, "s_ind": 0},))),
    lambda: lawlor.angles_from_a(NeckParams([4, 1, 1])._replace(a=(4, 1, "x"))),
], ids=["t2cone", "dims", "lawlor"])
def test_replaced_fields_never_reach_a_kernel_unchecked(example):
    # each replacement skipped the checks once, and ended in an untyped error
    try:
        example()
    except SLConesError:
        pass
