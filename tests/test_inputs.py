"""One input policy, checked as a table.

Every public constructor and entry point either answers or raises an
:class:`~slcones.errors.SLConesError`, whatever a caller hands it.  Each
row of ``ROWS`` is a pipeline from plain caller data to an answer (a
constructor, or a constructor feeding the entry points that read what it
built, such as ``exponents`` or ``full_report``) with one valid set of
arguments.  Every argument is a marked leaf, or a list or tuple of them;
a leaf's mark names the reader of ``slcones.errors`` that reads it.  The
table replaces one node at a time, a whole argument, an entry of a list
or any leaf inside one, by each value of ``HOSTILE``.  The call must
then raise an ``SLConesError``, or return where the node's reader
accepts the value (``10**400`` is a valid integer, ``"1"`` a valid exact
rational, ``1j`` a valid frame entry).  Count-like leaves (sample counts
and dimensions that set the work) draw only the values that are not
integers: a huge valid count is a slow request, not a bad input.  The
dimension of ``identity_plane`` and ``verify_sl_hl_cone`` is an ``Int``
leaf: an m beyond numpy's largest array is refused at once.
"""
import math
import numbers
import struct
import time
from fractions import Fraction

import numpy as np
import pytest

from slcones.consum import (
    BalanceSolution,
    Edge,
    IntersectionGraph,
    PhaseFamilyQuery,
    bipartition_oracle,
    check_balance,
    family_balance_region,
    feasible,
    moduli_dim_relation,
    phase_region,
    solve_areas,
)
from slcones.dims import (
    ConeData,
    NeckTopology,
    TopologyProfile,
    ac_moduli_dims,
    check_boundary_image,
    full_report,
    moduli_jump,
    rate_lambda_dims,
    yz_vanishing_check,
)
from slcones.errors import (
    InputError,
    NumericError,
    RATIONAL_MAX_DENOMINATOR,
    SLConesError,
    as_finite,
    as_int,
    as_rational,
    read_rational,
    shown,
)
from slcones.lawlor import (
    AngleSpec,
    NeckParams,
    a_from_angles,
    angles_from_a,
    neck_point,
    sphere_area,
    verify_sl_hl_cone,
    verify_sl_neck,
)
from slcones.planes import (
    SLPlane,
    canonical_transform,
    characteristic_angles,
    identity_plane,
    phi_frame,
)
from slcones.spectrum import (
    ConeSpectrum,
    enumerate_spectrum,
    exponents,
    hl_eigenvalue,
    n_sigma,
    stability_index,
)
from slcones.t2cone import (
    T2PairBasis,
    T2Singularity,
    family_region,
    gluing_candidates,
    h1_order,
    k_from_generator,
    two_singularity_gluings,
)

HOSTILE = (True, "1", None, math.nan, math.inf, -math.inf, 10**400, 10**5000, -(10**5000), 1j,
           [1], np.bool_(True))
NOT_INT = tuple(v for v in HOSTILE if type(v) is not int)


def _accepts(reader):
    def accepts(v):
        try:
            reader(v, "x")
        except InputError:
            return False
        return True

    return accepts


class Leaf:
    """A valid argument value, the hostile values drawn in its place and
    the test of which of them its reader accepts."""

    accepts = staticmethod(lambda v: False)
    draws = HOSTILE

    def __init__(self, value):
        self.value = value


class Int(Leaf):
    accepts = staticmethod(_accepts(as_int))


class Count(Int):
    """An integer that sets the work, such as a sample count."""

    draws = NOT_INT


class Real(Leaf):
    accepts = staticmethod(_accepts(as_finite))


class Rational(Leaf):
    accepts = staticmethod(_accepts(read_rational))


class Entry(Leaf):
    """A frame entry: any finite complex number."""

    accepts = staticmethod(lambda v: isinstance(v, complex))


class Flag(Leaf):
    accepts = staticmethod(lambda v: v is True)


class Word(Leaf):
    """A keyword such as a regime name."""


def _plain(node):
    if isinstance(node, Leaf):
        return node.value
    if isinstance(node, (list, tuple)):
        return type(node)(_plain(x) for x in node)
    return node


def _nodes(node, path=()):
    """(path, node) for every node below the argument tuple ``node``."""
    for i, child in enumerate(node):
        yield path + (i,), child
        if isinstance(child, (list, tuple)):
            yield from _nodes(child, path + (i,))


def _replace(node, path, new):
    items = list(node)
    items[path[0]] = new if len(path) == 1 else _replace(items[path[0]], path[1:], new)
    return type(node)(items)


def cases(args):
    """(path, value, accepted) for one hostile value at one node."""
    for path, node in _nodes(args):
        for v in node.draws if isinstance(node, Leaf) else HOSTILE:
            yield path, v, isinstance(node, Leaf) and node.accepts(v)


def _multiplicity(m, entries, cutoff, lam):
    return ConeSpectrum(m, entries, cutoff).multiplicity(lam)


def _graph(q, edges):
    g = IntersectionGraph(q, edges)
    return feasible(g), solve_areas(g), bipartition_oracle(g)


def _balance(q, edges, A):
    return check_balance(IntersectionGraph(q, edges), BalanceSolution(A))


def _family(q, edges, pairings, t, m):
    return family_balance_region(IntersectionGraph(q, edges), pairings, t, None, m)


def _family_with_areas(q, edges, pairings, t, A, m):
    return family_balance_region(IntersectionGraph(q, edges), pairings, t, BalanceSolution(A), m)


def _profile(m, q, b1csX, cones, necks, dimY):
    return full_report(TopologyProfile(m, q, b1csX, cones, necks, dimY))


def _cycle():
    return [[Int(1), Int(2), Rational(1)], [Int(2), Int(1), Rational(Fraction(1, 2))]]


ROWS = [
    # spectrum
    ("hl_eigenvalue", hl_eigenvalue, (Int(3), [Int(1), Int(2)])),
    ("ConeSpectrum", _multiplicity,
     (Int(3), [[Rational(0), Int(1)], [Rational(3), Int(6)]], Rational(6), Rational(3))),
    ("ConeSpectrum -> exponents -> n_sigma",
     lambda m, entries, cutoff, delta: n_sigma(exponents(ConeSpectrum(m, entries, cutoff)), delta),
     (Int(3), [[Rational(0), Int(1)], [Rational(3), Int(6)]], Rational(6), Rational(1))),
    ("enumerate_spectrum -> n_sigma, multiplicity_at",
     lambda m, cutoff, delta: (lambda d: (n_sigma(d, delta), d.multiplicity_at(delta)))(
         exponents(enumerate_spectrum(m, cutoff))),
     (Int(3), Int(8), Rational(2))),
    ("stability_index", stability_index, (Count(3),)),
    # lawlor
    ("NeckParams -> angles_from_a",
     lambda a, tol: angles_from_a(NeckParams(a), tol),
     ([Real(4.0), Real(1.0), Real(1.0)], Real(1e-10))),
    ("AngleSpec -> a_from_angles",
     lambda phi, A, sum_tol, tol: a_from_angles(AngleSpec(phi, A, sum_tol), tol),
     ([Real(math.pi / 3)] * 3, Real(sphere_area(3)), Real(1e-6), Real(1e-10))),
    ("neck_point", lambda a, y, x: neck_point(NeckParams(a), y, x),
     ([Real(1.0), Real(2.0), Real(3.0)], Real(0.5), [Real(1.0), Real(0.0), Real(0.0)])),
    ("verify_sl_neck", lambda a, n: verify_sl_neck(NeckParams(a), n),
     ([Real(1.0), Real(2.0), Real(3.0)], Count(4))),
    ("verify_sl_hl_cone", verify_sl_hl_cone, (Int(3), Count(4))),
    ("sphere_area", sphere_area, (Count(3),)),
    # planes
    ("SLPlane", SLPlane,
     ([[Entry(1.0), Entry(0.0)], [Entry(0.0), Entry(1.0)]],)),
    ("identity_plane", identity_plane, (Int(3),)),
    ("phi_frame -> characteristic_angles, canonical_transform",
     lambda phi, tol: (lambda p1, p2: (characteristic_angles(p1, p2, tol),
                                       canonical_transform(p1, p2, tol)))(
         identity_plane(3), phi_frame(phi)),
     ([Real(math.pi / 3)] * 3, Real(1e-9))),
    # consum
    ("Edge", Edge, (Int(1), Int(2), Rational(1))),
    ("IntersectionGraph -> feasible, solve_areas, bipartition_oracle", _graph,
     (Int(2), _cycle())),
    ("BalanceSolution -> check_balance", _balance,
     (Int(2), _cycle(), [Rational(1), Rational(2)])),
    ("family_balance_region, exact", _family,
     (Count(2), _cycle(), [Rational(1), Rational(-1)], Real(0.5), Int(3))),
    ("family_balance_region, with areas", _family_with_areas,
     (Count(2), _cycle(), [Real(0.0), Real(0.0)], Real(0.5), [Rational(1), Rational(2)], Int(3))),
    ("moduli_dim_relation", moduli_dim_relation, (Int(3), Int(2), Int(1))),
    ("PhaseFamilyQuery -> phase_region",
     lambda *args: phase_region(PhaseFamilyQuery(*args)),
     (Real(1.0), Real(2.0), Real(0.5), Real(-0.25), Real(1.3), Int(3))),
    # dims
    ("TopologyProfile -> full_report", _profile,
     (Int(3), Int(1), Int(0),
      [{"l": 1, "s_ind": 0}], [{"b0L": 1, "b1L": 1, "b1csL": 0}], Int(2))),
    ("ConeData", ConeData, (Int(2), Int(0), Flag(True))),
    ("NeckTopology -> ac_moduli_dims",
     lambda b0, b1, b1cs, l: ac_moduli_dims(NeckTopology(b0, b1, b1cs), l),
     (Int(1), Int(1), Int(0), Int(2))),
    ("rate_lambda_dims",
     lambda regime, n, exceptional: rate_lambda_dims(NeckTopology(1, 1, 0), regime, n, exceptional),
     (Word("positive"), Int(2), Flag(False))),
    ("moduli_jump", moduli_jump, (Int(1), Int(0), Int(3))),
    ("yz_vanishing_check",
     lambda lam, b0, m: yz_vanishing_check(NeckTopology(1, 1, 0), lam, b0, m),
     (Real(0.5), Int(1), Int(3))),
    ("check_boundary_image", check_boundary_image, (Int(2), Int(1))),
    # t2cone
    ("T2Singularity -> gluing_candidates, h1_order",
     lambda k, h1X, j: (lambda s: (gluing_candidates(s), h1_order(s, h1X, j)))(T2Singularity(k)),
     ([Int(-1), Int(0), Int(1)], Int(2), Int(2))),
    ("k_from_generator", k_from_generator, (Int(1), Int(1))),
    ("T2PairBasis -> two_singularity_gluings",
     lambda b1, b2: two_singularity_gluings(T2PairBasis(b1, b2)),
     ([[Rational(1), Rational(0)], [Rational(0), Rational(0)]],
      [[Rational(0), Rational(0)], [Rational(1), Rational(0)]])),
    ("family_region", family_region, (Real(math.pi), Int(1))),
]


@pytest.mark.parametrize("name, fn, args", ROWS, ids=[r[0] for r in ROWS])
def test_every_value_answers_or_is_an_slcones_error(name, fn, args):
    fn(*_plain(args))  # the baseline itself answers
    wrong = []
    for path, value, accepted in cases(args):
        try:
            fn(*_plain(_replace(args, path, value)))
        except SLConesError:
            continue
        except Exception as exc:  # the table reports every escape
            wrong.append(f"{path} = {shown(value)!r}: {type(exc).__name__}: {exc}")
            continue
        if not accepted:
            wrong.append(f"{path} = {shown(value)!r}: answered, but its reader rejects it")
    assert not wrong, "\n".join(wrong)


def test_shown_replaces_only_over_long_numbers():
    assert shown(10**50 - 1) == 10**50 - 1
    assert f"{shown(-(10**5000))!r}" == "<-int of 5001 digits>"
    assert str(shown(Fraction(1, 3 * 10**60))) == "<fraction of 1/61 digits>"
    assert str(shown((1, 10**400))) == "(1, <int of 401 digits>)"
    assert shown(True) is True and shown("1") == "1"


def test_shown_replaces_an_over_long_string():
    assert shown("x" * 50) == "x" * 50
    assert f"{shown('x' * 51)!r}" == "<string of 51 characters>"
    assert str(shown({"a": ["1" * 5000]})) == "{'a': [<string of 5000 characters>]}"
    with pytest.raises(InputError) as exc:
        read_rational("1/0", "x")
    assert str(exc.value) == "x is not a valid rational: '1/0' (zero denominator)"


def abc_rational(x, what):
    """The reading of ``as_rational`` by the ``numbers`` ABCs alone, which
    its int and float fast paths must equal."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, bool):
        if isinstance(x, numbers.Rational):
            return Fraction(x)
        if isinstance(x, numbers.Real):
            v = float(x)
            if math.isfinite(v):
                return Fraction(v).limit_denominator(RATIONAL_MAX_DENOMINATOR)
    raise InputError(f"{what} must be a finite rational or real number, got {shown(x)!r}")


def _reading(reader, x):
    try:
        v = reader(x, "x")
    except InputError as exc:
        return "InputError", str(exc)
    return type(v), v


def test_rational_fast_paths_read_as_the_abcs():
    rng = np.random.default_rng(20261020)
    ints = [0, 1, -1, 10**400, -(10**400), *(int(k) for k in rng.integers(-2**62, 2**62, 200))]
    floats = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
              3.0, -7.0, 2.0**60, 1e22, 0.1, 3.3219, math.nan, math.inf, -math.inf,
              *(struct.unpack("<d", struct.pack("<Q", int(bits)))[0]  # any sign and exponent
                for bits in rng.integers(0, 2**64, 1000, dtype=np.uint64)),
              *(struct.unpack("<d", struct.pack("<Q", int(bits)))[0]  # subnormal
                for bits in rng.integers(1, 2**52, 50, dtype=np.uint64)),
              *rng.uniform(-9.0, 9.0, 200)]
    values = [*ints, *floats, *map(np.int64, ints[5:25]), *map(np.float64, floats),
              True, False, np.bool_(True)]
    for x in values:
        assert _reading(as_rational, x) == _reading(abc_rational, x), repr(x)
    assert _reading(as_rational, math.nan) == (
        "InputError", "x must be a finite rational or real number, got nan")


@pytest.mark.parametrize("text, digits", [
    ("1e4299", 4300), ("-1e-4299", 4300), ("1.5e4299", 4300), ("1" * 4300, 4300),
    ("0." + "0" * 4298 + "1", 4300), ("1_0e4_298", 4300),
    ("1e4300", None), ("-1e-4300", None), ("1" * 4301, None), ("1" * 3000 + "." + "1" * 3000, None),
    ("1e10000000", None), ("1e100000000", None), ("1e-100000000", None), ("1e" + "9" * 4300, None),
], ids=lambda v: f"{v[:6]}..({len(v)} chars)" if isinstance(v, str) and len(v) > 16 else None)
def test_decimal_string_past_the_digit_bound_is_refused_before_it_is_built(text, digits):
    if digits is not None:
        x = read_rational(text, "x")
        assert max(len(str(x.numerator)), len(str(x.denominator))) == digits
        return
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(InputError, match="x needs more than 4300 digits"):
            read_rational(text, "x")
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.01


def test_exponent_past_the_int_limit_is_not_a_rational():
    with pytest.raises(InputError, match="is not a valid rational"):
        read_rational("1e" + "9" * 4301, "x")


def test_float_reads_by_its_binary_value_and_a_string_as_its_decimal():
    assert as_rational(0.1, "x") == Fraction(1, 10)
    assert as_rational(3.3219, "x") == Fraction(2258530744634, 679891250379)
    assert read_rational("3.3219", "x") == Fraction(33219, 10000)


_S = T2Singularity((-1, 0, 1))
_NECK = NeckTopology(1, 1, 0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: phase_region(PhaseFamilyQuery(1.0, 2.0, math.nan, -0.25, 1.3, 3)),
                 id="phase theta1 nan"),
    pytest.param(lambda: phase_region(PhaseFamilyQuery(1.0, 2.0, 0.5, math.inf, 1.3, 3)),
                 id="phase theta2 inf"),
    pytest.param(lambda: AngleSpec((1.0, 1.0, 1.0), 1.0, sum_tol=math.nan), id="sum_tol nan"),
    pytest.param(lambda: NeckParams((True, 1, 1)), id="neck bool"),
    pytest.param(lambda: NeckParams(("1", "2", "3")), id="neck strings"),
    pytest.param(lambda: NeckParams((1, 2, 10**400)), id="neck huge int"),
    pytest.param(lambda: phi_frame([math.nan, 1.0, 2.0]), id="phi_frame nan"),
    pytest.param(lambda: h1_order(_S, 2, True), id="h1_order bool j"),
    pytest.param(lambda: yz_vanishing_check(_NECK, math.nan, 1, 3), id="yz lambda nan"),
    pytest.param(lambda: yz_vanishing_check(_NECK, "1", 1, 3), id="yz lambda string"),
    pytest.param(lambda: SLPlane([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
                 id="frame strings"),
    pytest.param(lambda: SLPlane(np.eye(3, dtype=bool)), id="frame bool array"),
    pytest.param(lambda: SLPlane([[1.0, 0.0], [0.0]]), id="frame ragged"),
    pytest.param(lambda: TopologyProfile(3, 1, 0, [5], [_NECK], 2), id="cone not a mapping"),
    pytest.param(lambda: TopologyProfile(3, 1, 0, [{"l": 1}], [_NECK], 2), id="cone key missing"),
    pytest.param(lambda: TopologyProfile(3, 1, 0, [{"l": 1, "s_ind": 0, "x": 1}], [_NECK], 2),
                 id="cone key unknown"),
    pytest.param(lambda: TopologyProfile(3, 1, 0, None, [], 2), id="cones None"),
    pytest.param(lambda: BalanceSolution("12"), id="areas from a string"),
    pytest.param(lambda: rate_lambda_dims(_NECK, "negative", None, "no"), id="exceptional 'no'"),
])
def test_probed_defects_are_input_errors(call):
    with pytest.raises(InputError):
        call()


def test_phase_region_scale_forms_no_power_of_psi():
    # psi^m overflowed at (10, 400) and underflowed to a division by zero at (1e-200, 2)
    for psi, m in ((10.0, 400), (1e-200, 2), (1.3, 10**400)):
        res = phase_region(PhaseFamilyQuery(1.0, 2.0, 0.5, -0.25, psi, m))
        assert res.region == "positive" and 0 < res.t < math.inf
    with pytest.raises(NumericError, match="overflows"):
        phase_region(PhaseFamilyQuery(1.0, 2.0, 0.5, -0.25, 5e-324, 3))


def test_family_region_beyond_the_float_range():
    res = family_region(math.pi, 10**400)
    assert res.t == pytest.approx(1e-200, rel=1e-12)
    with pytest.raises(NumericError, match="underflows"):
        family_region(5e-324, 10**400)


def test_integral_float_neck_index_reads_as_the_integer():
    assert h1_order(_S, 2, 1.0) == h1_order(_S, 2, 1)


def test_numeric_frames_are_still_accepted():
    for frame in (np.eye(3), np.eye(3, dtype=int), np.eye(3, dtype=complex),
                  [[1, 0], [0, 1]], [[1.0, 0j], [0j, np.float64(1.0)]]):
        assert np.array_equal(SLPlane(frame).frame, np.eye(len(frame)))
