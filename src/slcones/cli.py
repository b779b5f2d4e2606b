"""Command-line front end: every solver as a subcommand with JSON I/O.

Output is a single JSON document on standard output, serialized
deterministically (sorted keys, no whitespace), so identical inputs give
bit-identical bytes.  Where an output object reports a record of the
library, its keys are the record's field names camelCased (``s_ind``
becomes ``sInd``), and so are the input documents of ``consum``,
``dims`` and a ``t2cone`` basis.  Every ``--input`` document and list
entry is read by one key check: one that is not an object, lacks a
required key or has a key it does not define exits 2, naming the key.
Optional keys: a cone's ``rigid`` (default true), a profile's ``dimY``
and ``h1X`` beside a ``t2cone`` generator.  Exact rationals appear as
``"p/q"`` strings (plain integers when the denominator is 1); reals use
the shortest decimal that round-trips.  Errors are reported as a JSON
object on standard error, which carries nothing else.

``lawlor`` refuses with exit 2 an empty or non-numeric entry of ``--a``
or ``--phi``, naming the flag and the entry's position, and ``--area``
without ``--phi``, as it refuses ``--phi`` without ``--area``.

Exit codes: 0 success, 2 invalid input, 3 numeric/verification failure,
64 usage error (missing or unknown subcommand, malformed flags).  No
environment variable changes what the CLI does.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from fractions import Fraction

from . import __version__
from ._tolerances import LAWLOR_TOL, TRANSVERSE_TOL
from .errors import InputError, NumericError, as_finite, as_int, as_tuple, read_rational

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit 64, not argparse's 2.

    Exit 2 is reserved for semantically invalid input; malformed command
    lines are a different failure class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# JSON plumbing


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _digest(doc) -> str:
    import hashlib  # only --record pays for it

    return hashlib.sha256(_dumps(doc).encode("utf-8")).hexdigest()


def _rat(x):
    """Serialize a Fraction: plain int when integral, else "p/q"."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return x


def _camel(name: str) -> str:
    """A record field's JSON key: ``s_ind`` becomes ``sInd``."""
    return re.sub(r"_(.)", lambda c: c[1].upper(), name)


def _json(x, fields=None):
    """The JSON form of a value: a record (anything with ``_fields``) is an
    object keyed by its camelCased field names, all of them or the named
    ``fields``; a Fraction goes through :func:`_rat`; a tuple or list is a
    list.  :func:`_record` reads a record back."""
    if hasattr(x, "_fields"):
        return {_camel(f): _json(getattr(x, f)) for f in fields or x._fields}
    if isinstance(x, (tuple, list)):
        return [_json(v) for v in x]
    return _rat(x)


def _float_list(text: str, what: str) -> tuple:
    vals = []
    for i, part in enumerate(text.split(","), 1):
        try:
            vals.append(float(part))
        except ValueError:
            raise InputError(f"{what} entry {i} is not a real: {part!r}") from None
    return tuple(vals)


def _read_json(path: str):
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    # a ValueError also for an integer beyond Python's digit limit, and a
    # RecursionError for nesting deeper than the decoder's stack
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON input: {exc}") from None


def _object(doc, what: str, required, optional=()):
    """``doc``, checked to be a JSON object with every key of ``required``,
    perhaps keys of ``optional``, and no other key."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object, got {type(doc).__name__}")
    for key in doc:
        if key not in required and key not in optional:
            raise InputError(f"{what} has unknown key {key!r}")
    for key in required:
        if key not in doc:
            raise InputError(f"{what} is missing required key {key!r}")
    return doc


def _record(cls, doc, what: str, **entries):
    """The inverse of :func:`_json`: the record ``cls(**fields)`` read from
    the JSON object ``doc``, keyed by the camelCased field names of
    ``cls``.  A key whose constructor argument has a default may be left
    out, and the constructor supplies it; any other missing key and every
    unknown key is refused by :func:`_object`.  A field named in
    ``entries`` holds a list of records of the class given there, each
    read in turn; an error in one names its position."""
    new = cls.__new__
    params = new.__code__.co_varnames[1:new.__code__.co_argcount]
    optional = [_camel(f) for f in params[len(params) - len(new.__defaults__ or ()):]]
    keys = {_camel(f): f for f in cls._fields}
    _object(doc, what, [k for k in keys if k not in optional], optional)
    fields = {name: doc[key] for key, name in keys.items() if key in doc}
    for name, entry_cls in entries.items():
        read = []
        for i, entry in enumerate(as_tuple(fields[name], f"{what} {_camel(name)!r}")):
            try:
                read.append(_record(entry_cls, entry, "entry"))
            except InputError as exc:
                raise type(exc)(f"{what} {_camel(name)}[{i}]: {exc}") from None
        fields[name] = read
    return cls(**fields)


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (input_doc, output_doc, exit_code);
# input_doc is the resolved input used for the --record digest.  Each
# imports the solvers it calls, so a subcommand loads only what it needs
# (only planes, lawlor and verify load numpy).


def _cmd_spectrum(args):
    from .spectrum import enumerate_spectrum, exponents, n_sigma

    spec = enumerate_spectrum(args.m, args.cutoff)
    out = {
        "m": spec.m,
        "cutoff": _rat(spec.cutoff),
        "entries": [
            {"lambda": _rat(lam), "multiplicity": mult} for lam, mult in spec.entries
        ],
    }
    input_doc = {"m": args.m, "cutoff": args.cutoff}
    if args.delta is not None:
        delta = read_rational(args.delta, "--delta")
        out["delta"] = _rat(delta)
        out["nSigma"] = n_sigma(exponents(spec), delta)
        input_doc["delta"] = _rat(delta)
    return input_doc, out, EXIT_OK


def _cmd_stability(args):
    from .spectrum import stability_index

    out = _json(stability_index(args.m), "m n_sigma2 m_sigma2 s_ind stable".split())
    return {"m": args.m}, out, EXIT_OK


def _cmd_lawlor(args):
    from .lawlor import AngleSpec, NeckParams, a_from_angles, angles_from_a

    if args.a is not None:
        if args.area is not None:
            raise InputError("--area requires --phi")
        a = _float_list(args.a, "--a")
        spec = angles_from_a(NeckParams(a), tol=args.tol)
        input_doc = {"a": list(a), "tol": args.tol}
    else:
        if args.area is None:
            raise InputError("--phi requires --area")
        phi = _float_list(args.phi, "--phi")
        spec = AngleSpec(phi, args.area)
        a = a_from_angles(spec, tol=args.tol).a
        input_doc = {"phi": list(phi), "area": args.area, "tol": args.tol}
    out = {"a": list(a), "phi": list(spec.phi), "area": spec.A}
    return input_doc, out, EXIT_OK


def _frame_from_json(rows, what: str):
    import numpy as np

    from .planes import SLPlane

    try:
        arr = np.asarray(
            [
                [
                    complex(as_finite(x, f"{what}[{i}][{k}] re"),
                            as_finite(y, f"{what}[{i}][{k}] im"))
                    for k, (x, y) in enumerate(row)
                ]
                for i, row in enumerate(rows)
            ],
            dtype=complex,
        )
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(
            f"{what} must be a square matrix of [re, im] pairs: {exc}"
        ) from None
    return SLPlane(arr)


def _cmd_planes(args):
    from .planes import characteristic_angles

    doc = _object(_read_json(args.input), "planes input", ("p1", "p2"))
    p1 = _frame_from_json(doc["p1"], "p1")
    p2 = _frame_from_json(doc["p2"], "p2")
    out = _json(characteristic_angles(p1, p2, tol=args.tol))
    return {**doc, "tol": args.tol}, out, EXIT_OK


def _cmd_consum(args):
    from .consum import Edge, IntersectionGraph, feasible, solve_areas

    g = _record(IntersectionGraph, _read_json(args.input), "graph input", edges=Edge)
    ok = feasible(g)
    areas = _json(solve_areas(g).A) if ok else None
    out = {"q": g.q, "n": g.n, "feasible": ok, "areas": areas}
    return _json(g), out, EXIT_OK


def _cmd_dims(args):
    from .dims import ConeData, NeckTopology, TopologyProfile, full_report

    p = _record(TopologyProfile, _read_json(args.input), "profile input",
                cones=ConeData, necks=NeckTopology)
    return _json(p), _json(full_report(p)), EXIT_OK


def _cmd_t2cone(args):
    from .t2cone import (
        T2PairBasis,
        family_region,
        gluing_candidates,
        h1_order,
        k_from_generator,
        two_singularity_gluings,
    )

    doc = _read_json(args.input)
    if not isinstance(doc, dict):
        raise InputError("t2cone input must be a JSON object")
    modes = [k for k in ("generator", "basis", "pairing") if k in doc]
    if len(modes) != 1:
        raise InputError(
            "t2cone input needs exactly one of 'generator', 'basis', 'pairing'; "
            f"got {modes or 'none'}"
        )
    mode = modes[0]

    if mode == "generator":
        gen = _object(doc, "t2cone generator input", ("generator",), ("h1X",))["generator"]
        if not isinstance(gen, list) or len(gen) != 2:
            raise InputError("'generator' must be a pair [p, q] of integers")
        s = k_from_generator(gen[0], gen[1])
        out = {
            "k": list(s.k),
            "candidates": sorted(gluing_candidates(s)),
        }
        input_doc = {"generator": [int(gen[0]), int(gen[1])]}
        if "h1X" in doc:
            h1x = as_int(doc["h1X"], "'h1X'")
            out["h1"] = [h1_order(s, h1x, j) for j in (1, 2, 3)]
            input_doc["h1X"] = h1x
        return input_doc, out, EXIT_OK

    if mode == "basis":
        _object(doc, "t2cone basis input", ("basis",))
        basis = _record(T2PairBasis, doc["basis"], "basis input")
        out = {"families": _json(two_singularity_gluings(basis))}
        return {"basis": _json(basis)}, out, EXIT_OK

    _object(doc, "t2cone pairing input", ("pairing", "kJ"))
    out = _json(family_region(doc["pairing"], doc["kJ"]))
    return {"pairing": float(doc["pairing"]), "kJ": int(doc["kJ"])}, out, EXIT_OK


# ---------------------------------------------------------------------------
# Golden verification suites


def _goldens(section: str):
    """A section of ``goldens.json``, the package's one copy of its golden
    results: the CLI documents with their inputs, the stability table and
    the two-singularity gluing cases."""
    from pathlib import Path

    with open(Path(__file__).with_name("goldens.json"), encoding="utf-8") as fh:
        return json.load(fh)[section]


def _suite_table1() -> list:
    from .spectrum import stability_index

    failures = []
    for key, row in _goldens("stability").items():
        m, want = int(key), tuple(row)
        rep = stability_index(m)
        got = (rep.n_sigma2, rep.m_sigma2, rep.s_ind)
        if got != want:
            failures.append(f"stability m={m}: got {got}, want {want}")
        if rep.rigid != (m not in (8, 9)):
            failures.append(f"rigidity m={m}: got {rep.rigid}")
        if rep.stable != (m == 3):
            failures.append(f"stable flag m={m}: got {rep.stable}")
        if m >= 10 and (rep.n_sigma2, rep.m_sigma2) != (2 * m * m + 1, m * m - m):
            failures.append(f"asymptotic counts m={m}: got {got[:2]}")
    return failures


def _suite_gluings() -> list:
    from .t2cone import T2PairBasis, two_singularity_gluings

    failures = []
    for i, ((b1, b2), want) in enumerate(_goldens("gluings")):
        sols = sorted(two_singularity_gluings(T2PairBasis(b1, b2)), key=lambda s: (s.j1, s.j2))
        got = [[s.j1, s.j2, None if s.ratio is None else str(s.ratio), s.dimY] for s in sols]
        if got != want:
            failures.append(f"gluing case {i}: got {got}, want {want}")
    return failures


def _suite_lawlor() -> list:
    import numpy as np

    from .lawlor import NeckParams, a_from_angles, angles_from_a, sphere_area

    failures = []
    rng = np.random.default_rng(1540)
    for m in (3, 4, 5):
        sym = angles_from_a(NeckParams((1.0,) * m))
        if max(abs(p - math.pi / m) for p in sym.phi) > 1e-12:
            failures.append(f"symmetric angles m={m}: {sym.phi}")
        if abs(sym.A - sphere_area(m)) > 1e-10 * sphere_area(m):
            failures.append(f"symmetric area m={m}: {sym.A}")
        for trial in range(20):
            a = tuple(rng.uniform(0.2, 5.0, size=m))
            spec = angles_from_a(NeckParams(a))
            if abs(sum(spec.phi) - math.pi) > 1e-10:
                failures.append(f"angle sum m={m} trial={trial}: {sum(spec.phi)}")
            back = a_from_angles(spec).a
            rel = max(abs(b - x) / x for b, x in zip(back, a))
            if rel > 1e-8:
                failures.append(f"round trip m={m} trial={trial}: rel={rel:.3e}")
    return failures


_SUITES = {
    "table1": _suite_table1,
    "gluings": _suite_gluings,
    "lawlor": _suite_lawlor,
}


def _cmd_verify(args):
    names = sorted(_SUITES) if args.suite == "all" else [args.suite]
    failures = []
    for name in names:
        failures.extend(_SUITES[name]())
    out = {
        "suite": args.suite,
        "suitesRun": names,
        "failures": failures,
        "passed": not failures,
    }
    code = EXIT_OK if not failures else EXIT_NUMERIC
    return {"suite": args.suite}, out, code


# ---------------------------------------------------------------------------
# Parser assembly and entry point


def build_parser() -> _Parser:
    parser = _Parser(
        prog="slcones",
        description=(
            "Special-Lagrangian cone toolkit: link spectra and stability "
            "indices, Lawlor neck angles, plane-pair classification, "
            "connected-sum feasibility, moduli dimensions, and torus-cone "
            "gluings.  All subcommands emit deterministic JSON."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(
        dest="subcommand", metavar="SUBCOMMAND", required=True, parser_class=_Parser
    )

    record = argparse.ArgumentParser(add_help=False)
    record.add_argument(
        "--record",
        action="store_true",
        help="wrap the output in a run record with an input digest",
    )

    def add(name, func, summary):
        p = sub.add_parser(
            name,
            parents=[record],
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
            help=summary,
        )
        p.set_defaults(func=func)
        return p

    p = add(
        "spectrum",
        _cmd_spectrum,
        "eigenvalue table of the torus link, optionally with an exponent count",
    )
    p.add_argument("--m", type=int, required=True, help="ambient dimension (>= 3)")
    p.add_argument("--cutoff", type=int, required=True, help="largest eigenvalue to tabulate")
    p.add_argument(
        "--delta",
        default=None,
        help="also count exponents up to this rate (rational like 5/2, or decimal)",
    )

    p = add("stability", _cmd_stability, "stability index of the torus-link cone")
    p.add_argument("--m", type=int, required=True, help="ambient dimension (>= 3)")

    p = add(
        "lawlor",
        _cmd_lawlor,
        "neck angles from parameters (--a) or parameters from angles (--phi --area)",
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--a", help="comma-separated positive parameters a_1..a_m")
    mode.add_argument("--phi", help="comma-separated angles phi_1..phi_m summing to pi")
    p.add_argument("--area", type=float, help="area parameter A (with --phi)")
    p.add_argument(
        "--tol", type=float, default=LAWLOR_TOL, help="certified quadrature/solve tolerance"
    )

    # the subcommands that read one JSON document: handler, summary, --input help
    for name, func, summary, what in (
        ("planes", _cmd_planes,
         "characteristic angles and type of a special-Lagrangian plane pair",
         "JSON file with unitary frames p1, p2 as [re, im] matrices ('-' = stdin)"),
        ("consum", _cmd_consum,
         "feasibility and exact areas for an intersection digraph",
         "JSON file with keys q, edges ('-' = stdin)"),
        ("t2cone", _cmd_t2cone,
         "torus-cone data: k-triples, gluing families, or the neck-scale region",
         "JSON object with one of 'generator', 'basis', 'pairing' ('-' = stdin)"),
        ("dims", _cmd_dims,
         "moduli/obstruction dimensions from a topology profile",
         "JSON topology profile ('-' = stdin)"),
    ):
        add(name, func, summary).add_argument("--input", default="-", help=what)
    sub.choices["planes"].add_argument(
        "--tol", type=float, default=TRANSVERSE_TOL, help="transversality tolerance"
    )

    p = add("verify", _cmd_verify, "run a golden suite and fail (exit 3) on any mismatch")
    p.add_argument(
        "--suite",
        choices=sorted(_SUITES) + ["all"],
        default="all",
        help="which golden suite to run",
    )

    return parser


def _emit_error(exc: Exception) -> None:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    achieved = getattr(exc, "achieved", None)
    if achieved is not None:
        doc["error"]["achieved"] = achieved
    sys.stderr.write(_dumps(doc) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # No library call warns; should a dependency still warn on some
        # input, stderr carries nothing but the error JSON all the same.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            input_doc, output, code = args.func(args)
    except NumericError as exc:
        _emit_error(exc)
        return EXIT_NUMERIC
    except InputError as exc:
        _emit_error(exc)
        return EXIT_INPUT
    if args.record:
        output = {
            "subcommand": args.subcommand,
            "inputDigest": _digest(input_doc),
            "output": output,
            "toolVersion": __version__,
        }
    sys.stdout.write(_dumps(output) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
