"""Command-line front end: every solver as a subcommand with JSON I/O.

Output is a single JSON document on standard output, serialized
deterministically (sorted keys, no whitespace), so identical inputs give
bit-identical bytes.  Exact rationals appear as ``"p/q"`` strings (plain
integers when the denominator is 1); reals use the shortest decimal that
round-trips.  Errors are reported as a JSON object on standard error,
which carries nothing else.

Exit codes: 0 success, 2 invalid input, 3 numeric/verification failure,
64 usage error (missing or unknown subcommand, malformed flags).  No
environment variable changes what the CLI does.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from fractions import Fraction

from . import __version__
from ._tolerances import LAWLOR_TOL, TRANSVERSE_TOL
from .errors import InputError, NumericError, as_finite, as_int, read_rational

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


def _float_list(text: str, what: str) -> tuple:
    try:
        vals = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise InputError(f"{what} must be a comma-separated list of reals: {exc}") from None
    if not vals:
        raise InputError(f"{what} is empty")
    return vals


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


def _require(doc, key: str, what: str):
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise InputError(f"{what} is missing required key {key!r}")
    return doc[key]


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

    rep = stability_index(args.m)
    out = {
        "m": rep.m,
        "nSigma2": rep.n_sigma2,
        "mSigma2": rep.m_sigma2,
        "sInd": rep.s_ind,
        "stable": rep.stable,
    }
    return {"m": args.m}, out, EXIT_OK


def _cmd_lawlor(args):
    from .lawlor import AngleSpec, NeckParams, a_from_angles, angles_from_a

    if args.a is not None:
        a = _float_list(args.a, "--a")
        spec = angles_from_a(NeckParams(a), tol=args.tol)
        input_doc = {"a": list(a), "tol": args.tol}
    else:
        phi = _float_list(args.phi, "--phi")
        if args.area is None:
            raise InputError("--phi requires --area")
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
                    complex(as_finite(re, f"{what}[{i}][{k}] re"),
                            as_finite(im, f"{what}[{i}][{k}] im"))
                    for k, (re, im) in enumerate(row)
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

    doc = _read_json(args.input)
    p1 = _frame_from_json(_require(doc, "p1", "planes input"), "p1")
    p2 = _frame_from_json(_require(doc, "p2", "planes input"), "p2")
    rep = characteristic_angles(p1, p2, tol=args.tol)
    out = {
        "m": rep.m,
        "angles": list(rep.angles),
        "k": rep.k,
        "transverse": rep.transverse,
        "lawlorExists": rep.lawlor_exists,
    }
    return {"p1": doc["p1"], "p2": doc["p2"], "tol": args.tol}, out, EXIT_OK


def _graph_from_json(doc):
    from .consum import IntersectionGraph

    q = _require(doc, "q", "graph input")
    edges = _require(doc, "edges", "graph input")
    if not isinstance(edges, list):
        raise InputError("graph 'edges' must be a list")
    parsed = []
    for i, e in enumerate(edges):
        tail = _require(e, "tail", f"edge {i}")
        head = _require(e, "head", f"edge {i}")
        weight = read_rational(_require(e, "weight", f"edge {i}"), f"edge {i} weight")
        parsed.append((tail, head, weight))
    return IntersectionGraph(q, parsed)


def _cmd_consum(args):
    from .consum import feasible, solve_areas

    doc = _read_json(args.input)
    g = _graph_from_json(doc)
    ok = feasible(g)
    out = {"q": g.q, "n": g.n, "feasible": ok, "areas": None}
    if ok:
        out["areas"] = [_rat(x) for x in solve_areas(g).A]
    input_doc = {
        "q": g.q,
        "edges": [
            {"tail": e.tail, "head": e.head, "weight": _rat(e.weight)}
            for e in g.edges
        ],
    }
    return input_doc, out, EXIT_OK


def _profile_from_json(doc):
    from .dims import TopologyProfile

    cones = _require(doc, "cones", "profile input")
    necks = _require(doc, "necks", "profile input")
    if not isinstance(cones, list) or not isinstance(necks, list):
        raise InputError("profile 'cones' and 'necks' must be lists")
    try:
        cone_data = [
            {"l": c["l"], "s_ind": c["sInd"], "rigid": c.get("rigid", True)}
            for c in cones
        ]
        neck_data = [
            {"b0L": n["b0L"], "b1L": n["b1L"], "b1csL": n["b1csL"]} for n in necks
        ]
    except (TypeError, KeyError) as exc:
        raise InputError(f"profile entry is missing key {exc}") from None
    return TopologyProfile(
        m=_require(doc, "m", "profile input"),
        q=_require(doc, "q", "profile input"),
        b1csX=_require(doc, "b1csX", "profile input"),
        cones=cone_data,
        necks=neck_data,
        dimY=doc.get("dimY"),
    )


def _cmd_dims(args):
    from .dims import full_report

    doc = _read_json(args.input)
    p = _profile_from_json(doc)
    rep = full_report(p)
    out = {
        "dimI": rep.dimI,
        "dimZ": rep.dimZ,
        "dimYi": list(rep.dimYi),
        "dimZi": list(rep.dimZi),
        "dimML0": list(rep.dimML0),
        "b1N": rep.b1N,
        "dimF": rep.dimF,
        "indX": rep.indX,
        "nonRigidWarning": rep.non_rigid_warning,
    }
    input_doc = {
        "m": p.m,
        "q": p.q,
        "b1csX": p.b1csX,
        "cones": [{"l": c.l, "sInd": c.s_ind, "rigid": c.rigid} for c in p.cones],
        "necks": [
            {"b0L": n.b0L, "b1L": n.b1L, "b1csL": n.b1csL} for n in p.necks
        ],
        "dimY": p.dimY,
    }
    return input_doc, out, EXIT_OK


def _basis_from_json(doc):
    from .t2cone import T2PairBasis

    return T2PairBasis(
        _require(doc, "B1", "basis input"), _require(doc, "B2", "basis input")
    )


def _cmd_t2cone(args):
    from .t2cone import (
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
        gen = doc["generator"]
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
        basis = _basis_from_json(doc["basis"])
        sols = two_singularity_gluings(basis)
        out = {
            "families": [
                {
                    "j1": sol.j1,
                    "j2": sol.j2,
                    "ratio": None if sol.ratio is None else _rat(sol.ratio),
                    "dimY": sol.dimY,
                }
                for sol in sols
            ]
        }
        input_doc = {
            "basis": {
                "B1": [[_rat(x) for x in half] for half in basis.B1],
                "B2": [[_rat(x) for x in half] for half in basis.B2],
            }
        }
        return input_doc, out, EXIT_OK

    kj = _require(doc, "kJ", "t2cone pairing input")
    res = family_region(doc["pairing"], kj)
    out = {"region": res.region, "t": res.t, "anyT": res.any_t}
    return {"pairing": float(doc["pairing"]), "kJ": int(kj)}, out, EXIT_OK


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
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser(
        "spectrum",
        parents=[record],
        formatter_class=fmt,
        help="eigenvalue table of the torus link, optionally with an exponent count",
    )
    p.add_argument("--m", type=int, required=True, help="ambient dimension (>= 3)")
    p.add_argument("--cutoff", type=int, required=True, help="largest eigenvalue to tabulate")
    p.add_argument(
        "--delta",
        default=None,
        help="also count exponents up to this rate (rational like 5/2, or decimal)",
    )
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "stability",
        parents=[record],
        formatter_class=fmt,
        help="stability index of the torus-link cone",
    )
    p.add_argument("--m", type=int, required=True, help="ambient dimension (>= 3)")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser(
        "lawlor",
        parents=[record],
        formatter_class=fmt,
        help="neck angles from parameters (--a) or parameters from angles (--phi --area)",
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--a", help="comma-separated positive parameters a_1..a_m")
    mode.add_argument("--phi", help="comma-separated angles phi_1..phi_m summing to pi")
    p.add_argument("--area", type=float, help="area parameter A (with --phi)")
    p.add_argument(
        "--tol", type=float, default=LAWLOR_TOL, help="certified quadrature/solve tolerance"
    )
    p.set_defaults(func=_cmd_lawlor)

    p = sub.add_parser(
        "planes",
        parents=[record],
        formatter_class=fmt,
        help="characteristic angles and type of a special-Lagrangian plane pair",
    )
    p.add_argument(
        "--input",
        default="-",
        help="JSON file with unitary frames p1, p2 as [re, im] matrices ('-' = stdin)",
    )
    p.add_argument(
        "--tol", type=float, default=TRANSVERSE_TOL, help="transversality tolerance"
    )
    p.set_defaults(func=_cmd_planes)

    p = sub.add_parser(
        "consum",
        parents=[record],
        formatter_class=fmt,
        help="feasibility and exact areas for an intersection digraph",
    )
    p.add_argument(
        "--input", default="-", help="JSON file with keys q, edges ('-' = stdin)"
    )
    p.set_defaults(func=_cmd_consum)

    p = sub.add_parser(
        "t2cone",
        parents=[record],
        formatter_class=fmt,
        help="torus-cone data: k-triples, gluing families, or the neck-scale region",
    )
    p.add_argument(
        "--input",
        default="-",
        help="JSON object with one of 'generator', 'basis', 'pairing' ('-' = stdin)",
    )
    p.set_defaults(func=_cmd_t2cone)

    p = sub.add_parser(
        "dims",
        parents=[record],
        formatter_class=fmt,
        help="moduli/obstruction dimensions from a topology profile",
    )
    p.add_argument(
        "--input", default="-", help="JSON topology profile ('-' = stdin)"
    )
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser(
        "verify",
        parents=[record],
        formatter_class=fmt,
        help="run a golden suite and fail (exit 3) on any mismatch",
    )
    p.add_argument(
        "--suite",
        choices=sorted(_SUITES) + ["all"],
        default="all",
        help="which golden suite to run",
    )
    p.set_defaults(func=_cmd_verify)

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
