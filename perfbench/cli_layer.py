"""The CLI layer, probed in every traced run.

The catalog holds the README example of every subcommand except
``verify``, with ``t2cone`` in each of its three modes.  Each entry is
run once as a fresh ``python -m slcones.cli`` process (the cold start a
user pays per query) and several times through ``cli.main`` in process.
Both must reproduce the goldens captured from the unoptimised program:
the same stdout bytes and exit code.
"""
from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import sys
from pathlib import Path

_MODEL_PAIR = {
    # identity frame against the special unitary frame of the model plane
    # with angles (pi/4, pi/4, pi/2)
    "p1": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
           [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
           [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
    "p2": [[[z.real, z.imag] if i == j else [0.0, 0.0] for j in range(3)]
           for i, z in enumerate((cmath.exp(1j * math.pi / 4), cmath.exp(1j * math.pi / 4),
                                  -cmath.exp(1j * math.pi / 2)))],
}

#: (name, argv after "python -m slcones.cli", stdin)
CATALOG = (
    ("stability", ["stability", "--m", "3"], None),
    ("spectrum", ["spectrum", "--m", "3", "--cutoff", "8", "--delta", "2"], None),
    ("lawlor_a", ["lawlor", "--a", "4,1,1"], None),
    ("lawlor_phi", ["lawlor", "--phi",
                    "1.7804300632948424,0.6805812951474753,0.6805812951474753",
                    "--area", "6.283185307179586"], None),
    ("planes", ["planes"], json.dumps(_MODEL_PAIR)),
    ("consum", ["consum"], '{"q":2,"edges":[{"tail":1,"head":2,"weight":1},'
                           '{"tail":2,"head":1,"weight":8}]}'),
    ("dims", ["dims"], '{"m":3,"q":2,"b1csX":0,"cones":[{"l":2,"sInd":0}],'
                       '"necks":[{"b0L":1,"b1L":1,"b1csL":0}],"dimY":1}'),
    ("t2cone_generator", ["t2cone"], '{"generator":[1,1],"h1X":2}'),
    ("t2cone_basis", ["t2cone"], '{"basis":{"B1":[[1,0],[0,1]],"B2":[[0,1],[1,0]]}}'),
    ("t2cone_pairing", ["t2cone"], '{"pairing":1.5,"kJ":1}'),
)

_GOLDENS = json.loads(Path(__file__).with_name("goldens.json").read_text())["cli"]


def command(argv) -> list:
    return [sys.executable, "-m", "slcones.cli", *argv]


def mismatch(name: str, code: int, stdout: str):
    """Why this output is not the golden one, or None when it is."""
    want = _GOLDENS[name]
    if code != want["exit"]:
        return f"{name}: exit {code}, want {want['exit']}"
    if stdout != want["stdout"]:
        return f"{name}: stdout differs from golden"
    return None


#: library functions the CLI handlers call; spans around them split
#: ``cli.main`` into kernel time and CLI overhead
KERNELS = (
    "enumerate_spectrum", "exponents", "n_sigma", "stability_index",
    "angles_from_a", "a_from_angles", "characteristic_angles", "feasible",
    "solve_areas", "full_report", "k_from_generator", "gluing_candidates",
    "h1_order", "two_singularity_gluings", "family_region",
)


def in_process(tracer, reps: int) -> tuple:
    """Call ``cli.main`` in this process ``reps`` times per catalog entry,
    with spans named ``cli.main.<subcommand>`` around it and ``cli.kernel``
    around the library calls it makes.  Returns (attempted, failures)."""
    import slcones.cli as cli

    for name in KERNELS:
        if hasattr(cli, name):
            setattr(cli, name, tracer.wrap("cli.kernel", getattr(cli, name)))
    stdin_saved = sys.stdin
    failures = []
    try:
        for _ in range(reps):
            for name, argv, stdin in CATALOG:
                sys.stdin = io.StringIO(stdin or "")
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out):
                        code = tracer.wrap(f"cli.main.{argv[0]}", cli.main)(argv)
                except Exception as exc:  # a crash is a wrong answer, not a harness failure
                    failures.append(f"{name}: in-process cli.main raised {exc!r}")
                    continue
                wrong = mismatch(name, code, out.getvalue())
                if wrong:
                    failures.append(f"in process: {wrong}")
    finally:
        sys.stdin = stdin_saved
    return reps * len(CATALOG), failures
