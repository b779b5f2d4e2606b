"""End-to-end CLI tests: exit codes, schemas, determinism, run records."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import slcones
from slcones import cli, consum, t2cone
from slcones.planes import phi_frame

# The child process imports the same package the tests do, also when it
# comes from a source checkout rather than an install.
_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(slcones.__file__).parent.parent),
                      os.environ.get("PYTHONPATH")])
    ),
}


def _run(args, stdin: str | None = None) -> subprocess.CompletedProcess:
    # Module mode so nothing depends on a console_scripts install.
    cmd = [sys.executable, "-m", "slcones.cli", *args]
    return subprocess.run(cmd, input=stdin, text=True, capture_output=True,
                          env=_ENV)


def _main(args, stdin, monkeypatch, capsys):
    """Run the CLI entry point in this process; (exit code, stdout, stderr)."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def _schema(name: str) -> dict:
    path = resources.files("slcones") / "schemas" / f"{name}.json"
    return json.loads(path.read_text())


def _validate(doc, schema_name: str) -> None:
    jsonschema.validate(doc, _schema(schema_name))


def _encode_frame(arr) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


class TestDispatch:
    def test_help_lists_every_subcommand(self):
        r = _run(["--help"])
        assert r.returncode == 0, r.stderr
        for name in (
            "spectrum", "stability", "lawlor", "planes",
            "consum", "t2cone", "dims", "verify",
        ):
            assert name in r.stdout

    def test_no_subcommand_is_usage_error(self):
        r = _run([])
        assert r.returncode == 64
        assert "usage" in r.stderr.lower()

    def test_unknown_subcommand_prints_usage_and_exits_64(self):
        r = _run(["frobnicate"])
        assert r.returncode == 64
        assert "usage" in r.stderr.lower()
        assert r.stdout == ""

    def test_bad_flag_is_usage_error(self):
        r = _run(["stability", "--q", "3"])
        assert r.returncode == 64

    def test_tol_default_shown_in_help(self):
        r = _run(["lawlor", "--help"])
        assert r.returncode == 0
        assert "1e-10" in r.stdout


class TestImportGraph:
    """scipy serves only the Lawlor quadrature and is imported at the first
    one, so no module, the CLI included, loads it at import time."""

    @pytest.mark.parametrize("module", [
        "slcones.cli", "slcones.lawlor", "slcones.spectrum", "slcones.planes",
        "slcones.consum", "slcones.dims", "slcones.t2cone",
    ])
    def test_import_loads_no_scipy(self, module):
        code = (
            f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=_ENV, check=True)
        assert r.stdout.strip() == "[]"

    def test_cli_import_loads_no_numpy(self):
        code = (
            "import sys, slcones.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=_ENV, check=True)
        assert r.stdout.strip() == "[]"

    # the README examples of the two pure-Fraction subcommands
    @pytest.mark.parametrize("sub, stdin", [
        ("dims", '{"m":3,"q":2,"b1csX":0,"cones":[{"l":2,"sInd":0}],'
                 '"necks":[{"b0L":1,"b1L":1,"b1csL":0}],"dimY":1}'),
        ("t2cone", '{"generator":[1,1],"h1X":2}'),
        ("t2cone", '{"basis":{"B1":[[1,0],[0,1]],"B2":[[0,1],[1,0]]}}'),
        ("t2cone", '{"pairing":1.5,"kJ":1}'),
    ])
    def test_pure_fraction_subcommands_load_no_numpy(self, sub, stdin):
        code = (
            "import io, sys\n"
            "from slcones import cli\n"
            f"sys.stdin = io.StringIO({stdin!r})\n"
            f"code = cli.main([{sub!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'),"
            " file=sys.stderr)\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=_ENV, check=True)
        assert r.stderr.strip() == "0 []"
        _validate(json.loads(r.stdout), sub)


    def test_consum_import_loads_no_numpy(self):
        # and the general row reduction is gone: t2cone's exact kernels
        # are its own
        code = (
            "import importlib.util, sys, slcones.consum; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'),"
            " importlib.util.find_spec('slcones._exact'))"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=_ENV, check=True)
        assert r.stdout.strip() == "[] None"

    def test_consum_readme_example_loads_no_numpy(self):
        stdin = ('{"q":2,"edges":[{"tail":1,"head":2,"weight":1},'
                 '{"tail":2,"head":1,"weight":8}]}')
        code = (
            "import io, sys\n"
            "from slcones import cli\n"
            f"sys.stdin = io.StringIO({stdin!r})\n"
            "code = cli.main(['consum'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'),"
            " file=sys.stderr)\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=_ENV, check=True)
        assert r.stderr.strip() == "0 []"
        assert json.loads(r.stdout) == {"areas": [1, "1/8"], "feasible": True, "n": 2, "q": 2}

    def test_spectrum_import_loads_no_numpy(self):
        code = (
            "import sys, slcones.spectrum; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=_ENV, check=True)
        assert r.stdout.strip() == "[]"

    # the README examples of the spectrum subcommands
    @pytest.mark.parametrize("args", [
        ["stability", "--m", "3"],
        ["spectrum", "--m", "3", "--cutoff", "8", "--delta", "2"],
    ], ids=["stability", "spectrum"])
    def test_spectrum_readme_examples_load_no_numpy(self, args):
        code = (
            "import sys\n"
            "from slcones import cli\n"
            f"code = cli.main({args!r})\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'),"
            " file=sys.stderr)\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=_ENV, check=True)
        assert r.stderr.strip() == "0 []"
        _validate(json.loads(r.stdout), args[0])


class TestStability:
    def test_m3_golden_document(self):
        r = _run(["stability", "--m", "3"])
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc == {
            "m": 3,
            "nSigma2": 13,
            "mSigma2": 6,
            "sInd": 0,
            "stable": True,
        }
        _validate(doc, "stability")

    def test_deterministic_bytes(self):
        a = _run(["stability", "--m", "7"])
        b = _run(["stability", "--m", "7"])
        assert a.stdout == b.stdout
        assert a.stdout.endswith("\n")

    def test_invalid_dimension_exits_2_with_error_json(self):
        r = _run(["stability", "--m", "2"])
        assert r.returncode == 2
        assert r.stdout == ""
        err = json.loads(r.stderr)
        _validate(err, "error")
        assert err["error"]["type"] == "InputError"


class TestSpectrum:
    def test_table_with_exponent_count(self):
        r = _run(["spectrum", "--m", "3", "--cutoff", "8", "--delta", "2"])
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        _validate(doc, "spectrum")
        assert doc["entries"][0] == {"lambda": 0, "multiplicity": 1}
        assert {"lambda": 2, "multiplicity": 6} in doc["entries"]
        assert doc["nSigma"] == 13

    def test_rational_delta(self):
        r = _run(["spectrum", "--m", "3", "--cutoff", "9", "--delta", "5/2"])
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["delta"] == "5/2"
        _validate(doc, "spectrum")

    def test_cutoff_too_small_for_delta(self):
        r = _run(["spectrum", "--m", "3", "--cutoff", "4", "--delta", "3"])
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"]["type"] == "IncompleteSpectrumError"

    @pytest.mark.parametrize("args", [
        ["spectrum", "--m", "3", "--cutoff", "100000000"],
        ["stability", "--m", "136"],
    ])
    def test_oversized_dp_exits_2(self, args, monkeypatch, capsys):
        start = time.perf_counter()
        code, out, err = _main(args, "", monkeypatch, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        _validate(doc, "error")
        assert doc["error"]["type"] == "InputError"
        assert "DP cells" in doc["error"]["message"]


class TestLawlor:
    def test_forward_then_inverse_round_trip(self):
        fwd = _run(["lawlor", "--a", "4,1,1"])
        assert fwd.returncode == 0, fwd.stderr
        doc = json.loads(fwd.stdout)
        _validate(doc, "lawlor")
        assert sum(doc["phi"]) == pytest.approx(math.pi, abs=1e-10)
        inv = _run(
            [
                "lawlor",
                "--phi", ",".join(repr(p) for p in doc["phi"]),
                "--area", repr(doc["area"]),
            ]
        )
        assert inv.returncode == 0, inv.stderr
        back = json.loads(inv.stdout)
        _validate(back, "lawlor")
        assert back["a"] == pytest.approx([4.0, 1.0, 1.0], rel=1e-8)

    def test_unattainable_tolerance_exits_3(self):
        r = _run(["lawlor", "--a", "4,1,1", "--tol", "1e-30"])
        assert r.returncode == 3
        err = json.loads(r.stderr)
        _validate(err, "error")
        assert err["error"]["type"] == "NumericError"
        assert err["error"]["achieved"] > 0

    @pytest.mark.parametrize("a", ["1e12,1e-12,1", "1e308,1e308,1e308,1e308"])
    def test_garbage_quadrature_exits_3(self, a):
        r = _run(["lawlor", "--a", a])
        assert r.returncode == 3
        assert r.stdout == ""
        err = json.loads(r.stderr)
        _validate(err, "error")
        assert err["error"]["type"] == "NumericError"

    def test_phi_without_area_is_input_error(self):
        r = _run(["lawlor", "--phi", "1.0,1.0,1.1415926535897931"])
        assert r.returncode == 2

    def test_a_and_phi_together_is_usage_error(self):
        r = _run(["lawlor", "--a", "1,1,1", "--phi", "1,1,1"])
        assert r.returncode == 64

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("args", [
        ["--a", "4,1,1"],
        ["--phi", "1,1,1.1415926535897931", "--area", "1"],
    ])
    def test_bad_tolerance_exits_2(self, args, tol, monkeypatch, capsys):
        # --tol inf once answered the Newton start as the inverse
        code, out, err = _main(["lawlor", *args, f"--tol={tol}"], "",
                               monkeypatch, capsys)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        _validate(doc, "error")
        assert doc["error"]["type"] == "InputError"
        assert "tol" in doc["error"]["message"]


class TestPlanes:
    def test_model_pair_classification(self):
        angles = (math.pi / 4, math.pi / 4, math.pi / 2)
        payload = json.dumps(
            {
                "p1": _encode_frame(np.eye(3, dtype=complex)),
                "p2": _encode_frame(phi_frame(angles).frame),
            }
        )
        r = _run(["planes"], stdin=payload)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        _validate(doc, "planes")
        assert doc["k"] == 1
        assert doc["transverse"] is True
        assert doc["lawlorExists"] is True
        assert doc["angles"] == pytest.approx(list(angles), abs=1e-9)

    def test_non_unitary_frame_exits_2(self):
        bad = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        eye = _encode_frame(np.eye(2, dtype=complex))
        r = _run(["planes"], stdin=json.dumps({"p1": bad, "p2": eye}))
        assert r.returncode == 2

    def test_missing_key_exits_2(self):
        r = _run(["planes"], stdin=json.dumps({"p1": []}))
        assert r.returncode == 2

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_bad_tolerance_exits_2(self, tol, monkeypatch, capsys):
        payload = json.dumps({
            "p1": _encode_frame(np.eye(3, dtype=complex)),
            "p2": _encode_frame(phi_frame((1.0, 1.0, math.pi - 2.0)).frame),
        })
        code, out, err = _main(["planes", f"--tol={tol}"], payload,
                               monkeypatch, capsys)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        _validate(doc, "error")
        assert doc["error"]["type"] == "InputError"
        assert "tol" in doc["error"]["message"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_frame_exits_2(self, bad, monkeypatch, capsys):
        # json.dumps writes these as the NaN / Infinity tokens, which the
        # CLI's JSON reader accepts
        p1 = _encode_frame(np.eye(3, dtype=complex))
        p1[0][0] = [bad, 0.0]
        payload = json.dumps({"p1": p1, "p2": _encode_frame(np.eye(3, dtype=complex))})
        code, out, err = _main(["planes"], payload, monkeypatch, capsys)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        _validate(doc, "error")
        assert doc["error"]["type"] == "InputError"

    @pytest.mark.parametrize("col, pair", [
        (0, [True, 0.0]), (1, [0.0, False]), (0, [10**400, 0.0]),
    ])
    def test_bool_or_huge_frame_entry_exits_2(self, col, pair, monkeypatch, capsys):
        # JSON true and false must not read as 1.0 and 0.0, which would
        # leave the identity frame as it is, and an integer beyond the
        # float range must not escape as OverflowError
        p1 = _encode_frame(np.eye(3, dtype=complex))
        p1[0][col] = pair
        payload = json.dumps({"p1": p1, "p2": _encode_frame(np.eye(3, dtype=complex))})
        code, out, err = _main(["planes"], payload, monkeypatch, capsys)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        _validate(doc, "error")
        assert doc["error"]["type"] == "InputError"
        assert f"p1[0][{col}]" in doc["error"]["message"]


class TestConsum:
    def test_feasible_two_cycle(self):
        payload = json.dumps(
            {
                "q": 2,
                "edges": [
                    {"tail": 1, "head": 2, "weight": 1},
                    {"tail": 2, "head": 1, "weight": 8},
                ],
            }
        )
        r = _run(["consum"], stdin=payload)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        _validate(doc, "consum")
        assert doc["feasible"] is True
        assert doc["areas"] == [1, "1/8"]

    def test_infeasible_graph_reports_null_areas(self):
        payload = json.dumps(
            {
                "q": 2,
                "edges": [
                    {"tail": 1, "head": 2, "weight": 1},
                    {"tail": 1, "head": 2, "weight": "1/2"},
                ],
            }
        )
        r = _run(["consum"], stdin=payload)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        _validate(doc, "consum")
        assert doc["feasible"] is False
        assert doc["areas"] is None

    def test_malformed_json_exits_2(self):
        r = _run(["consum"], stdin='{"q":2 "edges":[]}')
        assert r.returncode == 2
        err = json.loads(r.stderr)
        _validate(err, "error")
        assert "malformed JSON" in err["error"]["message"]

    def test_bad_weight_exits_2(self):
        payload = json.dumps(
            {"q": 1, "edges": [{"tail": 1, "head": 1, "weight": "x/y"}]}
        )
        assert _run(["consum"], stdin=payload).returncode == 2

    @pytest.mark.parametrize("payload", [
        '{"q":"abc","edges":[]}',
        '{"q":1e400,"edges":[]}',
        '{"q":true,"edges":[]}',
        '{"q":2,"edges":[{"tail":"1","head":2,"weight":1}]}',
        '{"q":2,"edges":[{"tail":1.5,"head":2,"weight":1}]}',
        '{"q":2,"edges":[{"tail":1,"head":[2],"weight":1}]}',
    ])
    def test_non_integer_field_exits_2(self, payload):
        r = _run(["consum"], stdin=payload)
        assert r.returncode == 2, r.stderr
        assert r.stdout == ""
        err = json.loads(r.stderr)
        _validate(err, "error")
        assert err["error"]["type"] == "InputError"
        assert "must be an integer" in err["error"]["message"]


    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity", "true", "[1]"])
    def test_non_finite_weight_exits_2(self, weight, monkeypatch, capsys):
        # the CLI's JSON reader accepts the NaN / Infinity tokens
        payload = ('{"q":2,"edges":[{"tail":1,"head":2,"weight":%s},'
                   '{"tail":2,"head":1,"weight":1}]}' % weight)
        code, out, err = _main(["consum"], payload, monkeypatch, capsys)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        _validate(doc, "error")
        assert doc["error"]["type"] == "InputError"
        assert "edge 0 weight" in doc["error"]["message"]

    def test_float_weight_is_read_by_the_denominator_limit(self):
        payload = ('{"q":2,"edges":[{"tail":1,"head":2,"weight":0.1},'
                   '{"tail":2,"head":1,"weight":"1/3"}]}')
        r = _run(["consum"], stdin=payload)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["areas"] == [10, 3]

class TestInternalGuards:
    """A failed internal cross-check is a numeric failure (exit 3), also
    under ``python -O``."""

    def test_unbalanced_areas_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(consum, "check_balance", lambda g, sol: False)
        payload = '{"q":2,"edges":[{"tail":1,"head":2,"weight":1},' \
                  '{"tail":2,"head":1,"weight":8}]}'
        code, out, err = _main(["consum"], payload, monkeypatch, capsys)
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        _validate(doc, "error")
        assert doc["error"]["type"] == "NumericError"

    def test_dim_y_mismatch_exits_3(self, monkeypatch, capsys):
        rank = t2cone._rank
        # miscount only the 4-row intersection stack of the cross-check
        monkeypatch.setattr(
            t2cone, "_rank", lambda rows: rank(rows) + (len(rows) == 4)
        )
        payload = '{"basis":{"B1":[[1,0],[0,0]],"B2":[[0,0],[1,0]]}}'
        code, out, err = _main(["t2cone"], payload, monkeypatch, capsys)
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        _validate(doc, "error")
        assert doc["error"]["type"] == "NumericError"


class TestT2Cone:
    def test_generator_mode_with_h1(self):
        r = _run(["t2cone"], stdin=json.dumps({"generator": [1, 1], "h1X": 2}))
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        _validate(doc, "t2cone")
        assert doc["k"] == [-1, 1, 0]
        assert doc["candidates"] == [3]
        assert doc["h1"] == [2, 2, None]

    def test_basis_mode_locked_ratio(self):
        payload = json.dumps(
            {"basis": {"B1": [[1, 0], [0, "3/2"]], "B2": [[0, "3/2"], [1, 0]]}}
        )
        r = _run(["t2cone"], stdin=payload)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        _validate(doc, "t2cone")
        assert doc["families"] == [
            {"j1": 1, "j2": 2, "ratio": "3/2", "dimY": 1},
            {"j1": 2, "j2": 1, "ratio": "2/3", "dimY": 1},
        ]

    def test_pairing_mode(self):
        r = _run(["t2cone"], stdin=json.dumps({"pairing": math.pi, "kJ": 1}))
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        _validate(doc, "t2cone")
        assert doc["region"] == "positive"
        assert doc["t"] == pytest.approx(1.0, rel=1e-12)

    def test_ambiguous_mode_exits_2(self):
        r = _run(["t2cone"], stdin=json.dumps({"generator": [1, 1], "pairing": 1.0}))
        assert r.returncode == 2

    def test_imprimitive_generator_exits_2(self):
        r = _run(["t2cone"], stdin=json.dumps({"generator": [2, 4]}))
        assert r.returncode == 2

    @pytest.mark.parametrize("b1", [[[1, 0, 0], [0, 0]], [1, 0], [[1, 0], "10"], {"u": 1}])
    def test_malformed_basis_shape_exits_2(self, b1, monkeypatch, capsys):
        payload = json.dumps({"basis": {"B1": b1, "B2": [[0, 0], [1, 0]]}})
        code, out, err = _main(["t2cone"], payload, monkeypatch, capsys)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        _validate(doc, "error")
        assert doc["error"]["message"] == "B1 must be [[u, v], [y, z]]"

    @pytest.mark.parametrize("payload", [
        '{"generator":["1",1]}',
        '{"generator":[1.5,1]}',
        '{"generator":[1,1],"h1X":"2"}',
        '{"pairing":NaN,"kJ":1}',
        '{"pairing":"1.0","kJ":1}',
        '{"pairing":1.0,"kJ":1.5}',
    ])
    def test_bad_number_exits_2(self, payload):
        r = _run(["t2cone"], stdin=payload)
        assert r.returncode == 2, r.stderr
        assert r.stdout == ""
        err = json.loads(r.stderr)
        _validate(err, "error")
        assert err["error"]["type"] == "InputError"


class TestDims:
    PROFILE = {
        "m": 3,
        "q": 2,
        "b1csX": 0,
        "cones": [{"l": 2, "sInd": 0}],
        "necks": [{"b0L": 1, "b1L": 1, "b1csL": 0}],
        "dimY": 1,
    }

    def test_report_document(self):
        r = _run(["dims"], stdin=json.dumps(self.PROFILE))
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        _validate(doc, "dims")
        assert doc["dimF"] == doc["b1N"] - doc["dimI"]
        assert doc["nonRigidWarning"] is False

    @pytest.mark.parametrize("change", [
        {"m": "3"},
        {"q": 2.5},
        {"dimY": True},
        {"cones": [{"l": "2", "sInd": 0}]},
    ])
    def test_non_integer_field_exits_2(self, change):
        r = _run(["dims"], stdin=json.dumps(dict(self.PROFILE, **change)))
        assert r.returncode == 2, r.stderr
        assert r.stdout == ""
        err = json.loads(r.stderr)
        _validate(err, "error")
        assert err["error"]["type"] == "InputError"
        assert "must be an integer" in err["error"]["message"]

    @pytest.mark.parametrize("rigid", ["no", 0, 1, None])
    def test_non_bool_rigid_exits_2(self, rigid):
        profile = dict(self.PROFILE, cones=[{"l": 2, "sInd": 0, "rigid": rigid}])
        r = _run(["dims"], stdin=json.dumps(profile))
        assert r.returncode == 2, r.stderr
        assert r.stdout == ""
        err = json.loads(r.stderr)
        _validate(err, "error")
        assert err["error"]["type"] == "InputError"
        assert "rigid must be true or false" in err["error"]["message"]

    def test_inconsistent_profile_exits_2(self):
        bad = dict(self.PROFILE, b1csX=0, q=1)
        bad["cones"] = [{"l": 3, "sInd": 0}]
        bad["necks"] = [{"b0L": 1, "b1L": 1, "b1csL": 0}]
        r = _run(["dims"], stdin=json.dumps(bad))
        assert r.returncode == 2


class TestVerify:
    def test_table1_suite_passes(self):
        r = _run(["verify", "--suite", "table1"])
        assert r.returncode == 0, r.stdout
        doc = json.loads(r.stdout)
        _validate(doc, "verify")
        assert doc["passed"] is True
        assert doc["failures"] == []

    def test_gluings_suite_passes(self):
        r = _run(["verify", "--suite", "gluings"])
        assert r.returncode == 0, r.stdout
        assert json.loads(r.stdout)["passed"] is True

    def test_lawlor_suite_passes(self):
        r = _run(["verify", "--suite", "lawlor"])
        assert r.returncode == 0, r.stdout
        doc = json.loads(r.stdout)
        _validate(doc, "verify")
        assert doc["passed"] is True


class TestRunRecord:
    def test_envelope_shape_and_digest_stability(self):
        a = _run(["stability", "--m", "5", "--record"])
        b = _run(["stability", "--m", "5", "--record"])
        assert a.returncode == 0, a.stderr
        doc = json.loads(a.stdout)
        _validate(doc, "record")
        assert doc["subcommand"] == "stability"
        assert doc["output"]["sInd"] == 20
        assert a.stdout == b.stdout

    def test_digest_depends_on_input(self):
        d5 = json.loads(_run(["stability", "--m", "5", "--record"]).stdout)
        d6 = json.loads(_run(["stability", "--m", "6", "--record"]).stdout)
        assert d5["inputDigest"] != d6["inputDigest"]
        assert len(d5["inputDigest"]) == 64
