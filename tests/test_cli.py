"""End-to-end CLI tests: exit codes, schemas, determinism, run records."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    """Run the CLI entry point in this process; (exit code, stdout, stderr).
    A usage error's ``SystemExit`` gives its exit code."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
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
    def test_help_lists_every_subcommand(self, monkeypatch, capsys):
        code, out, err = _main(["--help"], "", monkeypatch, capsys)
        assert code == 0, err
        for name in (
            "spectrum", "stability", "lawlor", "planes",
            "consum", "t2cone", "dims", "verify",
        ):
            assert name in out

    def test_no_subcommand_is_usage_error(self, monkeypatch, capsys):
        code, out, err = _main([], "", monkeypatch, capsys)
        assert code == 64
        assert "usage" in err.lower()

    def test_unknown_subcommand_prints_usage_and_exits_64(self, monkeypatch, capsys):
        code, out, err = _main(["frobnicate"], "", monkeypatch, capsys)
        assert code == 64
        assert "usage" in err.lower()
        assert out == ""

    def test_bad_flag_is_usage_error(self, monkeypatch, capsys):
        code, _, _ = _main(["stability", "--q", "3"], "", monkeypatch, capsys)
        assert code == 64

    def test_tol_default_shown_in_help(self, monkeypatch, capsys):
        code, out, _ = _main(["lawlor", "--help"], "", monkeypatch, capsys)
        assert code == 0
        assert "1e-10" in out


GOLDENS = cli._goldens("cli")


class TestGoldens:
    """Every golden of ``goldens.json``, run in process: the exit code and
    the stdout bytes are the golden ones, and the document fits its
    schema.  With ``--record`` the envelope carries the golden output and
    the golden digest of the resolved input."""

    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_exit_code_and_stdout_bytes(self, name, monkeypatch, capsys):
        golden = GOLDENS[name]
        code, out, err = _main(golden["argv"], golden["stdin"] or "", monkeypatch, capsys)
        assert (code, out) == (golden["exit"], golden["stdout"]), err
        _validate(json.loads(out), golden["argv"][0])

    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_record_envelope(self, name, monkeypatch, capsys):
        golden = GOLDENS[name]
        code, out, err = _main([*golden["argv"], "--record"], golden["stdin"] or "",
                               monkeypatch, capsys)
        assert code == golden["exit"], err
        assert json.loads(out) == {
            "subcommand": golden["argv"][0],
            "inputDigest": golden["inputDigest"],
            "output": json.loads(golden["stdout"]),
            "toolVersion": slcones.__version__,
        }

    @pytest.mark.parametrize("name", ["consum", "dims", "t2cone_basis"])
    def test_reader_inverts_the_writer(self, name, monkeypatch, capsys):
        # the digested input document of these handlers is ``_json`` of the
        # record the reader built; read again, it gives the same bytes
        golden = GOLDENS[name]
        args = cli.build_parser().parse_args(golden["argv"])
        monkeypatch.setattr(sys, "stdin", io.StringIO(golden["stdin"]))
        written = cli._dumps(args.func(args)[0])
        if name == "dims":  # the reader fills in the one key the golden leaves out
            want = json.loads(golden["stdin"])
            want["cones"] = [dict(cone, rigid=True) for cone in want["cones"]]
            assert json.loads(written) == want
        code, out, err = _main(golden["argv"], written, monkeypatch, capsys)
        assert (code, out) == (golden["exit"], golden["stdout"]), err
        code, out, err = _main([*golden["argv"], "--record"], written, monkeypatch, capsys)
        assert json.loads(out)["inputDigest"] == golden["inputDigest"], err


class TestImportGraph:
    """scipy serves only the Lawlor angle maps, which load its QUADPACK
    extension alone at their first quadrature, so no module, the CLI
    included, loads scipy at import time, and the neck and its check
    never load it.  Records are named tuples, so no module loads
    ``dataclasses``, and the modules that do not import numpy load no
    ``inspect`` either.  Nothing logs, and only ``--record`` hashes, so
    no module loads ``logging`` or ``hashlib``."""

    @pytest.mark.parametrize("module", [
        "slcones.cli", "slcones.lawlor", "slcones.spectrum", "slcones.planes",
        "slcones.consum", "slcones.dims", "slcones.t2cone",
    ])
    def test_import_loads_no_scipy(self, module):
        code = (
            f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'dataclasses' in sys.modules, 'inspect' in sys.modules, "
            "'logging' in sys.modules, 'hashlib' in sys.modules, sep='; ')"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=_ENV, check=True)
        scipy, dataclasses, inspect, logging, hashlib = r.stdout.strip().split("; ")
        assert (scipy, dataclasses, logging, hashlib) == ("[]", "False", "False", "False")
        if module not in ("slcones.lawlor", "slcones.planes"):  # numpy loads inspect
            assert inspect == "False"

    def test_neck_loads_no_scipy(self):
        code = (
            "import sys\n"
            "from slcones.lawlor import NeckParams, neck_point, verify_sl_neck\n"
            "p = NeckParams((4, 1, 1))\n"
            "verify_sl_neck(p, 8)\n"
            "neck_point(p, 0.5, (1.0, 0.0, 0.0))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=_ENV, check=True)
        assert r.stdout.strip() == "[]"

    # the README examples of the lawlor subcommand: the angle maps load
    # QUADPACK from its file, and no scipy subpackage
    @pytest.mark.parametrize("name", ["lawlor_a", "lawlor_phi"])
    def test_angle_maps_load_only_quadpack(self, name):
        golden = GOLDENS[name]
        code = (
            "import sys\n"
            "from slcones import cli\n"
            f"code = cli.main({golden['argv']!r})\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy.')"
            " and m.split('.')[1] in ('integrate', 'special', 'optimize', 'sparse', 'linalg')),"
            " file=sys.stderr)\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=_ENV, check=True)
        assert r.stderr.strip() == "0 ['scipy.integrate._quadpack']"
        assert r.stdout == golden["stdout"]

    @pytest.mark.parametrize("scipy_first", [True, False])
    def test_quadpack_is_one_module_whichever_loads_first(self, scipy_first):
        # scipy.integrate imported before the first quadrature, or after
        # it: quad and the angle maps share one QUADPACK module and bits
        code = (
            "import sys\n"
            + ("import scipy.integrate\n" if scipy_first else "")
            + "from slcones.lawlor import NeckParams, _quadpack, angles_from_a\n"
            "before = angles_from_a(NeckParams((4, 1, 50))).phi\n"
            "import scipy.integrate\n"
            "from scipy.integrate import _quadpack_py\n"
            "module = sys.modules['scipy.integrate._quadpack']\n"
            "print(_quadpack() is module and _quadpack_py._quadpack is module)\n"
            "print(before == angles_from_a(NeckParams((4, 1, 50))).phi, repr(before))\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=_ENV, check=True)
        from slcones.lawlor import NeckParams, angles_from_a

        phi = angles_from_a(NeckParams((4, 1, 50))).phi
        assert r.stdout.splitlines() == ["True", f"True {phi!r}"]

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
        (GOLDENS[name]["argv"][0], GOLDENS[name]["stdin"])
        for name in ("dims", "t2cone_generator", "t2cone_basis", "t2cone_pairing")
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
        golden = GOLDENS["consum"]
        code = (
            "import io, sys\n"
            "from slcones import cli\n"
            f"sys.stdin = io.StringIO({golden['stdin']!r})\n"
            f"code = cli.main({golden['argv']!r})\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'),"
            " file=sys.stderr)\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=_ENV, check=True)
        assert r.stderr.strip() == "0 []"
        assert r.stdout == golden["stdout"]

    def test_spectrum_import_loads_no_numpy(self):
        code = (
            "import sys, slcones.spectrum; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=_ENV, check=True)
        assert r.stdout.strip() == "[]"

    # the README examples of the spectrum subcommands
    @pytest.mark.parametrize("name", ["stability", "spectrum"])
    def test_spectrum_readme_examples_load_no_numpy(self, name):
        args = GOLDENS[name]["argv"]
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
    def test_deterministic_bytes(self, monkeypatch, capsys):
        # a child process, with its own hash seed, against this one
        a = _run(["stability", "--m", "7"])
        code, out, _ = _main(["stability", "--m", "7"], "", monkeypatch, capsys)
        assert (a.returncode, a.stdout) == (code, out)
        assert out.endswith("\n")

    def test_invalid_dimension_exits_2_with_error_json(self, monkeypatch, capsys):
        code, out, err = _main(["stability", "--m", "2"], "", monkeypatch, capsys)
        assert code == 2
        assert out == ""
        err = json.loads(err)
        _validate(err, "error")
        assert err["error"]["type"] == "InputError"


class TestSpectrum:
    def test_rational_delta(self, monkeypatch, capsys):
        code, out, err = _main(["spectrum", "--m", "3", "--cutoff", "9", "--delta", "5/2"], "",
                               monkeypatch, capsys)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["delta"] == "5/2"
        _validate(doc, "spectrum")

    def test_cutoff_too_small_for_delta(self, monkeypatch, capsys):
        code, _, err = _main(["spectrum", "--m", "3", "--cutoff", "4", "--delta", "3"], "",
                             monkeypatch, capsys)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "IncompleteSpectrumError"

    @pytest.mark.parametrize("args", [
        ["spectrum", "--m", "3", "--cutoff", "100000000"],
        ["stability", "--m", "10000000"],
    ])
    def test_over_budget_exits_2(self, args, monkeypatch, capsys):
        start = time.perf_counter()
        code, out, err = _main(args, "", monkeypatch, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        _validate(doc, "error")
        assert doc["error"]["type"] == "InputError"
        assert "units of work" in doc["error"]["message"]


class TestLawlor:
    def test_unattainable_tolerance_exits_3(self, monkeypatch, capsys):
        code, out, err = _main(["lawlor", "--a", "4,1,1", "--tol", "1e-30"], "",
                               monkeypatch, capsys)
        assert code == 3
        err = json.loads(err)
        _validate(err, "error")
        assert err["error"]["type"] == "NumericError"
        assert err["error"]["achieved"] > 0

    def test_inverse_tolerance_below_the_residual_accuracy_exits_3(self, monkeypatch, capsys):
        # the uncertified residual can read exactly 0.0, so a tol below its
        # quadrature's 1e-13 accuracy would pass without being certified
        argv = ["lawlor", "--phi", "1,1,1.1415926535897931", "--area", "1", "--tol"]
        code, out, err = _main(argv + ["1e-300"], "", monkeypatch, capsys)
        assert code == 3
        assert out == ""
        err = json.loads(err)
        _validate(err, "error")
        assert err["error"]["type"] == "NumericError"
        assert err["error"]["achieved"] == 1e-13
        assert "tol 1.000e-300" in err["error"]["message"]
        assert "1e-13" in err["error"]["message"]
        code, out, err = _main(argv + ["1e-13"], "", monkeypatch, capsys)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("a", ["1e12,1e-12,1", "1e308,1e308,1e308,1e308"])
    def test_garbage_quadrature_exits_3(self, a, monkeypatch, capsys):
        code, out, err = _main(["lawlor", "--a", a], "", monkeypatch, capsys)
        assert code == 3
        assert out == ""
        err = json.loads(err)
        _validate(err, "error")
        assert err["error"]["type"] == "NumericError"

    # Gamma(m/2) passes the float range from m = 344, and the sphere's area
    # underflows from m = 456: each answers or is a typed numeric failure
    @pytest.mark.parametrize("args", [
        ["--a", ",".join(["1"] * 344)],
        ["--a", ",".join(["1"] * 460)],
        ["--phi", ",".join([repr(math.pi / 400)] * 400), "--area", "1.0"],
        ["--phi", ",".join([repr(math.pi / 500)] * 500), "--area", "1.0"],
    ], ids=["a 344", "a 460", "phi 400", "phi 500"])
    def test_many_dimensions_answer_or_exit_3(self, args, monkeypatch, capsys):
        code, out, err = _main(["lawlor", *args], "", monkeypatch, capsys)
        assert code in (0, 3)
        if code == 0:
            _validate(json.loads(out), "lawlor")
            assert err == ""
        else:
            assert out == ""
            doc = json.loads(err)
            _validate(doc, "error")
            assert doc["error"]["type"] == "NumericError"

    def test_phi_without_area_is_input_error(self, monkeypatch, capsys):
        code, _, _ = _main(["lawlor", "--phi", "1.0,1.0,1.1415926535897931"], "",
                           monkeypatch, capsys)
        assert code == 2

    def test_area_without_phi_is_input_error(self, monkeypatch, capsys):
        # --area beside --a was once ignored, answering area 2 pi
        code, out, err = _main(["lawlor", "--a", "4,1,1", "--area", "5"], "",
                               monkeypatch, capsys)
        assert (code, out) == (2, "")
        doc = json.loads(err)
        _validate(doc, "error")
        assert doc["error"] == {"type": "InputError", "message": "--area requires --phi"}

    # an empty entry was once dropped, answering a = (4, 1, 1)
    @pytest.mark.parametrize("args, flag, position", [
        (["--a", "4,,1,1"], "--a", 2),
        (["--a", "4,1,1,"], "--a", 4),
        (["--a", ""], "--a", 1),
        (["--a", "4,x,1"], "--a", 2),
        (["--phi", ",1,1,1.1415926535897931", "--area", "1"], "--phi", 1),
    ])
    def test_empty_or_bad_entry_is_input_error(self, args, flag, position,
                                               monkeypatch, capsys):
        code, out, err = _main(["lawlor", *args], "", monkeypatch, capsys)
        assert (code, out) == (2, "")
        doc = json.loads(err)
        _validate(doc, "error")
        assert doc["error"]["type"] == "InputError"
        assert doc["error"]["message"].startswith(f"{flag} entry {position} ")

    def test_a_and_phi_together_is_usage_error(self, monkeypatch, capsys):
        code, _, _ = _main(["lawlor", "--a", "1,1,1", "--phi", "1,1,1"], "", monkeypatch, capsys)
        assert code == 64

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

    def test_tolerance_whose_m_fold_overflows_exits_2(self, monkeypatch, capsys):
        # m * tol = inf once reached the angle sum tolerance, and the
        # refusal named that inf, a value the caller never gave
        code, out, err = _main(["lawlor", "--a", "4,1,1", "--tol", "1e308"], "",
                               monkeypatch, capsys)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        _validate(doc, "error")
        assert doc["error"]["type"] == "InputError"
        assert doc["error"]["message"].startswith("tol = 1e+308 ")
        assert "inf" not in doc["error"]["message"]


class TestPlanes:
    def test_non_unitary_frame_exits_2(self, monkeypatch, capsys):
        bad = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        eye = _encode_frame(np.eye(2, dtype=complex))
        code, _, _ = _main(["planes"], json.dumps({"p1": bad, "p2": eye}), monkeypatch, capsys)
        assert code == 2

    def test_missing_key_exits_2(self, monkeypatch, capsys):
        code, _, _ = _main(["planes"], json.dumps({"p1": []}), monkeypatch, capsys)
        assert code == 2

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
    def test_infeasible_graph_reports_null_areas(self, monkeypatch, capsys):
        payload = json.dumps(
            {
                "q": 2,
                "edges": [
                    {"tail": 1, "head": 2, "weight": 1},
                    {"tail": 1, "head": 2, "weight": "1/2"},
                ],
            }
        )
        code, out, err = _main(["consum"], payload, monkeypatch, capsys)
        assert code == 0, err
        doc = json.loads(out)
        _validate(doc, "consum")
        assert doc["feasible"] is False
        assert doc["areas"] is None

    def test_malformed_json_exits_2(self, monkeypatch, capsys):
        code, _, err = _main(["consum"], '{"q":2 "edges":[]}', monkeypatch, capsys)
        assert code == 2
        err = json.loads(err)
        _validate(err, "error")
        assert "malformed JSON" in err["error"]["message"]

    def test_bad_weight_exits_2(self, monkeypatch, capsys):
        payload = json.dumps(
            {"q": 1, "edges": [{"tail": 1, "head": 1, "weight": "x/y"}]}
        )
        assert _main(["consum"], payload, monkeypatch, capsys)[0] == 2

    @pytest.mark.parametrize("payload", [
        '{"q":"abc","edges":[]}',
        '{"q":1e400,"edges":[]}',
        '{"q":true,"edges":[]}',
        '{"q":2,"edges":[{"tail":"1","head":2,"weight":1}]}',
        '{"q":2,"edges":[{"tail":1.5,"head":2,"weight":1}]}',
        '{"q":2,"edges":[{"tail":1,"head":[2],"weight":1}]}',
    ])
    def test_non_integer_field_exits_2(self, payload, monkeypatch, capsys):
        code, out, err = _main(["consum"], payload, monkeypatch, capsys)
        assert code == 2, err
        assert out == ""
        err = json.loads(err)
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
        assert "edges[0]: edge weight" in doc["error"]["message"]

    def test_float_weight_is_read_by_the_denominator_limit(self, monkeypatch, capsys):
        payload = ('{"q":2,"edges":[{"tail":1,"head":2,"weight":0.1},'
                   '{"tail":2,"head":1,"weight":"1/3"}]}')
        code, out, err = _main(["consum"], payload, monkeypatch, capsys)
        assert code == 0, err
        assert json.loads(out)["areas"] == [10, 3]

class TestInternalGuards:
    """A failed internal cross-check is a numeric failure (exit 3), also
    under ``python -O``."""

    def test_unbalanced_areas_exit_3(self, monkeypatch, capsys):
        prop = consum.IntersectionGraph.__dict__["_trees"]

        def miscounted(g, build=prop.func):
            # one subtree count too high: one more walk into component 1
            (order, parent, via, below), out_tree = build(g)
            below[order[-1]] += 1
            return [(order, parent, via, below), out_tree]

        monkeypatch.setattr(prop, "func", miscounted)
        golden = GOLDENS["consum"]
        code, out, err = _main(golden["argv"], golden["stdin"], monkeypatch, capsys)
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
    def test_basis_mode_locked_ratio(self, monkeypatch, capsys):
        payload = json.dumps(
            {"basis": {"B1": [[1, 0], [0, "3/2"]], "B2": [[0, "3/2"], [1, 0]]}}
        )
        code, out, err = _main(["t2cone"], payload, monkeypatch, capsys)
        assert code == 0, err
        doc = json.loads(out)
        _validate(doc, "t2cone")
        assert doc["families"] == [
            {"j1": 1, "j2": 2, "ratio": "3/2", "dimY": 1},
            {"j1": 2, "j2": 1, "ratio": "2/3", "dimY": 1},
        ]

    def test_pairing_mode(self, monkeypatch, capsys):
        payload = json.dumps({"pairing": math.pi, "kJ": 1})
        code, out, err = _main(["t2cone"], payload, monkeypatch, capsys)
        assert code == 0, err
        doc = json.loads(out)
        _validate(doc, "t2cone")
        assert doc["region"] == "positive"
        assert doc["t"] == pytest.approx(1.0, rel=1e-12)

    def test_ambiguous_mode_exits_2(self, monkeypatch, capsys):
        payload = json.dumps({"generator": [1, 1], "pairing": 1.0})
        code, _, _ = _main(["t2cone"], payload, monkeypatch, capsys)
        assert code == 2

    def test_imprimitive_generator_exits_2(self, monkeypatch, capsys):
        code, _, _ = _main(["t2cone"], json.dumps({"generator": [2, 4]}), monkeypatch, capsys)
        assert code == 2

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
    def test_bad_number_exits_2(self, payload, monkeypatch, capsys):
        code, out, err = _main(["t2cone"], payload, monkeypatch, capsys)
        assert code == 2, err
        assert out == ""
        err = json.loads(err)
        _validate(err, "error")
        assert err["error"]["type"] == "InputError"


class TestDims:
    PROFILE = json.loads(GOLDENS["dims"]["stdin"])

    @pytest.mark.parametrize("change", [
        {"m": "3"},
        {"q": 2.5},
        {"dimY": True},
        {"cones": [{"l": "2", "sInd": 0}]},
    ])
    def test_non_integer_field_exits_2(self, change, monkeypatch, capsys):
        payload = json.dumps(dict(self.PROFILE, **change))
        code, out, err = _main(["dims"], payload, monkeypatch, capsys)
        assert code == 2, err
        assert out == ""
        err = json.loads(err)
        _validate(err, "error")
        assert err["error"]["type"] == "InputError"
        assert "must be an integer" in err["error"]["message"]

    @pytest.mark.parametrize("rigid", ["no", 0, 1, None])
    def test_non_bool_rigid_exits_2(self, rigid, monkeypatch, capsys):
        profile = dict(self.PROFILE, cones=[{"l": 2, "sInd": 0, "rigid": rigid}])
        code, out, err = _main(["dims"], json.dumps(profile), monkeypatch, capsys)
        assert code == 2, err
        assert out == ""
        err = json.loads(err)
        _validate(err, "error")
        assert err["error"]["type"] == "InputError"
        assert "rigid must be true or false" in err["error"]["message"]

    @pytest.mark.parametrize("change, entry", [
        ({"necks": [[1, 1, 0]]}, "necks[0]"),
        ({"necks": [None]}, "necks[0]"),
        ({"cones": ["x"]}, "cones[0]"),
    ])
    def test_non_object_entry_exits_2(self, change, entry, monkeypatch, capsys):
        payload = json.dumps(dict(self.PROFILE, **change))
        code, out, err = _main(["dims"], payload, monkeypatch, capsys)
        assert code == 2, err
        assert out == ""
        err = json.loads(err)
        _validate(err, "error")
        assert err["error"]["type"] == "InputError"
        assert entry in err["error"]["message"]
        assert "must be a JSON object" in err["error"]["message"]

    def test_inconsistent_profile_exits_2(self, monkeypatch, capsys):
        bad = dict(self.PROFILE, b1csX=0, q=1)
        bad["cones"] = [{"l": 3, "sInd": 0}]
        bad["necks"] = [{"b0L": 1, "b1L": 1, "b1csL": 0}]
        code, _, _ = _main(["dims"], json.dumps(bad), monkeypatch, capsys)
        assert code == 2


class TestUnknownKeys:
    """A key that names no field, at any level of an input document, is
    refused with exit 2 by a message naming it, not dropped."""

    @pytest.mark.parametrize("sub, doc, key", [
        ("dims", dict(TestDims.PROFILE, cones=[{"l": 2, "sInd": 0, "Rigid": False}]), "Rigid"),
        ("dims", dict(TestDims.PROFILE, dimy=5), "dimy"),
        ("consum", {"q": 1, "edges": [{"tail": 1, "head": 1, "Weight": 1}]}, "Weight"),
        ("consum", dict(json.loads(GOLDENS["consum"]["stdin"]), n=2), "n"),
        ("t2cone", {"pairing": 1.5, "kJ": 1, "h1X": 2}, "h1X"),
        ("t2cone", {"generator": [1, 1], "extra": 1}, "extra"),
        ("t2cone", {"basis": {"B1": [[1, 0], [0, 1]], "B2": [[0, 1], [1, 0]], "x": 1}}, "x"),
        ("planes", dict(json.loads(GOLDENS["planes"]["stdin"]), tol=1e-9), "tol"),
    ], ids=["dims cone", "dims root", "consum edge", "consum root", "t2cone pairing",
            "t2cone generator", "t2cone basis", "planes"])
    def test_unknown_key_exits_2(self, sub, doc, key, monkeypatch, capsys):
        code, out, err = _main([sub], json.dumps(doc), monkeypatch, capsys)
        assert code == 2, err
        assert out == ""
        err = json.loads(err)
        _validate(err, "error")
        assert err["error"]["type"] == "InputError"
        assert f"unknown key {key!r}" in err["error"]["message"]


class TestVerify:
    def test_table1_suite_passes(self, monkeypatch, capsys):
        code, out, _ = _main(["verify", "--suite", "table1"], "", monkeypatch, capsys)
        assert code == 0, out
        doc = json.loads(out)
        _validate(doc, "verify")
        assert doc["passed"] is True
        assert doc["failures"] == []

    def test_gluings_suite_passes(self, monkeypatch, capsys):
        code, out, _ = _main(["verify", "--suite", "gluings"], "", monkeypatch, capsys)
        assert code == 0, out
        assert json.loads(out)["passed"] is True

    def test_lawlor_suite_passes(self, monkeypatch, capsys):
        code, out, err = _main(["verify", "--suite", "lawlor"], "", monkeypatch, capsys)
        assert code == 0, out
        doc = json.loads(out)
        _validate(doc, "verify")
        assert doc["passed"] is True


class TestRunRecord:
    def test_envelope_shape_and_digest_stability(self, monkeypatch, capsys):
        # a child process, with its own hash seed, against this one
        a = _run(["stability", "--m", "5", "--record"])
        code, out, err = _main(["stability", "--m", "5", "--record"], "", monkeypatch, capsys)
        assert code == 0, err
        doc = json.loads(out)
        _validate(doc, "record")
        assert doc["subcommand"] == "stability"
        assert doc["output"]["sInd"] == 20
        assert (a.returncode, a.stdout) == (code, out)

    def test_digest_depends_on_input(self, monkeypatch, capsys):
        d5 = json.loads(_main(["stability", "--m", "5", "--record"], "", monkeypatch, capsys)[1])
        d6 = json.loads(_main(["stability", "--m", "6", "--record"], "", monkeypatch, capsys)[1])
        assert d5["inputDigest"] != d6["inputDigest"]
        assert len(d5["inputDigest"]) == 64


def _contract(sub: str, args, stdin: str = "") -> int:
    """Run ``cli.main(args)`` in this process and check the CLI contract:
    exit 0 with a document valid against the subcommand's schema on stdout
    and nothing on stderr, or exit 2 or 3 with nothing on stdout and one
    valid error document on stderr, or a usage error (``SystemExit(64)``).
    Returns the exit code.  It takes no fixtures, so that hypothesis may
    call it once per example."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            assert exc.code == 64, (args, exc.code)
            return 64
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "", (args, err)
        _validate(json.loads(out), sub)
    else:
        assert code in (2, 3), (args, code)
        assert out == "", (args, out)
        assert err.endswith("\n") and err.count("\n") == 1, (args, err)
        _validate(json.loads(err), "error")
    return code


# the README documents, and a planes pair, whose every node the fuzz
# replaces in turn
_DOCUMENTS = [
    (GOLDENS[name]["argv"][0], json.loads(GOLDENS[name]["stdin"]))
    for name in ("consum", "dims", "t2cone_generator", "t2cone_basis", "t2cone_pairing", "planes")
]


def _paths(doc, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(child, path + (key,))


def _put(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    new = doc.copy()
    new[path[0]] = _put(doc[path[0]], path[1:], value)
    return new


def _at(doc, path):
    """The node of ``doc`` at ``path``."""
    for key in path:
        doc = doc[key]
    return doc


# every key of the documents, and the one optional key they leave out
_KEYS = {key for _, doc in _DOCUMENTS for path in _paths(doc) for key in path
         if isinstance(key, str)} | {"rigid"}
# a document first, then one of its objects
_OBJECTS = st.sampled_from(_DOCUMENTS).flatmap(
    lambda entry: st.sampled_from([(*entry, path) for path in _paths(entry[1])
                                   if isinstance(_at(entry[1], path), dict)])
)
# a document first, then one of its nodes, so that each subcommand is drawn alike
_NODES = st.sampled_from(_DOCUMENTS).flatmap(
    lambda entry: st.sampled_from([(*entry, path) for path in _paths(entry[1])])
)
_HOSTILE_LEAVES = st.one_of(
    st.sampled_from([10**400, -(10**400), 2**64, 1e18, math.nan, math.inf, -math.inf,
                     5e-324, -0.0, 0, 1, 2, 0.5]),
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
)
_HOSTILE_JSON = st.recursive(
    _HOSTILE_LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
_HOSTILE_NUMBER = st.sampled_from([
    "0", "1", "-1", "2", "3", "8", "2.5", "1/2", "1/0", "1e18", "1e400", "nan", "inf",
    "-inf", "5e-324", "1e-320", "1.1415926535897931", str(10**400), "abc", "", " ", "0x10",
])
_SMALL_INT = st.integers(-2, 30).map(str)
_POSITIVE = st.floats(0.05, 20).map(repr)


def _angles(weights) -> list:
    """Angles proportional to ``weights`` that sum to pi, as flag strings."""
    return [repr(math.pi * w / sum(weights)) for w in weights]


class TestFuzz:
    """Every subcommand answers or reports a typed error, whatever it is
    given: exit 0, 2 or 3 under :func:`_contract`, or a usage error.  The
    JSON subcommands get a documented input with one node replaced by a
    hostile JSON value; the flag subcommands get hostile number strings."""

    @settings(derandomize=True, deadline=None, max_examples=400, database=None)
    @given(node=_NODES, value=_HOSTILE_JSON)
    def test_json_subcommands_keep_the_contract(self, node, value):
        sub, doc, path = node
        _contract(sub, [sub], json.dumps(_put(doc, path, value)))

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(node=_OBJECTS, key=st.text(max_size=4).filter(lambda k: k not in _KEYS),
           value=_HOSTILE_JSON)
    def test_unknown_key_exits_2(self, node, key, value):
        sub, doc, path = node
        changed = _put(doc, path, {**_at(doc, path), key: value})
        assert _contract(sub, [sub], json.dumps(changed)) == 2

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(m=_SMALL_INT | _HOSTILE_NUMBER, cutoff=_SMALL_INT | _HOSTILE_NUMBER,
           delta=st.none() | _SMALL_INT | _HOSTILE_NUMBER)
    def test_spectrum_and_stability_keep_the_contract(self, m, cutoff, delta):
        _contract("stability", ["stability", f"--m={m}"])
        extra = [] if delta is None else [f"--delta={delta}"]
        _contract("spectrum", ["spectrum", f"--m={m}", f"--cutoff={cutoff}", *extra])

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(flag=st.sampled_from(["--a", "--phi"]),
           entries=st.lists(_POSITIVE | _HOSTILE_NUMBER, min_size=1, max_size=5)
           | st.lists(st.floats(0.05, 20), min_size=3, max_size=5).map(_angles),
           area=st.none() | _POSITIVE | _HOSTILE_NUMBER, tol=st.none() | _HOSTILE_NUMBER)
    def test_lawlor_keeps_the_contract(self, flag, entries, area, tol):
        args = ["lawlor", f"{flag}={','.join(entries)}"]
        args += [] if area is None else [f"--area={area}"]
        args += [] if tol is None else [f"--tol={tol}"]
        _contract("lawlor", args)

    # inputs that once ended in a traceback (exit 1) or exhausted memory
    @pytest.mark.parametrize("args, stdin, code", [
        (["lawlor", "--phi", "1,1,1.1415926535897931", "--area", "5e-324"], "", 3),
        (["lawlor", "--phi", "1,1,1.1415926535897931", "--area", "1e-320"], "", 3),
        (["lawlor", "--a", "1e-320,7,3.0,7,1e-320"], "", 3),
        *(([sub], "[" * 200000, 2) for sub in ("planes", "consum", "dims", "t2cone")),
        (["consum"], '{"q": %d, "edges": []}' % 10**400, 2),
        (["consum"], '{"q": 1%s, "edges": []}' % ("0" * 5000), 2),
    ], ids=["area 5e-324", "area 1e-320", "prod(a) underflows",
            *(f"{sub} nested 200000 deep" for sub in ("planes", "consum", "dims", "t2cone")),
            "q 10**400", "q of 5001 digits"])
    def test_probed_inputs_are_typed_errors(self, args, stdin, code):
        assert _contract(args[0], args, stdin) == code

    def test_undecodable_input_file_exits_2(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_bytes(b'\xff\xfe{"q": 1}')
        assert _contract("consum", ["consum", "--input", str(path)]) == 2
