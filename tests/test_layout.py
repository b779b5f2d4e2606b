"""The README's Layout block lists exactly the modules of the package,
every module attribute the README names exists, every example output
the README shows is a golden of ``goldens.json``, only the QUADPACK
loader names scipy, and the CLI spells no record key by hand."""
import ast
import importlib
import importlib.util
import json
import re
import shlex
from pathlib import Path

from slcones.cli import _goldens

REPO = Path(__file__).resolve().parent.parent


def test_readme_layout_lists_every_module():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Layout\n\n```\n(.*?)```", readme, re.S).group(1)
    listed = re.findall(r"^  (\S+\.py)\s", block, re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == {p.name for p in (REPO / "src" / "slcones").glob("*.py")}


def test_readme_names_only_attributes_that_exist():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    modules = {p.stem for p in (REPO / "src" / "slcones").glob("*.py")}
    named = {(mod, attr) for mod, attr in re.findall(r"`(\w+)\.(\w+)", readme)
             if mod in modules}
    assert named  # the pattern finds the names it is meant to check
    missing = [f"{mod}.{attr}" for mod, attr in sorted(named)
               if not hasattr(importlib.import_module(f"slcones.{mod}"), attr)]
    assert not missing, f"README names attributes that do not exist: {missing}"


def test_readme_example_outputs_are_goldens():
    # each "# {...}" line of the Command line block is the stdout of the
    # golden whose argv and stdin are the command above it
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    goldens = _goldens("cli").values()
    command, checked = "", 0
    for line in block.replace("\\\n", " ").splitlines():
        if not line.startswith("# {"):
            command = line if line.strip() else command
            continue
        words, stdin = shlex.split(command, comments=True), None
        if words[0] == "echo":
            assert words[2] == "|", command
            stdin, words = words[1], words[3:]
        golden = [g for g in goldens if (g["argv"], g["stdin"]) == (words[1:], stdin)]
        assert golden, f"no golden runs {command!r}"
        assert line[2:] + "\n" == golden[0]["stdout"], command
        checked += 1
    assert checked  # the block shows outputs, and each was compared


def test_perfbench_goldens_equal_the_package_file():
    """The benchmark keeps its own copy of the goldens and of their inputs
    (``perfbench/goldens.json`` and ``perfbench/cli_layer.py:CATALOG``);
    both must equal ``goldens.json``, so a golden moved in the package
    fails here rather than in a traced benchmark run.  ROADMAP item 1
    deletes this test when perfbench reads the package file itself."""
    bench = json.loads((REPO / "perfbench" / "goldens.json").read_text(encoding="utf-8"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_cli_layer", REPO / "perfbench" / "cli_layer.py")
    cli_layer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_layer)
    package = _goldens("cli")
    assert bench["cli"] == {
        name: {"exit": g["exit"], "stdout": g["stdout"]} for name, g in package.items()
    }
    assert {name: (argv, stdin) for name, argv, stdin in cli_layer.CATALOG} == {
        name: (g["argv"], g["stdin"]) for name, g in package.items()
    }
    assert bench["stability"] == _goldens("stability")
    assert bench["gluings"] == _goldens("gluings")


def _scipy_owners(tree):
    """The top-level function or class (None at module level) of every
    import, name, attribute or string of ``tree`` that names scipy,
    docstrings aside."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node) is not None}
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Import):
                text = " ".join(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                text = node.module or ""
            elif isinstance(node, ast.Name):
                text = node.id
            elif isinstance(node, ast.Attribute):
                text = node.attr
            elif isinstance(node, ast.Constant) and id(node) not in docstrings:
                text = str(node.value)
            else:
                continue
            if "scipy" in text:
                yield getattr(stmt, "name", None)


def test_only_the_quadpack_loader_names_scipy():
    """scipy serves only QUADPACK, loaded by ``lawlor._quadpack``; no other
    code of the package names it, so ROADMAP item 2 takes scipy out by
    deleting one loader."""
    owners = {
        (path.name, owner)
        for path in sorted((REPO / "src" / "slcones").glob("*.py"))
        for owner in _scipy_owners(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert owners == {("lawlor.py", "_quadpack")}


def test_cli_spells_no_record_key():
    """The CLI reads and writes a record's keys through the record's
    ``_fields`` (``cli._record`` and ``cli._json``), so no string of
    ``cli.py`` is one of them."""
    keys = {"sInd", "b0L", "b1L", "b1csL", "b1csX", "tail", "head", "weight",
            "B1", "B2", "cones", "necks", "edges"}
    tree = ast.parse((REPO / "src" / "slcones" / "cli.py").read_text(encoding="utf-8"))
    spelt = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in keys}
    assert not spelt, f"cli.py spells record keys by hand: {sorted(spelt)}"
