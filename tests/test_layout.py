"""The README's Layout block lists exactly the modules of the package,
and every module attribute the README names exists."""
import importlib
import re
from pathlib import Path

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
