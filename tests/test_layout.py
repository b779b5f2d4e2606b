"""The README's Layout block lists exactly the modules of the package."""
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_readme_layout_lists_every_module():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Layout\n\n```\n(.*?)```", readme, re.S).group(1)
    listed = re.findall(r"^  (\S+\.py)\s", block, re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == {p.name for p in (REPO / "src" / "slcones").glob("*.py")}
