"""Checks on the package as a whole: its documented entry point runs, and
it needs nothing beyond numpy and the standard library."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["bound"] > 0
    assert len(namespace["report"].leftover_delays) > 0


def test_src_depends_on_numpy_only():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted((ROOT / "src" / "hapticsched").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {m}" for m in modules if m.partition(".")[0] not in allowed]
    assert not foreign
