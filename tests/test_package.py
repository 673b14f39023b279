"""Checks on the package as a whole: its documented entry point runs, it
needs nothing beyond numpy and the standard library, it loads numpy on
first array use only, and README's "Fast paths" table names each of its
memos.  The suite imports numpy itself, so the loading is checked in fresh
interpreters."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports the package from src."""
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=False)


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


@pytest.mark.parametrize("hide", [
    'sys.modules["numpy"] = None',
    'sys.path[:] = [p for p in sys.path if "-packages" not in p]',
], ids=["import-blocked", "not-installed"])
def test_a_missing_numpy_fails_at_import(hide):
    code = f"""
import sys
{hide}
try:
    import hapticsched
except ModuleNotFoundError as exc:
    print(exc.name)
"""
    done = fresh_python(code)
    assert (done.returncode, done.stdout, done.stderr) == (0, "numpy\n", "")


@pytest.mark.parametrize("argv", [
    ["bound"],
    ["remainder"],
    ["sweep", "--param", "t_ib", "--from", "1ms", "--to", "3ms", "--steps", "41"],
    ["sweep", "--param", "tti", "--values", "0.125ms,0.25ms,0.5ms,1ms"],
], ids=["bound", "remainder", "sweep-t_ib", "sweep-tti"])
def test_closed_form_verbs_never_load_numpy(argv):
    code = """
import contextlib, io, sys
from hapticsched.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    status = main(sys.argv[1:])
print(status, len(out.getvalue().splitlines()) > 1, "numpy._core" in sys.modules)
"""
    done = fresh_python(code, *argv)
    assert (done.stdout, done.stderr) == ("0 True False\n", "")


def test_simulate_loads_numpy_on_first_use():
    """The documented command's stdout, byte for byte, with numpy loaded by
    the first array the run builds rather than by the import."""
    done = fresh_python("from hapticsched.cli import entry; entry()", "simulate", "--horizon", "30s", "--seed", "3")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (ROOT / "tests" / "golden" / "simulate_30s_seed3.csv").read_text()


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.stem)
def test_demo_stdout_is_pinned(demo):
    """Each demo's stdout, byte for byte, as tests/golden/demos holds it."""
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, timeout=120, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=False)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_bytes()


def test_every_memo_has_a_fast_paths_row():
    """Each function of the package that keeps a functools cache is named
    as module.name in the Where cell of a "Fast paths" row, and a row that
    states lru_cache(maxsize=N) states the cache's own size."""
    section = (ROOT / "README.md").read_text().split("## Fast paths", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| ")]
    memos = {}
    for path in sorted((ROOT / "src" / "hapticsched").glob("*.py")):
        module = importlib.import_module(f"hapticsched.{path.stem}")
        memos.update({f"{path.stem}.{name}": value.cache_parameters()["maxsize"]
                      for name, value in vars(module).items()
                      if hasattr(value, "cache_parameters") and value.__module__ == module.__name__})
    assert memos
    for name, maxsize in memos.items():
        named = [row for row in rows if f"`{name}`" in row[1]]
        assert named, f"{name} has no Fast paths row"
        for row in named:
            for stated in re.findall(r"lru_cache\(maxsize=(\d+)\)", "|".join(row)):
                assert int(stated) == maxsize, name
