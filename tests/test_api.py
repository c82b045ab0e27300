"""The package's public surface: every public module-level function has a
caller in the package or its scripts, and the benchmark's tracer still
binds every name it wraps."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vbpg"


def _public_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                yield path.name, node.name


def _referenced_names():
    """Every name the package (outside ``__init__.py``) and the scripts
    reference in code: docstrings and comments do not count."""
    names = set()
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    for path in paths:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_caller():
    used = _referenced_names()
    unused = [f"{module}:{name}" for module, name in _public_functions()
              if name not in used]
    assert unused == []


def test_benchmark_tracer_installs():
    code = ("import sys; sys.path[:0] = ['src', 'perfbench']\n"
            "import vbpg, vbpg.cli, tracing\n"
            "tracing.install(tracing.Recorder(), vbpg)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
