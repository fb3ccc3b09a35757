"""Public API surface and the demo scripts."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["weylinv", "weylinv.boundary", "weylinv.cli", "weylinv.contour",
           "weylinv.core", "weylinv.forward", "weylinv.inverse",
           "weylinv.potentials"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [a for a in mod.__all__ if not hasattr(mod, a)]
    assert missing == []


def test_imports_are_stdlib_or_declared():
    # every module that src/weylinv/ imports, at any depth, is the standard
    # library, the package itself or a dependency pyproject.toml declares
    text = (ROOT / "pyproject.toml").read_text()
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    declared = {re.match(r"[\w.-]+", d).group(0).lower().replace("-", "_")
                for d in re.findall(r'"([^"]+)"', deps.group(1))}
    assert declared
    imported = set()
    for path in (ROOT / "src" / "weylinv").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"weylinv"} <= declared


@pytest.mark.parametrize("script, args", [
    ("01_forward_weyl.py", []),
    ("02_roundtrip_reconstruction.py", ["--quick"]),
    ("03_vertex_conditions.py", []),
])
def test_demo_runs(script, args, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               MPLBACKEND="Agg")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
