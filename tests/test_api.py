"""Public API surface and the demo scripts."""

import importlib
import os
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
