"""The import surface: each public name resolves in the module that lists it,
every demo's imports and definitions load, and importing the package builds
no quadrature rule."""

from __future__ import annotations

import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stablevol

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))


def _under_tests(path) -> bool:
    return path is not None and TESTS in Path(path).resolve().parents


def test_public_names_resolve_and_demos_load(monkeypatch):
    for name in ("experiment", "filters", "kernels", "proposals", "stable", "svm"):
        module = getattr(stablevol, name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"stablevol.{name}.__all__ lists undefined names {missing}"
    # The test run puts tests/ on sys.path and imports its helpers; a user
    # running a demo has neither, so a demo importing them must fail here.
    monkeypatch.setattr(sys, "path", [p for p in sys.path if Path(p).resolve() != TESTS])
    for name, module in list(sys.modules.items()):
        if _under_tests(getattr(module, "__file__", None)):
            monkeypatch.delitem(sys.modules, name)
    assert DEMOS
    for path in DEMOS:
        # run_name keeps the demo's `if __name__ == "__main__"` block from running.
        namespace = runpy.run_path(str(path), run_name="demo")
        assert callable(namespace["main"]), path.name


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2, reason="numpy 1.x imports numpy.polynomial itself"
)
def test_import_loads_no_polynomial_package():
    # A fresh interpreter: the test helpers import numpy.polynomial themselves.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import sys, stablevol; assert 'numpy.polynomial' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
