"""The import surface: each public name resolves in the module that lists it,
and every demo's imports and definitions load."""

from __future__ import annotations

import runpy
from pathlib import Path

import stablevol

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_public_names_resolve_and_demos_load():
    for name in ("experiment", "filters", "kernels", "proposals", "stable", "svm"):
        module = getattr(stablevol, name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"stablevol.{name}.__all__ lists undefined names {missing}"
    assert DEMOS
    for path in DEMOS:
        # run_name keeps the demo's `if __name__ == "__main__"` block from running.
        namespace = runpy.run_path(str(path), run_name="demo")
        assert callable(namespace["main"]), path.name
