"""The package's layering, read from its import statements: the estimator
and the maps depend only on the device layer, so neither reaches back into
circuits, noise or the run."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "synbench"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def sibling_imports(source: str) -> set[str]:
    """The synbench modules that `source` imports, relatively or by the
    package's name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("synbench."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("synbench."))
    return found & MODULES


@pytest.mark.parametrize("module", ["analysis", "render"])
def test_module_imports_only_the_device_layer(module):
    assert sibling_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) <= {"device"}


def test_import_reader_finds_every_import_form():
    source = "from .noise import x\nfrom . import cli, __version__\nfrom synbench.circuits import y\nimport synbench.render\n"
    assert sibling_imports(source) == {"noise", "cli", "circuits", "render"}
