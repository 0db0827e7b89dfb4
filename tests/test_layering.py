"""The package's layering, read from its import statements: the estimator,
the maps and the noise model depend only on the device layer, so none of
them reaches back into circuits, the estimator's tables or the run."""

from __future__ import annotations

import ast
import importlib
import inspect
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


@pytest.mark.parametrize("module", ["analysis", "noise", "render"])
def test_module_imports_only_the_device_layer(module):
    assert sibling_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) <= {"device"}


def test_import_reader_finds_every_import_form():
    source = "from .noise import x\nfrom . import cli, __version__\nfrom synbench.circuits import y\nimport synbench.render\n"
    assert sibling_imports(source) == {"noise", "cli", "circuits", "render"}


def test_oracles_import_only_classes_from_the_library():
    # the oracles stay free of the library's algorithms: what they take
    # from synbench is types to build and exceptions to expect, never a
    # function such as the inversion they are a reference for
    imported = []
    for node in ast.walk(ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "synbench"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "synbench":
            imported += [(node.module, alias.name) for alias in node.names]
    assert imported
    modules = {module: importlib.import_module(module) for module, _ in imported}
    assert [name for module, name in imported if not inspect.isclass(getattr(modules[module], name))] == []


def test_simulator_takes_only_types_from_circuits():
    # the lowering stays independent of the placement rules: what it takes
    # from the circuits module is the types it reads, never the builder or
    # logical_prelude, and never the module itself
    imported = []
    for node in ast.walk(ast.parse((PACKAGE / "simulator.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, "circuits"), (0, "synbench.circuits")):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            assert "circuits" not in [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            assert "synbench.circuits" not in [alias.name for alias in node.names]
    assert imported
    circuits = importlib.import_module("synbench.circuits")
    assert [name for name in imported if not inspect.isclass(getattr(circuits, name))] == []


def expm1_calls(source: str) -> list[str]:
    """Each call of an `expm1` in `source`, as written, and each import of
    numpy's `expm1` as "from numpy import expm1"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found += [f"from {node.module} import expm1" for alias in node.names if alias.name == "expm1"]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "expm1":
            found.append(ast.unparse(node.func))
    return found


def test_expm1_reader_finds_every_call_form():
    source = "import math, numpy as np\nfrom numpy import expm1\nmath.expm1(1)\nnp.expm1(2)\nexpm1(3)\nnumpy.expm1(4)\n"
    assert sorted(expm1_calls(source)) == ["expm1", "from numpy import expm1", "math.expm1", "np.expm1", "numpy.expm1"]


def test_only_the_noise_model_calls_expm1():
    # the idle channel has one owner, so one module computes its
    # exponentials, and only with math.expm1: numpy's vectorized expm1
    # rounds differently from it on some inputs and CPUs
    calls = {path.stem: expm1_calls(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert {module for module, found in calls.items() if found} == {"noise"}
    assert set(calls["noise"]) == {"math.expm1"}


def instruction_sorts(source: str) -> list[str]:
    """Each `sorted(...)` or `.sort(...)` call in `source` whose argument
    or receiver reads an `.instructions` attribute, as written."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if getattr(node.func, "id", None) == "sorted" and node.args:
                target = node.args[0]
            elif getattr(node.func, "attr", None) == "sort":
                target = node.func.value
            else:
                continue
            if any(getattr(sub, "attr", None) == "instructions" for sub in ast.walk(target)):
                found.append(ast.unparse(node))
    return found


def test_instruction_sort_reader_finds_every_form():
    source = "sorted(c.instructions, key=k)\nc.instructions.sort()\nsorted(list(c.instructions))\nsorted(c.instrs)\nx.sort()\n"
    assert instruction_sorts(source) == ["sorted(c.instructions, key=k)", "c.instructions.sort()", "sorted(list(c.instructions))"]


def test_only_the_circuit_sorts_its_instructions():
    # a circuit's time order has one owner, the Circuit itself, so every
    # other reader takes its instructions as given
    sorts = {path.stem: instruction_sorts(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert {module for module, found in sorts.items() if found} == {"circuits"}
