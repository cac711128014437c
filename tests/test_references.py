"""Every top-level function and class in the package is used by the package
or by the benchmark harness; code that only tests call is not kept."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "emgforge"
# tests/test_acceptance.py, the acceptance gate, imports it.
TEST_ONLY = {"tensor.sum_all"}


def _trees(directory: Path):
    """Each non-test module of `directory` as (module name, parsed tree)."""
    for path in sorted(directory.glob("*.py")):
        if not path.name.startswith("test_"):
            yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _referenced_names() -> set:
    """Every name, attribute, imported name and string constant in the package
    and the benchmark harness; strings count because the harness wraps
    functions it names by string."""
    names = set()
    for directory in (PACKAGE, ROOT / "perfbench"):
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_top_level_definition_is_used_outside_tests():
    referenced = _referenced_names()
    unused = {
        f"{module}.{node.name}"
        for module, tree in _trees(PACKAGE)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in referenced
    }
    assert unused == TEST_ONLY


def test_benchmark_layers_resolve():
    """perfbench/run.py looks up every LAYERS entry at start-up, so a name
    missing from its module fails every benchmark run. run.py is parsed, not
    imported: importing it sets the BLAS thread variables."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    (layers,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    pairs = [tuple(value) for value in ast.literal_eval(layers).values()]
    assert pairs
    missing = [
        f"{module}.{name}"
        for module, name in pairs
        if not hasattr(importlib.import_module(f"emgforge.{module}"), name)
    ]
    assert missing == []
