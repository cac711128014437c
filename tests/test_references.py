"""Every top-level function and class in the package is used by the package
or by the benchmark harness, and so is every defaulted parameter of its
functions; code that only tests call is not kept. The package raises its
invariants as exceptions and holds no `assert`, which `python -O` strips,
and imports nothing but the standard library, numpy and itself."""

import ast
import collections
import importlib
import sys
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


def _module_of(node: ast.ImportFrom, package: bool):
    """The emgforge module an import reads from: its name, "" for the
    package itself, or None for any other import."""
    if package and node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "emgforge":
        return node.module.partition(".")[2]
    return None


def _layers(tree) -> list:
    """The (module, name) pairs of run.py's LAYERS table."""
    (layers,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    return [tuple(value) for value in ast.literal_eval(layers).values()]


def _references() -> set:
    """Every "module.name" the package and the benchmark harness reference:
    a bare name in its own package module, an attribute of a name bound to
    an emgforge module, a name imported from one, and run.py's LAYERS pairs,
    which the harness wraps by name. A name that only collides with one of
    these (set.add, np.add, a string) does not count."""
    refs = set()
    for directory, package in ((PACKAGE, True), (ROOT / "perfbench", False)):
        for module, tree in _trees(directory):
            modules = {}  # local name -> emgforge module it is bound to
            for node in ast.walk(tree):
                source = _module_of(node, package) if isinstance(node, ast.ImportFrom) else None
                if source is not None:
                    for alias in node.names:
                        if source:
                            refs.add(f"{source}.{alias.name}")
                        else:
                            modules[alias.asname or alias.name] = alias.name
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.startswith("emgforge.") and alias.asname:
                            modules[alias.asname] = alias.name.partition(".")[2]
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and package:
                    refs.add(f"{module}.{node.id}")
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                ):
                    refs.add(f"{modules[node.value.id]}.{node.attr}")
            if module == "run" and not package:
                refs.update(f"{mod}.{name}" for mod, name in _layers(tree))
    return refs


def test_every_top_level_definition_is_used_outside_tests():
    refs = _references()
    unused = {
        f"{module}.{node.name}"
        for module, tree in _trees(PACKAGE)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and f"{module}.{node.name}" not in refs
    }
    assert unused == TEST_ONLY


def _defaulted_parameters(tree):
    """(call name, parameter, position) for each defaulted parameter of a
    module's functions and methods. A call reaches a function or method by
    its name and an `__init__` by its class's name; a method's positions
    count from the argument after self or cls. A keyword-only parameter has
    position None."""
    for node in tree.body:
        methods = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in methods:
            if not isinstance(fn, ast.FunctionDef):
                continue
            name = node.name if fn.name == "__init__" else fn.name
            bound = fn is not node and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
            )
            positional = fn.args.posonlyargs + fn.args.args
            for i in range(len(positional) - len(fn.args.defaults), len(positional)):
                yield name, positional[i].arg, i - bound
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def _passed_arguments():
    """For each name called in the package and the benchmark harness, the
    keywords and positions its calls pass. What a call passes through *args
    or **kwargs counts for no parameter."""
    passed = collections.defaultdict(set)
    for directory in (PACKAGE, ROOT / "perfbench"):
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                passed[name].update(k.arg for k in node.keywords if k.arg is not None)
                starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
                passed[name].update(range(starred[0] if starred else len(node.args)))
    return passed


def test_every_defaulted_parameter_is_passed_outside_tests():
    passed = _passed_arguments()
    unused = {
        f"{module}.{name}({param})"
        for module, tree in _trees(PACKAGE)
        for name, param, position in _defaulted_parameters(tree)
        if param not in passed[name] and position not in passed[name]
    }
    assert unused == set()


def test_benchmark_layers_resolve():
    """perfbench/run.py looks up every LAYERS entry at start-up, so a name
    missing from its module fails every benchmark run. run.py is parsed, not
    imported: importing it sets the BLAS thread variables."""
    pairs = _layers(ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")))
    assert pairs
    missing = [
        f"{module}.{name}"
        for module, name in pairs
        if not hasattr(importlib.import_module(f"emgforge.{module}"), name)
    ]
    assert missing == []


def test_package_holds_no_assert():
    found = [
        f"{module}:{node.lineno}"
        for module, tree in _trees(PACKAGE)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_stdlib_and_numpy():
    allowed = sys.stdlib_module_names | {"numpy", "emgforge"}
    found = set()
    for module, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(f"{module}:{name}" for name in names
                         if name.split(".")[0] not in allowed)
    assert found == set()
