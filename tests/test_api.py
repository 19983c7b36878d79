import ast
import importlib
import pkgutil
import re
import sys
import types
from pathlib import Path

import pytest

import mopoisson

ORACLES = Path(__file__).resolve().parent / "oracles.py"
PACKAGE = Path(mopoisson.__file__).resolve().parent
# The solver's evaluation formulas; the oracles recompute all of them by the PDE route.
SOLVER_FORMULAS = {
    "eval_objectives", "coefficient_map", "gram_matrix", "grad_wsm", "grad_rpm", "greens_function_means",
    "level_operators", "_pair", "_gradient",
}
# The study API the package exports: entry points, the inputs a caller builds
# and the error a caller catches.  Layer functions are imported from their modules.
PACKAGE_API = {
    "BBConfig", "BoxBounds", "ExperimentConfig", "ProblemData", "SolverError",
    "benchmark_problem", "export_csv", "ideal_vector", "read_control", "rpm_front",
    "run_convergence", "run_front", "shared_system",
    "solve_rpm", "solve_wsm", "wsm_front", "write_control",
}


def test_oracles_share_no_formula_with_the_solver():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert not used & SOLVER_FORMULAS


def test_package_exports_only_the_study_api():
    exported = {n for n, v in vars(mopoisson).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported == PACKAGE_API


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(mopoisson.__path__)])
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(f"mopoisson.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _bound_names(tree: ast.Module) -> set:
    """Names a module defines: functions, classes, assigned names and fields, and ``self.<name>`` attributes."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                elif isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self":
                    bound.add(target.attr)
    return bound


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_modules_use_no_private_name_of_another_module(path):
    """A ``_``-prefixed name is read only where it is defined; a rule other modules need is public."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = _bound_names(tree)
    crossing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            crossing += [f"line {node.lineno}: imports {a.name}" for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr) and node.attr not in bound:
            crossing.append(f"line {node.lineno}: uses .{node.attr}")
    assert not crossing


def test_src_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported and imported <= allowed, imported - allowed

    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parents[1] / "pyproject.toml"
    dependencies = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in dependencies] == ["numpy"]


# functools memoization keeps every result for the whole process; a mesh and a
# stiffness system are cheap to build, so nothing in the package is memoized.
MEMOIZED = []


def test_only_the_per_level_builders_are_memoized():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorated = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorated.update((id(sub), node.name) for deco in node.decorator_list for sub in ast.walk(deco))
        for node in ast.walk(tree):
            name = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
            if name and getattr(node, name) in {"lru_cache", "cache"}:
                found.append(f"{path.stem}.{decorated.get(id(node), '<not a decorator>')}")
    assert found == MEMOIZED
