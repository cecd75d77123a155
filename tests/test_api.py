"""The public surface resolves and is used: every exported name exists, is
reached from the package or the benchmark, and every function the
benchmark tracer wraps is still there to be wrapped."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = ("signals", "forward", "optim", "stats", "bench")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "waveinv"
TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"waveinv.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def waveinv_module(node: ast.ImportFrom) -> str | None:
    """The waveinv module an import reads from: "forward" for
    ``from .forward import`` and ``from waveinv.forward import``, "" for
    ``from . import`` and ``from waveinv import``."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module is not None and node.module.split(".")[0] == "waveinv":
        return node.module.partition(".")[2]
    return None


def module_call(node: ast.expr) -> str | None:
    """The module of a ``_module("forward")`` call, tracing.py's importer."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_module":
        arg = node.args[0]
        return arg.value if isinstance(arg, ast.Constant) else None
    return None


def bindings(tree: ast.Module) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """The local names bound to waveinv modules (``from waveinv import
    bench``, ``forward = _module("forward")``), and those bound to a name a
    waveinv module defines (``from .forward import packet_delays``)."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (source := waveinv_module(node)) is not None:
            for alias in node.names:
                if source == "":
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (source, alias.name)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            unpacked = isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
            for t, v in zip(target.elts, value.elts) if unpacked else [(target, value)]:
                if isinstance(t, ast.Name) and (source := module_call(v)) is not None:
                    modules[t.id] = source
    return modules, names


def references(tree: ast.Module, own: str | None = None) -> set[tuple[str, str]]:
    """The (module, name) pairs that the code of a source file reads from
    waveinv: an imported name, an attribute of an imported module, or, in
    waveinv module ``own`` itself, one of its globals.  A name counts only
    where it resolves to the module: an unrelated attribute or local
    variable of the same name does not, docstrings and other strings do
    not, and neither does a top-level function or class reading its own
    name."""
    modules, names = bindings(tree)
    found = set()
    for statement in tree.body:
        # a module alias, and in a def its own name, parameters and locals,
        # are not the module's globals
        skip = set(modules)
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            skip.add(statement.name)
            for node in ast.walk(statement):
                if isinstance(node, ast.arg):
                    skip.add(node.arg)
                elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                    skip.add(node.id)
        for node in ast.walk(statement):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                found.add((modules[node.value.id], node.attr))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in names:
                    found.add(names[node.id])
                elif own is not None and node.id not in skip:
                    found.add((own, node.id))
    return found


def traced_names(tree: ast.Module) -> set[tuple[str, str]]:
    """The (module, function) pairs in tracing.py's TRACED table: the
    tracer reaches them by getattr, so an entry there is a reference."""
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and [t.id for t in statement.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return {(entry.elts[0].value, entry.elts[1].value) for entry in statement.value.values}
    raise AssertionError("tracing.py has no TRACED table")


@pytest.fixture(scope="module")
def reached() -> set[tuple[str, str]]:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            found |= references(ast.parse(path.read_text()), own=path.stem)
    for path in sorted(TRACING.parent.glob("*.py")):
        found |= references(ast.parse(path.read_text()))
    return found | traced_names(ast.parse(TRACING.read_text()))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_reached(name, reached):
    # a public name that only the tests and waveinv/__init__.py use is
    # surface kept alive for the tests: the package or the benchmark must
    # read it, resolved to this module, somewhere outside its own
    # definition and __all__ entry
    module = importlib.import_module(f"waveinv.{name}")
    assert [attr for attr in module.__all__ if (name, attr) not in reached] == []


def test_reached_counts_only_references_that_resolve_to_the_module():
    source = """
from waveinv import bench
from .forward import packet_delays as delays

def eta_bar(report, lambda_k):
    return report.eta_bar + lambda_k

def helper(rec):
    forward = _module("forward")
    return bench.report, delays, forward.excitation, rec.lambda_k
"""
    found = references(ast.parse(source), own="optim")
    assert {("bench", "report"), ("forward", "packet_delays"), ("forward", "excitation")} <= found
    # an attribute or a parameter named like a function does not reach it
    assert not {("optim", "eta_bar"), ("optim", "lambda_k"), ("bench", "eta_bar")} & found
    # a global read by another function of its own module does
    assert ("optim", "eta_bar") in references(ast.parse(source + "\ndef caller():\n    return eta_bar\n"), own="optim")
    # outside its own module a bare global is not a reference to it
    assert ("optim", "eta_bar") not in references(ast.parse(source + "\ndef caller():\n    return eta_bar\n"))


def test_traced_functions_exist():
    # perfbench/tracing.py resolves each TRACED entry with getattr when it
    # patches the package, so a deleted name breaks traced benchmark runs
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (module, attr)
        for module, attr in tracing.TRACED.values()
        if not hasattr(importlib.import_module(f"waveinv.{module}"), attr)
    ]
    assert missing == []
