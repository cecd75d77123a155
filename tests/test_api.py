"""The public surface resolves: every exported name exists, and every
function the benchmark tracer wraps is still there to be wrapped."""

import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = ("signals", "forward", "optim", "stats", "bench")

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"waveinv.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


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
