"""Every layer function the benchmark's tracer wraps by name exists.

``bench/spans.py`` replaces each function named in ``LAYER_FUNCTIONS`` in the
forestpanel module that defines it, so renaming or deleting one of them
would crash a traced benchmark run. The file is read, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def layer_functions() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
                "LAYER_FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no LAYER_FUNCTIONS")


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in layer_functions().items() for name in names])
def test_traced_layer_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"forestpanel.{module}"), name, None))
