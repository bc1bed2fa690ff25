"""Every name the benchmark's tracer wraps exists in the package, so a
renamed or deleted function fails here and not only in a traced run."""
import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _boundary():
    """`bench/tracer.BOUNDARY`, read from the source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARY" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no BOUNDARY")


@pytest.mark.parametrize(
    "module, attribute",
    [(m, a) for m, attrs in _boundary().items() for a in attrs],
)
def test_every_traced_name_resolves(module, attribute):
    target = importlib.import_module(f"toricbundles.{module}")
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target)
