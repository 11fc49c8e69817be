"""The names that the benchmark's span tracer wraps still exist.

``perfbench/tracer.py`` replaces each ``(owner, attribute)`` of its
``LAYER_TARGETS`` by a timing wrapper; a renamed or moved attribute would
crash traced benchmark runs rather than a test.  The package imports some
names only so that the tracer can wrap them there (``# noqa: F401``); each
of those must still be a target.  The tracer is loaded from its file and
only read.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("owner, attr", [
    pytest.param(t[0], t[1], id=f"{getattr(t[0], '__name__', t[0])}.{t[1]}")
    for t in load_tracer().LAYER_TARGETS])
def test_wrapped_name_is_defined_on_its_owner(owner, attr):
    assert attr in owner.__dict__


def tracer_only_imports() -> list[tuple[str, str]]:
    """(module, name) of every ``# noqa: F401`` import in the package."""
    found = []
    for path in sorted((ROOT / "src" / "hiersense").glob("*.py")):
        lines = path.read_text().splitlines()
        module = "hiersense" if path.stem == "__init__" \
            else f"hiersense.{path.stem}"
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and any(
                    "# noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                found += [(module, alias.name) for alias in node.names]
    return found


def test_tracer_only_imports_are_tracer_targets():
    # an unused import that no target wraps any more can be deleted
    targets = {(getattr(t[0], "__name__", None), t[1])
               for t in load_tracer().LAYER_TARGETS}
    imports = tracer_only_imports()
    assert imports, "no tracer-only import found"
    assert [pair for pair in imports if pair not in targets] == []
