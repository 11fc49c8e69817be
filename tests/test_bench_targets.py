"""The names that the benchmark's span tracer wraps still exist.

``perfbench/tracer.py`` replaces each ``(owner, attribute)`` of its
``LAYER_TARGETS`` by a timing wrapper; a renamed or moved attribute would
crash traced benchmark runs rather than a test.  The tracer is loaded from
its file and only read.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
