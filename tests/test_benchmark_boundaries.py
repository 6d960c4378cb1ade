"""Every function the benchmark tracer wraps by name must exist.

``perfbench/tracer.py`` replaces the module attributes listed in its
``BOUNDARIES`` table.  A renamed or moved function would otherwise surface
only as a crash of a traced benchmark process.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


@pytest.mark.parametrize(
    "name, module, attribute", load_boundaries(), ids=lambda value: str(value)
)
def test_tracer_boundary_resolves_to_a_function(name, module, attribute):
    target = getattr(importlib.import_module(module), attribute, None)
    assert callable(target), f"{name}: {module}.{attribute} does not resolve"
