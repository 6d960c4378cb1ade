"""Every function the benchmark tracer wraps by name must exist and be called.

``perfbench/tracer.py`` replaces the module attributes listed in its
``BOUNDARIES`` table.  A renamed or moved function would otherwise surface
only as a crash of a traced benchmark process, and one the CLI stops calling
by name only as a zero-call boundary in the much slower benchmark self-test.
"""

import importlib
import importlib.util
import pathlib

import pytest
from click.testing import CliRunner

from knowspan.cli import main
from planted import synth_then_pipeline

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


@pytest.fixture
def boundary_calls(monkeypatch):
    """Count the calls each boundary receives, wrapped the way the tracer does."""
    calls = {}
    for name, module, attribute in load_boundaries():
        target = importlib.import_module(module)
        calls[name] = 0

        def counted(*args, _fn=getattr(target, attribute), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(target, attribute, counted)
    return calls


STAGE_RUN = (
    ["synth", "--papers", "150"],
    ["ingest"],
    ["train", "--dim", "8", "--epochs", "1"],
    ["metrics"],
    ["disrupt"],
    ["correlate"],
    ["regress", "--model", "model1"],
    ["curves", "--model", "model1", "--points", "3"],
)
PIPELINE_RUN = synth_then_pipeline("--dim", "8", "--epochs", "1", "--points", "3", papers=150)


@pytest.mark.parametrize("commands", [STAGE_RUN, PIPELINE_RUN], ids=["stages", "pipeline"])
def test_every_boundary_is_called(boundary_calls, commands, tmp_path):
    """Code that binds a layer function before the tracer wraps it (a table
    of function objects, say) would leave that boundary reading zero calls."""
    for args in commands:
        result = CliRunner().invoke(main, [*args, "--outdir", str(tmp_path)])
        assert result.exit_code == 0, result.stderr or result.output
    assert [name for name, count in boundary_calls.items() if count == 0] == []
