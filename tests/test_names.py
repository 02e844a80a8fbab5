"""Names that code outside the library relies on must keep resolving: the
benchmark tracer patches its layers by (module, attribute path), and
``cubeforge.__all__`` is the public surface."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import cubeforge

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    # loaded by path and only read: nothing is installed or patched
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("layer, module, path", [t[:3] for t in _traced()])
def test_traced_name_resolves(layer, module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    # a method is looked up where the tracer patches it, on the class itself
    assert callable(owner.__dict__.get(attr) if parents else getattr(owner, attr, None)), layer


def test_public_names_resolve():
    missing = [name for name in cubeforge.__all__ if not hasattr(cubeforge, name)]
    assert not missing
    assert len(set(cubeforge.__all__)) == len(cubeforge.__all__)
