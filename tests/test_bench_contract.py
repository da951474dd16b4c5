"""The traced benchmark run wraps engine functions by name (bench/spans.py
LAYERS); every name it lists must stay where the tracer looks for it."""
import importlib
import importlib.util
import inspect
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module_name, owner, attr, span", layers())
def test_traced_name_exists(module_name, owner, attr, span):
    module = importlib.import_module(f"quasicluster.{module_name}")
    if owner:
        # the tracer reads the class's own __dict__, not an inherited method
        assert attr in getattr(module, owner).__dict__
    else:
        fn = module.__dict__.get(attr)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__
