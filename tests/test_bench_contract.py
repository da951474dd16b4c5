"""The traced benchmark run wraps engine functions by name (bench/spans.py
LAYERS); every name it lists must stay where the tracer looks for it, and
the calls it counts must keep their meaning."""
import importlib
import importlib.util
import inspect
import pathlib

import pytest

import quasicluster

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layers():
    return load_spans().LAYERS


@pytest.mark.parametrize("module_name, owner, attr, span", layers())
def test_traced_name_exists(module_name, owner, attr, span):
    module = importlib.import_module(f"quasicluster.{module_name}")
    if owner:
        # the tracer reads the class's own __dict__, not an inherited method
        assert attr in getattr(module, owner).__dict__
    else:
        fn = module.__dict__.get(attr)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def folded_exchange_key(key):
    """A tracer exchange key with the roles that E treats alike unordered:
    the two factors of each V1 product, the two products, and the outer
    neighbours i, k of V3."""
    kind, inputs, old = key
    if kind == "V1":
        inputs = tuple(sorted([tuple(sorted(inputs[:2])), tuple(sorted(inputs[2:]))]))
    elif kind == "V3":
        inputs = (*sorted([inputs[0], inputs[2]]), inputs[1])
    return kind, inputs, old


def test_tracer_counts_one_exploration():
    # the per-layer benchmark charges each mutation to mutate_seed and each
    # computed relation to exchange_value, wherever explore does its work
    spans = load_spans()
    seed = quasicluster.algebra.initial_seed(
        quasicluster.surface.named_fixture("mobius:3").build_quiver(),
        coeff_free=True)

    def traced_attributes():
        out = []
        for module_name, owner, attr, _ in spans.LAYERS:
            module = getattr(quasicluster, module_name)
            out.append(getattr(module, owner).__dict__[attr] if owner
                       else getattr(module, attr))
        return out

    originals = traced_attributes()
    tracer = spans.Tracer(quasicluster)
    tracer.install()
    try:
        graph = quasicluster.algebra.explore(seed)
    finally:
        tracer.uninstall()
    calls = {name: n for name, (n, _) in tracer.summary().items()}
    assert calls["algebra.mutate_seed"] == graph.edge_count() == 33
    # the tracer keys list the roles in the order the classification gives;
    # explore computes one relation per key up to the symmetries of E
    folded = {folded_exchange_key(key) for key in tracer.exchange_keys}
    assert calls["algebra.exchange_value"] == len(folded) == 27
    # one classification and one quiver mutation per edge of the shape
    # graph: mutation is an involution that keeps E, so a transition whose
    # inverse was computed first classifies nothing and mutates no quiver
    assert calls["pquiver.classify_vertex"] == calls["pquiver.mutate"] == 12
    assert traced_attributes() == originals
