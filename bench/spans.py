"""Run-time tracing of the engine's layer boundaries, from outside the engine.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper that
records a span (name, start, end, parent) in flat in-memory arrays;
``uninstall`` restores the originals.  Self time is a span's duration minus
the durations of its direct children; the exchange-key probe is recorded as
a child span (``trace.probe``), so its cost is not charged to a layer.
Nothing under ``src/`` is changed.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# (module, class or None, attribute, span name)
LAYERS = (
    ("laurent", "Polynomial", "__mul__", "laurent.poly_mul"),
    ("laurent", "Polynomial", "exact_div", "laurent.exact_div"),
    ("laurent", "LaurentForm", "__add__", "laurent.form_ops"),
    ("laurent", "LaurentForm", "__mul__", "laurent.form_ops"),
    ("laurent", "LaurentForm", "divide", "laurent.form_ops"),
    ("laurent", "LaurentForm", "canonical_serialize", "laurent.serialize"),
    ("laurent", "DenominatorVector", "canonical_serialize", "laurent.serialize"),
    ("algebra", None, "explore", "algebra.explore"),
    ("algebra", None, "mutate_seed", "algebra.mutate_seed"),
    ("algebra", None, "exchange_value", "algebra.exchange_value"),
    ("algebra", "Seed", "cluster_key", "algebra.cluster_key"),
    ("pquiver", "PartitionedQuiver", "classify_vertex", "pquiver.classify_vertex"),
    ("pquiver", "PartitionedQuiver", "mutate", "pquiver.mutate"),
    ("pquiver", "PartitionedQuiver", "canonical_form", "pquiver.canonical_form"),
    ("surface", "QuasiTriangulation", "flip", "surface.flip"),
    ("surface", "QuasiTriangulation", "build_quiver", "surface.build_quiver"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for *_, name in LAYERS))
# the tracer's own work inside a layer (the exchange-key probe) is a span of
# its own, so that it is subtracted from the enclosing layer's self time
PROBE = "trace.probe"
ALL_NAMES = SPAN_NAMES + (PROBE,)


def exchange_key(seed, cls):
    """What an exchange relation depends on: V-type, inputs, old value."""
    if cls.type == "V1":
        inputs = [v for pair in cls.product_pairs for v in pair]
    elif cls.type in ("V2", "V4"):
        inputs = [cls.i]
    else:
        inputs = [cls.i, cls.j, cls.k]
    return (cls.type, tuple(seed.value_of(v).canonical_serialize() for v in inputs),
            seed.values[cls.t].canonical_serialize())


class Tracer:
    def __init__(self, package):
        self.package = package
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.exchange_keys: set = set()
        self._open: list[int] = []
        self._quiet = 0
        self._undo: list[tuple[object, str, object]] = []

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == self.package.__name__ or n.startswith(self.package.__name__ + ".")]
        for module_name, owner, attr, name in LAYERS:
            module = getattr(self.package, module_name)
            if owner:
                cls = getattr(module, owner)
                self._patch(cls, attr, self._wrap(cls.__dict__[attr], name))
                continue
            original = getattr(module, attr)
            probe = self._probe_exchange if attr == "exchange_value" else None
            wrapper = self._wrap(original, name, probe)
            for m in modules:   # every module that imported the function by name
                if m.__dict__.get(attr) is original:
                    self._patch(m, attr, wrapper)

    def uninstall(self):
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def reset(self):
        for arr in (self.name_of, self.parent, self.start, self.end):
            del arr[:]
        self.exchange_keys.clear()

    def _patch(self, holder, attr, value):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def _probe_exchange(self, args, result):
        self.exchange_keys.add(exchange_key(*args))

    def _wrap(self, fn, name, probe=None):
        name_id = SPAN_NAMES.index(name)
        probe_id = ALL_NAMES.index(PROBE)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        opened = self._open
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._quiet:
                return fn(*args, **kwargs)
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(opened[-1] if opened else -1)
            end.append(0)
            opened.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                opened.pop()
            if probe is not None:
                # the probe calls traced functions; keep them out of the trace
                pidx = len(name_of)
                name_of.append(probe_id)
                parent.append(opened[-1] if opened else -1)
                end.append(0)
                tracer._quiet += 1
                start.append(clock())
                try:
                    probe(args, result)
                finally:
                    end[pidx] = clock()
                    tracer._quiet -= 1
            return result

        return traced

    def summary(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds) over the recorded spans."""
        n = len(self.name_of)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(ALL_NAMES)
        self_ns = [0] * len(ALL_NAMES)
        for i, k in enumerate(self.name_of):
            calls[k] += 1
            self_ns[k] += end[i] - start[i] - child[i]
        return {name: (calls[k], self_ns[k] / 1e9) for k, name in enumerate(ALL_NAMES)}

    def snapshot(self):
        return tuple(array(a.typecode, a) for a in
                     (self.name_of, self.parent, self.start, self.end))

    @staticmethod
    def write(snapshot, path):
        """Write spans as gzip TSV: span, parent, name, start_ns, end_ns."""
        name_of, parent, start, end = snapshot
        t0 = start[0] if start else 0
        with gzip.open(path, "wt") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(name_of)):
                fh.write(f"{i}\t{parent[i]}\t{ALL_NAMES[name_of[i]]}\t"
                         f"{start[i] - t0}\t{end[i] - t0}\n")
