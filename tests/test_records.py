"""The engine's record types: construction, equality, hashing, immutability
and repr text.  ``repr(classify_vertex(t))`` feeds the classification walk
digests of ``test_golden.py``, and the hash of a record is the hash of its
field tuple, so neither may drift."""
import subprocess
import sys
from pathlib import Path

import pytest

import quasicluster
from quasicluster.algebra import (ExchangeGraph, PositivityReport, ScanEntry,
                                  ScanReport)
from quasicluster.cover import DoubleCover
from quasicluster.pquiver import Arrow, Vertex, VertexClassification
from quasicluster.surface import SurfaceSignature, Triangle
from quasicluster.verify import SuiteResult

ENTRY = ScanEntry(m=5, family="D", n=6, family_count=36, mobius_count=36)

# (record built by keyword with its defaults, its fields, its repr)
RECORDS = [
    (Vertex(id=3), (3, False, "ordinary"),
     "Vertex(id=3, frozen=False, kind='ordinary')"),
    (Vertex(7, frozen=True, kind="quasi"), (7, True, "quasi"),
     "Vertex(id=7, frozen=True, kind='quasi')"),
    (Arrow(id=1, src=2, tgt=3), (1, 2, 3), "Arrow(id=1, src=2, tgt=3)"),
    (VertexClassification(type="V3", t=4, arrows=(1, 2), closures=(5,), i=1, j=2, k=3),
     ("V3", 4, (1, 2), (5,), 1, 2, 3, ()),
     "VertexClassification(type='V3', t=4, arrows=(1, 2), closures=(5,), "
     "i=1, j=2, k=3, product_pairs=())"),
    (VertexClassification(type="V2", t=4, arrows=(1,)),
     ("V2", 4, (1,), (), None, None, None, ()),
     "VertexClassification(type='V2', t=4, arrows=(1,), closures=(), "
     "i=None, j=None, k=None, product_pairs=())"),
    (SurfaceSignature(g=1, b=1, p=0, c=3), (1, 1, 0, 3),
     "SurfaceSignature(g=1, b=1, p=0, c=3)"),
    (Triangle(id=2, kind="quasi", sides=(4, 5)), (2, "quasi", (4, 5)),
     "Triangle(id=2, kind='quasi', sides=(4, 5))"),
    (PositivityReport(ok=False, checked=2, failures=[("x1", "no", (1,))]),
     (False, 2, [("x1", "no", (1,))]),
     "PositivityReport(ok=False, checked=2, failures=[('x1', 'no', (1,))])"),
    (ENTRY, (5, "D", 6, 36, 36),
     "ScanEntry(m=5, family='D', n=6, family_count=36, mobius_count=36)"),
    (ScanReport(m_max=5, entries=[ENTRY]), (5, [ENTRY]),
     "ScanReport(m_max=5, entries=[ScanEntry(m=5, family='D', n=6, "
     "family_count=36, mobius_count=36)])"),
    (DoubleCover(base=None, lifted=None, arc_lift={(1, 0): 1}, point_lift={},
                 sigma_arc={1: 2}),
     (None, None, {(1, 0): 1}, {}, {1: 2}),
     "DoubleCover(base=None, lifted=None, arc_lift={(1, 0): 1}, point_lift={}, "
     "sigma_arc={1: 2})"),
    (SuiteResult(name="scan", ok=True), ("scan", True, ()),
     "SuiteResult(name='scan', ok=True, lines=())"),
]


@pytest.mark.parametrize("record, fields, text", RECORDS,
                         ids=[text.split("(")[0] for _, _, text in RECORDS])
def test_record_behaves_like_its_field_tuple(record, fields, text):
    names = list(type(record).__annotations__)
    assert tuple(getattr(record, f) for f in names) == fields
    assert record == type(record)(*fields)
    assert repr(record) == text
    try:
        want = hash(fields)
    except TypeError:   # a list or dict field
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want
    with pytest.raises(AttributeError):
        setattr(record, names[0], fields[0])


def test_exchange_graph_is_a_mutable_record():
    a, b = ExchangeGraph(), ExchangeGraph(root=(b"x1",))
    assert repr(a) == ("ExchangeGraph(nodes={}, adjacency={}, complete=set(), paths={}, "
                       "variables={}, root=None, closed=False)")
    assert a.nodes is not b.nodes and a.complete is not b.complete
    assert a != b
    a.root = (b"x1",)
    assert a == b
    a.closed = True
    assert a != b
    with pytest.raises(TypeError):
        hash(a)


def test_cli_imports_neither_dataclasses_nor_inspect():
    # each @dataclass generates its methods with exec at every import
    src = str(Path(quasicluster.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import quasicluster.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
