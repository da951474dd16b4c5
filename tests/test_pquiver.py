import random

import pytest

from quasicluster.pquiver import (AmbiguousClosure, Arrow, PartitionedQuiver,
                                  Unclassifiable, Vertex, ORDINARY, QUASI)
from quasicluster.surface import mobius_fan, named_fixture, polygon_fan


def seven_arc_quiver():
    """The annulus-with-crosscap quiver: seven vertices, two frozen, eleven
    arrows in paths 6>3>2>1>6 and 7>1>3>4>5>4>2>7."""
    vertices = [Vertex(i) for i in (1, 2, 3)] + [Vertex(4), Vertex(5, kind=QUASI)]
    vertices += [Vertex(6, frozen=True), Vertex(7, frozen=True)]
    arrows = []
    paths = []
    aid = 1
    for seq in ([6, 3, 2, 1, 6], [7, 1, 3, 4, 5, 4, 2, 7]):
        p = []
        for a, b in zip(seq, seq[1:]):
            arrows.append(Arrow(aid, a, b))
            p.append(aid)
            aid += 1
        paths.append(p)
    return PartitionedQuiver(vertices, arrows, paths)


def square_quiver():
    """Plain quadrilateral: one diagonal, four frozen sides."""
    vertices = [Vertex(1)] + [Vertex(i, frozen=True) for i in (2, 3, 4, 5)]
    # walks: P1: l t i -> 5,1,2 ; P3: j t k -> 3,1,4 ; P2: i j ; P4: k l
    arrows = [Arrow(1, 5, 1), Arrow(2, 1, 2), Arrow(3, 2, 3),
              Arrow(4, 3, 1), Arrow(5, 1, 4), Arrow(6, 4, 5)]
    return PartitionedQuiver(vertices, arrows, [[1, 2], [3], [4, 5], [6]])


def path_itinerary(q, path):
    return [q.arrows[path[0]].src] + [q.arrows[a].tgt for a in path]


def test_validate_seven_arc():
    assert seven_arc_quiver().validate() == []


def test_validate_partition_coverage():
    q = seven_arc_quiver()
    q.partition[0].remove(2)
    diags = q.validate()
    assert any("partition-coverage" in d for d in diags)


def test_validate_broken_walk():
    q = seven_arc_quiver()
    q.partition[1][1], q.partition[1][2] = q.partition[1][2], q.partition[1][1]
    assert any("walk" in d for d in q.validate())


def test_classify_quasi_vertex():
    q = seven_arc_quiver()
    cls = q.classify_vertex(5)
    assert cls.type == "V4" and cls.i == 4


def test_classify_enclosing_loop():
    q = seven_arc_quiver()
    cls = q.classify_vertex(4)
    assert cls.type == "V3"
    assert (cls.i, cls.j, cls.k) == (3, 5, 2)
    beta = q.arrows[cls.closures[0]]
    assert (beta.src, beta.tgt) == (3, 2)


def test_classify_square_center():
    q = square_quiver()
    cls = q.classify_vertex(1)
    assert cls.type == "V1"
    # Ptolemy pairs are the opposite sides
    pairs = {frozenset(p) for p in cls.product_pairs}
    assert pairs == {frozenset((5, 3)), frozenset((2, 4))}


def test_classify_frozen_rejected():
    with pytest.raises(Unclassifiable):
        seven_arc_quiver().classify_vertex(6)


def test_mutate_v4_adds_loop():
    q = seven_arc_quiver()
    out = q.mutate(5)
    assert out.validate() == []
    assert path_itinerary(out, out.partition[1]) == [7, 1, 3, 4, 5, 5, 4, 2, 7]
    assert out.vertices[5].kind == ORDINARY
    assert out.classify_vertex(5).type == "V2"


def test_mutation_involution_and_pairing():
    # vertex type reached by one mutation at a vertex of the key type
    pairing = {"V1": "V1", "V2": "V4", "V3": "V3", "V4": "V2"}
    rng = random.Random(3)
    fixtures = [mobius_fan(m).build_quiver() for m in (1, 2, 3, 4)]
    fixtures += [polygon_fan(5).build_quiver(), seven_arc_quiver()]
    for q in fixtures:
        for _ in range(3):
            t = rng.choice(q.mutable_ids())
            cls = q.classify_vertex(t)
            q1 = q.mutate(t)
            assert q1.validate() == []
            assert q1.classify_vertex(t).type == pairing[cls.type]
            q2 = q1.mutate(t)
            assert q2.canonical_form() == q.canonical_form()
            assert q1.frozen_ids() == q.frozen_ids()
            q = q1


def test_mutate_with_given_classification():
    names = ["mobius:1", "mobius:2", "mobius:3", "mobius:4", "polygon:5",
             "polygon:6", "annulus-crosscap", "mobius-three-arc",
             "three-boundary"]
    for name in names:
        q = named_fixture(name).build_quiver()
        for t in q.mutable_ids():
            assert q.mutate(t, q.classify_vertex(t)).to_json() == \
                q.mutate(t).to_json()


def test_v1_equals_classical_rule():
    rng = random.Random(5)
    for _ in range(40):
        tri = polygon_fan(rng.randrange(4, 9))
        for _ in range(rng.randrange(0, 8)):
            tri = tri.flip(rng.choice(tri.internal_arcs()))
        q = tri.build_quiver()
        for t in q.mutable_ids():
            assert q.mutate(t).arrow_multiset() == q.classical_mutation_arrows(t)


def test_unclassifiable_configurations():
    q = square_quiver()
    # two loops at the center cannot match any local type
    q.arrows[7] = Arrow(7, 1, 1)
    q.arrows[8] = Arrow(8, 1, 1)
    q.partition.append([7])
    q.partition.append([8])
    with pytest.raises(Unclassifiable):
        q.classify_vertex(1)


def test_ambiguous_closure_detected():
    q = square_quiver()
    # duplicate both closing arrows: two distinct candidate pairs remain
    q.arrows[7] = Arrow(7, 2, 3)
    q.arrows[8] = Arrow(8, 4, 5)
    q.partition.append([7])
    q.partition.append([8])
    with pytest.raises(AmbiguousClosure):
        q.classify_vertex(1)


def permuted(q, vmap, seed=0):
    rng = random.Random(seed)
    aids = list(q.arrows)
    new_ids = {a: i + 101 for i, a in enumerate(rng.sample(aids, len(aids)))}
    vertices = [Vertex(vmap[v.id], v.frozen, v.kind) for v in q.vertices.values()]
    arrows = [Arrow(new_ids[a.id], vmap[a.src], vmap[a.tgt])
              for a in q.arrows.values()]
    partition = [[new_ids[a] for a in p] for p in q.partition]
    return PartitionedQuiver(vertices, arrows, partition)


def test_canonical_form_invariances():
    q = seven_arc_quiver()
    vmap = {1: 4, 2: 9, 3: 1, 4: 6, 5: 2, 6: 30, 7: 11}
    assert permuted(q, vmap).canonical_form() == q.canonical_form()
    # reversing one whole path keeps the form
    r = q.copy()
    r.partition[0].reverse()
    for aid in r.partition[0]:
        a = r.arrows[aid]
        r.arrows[aid] = Arrow(a.id, a.tgt, a.src)
    assert r.canonical_form() == q.canonical_form()
    # an extra arrow changes it
    e = q.copy()
    e.arrows[99] = Arrow(99, 6, 7)
    e.partition.append([99])
    assert e.canonical_form() != q.canonical_form()


def test_restrict_to_mutable():
    q = seven_arc_quiver()
    r = q.restrict_to_mutable()
    assert r.frozen_ids() == []
    itineraries = sorted(path_itinerary(r, p) for p in r.partition)
    assert itineraries == [[1, 3, 4, 5, 4, 2], [3, 2, 1]]


def test_json_roundtrip_and_dot():
    q = seven_arc_quiver()
    back = PartitionedQuiver.from_json(q.to_json())
    assert back.canonical_form() == q.canonical_form()
    dot = q.to_dot()
    assert "7" in dot and "shape=box" in dot and "->" in dot


@pytest.mark.parametrize("field, edit", [
    ("vertex id", lambda d: d["vertices"][0].update(id="1")),
    ("arrow id", lambda d: d["arrows"][0].update(id=1.0)),
    ("arrow src", lambda d: d["arrows"][0].update(src=[1])),
    ("arrow tgt", lambda d: d["arrows"][0].update(tgt=True)),
    ("partition entry", lambda d: d["partition"][0].insert(0, None)),
], ids=["vertex-id", "arrow-id", "arrow-src", "arrow-tgt", "partition-entry"])
def test_from_json_rejects_ids_that_are_not_integers(field, edit):
    data = seven_arc_quiver().to_json()
    edit(data)
    with pytest.raises(ValueError, match=field):
        PartitionedQuiver.from_json(data)


@pytest.mark.parametrize("field, edit", [
    ("vertex kind", lambda v: v.update(kind="banana")),
    ("vertex kind", lambda v: v.update(kind=[1])),
    ("vertex frozen", lambda v: v.update(frozen="no")),
    ("vertex frozen", lambda v: v.update(frozen=1)),
], ids=["kind-unknown", "kind-list", "frozen-string", "frozen-int"])
def test_from_json_rejects_bad_vertex_fields(field, edit):
    data = seven_arc_quiver().to_json()
    edit(data["vertices"][0])
    with pytest.raises(ValueError, match=field):
        PartitionedQuiver.from_json(data)
    for v in data["vertices"]:   # absent fields take their defaults
        del v["kind"], v["frozen"]
    back = PartitionedQuiver.from_json(data)
    assert all(not v.frozen and v.kind == "ordinary" for v in back.vertices.values())


@pytest.mark.parametrize("key, name", [("vertices", "vertex"), ("arrows", "arrow")])
def test_from_json_rejects_duplicate_ids(key, name):
    data = seven_arc_quiver().to_json()
    data[key].append(dict(data[key][-1]))
    with pytest.raises(ValueError, match=f"duplicate {name} id {data[key][-1]['id']}$"):
        PartitionedQuiver.from_json(data)


@pytest.mark.parametrize("itinerary", [
    [8, 1, 2, 3, 2, 4, 1, 9],   # the only i-k arrow leaves k where a4 ends
    [8, 4, 1, 2, 3, 2, 4, 9],   # the only i-k arrow enters i where a1 starts
])
def test_v3_closing_arrow_avoids_the_runs_own_arc_ends(itinerary):
    # i=1, t=2, quasi j=3, k=4: the run i>t>j>t>k has no closing arrow
    vertices = [Vertex(1), Vertex(2), Vertex(3, kind=QUASI), Vertex(4),
                Vertex(8, frozen=True), Vertex(9, frozen=True)]
    arrows = [Arrow(n + 1, a, b)
              for n, (a, b) in enumerate(zip(itinerary, itinerary[1:]))]
    q = PartitionedQuiver(vertices, arrows, [[a.id for a in arrows]])
    assert q.validate() == []
    with pytest.raises(Unclassifiable):
        q.classify_vertex(2)


class CountingArrows(dict):
    """An arrow dict that counts the passes made over it."""
    passes = 0

    def values(self):
        self.passes += 1
        return super().values()

    def items(self):
        self.passes += 1
        return super().items()

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_classify_vertex_makes_one_pass_over_the_arrows():
    names = ["mobius:1", "mobius:2", "mobius:3", "mobius:4", "polygon:5",
             "polygon:6", "annulus-crosscap", "mobius-three-arc",
             "three-boundary"]
    types = set()
    for name in names:
        q = named_fixture(name).build_quiver()
        for t in q.mutable_ids():
            q.arrows = CountingArrows(q.arrows)
            types.add(q.classify_vertex(t).type)
            assert q.arrows.passes == 1, (name, t)
    assert types == {"V1", "V2", "V3", "V4"}
