import random
import time
from itertools import permutations

import pytest

import pquiver_reference as reference
from quasicluster import verify
from quasicluster.cli import main
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


def test_mutate_with_given_classification(monkeypatch):
    # each run is spliced where it lies, found by its first arrow, so a
    # mutation handed its classification makes no position pass of its own
    calls, positions = [], PartitionedQuiver._positions
    monkeypatch.setattr(PartitionedQuiver, "_positions", lambda q: (
        calls.append(q), positions(q))[1])
    names = ["mobius:1", "mobius:2", "mobius:3", "mobius:4", "polygon:5",
             "polygon:6", "annulus-crosscap", "mobius-three-arc",
             "three-boundary"]
    for name in names:
        q = named_fixture(name).build_quiver()
        for t in q.mutable_ids():
            cls = q.classify_vertex(t)
            calls.clear()
            given = q.mutate(t, cls)
            assert calls == [], (name, t)
            assert given.to_json() == q.mutate(t).to_json()


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


def first_appearance_key(q, paths):
    """The key ``shape()`` gave before it ignored path order: the vertex
    count, each path's itinerary in the given order led by its length (a
    vertex as a negative code of its (frozen, kind) where it first appears,
    as its label after that), then the (frozen, kind) of the vertices on no
    path, sorted."""
    label, key = {}, [len(q.vertices)]
    for path in paths:
        key.append(len(path))
        for v in path:
            if v not in label:
                label[v] = len(label)
                key.append(-1 - 2 * q.vertices[v].frozen - (q.vertices[v].kind == QUASI))
            else:
                key.append(label[v])
    rest = sorted((v.frozen, v.kind) for v in q.vertices.values() if v.id not in label)
    return tuple(key), tuple(rest)


def brute_force_key(q):
    """The least ``first_appearance_key`` over every order of the paths."""
    return min(first_appearance_key(q, paths) for paths in permutations(q.itineraries()))


def disjoint_union(*quivers):
    """The quivers side by side, each one's vertex and arrow ids shifted
    past the previous ones'."""
    vertices, arrows, partition, shift = [], [], [], 0
    for q in quivers:
        vertices += [Vertex(v.id + shift, v.frozen, v.kind) for v in q.vertices.values()]
        arrows += [Arrow(a.id + shift, a.src + shift, a.tgt + shift)
                   for a in q.arrows.values()]
        partition += [[a + shift for a in p] for p in q.partition]
        shift += max([*q.vertices, *q.arrows]) + 1
    return PartitionedQuiver(vertices, arrows, partition)


def from_itineraries(itineraries, frozen=(1, 2)):
    """The quiver with these path itineraries, each arrow a fresh id; the
    vertices in ``frozen`` are frozen, the others mutable and ordinary."""
    ids = sorted({v for seq in itineraries for v in seq})
    vertices = [Vertex(v, frozen=v in frozen) for v in ids]
    arrows, partition = [], []
    for seq in itineraries:
        partition.append([])
        for a, b in zip(seq, seq[1:]):
            arrows.append(Arrow(len(arrows) + 1, a, b))
            partition[-1].append(len(arrows))
    return PartitionedQuiver(vertices, arrows, partition)


def twin_paths(k, extra=()):
    """k paths 1 -> m -> 2 through the frozen vertices 1 and 2, then the
    paths of ``extra``."""
    return from_itineraries([[1, m, 2] for m in range(3, 3 + k)] + list(extra))


def cycle_paths(cycles):
    """One path 1 -> m -> n -> 2 for each step m -> n of the given cycles of
    mutable vertices: colour refinement ties every path and every mutable
    vertex, and only branching tells the cycles apart."""
    return from_itineraries([[1, m, c[(i + 1) % len(c)], 2]
                             for c in cycles for i, m in enumerate(c)])


def shuffled_copy(q, rng):
    """``q`` with its vertex ids renamed at random and its paths shuffled."""
    ids = list(q.vertices)
    copy = permuted(q, dict(zip(ids, rng.sample(range(1000, 1000 + len(ids)), len(ids)))),
                    seed=rng.random())
    rng.shuffle(copy.partition)
    return copy


def same_up_to_path_order(a, b):
    return a.vertices == b.vertices and sorted(a.itineraries()) == sorted(b.itineraries())


def oracle_quivers():
    """Quivers along random walks from the nine fixtures, disjoint unions of
    small ones, and twin paths that only branching tells apart."""
    rng = random.Random(20406)
    out = []
    for name in ["mobius:1", "mobius:2", "mobius:3", "mobius:4", "polygon:5",
                 "polygon:6", "annulus-crosscap", "mobius-three-arc",
                 "three-boundary"]:
        for _ in range(3):
            q = named_fixture(name).build_quiver()
            for _ in range(25):
                out.append(q)
                q = q.mutate(rng.choice(q.mutable_ids()))
    small = [q for q in out if len(q.partition) <= 2]
    for _ in range(40):
        out.append(disjoint_union(*rng.sample(small, rng.choice((2, 3)))))
    out += [twin_paths(k) for k in range(2, 7)]
    out += [twin_paths(3, [[2, 3, 1]]), twin_paths(3, [[2, 4, 1]]), twin_paths(4, [[2, 1]])]
    out += [cycle_paths(c) for c in ([[3, 4], [5, 6, 7, 8]], [[3, 4, 5], [6, 7, 8]],
                                     [[3, 4, 5, 6, 7, 8]], [[3, 4], [5, 6], [7, 8]],
                                     [[3], [4, 5, 6, 7, 8]], [[3, 4], [5, 6, 7]])]
    return out


def reversed_copy(q, rng):
    """``q`` with each path reversed, arrows turned round, with odds 1/2."""
    copy = q.copy()
    for path in copy.partition:
        if rng.random() < 0.5:
            path.reverse()
            for aid in path:
                a = copy.arrows[aid]
                copy.arrows[aid] = Arrow(a.id, a.tgt, a.src)
    return copy


def test_canonical_form_matches_the_token_search():
    # two quivers get one form exactly when the token search gives them one,
    # and a copy with reversed paths, or renamed with its paths shuffled,
    # gets its original's form
    rng = random.Random(15)
    quivers = oracle_quivers()
    walks = [q for q in quivers if len(q.partition) <= 3]
    for _ in range(40):
        a, b = rng.sample(walks, 2)
        quivers.append(disjoint_union(a, reversed_copy(b, rng)))
    quivers += [disjoint_union(*[from_itineraries([[1, 3, 2]])] * k) for k in (2, 6)]
    for q in rng.sample(walks, 4):   # vertices on no path
        for frozen, kind in ((False, ORDINARY), (False, QUASI), (True, ORDINARY)):
            lonely, v = q.copy(), max(q.vertices) + 1
            lonely.vertices[v] = Vertex(v, frozen, kind)
            quivers.append(lonely)
    assert max(len(q.partition) for q in quivers) <= 6
    forms = [q.canonical_form() for q in quivers]
    refs = [reference.canonical_form(q) for q in quivers]
    assert len(set(forms)) == len(set(refs)) == len(set(zip(forms, refs)))
    assert 1 < len(set(forms)) < len(quivers)
    for q, form, ref in zip(quivers, forms, refs):
        for copy in (reversed_copy(q, rng), shuffled_copy(q, rng)):
            assert copy.canonical_form() == form
            assert reference.canonical_form(copy) == ref


@pytest.mark.parametrize("make", [
    lambda: disjoint_union(*[from_itineraries([[1, 3, 2]])] * 8),
    lambda: disjoint_union(*[polygon_fan(5).build_quiver()] * 8),
], ids=["8 disjoint paths", "8 polygon:5"])
def test_canonical_form_takes_bounded_time_on_disjoint_copies(make):
    # each component is searched on its own, so disjoint copies do not
    # multiply the orders to try
    q = make()
    start = time.perf_counter()
    form = q.canonical_form()
    assert time.perf_counter() - start < 1.0
    rng = random.Random(8)
    assert shuffled_copy(reversed_copy(q, rng), rng).canonical_form() == form


def test_shape_key_matches_brute_force_over_path_orders():
    # two quivers get one key exactly when their least first-appearance key
    # over all path orders agrees, a renamed copy with shuffled paths gets
    # the key of its original, and the labels of two quivers with one key
    # rename one onto the other up to path order
    rng = random.Random(7)
    quivers = oracle_quivers()
    assert max(len(q.partition) for q in quivers) <= 6
    shapes = [q.shape() for q in quivers]
    keys = [key for key, _ in shapes]
    brute = [brute_force_key(q) for q in quivers]
    assert len(set(keys)) == len(set(brute)) == len(set(zip(keys, brute)))
    assert len(set(keys)) < len(quivers)
    first = {}
    for q, (key, order) in zip(quivers, shapes):
        copy = shuffled_copy(q, rng)
        copy_key, copy_order = copy.shape()
        assert copy_key == key
        assert same_up_to_path_order(q.renamed(dict(zip(order, copy_order))), copy)
        a, a_order = first.setdefault(key, (q, order))
        assert same_up_to_path_order(a.renamed(dict(zip(a_order, order))), q)


def test_shape_keeps_path_direction_and_vertex_kinds():
    q = seven_arc_quiver()
    key = q.shape()[0]
    reversed_path = q.copy()
    reversed_path.partition[0].reverse()
    for aid in reversed_path.partition[0]:
        a = reversed_path.arrows[aid]
        reversed_path.arrows[aid] = Arrow(a.id, a.tgt, a.src)
    assert reversed_path.shape()[0] != key
    quasi = q.copy()
    quasi.vertices[4] = Vertex(4, kind=QUASI)
    assert quasi.shape()[0] != key
    lonely = q.copy()
    lonely.vertices[99] = Vertex(99)
    # a vertex on no path is labelled after those on paths, but before
    # every frozen vertex: 99 takes the last mutable label
    n = len(lonely.mutable_ids())
    assert lonely.shape()[0] != key and lonely.shape()[1][n - 1] == 99


def zigzag_polygon(c):
    """The quiver of the zigzag triangulation of a disk with marked points
    1..c (diagonals 2-c, 2-(c-1), 3-(c-1), 3-(c-2), ...): one path per
    point through its arcs, each diagonal on two paths, and only the ends
    of the strip tell the paths apart."""
    diagonals, lo, hi = [], 2, c
    while hi - lo >= 2:
        diagonals.append((lo, hi))
        lo, hi = (lo, hi - 1) if len(diagonals) % 2 else (lo + 1, hi)
    ends = {c + i: (i, i % c + 1) for i in range(1, c + 1)}   # boundary arcs
    ends.update(enumerate(diagonals, 1))
    at = {p: [] for p in range(1, c + 1)}   # each point's arcs by angle
    for a, (p, q) in ends.items():
        at[p].append(((q - p) % c, a))
        at[q].append(((p - q) % c, a))
    return from_itineraries([[a for _, a in sorted(at[p], reverse=True)] for p in at],
                            frozen=range(c + 1, 2 * c + 1))


@pytest.mark.parametrize("make", [
    lambda: mobius_fan(1000).build_quiver(),
    lambda: disjoint_union(*[polygon_fan(5).build_quiver()] * 8),
    lambda: twin_paths(200),
    lambda: from_itineraries([[m, m + 1] for m in range(3, 2003)]),
    lambda: from_itineraries([[m, m % 2000 + 1] for m in range(1, 2001)], frozen=()),
    lambda: zigzag_polygon(1000),
], ids=["mobius_fan(1000)", "8 polygon:5", "200 twin paths", "chain of 2000 tied paths",
        "ring of 2000 tied paths", "zigzag polygon:1000"])
def test_shape_takes_bounded_time(make):
    # refinement settles a chain of tied paths in O(m log n), however many
    # rounds its colours take to spread; symmetric inputs end the branching
    # at the work bound
    q = make()
    start = time.perf_counter()
    key, order = q.shape()
    assert time.perf_counter() - start < 1.0
    # the labels realize the key: renaming the vertices to their labels
    # gives a quiver with the same key and the labels in order
    labelled = q.renamed({v: i for i, v in enumerate(order)})
    assert labelled.shape() == (key, tuple(range(len(order))))
    copy = shuffled_copy(q, random.Random(len(order)))
    copy_key, copy_order = copy.shape()
    assert copy_key == key
    assert same_up_to_path_order(q.renamed(dict(zip(order, copy_order))), copy)


def test_zigzag_polygon_is_a_triangulation_quiver():
    assert zigzag_polygon(6).itineraries() == [
        [12, 7], [7, 1, 2, 8], [8, 3, 9], [9, 10], [10, 3, 2, 11], [11, 1, 12]]
    q = zigzag_polygon(40)
    assert q.validate() == [] and len(q.mutable_ids()) == 37
    assert {q.classify_vertex(t).type for t in q.mutable_ids()} == {"V1"}


def test_verify_in_labels_canonically_once(tmp_path, capsys, monkeypatch):
    # verify --in mutates at each vertex and back; those plain mutations key
    # no child, so only the initial seed pays for the canonical labelling.
    # The quivers built are the load and the two children per vertex: the
    # involution check reads the seed's and the grandchild's in place
    path = tmp_path / "zigzag.json"
    path.write_text(zigzag_polygon(200).dumps())
    calls, shape = [], PartitionedQuiver.shape
    monkeypatch.setattr(PartitionedQuiver, "shape", lambda q: (
        calls.append(q), shape(q))[1])
    built, init = [], PartitionedQuiver.__init__
    monkeypatch.setattr(PartitionedQuiver, "__init__", lambda q, *args: (
        built.append(q), init(q, *args))[1])
    start = time.perf_counter()
    assert main(["verify", "--in", str(path)]) == 0
    assert "0 failures over 197 vertices" in capsys.readouterr().out
    assert len(calls) == 1
    assert len(built) == 2 * 197 + 1
    assert time.perf_counter() - start < 5


def test_involution_suite_builds_only_its_pool_and_two_children_per_pair(
        monkeypatch):
    # the suite and its seed pool pick vertices from the seeds' own mutable
    # vertices, so the quivers built are the pool's (its fixtures and walk
    # steps) and the two plain children of each pair; reading the mutable
    # vertices off a rebuilt quiver cost 1,036 more
    built, init = [], PartitionedQuiver.__init__
    monkeypatch.setattr(PartitionedQuiver, "__init__", lambda q, *args: (
        built.append(q), init(q, *args))[1])
    verify._random_seed_pool(random.Random(20406))
    assert len(built) == 42
    del built[:]
    result = verify.suite_involution()
    assert result.ok and "1000 randomized (seed, vertex) pairs, 0 failures" \
        in result.lines[0]
    assert len(built) == 42 + 2 * 1000
