"""Property tests on random walks from the named fixtures.

Classification and mutation do not depend on how a quiver is labelled or
stored: each example walks a fixture a few random steps, then builds a copy
with vertex ids and arrow ids renamed and the arrow dict, the vertex dict and
the path list shuffled.  At every mutable vertex the copy must classify to
the same type and mutate to the same canonical form; the mutation must be
valid and an involution.  A copy that holds the same arrows in another
arrow-dict order must classify and mutate to the same result, arrow ids
included.  A copy with one path reversed must classify to the
same roles and mutate to the same quiver up to path direction.  Mutating
back at t finds the same roles, V2 and V4 swapped.

Flips and mutations commute with the quiver construction along random flip
walks, and the walked quivers and triangulations survive a JSON round trip.
"""
import json
import random

from hypothesis import given, settings, strategies as st

from quasicluster.pquiver import Arrow, PartitionedQuiver, Vertex
from quasicluster.surface import named_fixture

FIXTURES = ["mobius:1", "mobius:2", "mobius:3", "mobius:4", "polygon:5",
            "polygon:6", "annulus-crosscap", "mobius-three-arc",
            "three-boundary"]


def relabelled(q, rng):
    """Copy of q with fresh vertex and arrow ids and shuffled storage order;
    returns the copy and the vertex renaming."""
    vmap = dict(zip(q.vertices, rng.sample(range(1, 1000), len(q.vertices))))
    amap = dict(zip(q.arrows, rng.sample(range(1, 1000), len(q.arrows))))
    vertices = [Vertex(vmap[v.id], v.frozen, v.kind) for v in q.vertices.values()]
    arrows = [Arrow(amap[a.id], vmap[a.src], vmap[a.tgt]) for a in q.arrows.values()]
    partition = [[amap[a] for a in path] for path in q.partition]
    for items in (vertices, arrows, partition):
        rng.shuffle(items)
    return PartitionedQuiver(vertices, arrows, partition), vmap


@settings(derandomize=True, deadline=None)
@given(name=st.sampled_from(FIXTURES),
       walk=st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
       relabel_seed=st.integers(min_value=0, max_value=2**32))
def test_classify_and_mutate_ignore_labels_and_order(name, walk, relabel_seed):
    q = named_fixture(name).build_quiver()
    for step in walk:
        mutable = q.mutable_ids()
        q = q.mutate(mutable[step % len(mutable)])
    r, vmap = relabelled(q, random.Random(relabel_seed))
    form = q.canonical_form()
    for t in q.mutable_ids():
        assert r.classify_vertex(vmap[t]).type == q.classify_vertex(t).type
        q1 = q.mutate(t)
        assert r.mutate(vmap[t]).canonical_form() == q1.canonical_form()
        assert q1.validate() == []
        assert q1.mutate(t).canonical_form() == form


@settings(derandomize=True, deadline=None)
@given(name=st.sampled_from(FIXTURES),
       walk=st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
       shuffle_seed=st.integers(min_value=0, max_value=2**32))
def test_classify_and_mutate_ignore_the_arrow_dict_order(name, walk, shuffle_seed):
    # classification reads arrows where the partition lists them, so the
    # order in which the arrows were inserted is not part of a quiver
    q = named_fixture(name).build_quiver()
    for step in walk:
        mutable = q.mutable_ids()
        q = q.mutate(mutable[step % len(mutable)])
    arrows = list(q.arrows.values())
    random.Random(shuffle_seed).shuffle(arrows)
    r = PartitionedQuiver(q.vertices.values(), arrows, q.partition)
    for t in q.mutable_ids():
        assert r.classify_vertex(t) == q.classify_vertex(t)
        assert r.mutate(t).to_json() == q.mutate(t).to_json()


def labelled(q):
    """The vertices and path itineraries in order: q up to arrow ids and path
    order, paths keeping their direction, vertices keeping their names."""
    return q.vertices, sorted(q.itineraries())


@settings(derandomize=True, deadline=None)
@given(name=st.sampled_from(FIXTURES),
       walk=st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
       relabel_seed=st.integers(min_value=0, max_value=2**32))
def test_mutation_is_an_involution_with_the_inverse_labelling(name, walk,
                                                             relabel_seed):
    # mutating twice at t gives q's shape back; and if the child's shape was
    # first met as a relabelled copy r, mutating r at the child label of t
    # gives q under the inverse of the child's permutation: q's label l, at
    # the child label of q's vertex there, and t at t's
    q = named_fixture(name).build_quiver()
    for step in walk:
        mutable = q.mutable_ids()
        q = q.mutate(mutable[step % len(mutable)])
    key, order = q.shape()
    for t in q.mutable_ids():
        q1 = q.mutate(t)
        assert q1.mutate(t).shape()[0] == key
        ckey, corder = q1.shape()
        label = {v: j for j, v in enumerate(corder)}
        inv = [label[v] for v in order]
        inv[order.index(t)] = len(order)
        r, _ = relabelled(q1, random.Random(relabel_seed))
        rkey, rorder = r.shape()
        assert rkey == ckey
        rt = rorder[label[t]]
        back = r.mutate(rt)
        names = rorder + (rt,)
        assert labelled(back.renamed({names[j]: v for j, v in zip(inv, order)})) == \
            labelled(q)


def with_path_reversed(q, pi):
    """Copy of q with path pi walked the other way, its arrows turned round."""
    copy = q.copy()
    path = copy.partition[pi]
    path.reverse()
    for aid in path:
        a = copy.arrows[aid]
        copy.arrows[aid] = Arrow(a.id, a.tgt, a.src)
    return copy


def roles(cls):
    """The type and the roles of a classification, unordered where the
    exchange relation is symmetric: the factors of each V1 product and the
    two products, and the outer neighbours i, k of V3."""
    if cls.type == "V1":
        return cls.type, sorted(sorted(p) for p in cls.product_pairs)
    if cls.type == "V3":
        return cls.type, sorted([cls.i, cls.k]), cls.j
    return cls.type, cls.i


@settings(derandomize=True, deadline=None)
@given(name=st.sampled_from(FIXTURES),
       walk=st.lists(st.integers(min_value=0, max_value=10**6), max_size=8))
def test_mutating_back_keeps_the_roles_and_swaps_v2_and_v4(name, walk):
    # mutation is an involution that keeps the exchange relation, so the
    # child classifies t with the same vertices in the same roles, V2 and
    # V4 swapped: what an exploration's memo records for the way back
    q = named_fixture(name).build_quiver()
    for step in walk:
        mutable = q.mutable_ids()
        q = q.mutate(mutable[step % len(mutable)])
    swap = {"V1": "V1", "V2": "V4", "V3": "V3", "V4": "V2"}
    for t in q.mutable_ids():
        cls = q.classify_vertex(t)
        back = q.mutate(t, cls).classify_vertex(t)
        assert roles(back) == roles(cls._replace(type=swap[cls.type]))


def up_to_direction(q):
    """The vertices and the paths' itineraries, each read in its lesser
    direction, sorted: q up to arrow ids, path order and path direction."""
    return q.vertices, sorted(min(p, p[::-1]) for p in q.itineraries())


@settings(derandomize=True, deadline=None)
@given(name=st.sampled_from(FIXTURES),
       walk=st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
       which=st.integers(min_value=0, max_value=10**6))
def test_reversing_a_path_keeps_classification_and_mutation(name, walk, which):
    # the V1-V4 rules read a path's direction only through its arrows, so a
    # copy with one path reversed classifies every vertex to the same type
    # and roles and mutates to the same quiver up to path direction
    q = named_fixture(name).build_quiver()
    for step in walk:
        mutable = q.mutable_ids()
        q = q.mutate(mutable[step % len(mutable)])
    r = with_path_reversed(q, which % len(q.partition))
    assert r.validate() == []
    for t in q.mutable_ids():
        assert roles(r.classify_vertex(t)) == roles(q.classify_vertex(t))
        assert up_to_direction(r.mutate(t)) == up_to_direction(q.mutate(t))


def json_round_trip(obj):
    data = obj.to_json()
    back = type(obj).from_json(json.loads(json.dumps(data)))
    assert back.to_json() == data
    return back


@settings(derandomize=True, deadline=None, max_examples=100)
@given(name=st.sampled_from(FIXTURES),
       walk=st.lists(st.integers(min_value=0, max_value=10**6), max_size=6))
def test_flip_walks_commute_with_mutation_and_round_trip(name, walk):
    t = named_fixture(name)
    q = t.build_quiver()
    for step in walk:
        arcs = t.internal_arcs()
        a = arcs[step % len(arcs)]
        t, q = t.flip(a), q.mutate(a)
        assert t.build_quiver().canonical_form() == q.canonical_form()
        assert json_round_trip(q).canonical_form() == q.canonical_form()
        assert json_round_trip(t).build_quiver().canonical_form() == q.canonical_form()
