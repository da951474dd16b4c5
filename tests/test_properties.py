"""Property tests: classification and mutation do not depend on how a quiver
is labelled or stored.

Each example walks a named fixture a few random steps, then builds a copy
with vertex ids and arrow ids renamed and the arrow dict, the vertex dict and
the path list shuffled.  At every mutable vertex the copy must classify to
the same type and mutate to the same canonical form; the mutation must be
valid and an involution.
"""
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
