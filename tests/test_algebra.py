import random
from fractions import Fraction
from itertools import chain, product

import pytest

from quasicluster import algebra, verify
from quasicluster.algebra import (LimitExceeded, Seed, SeedMismatch,
                                  check_laurent_positive, exchange_value,
                                  explore, initial_seed, match_seeds,
                                  mobius_variable_count, mutate_seed,
                                  polygon_variable_count, relation_text,
                                  unistructurality_scan)
from quasicluster.cli import main
from quasicluster.laurent import DenominatorVector, LaurentForm, LaurentViolation
from quasicluster.pquiver import (PartitionedQuiver, Unclassifiable,
                                  VertexClassification)
from quasicluster.surface import (annulus_crosscap, mobius_fan, named_fixture,
                                  polygon_fan)
from test_pquiver import reversed_copy
from test_properties import roles


def all_ones_seed(quiver):
    seed = initial_seed(quiver, coeff_free=True)
    one = LaurentForm.one(seed.context.nvars)
    return Seed(quiver, seed.context, dict.fromkeys(seed.values, one), seed.frozen)


def test_v3_exchange_arithmetic():
    # (x_i + x_k)^2 + x_i x_j^2 x_k at all-ones is 5
    q = annulus_crosscap().build_quiver()
    seed = all_ones_seed(q)
    cls = q.classify_vertex(4)
    assert cls.type == "V3"
    e = exchange_value(seed, cls)
    assert e == LaurentForm.constant(5, seed.context.nvars)


def test_v1_exchange_arithmetic():
    q = polygon_fan(5).build_quiver()
    seed = all_ones_seed(q)
    t = q.mutable_ids()[0]
    two = LaurentForm.constant(2, seed.context.nvars)
    seed = Seed(q, seed.context, {**seed.values, t: two}, seed.frozen)
    cls = q.classify_vertex(t)
    assert cls.type == "V1"
    assert exchange_value(seed, cls) == two
    assert mutate_seed(seed, t).values[t] == LaurentForm.one(seed.context.nvars)


def test_v2_v4_return_exactly():
    q = mobius_fan(2).build_quiver()
    seed = initial_seed(q)
    s1 = mutate_seed(seed, 2)   # doubled arc -> quasi-arc
    s2 = mutate_seed(s1, 2)
    assert s2.values[2] == seed.values[2]
    # x_2' * x_2 multiplies back to x_1 exactly
    prod = s1.values[2] * seed.values[2]
    assert prod == seed.values[1]


def test_relation_text():
    q = annulus_crosscap().build_quiver()
    seed = initial_seed(q)   # mutable ids 1..5, so rank names match ids
    assert relation_text(q.classify_vertex(5), seed) == "[V4] x5 * x5' = x4"
    assert "(x3 + x2)^2 + x3*x5^2*x2" in relation_text(q.classify_vertex(4), seed)


def test_m1_exploration_shape():
    g = explore(initial_seed(mobius_fan(1).build_quiver(), coeff_free=True))
    assert g.node_count() == 2
    assert g.edge_count() == 1
    assert g.variable_count() == 2
    assert g.degree_audit() == [] and g.connectivity_audit()


def test_m2_variables_match_hand_derivation():
    # the six variables around the M2 exchange cycle, derived by composing
    # the exchange relations by hand from the initial cluster {x1, x2}
    # (x1 = enclosing loop, x2 = doubled arc, coefficients set to 1):
    #   x2 -> x1/x2                 (doubled arc to quasi-arc)
    #   x1 -> (4x2^2+x1^2)/(x1x2^2) (loop re-hung around the quasi-arc)
    #   quasi-arc back to the second doubled arc, then the through-arc
    g = explore(initial_seed(mobius_fan(2).build_quiver(), coeff_free=True))
    ctx = g.nodes[sorted(g.nodes)[0]].context
    got = sorted(lf.render(ctx) for lf, _ in g.variables.values())
    assert got == sorted([
        "x1", "x2", "x1 / x2", "2*x2 / x1",
        "(x1^2 + 4*x2^2) / x1*x2^2", "(x1^2 + 4*x2^2) / x1^2*x2",
    ])


def test_m2_variables_with_coefficients_match_hand_derivation():
    # same cycle with boundary coefficients carried: the big numerator is
    # (y1+y2)^2 x2^2 + y1 y2 x1^2
    g = explore(initial_seed(mobius_fan(2).build_quiver()))
    ctx = g.nodes[sorted(g.nodes)[0]].context
    got = sorted(lf.render(ctx) for lf, _ in g.variables.values())
    big = "x1^2*y1*y2 + x2^2*y1^2 + 2*x2^2*y1*y2 + x2^2*y2^2"
    assert got == sorted([
        "x1", "x2", "x1 / x2", "(x2*y1 + x2*y2) / x1",
        f"({big}) / x1*x2^2", f"({big}) / x1^2*x2",
    ])


def test_m2_exploration_positive():
    g = explore(initial_seed(mobius_fan(2).build_quiver(), coeff_free=True))
    assert g.variable_count() == 6
    rep = check_laurent_positive(g)
    assert rep.ok and rep.checked == 6


def test_pentagon_variables_are_the_rank_two_classics():
    g = explore(initial_seed(polygon_fan(5).build_quiver(), coeff_free=True))
    ctx = g.nodes[sorted(g.nodes)[0]].context
    got = sorted(lf.render(ctx) for lf, _ in g.variables.values())
    assert got == sorted(["x1", "x2", "(x2 + 1) / x1", "(x1 + 1) / x2",
                          "(x1 + x2 + 1) / x1*x2"])


def test_exploration_with_coefficients():
    g = explore(initial_seed(mobius_fan(2).build_quiver()))
    assert g.node_count() == 6
    rep = check_laurent_positive(g)
    assert rep.ok


def test_exploration_deterministic():
    def run():
        g = explore(initial_seed(mobius_fan(3).build_quiver(), coeff_free=True))
        return (sorted(g.nodes), sorted(g.variables))
    assert run() == run()


def test_counts_formulas():
    assert [mobius_variable_count(m) for m in (1, 2, 3, 4)] == [2, 6, 13, 23]
    assert polygon_variable_count(2) == 5
    assert polygon_variable_count(3) == 9


def test_node_budget():
    seed = initial_seed(annulus_crosscap().build_quiver(), coeff_free=True,
                        tracking="denominator")
    with pytest.raises(LimitExceeded) as err:
        explore(seed, max_nodes=200)
    g = err.value.graph
    assert g.node_count() == 200
    assert g.degree_audit() == []


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_node_budget_stops_before_next_child(monkeypatch):
    calls = counting(monkeypatch, algebra, "mutate_seed")
    with pytest.raises(LimitExceeded) as err:
        explore(initial_seed(mobius_fan(80).build_quiver(), coeff_free=True),
                max_nodes=1)
    assert calls[0] == 1
    assert err.value.graph.node_count() == 1


def test_each_mutation_classifies_once(monkeypatch):
    mutations = counting(monkeypatch, algebra, "mutate_seed")
    classifications = counting(monkeypatch, PartitionedQuiver, "classify_vertex")
    g = explore(initial_seed(mobius_fan(3).build_quiver(), coeff_free=True))
    # mutation is an involution, so each edge is computed from one end only:
    # a cluster knows its neighbour at the vertex that created it, and at
    # the vertex whose value matches a later rediscovery of it
    assert mutations[0] == g.edge_count() == 33
    # a mutation classifies at most once, and clusters whose quivers agree
    # up to vertex names and path order share their classifications
    shapes = {s.shape.key for s in g.nodes.values()}
    assert classifications[0] <= 3 * len(shapes) < mutations[0]


def relation_key(seed, cls):
    """V-type, input serializations and old value of one exchange relation,
    up to the symmetries of E: each V1 product and the two products are
    unordered, and so are the outer neighbours i, k of V3."""
    def ser(v):
        return seed.value_of(v).canonical_serialize()
    if cls.type == "V1":
        inputs = sorted(sorted(map(ser, pair)) for pair in cls.product_pairs)
    elif cls.type in ("V2", "V4"):
        inputs = [ser(cls.i)]
    else:
        inputs = [*sorted([ser(cls.i), ser(cls.k)]), ser(cls.j)]
    return cls.type, repr(inputs), seed.values[cls.t].canonical_serialize()


@pytest.mark.parametrize("coeff_free", [True, False])
def test_explore_computes_each_relation_once_per_call(monkeypatch, coeff_free):
    exchanges = counting(monkeypatch, algebra, "exchange_value")
    keys = set()
    original = algebra.mutate_seed

    def recorded(seed, t, *args, **kwargs):
        keys.add(relation_key(seed, seed.quiver.classify_vertex(t)))
        return original(seed, t, *args, **kwargs)

    monkeypatch.setattr(algebra, "mutate_seed", recorded)
    seed = initial_seed(mobius_fan(4).build_quiver(), coeff_free=coeff_free)
    counts = []
    for _ in range(2):
        keys.clear()
        exchanges[0] = 0
        explore(seed)
        assert exchanges[0] == len(keys)
        counts.append(exchanges[0])
    # the memo lives for one call: the second call on the same seed does
    # the same work as the first
    assert counts[0] == counts[1]


def test_mutate_seed_with_relations_memo():
    names = ["mobius:1", "mobius:2", "mobius:3", "mobius:4", "polygon:5",
             "polygon:6", "annulus-crosscap", "mobius-three-arc",
             "three-boundary"]
    for name in names:
        seed = initial_seed(named_fixture(name).build_quiver())
        relations = {}
        children = [mutate_seed(seed, t) for t in seed.quiver.mutable_ids()]
        for s in [seed, *children, seed]:   # misses, then hits
            for t in s.quiver.mutable_ids():
                fresh = mutate_seed(s, t)
                memo = mutate_seed(s, t, memo=relations)
                assert memo.values == fresh.values
                assert fresh.quiver.to_json() == s.quiver.mutate(t).to_json()
                # the memo holds one Shape per key, whose representative
                # fixes the arrow ids and path order
                assert quiver_shape(memo.quiver) == quiver_shape(fresh.quiver)
                # a plain call on a seed named unlike its representative
                back = memo.quiver.mutate(t).to_json()
                assert mutate_seed(memo, t).quiver.to_json() == back
        assert relations


def explored(fixture, max_nodes=100000, **seed_kwargs):
    """The graph of explore(initial_seed(...)), partial if the budget ends it."""
    seed = initial_seed(named_fixture(fixture).build_quiver(), **seed_kwargs)
    try:
        return explore(seed, max_nodes=max_nodes)
    except LimitExceeded as exc:
        return exc.graph


def quiver_shape(q):
    """Vertex kinds and the sorted path itineraries: the quiver up to arrow
    ids and path order."""
    paths = tuple(sorted((q.arrows[p[0]].src,) + tuple(q.arrows[a].tgt for a in p)
                         for p in q.partition))
    kinds = tuple(sorted((v.id, v.frozen, v.kind) for v in q.vertices.values()))
    return kinds, paths


FIXTURES = ["mobius:1", "mobius:2", "mobius:3", "mobius:4", "polygon:5",
            "polygon:6", "annulus-crosscap", "mobius-three-arc", "three-boundary"]
INFINITE_TYPE = {"annulus-crosscap", "three-boundary"}


def test_adjacency_matches_fresh_mutation():
    # mobius:3 and mobius:5 share no quiver between clusters; annulus-crosscap
    # and three-boundary at 2,000 nodes reuse recorded transitions
    for g in (explored("mobius:3", coeff_free=True),
              explored("mobius:5", coeff_free=True),
              explored("annulus-crosscap", 2000, coeff_free=True,
                       tracking="denominator"),
              explored("three-boundary", 2000, tracking="denominator")):
        # more edges than a tree: some clusters are reached along several
        # paths, and keep the seed (and vertex labelling) of the path that
        # created them; the edges back to those paths are keyed by value
        assert g.edge_count() > g.node_count() - 1
        for k in g.complete:
            s = g.nodes[k]
            assert sorted(g.adjacency[k]) == s.quiver.mutable_ids()
            for t, ck in g.adjacency[k].items():
                assert mutate_seed(s, t).cluster_key() == ck


def relabelled(seed, perm):
    """``seed`` with its mutable vertex ids renamed by ``perm``: the same
    seed up to vertex labels."""
    data = seed.quiver.to_json()
    for v in data["vertices"]:
        v["id"] = perm.get(v["id"], v["id"])
    for a in data["arrows"]:
        a["src"] = perm.get(a["src"], a["src"])
        a["tgt"] = perm.get(a["tgt"], a["tgt"])
    values = {perm[v]: lf for v, lf in seed.values.items()}
    return Seed(PartitionedQuiver.from_json(data), seed.context, values,
                seed.frozen)


def test_match_seeds_maps_by_value_and_checks_the_quiver():
    stored = initial_seed(mobius_fan(3).build_quiver())
    swap = {1: 2, 2: 1, 3: 3}
    child = relabelled(stored, swap)
    assert child.cluster_key() == stored.cluster_key()
    assert quiver_shape(child.quiver) != quiver_shape(stored.quiver)
    # a relabelled copy of the stored seed matches under the value map
    assert match_seeds(child, stored) == swap
    assert match_seeds(stored, stored) == {1: 1, 2: 2, 3: 3}
    # the same cluster on the relabelled quiver is another seed
    wrong = Seed(child.quiver, stored.context, stored.values, stored.frozen)
    with pytest.raises(SeedMismatch):
        match_seeds(wrong, stored)
    # the same cluster on a mutated quiver: the map is the identity, the
    # quivers differ
    wrong = Seed(stored.quiver.mutate(2), stored.context, stored.values,
                 stored.frozen)
    with pytest.raises(SeedMismatch):
        match_seeds(wrong, stored)
    # no one-to-one value map when a value repeats: nothing is matched
    ones = all_ones_seed(stored.quiver)
    assert match_seeds(ones, ones) is None
    # a stored quiver whose paths come in another order is the same seed
    data = stored.quiver.to_json()
    data["partition"].reverse()
    other = Seed(PartitionedQuiver.from_json(data), stored.context,
                 stored.values, stored.frozen)
    assert match_seeds(stored, other) == {1: 1, 2: 2, 3: 3}
    # a stored quiver that differs from the child's in one vertex's kind, in
    # one path or in its frozen set is another seed
    for edit in (lambda d: d["vertices"][2].update(kind="quasi"),
                 lambda d: (d["arrows"][6].update(tgt=1),
                            d["arrows"][7].update(src=1)),
                 lambda d: d["vertices"][3].update(frozen=False)):
        data = stored.quiver.to_json()
        edit(data)
        other = Seed(PartitionedQuiver.from_json(data), stored.context,
                     stored.values, stored.frozen)
        with pytest.raises(SeedMismatch):
            match_seeds(stored, other)


def test_signature_sees_through_relabelling():
    # on walks from every fixture, a copy with renamed mutable vertices has
    # the original's shape key, and its vertex order is the original's once
    # the renaming is undone
    for fixture in FIXTURES:
        rng = random.Random(fixture)
        s = initial_seed(named_fixture(fixture).build_quiver(),
                         tracking="denominator")
        for _ in range(30):
            ids = s.quiver.mutable_ids()
            perm = dict(zip(ids, rng.sample(ids, len(ids))))
            inverse = {u: v for v, u in perm.items()}
            key, order = relabelled(s, perm).quiver.shape()
            assert key == s.quiver.shape()[0]
            assert tuple(inverse.get(v, v) for v in order) == s.quiver.shape()[1]
            s = mutate_seed(s, rng.choice(ids))


def reference_signature(quiver, rename=None):
    """The seed guard's quiver comparison before shapes, kept as a
    reference: the vertex count and every vertex's (id, frozen, kind) in id
    order, then each path's vertex itinerary led by its length, the paths
    sorted, each vertex id passed through ``rename``."""
    get = (rename or {}).get
    triples = sorted((get(v.id, v.id), v.frozen, v.kind)
                     for v in quiver.vertices.values())
    sig = [len(triples), *chain.from_iterable(triples)]
    for p in sorted([get(v, v) for v in p] for p in quiver.itineraries()):
        sig.append(len(p))
        sig += p
    return tuple(sig)


def reference_match(child, stored):
    """``match_seeds`` by ``reference_signature``: the value map, None, or
    SeedMismatch."""
    at = {lf.canonical_serialize(): v for v, lf in stored.values.items()}
    if len(at) != len(stored.values):
        return None
    rename = {v: at[lf.canonical_serialize()] for v, lf in child.values.items()}
    if reference_signature(child.quiver, rename) != reference_signature(stored.quiver):
        raise SeedMismatch("reference")
    return rename


def guard_outcome(match, child, stored):
    try:
        return match(child, stored)
    except SeedMismatch:
        return SeedMismatch


def edited(seed, edit):
    """``seed`` with ``edit`` applied to the JSON of its quiver."""
    data = seed.quiver.to_json()
    edit(data)
    return Seed(PartitionedQuiver.from_json(data), seed.context, seed.values,
                seed.frozen)


def guard_edits(rng, quiver):
    """The four edits of test_match_seeds_maps_by_value_and_checks_the_quiver
    at random places: one mutable vertex's kind, one arrow's target, one
    vertex's frozen flag, the order of the paths."""
    mutable = [i for i, v in enumerate(quiver.to_json()["vertices"])
               if not v["frozen"]]
    ids = quiver.mutable_ids()

    def kind(d):
        v = d["vertices"][rng.choice(mutable)]
        v["kind"] = "quasi" if v["kind"] == "ordinary" else "ordinary"

    def target(d):
        d["arrows"][rng.randrange(len(d["arrows"]))]["tgt"] = rng.choice(ids)

    def frozen(d):
        v = d["vertices"][rng.randrange(len(d["vertices"]))]
        v["frozen"] = not v["frozen"]

    return kind, target, frozen, lambda d: d["partition"].reverse()


def test_match_seeds_agrees_with_the_signature_guard():
    # on 30-step walks from every fixture: random relabellings of the mutable
    # vertices and the four edits, each seed against each as child and as
    # stored seed; plus two arrow-less mutable vertices swapped, which the
    # vertex order alone lists in another order
    pairs = []
    for fixture in FIXTURES:
        rng = random.Random(fixture)
        s = initial_seed(named_fixture(fixture).build_quiver(),
                         tracking="denominator")
        for _ in range(30):
            ids = s.quiver.mutable_ids()
            child = relabelled(s, dict(zip(ids, rng.sample(ids, len(ids)))))
            pairs += [(child, s), (s, child)]
            for edit in guard_edits(rng, s.quiver):
                other = edited(s, edit)
                pairs += [(child, other), (other, child), (s, other)]
            s = mutate_seed(s, rng.choice(ids))
    base = initial_seed(mobius_fan(3).build_quiver())
    x = base.values[1]
    data = base.quiver.to_json()
    data["vertices"] += [{"id": v, "frozen": False, "kind": "ordinary"}
                         for v in (100, 101)]
    lonely = Seed(PartitionedQuiver.from_json(data), base.context,
                  {**base.values, 100: x * x, 101: x * x * x}, base.frozen)
    swapped = relabelled(lonely, {**{v: v for v in base.values},
                                  100: 101, 101: 100})
    pairs += [(swapped, lonely), (lonely, swapped)]
    outcomes = []
    for child, stored in pairs:
        want = guard_outcome(reference_match, child, stored)
        assert guard_outcome(match_seeds, child, stored) == want
        outcomes.append(want)
    assert outcomes[-1] == {v: v for v in base.values} | {100: 101, 101: 100}
    assert SeedMismatch in outcomes and sum(o is SeedMismatch for o in outcomes) \
        < len(outcomes)


def test_json_edges_list_each_label_of_an_edge():
    # one entry per (node pair, vertex label): an edge whose two ends label
    # it differently appears twice
    g = explored("mobius:3", coeff_free=True)
    edges = g.to_json()["edges"]
    assert (len(edges), g.edge_count()) == (39, 33)
    for g in (g, explored("annulus-crosscap", 2000, coeff_free=True,
                          tracking="denominator")):
        pairs = [(e["a"], e["b"]) for e in g.to_json()["edges"]]
        assert len(set(pairs)) == g.edge_count() < len(pairs)


def corrupt_rediscoveries(monkeypatch):
    """Make mutate_seed give every cluster it returns a second time the
    quiver of the seed it mutated: a cluster then no longer determines its
    seed."""
    original = algebra.mutate_seed
    returned = set()

    def corrupted(seed, t, *args, **kwargs):
        returned.add(seed.cluster_key())
        child = original(seed, t, *args, **kwargs)
        if child.cluster_key() not in returned:
            returned.add(child.cluster_key())
            return child
        return Seed(seed.quiver, child.context, child.values, child.frozen)

    monkeypatch.setattr(algebra, "mutate_seed", corrupted)


def test_explore_raises_when_a_cluster_does_not_determine_its_seed(
        monkeypatch, capsys):
    corrupt_rediscoveries(monkeypatch)
    with pytest.raises(SeedMismatch):
        explore(initial_seed(mobius_fan(3).build_quiver(), coeff_free=True))
    # the command line reports it as a property violation
    assert main(["explore", "--fixture", "mobius:3", "--coeff-free"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("property violation: ")


def test_valid_explorations_never_raise_seed_mismatch(monkeypatch):
    matched = []
    original = algebra.match_seeds

    def recorded(child, stored):
        matched.append(original(child, stored))
        return matched[-1]

    monkeypatch.setattr(algebra, "match_seeds", recorded)
    for fixture in FIXTURES:
        tracking = "denominator" if fixture in INFINITE_TYPE else "exact"
        explored(fixture, 500, tracking=tracking)
        explored(fixture, 500, coeff_free=True, tracking=tracking)
    assert verify.suite_budget(max_nodes=2000).ok
    # every rediscovery was checked, and no cluster repeats a value
    assert matched and None not in matched


@pytest.mark.parametrize("fixture", FIXTURES)
def test_shared_quivers_match_a_fresh_replay(fixture):
    # explore shares one quiver object per vertex-labelled quiver and reuses
    # classifications and child quivers; a replay of each witness path with
    # plain mutation (mutate_seed without a classification, child quiver or
    # memo classifies and mutates its own quiver) must agree with every node
    tracking = "denominator" if fixture in INFINITE_TYPE else "exact"
    g = explored(fixture, 500, tracking=tracking)
    replay = {(): g.nodes[g.root]}
    for k, path in sorted(g.paths.items(), key=lambda kv: kv[1]):
        if path:
            replay[path] = mutate_seed(replay[path[:-1]], path[-1])
        fresh, stored = replay[path], g.nodes[k]
        assert quiver_shape(stored.quiver) == quiver_shape(fresh.quiver)
        assert fresh.cluster_key() == k
        assert fresh.values == stored.values


def test_explore_shares_quivers_and_transitions_per_call(monkeypatch):
    classifications = counting(monkeypatch, PartitionedQuiver, "classify_vertex")
    mutations = counting(monkeypatch, algebra, "mutate_seed")
    seed = initial_seed(annulus_crosscap().build_quiver(), coeff_free=True,
                        tracking="denominator")
    counts = []
    for _ in range(2):
        classifications[0] = mutations[0] = 0
        with pytest.raises(LimitExceeded) as err:
            explore(seed, max_nodes=2000)
        counts.append(classifications[0])
        # clusters outnumber the shapes of their quivers, so classifications
        # and quiver mutations are reused across clusters
        assert classifications[0] < mutations[0]
        g = err.value.graph
        keys = {s.shape.key for s in g.nodes.values()}
        # one shape object per key, and each seed's quiver has its shape's
        # key in its own vertex order
        assert len({id(s.shape) for s in g.nodes.values()}) == len(keys)
        assert len(keys) < g.node_count()
        for s in g.nodes.values():
            key, order = s.quiver.shape()
            assert key == s.shape.key
            # two labellings of one key differ by an automorphism
            same = s.quiver.renamed(dict(zip(order, s.order)))
            assert quiver_shape(same) == quiver_shape(s.quiver)
    # the transition table lives for one call
    assert counts[0] == counts[1]


def explore_memo(monkeypatch, fixture, max_nodes=300, **seed_kwargs):
    """The memo that one exploration of ``fixture`` hands to mutate_seed."""
    memos, original = [], algebra.mutate_seed

    def recorded(seed, t, *args, **kwargs):
        memos.append(kwargs["memo"])
        return original(seed, t, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(algebra, "mutate_seed", recorded)
        explored(fixture, max_nodes, **seed_kwargs)
    assert all(m is memos[0] for m in memos)
    return memos[0]


def sorted_relation_key(cls, ids):
    """``algebra._relation_key`` written with lists and ``sorted``: each V1
    product's two ids sorted, then the products sorted; V3's i and k
    sorted, then j."""
    if cls.type == "V1":
        (a, b), (c, d) = [sorted([ids[u], ids[v]]) for u, v in cls.product_pairs]
        inputs = (a, b, c, d) if (a, b) <= (c, d) else (c, d, a, b)
    elif cls.type in ("V2", "V4"):
        inputs = ids[cls.i]
    else:
        i, k = sorted([ids[cls.i], ids[cls.k]])
        inputs = (i, k, ids[cls.j])
    return cls.type, inputs, ids[cls.t]


def test_relation_key_matches_the_sorted_formula_on_every_order():
    # every order of up to four distinct ids, ties included, in each role
    v1 = VertexClassification("V1", 4, (), product_pairs=((0, 1), (2, 3)))
    v3 = VertexClassification("V3", 4, (), i=0, j=1, k=2)
    for ids in product(range(4), repeat=4):
        ids += (9,)
        for cls in (v1, v3, v3._replace(type="V2", j=None, k=None)):
            assert algebra._relation_key(cls, ids) == sorted_relation_key(cls, ids)


@pytest.mark.parametrize("coeff_free", [True, False])
def test_relation_keys_of_explorations_match_the_sorted_formula(monkeypatch,
                                                                coeff_free):
    # every key that explorations of the fixtures build, repeated values
    # (all frozen ones are 1 without coefficients) included
    original, met = algebra._relation_key, set()

    def checked(cls, ids):
        key = original(cls, ids)
        assert key == sorted_relation_key(cls, ids)
        met.add(cls.type)
        return key

    monkeypatch.setattr(algebra, "_relation_key", checked)
    for fixture in FIXTURES:
        explored(fixture, 500, coeff_free=coeff_free, tracking="denominator")
    assert met == {"V1", "V2", "V3", "V4"}


@pytest.mark.parametrize("fixture, max_nodes, tracking", [
    ("mobius:4", 100000, "exact"), ("annulus-crosscap", 2000, "denominator"),
    ("three-boundary", 2000, "denominator")])
def test_memo_entries_from_their_inverse_match_a_fresh_transition(
        monkeypatch, fixture, max_nodes, tracking):
    # the transition from shape S at label i to C at j fills C's empty entry
    # at j with S, the inverse permutation and a classification derived from
    # S's at i, which no transition computes again; every such entry, used
    # or not, must give what computing the transition gives: the same child
    # Shape and permutation, the same type and roles, and the same child
    # quiver up to arrow ids and path order.  It holds no arrow ids, which
    # only a quiver mutation reads
    original, computed, keyed = algebra._transition, set(), set()
    original_key = algebra._relation_key

    def recorded(shape, i, memo):
        computed.add((shape, i))
        return original(shape, i, memo)

    def recorded_key(cls, ids):
        keyed.add(id(cls))
        return original_key(cls, ids)

    monkeypatch.setattr(algebra, "_transition", recorded)
    monkeypatch.setattr(algebra, "_relation_key", recorded_key)
    memo = explore_memo(monkeypatch, fixture, max_nodes, tracking=tracking)
    derived = [(shape, i) for shape, row in memo.items() if type(shape) is algebra.Shape
               for i, entry in enumerate(row)
               if entry is not None and (shape, i) not in computed]
    assert derived and len(derived) <= len(computed)
    # explore keys relations by derived entries
    assert any(id(memo[shape][i][0]) in keyed for shape, i in derived)
    for shape, i in derived:
        cls, child, perm = memo[shape][i]
        assert cls.arrows == cls.closures == ()
        rep, t = shape.quiver, shape.order[i]
        fresh = original(shape, i, {k: list(v) if type(v) is list else v
                                    for k, v in memo.items()})
        assert child is fresh[1] and perm == fresh[2]
        assert (cls.t, roles(cls)) == (fresh[0].t, roles(fresh[0]))
        labels = shape.order + (t,)
        mine = child.quiver.renamed({v: labels[j] for v, j in zip(child.order, perm)})
        assert quiver_shape(mine) == quiver_shape(rep.mutate(t))


@pytest.mark.parametrize("fixture", ["mobius:3", "annulus-crosscap"])
def test_mutate_seed_interns_seeds_of_another_table(monkeypatch, fixture):
    # the seeds of one exploration hold ids of its table; a fresh memo and the
    # memo of another exploration of the same quivers with other values (no
    # coefficients) intern their values anew, and the children agree with
    # plain mutation: the same values, and the same quiver up to arrow ids
    # and path order, which a memo's shapes fix
    g = explored(fixture, 300)
    other = explore_memo(monkeypatch, fixture, coeff_free=True)
    table, size = other[algebra.ValueTable], len(other[algebra.ValueTable].values)
    for k in sorted(g.nodes)[:60]:
        s = g.nodes[k]
        for t in s.quiver.mutable_ids():
            plain = mutate_seed(s, t)
            assert plain.table is s.table   # a plain call adds to the seed's table
            for memo in ({}, other):
                child = mutate_seed(s, t, memo=memo)
                assert child.table is memo[algebra.ValueTable] is not s.table
                assert child.values == plain.values
                assert quiver_shape(child.quiver) == quiver_shape(plain.quiver)
    assert len(table.values) > size


@pytest.mark.parametrize("fixture, max_nodes, tracking", [
    ("mobius:4", 100000, "exact"), ("annulus-crosscap", 2000, "denominator")])
def test_stored_seeds_label_their_mutable_vertices_first(fixture, max_nodes, tracking):
    # shape() labels the mutable vertices first and mutation never freezes
    # a vertex, so every stored seed holds its n mutable vertices at labels
    # 0..n-1, and the value ids there are its cluster
    g = explored(fixture, max_nodes, tracking=tracking)
    n = len(g.nodes[g.root].values)
    for k, s in g.nodes.items():
        assert sorted(s.order[:n]) == s.quiver.mutable_ids()
        assert sorted(s.shape.order[:n]) == s.shape.quiver.mutable_ids()
        values = s.table.values
        assert tuple(sorted(values[i].canonical_serialize() for i in s.ids[:n])) == k


@pytest.mark.parametrize("fixture, max_nodes, tracking", [
    ("mobius:4", 100000, "exact"), ("annulus-crosscap", 2000, "denominator")])
def test_explore_from_an_unkeyed_seed(fixture, max_nodes, tracking):
    # a plain call keys no shape: its child holds the seed's quiver mutated,
    # to the byte, and explore keys it once, so it explores as the same seed
    # built anew does, and stores a keyed root
    seed = initial_seed(named_fixture(fixture).build_quiver(), tracking=tracking)
    t = seed.quiver.mutable_ids()[0]
    child = mutate_seed(seed, t)
    assert child.shape.key is None and child.table is seed.table
    assert child.quiver.to_json() == seed.quiver.mutate(t).to_json()
    outputs = []
    for s in (child, Seed(child.quiver, child.context, child.values, child.frozen)):
        try:
            g = explore(s, max_nodes=max_nodes)
        except LimitExceeded as exc:
            g = exc.graph
        root = g.nodes[g.root]
        assert root.shape.key == root.quiver.shape()[0]
        outputs.append((g.to_json(), g.to_dot()))
    assert outputs[0] == outputs[1]
    # and a plain call on a stored seed mutates that seed's own quiver
    for s in list(g.nodes.values())[:40]:
        for t in s.quiver.mutable_ids():
            assert mutate_seed(s, t).quiver.to_json() == s.quiver.mutate(t).to_json()


def test_explore_matches_a_seed_whose_frozen_labels_moved(monkeypatch):
    # the first child of a cluster already returned comes back with its
    # frozen vertices at labels n and n+1 swapped: the same shape and value
    # ids but not one labelling, so explore must compare the two quivers
    # under the value map, and they differ
    original, returned, moved = algebra.mutate_seed, set(), []

    def tampered(seed, t, *args, **kwargs):
        child = original(seed, t, *args, **kwargs)
        cids = tuple(sorted(child.ids[:n]))
        if cids not in returned or moved:
            returned.add(cids)
            return child
        order = list(child.order)
        order[n], order[n + 1] = order[n + 1], order[n]
        moved.append(child._moved(child.shape, tuple(order), child.ids, child.table))
        return moved[-1]

    seed = initial_seed(mobius_fan(3).build_quiver(), coeff_free=True)
    n = len(seed.values)
    monkeypatch.setattr(algebra, "mutate_seed", tampered)
    with pytest.raises(SeedMismatch):
        explore(seed)
    assert len(moved) == 1


def test_explore_of_hand_edited_values():
    # every value 1 (``all_ones_seed``): clusters repeat values, so no edge is
    # held back by value, and the graph is the one explore gave before values
    # were interned; on mobius:3 the value map does not determine the seed
    g = explore(all_ones_seed(mobius_fan(2).build_quiver()))
    data = g.to_json()
    assert [n["witness_path"] for n in data["nodes"]] == \
        [[], [1], [1, 2, 1, 2], [1, 2], [1, 2, 1]]
    assert [(e["a"], e["b"], e["vertex"]) for e in data["edges"]] == \
        [(0, 0, 2), (0, 1, 1), (0, 2, 1), (1, 3, 2), (2, 4, 2), (3, 4, 1)]
    assert data["variables"] == ["1", "2", "5"] and data["closed"]
    assert all(len(set(k)) < len(k) for k in (g.root, sorted(g.nodes)[-1]))
    with pytest.raises(SeedMismatch):
        explore(all_ones_seed(mobius_fan(3).build_quiver()))


def test_values_and_variables_keep_their_order():
    # Seed.values lists the mutable vertices in the order they were given,
    # children keep it, explore lists the root's variables first in it, and
    # the map is read-only: a new value needs a new Seed
    seed = initial_seed(mobius_fan(3).build_quiver())
    ids = seed.quiver.mutable_ids()
    assert list(seed.values) == list(mutate_seed(seed, ids[0]).values) == ids
    ids.reverse()
    hand = Seed(seed.quiver, seed.context, {v: seed.values[v] for v in ids},
                seed.frozen)
    assert list(hand.values) == list(mutate_seed(hand, ids[0]).values) == ids
    g = explore(hand)
    assert list(g.variables.items())[:3] == \
        [(hand.values[v].canonical_serialize(), (hand.values[v], ())) for v in ids]
    with pytest.raises(TypeError):
        hand.values[ids[0]] = seed.values[ids[1]]


def test_explore_serializes_only_for_cluster_keys(monkeypatch):
    # values are interned by equality, so explore serializes only to build
    # the byte keys of the graph, each variable once, a new cluster's key
    # being its parent's with one entry swapped.  A classification is
    # renamed once to labels per transition, once to the child's labels for
    # the inverse entry that the transition fills (each of this run's does),
    # and once back to the seed's vertices per exchange_value call.  Before
    # values were interned this run made 67,679 serializations (about 34 per
    # node) and 3,609 renamings; before keys were built from the parent's,
    # 12,004 serializations, (nodes - 1)(n + 1) + 2n.  Before inverse
    # entries were classified from their transition, it made 126
    # classifications and 1,788 renamings.
    seed = initial_seed(annulus_crosscap().build_quiver(), coeff_free=True,
                        tracking="denominator")
    serialized = counting(monkeypatch, DenominatorVector, "canonical_serialize")
    renamed = counting(monkeypatch, VertexClassification, "renamed")
    exchanges = counting(monkeypatch, algebra, "exchange_value")
    classified = counting(monkeypatch, PartitionedQuiver, "classify_vertex")
    with pytest.raises(LimitExceeded) as err:
        explore(seed, max_nodes=2000)
    g = err.value.graph
    assert g.node_count() == 2000
    assert serialized[0] == g.variable_count() == 270
    assert classified[0] == 77
    assert renamed[0] == exchanges[0] + 2 * classified[0] == 1816


@pytest.mark.parametrize("tracking", ["exact", "denominator"])
def test_explore_gives_each_seed_its_own_classification_and_child(
        monkeypatch, tracking):
    # the classification and child that mutate_seed takes from its memo are
    # those of the seed's own quiver, and the value ids it keys the relation
    # by are the seed's values in the memo's table
    original_key, original = algebra._relation_key, algebra.mutate_seed
    keys, calls, current = [0], [0], []

    def checked_key(cls, ids):
        # every mutation reads its relation key, memo hits included
        keys[0] += 1
        seed, table = current[-1]
        # by type and roles: an entry derived from its inverse holds no
        # arrow ids, and its roles keep that transition's order
        named = cls.renamed(seed.order)
        fresh = seed.quiver.classify_vertex(named.t)
        assert roles(named) == roles(fresh)
        assert [table.values[i] for i in ids] == list(map(seed.value_of, seed.order))
        return original_key(cls, ids)

    def checked(seed, t, *args, **kwargs):
        calls[0] += 1
        current.append((seed, kwargs["memo"][algebra.ValueTable]))
        made = original(seed, t, *args, **kwargs)
        assert quiver_shape(made.quiver) == quiver_shape(seed.quiver.mutate(t))
        return made

    monkeypatch.setattr(algebra, "_relation_key", checked_key)
    monkeypatch.setattr(algebra, "mutate_seed", checked)
    for fixture in FIXTURES:
        explored(fixture, 500, tracking=tracking)
    assert keys[0] == calls[0] > 0


def test_degree_audit_builds_no_quiver(monkeypatch):
    g = explored("annulus-crosscap", 2000, coeff_free=True,
                 tracking="denominator")
    built = counting(monkeypatch, PartitionedQuiver, "__init__")
    assert g.degree_audit() == []
    assert built[0] == 0


def test_mutate_seed_with_given_classification():
    seed = initial_seed(mobius_fan(3).build_quiver())
    for t in seed.quiver.mutable_ids():
        given = mutate_seed(seed, t, seed.quiver.classify_vertex(t))
        made = mutate_seed(seed, t)
        assert given.quiver.to_json() == made.quiver.to_json()
        assert given.values == made.values


def test_mutate_seed_refuses_a_classification_with_a_memo():
    # a memo'd step classifies by label, so a given classification, here
    # one of another vertex, would go unread
    seed = initial_seed(mobius_fan(3).build_quiver())
    t, u = seed.quiver.mutable_ids()[:2]
    with pytest.raises(TypeError, match="cls or memo"):
        mutate_seed(seed, t, seed.quiver.classify_vertex(u), memo={})



def test_plain_step_builds_only_the_child(monkeypatch):
    # a seed in its shape's own vertex order holds the quiver that the step
    # classifies and mutates, so the step copies nothing
    built = counting(monkeypatch, PartitionedQuiver, "__init__")
    for fixture in FIXTURES:
        seed = initial_seed(named_fixture(fixture).build_quiver())
        for t in seed.values:
            built[0] = 0
            mutate_seed(seed, t)
            assert built[0] == 1, (fixture, t)


def test_mutate_seed_memo_serves_a_relabelled_copy(monkeypatch):
    seed = initial_seed(annulus_crosscap().build_quiver())
    ids = seed.quiver.mutable_ids()
    copy = relabelled(seed, dict(zip(ids, reversed(ids))))
    classifications = counting(monkeypatch, PartitionedQuiver, "classify_vertex")
    memo = {}
    children = [(s, t, mutate_seed(s, t, memo=memo))
                for s in (seed, copy) for t in ids]
    # the copy has the seed's shape key, so its calls hit the seed's row
    assert classifications[0] == len(ids)
    for s, t, child in children:
        plain = mutate_seed(s, t)
        assert plain.quiver.to_json() == s.quiver.mutate(t).to_json()
        assert quiver_shape(child.quiver) == quiver_shape(plain.quiver)
        assert child.values == plain.values


def test_mutate_seed_memo_shares_a_v3_relation_with_i_and_k_swapped(monkeypatch):
    # E = (x_i + x_k)^2 + x_i x_j^2 x_k is symmetric in i and k, so a copy of
    # the quiver with the path through t reversed, classified with i and k
    # swapped, must hit the memo entry of the original's relation
    q = annulus_crosscap().build_quiver()
    t = next(v for v in q.mutable_ids() if q.classify_vertex(v).type == "V3")
    cls = q.classify_vertex(t)
    copies = (reversed_copy(q, random.Random(s)) for s in range(20))
    copy = next(c for c in copies if (c.classify_vertex(t).i, c.classify_vertex(t).k)
                == (cls.k, cls.i))
    seed = initial_seed(q)
    twin = Seed(copy, seed.context, dict(seed.values), seed.frozen)
    assert twin.shape.key != seed.shape.key   # a row of its own, classified anew
    exchanges = counting(monkeypatch, algebra, "exchange_value")
    memo = {}
    children = [mutate_seed(s, t, memo=memo) for s in (seed, twin)]
    assert exchanges[0] == 1
    assert children[0].values[t] == children[1].values[t] == mutate_seed(seed, t).values[t]


@pytest.mark.parametrize("memo", [None, {}], ids=["plain", "memo"])
def test_mutate_seed_errors_name_the_seeds_vertex(memo):
    seed = initial_seed(annulus_crosscap().build_quiver())
    f1, f2 = seed.quiver.frozen_ids()
    # the frozen vertices swapped: the same shape key, another vertex order
    copy = relabelled(seed, {**{v: v for v in seed.values}, f1: f2, f2: f1})
    assert copy.shape.key == seed.shape.key and copy.order != seed.order
    mutate_seed(seed, seed.quiver.mutable_ids()[0], memo=memo)
    with pytest.raises(KeyError):
        mutate_seed(copy, 999, memo=memo)
    with pytest.raises(Unclassifiable, match=f"^vertex {f1} is frozen$"):
        mutate_seed(copy, f1, memo=memo)


def test_depth_limit():
    seed = initial_seed(mobius_fan(3).build_quiver(), coeff_free=True)
    with pytest.raises(LimitExceeded) as err:
        explore(seed, max_depth=1)
    assert err.value.graph.node_count() == 4  # root plus its three neighbours


def test_tracking_modes_agree_on_finite_types():
    for fixture in (mobius_fan(2), mobius_fan(3), polygon_fan(6)):
        q = fixture.build_quiver()
        ge = explore(initial_seed(q, coeff_free=True))
        gd = explore(initial_seed(q, coeff_free=True, tracking="denominator"))
        assert ge.node_count() == gd.node_count()
        assert ge.edge_count() == gd.edge_count()
        assert ge.variable_count() == gd.variable_count()


def test_tracking_modes_agree_on_infinite_type_fragment():
    from quasicluster.laurent import denominator_vector
    q = annulus_crosscap().build_quiver()
    got = {}
    for mode in ("exact", "denominator"):
        with pytest.raises(LimitExceeded) as err:
            explore(initial_seed(q, coeff_free=True, tracking=mode), max_depth=3)
        got[mode] = err.value.graph
    ge, gd = got["exact"], got["denominator"]
    assert ge.node_count() == gd.node_count()
    assert ge.variable_count() == gd.variable_count()
    exact_dvecs = sorted(denominator_vector(lf).canonical_serialize()
                         for lf, _ in ge.variables.values())
    assert exact_dvecs == sorted(gd.variables)


@pytest.mark.parametrize("depth, clusters", [(6, 464), (7, 770)])
def test_tracking_modes_agree_at_depth(depth, clusters):
    # deeper fragments than depth 3, each exact cluster mapping onto a
    # denominator cluster by its denominator vectors
    from quasicluster.laurent import denominator_vector
    q = annulus_crosscap().build_quiver()
    got = {}
    for mode in ("exact", "denominator"):
        with pytest.raises(LimitExceeded) as err:
            explore(initial_seed(q, coeff_free=True, tracking=mode), max_depth=depth)
        got[mode] = err.value.graph
    ge, gd = got["exact"], got["denominator"]
    assert ge.node_count() == clusters
    images = {tuple(sorted(denominator_vector(ge.nodes[k].values[v])
                           .canonical_serialize() for v in ge.nodes[k].values))
              for k in ge.nodes}
    assert images == set(gd.nodes)
    assert ge.edge_count() == gd.edge_count()


@pytest.mark.parametrize("fixture, coeff_free", [
    ("mobius:2", True), ("mobius:3", True), ("mobius:4", True),
    ("mobius:5", True), ("polygon:6", True), ("mobius:3", False)])
def test_closed_exchange_graph_is_a_pseudomanifold(fixture, coeff_free):
    # two clusters that share all but one variable are the two ends of one
    # exchange, and each cluster has n of them: an oracle on the recorded
    # edges that does not call mutate_seed
    g = explore(initial_seed(named_fixture(fixture).build_quiver(),
                             coeff_free=coeff_free))
    n = len(g.nodes[g.root].values)
    faces = {}
    for k in g.nodes:
        for i in range(n):
            faces.setdefault(k[:i] + k[i + 1:], []).append(k)
    edges = {frozenset((k, ck)) for k, nbrs in g.adjacency.items()
             for ck in nbrs.values()}
    assert all(len(ks) <= 2 for ks in faces.values())
    pairs = [frozenset(ks) for ks in faces.values() if len(ks) == 2]
    assert all(pair in edges for pair in pairs)
    assert len(pairs) == g.edge_count()
    assert 2 * g.edge_count() == g.node_count() * n


def test_dot_dashes_incomplete_nodes():
    seed = initial_seed(annulus_crosscap().build_quiver(), coeff_free=True,
                        tracking="denominator")
    with pytest.raises(LimitExceeded) as err:
        explore(seed, max_nodes=200)
    g = err.value.graph
    assert 0 < len(g.complete) < g.node_count()
    assert g.to_dot().count("[style=dashed]") == g.node_count() - len(g.complete)
    closed = explore(initial_seed(mobius_fan(2).build_quiver(), coeff_free=True))
    assert "dashed" not in closed.to_dot()


def test_m5_exhaustive_count():
    g = explore(initial_seed(mobius_fan(5).build_quiver(), coeff_free=True))
    assert g.variable_count() == mobius_variable_count(5) == 36
    assert g.degree_audit() == [] and g.connectivity_audit()


@pytest.mark.parametrize("m, variables, clusters", [(6, 52, 1276), (7, 71, 5020)])
def test_m6_m7_exhaustive_counts(m, variables, clusters):
    g = explore(initial_seed(mobius_fan(m).build_quiver(), coeff_free=True))
    assert g.variable_count() == mobius_variable_count(m) == variables
    assert g.node_count() == clusters
    assert g.degree_audit() == [] and g.connectivity_audit()


def test_evaluation_consistency_of_relations():
    rng = random.Random(97)
    for fixture in (mobius_fan(3), annulus_crosscap()):
        seed = initial_seed(fixture.build_quiver())
        point = [Fraction(rng.randrange(1, 9)) for _ in range(seed.context.nvars)]
        for _ in range(12):
            t = rng.choice(seed.quiver.mutable_ids())
            cls = seed.quiver.classify_vertex(t)
            e = exchange_value(seed, cls)
            after = mutate_seed(seed, t)
            lhs = seed.values[t].evaluate(point) * after.values[t].evaluate(point)
            assert lhs == e.evaluate(point)
            seed = after


def test_laurent_violation_aborts_loudly():
    # a corrupted assignment breaks the Laurent phenomenon; the mutation must
    # raise instead of returning a non-Laurent value
    q = mobius_fan(2).build_quiver()
    seed = initial_seed(q, coeff_free=True)
    n = seed.context.nvars
    seed = Seed(q, seed.context,
                {**seed.values, 2: LaurentForm.variable(0, n) + LaurentForm.constant(7, n)},
                seed.frozen)
    with pytest.raises(LaurentViolation):
        mutate_seed(seed, 2)


def test_scan_boundary_coincidence_and_spot_checks():
    rep = unistructurality_scan(100)
    boundary = [e for e in rep.collisions if e.m == 1]
    assert len(boundary) == 1
    e = boundary[0]
    assert (e.family, e.n) == ("A", 1)
    assert e.family_count == e.mobius_count == 2
    # the stated spot checks: 57 is not a square; m=2 type D root n=1 is no
    # collision because the counts 1 and 6 differ
    assert not any(x.m == 2 and x.family == "A" for x in rep.entries)
    d_two = [x for x in rep.entries if x.m == 2 and x.family == "D"]
    assert len(d_two) == 1 and d_two[0].n == 1 and not d_two[0].collision


def test_scan_finds_pell_collisions():
    # the count equation (3m^2-m+2)/2 = n(n+3)/2 has a Pell family of
    # solutions; the first beyond m=1 is m=16, n=26 (both counts 377)
    rep = unistructurality_scan(300)
    cols = {(e.family, e.m, e.n) for e in rep.collisions}
    assert ("A", 16, 26) in cols
    assert ("A", 221, 381) in cols
    assert ("D", 5, 6) in cols
    assert mobius_variable_count(16) == polygon_variable_count(26) == 377
    assert mobius_variable_count(5) == 36 == 6 * 6


def test_graph_exports():
    g = explore(initial_seed(mobius_fan(2).build_quiver(), coeff_free=True))
    data = g.to_json()
    assert len(data["nodes"]) == 6 and len(data["edges"]) == 6
    assert data["closed"] is True
    assert len(data["variables"]) == 6
    dot = g.to_dot()
    assert dot.count("--") == 6
