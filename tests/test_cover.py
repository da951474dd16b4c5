import random
from collections import Counter

import pytest

from quasicluster.cover import DoubleCover, QuasiArcPresent, lift
from quasicluster.pquiver import V1
from quasicluster.surface import (annulus_crosscap, mobius_fan,
                                  mobius_three_arc, named_fixture, polygon_fan)
from quasicluster.verify import figure_double_quiver, undirected_form


def test_lift_mobius_three_arc():
    dc = lift(mobius_three_arc())
    assert dc.lifted.validate() == []
    internal = dc.lifted.internal_arcs()
    assert len(internal) == 6
    assert dc.is_connected()
    # orientable: every gluing transports orientation trivially
    assert all(v == 0 for v in dc.lifted.arc_transport().values())


def test_double_quiver_matches_figure():
    dc = lift(mobius_three_arc())
    dq = dc.lifted.build_quiver()
    assert dq.validate() == []
    got = dq.restrict_to_mutable().canonical_form()
    assert got == figure_double_quiver().canonical_form()


def test_sigma_properties():
    dc = lift(mobius_three_arc())
    assert dc.sigma_is_involution()
    assert dc.sigma_fixed_points() == []
    dq = dc.lifted.build_quiver()
    relabeled = dq.renamed(dc.sigma_arc)
    assert relabeled.canonical_form() == dq.canonical_form()
    # the labelled check: sigma reverses paths, so directions are ignored
    assert undirected_form(relabeled) == undirected_form(dq)
    # canonical_form ignores names, so it also passes swapping two lifts on
    # one sheet; the labelled check must not
    a, b = dc.arc_lift[(1, 0)], dc.arc_lift[(2, 0)]
    swapped = dq.renamed({a: b, b: a})
    assert swapped.canonical_form() == dq.canonical_form()
    assert undirected_form(swapped) != undirected_form(dq)
    # sigma swaps the two lifts of every base arc
    for (arc, sheet), lifted in dc.arc_lift.items():
        assert dc.sigma_arc[lifted] == dc.arc_lift[(arc, 1 - sheet)]


def test_quasi_arc_refused():
    with pytest.raises(QuasiArcPresent):
        lift(annulus_crosscap())
    with pytest.raises(QuasiArcPresent):
        lift(mobius_fan(2).flip(2))   # flipping the doubled arc makes a quasi-arc


def test_orientable_base_lifts_to_two_copies():
    base = polygon_fan(6)
    dc = lift(base)
    assert dc.lifted.validate() == []
    assert not dc.is_connected()
    half = dc.lifted.build_quiver().restrict_to_mutable()
    assert len(half.mutable_ids()) == 2 * len(base.internal_arcs())


def test_lift_after_flip():
    # quasi-arc-free flips of the three-arc fixture still lift cleanly
    base = mobius_three_arc()
    for arc in base.internal_arcs():
        t2 = base.flip(arc)
        if t2.quasi_arcs():
            continue
        dc = lift(t2)
        assert dc.lifted.validate() == []
        assert dc.is_connected()
        assert all(v == 0 for v in dc.lifted.arc_transport().values())


def test_sheet_parity():
    # a gluing crosses sheets exactly when its transport bit is reversing
    base = mobius_three_arc()
    rho = base.arc_transport()
    dc = lift(base)
    for arc in base.internal_arcs():
        for sheet in (0, 1):
            lifted = dc.arc_lift[(arc, sheet)]
            p0, _ = dc.lifted.end_position((lifted, 0))
            p1, _ = dc.lifted.end_position((lifted, 1))
            s0 = p0 in {dc.point_lift[(p, 0)] for p in base.points}
            s1 = p1 in {dc.point_lift[(p, 0)] for p in base.points}
            assert (s0 != s1) == bool(rho[arc])


def cover_exchange(dc, dq, t):
    """The classical exchange at t's sheet-0 lift in the double quiver dq:
    the in-neighbour and the out-neighbour product after 2-cycles at the
    lift cancel, each as a sorted tuple of base arcs."""
    u = dc.arc_lift[(t, 0)]
    base = {lifted: arc for (arc, _), lifted in dc.arc_lift.items()}
    net = Counter()
    for a in dq.arrows.values():
        if a.tgt == u != a.src:
            net[a.src] += 1
        elif a.src == u != a.tgt:
            net[a.tgt] -= 1
    ins = sorted(base[v] for v, n in net.items() for _ in range(n))
    outs = sorted(base[v] for v, n in net.items() for _ in range(-n))
    return Counter([tuple(ins), tuple(outs)])


@pytest.mark.parametrize("name", ["mobius-three-arc", "mobius:3", "mobius:4",
                                  "mobius:5", "polygon:5", "polygon:6",
                                  "polygon:8"])
def test_v1_products_match_the_cover_exchange(name):
    """Every V1 exchange of a quasi-arc-free triangulation is the classical
    exchange at either lift in the orientable double cover, read back on the
    base arcs (Fomin, Shapiro & Thurston 2008), frozen arcs included."""
    rng = random.Random(name)
    tri = named_fixture(name)
    checked = 0
    for _ in range(60):
        tri = tri.flip(rng.choice(tri.internal_arcs()))
        if tri.quasi_arcs():
            continue
        q = tri.build_quiver()
        dc = lift(tri)
        dq = dc.lifted.build_quiver()
        for t in q.mutable_ids():
            cls = q.classify_vertex(t)
            if cls.type == V1:
                products = Counter(tuple(sorted(p)) for p in cls.product_pairs)
                assert products == cover_exchange(dc, dq, t), (t, cls)
                checked += 1
    assert checked
