import json
import random
from collections import Counter

import pytest

from quasicluster.cli import main
from quasicluster.cover import lift
from quasicluster.pquiver import Arrow, PartitionedQuiver, Vertex
from quasicluster.surface import (InvalidTriangulation, NonTriangulable,
                                  NotFlippable, QuasiTriangulation,
                                  SurfaceSignature, annulus_crosscap,
                                  arc_count, euler_characteristic_nonorientable,
                                  mobius_fan, mobius_three_arc, named_fixture,
                                  polygon_fan, three_boundary)


def test_arc_count_values():
    assert arc_count(SurfaceSignature(1, 1, 0, 5)) == 5
    assert arc_count(SurfaceSignature(1, 2, 0, 2)) == 5
    assert arc_count(SurfaceSignature(0, 1, 0, 6)) == 3
    for m in range(1, 8):
        assert arc_count(SurfaceSignature(1, 1, 0, m)) == m
    # the formula includes punctures even though the engine rejects them
    assert arc_count(SurfaceSignature(0, 1, 1, 1)) == 1


def test_arc_count_degenerate():
    for c in (1, 2, 3):
        with pytest.raises(NonTriangulable):
            arc_count(SurfaceSignature(0, 1, 0, c))
    with pytest.raises(NonTriangulable):
        arc_count(SurfaceSignature(1, 0, 0, 0))
    with pytest.raises(NonTriangulable):
        arc_count(SurfaceSignature(0, 2, 0, 1))


def test_euler_characteristic():
    assert euler_characteristic_nonorientable(1) == 1
    assert euler_characteristic_nonorientable(2) == 0
    assert euler_characteristic_nonorientable(2, boundaries=1) == -1
    with pytest.raises(ValueError):
        euler_characteristic_nonorientable(0)


def itineraries(q):
    out = []
    for p in q.partition:
        out.append([q.arrows[p[0]].src] + [q.arrows[a].tgt for a in p])
    return sorted(out)


def test_fixtures_validate():
    for tri in (mobius_fan(1), mobius_fan(2), mobius_fan(3), mobius_fan(6),
                polygon_fan(4), polygon_fan(5), polygon_fan(8),
                annulus_crosscap(), mobius_three_arc(), three_boundary()):
        assert tri.validate() == []
        assert len(tri.internal_arcs()) == arc_count(tri.signature)
        q = tri.build_quiver()
        assert q.validate() == []
        # one partition path per marked point
        assert len(q.partition) == tri.signature.c


def test_build_quiver_annulus_matches_reference():
    q = annulus_crosscap().build_quiver()
    assert itineraries(q) == [[6, 3, 2, 1, 6], [7, 1, 3, 4, 5, 4, 2, 7]]


def test_build_quiver_mobius_three_arc_matches_figure():
    q = mobius_three_arc().build_quiver().restrict_to_mutable()
    vertices = [Vertex(i) for i in (1, 2, 3)]
    arrows = [Arrow(1, 1, 3), Arrow(2, 3, 2), Arrow(3, 2, 1)]
    figure = PartitionedQuiver(vertices, arrows, [[1, 2, 3]])
    assert q.canonical_form() == figure.canonical_form()


def test_build_quiver_three_boundary_matches_figure():
    q = three_boundary().build_quiver()
    vs = [Vertex(i) for i in range(1, 7)]
    vs += [Vertex(i, frozen=True) for i in (7, 8, 9)]
    arrows, paths, aid = [], [], 1
    for seq in ([7, 1, 6, 4, 3, 2, 7], [9, 1, 2, 5, 6, 9], [8, 4, 5, 3, 8]):
        p = []
        for a, b in zip(seq, seq[1:]):
            arrows.append(Arrow(aid, a, b))
            p.append(aid)
            aid += 1
        paths.append(p)
    figure = PartitionedQuiver(vs, arrows, paths)
    assert q.canonical_form() == figure.canonical_form()


def test_orientation_bit_reverses_path_only():
    tri = annulus_crosscap()
    flipped = tri.copy()
    flipped.boundary_orientation[0] = 1
    q0, q1 = tri.build_quiver(), flipped.build_quiver()
    assert itineraries(q0) != itineraries(q1)
    assert q0.canonical_form() == q1.canonical_form()


def test_flip_involution_randomized():
    rng = random.Random(23)
    for tri in (mobius_fan(2), mobius_fan(3), mobius_fan(4),
                polygon_fan(6), annulus_crosscap()):
        for _ in range(6):
            tri = tri.flip(rng.choice(tri.internal_arcs()))
            assert tri.validate() == []
        for arc in tri.internal_arcs():
            twice = tri.flip(arc).flip(arc)
            assert twice.validate() == []
            a = twice.build_quiver().canonical_form()
            assert a == tri.build_quiver().canonical_form()


def test_flip_preserves_arc_count():
    tri = mobius_fan(3)
    rng = random.Random(31)
    for _ in range(12):
        tri = tri.flip(rng.choice(tri.internal_arcs()))
        assert len(tri.internal_arcs()) == arc_count(tri.signature)


def test_flip_boundary_refused():
    tri = mobius_fan(2)
    with pytest.raises(NotFlippable):
        tri.flip(tri.boundary_arcs()[0])


def test_flip_quasi_pairing():
    tri = mobius_fan(2)
    # arc 2 is the doubled arc; flipping it produces the quasi-arc and back
    t2 = tri.flip(2)
    assert t2.arcs[2] == "quasi"
    t3 = t2.flip(2)
    assert t3.arcs[2] == "regular"
    assert t3.build_quiver().canonical_form() == tri.build_quiver().canonical_form()


def test_square_flip_swaps_triangulations():
    # the two triangulations of the square differ as labelled complexes but
    # are related by a symmetry of the square, so the quivers are isomorphic
    sq = polygon_fan(4)
    arc = sq.internal_arcs()[0]
    other = sq.flip(arc)
    assert other.validate() == []
    assert itineraries(other.build_quiver()) != itineraries(sq.build_quiver())
    assert other.build_quiver().canonical_form() == sq.build_quiver().canonical_form()
    assert itineraries(other.flip(arc).build_quiver()) == \
        itineraries(sq.build_quiver())


def test_compatibility_on_fixture_sample():
    rng = random.Random(41)
    for tri in (mobius_fan(2), mobius_fan(3), annulus_crosscap(), polygon_fan(5)):
        q = tri.build_quiver()
        for _ in range(8):
            arc = rng.choice(tri.internal_arcs())
            tri, q = tri.flip(arc), q.mutate(arc)
            assert tri.build_quiver().canonical_form() == q.canonical_form()


def test_json_roundtrip():
    for tri in (mobius_fan(3), annulus_crosscap()):
        data = tri.to_json()
        back = QuasiTriangulation.from_json(data)
        assert back.validate() == []
        assert back.build_quiver().canonical_form() == \
            tri.build_quiver().canonical_form()


def test_json_roundtrip_without_corner_field():
    tri = mobius_fan(2)
    data = tri.to_json()
    del data["corner_triangles"]
    back = QuasiTriangulation.from_json(data)
    assert back.validate() == []
    assert back.build_quiver().canonical_form() == tri.build_quiver().canonical_form()


@pytest.mark.parametrize("make, n", [(mobius_fan, 400), (polygon_fan, 400),
                                     (mobius_fan, 1000)])
def test_corner_field_is_rebuilt_for_large_fans(make, n):
    """The corner search keeps its own stack, so its depth is not bounded
    by the interpreter's recursion limit."""
    tri = make(n)
    data = tri.to_json()
    del data["corner_triangles"]
    assert QuasiTriangulation.from_json(data).corner_tri == tri.corner_tri


def flip_walk(name, steps=30, seed=1):
    """The triangulations along a random flip walk from a named fixture."""
    rng = random.Random(seed)
    tri = named_fixture(name)
    walk = []
    for _ in range(steps):
        tri = tri.flip(rng.choice(tri.internal_arcs()))
        walk.append(tri)
    return walk


@pytest.mark.parametrize("name", ["mobius:3", "polygon:7", "annulus-crosscap",
                                  "mobius-three-arc"])
def test_corner_search_finds_corners_that_realize_triangles(name, tmp_path,
                                                            capsys):
    """Without corner_triangles, every triangulation along a flip walk reads
    back valid, with the original's quiver, and builds from the CLI.
    Matching corner counts alone took corners that do not realize their
    triangle for 32 of these 120."""
    for n, tri in enumerate(flip_walk(name)):
        data = tri.to_json()
        del data["corner_triangles"]
        back = QuasiTriangulation.from_json(data)
        assert back.validate() == []
        assert back.build_quiver().dumps() == tri.build_quiver().dumps()
        path = tmp_path / f"t{n}.json"
        path.write_text(json.dumps(data))
        assert main(["quiver", "build", "--in", str(path),
                     "--out", str(tmp_path / "q.json")]) == 0
    capsys.readouterr()


def test_named_fixture_lookup():
    assert named_fixture("mobius:3").signature.c == 3
    assert named_fixture("annulus-crosscap").signature.b == 2
    with pytest.raises(KeyError):
        named_fixture("nonsense")


def test_transport_bits():
    tri = mobius_three_arc()
    rho = tri.arc_transport()
    # all three internal arcs pass through the crosscap
    assert [rho[a] for a in (1, 2, 3)] == [1, 1, 1]
    assert all(rho[b] == 0 for b in tri.boundary_arcs())
    assert all(v == 0 for v in polygon_fan(5).arc_transport().values())


@pytest.mark.parametrize("name", ["mobius:12", "polygon:11"])
def test_flip_ignores_point_order(name):
    """A triangulation read back from its JSON text stores its points in
    string order (10 before 2); flipping it gives the same bytes as flipping
    the original."""
    rng = random.Random(name)
    t = named_fixture(name)
    for _ in range(100):
        a = rng.choice(t.internal_arcs())
        flipped = t.flip(a)
        back = QuasiTriangulation.from_json(json.loads(t.dumps()))
        assert back.flip(a).dumps() == flipped.dumps()
        t = flipped


@pytest.mark.parametrize("call", [
    QuasiTriangulation.validate, QuasiTriangulation.to_json, lift,
    lambda t: lift(t).is_connected()],
    ids=["validate", "to_json", "lift", "lift-is_connected"])
def test_index_builds_do_not_grow_with_size(monkeypatch, call):
    """Corner and arc-end positions are indexed a fixed number of times per
    call, however many triangles and arc ends there are."""
    builds = Counter()
    for name in ("corner_slots", "token_positions"):
        def counted(self, original=getattr(QuasiTriangulation, name), name=name):
            builds[name] += 1
            return original(self)
        monkeypatch.setattr(QuasiTriangulation, name, counted)
    counts = []
    for n in (10, 1000):
        builds.clear()
        call(mobius_fan(n))
        counts.append(dict(builds))
    assert counts[0] == counts[1] and counts[0]
