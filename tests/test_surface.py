import itertools
import json
import random
from collections import Counter

import pytest

import surface_reference as reference
from quasicluster import surface
from quasicluster.cli import main
from quasicluster.cover import lift
from quasicluster.pquiver import Arrow, PartitionedQuiver, Vertex
from quasicluster.surface import (FlipError, InvalidTriangulation,
                                  NonTriangulable, NotFlippable,
                                  QuasiTriangulation, SurfaceSignature,
                                  Triangle, annulus_crosscap, arc_count,
                                  euler_characteristic_nonorientable,
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


@pytest.mark.parametrize("name", ["mobius:3", "polygon:5"])
def test_from_json_names_an_unknown_arc_kind(name):
    # each arc in turn, boundary, regular and quasi alike: validate() would
    # report a side-slot count or a walk end, not the kind
    data = named_fixture(name).to_json()
    assert {a["kind"] for a in data["arcs"]} >= {"boundary", "regular"}
    for arc in data["arcs"]:
        kind, arc["kind"] = arc["kind"], "banana"
        with pytest.raises(ValueError, match="^arc kind must be .*, not 'banana'$"):
            QuasiTriangulation.from_json(data)
        arc["kind"] = kind
    assert QuasiTriangulation.from_json(data).validate() == []


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


def flip_twice(first, second):
    """Flip ``first`` outside the count, then ``second`` inside it."""
    return (lambda t: t.flip(first)), (lambda t: t.flip(second))


INDEX_BUILDS = {
    "validate": (None, QuasiTriangulation.validate, {}),
    "to_json": (None, QuasiTriangulation.to_json,
                {"corner_slots": 1, "token_positions": 1}),
    "lift": (None, lift, {"corner_slots": 1, "token_positions": 1}),
    "lift-is_connected": (None, lambda t: lift(t).is_connected(),
                          {"corner_slots": 1, "token_positions": 2}),
    "build_quiver": (None, QuasiTriangulation.build_quiver, {}),
    # arc 3 is the first fan arc, 2 the doubled arc, 1 the loop around it
    "flip-quadrilateral": (None, lambda t: t.flip(3), {"token_positions": 1}),
    "flip-doubled-to-quasi": (None, lambda t: t.flip(2), {"token_positions": 1}),
    "flip-quasi-to-doubled": (*flip_twice(2, 2), {}),
    "flip-enclosing-loop": (*flip_twice(2, 1), {"token_positions": 1}),
}


@pytest.mark.parametrize("name", INDEX_BUILDS)
def test_index_builds_do_not_grow_with_size(monkeypatch, name):
    """Corner and arc-end positions are indexed a fixed number of times per
    call, however many triangles and arc ends there are: validation and
    quiver construction never, a flip at most once."""
    prepare, call, expected = INDEX_BUILDS[name]
    builds = Counter()
    for attr in ("corner_slots", "token_positions"):
        def counted(self, original=getattr(QuasiTriangulation, attr), attr=attr):
            builds[attr] += 1
            return original(self)
        monkeypatch.setattr(QuasiTriangulation, attr, counted)
    counts = []
    for n in (10, 1000):
        t = mobius_fan(n) if prepare is None else prepare(mobius_fan(n))
        builds.clear()
        call(t)
        counts.append(dict(builds))
    assert counts[0] == counts[1] == expected


NINE = ["mobius:1", "mobius:2", "mobius:3", "mobius:4", "polygon:5",
        "polygon:6", "annulus-crosscap", "mobius-three-arc", "three-boundary"]


def test_triangle_matchings_match_the_reference_on_flip_walks(monkeypatch):
    """Every corner triple that validation, quiver construction and flips
    try along 40-step flip walks from the nine fixtures (in every corner
    order) gets the 8-way reference's matchings, in the same order."""
    seen = set()

    def recording(corners, original=surface._triangle_matchings):
        seen.add(tuple(corners))
        return original(corners)
    monkeypatch.setattr(surface, "_triangle_matchings", recording)
    for name in NINE:
        rng = random.Random(name)
        tri = named_fixture(name)
        for _ in range(40):
            tri.build_quiver()
            tri = tri.flip(rng.choice(tri.internal_arcs()))
    monkeypatch.undo()
    assert len(seen) > 1000
    assert any(not reference._triangle_matchings(list(c)) for c in seen)
    for triple in seen:
        for corners in itertools.permutations(triple):
            assert surface._triangle_matchings(list(corners)) == \
                reference._triangle_matchings(list(corners))


@pytest.mark.parametrize("corners, count", [
    # arc 1 doubled: two ways to glue its ends
    ([((1, 0), (1, 0)), ((1, 1), (2, 0)), ((1, 1), (2, 1))], 2),
    ([((1, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (1, 1))], 4),
    # the anti-self-folded triangle of mobius:1
    ([((2, 1), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (2, 0))], 1),
    # no two corners share an arc
    ([((1, 0), (2, 0)), ((3, 0), (4, 0)), ((5, 0), (6, 0))], 0),
    # ends other than 0 and 1: any two different labels glue
    ([((1, 5), (2, 7)), ((2, 8), (3, 2)), ((3, 9), (1, 4))], 1),
    ([((1, 5), (2, 7)), ((2, 7), (3, 2)), ((3, 9), (1, 4))], 0),
    ([((1, -1), (1, 2)), ((1, 3), (1, 4)), ((1, 5), (1, 6))], 8),
], ids=["doubled-two", "doubled-four", "anti-self-folded", "none",
        "odd-ends", "odd-ends-equal", "all-one-arc"])
def test_triangle_matchings_match_the_reference_on_hand_built_triples(corners, count):
    want = reference._triangle_matchings(corners)
    assert len(want) == count
    assert surface._triangle_matchings(corners) == want


def swap(seq, i, j):
    seq[i], seq[j] = seq[j], seq[i]


# one edit each, with a diagnostic it must draw
CORRUPTIONS = {
    "dropped-corner": ("mobius:3", lambda t: t.corner_tri[1].pop(),
                       "corner/walk length mismatch at point 1"),
    "unknown-triangle": ("polygon:5", lambda t: t.corner_tri[2].__setitem__(0, 99),
                         "corner (2,0) assigned to unknown triangle 99"),
    "two-corners": ("polygon:6", lambda t: t.corner_tri[3].__setitem__(0, 2),
                    "triangle 1 has 2 corners"),
    "corners-do-not-realize": ("three-boundary", lambda t: swap(t.corner_tri[1], 1, 2),
                               "triangle 2: corners do not realize sides"),
    "kind-vs-doubled-side": (
        "mobius:2", lambda t: t.triangles.__setitem__(
            1, Triangle(1, "regular", t.triangles[1].sides)),
        "triangle 1: kind regular vs sides (1, 2, 2)"),
    "quasi-corner-off-loop": ("annulus-crosscap", lambda t: swap(t.corner_tri[2], 2, 3),
                              "quasi-triangle 4: corner is not the loop's ends"),
    "boundary-end-inside-walk": ("annulus-crosscap", lambda t: swap(t.walks[1], 0, 1),
                                 "boundary end (6, 0) in walk interior at 1"),
    "end-label-not-0-or-1": ("mobius:3", lambda t: t.walks[1].__setitem__(1, (3, 2)),
                             "end (3,0) appears 0 times, expected 1"),
    "arc-count-off-signature": (
        "mobius:4", lambda t: setattr(t, "signature", SurfaceSignature(1, 1, 0, 5)),
        "internal arc count 4 != 5 from signature"),
    "unknown-boundary-component": ("mobius:3", lambda t: t.points.__setitem__(2, 5),
                                   "point 2 on unknown boundary component 5"),
}


def raw_json(t) -> dict:
    """The fields of ``t`` as triangulation JSON, without the transport
    twists that ``to_json`` derives (and cannot derive for a broken one)."""
    return {
        "signature": t.signature.as_json(),
        "arcs": [{"id": a, "kind": k} for a, k in t.arcs.items()],
        "triangles": [{"id": tri.id, "kind": tri.kind,
                       "sides": [{"arc": a, "twist": 0} for a in tri.sides]}
                      for tri in t.triangles.values()],
        "corners": {str(p): [{"arc": a, "end": e} for a, e in w]
                    for p, w in t.walks.items()},
        "corner_triangles": {str(p): v for p, v in t.corner_tri.items()},
        "points": {str(p): c for p, c in t.points.items()},
        "boundary_orientations": [t.boundary_orientation[c]
                                  for c in sorted(t.boundary_orientation)],
    }


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_validate_diagnostics_match_the_reference(case, tmp_path, capsys):
    """Each one-edit corruption draws exactly the reference's diagnostics,
    in its order, and ``quiver build --in`` refuses it with exit code 2."""
    name, edit, wanted = CORRUPTIONS[case]
    t = named_fixture(name)
    edit(t)
    diags = t.validate()
    assert diags == reference.validate(t)
    assert any(wanted in d for d in diags)
    with pytest.raises(InvalidTriangulation):
        t.build_quiver()
    path = tmp_path / "t.json"
    path.write_text(json.dumps(raw_json(t)))
    code = main(["quiver", "build", "--in", str(path), "--out", str(tmp_path / "q.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.startswith("error: ")


def flanks(t, arc):
    """The triangles of the corners on either side of both ends of ``arc``."""
    out = []
    for e in (0, 1):
        pt, i = t.token_positions()[(arc, e)]
        out += [t.corner_tri[pt][i - 1], t.corner_tri[pt][i]]
    return out


def test_flip_refuses_flanking_corners_of_three_triangles():
    t = polygon_fan(6)
    pt, i = t.token_positions()[(2, 0)]
    t.corner_tri[pt][i] = next(x for x in t.triangles if x not in flanks(t, 2))
    with pytest.raises(InvalidTriangulation, match="flanking corners belong to"):
        t.flip(2)


def give_extra_corner(t, arc, owner):
    """Assign one corner away from ``arc``'s flanks to ``owner(t, t1)``,
    where t1 is the first of the two flanking triangles."""
    t1, t2 = sorted(set(flanks(t, arc)))
    pt, i = next((p, i) for p, tris in t.corner_tri.items()
                 for i, x in enumerate(tris) if x not in (t1, t2))
    t.corner_tri[pt][i] = owner(t, t1)


@pytest.mark.parametrize("owner, message", [
    (lambda t, t1: t1, "third corner not unique"),
    (lambda t, t1: t.fresh_triangle_id(), "are not in pairs"),
], ids=["third-corner", "marked-corners"])
def test_flip_error_on_corners_that_do_not_close(owner, message):
    """An extra corner of a flanking triangle, or of the id the rewrite
    marks its corners with, stops the flip with a FlipError (not an
    assertion, so also under ``python -O``)."""
    t = polygon_fan(6)
    give_extra_corner(t, 2, owner)
    assert t.validate()
    with pytest.raises(FlipError, match=message):
        t.flip(2)


def test_flip_with_negative_triangle_ids():
    """Triangle ids may be any integers; the corners a flip rewrites are
    marked by ids above every triangle's, so none is mistaken for them."""
    t = polygon_fan(6)
    ren = {x: -x for x in t.triangles}
    neg = QuasiTriangulation(
        t.signature, t.arcs, t.points, t.walks,
        {p: [ren[x] for x in v] for p, v in t.corner_tri.items()},
        [Triangle(ren[x.id], x.kind, x.sides) for x in t.triangles.values()])
    assert neg.validate() == []
    for arc in neg.internal_arcs():
        flipped = neg.flip(arc)
        assert flipped.validate() == []
        assert flipped.build_quiver().dumps() == t.flip(arc).build_quiver().dumps()
