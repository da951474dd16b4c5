"""Combinatorial quasi-triangulations of marked surfaces.

A triangulation is stored as, per marked point, the linear order of incident
arc ends (the walk, running from one boundary-arc end to the next), together
with the assignment of a triangle to every pair of consecutive ends (a
corner).  Triangle side structure, orientation transport along arcs and hence
the orientation double cover are all derivable from this data; no separate
twist bits are stored.

Arc ends are tokens (arc id, 0|1).  Quasi-arcs are closed curves and never
appear in walks; a quasi-triangle claims the corner between the two ends of
its enclosing loop.  An anti-self-folded triangle lists its doubled arc twice
and claims the corner between that arc's own two ends (the tip) plus the two
corners against its base side.
"""
from __future__ import annotations

import json
from typing import NamedTuple
from .pquiver import (ORDINARY, QUASI, Arrow, PartitionedQuiver, Vertex,
                      _json_int, _json_unique)

BOUNDARY = "boundary"
REGULAR = "regular"
QUASIARC = "quasi"

TRI_REGULAR = "regular"
TRI_ANTI_SELF_FOLDED = "anti-self-folded"
TRI_QUASI = "quasi"

End = tuple[int, int]


class NonTriangulable(ValueError):
    pass


class InvalidTriangulation(ValueError):
    pass


class NotFlippable(ValueError):
    pass


class FlipError(RuntimeError):
    """The local rewrite could not be completed unambiguously."""


class SurfaceSignature(NamedTuple):
    """g crosscaps, b boundary components, p punctures, c boundary points."""

    g: int
    b: int
    p: int
    c: int

    def as_json(self):
        return {"g": self.g, "b": self.b, "p": self.p, "c": self.c}


def arc_count(sig: SurfaceSignature) -> int:
    """Number of internal arcs in any quasi-triangulation: 3g+3b+3p+c-6."""
    if sig.g < 0 or sig.p < 0:
        raise NonTriangulable("negative signature entries")
    if sig.b < 1:
        raise NonTriangulable("at least one boundary component is required")
    if sig.c < sig.b:
        raise NonTriangulable("every boundary component needs a marked point")
    n = 3 * sig.g + 3 * sig.b + 3 * sig.p + sig.c - 6
    if n < 1:
        raise NonTriangulable(
            f"signature {sig} admits no triangulation (monogon/bigon/triangle)")
    return n


def euler_characteristic_nonorientable(k: int, boundaries: int = 0) -> int:
    """Euler characteristic 2-k of genus-k non-orientable surfaces.

    Each boundary component removes one face, so chi drops by `boundaries`.
    """
    if k < 1:
        raise ValueError("non-orientable genus must be at least 1")
    return 2 - k - boundaries


class Triangle(NamedTuple):
    id: int
    kind: str
    sides: tuple[int, ...]  # arc ids; doubled arc listed twice; quasi: (loop, quasi)


def _triangle_matchings(corners: list[tuple[End, End]]):
    """Side matchings of three corner token-pairs.

    Each matching pairs the six token slots into three sides (same arc,
    different end labels) forming a 3-cycle over the corners; a matching is
    a tuple of three sides, each a pair of (corner index, member index)
    slots.  A member of one corner fixes the arc its neighbour corner must
    show, so only the branches that glue are followed.
    """
    out = []
    c0, c1, c2 = corners
    for s0 in (0, 1):
        u, w = c0[s0], c0[1 - s0]
        for s1 in (0, 1):
            v = c1[s1]
            if u[0] != v[0] or u[1] == v[1]:
                continue
            x = c1[1 - s1]
            for s2 in (0, 1):
                y, z = c2[s2], c2[1 - s2]
                if x[0] == y[0] and x[1] != y[1] and z[0] == w[0] and z[1] != w[1]:
                    out.append((((0, s0), (1, s1)), ((1, 1 - s1), (2, s2)),
                                ((2, 1 - s2), (0, 1 - s0))))
    return out


def _side_arcs(corners: list[tuple[End, End]]) -> list[int] | None:
    """The sorted side arcs of three corners, or None if they have no side
    matching; each side glues two of the six ends, so every other end arc."""
    if not _triangle_matchings(corners):
        return None
    (a, b), (c, d), (e, f) = corners
    return sorted([a[0], b[0], c[0], d[0], e[0], f[0]])[::2]


class QuasiTriangulation:
    def __init__(self, signature, arcs, points, walks, corner_tri, triangles,
                 boundary_orientation=None):
        self.signature: SurfaceSignature | None = signature
        self.arcs: dict[int, str] = dict(arcs)
        self.points: dict[int, int] = dict(points)
        self.walks: dict[int, list[End]] = {p: [tuple(t) for t in w]
                                            for p, w in walks.items()}
        self.corner_tri: dict[int, list[int]] = {p: list(v)
                                                 for p, v in corner_tri.items()}
        self.triangles: dict[int, Triangle] = {t.id: t for t in triangles}
        comps = sorted(set(self.points.values()))
        self.boundary_orientation: dict[int, int] = {c: 0 for c in comps}
        if boundary_orientation:
            self.boundary_orientation.update(boundary_orientation)

    # -- basics ---------------------------------------------------------------

    def copy(self) -> "QuasiTriangulation":
        t = object.__new__(QuasiTriangulation)
        t.signature = self.signature
        t.arcs, t.points = dict(self.arcs), dict(self.points)
        t.walks = {p: list(w) for p, w in self.walks.items()}
        t.corner_tri = {p: list(v) for p, v in self.corner_tri.items()}
        t.triangles = dict(self.triangles)
        t.boundary_orientation = dict(self.boundary_orientation)
        return t

    def internal_arcs(self) -> list[int]:
        return sorted(a for a, k in self.arcs.items() if k != BOUNDARY)

    def boundary_arcs(self) -> list[int]:
        return sorted(a for a, k in self.arcs.items() if k == BOUNDARY)

    def quasi_arcs(self) -> list[int]:
        return sorted(a for a, k in self.arcs.items() if k == QUASIARC)

    def fresh_triangle_id(self) -> int:
        return max(self.triangles, default=0) + 1

    def token_positions(self) -> dict[End, tuple[int, int]]:
        """Map each arc end in a walk to its (point, index)."""
        return {tok: (pt, i) for pt, walk in self.walks.items()
                for i, tok in enumerate(walk)}

    def corners_at(self, slots) -> list[tuple[End, End]]:
        """The two arc ends of each corner slot (point, index)."""
        return [(self.walks[p][i], self.walks[p][i + 1]) for p, i in slots]

    def corner_slots(self) -> dict[int, list[tuple[int, int]]]:
        """Map each triangle id to its corner slots (point, index), points in
        sorted order, so that the result does not depend on the order in
        which points were stored."""
        return self._slots_of(*self.triangles)

    def _slots_of(self, *tids: int) -> dict[int, list[tuple[int, int]]]:
        """``corner_slots()`` for the triangles ``tids`` only, reading just the
        points whose corners hold one of them."""
        out: dict[int, list[tuple[int, int]]] = {t: [] for t in tids}
        for pt in sorted(p for p, tris in self.corner_tri.items()
                         if not out.keys().isdisjoint(tris)):
            for i, t in enumerate(self.corner_tri[pt]):
                if t in out:
                    out[t].append((pt, i))
        return out

    # -- validation -------------------------------------------------------------

    def validate(self) -> list[str]:
        out = []
        arcs = self.arcs
        internal = 0
        token_count: dict[End, int] = {}
        for pt, walk in self.walks.items():
            if pt not in self.points:
                out.append(f"walk at unknown point {pt}")
            if len(walk) < 2:
                out.append(f"walk at point {pt} is too short")
                continue
            last = len(walk) - 1
            if len(self.corner_tri.get(pt, [])) != last:
                out.append(f"corner/walk length mismatch at point {pt}")
            for i, tok in enumerate(walk):
                arc, e = tok
                if arc not in arcs:
                    out.append(f"walk at {pt} references unknown arc {arc}")
                    continue
                token_count[tok] = token_count.get(tok, 0) + 1
                kind = arcs[arc]
                if (kind == BOUNDARY) == (0 < i < last):
                    out.append(f"boundary end {tok} in walk interior at {pt}"
                               if kind == BOUNDARY else
                               f"non-boundary end {tok} at walk extreme of {pt}")
                if kind == QUASIARC:
                    out.append(f"quasi-arc {arc} appears in a walk")
        for pt in self.corner_tri.keys() - self.walks.keys():
            out.append(f"corners at point {pt}, which has no walk")
        for arc, kind in arcs.items():
            internal += kind != BOUNDARY
            expect = 0 if kind == QUASIARC else 1
            for e in (0, 1):
                c = token_count.get((arc, e), 0)
                if c != expect:
                    out.append(f"end ({arc},{e}) appears {c} times, expected {expect}")
        if out:
            return out

        # each triangle's corners, in one pass; matchings ignore corner order
        corners: dict[int, list[tuple[End, End]]] = {t: [] for t in self.triangles}
        stray = []
        for pt, tris in self.corner_tri.items():
            walk = self.walks[pt]
            for i, (t, u, v) in enumerate(zip(tris, walk, walk[1:])):
                held = corners.get(t)
                if held is None:
                    stray.append(f"corner ({pt},{i}) assigned to unknown triangle {t}")
                else:
                    held.append((u, v))
        side_use: dict[int, int] = dict.fromkeys(self.arcs, 0)
        for tri in self.triangles.values():
            tid, kind, sides = tri.id, tri.kind, tri.sides
            for a in sides:
                if a not in side_use:
                    out.append(f"triangle {tid} references unknown arc {a}")
                    return out
                side_use[a] += 1
            if kind not in (TRI_REGULAR, TRI_ANTI_SELF_FOLDED, TRI_QUASI):
                out.append(f"triangle {tid} has unknown kind {kind!r}")
                continue
            held = corners[tid]
            if kind == TRI_QUASI:
                if len(sides) != 2:
                    out.append(f"quasi-triangle {tid} has {len(sides)} "
                               "sides, expected 2")
                    continue
                loop, q = sides
                if self.arcs[q] != QUASIARC:
                    out.append(f"quasi-triangle {tid}: {q} is not a quasi-arc")
                if self.arcs[loop] == QUASIARC:
                    out.append(f"quasi-triangle {tid}: loop {loop} is a quasi-arc")
                if len(held) != 1:
                    out.append(f"quasi-triangle {tid} has {len(held)} corners")
                    continue
                (u, v), = held
                if u[0] != loop or v[0] != loop or u[1] == v[1]:
                    out.append(f"quasi-triangle {tid}: corner is not the loop's ends")
            else:
                if len(held) != 3:
                    out.append(f"triangle {tid} has {len(held)} corners")
                    continue
                if _side_arcs(held) != sorted(sides):
                    out.append(f"triangle {tid}: corners do not realize sides {sides}")
                if (len(set(sides)) < len(sides)) != (kind == TRI_ANTI_SELF_FOLDED):
                    out.append(f"triangle {tid}: kind {kind} vs sides {sides}")
        out += stray
        for arc, kind in self.arcs.items():
            want = 2 if kind == REGULAR else 1
            if side_use[arc] != want:
                out.append(f"arc {arc} fills {side_use[arc]} side slots, expected {want}")
        if self.signature is not None:
            if self.signature.p != 0:
                out.append("punctured signatures are not supported by the engine")
            else:
                try:
                    n = arc_count(self.signature)
                except NonTriangulable as exc:
                    out.append(str(exc))
                else:
                    if internal != n:
                        out.append(f"internal arc count {internal} != {n} from signature")
        for pt, comp in self.points.items():
            if comp not in self.boundary_orientation:
                out.append(f"point {pt} on unknown boundary component {comp}")
        return out

    def require_valid(self):
        diags = self.validate()
        if diags:
            raise InvalidTriangulation("; ".join(diags))

    # -- quiver construction ------------------------------------------------------

    def build_quiver(self) -> PartitionedQuiver:
        """One mutable vertex per internal arc, one frozen per boundary arc;
        one partition path per marked point, following its walk."""
        self.require_valid()
        arcs = self.arcs
        vertices = [Vertex(a, arcs[a] == BOUNDARY,
                           QUASI if arcs[a] == QUASIARC else ORDINARY)
                    for a in sorted(arcs)]
        # a quasi-triangle's corner runs through its quasi-arc: two arrows
        through = {t.id: t.sides[1] for t in self.triangles.values()
                   if t.kind == TRI_QUASI}
        arrows = []
        partition = []
        for pt in sorted(self.walks):
            ends = [a for a, _ in self.walks[pt]]
            tris = self.corner_tri[pt]
            if self.boundary_orientation[self.points[pt]]:
                ends, tris = ends[::-1], tris[::-1]
            first = len(arrows) + 1
            for a, b, t in zip(ends, ends[1:], tris):
                q = through.get(t)
                if q is not None:
                    arrows.append(Arrow(len(arrows) + 1, a, q))
                    a = q
                arrows.append(Arrow(len(arrows) + 1, a, b))
            partition.append(list(range(first, len(arrows) + 1)))
        return PartitionedQuiver(vertices, arrows, partition)

    # -- orientation transport -------------------------------------------------------

    def arc_transport(self, slots_of=None) -> dict[int, int]:
        """Per internal two-ended arc: 1 if crossing it reverses orientation.

        A side instance is one side of one triangle; its two corner slots sit
        at opposite ends of the side's arc, and a quasi-triangle's one corner
        has its loop side.  The side instance seen on the walk-left of the
        arc's end-0 token, member 1 of the corner before it, equals the one
        on the walk-left of its end-1 token exactly when the gluing is
        orientation-reversing (relative to the stored walk directions;
        boundary arcs transport trivially by the walk convention).
        ``slots_of`` is ``corner_slots()``, built here unless the caller has it.
        """
        if slots_of is None:
            slots_of = self.corner_slots()
        left: dict[tuple[int, int], tuple[int, int]] = {}   # corner -> side
        for tri in self.triangles.values():
            slots = slots_of[tri.id]
            if tri.kind == TRI_QUASI:
                slot, = slots
                left[slot] = (tri.id, 0)
                continue
            matchings = _triangle_matchings(self.corners_at(slots))
            if not matchings:
                raise InvalidTriangulation(f"triangle {tri.id} has no side matching")
            for k, side in enumerate(matchings[0]):
                for ci, mi in side:
                    if mi:
                        left[slots[ci]] = (tri.id, k)
        position = self.token_positions()
        out: dict[int, int] = {}
        for arc, kind in self.arcs.items():
            if kind == QUASIARC:
                continue
            if kind == BOUNDARY:
                out[arc] = 0
                continue
            (p0, i0), (p1, i1) = position[(arc, 0)], position[(arc, 1)]
            out[arc] = int(left[(p0, i0 - 1)] == left[(p1, i1 - 1)])
        return out

    # -- flips ---------------------------------------------------------------------

    def flip(self, arc: int) -> "QuasiTriangulation":
        """Replace `arc` by the unique other arc completing a quasi-triangulation.

        The arc id is reused for the replacement arc.  Functional.
        """
        if arc not in self.arcs:
            raise KeyError(f"unknown arc {arc}")
        kind = self.arcs[arc]
        if kind == BOUNDARY:
            raise NotFlippable(f"arc {arc} is a boundary arc")
        t = self.copy()
        if kind == QUASIARC:
            t._flip_quasi_arc(arc)
            return t
        position = t.token_positions()
        (p0, i0), (p1, i1) = position[(arc, 0)], position[(arc, 1)]
        if p0 == p1 and abs(i0 - i1) == 1:
            mid = min(i0, i1)
            tri = t.triangles[t.corner_tri[p0][mid]]
            if tri.kind == TRI_QUASI:
                t._flip_quasi_loop(arc, tri, p0, mid)
            elif tri.kind == TRI_ANTI_SELF_FOLDED:
                t._flip_doubled(arc, tri, p0, mid)
            else:
                raise InvalidTriangulation(
                    f"adjacent ends of {arc} claim a regular corner")
        else:
            t._flip_quadrilateral(arc, p0, i0, p1, i1)
        return t

    def _flip_quasi_arc(self, arc: int):
        """Quasi-arc -> doubled arc of an anti-self-folded triangle."""
        qt = next(tr for tr in self.triangles.values()
                  if tr.kind == TRI_QUASI and tr.sides[1] == arc)
        loop = qt.sides[0]
        (pt, i), = self._slots_of(qt.id)[qt.id]
        af = Triangle(self.fresh_triangle_id(), TRI_ANTI_SELF_FOLDED,
                      (loop, arc, arc))
        self.walks[pt][i + 1:i + 1] = [(arc, 0), (arc, 1)]
        self.corner_tri[pt][i:i + 1] = [af.id, af.id, af.id]
        del self.triangles[qt.id]
        self.triangles[af.id] = af
        self.arcs[arc] = REGULAR

    def _flip_doubled(self, arc: int, af: Triangle, pt: int, mid: int):
        """Doubled arc of an anti-self-folded triangle -> quasi-arc."""
        if list(af.sides).count(arc) != 2:
            raise InvalidTriangulation(f"arc {arc} is not doubled in triangle {af.id}")
        base = next(a for a in af.sides if a != arc)
        walk = self.walks[pt]
        if walk[mid - 1][0] != base or walk[mid + 2][0] != base:
            raise InvalidTriangulation(
                f"anti-self-folded triangle {af.id} not flanked by its base")
        qt = Triangle(self.fresh_triangle_id(), TRI_QUASI, (base, arc))
        del self.walks[pt][mid:mid + 2]
        self.corner_tri[pt][mid - 1:mid + 2] = [qt.id]
        del self.triangles[af.id]
        self.triangles[qt.id] = qt
        self.arcs[arc] = QUASIARC

    def _flip_quasi_loop(self, arc: int, qt: Triangle, pt: int, mid: int):
        """Re-hang the enclosing loop of a quasi-triangle at the far corner."""
        walk = self.walks[pt]
        tris = self.corner_tri[pt]
        if tris[mid - 1] != tris[mid + 1]:
            raise InvalidTriangulation(
                f"loop {arc} is not flanked by a single triangle")
        delta = self.triangles[tris[mid - 1]]
        if delta.kind != TRI_REGULAR:
            raise FlipError(
                f"enclosing loop {arc} sits against a {delta.kind} triangle; "
                "this configuration is outside the supported class")
        del walk[mid:mid + 2]
        tris[mid - 1:mid + 2] = [delta.id]
        third = [(p, i) for (p, i) in self._slots_of(delta.id)[delta.id]
                 if not (p == pt and i == mid - 1)]
        if len(third) != 1:
            raise FlipError(f"triangle {delta.id} third corner not unique")
        (p2, j), = third
        self.walks[p2][j + 1:j + 1] = [(arc, 0), (arc, 1)]
        self.corner_tri[p2][j:j + 1] = [delta.id, qt.id, delta.id]

    def _flip_quadrilateral(self, arc: int, p0: int, i0: int, p1: int, i1: int):
        """Generic diagonal flip of the arc with ends at (p0, i0) and (p1, i1);
        covers plain quadrilaterals, quadrilaterals with a repeated side, and
        the base arc of an anti-self-folded triangle, which all share the same
        corner rewrite."""
        walks, corner_tri = self.walks, self.corner_tri
        flank = [corner_tri[p0][i0 - 1], corner_tri[p0][i0],
                 corner_tri[p1][i1 - 1], corner_tri[p1][i1]]
        distinct = sorted(set(flank))
        if len(distinct) != 2 or flank.count(distinct[0]) != 2:
            raise InvalidTriangulation(
                f"arc {arc}: flanking corners belong to {distinct}")
        t1, t2 = distinct
        if TRI_QUASI in (self.triangles[t1].kind, self.triangles[t2].kind):
            raise InvalidTriangulation(f"arc {arc} flanked by quasi-triangle")

        # marks are ids no triangle has: na for each end's merged flanks; the
        # third corner of t1 / t2 takes the new arc's end 0 / 1 and splits
        # into two corners marked na + 1 / na + 2
        na = self.fresh_triangle_id()
        for p, i in sorted([(p0, i0), (p1, i1)], reverse=True):
            del walks[p][i]
            corner_tri[p][i - 1:i + 1] = [na]
        thirds = self._slots_of(t1, t2)
        inserts = []
        for e, t in ((0, t1), (1, t2)):
            if len(thirds[t]) != 1:
                raise FlipError(f"triangle {t} third corner not unique")
            inserts.append((*thirds[t][0], e))
        # right to left, so that an insertion never shifts a pending slot
        for p, j, e in sorted(inserts, reverse=True):
            walks[p][j + 1:j + 1] = [(arc, e)]
            corner_tri[p][j:j + 1] = [na + 1 + e, na + 1 + e]
        marked = self._slots_of(na, na + 1, na + 2)
        if any(len(slots) != 2 for slots in marked.values()):
            raise FlipError(f"arc {arc}: marked corners {marked} are not in pairs")
        merged, halves1, halves2 = marked.values()
        m, h1, h2 = map(self.corners_at, (merged, halves1, halves2))

        solutions = []
        for k1 in (0, 1):
            for k2 in (0, 1):
                a = _side_arcs([m[0], h1[k1], h2[k2]])
                b = a and _side_arcs([m[1], h1[1 - k1], h2[1 - k2]])
                if b:
                    solutions.append(([merged[0], halves1[k1], halves2[k2]],
                                      [merged[1], halves1[1 - k1], halves2[1 - k2]],
                                      [a, b]))
        if not solutions:
            raise FlipError(f"arc {arc}: no consistent corner reassignment")
        if any(s[2] != solutions[0][2] for s in solutions):
            raise FlipError(f"arc {arc}: ambiguous corner reassignment")
        tri_a, tri_b, sides = solutions[0]
        del self.triangles[t1], self.triangles[t2]
        for new_id, slots, side in ((na, tri_a, sides[0]), (na + 1, tri_b, sides[1])):
            kind = TRI_REGULAR
            if len(set(side)) < len(side):
                dup = next(a for a in side if side.count(a) == 2)
                base = next(a for a in side if a != dup)
                kind, side = TRI_ANTI_SELF_FOLDED, [base, dup, dup]
            self.triangles[new_id] = Triangle(new_id, kind, tuple(side))
            for p, i in slots:
                corner_tri[p][i] = new_id

    # -- serialization ----------------------------------------------------------------

    def to_json(self) -> dict:
        transport = self.arc_transport()
        seen: set[int] = set()
        triangles = []
        for tri in sorted(self.triangles.values(), key=lambda t: t.id):
            sides = []
            for a in tri.sides:
                twist = 0
                if self.arcs[a] == REGULAR and a in seen:
                    twist = transport.get(a, 0)
                seen.add(a)
                sides.append({"arc": a, "twist": twist})
            triangles.append({"id": tri.id, "kind": tri.kind, "sides": sides})
        return {
            "signature": self.signature.as_json() if self.signature else None,
            "arcs": [{"id": a, "kind": self.arcs[a]} for a in sorted(self.arcs)],
            "triangles": triangles,
            "corners": {str(pt): [{"arc": a, "end": e} for a, e in walk]
                        for pt, walk in sorted(self.walks.items())},
            "corner_triangles": {str(pt): list(v)
                                 for pt, v in sorted(self.corner_tri.items())},
            "points": {str(pt): comp for pt, comp in sorted(self.points.items())},
            "boundary_orientations": [self.boundary_orientation[c]
                                      for c in sorted(self.boundary_orientation)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuasiTriangulation":
        """Inverse of ``to_json``; raises ValueError naming the field of an
        entry that is not an integer, an arc kind that is none of the three
        or an id that repeats, or when ``boundary_orientations`` is not one 0
        or 1 per boundary component."""
        sig = None
        if data.get("signature"):
            s = data["signature"]
            sig = SurfaceSignature(*(_json_int(s[k], f"signature {k}")
                                     for k in "gbpc"))
        arcs = [(_json_int(a["id"], "arc id"), _json_arc_kind(a["kind"]))
                for a in data["arcs"]]
        _json_unique((a for a, _ in arcs), "arc id")
        points = {int(p): _json_int(comp, "boundary component")
                  for p, comp in data["points"].items()}
        walks = {int(p): [(_json_int(t["arc"], "walk arc"),
                           _json_int(t["end"], "walk end")) for t in w]
                 for p, w in data["corners"].items()}
        triangles = [Triangle(_json_int(t["id"], "triangle id"), t["kind"],
                              tuple(_json_int(s["arc"], "triangle side")
                                    for s in t["sides"]))
                     for t in data["triangles"]]
        _json_unique((t.id for t in triangles), "triangle id")
        if "corner_triangles" in data:
            corner_tri = {int(p): [_json_int(t, "corner triangle") for t in v]
                          for p, v in data["corner_triangles"].items()}
        else:
            corner_tri = _assign_corners(walks, triangles)
        comps = sorted(set(points.values()))
        flags = data.get("boundary_orientations", [0] * len(comps))
        if len(flags) != len(comps) or any(
                _json_int(f, "boundary orientation") not in (0, 1) for f in flags):
            raise ValueError("boundary_orientations must hold one 0 or 1 per "
                             f"boundary component ({len(comps)}), not {flags!r}")
        orientation = dict(zip(comps, flags))
        return cls(sig, arcs, points, walks, corner_tri, triangles, orientation)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def _json_arc_kind(value) -> str:
    if value not in (BOUNDARY, REGULAR, QUASIARC):
        raise ValueError(f"arc kind must be {BOUNDARY!r}, {REGULAR!r} or "
                         f"{QUASIARC!r}, not {value!r}")
    return value


def _assign_corners(walks, triangles) -> dict[int, list[int]]:
    """Reconstruct the corner-to-triangle assignment by backtracking.

    Used when importing JSON without the explicit corner_triangles field.  A
    triangle takes its last corner only if its corners realize its sides (the
    test ``validate`` makes), so every assignment found is a valid one.
    """
    slots = [(pt, i) for pt in sorted(walks) for i in range(len(walks[pt]) - 1)]
    tris = {tri.id: tri for tri in triangles}
    demand = {tid: 1 if tri.kind == TRI_QUASI else 3 for tid, tri in tris.items()}
    held: dict[int, list[tuple[End, End]]] = {tid: [] for tid in tris}
    assignment: dict[tuple[int, int], int] = {}
    # the triangles with each arc as a side, in the given order; a
    # quasi-triangle under its loop only
    by_arc: dict[int, list[Triangle]] = {}
    for tri in triangles:
        for a in tri.sides[:1] if tri.kind == TRI_QUASI else dict.fromkeys(tri.sides):
            by_arc.setdefault(a, []).append(tri)

    def corner(slot):
        pt, i = slot
        return walks[pt][i], walks[pt][i + 1]

    def candidates(slot):
        (a, _), (b, _) = corner(slot)
        cands = []
        for tri in by_arc.get(a, ()):
            if demand[tri.id] <= 0:
                continue
            if tri.kind == TRI_QUASI:
                if b == a:
                    cands.append(tri.id)
            else:
                rest = list(tri.sides)
                rest.remove(a)
                if b in rest:
                    cands.append(tri.id)
        return cands

    def fits(tid, slot):
        tri = tris[tid]
        return demand[tid] > 1 or tri.kind == TRI_QUASI or \
            _side_arcs(held[tid] + [corner(slot)]) == sorted(tri.sides)

    # depth first over the slots in order, with one candidate iterator per
    # slot on an explicit stack, so the depth is not bounded by the
    # interpreter's recursion limit
    stack = []
    while True:
        if len(stack) < len(slots):
            stack.append(iter(candidates(slots[len(stack)])))
        elif all(v == 0 for v in demand.values()):
            break
        while stack:   # the next fitting candidate at the deepest slot
            slot = slots[len(stack) - 1]
            if slot in assignment:
                tid = assignment.pop(slot)
                demand[tid] += 1
                held[tid].pop()
            tid = next((t for t in stack[-1] if fits(t, slot)), None)
            if tid is not None:
                assignment[slot] = tid
                demand[tid] -= 1
                held[tid].append(corner(slot))
                break
            stack.pop()
        else:
            raise InvalidTriangulation("cannot assign corners to triangles")
    out: dict[int, list[int]] = {pt: [0] * (len(walks[pt]) - 1) for pt in walks}
    for (pt, i), tid in assignment.items():
        out[pt][i] = tid
    return out


# -- fixtures ---------------------------------------------------------------------


def polygon_fan(c: int) -> QuasiTriangulation:
    """Fan triangulation of the disk with c boundary points (c >= 4)."""
    sig = SurfaceSignature(0, 1, 0, c)
    n = arc_count(sig)  # c - 3
    diag = {j: j - 2 for j in range(3, c)}          # arc ids 1..c-3
    bnd = {i: n + i for i in range(1, c + 1)}       # boundary b_i: pt i -> i+1
    arcs = {diag[j]: REGULAR for j in diag}
    arcs.update({bnd[i]: BOUNDARY for i in bnd})
    tri_of = {}  # triangle U_j for j = 2..c-1
    tris = []
    tid = 1
    for j in range(2, c):
        if j == 2:
            sides = (bnd[1], bnd[2], diag[3])
        elif j == c - 1:
            sides = (diag[c - 1], bnd[c - 1], bnd[c])
        else:
            sides = (diag[j], bnd[j], diag[j + 1])
        tris.append(Triangle(tid, TRI_REGULAR, sides))
        tri_of[j] = tid
        tid += 1
    walks = {}
    corner = {}
    w1 = [(bnd[c], 1)] + [(diag[j], 0) for j in range(c - 1, 2, -1)] + [(bnd[1], 0)]
    c1 = [tri_of[c - 1]] + [tri_of[j] for j in range(c - 2, 1, -1)]
    walks[1], corner[1] = w1, c1
    walks[2] = [(bnd[1], 1), (bnd[2], 0)]
    corner[2] = [tri_of[2]]
    for j in range(3, c):
        walks[j] = [(bnd[j - 1], 1), (diag[j], 1), (bnd[j], 0)]
        corner[j] = [tri_of[j - 1], tri_of[j]]
    walks[c] = [(bnd[c - 1], 1), (bnd[c], 0)]
    corner[c] = [tri_of[c - 1]]
    points = {i: 0 for i in range(1, c + 1)}
    return QuasiTriangulation(sig, arcs, points, walks, corner, tris)


def mobius_fan(n: int) -> QuasiTriangulation:
    """Fan quasi-triangulation of the Moebius strip with n boundary points.

    An enclosing loop and a doubled arc through the crosscap at point 1, plus
    n-2 fan arcs from point 1 (for n = 1 the loop degenerates onto the
    boundary and only the doubled arc remains).
    """
    if n < 1:
        raise NonTriangulable("need at least one marked point")
    sig = SurfaceSignature(1, 1, 0, n)
    arc_count(sig)
    if n == 1:
        b = 2
        arcs = {1: REGULAR, b: BOUNDARY}
        af = Triangle(1, TRI_ANTI_SELF_FOLDED, (b, 1, 1))
        walks = {1: [(b, 1), (1, 0), (1, 1), (b, 0)]}
        corner = {1: [1, 1, 1]}
        return QuasiTriangulation(sig, arcs, {1: 0}, walks, corner, [af])
    loop, dbl = 1, 2
    fan = {j: j + 1 for j in range(2, n)}            # fan arc pt1 -> pt j
    bnd = {i: n + i for i in range(1, n + 1)}        # boundary b_i: pt i -> i+1
    arcs = {loop: REGULAR, dbl: REGULAR}
    arcs.update({fan[j]: REGULAR for j in fan})
    arcs.update({bnd[i]: BOUNDARY for i in bnd})
    af = Triangle(1, TRI_ANTI_SELF_FOLDED, (loop, dbl, dbl))
    tris = [af]
    tri_of = {}
    tid = 2
    for j in range(1, n):
        if n == 2:
            sides = (loop, bnd[1], bnd[2])
        elif j == 1:
            sides = (loop, bnd[1], fan[2])
        elif j == n - 1:
            sides = (fan[n - 1], bnd[n - 1], bnd[n])
        else:
            sides = (fan[j], bnd[j], fan[j + 1])
        tris.append(Triangle(tid, TRI_REGULAR, sides))
        tri_of[j] = tid
        tid += 1
    walks = {}
    corner = {}
    w1 = [(bnd[n], 1)]
    c1 = []
    for j in range(n - 1, 1, -1):
        w1.append((fan[j], 0))
        c1.append(tri_of[j] if j < n - 1 else tri_of[n - 1])
    w1 += [(loop, 0), (dbl, 0), (dbl, 1), (loop, 1), (bnd[1], 0)]
    c1 += [tri_of[1], af.id, af.id, af.id, tri_of[1]]
    walks[1], corner[1] = w1, c1
    for i in range(2, n + 1):
        w = [(bnd[i - 1], 1)]
        cs = []
        if i in fan:
            w.append((fan[i], 1))
            cs.append(tri_of[i - 1])
            cs.append(tri_of[i])
        else:
            cs.append(tri_of[i - 1])
        w.append((bnd[i], 0))
        walks[i], corner[i] = w, cs
    points = {i: 0 for i in range(1, n + 1)}
    return QuasiTriangulation(sig, arcs, points, walks, corner, tris)


def annulus_crosscap() -> QuasiTriangulation:
    """Annulus with one crosscap, two marked points, five internal arcs.

    Arc 4 is the loop enclosing the quasi-arc 5; arcs 6 and 7 are the outer
    and inner boundary circles.
    """
    sig = SurfaceSignature(1, 2, 0, 2)
    arcs = {1: REGULAR, 2: REGULAR, 3: REGULAR, 4: REGULAR, 5: QUASIARC,
            6: BOUNDARY, 7: BOUNDARY}
    ta = Triangle(1, TRI_REGULAR, (1, 2, 7))
    tb = Triangle(2, TRI_REGULAR, (1, 3, 6))
    tc = Triangle(3, TRI_REGULAR, (2, 3, 4))
    qt = Triangle(4, TRI_QUASI, (4, 5))
    walks = {
        1: [(6, 0), (3, 0), (2, 0), (1, 0), (6, 1)],
        2: [(7, 0), (1, 1), (3, 1), (4, 0), (4, 1), (2, 1), (7, 1)],
    }
    corner = {
        1: [tb.id, tc.id, ta.id, tb.id],
        2: [ta.id, tb.id, tc.id, qt.id, tc.id, ta.id],
    }
    points = {1: 0, 2: 1}
    return QuasiTriangulation(sig, arcs, points, walks, corner, [ta, tb, tc, qt])


def mobius_three_arc() -> QuasiTriangulation:
    """Moebius strip with three marked points, all arcs through the crosscap.

    Arc 1 is doubled at point 1; arcs 2 and 3 run from point 1 to points 2
    and 3.  Quasi-arc free, so it lifts to the orientable double cover.
    """
    sig = SurfaceSignature(1, 1, 0, 3)
    arcs = {1: REGULAR, 2: REGULAR, 3: REGULAR,
            4: BOUNDARY, 5: BOUNDARY, 6: BOUNDARY}
    ta = Triangle(1, TRI_REGULAR, (4, 1, 2))
    tb = Triangle(2, TRI_REGULAR, (1, 3, 6))
    tc = Triangle(3, TRI_REGULAR, (2, 3, 5))
    walks = {
        1: [(4, 1), (1, 0), (3, 0), (2, 0), (1, 1), (6, 0)],
        2: [(5, 1), (2, 1), (4, 0)],
        3: [(6, 1), (3, 1), (5, 0)],
    }
    corner = {
        1: [ta.id, tb.id, tc.id, ta.id, tb.id],
        2: [tc.id, ta.id],
        3: [tb.id, tc.id],
    }
    points = {1: 0, 2: 0, 3: 0}
    return QuasiTriangulation(sig, arcs, points, walks, corner, [ta, tb, tc])


def three_boundary() -> QuasiTriangulation:
    """Orientable surface with three boundary circles, one point each.

    Six internal arcs; the three marked points drive partition paths of six,
    five and four arrows.
    """
    sig = SurfaceSignature(0, 3, 0, 3)
    arcs = {a: REGULAR for a in range(1, 7)}
    arcs.update({7: BOUNDARY, 8: BOUNDARY, 9: BOUNDARY})
    t1 = Triangle(1, TRI_REGULAR, (7, 1, 2))
    t2 = Triangle(2, TRI_REGULAR, (1, 6, 9))
    t3 = Triangle(3, TRI_REGULAR, (4, 5, 6))
    t4 = Triangle(4, TRI_REGULAR, (3, 4, 8))
    t5 = Triangle(5, TRI_REGULAR, (2, 3, 5))
    walks = {
        1: [(7, 0), (1, 0), (6, 0), (4, 0), (3, 0), (2, 0), (7, 1)],
        2: [(9, 0), (1, 1), (2, 1), (5, 0), (6, 1), (9, 1)],
        3: [(8, 0), (4, 1), (5, 1), (3, 1), (8, 1)],
    }
    corner = {
        1: [t1.id, t2.id, t3.id, t4.id, t5.id, t1.id],
        2: [t2.id, t1.id, t5.id, t3.id, t2.id],
        3: [t4.id, t3.id, t5.id, t4.id],
    }
    points = {1: 0, 2: 1, 3: 2}
    return QuasiTriangulation(sig, arcs, points, walks, corner,
                              [t1, t2, t3, t4, t5])


FIXTURES = {
    "mobius": mobius_fan,
    "polygon": polygon_fan,
}

# Largest N of 'mobius:N' and 'polygon:N': every cluster key prints every
# exponent of every value, so the root cluster of mobius:N alone is O(N^2)
# bytes.
MAX_FIXTURE_SIZE = 1000


def named_fixture(name: str) -> QuasiTriangulation:
    """Fixture lookup: 'mobius:N', 'polygon:C' (N, C at most
    MAX_FIXTURE_SIZE), 'annulus-crosscap', 'mobius-three-arc',
    'three-boundary'."""
    if name == "annulus-crosscap":
        return annulus_crosscap()
    if name == "mobius-three-arc":
        return mobius_three_arc()
    if name == "three-boundary":
        return three_boundary()
    if ":" in name:
        base, arg = name.split(":", 1)
        if base in FIXTURES:
            size = int(arg)
            if size > MAX_FIXTURE_SIZE:
                raise ValueError(f"size {size} is above the fixture limit {MAX_FIXTURE_SIZE}")
            return FIXTURES[base](size)
    raise KeyError(f"unknown fixture {name!r}")
