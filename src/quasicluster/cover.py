"""Orientable double cover of a quasi-arc-free quasi-triangulation.

The cover is pure sheet bookkeeping over the orientation transport bits of
the base: every point, arc and triangle is duplicated, walks on the second
sheet run reversed, and an arc whose gluing is orientation-reversing connects
opposite sheets.  The deck involution swaps the two lifts of everything.
"""
from __future__ import annotations

from typing import NamedTuple

from .surface import (InvalidTriangulation, QuasiTriangulation, Triangle,
                      TRI_ANTI_SELF_FOLDED, TRI_QUASI, TRI_REGULAR,
                      _triangle_matchings)


class QuasiArcPresent(ValueError):
    """Quasi-arcs lift to non-contractible loops; no triangulation lifts."""


def _find(parent: dict, x):
    """Root of x in the union-find forest ``parent``, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class DoubleCover(NamedTuple):
    base: QuasiTriangulation
    lifted: QuasiTriangulation
    arc_lift: dict[tuple[int, int], int]     # (base arc, sheet) -> lifted arc
    point_lift: dict[tuple[int, int], int]   # (base point, sheet) -> lifted point
    sigma_arc: dict[int, int]                # deck involution on lifted arcs

    def sigma_is_involution(self) -> bool:
        return all(self.sigma_arc[b] == a for a, b in self.sigma_arc.items())

    def sigma_fixed_points(self) -> list[int]:
        return [a for a, b in self.sigma_arc.items() if a == b]

    def is_connected(self) -> bool:
        parent = {p: p for p in self.lifted.walks}
        position = self.lifted.token_positions()
        for arc in self.lifted.arcs:
            if self.lifted.arcs[arc] == "quasi":
                continue
            p0, p1 = position[(arc, 0)][0], position[(arc, 1)][0]
            parent[_find(parent, p0)] = _find(parent, p1)
        return len({_find(parent, p) for p in parent}) == 1


def lift(base: QuasiTriangulation) -> DoubleCover:
    """Lift to the orientable double cover.

    Raises QuasiArcPresent when the input contains a quasi-arc.  The result
    carries no surface signature (it may be orientable or disconnected) but
    validates structurally.
    """
    if base.quasi_arcs():
        raise QuasiArcPresent(
            f"quasi-arcs {base.quasi_arcs()} present; the lift of a quasi-arc "
            "cannot be part of any triangulation")
    base.require_valid()
    slots_of = base.corner_slots()
    rho = base.arc_transport(slots_of)

    arc_lift = {}
    for i, (a, s) in enumerate(sorted((a, s) for a in base.arcs for s in (0, 1))):
        arc_lift[(a, s)] = i + 1
    point_lift = {}
    for i, (p, s) in enumerate(sorted((p, s) for p in base.points for s in (0, 1))):
        point_lift[(p, s)] = i + 1

    def copy_sheet(arc: int, end: int, point_sheet: int) -> int:
        # the arc copy whose given end sits on the given sheet
        return point_sheet ^ (rho[arc] if end == 1 else 0)

    arcs = {}
    for (a, s), new in arc_lift.items():
        arcs[new] = base.arcs[a]
    points = {}
    for (p, s), new in point_lift.items():
        points[new] = base.points[p] * 2 + s

    walks: dict[int, list] = {}
    for (p, s), new in point_lift.items():
        tokens = base.walks[p] if s == 0 else list(reversed(base.walks[p]))
        walks[new] = [(arc_lift[(a, copy_sheet(a, e, s))], e) for a, e in tokens]

    # lift triangles sheet by sheet via the side-instance structure
    triangles: list[Triangle] = []
    corner_tri: dict[int, list[int]] = {new: [0] * (len(w) - 1)
                                        for new, w in walks.items()}
    next_tri = 1
    for tri in sorted(base.triangles.values(), key=lambda t: t.id):
        if tri.kind == TRI_QUASI:
            raise QuasiArcPresent("quasi-triangle present")
        slots = slots_of[tri.id]
        corners = base.corners_at(slots)
        matching = _triangle_matchings(corners)
        if not matching:
            raise InvalidTriangulation(f"triangle {tri.id} has no side matching")
        # corner 0 on sheet 0; each side moves the next corner across by its
        # arc's transport bit, and the closing side must lead back to sheet 0
        matched = matching[0]
        sheets = [0]
        for (c0, m0), _ in matched:
            sheets.append(sheets[-1] ^ rho[corners[c0][m0][0]])
        if sheets.pop():
            raise InvalidTriangulation(
                f"triangle {tri.id} does not lift to two triangles")
        for flip in (0, 1):   # the second lift is the complement
            sides = []
            for (c0, m0), _ in matched:
                a, e = corners[c0][m0]
                sides.append(arc_lift[(a, copy_sheet(a, e, sheets[c0] ^ flip))])
            doubled = len(set(sides)) < len(sides)
            kind = TRI_ANTI_SELF_FOLDED if doubled else TRI_REGULAR
            t = Triangle(next_tri, kind, tuple(sorted(sides)))
            triangles.append(t)
            for (p, i), sheet in zip(slots, sheets):
                s = sheet ^ flip
                idx = i if s == 0 else len(base.walks[p]) - 2 - i
                corner_tri[point_lift[(p, s)]][idx] = next_tri
            next_tri += 1

    lifted = QuasiTriangulation(None, arcs, points, walks, corner_tri, triangles)
    sigma_arc = {}
    for (a, s), new in arc_lift.items():
        sigma_arc[new] = arc_lift[(a, 1 - s)]
    return DoubleCover(base, lifted, arc_lift, point_lift, sigma_arc)
