"""Reference side matching and validation of quasi-triangulations.

The 8-way side matching and the ``validate()`` that ``QuasiTriangulation``
ran before each triangle's matching was found in one pruned pass, kept
verbatim (methods written as functions of the triangulation) as an
independent oracle: every corner triple tries all eight ways of gluing its
six arc ends into a 3-cycle of sides, and validation gathers the corners of
each triangle through the whole-surface ``corner_slots`` index.
"""
from __future__ import annotations

from quasicluster.surface import (BOUNDARY, QUASIARC, REGULAR,
                                  TRI_ANTI_SELF_FOLDED, TRI_QUASI, TRI_REGULAR,
                                  NonTriangulable, arc_count)


def _triangle_matchings(corners):
    """Side matchings of three corner token-pairs.

    Each matching pairs the six token slots into three sides (same arc,
    opposite end labels) forming a 3-cycle over the corners.  Returns a list
    of matchings; a matching is a tuple of three sides, each a pair of
    (corner index, member index) slots.
    """
    out = []
    c = corners
    for s0 in (0, 1):
        for s1 in (0, 1):
            for s2 in (0, 1):
                sides = (
                    ((0, s0), (1, s1)),
                    ((1, 1 - s1), (2, s2)),
                    ((2, 1 - s2), (0, 1 - s0)),
                )
                ok = True
                for (ci, mi), (cj, mj) in sides:
                    u, v = c[ci][mi], c[cj][mj]
                    if u[0] != v[0] or u[1] == v[1]:
                        ok = False
                        break
                if ok:
                    out.append(sides)
    return out


def _realizes(corners, sides) -> bool:
    """Whether some side matching of three corners uses exactly the arcs
    ``sides``."""
    want = sorted(sides)
    return any(sorted(corners[ci][mi][0] for (ci, mi), _ in m) == want
               for m in _triangle_matchings(corners))


def corner_tokens(t, pt: int, idx: int):
    walk = t.walks[pt]
    return walk[idx], walk[idx + 1]


def corner_slots(t):
    """Map each triangle id to its corner slots (point, index), points in
    sorted order, so that the result does not depend on the order in
    which points were stored."""
    out = {}
    for pt in sorted(t.corner_tri):
        for i, tid in enumerate(t.corner_tri[pt]):
            out.setdefault(tid, []).append((pt, i))
    return out


def validate(t) -> list[str]:
    out = []
    token_count = {}
    for pt, walk in t.walks.items():
        if pt not in t.points:
            out.append(f"walk at unknown point {pt}")
        if len(walk) < 2:
            out.append(f"walk at point {pt} is too short")
            continue
        if len(t.corner_tri.get(pt, [])) != len(walk) - 1:
            out.append(f"corner/walk length mismatch at point {pt}")
        for i, tok in enumerate(walk):
            arc, e = tok
            if arc not in t.arcs:
                out.append(f"walk at {pt} references unknown arc {arc}")
                continue
            kind = t.arcs[arc]
            token_count[tok] = token_count.get(tok, 0) + 1
            extreme = i == 0 or i == len(walk) - 1
            if kind == BOUNDARY and not extreme:
                out.append(f"boundary end {tok} in walk interior at {pt}")
            if kind != BOUNDARY and extreme:
                out.append(f"non-boundary end {tok} at walk extreme of {pt}")
            if kind == QUASIARC:
                out.append(f"quasi-arc {arc} appears in a walk")
    for pt in t.corner_tri.keys() - t.walks.keys():
        out.append(f"corners at point {pt}, which has no walk")
    for arc, kind in t.arcs.items():
        expect = 0 if kind == QUASIARC else 1
        for e in (0, 1):
            c = token_count.get((arc, e), 0)
            if c != expect:
                out.append(f"end ({arc},{e}) appears {c} times, expected {expect}")
    if out:
        return out

    # triangle structure
    side_use = {a: 0 for a in t.arcs}
    slots_of = corner_slots(t)
    for tri in t.triangles.values():
        slots = slots_of.get(tri.id, [])
        for a in tri.sides:
            if a not in t.arcs:
                out.append(f"triangle {tri.id} references unknown arc {a}")
                return out
            side_use[a] += 1
        if tri.kind not in (TRI_REGULAR, TRI_ANTI_SELF_FOLDED, TRI_QUASI):
            out.append(f"triangle {tri.id} has unknown kind {tri.kind!r}")
            continue
        if tri.kind == TRI_QUASI:
            if len(tri.sides) != 2:
                out.append(f"quasi-triangle {tri.id} has {len(tri.sides)} "
                           "sides, expected 2")
                continue
            loop, q = tri.sides
            if t.arcs[q] != QUASIARC:
                out.append(f"quasi-triangle {tri.id}: {q} is not a quasi-arc")
            if t.arcs[loop] == QUASIARC:
                out.append(f"quasi-triangle {tri.id}: loop {loop} is a quasi-arc")
            if len(slots) != 1:
                out.append(f"quasi-triangle {tri.id} has {len(slots)} corners")
                continue
            u, v = corner_tokens(t, *slots[0])
            if u[0] != loop or v[0] != loop or u[1] == v[1]:
                out.append(f"quasi-triangle {tri.id}: corner is not the loop's ends")
        else:
            if len(slots) != 3:
                out.append(f"triangle {tri.id} has {len(slots)} corners")
                continue
            if not _realizes([corner_tokens(t, *s) for s in slots], tri.sides):
                out.append(f"triangle {tri.id}: corners do not realize sides {tri.sides}")
            doubled = len(set(tri.sides)) < len(tri.sides)
            if doubled != (tri.kind == TRI_ANTI_SELF_FOLDED):
                out.append(f"triangle {tri.id}: kind {tri.kind} vs sides {tri.sides}")
    for pt, tris in t.corner_tri.items():
        for i, tid in enumerate(tris):
            if tid not in t.triangles:
                out.append(f"corner ({pt},{i}) assigned to unknown triangle {tid}")
    for arc, kind in t.arcs.items():
        want = 2 if kind == REGULAR else 1
        if side_use[arc] != want:
            out.append(f"arc {arc} fills {side_use[arc]} side slots, expected {want}")
    if t.signature is not None:
        if t.signature.p != 0:
            out.append("punctured signatures are not supported by the engine")
        else:
            try:
                n = arc_count(t.signature)
            except NonTriangulable as exc:
                out.append(str(exc))
            else:
                have = len(t.internal_arcs())
                if have != n:
                    out.append(f"internal arc count {have} != {n} from signature")
    for pt, comp in t.points.items():
        if comp not in t.boundary_orientation:
            out.append(f"point {pt} on unknown boundary component {comp}")
    return out
