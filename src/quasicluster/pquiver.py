"""Partitioned quivers: vertices with a frozen set, arrows, and a partition
of the arrows into paths, plus vertex-type classification and the four local
mutation rules.

The partition paths come from boundary marked points of a surface; every path
starts and ends at a frozen vertex.  An arc end is a (path, boundary index)
pair: the arrow at position ``pos`` of path ``p`` has its source slot at end
``(p, pos)`` and its target slot at end ``(p, pos + 1)``, so two slots at a
vertex share an end exactly when their arrows are consecutive in a path,
which is what the closure search below relies on.  Each mutation rule is a
list of path-run replacements: a run of consecutive arrows of one path and
the arrows that take its place.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict, deque
from typing import NamedTuple


ORDINARY = "ordinary"
QUASI = "quasi"

V1, V2, V3, V4 = "V1", "V2", "V3", "V4"


class ClassificationError(ValueError):
    """The local configuration at a vertex matches no supported type."""


class Unclassifiable(ClassificationError):
    pass


class AmbiguousClosure(ClassificationError):
    """More than one candidate closing pair; refusing to guess."""


class Vertex(NamedTuple):
    id: int
    frozen: bool = False
    kind: str = ORDINARY


class Arrow(NamedTuple):
    id: int
    src: int
    tgt: int


class VertexClassification(NamedTuple):
    """Bound roles for one of the four local configurations.

    ``product_pairs`` lists the two (vertex, vertex) products whose sum is the
    exchange polynomial for V1; for V2/V4 only ``i`` is set; for V3 ``i`` and
    ``k`` are the outer neighbours and ``j`` the quasi partner.
    """

    type: str
    t: int
    arrows: tuple[int, ...]            # the alpha/beta arrows in rule order
    closures: tuple[int, ...] = ()     # gamma/delta (V1) or beta (V3)
    i: int | None = None
    j: int | None = None
    k: int | None = None
    product_pairs: tuple[tuple[int, int], ...] = ()

    def renamed(self, names) -> "VertexClassification":
        """This classification with each vertex v in it replaced by
        ``names[v]``; arrow ids stay."""
        n = names.__getitem__
        i, j, k = self.i, self.j, self.k
        return VertexClassification(
            self.type, n(self.t), self.arrows, self.closures,
            i if i is None else n(i), j if j is None else n(j),
            k if k is None else n(k),
            tuple([(n(a), n(b)) for a, b in self.product_pairs]))


def _json_int(value, name: str) -> int:
    """An id read from JSON: an int proper (a bool is not an id)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def _json_bool(value, name: str) -> bool:
    if type(value) is not bool:
        raise ValueError(f"{name} must be true or false, not {value!r}")
    return value


def _json_unique(ids, name: str):
    """Raise ValueError naming the first id that repeats in ``ids``."""
    seen = set()
    for i in ids:
        if i in seen:
            raise ValueError(f"duplicate {name} {i}")
        seen.add(i)


def _json_kind(value) -> str:
    if value not in (ORDINARY, QUASI):
        raise ValueError(f"vertex kind must be {ORDINARY!r} or {QUASI!r}, "
                         f"not {value!r}")
    return value


def _vertex_codes(vertices) -> dict[int, int]:
    """Each vertex's (frozen, kind) as a negative int, below every label."""
    return {v: -1 - 2 * x.frozen - (x.kind == QUASI) for v, x in vertices.items()}


def _components(paths) -> list[list]:
    """``paths`` split into the connected components of the path-sharing
    graph (two paths meet where they share a vertex), each in the order of
    ``paths``, the components by their first path."""
    root = list(range(len(paths)))   # a component's root is its least index

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i
    first = {}   # each vertex's first path
    for i, path in enumerate(paths):
        for v in path:
            j = first.setdefault(v, i)
            if j != i:
                a, b = find(j), find(i)
                root[max(a, b)] = min(a, b)
    parts = defaultdict(list)
    for i, path in enumerate(paths):
        parts[find(i)].append(path)
    return list(parts.values())


def _least_code(paths, code) -> tuple:
    """The least concatenation of ``_first_appearance`` codes of ``paths``
    (tuples) over their orders and directions, each path's labels carried
    to the next.  Codes are led by their length, so each step takes a least
    next code, which only the shortest remaining paths can give; ties
    branch, and a branch whose prefix is above the best is dropped."""
    best = None

    def search(rest, label, acc):
        nonlocal best
        if best is not None and acc > best[:len(acc)]:
            return
        if not rest:
            best = acc
            return
        low, options = None, []   # the least next code; each tie's labels and path
        shortest = min(len(paths[i]) for i in rest)
        for i in rest:
            if len(paths[i]) > shortest:
                continue
            for p in {paths[i], paths[i][::-1]}:   # a palindrome once
                c, lab = _first_appearance([p], code, dict(label))
                if low is None or c < low:
                    low, options = c, [(lab, i)]
                elif c == low:
                    options.append((lab, i))
        for lab, i in options:
            search(rest - {i}, lab, acc + low)
    search(frozenset(range(len(paths))), {}, ())
    return best


def _first_appearance(paths, code, label: dict) -> tuple[tuple, dict[int, int]]:
    """``paths`` in the given order, each led by its length, a vertex written
    as ``code[v]`` where it first appears and as its label (the number of
    vertices labelled before it) after that; and ``label``, which this adds
    the new vertices to."""
    key = []
    for path in paths:
        key.append(len(path))
        for v in path:
            key.append(label[v] if v in label else code[v])
            label.setdefault(v, len(label))
    return tuple(key), label


_SEARCH_WORK = 10000   # elements refined per component: bounds the branching


def _refine(nbrs, elems, where, cell, end, queue, n: int) -> None:
    """Split the cells of an ordered partition until every two members of a
    cell sit at the same positions on the members of each cell.  ``elems``
    lists the elements cell by cell; ``where[x]`` is x's index there,
    ``cell[x]`` its cell's first index and ``end[c]`` the end of the cell
    that starts at c; ``nbrs[x]`` holds x's (neighbour, position) pairs.
    Each cell taken from ``queue`` splits the cells it touches by their
    members' sorted positions on it, untouched members first.  A split cell
    queues all its parts if it was queued, else all but the largest, so a
    long chain of tied paths settles in O(m log n) (Berkholz, Bonsma &
    Grohe, "Tight lower and upper bounds for the complexity of canonical
    colour refinement", 2017).  Stops once the first n elements lie in
    cells of their own."""
    queued, cells, s = set(queue), 0, 0
    while s < n:
        cells, s = cells + 1, end[s]
    while queue and cells < n:
        s = queue.popleft()
        queued.discard(s)
        sig = defaultdict(list)
        for x in elems[s:end[s]]:
            for y, pos in nbrs[x]:
                sig[y].append(pos)
        touched = defaultdict(list)
        for y, positions in sig.items():
            positions.sort()
            touched[cell[y]].append(y)
        for c in sorted(touched):
            ys, e = touched[c], end[c]
            ys.sort(key=sig.__getitem__)
            mid = e - len(ys)   # the untouched members keep [c, mid)
            starts = [c, mid] if mid > c else [c]
            starts += [mid + k for k in range(1, len(ys)) if sig[ys[k]] != sig[ys[k - 1]]]
            if len(starts) == 1:
                continue
            inside = set(ys)
            holes = [where[y] for y in ys if where[y] < mid]
            for p, q in zip([p for p in range(mid, e) if elems[p] not in inside], holes):
                elems[q] = elems[p]
                where[elems[q]] = q
            for k, y in enumerate(ys, mid):
                elems[k], where[y] = y, k
            if c < n:
                cells += len(starts) - 1
            for a, b in zip(starts, starts[1:] + [e]):
                end[a] = b
            for a in starts[1:]:
                for y in elems[a:end[a]]:
                    cell[y] = a
            if c not in queued:
                starts.remove(max(starts, key=lambda a: end[a] - a))
            new = [a for a in starts if a not in queued]
            queue.extend(new)
            queued.update(new)


def _canonical(paths, code) -> list[tuple[tuple, dict]]:
    """The paths in blocks, each block as its least ``_first_appearance``
    code and its labels, sorted.  Colour refinement (McKay & Piperno,
    "Practical graph isomorphism, II", 2014) orders the paths: a path
    starts from its codes, a vertex from its code and the (path colour,
    position) of its occurrences, a path then takes its vertices' colours.
    If that round tells every path apart they are one block.  Otherwise
    each component of the path-sharing graph is a block, refined by
    ``_refine``, and each path of the first cell left tied is put first in
    turn.  Past ``_SEARCH_WORK`` elements refined, tied paths keep their
    order in ``paths``: copies may then get other keys."""
    occurs: dict[int, list] = defaultdict(list)
    for i, path in enumerate(paths):
        for pos, v in enumerate(path):
            occurs[v].append((i, pos))
    n, alone = len(paths), [tuple([code[v] for v in p]) for p in paths]
    rank = {a: r for r, a in enumerate(sorted(set(alone)))}
    colour = [rank[a] for a in alone]
    vc = {v: (code[v], tuple(sorted([(colour[i], pos) for i, pos in occ])))
          for v, occ in occurs.items()}
    # compared, never hashed: a vertex on many paths is one shared tuple
    colour = [(c, tuple([vc[v] for v in p])) for c, p in zip(colour, paths)]
    order = sorted(range(n), key=colour.__getitem__)
    if all(colour[i] != colour[j] for i, j in zip(order, order[1:])):
        return [_first_appearance([paths[i] for i in order], code, {})]
    parts = _components(paths)
    if len(parts) > 1:
        return sorted((c for part in parts for c in _canonical(part, code)),
                      key=lambda c: c[0])
    # paths are elements 0..n-1, the vertices n.. in order of appearance
    index = {v: n + k for k, v in enumerate(occurs)}
    nbrs = [[(index[v], pos) for pos, v in enumerate(p)] for p in paths] + \
        list(occurs.values())
    start = [(0, c) for c in colour] + [(1, c) for c in vc.values()]
    elems = sorted(range(len(start)), key=start.__getitem__)
    where, cell, end = [0] * len(elems), [0] * len(elems), [0] * len(elems)
    starts = []
    for k, x in enumerate(elems):
        if not k or start[x] != start[elems[k - 1]]:
            starts.append(k)
        where[x], cell[x] = k, starts[-1]
    for a, b in zip(starts, starts[1:] + [len(elems)]):
        end[a] = b
    best, work = [], [0]

    def search(elems, where, cell, end, queue):
        _refine(nbrs, elems, where, cell, end, queue, n)
        work[0] += len(elems)
        s = 0
        while s < n and end[s] == s + 1:
            s += 1
        if s < n and work[0] <= _SEARCH_WORK:
            for p in elems[s:end[s]]:   # put p first in its cell
                if best and work[0] > _SEARCH_WORK:
                    break
                e2, w2, c2, end2 = elems[:], where[:], cell[:], end[:]
                x, q = e2[s], w2[p]
                e2[q], w2[x], e2[s], w2[p] = x, q, p, s
                end2[s], end2[s + 1] = s + 1, end[s]
                for y in e2[s + 1:end[s]]:
                    c2[y] = s + 1
                search(e2, w2, c2, end2, deque([s]))
        else:
            leaf = _first_appearance([paths[i] for i in elems[:n]], code, {})
            if not best or leaf[0] < best[0]:
                best[:] = leaf
    search(elems, where, cell, end, deque(starts))
    return [tuple(best)]


class PartitionedQuiver:
    def __init__(self, vertices, arrows, partition):
        self.vertices: dict[int, Vertex] = {v.id: v for v in vertices}
        self.arrows: dict[int, Arrow] = {a.id: a for a in arrows}
        self.partition: list[list[int]] = [list(p) for p in partition]

    # -- basic helpers ------------------------------------------------------

    def copy(self) -> "PartitionedQuiver":
        return PartitionedQuiver(self.vertices.values(), self.arrows.values(),
                                 self.partition)

    def mutable_ids(self) -> list[int]:
        return sorted(v.id for v in self.vertices.values() if not v.frozen)

    def frozen_ids(self) -> list[int]:
        return sorted(v.id for v in self.vertices.values() if v.frozen)

    def fresh_arrow_id(self) -> int:
        return max(self.arrows, default=0) + 1

    def itineraries(self) -> list[list[int]]:
        """Each path's vertex itinerary in partition order: the source of its
        first arrow, then the target of every arrow (empty for an empty
        path)."""
        arrows = self.arrows
        return [[arrows[p[0]].src, *[arrows[aid].tgt for aid in p]] if p else []
                for p in self.partition]

    def shape(self) -> tuple[tuple, tuple[int, ...]]:
        """``(key, order)``: this quiver up to vertex names and path order
        (paths keep their direction), and its vertex ids in label order, the
        mutable vertices first.

        The key is the vertex count, the number of empty paths, the codes
        of the path blocks of ``_canonical`` and the codes of the vertices
        on no path, last in (frozen, kind, id) order.  The labelling takes
        the vertices in that order, the mutable ones before the frozen.
        Equal keys mean that renaming by ``zip(order, other_order)`` gives
        the other quiver up to arrow ids and path order."""
        vertices = self.vertices
        code = _vertex_codes(vertices)
        paths = [p for p in self.itineraries() if p]
        blocks = _canonical(paths, code)
        label = dict.fromkeys(v for _, lab in blocks for v in lab)
        rest = sorted((v for v in vertices.values() if v.id not in label),
                      key=lambda v: (v.frozen, v.kind, v.id))
        key = (len(vertices), len(self.partition) - len(paths),
               tuple(k for k, _ in blocks), *[code[v.id] for v in rest])
        order = [*label, *[v.id for v in rest]]
        return key, tuple(sorted(order, key=lambda v: vertices[v].frozen))

    def renamed(self, names: dict[int, int]) -> "PartitionedQuiver":
        """This quiver with each vertex id v renamed ``names.get(v, v)``;
        arrow ids, the order of both dicts and the partition stay."""
        get = names.get
        return PartitionedQuiver(
            [Vertex(get(v.id, v.id), v.frozen, v.kind) for v in self.vertices.values()],
            [Arrow(a.id, get(a.src, a.src), get(a.tgt, a.tgt))
             for a in self.arrows.values()],
            self.partition)

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        """Structural diagnostics; empty list means valid."""
        out = []
        seen: Counter = Counter()
        for path in self.partition:
            for aid in path:
                seen[aid] += 1
                if aid not in self.arrows:
                    out.append(f"partition references unknown arrow {aid}")
        for aid in self.arrows:
            if seen[aid] == 0:
                out.append(f"partition-coverage: arrow {aid} is in no path")
            elif seen[aid] > 1:
                out.append(f"partition-coverage: arrow {aid} appears {seen[aid]} times")
        for pi, path in enumerate(self.partition):
            if not path:
                out.append(f"path {pi} is empty")
                continue
            for a, b in zip(path, path[1:]):
                if a in self.arrows and b in self.arrows and \
                        self.arrows[a].tgt != self.arrows[b].src:
                    out.append(f"walk: path {pi} breaks between arrows {a} and {b}")
            first, last = self.arrows.get(path[0]), self.arrows.get(path[-1])
            if first and first.src in self.vertices and \
                    not self.vertices[first.src].frozen:
                out.append(f"path {pi} starts at non-frozen vertex {first.src}")
            if last and last.tgt in self.vertices and \
                    not self.vertices[last.tgt].frozen:
                out.append(f"path {pi} ends at non-frozen vertex {last.tgt}")
        for a in self.arrows.values():
            if a.src not in self.vertices or a.tgt not in self.vertices:
                out.append(f"arrow {a.id} has unknown endpoint")
                continue
            if a.src == a.tgt and self.vertices[a.src].frozen:
                out.append(f"frozen vertex {a.src} carries loop {a.id}")
        for v in self.vertices.values():
            if v.frozen and v.kind != ORDINARY:
                out.append(f"frozen vertex {v.id} has kind {v.kind}")
        return out

    # -- classification -----------------------------------------------------

    def classify_vertex(self, t: int) -> VertexClassification:
        """t's configuration, V1 to V4, with the arrows and vertices in its
        roles.  Expects a valid quiver and reads arrows in partition order,
        not arrow-dict order; raises ``Unclassifiable``, also when the
        partition does not list each arrow once, or ``AmbiguousClosure``."""
        v = self.vertices[t]
        if v.frozen:
            raise Unclassifiable(f"vertex {t} is frozen")
        # each arrow's (path, position) and each vertex's arrows, a loop once
        arrows, loc = self.arrows, {}
        at: dict[int, list[Arrow]] = defaultdict(list)
        for pi, path in enumerate(self.partition):
            for pos, aid in enumerate(path):
                loc[aid] = (pi, pos)
                a = arrows[aid]
                at[a.src].append(a)
                if a.tgt != a.src:
                    at[a.tgt].append(a)
        if not sum(map(len, self.partition)) == len(loc) == len(arrows):
            raise Unclassifiable("the partition does not list each arrow once")
        mine = at[t]
        loops = [a for a in mine if a.src == a.tgt]
        if loops:
            return self._classify_v2(t, mine, loops, loc)
        if v.kind == QUASI:
            return self._classify_v4(t, mine, loc)
        cls = self._try_v3(t, at, loc)
        if cls is not None:
            return cls
        return self._classify_v1(t, at, loc)

    def _two_cycle(self, t: int, arrows, loc, middle) -> tuple[Arrow, Arrow]:
        """The arrows i -> t and t -> i that t's ``arrows`` other than the
        ids ``middle`` must be, with the run i -> t, *middle, t -> i
        consecutive in one path."""
        rest = [a for a in arrows if a.id not in middle]
        ins = [a for a in rest if a.tgt == t]
        outs = [a for a in rest if a.src == t]
        if len(ins) != 1 or len(outs) != 1 or ins[0].src != outs[0].tgt:
            raise Unclassifiable(f"vertex {t}: arrows {[a.id for a in rest]} "
                                 "are not a 2-cycle")
        a_in, a_out = ins[0], outs[0]
        pi, pos = loc[a_in.id]
        run = [*middle, a_out.id]
        if self.partition[pi][pos + 1:pos + 1 + len(run)] != run:
            raise Unclassifiable(
                f"vertex {t}: 2-cycle run {[a_in.id, *run]} not consecutive")
        return a_in, a_out

    def _classify_v2(self, t: int, mine, loops, loc) -> VertexClassification:
        kind = self.vertices[t].kind
        if len(loops) != 1 or kind != ORDINARY:
            raise Unclassifiable(f"{kind} vertex {t} carries {len(loops)} loops")
        loop = loops[0].id
        a1, a3 = self._two_cycle(t, mine, loc, [loop])
        return VertexClassification(V2, t, (a1.id, loop, a3.id), i=a1.src)

    def _classify_v4(self, t: int, mine, loc) -> VertexClassification:
        a1, a2 = self._two_cycle(t, mine, loc, [])
        return VertexClassification(V4, t, (a1.id, a2.id), i=a1.src)

    def _try_v3(self, t: int, at, loc) -> VertexClassification | None:
        # t carries no loop here, so each arrow out of t ends elsewhere
        partners = sorted({a.tgt for a in at[t] if a.src == t
                           and self.vertices[a.tgt].kind == QUASI})
        matches = []
        for j in partners:
            m = self._match_v3(t, j, at, loc)
            if m is not None:
                matches.append(m)
        if not matches:
            return None
        if len(matches) > 1:
            raise AmbiguousClosure(f"vertex {t}: several quasi partners match V3")
        return matches[0]

    def _match_v3(self, t: int, j: int, at, loc) -> VertexClassification | None:
        fwd = [a for a in at[t] if a.src == t and a.tgt == j]
        back = [a for a in at[t] if a.src == j and a.tgt == t]
        if len(fwd) != 1 or len(back) != 1:
            return None
        a2, a3 = fwd[0], back[0]
        pi, pos = loc[a2.id]
        path = self.partition[pi]
        if not (0 < pos and pos + 2 < len(path) and path[pos + 1] == a3.id):
            return None
        a1 = self.arrows[path[pos - 1]]
        a4 = self.arrows[path[pos + 2]]
        if a1.tgt != t or a4.src != t:
            return None
        i, k = a1.src, a4.tgt
        betas = self._closing_arrows(at, loc, (i, (pi, pos - 1)), (k, (pi, pos + 3)))
        if not betas:
            return None
        if len(betas) > 1:
            raise AmbiguousClosure(f"vertex {t}: closing arrow for V3 not unique")
        return VertexClassification(
            V3, t, (a1.id, a2.id, a3.id, a4.id), closures=(betas[0],),
            i=i, j=j, k=k)

    def _closing_arrows(self, at, loc, p_side, q_side) -> list[int]:
        """Arrows joining vertex p to vertex q, in either direction, whose
        slot at p is off arc end p_end and whose slot at q is off q_end.

        ``p_side`` is (p, p_end) and ``q_side`` is (q, q_end); a loop at
        p == q qualifies if either of its two slot assignments does.
        """
        (p, p_end), (q, q_end) = p_side, q_side
        found = []
        for g in at[p]:
            fwd = g.src == p and g.tgt == q
            bwd = g.src == q and g.tgt == p
            if not (fwd or bwd):
                continue
            pi, pos = loc[g.id]
            src_end, tgt_end = (pi, pos), (pi, pos + 1)
            if (fwd and src_end != p_end and tgt_end != q_end) or \
                    (bwd and tgt_end != p_end and src_end != q_end):
                found.append(g.id)
        return found

    def _classify_v1(self, t: int, at, loc) -> VertexClassification:
        # the 2-paths through t: each in-arrow, in path order, and the next
        # arrow of its path
        pairs = []
        for a in at[t]:
            pi, pos = loc[a.id]
            after = self.partition[pi][pos + 1:pos + 2]
            if a.tgt == t and after and self.arrows[after[0]].src == t:
                pairs.append((a.id, after[0]))
        if len(pairs) != 2 or len(at[t]) != 4:
            raise Unclassifiable(
                f"vertex {t}: expected two 2-paths through it, "
                f"found {len(pairs)} (degree {len(at[t])})")
        (a_in, a_out), (b_in, b_out) = pairs
        (ap, apos), (bp, bpos) = loc[a_in], loc[b_in]
        x, y = self.arrows[a_in].src, self.arrows[a_out].tgt
        z, w = self.arrows[b_in].src, self.arrows[b_out].tgt
        outer = {
            "x": (x, (ap, apos)),
            "y": (y, (ap, apos + 2)),
            "z": (z, (bp, bpos)),
            "w": (w, (bp, bpos + 2)),
        }
        t_arrows = {a_in, a_out, b_in, b_out}

        def candidates(p_name, q_name):
            return [g for g in self._closing_arrows(at, loc, outer[p_name],
                                                    outer[q_name])
                    if g not in t_arrows]

        solutions = []
        # pairing A: gamma joins x-w, delta joins y-z -> products (x,z)+(y,w)
        # pairing B: gamma joins x-z, delta joins y-w -> products (x,w)+(y,z)
        for g_names, d_names, prods in (
            (("x", "w"), ("y", "z"), ((x, z), (y, w))),
            (("x", "z"), ("y", "w"), ((x, w), (y, z))),
        ):
            for g in candidates(*g_names):
                for d in candidates(*d_names):
                    if g == d:
                        continue
                    key = (frozenset((g, d)),
                           frozenset(tuple(sorted(p)) for p in prods))
                    solutions.append((key, g, d, prods))
        distinct = {key for key, *_ in solutions}
        if not distinct:
            raise Unclassifiable(f"vertex {t}: no closing pair of arrows")
        if len(distinct) > 1:
            raise AmbiguousClosure(
                f"vertex {t}: {len(distinct)} candidate closing pairs")
        _, g, d, prods = solutions[0]
        return VertexClassification(
            V1, t, (a_in, a_out, b_in, b_out), closures=(g, d),
            product_pairs=prods)

    # -- mutation -----------------------------------------------------------

    def mutate(self, t: int,
               cls: VertexClassification | None = None) -> "PartitionedQuiver":
        """Return the quiver mutated at mutable vertex t.  Functional.

        ``cls`` is ``classify_vertex(t)`` when the caller has already made it;
        a classification of another vertex, or whose arrows or runs are not
        this quiver's, raises ValueError.  Each run of replaced arrows is
        spliced where it lies, found by its first arrow: the runs are
        disjoint, and only the single run of V2 or V4 reuses an id, so each
        first arrow is found once, in its place.
        """
        if cls is None:
            cls = self.classify_vertex(t)
        elif cls.t != t or not self.arrows.keys() >= {*cls.arrows, *cls.closures}:
            raise ValueError(f"a classification of vertex {cls.t} does not fit "
                             f"this quiver at vertex {t}")
        rule = {V1: self._rule_v1, V2: self._rule_v2,
                V3: self._rule_v3, V4: self._rule_v4}[cls.type]
        runs, kind = rule(cls)
        q = self.copy()
        for old, new in runs:
            path = next((p for p in q.partition if old[0] in p), [])
            pos = path.index(old[0]) if path else 0
            if path[pos:pos + len(old)] != old:
                raise ValueError(f"vertex {t}: run {old} does not lie in a path")
            path[pos:pos + len(old)] = [a.id for a in new]
            for aid in old:
                del q.arrows[aid]
        q.arrows.update((a.id, a) for _, new in runs for a in new)
        if kind is not None:
            q.vertices[t] = Vertex(t, frozen=False, kind=kind)
        return q

    # Each rule returns (runs, kind): runs pair a list of consecutive old
    # arrow ids with the arrows replacing them; kind is t's new kind or None.

    def _rule_v1(self, cls: VertexClassification):
        t, arr = cls.t, self.arrows
        a_in, a_out, b_in, b_out = cls.arrows
        g, d = (arr[c] for c in cls.closures)
        nid = self.fresh_arrow_id()
        return [
            ([a_in, a_out], [Arrow(nid, arr[a_in].src, arr[a_out].tgt)]),
            ([b_in, b_out], [Arrow(nid + 1, arr[b_in].src, arr[b_out].tgt)]),
            ([g.id], [Arrow(nid + 2, g.src, t), Arrow(nid + 3, t, g.tgt)]),
            ([d.id], [Arrow(nid + 4, d.src, t), Arrow(nid + 5, t, d.tgt)]),
        ], None

    def _rule_v2(self, cls: VertexClassification):
        # drop the return arrow and retarget the loop so the local picture
        # becomes the 2-cycle i <-> t
        _, loop, a3 = cls.arrows
        return [([loop, a3], [Arrow(loop, cls.t, cls.i)])], QUASI

    def _rule_v3(self, cls: VertexClassification):
        t, j = cls.t, cls.j
        b = self.arrows[cls.closures[0]]
        nid = self.fresh_arrow_id()
        return [
            (list(cls.arrows), [Arrow(nid, cls.i, cls.k)]),
            ([b.id], [Arrow(nid + 1, b.src, t), Arrow(nid + 2, t, j),
                      Arrow(nid + 3, j, t), Arrow(nid + 4, t, b.tgt)]),
        ], None

    def _rule_v4(self, cls: VertexClassification):
        a1, _ = cls.arrows
        loop = Arrow(self.fresh_arrow_id(), cls.t, cls.t)
        return [([a1], [self.arrows[a1], loop])], ORDINARY

    # -- classical rule (for the orientable regression) ----------------------

    def classical_mutation_arrows(self, t: int) -> Counter:
        """Arrow multiset of the classical three-step mutation at t.

        Compose every 2-path through t, reverse all arrows incident to t, then
        cancel created 2-cycles against existing (or created) reverse arrows.
        Partition data is ignored; returns a Counter of (src, tgt) pairs.
        """
        arrows = Counter((a.src, a.tgt) for a in self.arrows.values()
                         if a.src != t and a.tgt != t)
        ins = [a for a in self.arrows.values() if a.tgt == t and a.src != t]
        outs = [a for a in self.arrows.values() if a.src == t and a.tgt != t]
        created = Counter((i.src, o.tgt) for i in ins for o in outs)
        for a in ins:
            arrows[(t, a.src)] += 1
        for a in outs:
            arrows[(a.tgt, t)] += 1
        for pair in sorted(created):
            rev = (pair[1], pair[0])
            while created[pair] > 0 and (arrows[rev] > 0 or created[rev] > 0):
                if arrows[rev] > 0:
                    arrows[rev] -= 1
                else:
                    created[rev] -= 1
                created[pair] -= 1
        arrows.update({p: c for p, c in created.items() if c > 0})
        return Counter({p: c for p, c in arrows.items() if c > 0})

    def arrow_multiset(self) -> Counter:
        return Counter((a.src, a.tgt) for a in self.arrows.values())

    # -- canonical form -------------------------------------------------------

    def canonical_form(self) -> bytes:
        """Byte form invariant under vertex renaming, path order and path
        reversal: ``repr`` of the sorted ``_least_code`` of each component
        of the path-sharing graph, then the sorted ``_vertex_codes`` of the
        vertices on no path.  Empty paths do not count.  Exact, but k tied
        paths through one vertex take time exponential in k."""
        code = _vertex_codes(self.vertices)
        paths = [tuple(p) for p in self.itineraries() if p]
        form = sorted(_least_code(part, code) for part in _components(paths))
        on_path = {v for p in paths for v in p}
        form += sorted(c for v, c in code.items() if v not in on_path)
        return repr(tuple(form)).encode()

    def restrict_to_mutable(self) -> "PartitionedQuiver":
        """Drop frozen vertices and their arrows; trim paths accordingly."""
        keep_v = [v for v in self.vertices.values() if not v.frozen]
        keep_ids = {v.id for v in keep_v}
        keep_a = [a for a in self.arrows.values()
                  if a.src in keep_ids and a.tgt in keep_ids]
        keep_aids = {a.id for a in keep_a}
        part = []
        for path in self.partition:
            trimmed = [aid for aid in path if aid in keep_aids]
            if trimmed:
                part.append(trimmed)
        return PartitionedQuiver(keep_v, keep_a, part)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"id": v.id, "frozen": v.frozen, "kind": v.kind}
                for v in sorted(self.vertices.values(), key=lambda v: v.id)
            ],
            "arrows": [
                {"id": a.id, "src": a.src, "tgt": a.tgt}
                for a in sorted(self.arrows.values(), key=lambda a: a.id)
            ],
            "partition": [list(p) for p in self.partition],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PartitionedQuiver":
        """Inverse of ``to_json``; raises ValueError naming the field when an
        id, an endpoint or a partition entry is not an integer, a vertex's
        ``frozen`` is not a bool or its ``kind`` is not a known kind, and
        naming the id when two vertices or two arrows share one."""
        vertices = [Vertex(_json_int(v["id"], "vertex id"),
                           _json_bool(v.get("frozen", False), "vertex frozen"),
                           _json_kind(v.get("kind", ORDINARY)))
                    for v in data["vertices"]]
        arrows = [Arrow(_json_int(a["id"], "arrow id"),
                        _json_int(a["src"], "arrow src"),
                        _json_int(a["tgt"], "arrow tgt"))
                  for a in data["arrows"]]
        partition = [[_json_int(aid, "partition entry") for aid in path]
                     for path in data["partition"]]
        _json_unique((v.id for v in vertices), "vertex id")
        _json_unique((a.id for a in arrows), "arrow id")
        return cls(vertices, arrows, partition)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def to_dot(self) -> str:
        """DOT export: frozen vertices boxed, arrows coloured per path."""
        palette = ["red", "blue", "forestgreen", "orange", "purple",
                   "brown", "deeppink", "cadetblue"]
        lines = ["digraph pquiver {"]
        for v in sorted(self.vertices.values(), key=lambda v: v.id):
            shape = "box" if v.frozen else ("diamond" if v.kind == QUASI else "circle")
            lines.append(f'  "{v.id}" [shape={shape}];')
        path_of = {aid: pi for pi, path in enumerate(self.partition) for aid in path}
        for a in sorted(self.arrows.values(), key=lambda a: a.id):
            color = palette[path_of.get(a.id, 0) % len(palette)]
            lines.append(f'  "{a.src}" -> "{a.tgt}" [color={color}];')
        lines.append("}")
        return "\n".join(lines)
