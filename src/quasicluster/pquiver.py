"""Partitioned quivers: vertices with a frozen set, arrows, and a partition
of the arrows into paths, plus vertex-type classification and the four local
mutation rules.

The partition paths come from boundary marked points of a surface; every path
starts and ends at a frozen vertex.  Two arrow slots at a vertex belong to the
same arc end exactly when the arrows are consecutive inside a partition path,
which is what the closure search below relies on.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass


ORDINARY = "ordinary"
QUASI = "quasi"

V1, V2, V3, V4 = "V1", "V2", "V3", "V4"


class ClassificationError(ValueError):
    """The local configuration at a vertex matches no supported type."""


class Unclassifiable(ClassificationError):
    pass


class AmbiguousClosure(ClassificationError):
    """More than one candidate closing pair; refusing to guess."""


@dataclass(frozen=True)
class Vertex:
    id: int
    frozen: bool = False
    kind: str = ORDINARY


@dataclass(frozen=True)
class Arrow:
    id: int
    src: int
    tgt: int


@dataclass(frozen=True)
class VertexClassification:
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

    def incident(self, t: int) -> list[Arrow]:
        return [a for a in self.arrows.values() if a.src == t or a.tgt == t]

    def _path_of(self, arrow_id: int) -> tuple[int, int]:
        for pi, path in enumerate(self.partition):
            for pos, aid in enumerate(path):
                if aid == arrow_id:
                    return pi, pos
        raise KeyError(f"arrow {arrow_id} is in no partition path")

    def _slot_ends(self) -> dict[tuple[int, str], int]:
        """Assign an arc-end id to every arrow slot.

        A slot is (arrow id, "src"|"tgt").  The target slot of a path arrow
        and the source slot of its successor share one end; the outermost
        slots of each path get ends of their own.
        """
        ends: dict[tuple[int, str], int] = {}
        nxt = 0
        for path in self.partition:
            for pos, aid in enumerate(path):
                if (aid, "src") not in ends:
                    ends[(aid, "src")] = nxt
                    nxt += 1
                ends[(aid, "tgt")] = nxt
                if pos + 1 < len(path):
                    ends[(path[pos + 1], "src")] = nxt
                nxt += 1
        return ends

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
            if first and not self.vertices[first.src].frozen:
                out.append(f"path {pi} starts at non-frozen vertex {first.src}")
            if last and not self.vertices[last.tgt].frozen:
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
        v = self.vertices[t]
        if v.frozen:
            raise Unclassifiable(f"vertex {t} is frozen")
        loops = [a for a in self.arrows.values() if a.src == t and a.tgt == t]
        if loops:
            return self._classify_v2(t, loops)
        if v.kind == QUASI:
            return self._classify_v4(t)
        cls = self._try_v3(t)
        if cls is not None:
            return cls
        return self._classify_v1(t)

    def _through_pairs(self, t: int) -> list[tuple[int, int]]:
        """Consecutive path pairs (a, b) with target(a) == source(b) == t."""
        pairs = []
        for path in self.partition:
            for a, b in zip(path, path[1:]):
                if self.arrows[a].tgt == t and self.arrows[b].src == t:
                    pairs.append((a, b))
        return pairs

    def _classify_v2(self, t: int, loops) -> VertexClassification:
        if len(loops) != 1:
            raise Unclassifiable(f"vertex {t} carries {len(loops)} loops")
        if self.vertices[t].kind != ORDINARY:
            raise Unclassifiable(f"quasi vertex {t} carries a loop")
        loop = loops[0]
        others = [a for a in self.incident(t) if a.id != loop.id]
        if len(others) != 2:
            raise Unclassifiable(f"vertex {t}: loop with {len(others)} companions")
        ins = [a for a in others if a.tgt == t]
        outs = [a for a in others if a.src == t]
        if len(ins) != 1 or len(outs) != 1 or ins[0].src != outs[0].tgt:
            raise Unclassifiable(f"vertex {t}: bad loop companions")
        a1, a3 = ins[0], outs[0]
        pi, pos = self._path_of(a1.id)
        path = self.partition[pi]
        if pos + 2 >= len(path) or path[pos + 1] != loop.id or path[pos + 2] != a3.id:
            raise Unclassifiable(f"vertex {t}: [a1 loop a3] not consecutive")
        return VertexClassification(V2, t, (a1.id, loop.id, a3.id), i=a1.src)

    def _classify_v4(self, t: int) -> VertexClassification:
        inc = self.incident(t)
        if len(inc) != 2:
            raise Unclassifiable(f"quasi vertex {t} has {len(inc)} arrows")
        ins = [a for a in inc if a.tgt == t]
        outs = [a for a in inc if a.src == t]
        if len(ins) != 1 or len(outs) != 1 or ins[0].src != outs[0].tgt:
            raise Unclassifiable(f"quasi vertex {t} is not in a 2-cycle")
        a1, a2 = ins[0], outs[0]
        pi, pos = self._path_of(a1.id)
        path = self.partition[pi]
        if pos + 1 >= len(path) or path[pos + 1] != a2.id:
            raise Unclassifiable(f"quasi vertex {t}: 2-cycle not consecutive")
        return VertexClassification(V4, t, (a1.id, a2.id), i=a1.src)

    def _try_v3(self, t: int) -> VertexClassification | None:
        partners = sorted({
            a.tgt for a in self.arrows.values() if a.src == t
            and a.tgt != t and self.vertices[a.tgt].kind == QUASI
        })
        matches = []
        for j in partners:
            m = self._match_v3(t, j)
            if m is not None:
                matches.append(m)
        if not matches:
            return None
        if len(matches) > 1:
            raise AmbiguousClosure(f"vertex {t}: several quasi partners match V3")
        return matches[0]

    def _match_v3(self, t: int, j: int) -> VertexClassification | None:
        fwd = [a for a in self.arrows.values() if a.src == t and a.tgt == j]
        back = [a for a in self.arrows.values() if a.src == j and a.tgt == t]
        if len(fwd) != 1 or len(back) != 1:
            return None
        a2, a3 = fwd[0], back[0]
        pi, pos = self._path_of(a2.id)
        path = self.partition[pi]
        if not (0 < pos and pos + 2 < len(path) and path[pos + 1] == a3.id):
            return None
        a1 = self.arrows[path[pos - 1]]
        a4 = self.arrows[path[pos + 2]]
        if a1.tgt != t or a4.src != t:
            return None
        i, k = a1.src, a4.tgt
        ends = self._slot_ends()
        betas = []
        for g in self.arrows.values():
            for i_role, k_role in self._join_assignments(g, i, k):
                if ends[(g.id, i_role)] != ends[(a1.id, "src")] and \
                        ends[(g.id, k_role)] != ends[(a4.id, "tgt")]:
                    betas.append(g.id)
                    break
        if not betas:
            return None
        if len(set(betas)) > 1:
            raise AmbiguousClosure(f"vertex {t}: closing arrow for V3 not unique")
        return VertexClassification(
            V3, t, (a1.id, a2.id, a3.id, a4.id), closures=(betas[0],),
            i=i, j=j, k=k)

    @staticmethod
    def _join_assignments(g: Arrow, p: int, q: int):
        """Slot-role assignments under which arrow g joins vertices p and q."""
        out = []
        if p == q:
            if g.src == p and g.tgt == p:
                out = [("src", "tgt"), ("tgt", "src")]
        else:
            if g.src == p and g.tgt == q:
                out = [("src", "tgt")]
            elif g.src == q and g.tgt == p:
                out = [("tgt", "src")]
        return out

    def _classify_v1(self, t: int) -> VertexClassification:
        pairs = self._through_pairs(t)
        inc = self.incident(t)
        if len(pairs) != 2 or len(inc) != 4:
            raise Unclassifiable(
                f"vertex {t}: expected two 2-paths through it, "
                f"found {len(pairs)} (degree {len(inc)})")
        (a_in, a_out), (b_in, b_out) = pairs
        ends = self._slot_ends()
        x, y = self.arrows[a_in].src, self.arrows[a_out].tgt
        z, w = self.arrows[b_in].src, self.arrows[b_out].tgt
        outer = {
            "x": (x, ends[(a_in, "src")]),
            "y": (y, ends[(a_out, "tgt")]),
            "z": (z, ends[(b_in, "src")]),
            "w": (w, ends[(b_out, "tgt")]),
        }
        t_arrows = {a_in, a_out, b_in, b_out}

        def candidates(p_name, q_name):
            (pv, pe), (qv, qe) = outer[p_name], outer[q_name]
            found = []
            for g in self.arrows.values():
                if g.id in t_arrows:
                    continue
                for p_role, q_role in self._join_assignments(g, pv, qv):
                    if ends[(g.id, p_role)] != pe and ends[(g.id, q_role)] != qe:
                        found.append(g.id)
                        break
            return found

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

        ``cls`` is ``classify_vertex(t)`` when the caller has already made it.
        """
        if cls is None:
            cls = self.classify_vertex(t)
        q = self.copy()
        if cls.type == V1:
            q._mutate_v1(cls)
        elif cls.type == V2:
            q._mutate_v2(cls)
        elif cls.type == V3:
            q._mutate_v3(cls)
        else:
            q._mutate_v4(cls)
        return q

    def _splice(self, old: list[int], new_arrows: list[Arrow]):
        """Replace the consecutive run `old` in its path by `new_arrows`."""
        pi, pos = self._path_of(old[0])
        path = self.partition[pi]
        assert path[pos:pos + len(old)] == old, "roles are not path-consecutive"
        for aid in old:
            del self.arrows[aid]
        for a in new_arrows:
            self.arrows[a.id] = a
        self.partition[pi][pos:pos + len(old)] = [a.id for a in new_arrows]

    def _mutate_v1(self, cls: VertexClassification):
        t = cls.t
        a_in, a_out, b_in, b_out = cls.arrows
        gamma, delta = cls.closures
        nid = self.fresh_arrow_id()
        contraction_a = Arrow(nid, self.arrows[a_in].src, self.arrows[a_out].tgt)
        contraction_b = Arrow(nid + 1, self.arrows[b_in].src, self.arrows[b_out].tgt)
        g, d = self.arrows[gamma], self.arrows[delta]
        exp_g = [Arrow(nid + 2, g.src, t), Arrow(nid + 3, t, g.tgt)]
        exp_d = [Arrow(nid + 4, d.src, t), Arrow(nid + 5, t, d.tgt)]
        self._splice([a_in, a_out], [contraction_a])
        self._splice([b_in, b_out], [contraction_b])
        self._splice([gamma], exp_g)
        self._splice([delta], exp_d)

    def _mutate_v2(self, cls: VertexClassification):
        t = cls.t
        a1, loop, a3 = cls.arrows
        i = self.arrows[a3].tgt
        # delete the return arrow and retarget the loop so the local picture
        # becomes the 2-cycle i <-> t
        pi, pos = self._path_of(a3)
        del self.partition[pi][pos]
        del self.arrows[a3]
        self.arrows[loop] = Arrow(loop, t, i)
        self.vertices[t] = Vertex(t, frozen=False, kind=QUASI)

    def _mutate_v3(self, cls: VertexClassification):
        t, j = cls.t, cls.j
        a1, a2, a3, a4 = cls.arrows
        beta = cls.closures[0]
        nid = self.fresh_arrow_id()
        contraction = Arrow(nid, self.arrows[a1].src, self.arrows[a4].tgt)
        b = self.arrows[beta]
        expansion = [
            Arrow(nid + 1, b.src, t),
            Arrow(nid + 2, t, j),
            Arrow(nid + 3, j, t),
            Arrow(nid + 4, t, b.tgt),
        ]
        self._splice([a1, a2, a3, a4], [contraction])
        self._splice([beta], expansion)

    def _mutate_v4(self, cls: VertexClassification):
        t = cls.t
        a1, a2 = cls.arrows
        loop = Arrow(self.fresh_arrow_id(), t, t)
        pi, pos = self._path_of(a1)
        self.arrows[loop.id] = loop
        self.partition[pi].insert(pos + 1, loop.id)
        self.vertices[t] = Vertex(t, frozen=False, kind=ORDINARY)

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
        """Byte form invariant under id renaming and whole-path reversal.

        Each path is encoded as its vertex itinerary with first-appearance
        labelling; the minimum over path orders and per-path reversals is
        canonical.  Ties branch, so the result is exact.
        """
        seqs = []
        for path in self.partition:
            if not path:
                continue
            seq = [self.arrows[path[0]].src]
            seq.extend(self.arrows[aid].tgt for aid in path)
            seqs.append(seq)
        on_path = {v for s in seqs for v in s}

        def attr(vid):
            v = self.vertices[vid]
            return (1 if v.frozen else 0, v.kind)

        isolated = sorted(attr(v) for v in self.vertices if v not in on_path)
        best: list | None = None

        def segment(seq, labels):
            labels = dict(labels)
            toks = []
            for vid in seq:
                if vid in labels:
                    toks.append((2, labels[vid], "", 0))
                else:
                    labels[vid] = len(labels)
                    f, kind = attr(vid)
                    toks.append((1, 0, kind, f))
            return toks, labels

        def rec(remaining, labels, acc):
            nonlocal best
            if best is not None and acc > best[:len(acc)]:
                return
            if not remaining:
                cand = acc + [(0, 0, "", 0)] + [(3, f, kind, 0) for f, kind in isolated]
                if best is None or cand < best:
                    best = cand
                return
            options = []
            for idx in sorted(remaining):
                for flip in (False, True):
                    seq = seqs[idx][::-1] if flip else seqs[idx]
                    toks, nl = segment(seq, labels)
                    options.append((toks, idx, nl))
            lo = min(t for t, _, _ in options)
            # ties must all branch: equal segments can still label shared
            # vertices differently and diverge later
            for toks, idx, nl in options:
                if toks == lo:
                    rec(remaining - {idx}, nl, acc + toks + [(0, 0, "", 0)])

        rec(frozenset(range(len(seqs))), {}, [])
        assert best is not None
        return repr(best).encode()

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
        vertices = [Vertex(v["id"], bool(v.get("frozen", False)),
                           v.get("kind", ORDINARY)) for v in data["vertices"]]
        arrows = [Arrow(a["id"], a["src"], a["tgt"]) for a in data["arrows"]]
        return cls(vertices, arrows, data["partition"])

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
        path_of = {}
        for pi, path in enumerate(self.partition):
            for aid in path:
                path_of[aid] = pi
        for a in sorted(self.arrows.values(), key=lambda a: a.id):
            color = palette[path_of.get(a.id, 0) % len(palette)]
            lines.append(f'  "{a.src}" -> "{a.tgt}" [color={color}];')
        lines.append("}")
        return "\n".join(lines)
