"""Seeds, exchange relations, exchange-graph exploration and counting checks.

A seed assigns an exact Laurent form to every mutable vertex of a partitioned
quiver; frozen vertices carry invertible coefficient symbols (or the constant
1 in coefficient-free mode).  Exploration is a breadth-first closure under
mutation at every mutable vertex, deduplicating clusters as unordered
multisets of canonical variable serializations.
"""
from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from types import MappingProxyType
from typing import NamedTuple

from .laurent import Context, DenominatorVector, LaurentForm, LaurentViolation
from .pquiver import V1, V2, V3, V4, PartitionedQuiver, VertexClassification


class Shape:
    """A quiver up to vertex names and path order: the key of
    ``PartitionedQuiver.shape``, one representative quiver with that key and
    the representative's vertex ids in label order, so a keyed shape labels
    its n mutable vertices 0..n-1.  The child of a plain ``mutate_seed``
    call holds an unkeyed shape, key None: its seed's quiver in the seed's
    vertex order.  Never edited; equal only to itself."""

    __slots__ = ("key", "quiver", "order")

    def __init__(self, key: tuple, quiver: PartitionedQuiver,
                 order: tuple[int, ...]):
        self.key, self.quiver, self.order = key, quiver, order


class ValueTable:
    """Values interned as small ints, in the order first met: ``values[i]``
    and ``ids``, value -> id.  Values are told apart by equality, which on
    reduced values is equality of their serializations."""

    __slots__ = ("values", "ids")

    def __init__(self):
        self.values, self.ids = [], {}

    def intern(self, value) -> int:
        i = self.ids.setdefault(value, len(self.values))
        if i == len(self.values):
            self.values.append(value)
        return i


class Seed:
    """A quiver with a value at every vertex.

    The quiver is held as a shape and this seed's vertex ids in label order:
    it is the shape's representative with the vertex labelled i renamed
    ``order[i]``, rebuilt on each access of ``quiver``, so seeds of one
    cluster agree up to arrow ids and path order.  ``ids`` holds the id in
    ``table`` of the value at each label, frozen vertices included; the
    read-only ``values`` is built from it on each access, in the order of
    ``mutables``, the vertices first given values.  ``Seed(quiver, context,
    values, frozen)`` makes the given quiver its representative.
    """

    __slots__ = ("shape", "order", "ids", "table", "context", "frozen", "mutables")

    def __init__(self, quiver: PartitionedQuiver, context: Context,
                 values: dict, frozen: dict):
        key, order = quiver.shape()
        self.context, self.frozen, self.mutables = context, frozen, tuple(values)
        self.shape, self.order, self.table = Shape(key, quiver, order), order, ValueTable()
        self.ids = tuple(map(self.table.intern, map({**frozen, **values}.__getitem__, order)))

    def _moved(self, shape: Shape, order: tuple, ids: tuple, table: ValueTable) -> Seed:
        """A seed with this one's context, frozen values and mutable vertices."""
        s = object.__new__(Seed)
        s.context, s.frozen, s.mutables = self.context, self.frozen, self.mutables
        s.shape, s.order, s.ids, s.table = shape, order, ids, table
        return s

    def _in(self, table: ValueTable) -> Seed:
        """This seed keyed, with its value ids in ``table``: itself, or a copy
        that interns its values there (one made by plain ``mutate_seed``
        calls is built anew, which keys its shape)."""
        if self.shape.key is None:
            return Seed(self.quiver, self.context, self.values, self.frozen)._in(table)
        if self.table is table:
            return self
        ids = tuple(table.intern(self.table.values[i]) for i in self.ids)
        return self._moved(self.shape, self.order, ids, table)

    @property
    def quiver(self) -> PartitionedQuiver:
        shape = self.shape
        if self.order is shape.order:   # the representative's own names
            return shape.quiver.copy()
        return shape.quiver.renamed(dict(zip(shape.order, self.order)))

    def _read(self) -> PartitionedQuiver:
        """``quiver`` for reading only: a seed in its shape's own vertex
        order holds that shape's quiver, which is returned uncopied."""
        shape = self.shape
        return shape.quiver if self.order is shape.order else self.quiver

    @property
    def values(self) -> MappingProxyType:
        at, values = dict(zip(self.order, self.ids)), self.table.values
        return MappingProxyType({v: values[at[v]] for v in self.mutables})

    def value_of(self, v: int):
        return self.table.values[self.ids[self.order.index(v)]]

    def cluster_key(self) -> tuple[bytes, ...]:
        return tuple(sorted(v.canonical_serialize() for v in self.values.values()))


def initial_seed(quiver: PartitionedQuiver, coeff_free: bool = False,
                 tracking: str = "exact") -> Seed:
    """Distinguished seed: x_v at each mutable vertex, y_b at each frozen
    (the constant 1 when coeff_free).

    tracking="denominator" replaces every value by its exact denominator
    vector; the exchange recursion maps through the valuation exactly, which
    keeps deep infinite-type explorations affordable.
    """
    if tracking not in ("exact", "denominator"):
        raise ValueError(f"unknown tracking mode {tracking!r}")
    mutables = quiver.mutable_ids()
    frozens = quiver.frozen_ids()
    ctx = Context(len(mutables), len(frozens))
    cls = LaurentForm if tracking == "exact" else DenominatorVector
    values = {v: cls.variable(i, ctx.nvars) for i, v in enumerate(mutables)}
    if coeff_free:
        one = cls.one(ctx.nvars)
        frozen = {v: one for v in frozens}
    else:
        frozen = {v: cls.variable(ctx.n_cluster + i, ctx.nvars)
                  for i, v in enumerate(frozens)}
    return Seed(quiver, ctx, values, frozen)


def exchange_value(seed: Seed, cls: VertexClassification):
    """The exchange polynomial E with x_t * x_t' = E, per vertex type."""
    val = seed.value_of
    if cls.type == V1:
        (a, b), (c, d) = cls.product_pairs
        return val(a) * val(b) + val(c) * val(d)
    if cls.type in (V2, V4):
        return val(cls.i)
    # V3: outer neighbours i, k; quasi partner j
    s = val(cls.i) + val(cls.k)
    return s * s + val(cls.i) * val(cls.j) * val(cls.j) * val(cls.k)


def relation_text(cls: VertexClassification, seed: Seed) -> str:
    """Human-readable exchange relation instance, naming vertices by their
    symbol in ``seed``: x by mutable rank, y by frozen rank, matching the
    rendered values."""
    names = {v: f"x{i + 1}" for i, v in enumerate(sorted(seed.mutables))}
    names.update((v, f"y{i + 1}") for i, v in enumerate(sorted(seed.frozen)))
    nm = names.__getitem__
    if cls.type == V1:
        (a, b), (c, d) = cls.product_pairs
        rhs = f"{nm(a)}*{nm(b)} + {nm(c)}*{nm(d)}"
    elif cls.type in (V2, V4):
        rhs = nm(cls.i)
    else:
        i, j, k = cls.i, cls.j, cls.k
        rhs = f"({nm(i)} + {nm(k)})^2 + {nm(i)}*{nm(j)}^2*{nm(k)}"
    return f"[{cls.type}] {nm(cls.t)} * {nm(cls.t)}' = {rhs}"


def _relation_key(cls: VertexClassification, ids: tuple[int, ...]) -> tuple:
    """What E / x_t depends on, up to the symmetries of E, for ``cls``
    naming vertices by label: the V-type, the value ids of the inputs (V1:
    each product's two sorted, then the products sorted; V3: i and k sorted,
    then j) and the value id at t."""
    if cls.type == V1:
        (a, b), (c, d) = [sorted([ids[u], ids[v]]) for u, v in cls.product_pairs]
        inputs = (a, b, c, d) if (a, b) <= (c, d) else (c, d, a, b)
    elif cls.type in (V2, V4):
        inputs = ids[cls.i]
    else:
        i, k = sorted([ids[cls.i], ids[cls.k]])
        inputs = (i, k, ids[cls.j])
    return cls.type, inputs, ids[cls.t]


def mutate_seed(seed: Seed, t: int, cls: VertexClassification | None = None,
                memo: dict | None = None) -> Seed:
    """Mutate at vertex t: new quiver plus the exchanged variable at t.

    Without ``memo`` this is one direct step: the seed's quiver is classified
    at t (unless ``cls`` is that classification, as for
    ``PartitionedQuiver.mutate``) and mutated, the new value joins the seed's
    table, and the child holds that mutation, ``seed.quiver.mutate(t)`` to
    the byte, as an unkeyed shape.  A seed in its shape's own vertex order
    holds that shape's quiver, which the step reads uncopied, since neither
    call edits its quiver.  ``memo`` is a dict shared by repeated
    calls, which take no ``cls``: the ``ValueTable`` of the ids (a seed with
    another table, or unkeyed, is interned there first), shape key ->
    ``Shape``, each shape's row of ``_transition`` results by label, and the
    id of E / x_t by V-type, input ids and old id.  The V1-V4 rules never
    read vertex names, so the representative of the seed's shape is
    classified and mutated at the vertex labelled like t, and the
    classification, kept by label, reads the seed's value ids: a memo'd
    child equals ``seed.quiver.mutate(t)`` up to arrow ids and path order,
    and relations that differ only by the symmetries of E share one entry.
    """
    if memo is None:
        quiver, ids = seed._read(), list(seed.ids)
        cls = cls or quiver.classify_vertex(t)
        child = Shape(None, quiver.mutate(t, cls), seed.order)
        ids[seed.order.index(t)] = seed.table.intern(_exchanged(seed, cls, t))
        return seed._moved(child, child.order, tuple(ids), seed.table)
    if cls is not None:
        raise TypeError("mutate_seed takes cls or memo, not both")
    table = memo.get(ValueTable) or memo.setdefault(ValueTable, ValueTable())
    seed = seed._in(table)
    ids, shape, order = seed.ids, seed.shape, seed.order
    row = memo.get(shape)
    if row is None:   # a shape not met yet, or a copy of one met
        shape = memo.setdefault(shape.key, shape)
        row = memo.setdefault(shape, [None] * len(order))
    try:
        i = order.index(t)
        if row[i] is None or row[i][0] is None:   # not met, or met as an inverse
            row[i] = _transition(shape, i, memo, row[i])
    except ValueError:   # t is no vertex, or a ClassificationError
        seed.quiver.classify_vertex(t)   # raise it naming the seed's vertices
        raise
    cls, child, perm = row[i]
    key = _relation_key(cls, ids)
    new = memo.get(key)
    if new is None:
        new = memo[key] = table.intern(_exchanged(seed, cls.renamed(order), t))
    corder = tuple(map((order + (t,)).__getitem__, perm))
    if corder == child.order:
        corder = child.order   # then ``quiver`` copies the representative
    return seed._moved(child, corder, tuple(map((ids + (new,)).__getitem__, perm)),
                       table)


def _exchanged(seed: Seed, cls: VertexClassification, t: int):
    """E / x_t for ``cls``, which names the seed's vertices."""
    try:
        return exchange_value(seed, cls).divide(seed.value_of(t))
    except LaurentViolation as exc:
        raise LaurentViolation(
            f"Laurent phenomenon falsified at vertex {t}: {exc}") from exc


class LimitExceeded(RuntimeError):
    """Exploration hit its budget; carries the partial graph."""

    def __init__(self, message: str, graph: "ExchangeGraph"):
        super().__init__(message)
        self.graph = graph


class ExchangeGraph:
    """What ``explore`` finds, filled in as it runs."""

    def __init__(self):
        self.nodes: dict[tuple, Seed] = {}
        self.adjacency: dict[tuple, dict[int, tuple]] = {}
        self.complete: set = set()
        self.paths: dict[tuple, tuple[int, ...]] = {}
        self.variables: dict[bytes, tuple[LaurentForm, tuple[int, ...]]] = {}
        self.root, self.closed = None, False

    def node_count(self) -> int:
        return len(self.nodes)

    def _edges(self):
        """(k, t, ck) for each edge {k, ck}, with the first vertex label
        recorded for it."""
        first = {}
        for k, nbrs in self.adjacency.items():
            for t, ck in nbrs.items():
                first.setdefault(frozenset((k, ck)), (k, t, ck))
        return first.values()

    def edge_count(self) -> int:
        return len(self._edges())

    def variable_count(self) -> int:
        return len(self.variables)

    def degree_audit(self) -> list[str]:
        """Every complete node has one distinct neighbour cluster per vertex."""
        out = []
        for k in self.complete:
            nbrs = self.adjacency.get(k, {})
            n = len(self.nodes[k].values)
            if len(nbrs) != n:
                out.append(f"node has {len(nbrs)} mutations, expected {n}")
            targets = list(nbrs.values())
            if len(set(targets)) != len(targets):
                out.append("two mutations reach the same neighbour cluster")
            if k in targets:
                out.append("a mutation fixed the cluster")
        return out

    def connectivity_audit(self) -> bool:
        """Every node reachable from the root along recorded edges."""
        if self.root is None:
            return False
        undirected: dict[tuple, set] = {k: set() for k in self.nodes}
        for k, nbrs in self.adjacency.items():
            for ck in nbrs.values():
                undirected[k].add(ck)
                undirected[ck].add(k)
        seen = {self.root}
        stack = [self.root]
        while stack:
            k = stack.pop()
            for nk in undirected[k]:
                if nk not in seen:
                    seen.add(nk)
                    stack.append(nk)
        return len(seen) == len(self.nodes)

    def to_json(self) -> dict:
        """Nodes in key order and one ``edges`` entry per (node pair, vertex
        label): an edge whose two ends label it differently appears twice,
        so the distinct (a, b) pairs number ``edge_count()``."""
        keys = sorted(self.nodes)
        index = {k: i for i, k in enumerate(keys)}
        edges = sorted(
            {(min(index[k], index[ck]), max(index[k], index[ck]), t)
             for k, nbrs in self.adjacency.items() for t, ck in nbrs.items()})
        ctx = None
        if keys:
            ctx = self.nodes[keys[0]].context
        return {
            "nodes": [
                {
                    "index": index[k],
                    "complete": k in self.complete,
                    "witness_path": list(self.paths[k]),
                    "cluster": [v.decode() for v in k],
                }
                for k in keys
            ],
            "edges": [{"a": a, "b": b, "vertex": t} for a, b, t in edges],
            "variables": sorted(
                value.render(ctx) if ctx else ser.decode()
                for ser, (value, _) in self.variables.items()),
            "closed": self.closed,
        }

    def to_dot(self) -> str:
        keys = sorted(self.nodes)
        index = {k: i for i, k in enumerate(keys)}
        lines = ["graph exchange {"]
        for k in keys:
            style = "" if k in self.complete else " [style=dashed]"
            lines.append(f'  "{index[k]}"{style};')
        for k, t, ck in self._edges():
            lines.append(f'  "{index[k]}" -- "{index[ck]}" [label="{t}"];')
        lines.append("}")
        return "\n".join(lines)


class SeedMismatch(RuntimeError):
    """Two seeds with one cluster carry different quivers under the map
    that matches their values: the cluster does not determine the seed."""


def match_seeds(child: Seed, stored: Seed) -> dict[int, int] | None:
    """Map the mutable vertices of ``child`` to those of ``stored``, two seeds
    with the same cluster, by equal value serialization.

    Returns None when a value repeats in the cluster, since no one-to-one map
    exists then.  Raises SeedMismatch unless the two quivers agree under the
    map, frozen vertices mapping to themselves, up to arrow ids and path
    order: the same (id, frozen, kind) for every vertex and the same
    multiset of path itineraries.
    """
    values = stored.values
    at = {lf.canonical_serialize(): v for v, lf in values.items()}
    if len(at) != len(values):
        return None
    rename = {v: at[lf.canonical_serialize()] for v, lf in child.values.items()}
    mine, theirs = child.quiver.renamed(rename), stored.quiver
    if (mine.vertices, sorted(mine.itineraries())) != \
            (theirs.vertices, sorted(theirs.itineraries())):
        raise SeedMismatch("two seeds of one cluster carry different quivers "
                           "under the map that matches their values")
    return rename


def _transition(shape: Shape, i: int, memo: dict, inverse: tuple | None = None) -> tuple:
    """Classify and mutate the representative of ``shape`` at label i: the
    classification by label, the child's shape (interned in ``memo``, key ->
    shape) and, at each label of the child, the label of its vertex in
    ``shape`` or len(order) at the mutated vertex, one byte each where that
    suffices.  Mutation is an involution, so the child's empty entry at t
    gets the way back: ``inverse``, such an entry, lacks only the
    classification, and with it the representative is not mutated."""
    order, rep = shape.order, shape.quiver
    t, n = order[i], len(order)
    cls = rep.classify_vertex(t)
    label = dict(zip(order, range(n)))
    if inverse is not None:
        return cls.renamed(label), inverse[1], inverse[2]
    quiver = rep.mutate(t, cls)
    key, corder = quiver.shape()
    child = memo.get(key)
    if child is None:
        child = memo[key] = Shape(key, quiver, corder)
    clabel = dict(zip(corder, range(n)))
    perm = [label[v] for v in corder]
    perm[clabel[t]] = n
    back = memo.setdefault(child, [None] * n)
    if back[clabel[t]] is None:
        inv = [clabel[v] for v in order]
        inv[i] = n
        back[clabel[t]] = None, shape, bytes(inv) if n < 256 else tuple(inv)
    return cls.renamed(label), child, bytes(perm) if n < 256 else tuple(perm)


def explore(seed: Seed, max_nodes: int = 100000,
            max_depth: int | None = None) -> ExchangeGraph:
    """Breadth-first closure under mutation with cluster deduplication.

    Raises LimitExceeded (carrying the partial graph) when the node budget or
    depth cap cuts the closure short; the budget is checked as each child is
    built, so no child is computed past it.  Deterministic: FIFO frontier,
    vertices in ascending order.

    One ``mutate_seed`` memo serves this call and no other, so separate
    calls on the same seed do the same work.  Every keyed seed labels its
    n mutable vertices 0..n-1, so a cluster is told apart by its sorted
    value ids ``ids[:n]`` in the memo's table.  Each variable is
    serialized once, and a new cluster's key of sorted serializations is its
    parent's with the one at t swapped.  Each edge of the exchange graph is
    computed once, since mutation is an involution.  A cluster first created
    from k by mutating at t records k as its neighbour at t.  A cluster
    found again from k at t keeps the seed of the path that created it, so
    its vertex back to k is the vertex u whose value equals the new value
    at t: the one labelled like t if both seeds have one shape, equal ids
    and their frozen vertices at the same labels, n and up, else by
    ``match_seeds`` (which raises SeedMismatch if the stored seed's quiver
    differs from the new one under that value map).  That edge is held
    until the cluster is expanded and only then recorded at u, the moment
    it would be computed, so the graph, partial graphs included, is the one
    that mutating at u would give.  Held edges of clusters never expanded
    are dropped; a cluster that repeats a value holds none.
    """
    g = ExchangeGraph()
    table = ValueTable()
    memo: dict = {ValueTable: table}
    vals = table.values
    found: dict = {}    # sorted mutable value ids -> cluster key
    pending: dict = {}  # unexpanded cluster -> {vertex: neighbour cluster}
    text: dict = {}     # value id -> serialization, for each variable
    mutables = seed.quiver.mutable_ids()
    n = len(mutables)
    seed = seed._in(table)
    for lf in seed.values.values():
        ser = text.setdefault(table.intern(lf), lf.canonical_serialize())
        g.variables.setdefault(ser, (lf, ()))
    root = seed.ids[:n]
    k0 = found[tuple(sorted(root))] = tuple(sorted([text[i] for i in root]))
    g.nodes[k0] = seed
    g.paths[k0] = ()
    g.root = k0
    queue = deque([k0])
    while queue:
        k = queue.popleft()
        path = g.paths[k]
        if max_depth is not None and len(path) >= max_depth:
            continue
        s = g.nodes[k]
        nbrs = g.adjacency.setdefault(k, {})
        held = pending.pop(k, {})
        for t in mutables:
            if t in nbrs:
                continue   # the mutation that created k leads back to its parent
            if t in held:
                nbrs[t] = held[t]   # found from that neighbour already
                continue
            child = mutate_seed(s, t, memo=memo)._in(table)
            ids = child.ids
            cids = tuple(sorted(ids[:n]))
            ck = found.get(cids)
            if ck is None:
                if len(g.nodes) >= max_nodes:
                    raise LimitExceeded(f"node budget {max_nodes} exhausted", g)
                new = ids[child.order.index(t)]
                if new not in text:
                    text[new] = vals[new].canonical_serialize()
                key = list(k)
                del key[bisect_left(key, text[s.ids[s.order.index(t)]])]
                insort(key, text[new])
                ck = found[cids] = tuple(key)
                g.nodes[ck] = child
                g.paths[ck] = child_path = path + (t,)
                g.adjacency[ck] = {t: k}
                queue.append(ck)
                g.variables.setdefault(text[new], (vals[new], child_path))
            elif ck not in g.complete:   # found again: hold the edge back to k
                stored = g.nodes[ck]
                a, b = child.order, stored.order
                if child.shape is stored.shape and ids == stored.ids and \
                        a[n:] == b[n:]:   # one labelling
                    u = b[a.index(t)] if len(set(cids)) == len(cids) else None
                else:
                    u = (match_seeds(child, stored) or {}).get(t)
                if u is not None:
                    pending.setdefault(ck, {})[u] = k
            nbrs[t] = ck
        g.complete.add(k)
    if len(g.complete) != len(g.nodes):
        raise LimitExceeded("depth cap left unexpanded clusters", g)
    g.closed = True
    return g


# -- counting checks ----------------------------------------------------------


def mobius_variable_count(m: int) -> int:
    """(3m^2 - m + 2) / 2, the Moebius-strip variable count."""
    if m < 1:
        raise ValueError("need at least one marked point")
    num = 3 * m * m - m + 2
    assert num % 2 == 0
    return num // 2


def polygon_variable_count(n1: int) -> int:
    """n1 (n1 + 3) / 2, the type-A count for a polygon with n1 diagonals."""
    num = n1 * (n1 + 3)
    assert num % 2 == 0
    return num // 2


class PositivityReport(NamedTuple):
    ok: bool
    checked: int
    failures: list[tuple[str, str, tuple[int, ...]]]


def check_laurent_positive(graph: ExchangeGraph) -> PositivityReport:
    """Monomial denominator and strictly positive numerator coefficients for
    every variable of a completed exploration."""
    failures = []
    for ser, (lf, path) in sorted(graph.variables.items()):
        if not isinstance(lf, LaurentForm):
            raise ValueError("positivity check needs an exact-tracking graph")
        if not lf.is_reduced():
            failures.append((ser.decode(), "not in reduced form", path))
        if lf.is_zero() or any(c <= 0 for c in lf.num.coefficients()):
            failures.append((ser.decode(), "non-positive coefficient", path))
    return PositivityReport(not failures, len(graph.variables), failures)


class ScanEntry(NamedTuple):
    m: int
    family: str          # "A" or "D"
    n: int               # integral root
    family_count: int
    mobius_count: int

    @property
    def collision(self) -> bool:
        return self.family_count == self.mobius_count


class ScanReport(NamedTuple):
    m_max: int
    entries: list[ScanEntry]

    @property
    def collisions(self) -> list[ScanEntry]:
        return [e for e in self.entries if e.collision]


def unistructurality_scan(m_max: int) -> ScanReport:
    """Exact integer search for variable-count collisions.

    Type A: 12m^2 - 4m + 17 a perfect square with odd root (equivalently the
    Moebius count equals some n(n+3)/2).  Contrary to the source argument,
    this has infinitely many solutions (a Pell recurrence; the first are
    m = 1, 16, 221, 3076), so collisions beyond the m = 1 boundary case are
    real and are reported, not suppressed.

    Type D is tested two ways: via the quoted discriminant 12m^2 - 23 (whose
    integral roots never give matching counts) and directly, by asking
    whether the Moebius count is itself a perfect square n^2 (it is, first at
    m = 5 with n = 6); the direct test is the faithful count comparison.
    """
    entries = []
    for m in range(1, m_max + 1):
        target = mobius_variable_count(m)
        d = 12 * m * m - 4 * m + 17   # equals 8*target + 9
        s = math.isqrt(d)
        if s * s == d and (s - 3) % 2 == 0 and s >= 5:
            n = (s - 3) // 2
            entries.append(ScanEntry(m, "A", n, polygon_variable_count(n), target))
        seen_d = set()
        d = 12 * m * m - 23
        if d >= 0:
            s = math.isqrt(d)
            if s * s == d:
                for root in ((1 + s), (1 - s)):
                    if root % 6 == 0 and root >= 6:
                        n = root // 6
                        seen_d.add(n)
                        entries.append(ScanEntry(m, "D", n, n * n, target))
        s = math.isqrt(target)
        if s * s == target and s >= 1 and s not in seen_d:
            entries.append(ScanEntry(m, "D", s, s * s, target))
    return ScanReport(m_max, entries)
