"""Checks made apart from the engine's own arithmetic and audits.

Closed forms are computed here from first principles, graph audits walk the
exported adjacency with their own code, and exchange relations are replayed in
``fractions.Fraction`` arithmetic, so the Laurent layer is checked by code
other than its own.  Only the quiver layer (classification and mutation) is
borrowed, to know which relation applies along a witness path.
"""
from __future__ import annotations

import math
from fractions import Fraction


def mobius_variables(m: int) -> int:
    """(3m^2 - m + 2) / 2 quasi-cluster variables (Dupont and Palesi 2015)."""
    return (3 * m * m - m + 2) // 2


def mobius_clusters(m: int) -> int:
    """4^(m-1) + C(2m-2, m-1).

    An observed identity, not one taken from the paper: the enumeration
    matches it for m = 1..7 in both tracking modes.
    """
    return 4 ** (m - 1) + math.comb(2 * m - 2, m - 1)


def flip_sequences(n: int, length: int) -> int:
    """Number of flip sequences of length 1..L over n internal arcs."""
    return sum(n ** k for k in range(1, length + 1))


def audit_graph(graph) -> list[str]:
    """Degree audit of every complete node plus connectivity from the root.

    A complete node has one neighbour per mutable vertex, all distinct and
    none equal to itself; every node is reachable from the root along edges.
    """
    problems = []
    for k in graph.complete:
        nbrs = graph.adjacency.get(k, {})
        want = sorted(v for v, vx in graph.nodes[k].quiver.vertices.items()
                      if not vx.frozen)
        if sorted(nbrs) != want:
            problems.append(f"complete node mutated at {sorted(nbrs)}, want {want}")
        targets = list(nbrs.values())
        if len(set(targets)) != len(targets) or k in targets:
            problems.append("complete node has repeated or self neighbours")
    reach = {k: set() for k in graph.nodes}
    for k, nbrs in graph.adjacency.items():
        for ck in nbrs.values():
            reach[k].add(ck)
            reach[ck].add(k)
    seen = {graph.root}
    todo = [graph.root]
    while todo:
        for nk in reach[todo.pop()]:
            if nk not in seen:
                seen.add(nk)
                todo.append(nk)
    if len(seen) != len(graph.nodes):
        problems.append(f"{len(graph.nodes) - len(seen)} nodes unreachable from the root")
    return problems


def positive_laurent(value) -> bool:
    """Positive integer coefficients over a reduced monomial denominator."""
    terms = value.num.terms
    if not terms or any(not isinstance(c, int) or c <= 0 for c in terms.values()):
        return False
    den = value.den
    if any(e < 0 for e in den) or any(e < 0 for m in terms for e in m):
        return False
    # reduced: no variable of the denominator divides every numerator term
    return all(min(m[i] for m in terms) == 0 for i, e in enumerate(den) if e)


def exchange(cls, value) -> Fraction:
    """x_t * x_t' by the V1-V4 relations, in Fraction arithmetic."""
    if cls.type == "V1":
        (a, b), (c, d) = cls.product_pairs
        return value(a) * value(b) + value(c) * value(d)
    if cls.type in ("V2", "V4"):
        return value(cls.i)
    s = value(cls.i) + value(cls.k)
    return s * s + value(cls.i) * value(cls.j) ** 2 * value(cls.k)


class Replay:
    """Values of every cluster along witness paths at one rational point.

    Frozen vertices carry 1 (coefficient-free).  Prefixes are memoized, so
    replaying every witness path of a graph costs one mutation per prefix.
    """

    def __init__(self, quiver, point: dict[int, Fraction]):
        self._memo = {(): (quiver, dict(point))}

    def at(self, path: tuple[int, ...]):
        if path not in self._memo:
            quiver, values = self.at(path[:-1])
            t = path[-1]
            new = dict(values)
            new[t] = exchange(quiver.classify_vertex(t),
                              lambda v: values.get(v, Fraction(1))) / values[t]
            self._memo[path] = (quiver.mutate(t), new)
        return self._memo[path]
