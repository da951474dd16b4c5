"""Verification suites shared by the command line and the acceptance tests.

Each suite returns a SuiteResult with one line per check; a suite passes only
if every check passed.  Explorations are cached per process so that the
counts, structure and positivity suites share work.
"""
from __future__ import annotations

import random
import time
from typing import NamedTuple, Sequence

from . import surface
from .algebra import (ExchangeGraph, LimitExceeded, Seed, check_laurent_positive,
                      explore, initial_seed, mobius_variable_count, mutate_seed,
                      polygon_variable_count, unistructurality_scan)
from .cover import QuasiArcPresent, lift
from .pquiver import Arrow, PartitionedQuiver, Vertex
from .surface import mobius_fan, mobius_three_arc, annulus_crosscap, polygon_fan


class SuiteResult(NamedTuple):
    name: str
    ok: bool
    lines: Sequence[str] = ()

    def report(self) -> str:
        head = f"suite {self.name}: {'PASS' if self.ok else 'FAIL'}"
        return "\n".join([head] + [f"  {ln}" for ln in self.lines])


def _check(lines, ok, text) -> bool:
    lines.append(f"{'ok  ' if ok else 'FAIL'} {text}")
    return ok


_EXPLORATIONS: dict[str, ExchangeGraph] = {}


def exploration(name: str) -> ExchangeGraph:
    """Cached coefficient-free exploration of a named fixture."""
    if name not in _EXPLORATIONS:
        tri = surface.named_fixture(name)
        seed = initial_seed(tri.build_quiver(), coeff_free=True)
        _EXPLORATIONS[name] = explore(seed)
    return _EXPLORATIONS[name]


def _random_seed_pool(rng: random.Random) -> list[Seed]:
    """Seeds scattered over the exchange graphs of the small fixtures."""
    bases = [mobius_fan(m) for m in (1, 2, 3, 4)]
    bases += [polygon_fan(5), polygon_fan(6)]
    pool = []
    for tri in bases:
        s = initial_seed(tri.build_quiver())
        pool.append(s)
        for _ in range(3):
            walk = s
            for _ in range(rng.randrange(1, 4)):
                t = rng.choice(sorted(walk.mutables))
                walk = mutate_seed(walk, t)
            pool.append(walk)
    return pool


def involution_holds(seed: Seed, t: int) -> bool:
    """mu_t(mu_t(seed)) has the quiver of ``seed`` up to arrow ids (the same
    vertices and path itineraries) and its values."""
    s2 = mutate_seed(mutate_seed(seed, t), t)
    q, q2, back = seed._read(), s2._read(), s2.values
    return (q2.vertices == q.vertices and q2.itineraries() == q.itineraries()
            and all(back[v].canonical_serialize() == x.canonical_serialize()
                    for v, x in seed.values.items()))


def suite_involution(pairs: int = 1000, rng_seed: int = 20406) -> SuiteResult:
    """mu_t^2 = identity on quivers up to arrow ids and on variable
    assignments."""
    rng = random.Random(rng_seed)
    pool = _random_seed_pool(rng)
    lines = []
    failures = 0
    t0 = time.perf_counter()
    for _ in range(pairs):
        s = rng.choice(pool)
        if not involution_holds(s, rng.choice(sorted(s.mutables))):
            failures += 1
    dt = time.perf_counter() - t0
    ok = _check(lines, failures == 0,
                f"{pairs} randomized (seed, vertex) pairs, {failures} failures "
                f"({dt:.2f}s)")
    return SuiteResult("involution", ok, lines)


def suite_compat(max_len: int = 3) -> SuiteResult:
    """build_quiver(flip(T, a)) agrees with mutate(build_quiver(T), a) along
    every flip sequence up to the given length."""
    lines = []
    ok = True
    t0 = time.perf_counter()
    for name in ("mobius:2", "mobius:3"):
        tri = surface.named_fixture(name)
        quiver = tri.build_quiver()
        checked = [0]
        mismatches = [0]

        def walk(t, q, depth):
            if depth == max_len:
                return
            for arc in t.internal_arcs():
                t2 = t.flip(arc)
                q2 = q.mutate(arc)
                checked[0] += 1
                q3 = t2.build_quiver()
                if (q3.vertices, q3.itineraries()) != (q2.vertices, q2.itineraries()):
                    mismatches[0] += 1
                else:
                    walk(t2, q2, depth + 1)

        walk(tri, quiver, 0)
        ok &= _check(lines, mismatches[0] == 0,
                     f"{name}: {checked[0]} flip/mutation pairs, "
                     f"{mismatches[0]} mismatches")
    lines.append(f"     ({time.perf_counter() - t0:.2f}s)")
    return SuiteResult("compat", ok, lines)


def _expected_counts() -> list[tuple[str, int]]:
    return [
        ("mobius:1", mobius_variable_count(1)),
        ("mobius:2", mobius_variable_count(2)),
        ("mobius:3", mobius_variable_count(3)),
        ("mobius:4", mobius_variable_count(4)),
        ("polygon:5", polygon_variable_count(2)),
        ("polygon:6", polygon_variable_count(3)),
    ]


def suite_counts(rng_seed: int = 77003) -> SuiteResult:
    """Exhaustive variable counts, graph structure audits and the classical
    regression on randomized orientable quivers."""
    lines = []
    ok = True
    for name, want in _expected_counts():
        g = exploration(name)
        ok &= _check(lines, g.variable_count() == want,
                     f"{name}: {g.variable_count()} variables (expected {want})")
        audit = g.degree_audit()
        ok &= _check(lines, not audit and g.connectivity_audit(),
                     f"{name}: degree/connectivity audit "
                     f"({g.node_count()} clusters, {g.edge_count()} edges)")
    ok &= _check(lines, exploration("polygon:5").node_count() == 5,
                 "polygon:5: 5 clusters (pentagon recurrence)")
    rng = random.Random(rng_seed)
    bad = 0
    for _ in range(200):
        c = rng.randrange(4, 10)
        tri = polygon_fan(c)
        for _ in range(rng.randrange(0, 12)):
            tri = tri.flip(rng.choice(tri.internal_arcs()))
        q = tri.build_quiver()
        t = rng.choice(q.mutable_ids())
        if q.mutate(t).arrow_multiset() != q.classical_mutation_arrows(t):
            bad += 1
    ok &= _check(lines, bad == 0,
                 f"classical regression on 200 randomized orientable quivers, "
                 f"{bad} mismatches")
    return SuiteResult("counts", ok, lines)


def suite_laurent() -> SuiteResult:
    """Laurent property and coefficient positivity over the Moebius runs."""
    lines = []
    ok = True
    for name, _ in _expected_counts():
        g = exploration(name)
        rep = check_laurent_positive(g)
        ok &= _check(lines, rep.ok,
                     f"{name}: {rep.checked} variables positive Laurent"
                     + (f"; failures {rep.failures[:3]}" if rep.failures else ""))
    return SuiteResult("laurent", ok, lines)


def figure_double_quiver() -> PartitionedQuiver:
    """The six-vertex double quiver with its two three-arrow paths."""
    vertices = [Vertex(i) for i in range(1, 7)]   # 1,2,3 then 1',2',3' = 4,5,6
    arrows = [
        Arrow(1, 1, 2), Arrow(2, 2, 3), Arrow(3, 3, 4),
        Arrow(4, 1, 6), Arrow(5, 6, 5), Arrow(6, 5, 4),
    ]
    return PartitionedQuiver(vertices, arrows, [[1, 2, 3], [4, 5, 6]])


def undirected_form(q: PartitionedQuiver) -> tuple:
    """``q`` labelled, up to path order and path direction: its vertices and
    the sorted itineraries, each read the way that sorts first."""
    return q.vertices, sorted(min(p, p[::-1]) for p in q.itineraries())


def suite_cover() -> SuiteResult:
    lines = []
    ok = True
    base = mobius_three_arc()
    dc = lift(base)
    dq = dc.lifted.build_quiver()
    ok &= _check(lines, not dc.lifted.validate(), "lifted complex validates")
    ok &= _check(lines, dc.is_connected(),
                 "cover of the non-orientable base is connected")
    ok &= _check(lines, all(v == 0 for v in dc.lifted.arc_transport().values()),
                 "lifted complex is orientable (all transports trivial)")
    got = dq.restrict_to_mutable().canonical_form()
    want = figure_double_quiver().canonical_form()
    ok &= _check(lines, got == want,
                 "Moebius 3-arc double quiver matches the reference quiver")
    ok &= _check(lines, dc.sigma_is_involution() and not dc.sigma_fixed_points(),
                 "deck map is a fixed-point-free involution on lifted arcs")
    relabeled = dq.renamed(dc.sigma_arc)
    ok &= _check(lines, undirected_form(relabeled) == undirected_form(dq),
                 "deck map is a quiver automorphism")
    try:
        lift(annulus_crosscap())
        ok &= _check(lines, False, "quasi-arc fixture must refuse to lift")
    except QuasiArcPresent:
        ok &= _check(lines, True, "quasi-arc fixture raises QuasiArcPresent")
    pent = polygon_fan(5)
    dc2 = lift(pent)
    ok &= _check(lines, not dc2.is_connected(),
                 "cover of an orientable base splits into two copies")
    half = dc2.lifted.build_quiver().restrict_to_mutable()
    ok &= _check(lines,
                 len(half.mutable_ids()) == 2 * len(pent.build_quiver().mutable_ids()),
                 "orientable base lifts to twice the arcs")
    return SuiteResult("cover", ok, lines)


def suite_scan(m_max: int = 10 ** 4) -> SuiteResult:
    """Exactness of the collision scan, cross-checked by set intersection.

    The source argument claims the count equations have no integral
    solutions; exact arithmetic refutes that (first non-trivial type-A
    collision at m = 16, type-D at m = 5), so this suite verifies that the
    scan reports precisely the true collision set and flags m = 1.
    """
    lines = []
    t0 = time.perf_counter()
    rep = unistructurality_scan(m_max)
    dt = time.perf_counter() - t0
    cols = {(e.family, e.m, e.n) for e in rep.collisions}
    # independent oracle: intersect the actual count sets
    mob = {mobius_variable_count(m): m for m in range(1, m_max + 1)}
    top = max(mob)
    expect = set()
    n = 1
    while polygon_variable_count(n) <= top:
        c = polygon_variable_count(n)
        if c in mob:
            expect.add(("A", mob[c], n))
        n += 1
    n = 1
    while n * n <= top:
        if n * n in mob:
            expect.add(("D", mob[n * n], n))
        n += 1
    ok = _check(lines, cols == expect,
                f"scan collisions match the count-set oracle "
                f"({len(cols)} collisions, {dt:.3f}s)")
    ok &= _check(lines, ("A", 1, 1) in cols,
                 "m=1 boundary coincidence flagged")
    ok &= _check(lines, dt < 1.0, f"scan of m up to {m_max} under one second")
    for e in rep.entries:
        lines.append(f"     integral root: m={e.m} type {e.family} n={e.n} "
                     f"count {e.family_count} vs {e.mobius_count}"
                     + (" [collision]" if e.collision else ""))
    return SuiteResult("scan", ok, lines)


def suite_budget(max_nodes: int = 10000) -> SuiteResult:
    """Infinite-type budget behaviour on the annulus with one crosscap.

    Runs in denominator tracking: the variables of this fixture provably
    reach millions of terms within the 10,000-cluster ball, so the node key
    is their exact denominator-vector image instead of full numerators.
    """
    lines = []
    tri = annulus_crosscap()
    seed = initial_seed(tri.build_quiver(), coeff_free=True,
                        tracking="denominator")
    try:
        explore(seed, max_nodes=max_nodes)
    except LimitExceeded as exc:
        g = exc.graph
        audit = g.degree_audit()
        ok = _check(lines, g.node_count() == max_nodes,
                    f"budget hit at {g.node_count()} nodes")
        ok &= _check(lines, not audit,
                     f"degree audit on {len(g.complete)} complete nodes")
        ok &= _check(lines, g.connectivity_audit(), "partial graph connected")
        return SuiteResult("budget", ok, lines)
    ok = _check(lines, False, "exploration unexpectedly closed")
    return SuiteResult("budget", ok, lines)


SUITES = {
    "involution": suite_involution,
    "compat": suite_compat,
    "counts": suite_counts,
    "laurent": suite_laurent,
    "cover": suite_cover,
    "scan": suite_scan,
    "budget": suite_budget,
}


def run_suites(names=None) -> list[SuiteResult]:
    names = list(names) if names else list(SUITES)
    return [SUITES[n]() for n in names]
