"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 8 is asserted exactly as stated and marked as an expected failure:
exact integer arithmetic refutes the claim it encodes (the type-A count
equation has a Pell family of solutions, the first beyond m=1 being m=16
with matching counts 377); the companion test pins the true collision sets.
"""
import math
import time

import pytest

from quasicluster import verify
from quasicluster.algebra import (LimitExceeded, check_laurent_positive,
                                  explore, initial_seed, mobius_variable_count,
                                  polygon_variable_count, unistructurality_scan)
from quasicluster.cover import QuasiArcPresent, lift
from quasicluster.laurent import LaurentForm
from quasicluster.surface import (SurfaceSignature, annulus_crosscap,
                                  arc_count, euler_characteristic_nonorientable,
                                  mobius_fan, mobius_three_arc, polygon_fan)

_GRAPHS = {}


def graph_of(name):
    if name not in _GRAPHS:
        t0 = time.perf_counter()
        tri = verify.surface.named_fixture(name)
        g = explore(initial_seed(tri.build_quiver(), coeff_free=True))
        _GRAPHS[name] = (g, time.perf_counter() - t0)
    return _GRAPHS[name]


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_involution():
    t0 = time.perf_counter()
    result = verify.suite_involution(pairs=1000)
    dt = time.perf_counter() - t0
    assert result.ok, result.report()
    assert dt < 10.0, f"involution suite took {dt:.1f}s"
    report(1, f"1000 randomized mutation pairs are involutive ({dt:.1f}s)")


def test_criterion_02_compatibility():
    t0 = time.perf_counter()
    result = verify.suite_compat(max_len=3)
    dt = time.perf_counter() - t0
    assert result.ok, result.report()
    assert dt < 30.0, f"compatibility oracle took {dt:.1f}s"
    report(2, f"flip/mutation compatibility on all sequences of length <= 3 "
              f"({dt:.1f}s)")


def test_criterion_03_mobius_counts():
    total = 0.0
    for m, want in ((1, 2), (2, 6), (3, 13), (4, 23)):
        g, dt = graph_of(f"mobius:{m}")
        total += dt
        assert g.variable_count() == want == mobius_variable_count(m)
    assert total < 60.0, f"explorations took {total:.1f}s"
    report(3, f"exhaustive variable counts 2, 6, 13, 23 ({total:.1f}s)")


def test_criterion_04_laurent_positivity():
    checked = 0
    for m in (1, 2, 3, 4):
        g, _ = graph_of(f"mobius:{m}")
        rep = check_laurent_positive(g)
        assert rep.ok, rep.failures
        checked += rep.checked
    report(4, f"{checked} variables are positive Laurent; zero violations")


def test_criterion_05_exchange_graph_structure():
    for m in (1, 2, 3, 4):
        g, _ = graph_of(f"mobius:{m}")
        assert g.degree_audit() == []
        assert g.connectivity_audit()
        n = arc_count(SurfaceSignature(1, 1, 0, m))
        for key in g.complete:
            assert len(g.adjacency[key]) == n
    report(5, "every complete node has full distinct-neighbour degree and "
              "all graphs are root-connected")


def test_criterion_06_classical_regression():
    for c, want in ((5, 5), (6, 9)):
        g, _ = graph_of(f"polygon:{c}")
        assert g.variable_count() == want == polygon_variable_count(c - 3)
    result = verify.suite_counts()
    assert result.ok, result.report()
    report(6, "pentagon 5 and hexagon 9 variables; V1 equals the classical "
              "three-step rule on 200 randomized orientable quivers")


def test_criterion_07_formula_checks():
    for m in range(1, 9):
        assert arc_count(SurfaceSignature(1, 1, 0, m)) == m
    assert arc_count(SurfaceSignature(1, 2, 0, 2)) == 5
    assert arc_count(SurfaceSignature(0, 1, 0, 6)) == 3
    for k in range(1, 9):
        assert euler_characteristic_nonorientable(k) == 2 - k
    assert euler_characteristic_nonorientable(2, boundaries=1) == -1
    report(7, "arc-count and Euler-characteristic formulas reproduce every "
              "worked value")


@pytest.mark.xfail(
    strict=True,
    reason="arithmetically false as stated: (3m^2-m+2)/2 = n(n+3)/2 has the "
           "Pell solution family m = 16, 221, 3076 (counts 377, 73152, "
           "14191127) inside [2, 10^4], and (3m^2-m+2)/2 is a perfect square "
           "at m = 5, 32, 477, 3120; the claim fails for any exact scan")
def test_criterion_08_unistructurality_scan_as_stated():
    t0 = time.perf_counter()
    rep = unistructurality_scan(10 ** 4)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    assert any(e.m == 1 and e.family == "A" and e.collision
               for e in rep.entries), "m=1 boundary coincidence must be flagged"
    later = [e for e in rep.collisions if e.m >= 2]
    assert later == [], f"collisions exist in [2, 10^4]: {later[:4]}"
    report(8, "no integral collision in [2, 10^4]")


def test_criterion_08_documented_true_state():
    t0 = time.perf_counter()
    rep = unistructurality_scan(10 ** 4)
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"scan took {dt:.2f}s"
    cols = {(e.family, e.m, e.n) for e in rep.collisions}
    assert cols == {("A", 1, 1), ("A", 16, 26), ("A", 221, 381),
                    ("A", 3076, 5326), ("D", 5, 6), ("D", 32, 39),
                    ("D", 477, 584), ("D", 3120, 3821)}
    # double-checked against the raw counts
    assert mobius_variable_count(16) == polygon_variable_count(26) == 377
    assert mobius_variable_count(5) == 36 and math.isqrt(36) == 6
    result = verify.suite_scan()
    assert result.ok, result.report()
    report(8, f"exact scan flags m=1 and the Pell collision families "
              f"({dt:.2f}s); the stated zero-collision claim is refuted")


def test_criterion_09_double_cover():
    dc = lift(mobius_three_arc())
    dq = dc.double_quiver()
    got = dq.restrict_to_mutable().canonical_form()
    assert got == verify.figure_double_quiver().canonical_form()
    assert dc.sigma_is_involution() and dc.sigma_fixed_points() == []
    relabeled = dq.renamed(dc.sigma_arc)
    assert relabeled.canonical_form() == dq.canonical_form()
    with pytest.raises(QuasiArcPresent):
        lift(annulus_crosscap())
    with pytest.raises(QuasiArcPresent):
        lift(mobius_fan(2).flip(2))
    report(9, "Moebius 3-arc fixture lifts to the reference double quiver; "
              "deck involution is a fixed-point-free automorphism; quasi-arc "
              "fixtures refuse to lift")


def test_criterion_10_infinite_type_budget():
    seed = initial_seed(annulus_crosscap().build_quiver(), coeff_free=True,
                        tracking="denominator")
    t0 = time.perf_counter()
    with pytest.raises(LimitExceeded) as err:
        explore(seed, max_nodes=10000)
    dt = time.perf_counter() - t0
    g = err.value.graph
    assert g.node_count() == 10000
    assert g.degree_audit() == []
    assert g.connectivity_audit()
    report(10, f"annulus-with-crosscap hits the 10,000-node budget with "
               f"LimitExceeded; degree audit passes on {len(g.complete)} "
               f"complete nodes ({dt:.1f}s)")
