import random
import time
from fractions import Fraction

import pytest

from quasicluster.laurent import (EXPONENT_LIMIT, Context, DenominatorVector,
                                  LaurentForm, LaurentViolation, NotDivisible,
                                  Polynomial, denominator_vector)

N = 3


def x(i):
    return Polynomial.variable(i, N)


def lx(i):
    return LaurentForm.variable(i, N)


def rand_poly(rng, nterms=4, deg=3, nvars=N):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randrange(0, deg) for _ in range(nvars))
        terms[m] = terms.get(m, 0) + rng.randrange(-5, 6)
    return Polynomial(nvars, terms)


def test_poly_arith_examples():
    assert (x(0) + -x(0)).is_zero()
    one = Polynomial.constant(1, N)
    s = x(0) + x(1)
    assert s * one == s
    d = x(0) - x(1)
    assert s * d == x(0) * x(0) - x(1) * x(1)


def test_exact_div_examples():
    num = x(0) * x(0) * x(1) + x(0) * x(1) * x(1)
    assert num.exact_div(x(0)) == x(0) * x(1) + x(1) * x(1)
    assert (x(0) * x(0) - x(1) * x(1)).exact_div(x(0) + x(1)) == x(0) - x(1)
    with pytest.raises(NotDivisible):
        (x(0) + x(1)).exact_div(x(0))


def test_exact_div_stops_below_the_trailing_quotient():
    """x^n by x + 1 leaves a remainder; the first quotient term x^(n-1) is
    already below the trailing quotient x^n, so division stops at once
    instead of after n steps."""
    n = EXPONENT_LIMIT
    t0 = time.perf_counter()
    with pytest.raises(NotDivisible):
        Polynomial(N, {(n, 0, 0): 1}).exact_div(x(0) + Polynomial.constant(1, N))
    with pytest.raises(NotDivisible):   # trailing terms do not divide
        (x(0) + x(1)).exact_div(x(0) + x(1) * x(1))
    assert time.perf_counter() - t0 < 1.0


def test_exact_div_roundtrip_randomized():
    rng = random.Random(7)
    for _ in range(200):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


def test_ring_axioms_by_evaluation():
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = (rand_poly(rng) for _ in range(3))
        point = [rng.randrange(-4, 5) for _ in range(N)]
        ev = lambda p: p.evaluate(point)
        assert ev((a * b) * c) == ev(a * (b * c))
        assert ev(a * (b + c)) == ev(a * b) + ev(a * c)
        assert ev((a + b) + c) == ev(a + (b + c))


def test_laurent_arith_examples():
    x1, x2, x3 = lx(0), lx(1), lx(2)
    a = x2.divide(x1)
    b = x3.divide(x1)
    s = a + b
    assert s == LaurentForm(Polynomial.variable(1, N) + Polynomial.variable(2, N),
                            (1, 0, 0))
    assert x1.divide(x2) * x2.divide(x1) == LaurentForm.one(N)
    inv = LaurentForm.one(N).divide(x1)
    assert (inv + -inv).is_zero()


def test_laurent_div_examples():
    x1, x2, x3 = lx(0), lx(1), lx(2)
    one = LaurentForm.one(N)
    num = x1 * x3 + x2 * x2
    q = num.divide(x1)
    assert q.den == (1, 0, 0)
    d = (x1 * x1 - x2 * x2).divide(x3)
    e = (x1 + x2).divide(x3)
    assert d.divide(e) == x1 - x2
    with pytest.raises(LaurentViolation):
        (x1 + x2).divide(x1 + x3)


def test_laurent_div_against_evaluation():
    rng = random.Random(13)
    hits = 0
    while hits < 60:
        a = rand_poly(rng, nterms=3, deg=2)
        b = rand_poly(rng, nterms=2, deg=2)
        if a.is_zero() or b.is_zero():
            continue
        la = LaurentForm(a, (1, 0, 0))
        lb = LaurentForm(b, (0, 1, 0))
        prod = la * lb
        q = prod.divide(lb)
        point = [rng.randrange(1, 7) for _ in range(N)]
        assert q.evaluate(point) == la.evaluate(point)
        hits += 1


def test_reduction_invariants():
    x1, x2 = lx(0), lx(1)
    v = (x1 * x2).divide(x1)  # cancels to x2
    assert v == x2 and v.is_reduced()
    again = LaurentForm(v.num, v.den)
    assert again.canonical_serialize() == v.canonical_serialize()
    zero = LaurentForm(Polynomial.zero(N), (2, 1, 0))
    assert zero.is_zero() and zero.den == (0, 0, 0)


def test_serialization_examples():
    x1, x2 = lx(0), lx(1)
    assert LaurentForm.zero(N).canonical_serialize() == b"L0|3"
    a = x1.divide(x2)
    b = (x1 * LaurentForm.one(N)).divide(x2)
    assert a.canonical_serialize() == b.canonical_serialize()
    assert (x1 + x2).canonical_serialize() == (x2 + x1).canonical_serialize()
    # frozen byte form: stable across runs
    v = (lx(0) * lx(2) + lx(1) * lx(1)).divide(lx(0))
    assert v.canonical_serialize() == b"L|1,0,0|1@1,0,1;1@0,2,0"


def test_render():
    ctx = Context(2, 1)
    v = (lx(0) + lx(1)).divide(lx(0) * lx(0))
    assert v.render(ctx) == "(x1 + x2) / x1^2"
    assert lx(2).render(ctx) == "y1"
    assert LaurentForm.constant(-3, N).render(ctx) == "-3"


def test_evaluation_consistency_randomized():
    rng = random.Random(17)
    for _ in range(60):
        a = LaurentForm(rand_poly(rng, 3, 2), tuple(rng.randrange(0, 2) for _ in range(N)))
        b = LaurentForm(rand_poly(rng, 3, 2), tuple(rng.randrange(0, 2) for _ in range(N)))
        point = [rng.randrange(1, 9) for _ in range(N)]
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


def test_denominator_vector_tracking_rules():
    x1, x2 = lx(0), lx(1)
    d1, d2 = (DenominatorVector.variable(i, N) for i in (0, 1))
    # positive-coefficient sums map to componentwise max
    s = x1.divide(x2) + x2.divide(x1)
    assert denominator_vector(s) == denominator_vector(x1.divide(x2)) + \
        denominator_vector(x2.divide(x1))
    assert denominator_vector(x1 * x2) == d1 * d2
    assert denominator_vector(x1.divide(x2)) == d1.divide(d2)
