"""The packed Laurent layer against the tuple reference implementation.

Random polynomials and Laurent forms with 0-14 variables and exponents up to
the limit 2**31 - 1 go through both implementations, which must agree
exactly: the same terms, denominators, serialization bytes and exceptions.
Where the reference's exact result has an exponent above the limit, the
packed layer must raise ExponentOverflow instead.
"""
import pytest
from hypothesis import given, settings, strategies as st

import laurent_reference as ref
import quasicluster
from quasicluster.laurent import (EXPONENT_LIMIT, Context, ExponentOverflow,
                                  LaurentForm, Polynomial, denominator_vector)

# Exponent ceilings: small, large but with every product below the limit,
# and the limit itself, where products and shifts can overflow.  Long
# division by a divisor that does not divide can take as many steps as the
# exponents are large (x^n + 1 by x + 1 takes n for even n), so such
# divisions use SMALL;
# division by a monomial takes one step per term and runs at every ceiling.
SMALL = 3
CEILINGS = (SMALL, EXPONENT_LIMIT // 2, EXPONENT_LIMIT)


@st.composite
def problems(draw):
    nvars = draw(st.integers(min_value=0, max_value=14))
    ceiling = draw(st.sampled_from(CEILINGS))
    mono = st.tuples(*[st.integers(min_value=0, max_value=ceiling)] * nvars)
    poly = st.dictionaries(mono, st.integers(min_value=-9, max_value=9), max_size=4)
    return (ceiling, nvars, draw(poly), draw(poly), draw(mono), draw(mono),
            draw(mono), draw(st.integers(min_value=-3, max_value=3)))


def outcome(fn):
    """fn()'s result, or the type of the arithmetic error it raised."""
    try:
        return fn()
    except ArithmeticError as exc:
        return type(exc)


def view(x):
    if isinstance(x, type):
        return x
    if isinstance(x, (LaurentForm, ref.LaurentForm)):
        return (x.den, x.num.terms, x.canonical_serialize(), x.is_reduced())
    return x.terms


def over_limit(x) -> bool:
    if isinstance(x, ref.LaurentForm):
        return any(e > EXPONENT_LIMIT for e in x.den) or over_limit(x.num)
    return isinstance(x, ref.Polynomial) and any(
        e > EXPONENT_LIMIT for m in x.terms for e in m)


def agree(packed, reference):
    """Packed and reference computations give the same view, and the packed
    one overflows exactly where the reference result is past the limit."""
    want = outcome(reference)
    if over_limit(want):
        want = ExponentOverflow
    assert view(outcome(packed)) == view(want)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(problems())
def test_polynomials_match_reference(problem):
    ceiling, nvars, ta, tb, m, _, _, c = problem
    a, b = Polynomial(nvars, ta), Polynomial(nvars, tb)
    ra, rb = ref.Polynomial(nvars, ta), ref.Polynomial(nvars, tb)
    assert a.terms == ra.terms and a.sorted_terms() == ra.sorted_terms()
    assert a.content_monomial() == ra.content_monomial()
    agree(lambda: a + b, lambda: ra + rb)
    agree(lambda: a * b, lambda: ra * rb)
    agree(lambda: a.mul_monomial(m, c), lambda: ra.mul_monomial(m, c))
    if ceiling == SMALL or len(tb) - list(tb.values()).count(0) == 1:
        agree(lambda: a.exact_div(b), lambda: ra.exact_div(rb))
    if not over_limit(ra * rb):
        agree(lambda: (a * b).exact_div(b), lambda: (ra * rb).exact_div(rb))
    if not a.is_zero():
        assert a.leading() == ra.leading()
        content = ra.content_monomial()
        for d in (content, tuple(e // 2 for e in content)):
            agree(lambda: a.divide_monomial(d), lambda: ra.divide_monomial(d))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(problems())
def test_laurent_forms_match_reference(problem):
    ceiling, nvars, ta, tb, _, da, db, _ = problem
    a = LaurentForm(Polynomial(nvars, ta), da)
    b = LaurentForm(Polynomial(nvars, tb), db)
    ra = ref.LaurentForm(ref.Polynomial(nvars, ta), da)
    rb = ref.LaurentForm(ref.Polynomial(nvars, tb), db)
    assert view(a) == view(ra) and view(b) == view(rb)
    agree(lambda: a + b, lambda: ra + rb)
    agree(lambda: a * b, lambda: ra * rb)
    if ceiling == SMALL or len(b.num.terms) == 1:
        agree(lambda: a.divide(b), lambda: ra.divide(rb))
    if not over_limit(ra * rb):
        agree(lambda: (a * b).divide(b), lambda: (ra * rb).divide(rb))
    if not a.is_zero():
        assert denominator_vector(a).vec == ref.denominator_vector(ra)
        ctx = Context(nvars)
        assert a.render(ctx) == ra.render(ctx)


def test_exponent_limit_fails_loudly():
    top = EXPONENT_LIMIT
    assert quasicluster.ExponentOverflow is ExponentOverflow
    assert issubclass(ExponentOverflow, ArithmeticError)
    with pytest.raises(ExponentOverflow):
        Polynomial(2, {(top + 1, 0): 1})
    with pytest.raises(ExponentOverflow):
        LaurentForm(Polynomial.constant(1, 2), (0, top + 1))
    p = Polynomial(2, {(top, 0): 1, (0, 0): 1})
    assert p.mul_monomial((0, top)).terms == {(top, top): 1, (0, top): 1}
    with pytest.raises(ExponentOverflow):
        p.mul_monomial((1, 0))
    assert (p * Polynomial.variable(1, 2)).terms == {(top, 1): 1, (0, 1): 1}
    with pytest.raises(ExponentOverflow):
        p * Polynomial.variable(0, 2)
    x = LaurentForm(p)
    with pytest.raises(ExponentOverflow):
        x * LaurentForm.variable(0, 2)
    # x^top * (x + 1) / x = x^top + x^(top - 1): no intermediate overflow
    y = LaurentForm(Polynomial.variable(0, 2) + Polynomial.constant(1, 2), (1, 0))
    xtop = LaurentForm(Polynomial(2, {(top, 0): 1}))
    assert (xtop * y).num.terms == {(top, 0): 1, (top - 1, 0): 1}
    assert (xtop * y).den == (0, 0)


def test_divide_overflows_only_past_the_limit():
    top = EXPONENT_LIMIT
    one = Polynomial.constant(1, 2)
    x2_squared = Polynomial(2, {(0, 2): 1})
    # 1/x2^top divided by x2^2/x1 is x1/x2^(top + 2): past the limit
    a, b = LaurentForm(one, (0, top)), LaurentForm(x2_squared, (1, 0))
    ra = ref.LaurentForm(ref.Polynomial.constant(1, 2), (0, top))
    rb = ref.LaurentForm(ref.Polynomial(2, {(0, 2): 1}), (1, 0))
    agree(lambda: a.divide(b), lambda: ra.divide(rb))
    with pytest.raises(ExponentOverflow):
        a.divide(b)
    # 1/x2^(top - 2) divided by the same is x1/x2^top: at the limit
    q = LaurentForm(one, (0, top - 2)).divide(b)
    assert q.den == (0, top) and q.num.terms == {(1, 0): 1}
    assert q.canonical_serialize() == f"L|0,{top}|1@1,0".encode()
    # x1^top/x2 divided by x2^top/x1^top is x1^(2 top)/x2^(top + 1)
    with pytest.raises(ExponentOverflow):
        LaurentForm(Polynomial(2, {(top, 0): 1}), (0, 1)).divide(
            LaurentForm(Polynomial(2, {(0, top): 1}), (top, 0)))
