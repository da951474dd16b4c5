"""Reference Laurent arithmetic on exponent tuples.

The tuple implementation the packed layer in ``quasicluster.laurent``
replaced, kept verbatim as an independent oracle for the property tests:
monomials are exponent tuples, graded-lex order is a key function and every
monomial operation is a Python loop over the variables.  It has no exponent
limit.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from quasicluster.laurent import Context, LaurentViolation, NotDivisible

Monomial = tuple[int, ...]


def _grlex(m: Monomial) -> tuple[int, Monomial]:
    return (sum(m), m)


def _zero_mon(nvars: int) -> Monomial:
    return (0,) * nvars


def _mon_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _mon_divides(d: Monomial, m: Monomial) -> bool:
    return all(x <= y for x, y in zip(d, m))


def _mon_sub(m: Monomial, d: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(m, d))


class Polynomial:
    """Sparse polynomial: map from exponent vector to non-zero integer."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Monomial, int] | None = None):
        self.nvars = nvars
        self.terms: dict[Monomial, int] = {}
        if terms:
            for m, c in terms.items():
                if len(m) != nvars:
                    raise ValueError("exponent vector has wrong length")
                if any(e < 0 for e in m):
                    raise ValueError("polynomial exponents must be non-negative")
                if c:
                    self.terms[m] = self.terms.get(m, 0) + c
            self.terms = {m: c for m, c in self.terms.items() if c}

    # constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, c: int, nvars: int) -> "Polynomial":
        return cls(nvars, {_zero_mon(nvars): c} if c else None)

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Polynomial":
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {m: 1})

    # predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial._raw(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mon_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial._raw(self.nvars, out)

    def mul_monomial(self, m: Monomial, c: int = 1) -> "Polynomial":
        return Polynomial._raw(self.nvars, {_mon_mul(t, m): k * c for t, k in self.terms.items()}) if c else Polynomial.zero(self.nvars)

    def leading(self) -> tuple[Monomial, int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=_grlex)
        return m, self.terms[m]

    def content_monomial(self) -> Monomial:
        """Componentwise minimum exponent over all terms (zero poly: all-0)."""
        if not self.terms:
            return _zero_mon(self.nvars)
        mons = list(self.terms)
        return tuple(min(m[i] for m in mons) for i in range(self.nvars))

    def divide_monomial(self, d: Monomial) -> "Polynomial":
        if all(e == 0 for e in d):
            return self
        return Polynomial._raw(self.nvars, {_mon_sub(m, d): c for m, c in self.terms.items()})

    def exact_div(self, den: "Polynomial") -> "Polynomial":
        """Long division under graded lex; raises NotDivisible on remainder."""
        self._check(den)
        if den.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return Polynomial.zero(self.nvars)
        dm, dc = den.leading()
        rem = dict(self.terms)
        quo: dict[Monomial, int] = {}
        while rem:
            rm = max(rem, key=_grlex)
            rc = rem[rm]
            if not _mon_divides(dm, rm) or rc % dc:
                raise NotDivisible(f"remainder has leading term {rm}")
            qm = _mon_sub(rm, dm)
            qc = rc // dc
            quo[qm] = qc
            for m, c in den.terms.items():
                t = _mon_mul(qm, m)
                s = rem.get(t, 0) - qc * c
                if s:
                    rem[t] = s
                else:
                    rem.pop(t, None)
        return Polynomial._raw(self.nvars, quo)

    def evaluate(self, point: Sequence) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            v = Fraction(c)
            for i, e in enumerate(m):
                if e:
                    v *= Fraction(point[i]) ** e
            total += v
        return total

    # helpers -------------------------------------------------------------

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Monomial, int]) -> "Polynomial":
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("operands belong to different variable contexts")

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda t: _grlex(t[0]), reverse=True)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {dict(self.sorted_terms())})"


class LaurentForm:
    """Polynomial numerator over a monomial denominator, kept reduced.

    Reduced means: for every variable with positive denominator exponent, the
    numerator is not divisible by that variable.  Zero is numerator 0 over
    denominator 1.
    """

    __slots__ = ("num", "den", "_ser")

    def __init__(self, num: Polynomial, den: Monomial | None = None):
        den = den if den is not None else _zero_mon(num.nvars)
        if len(den) != num.nvars:
            raise ValueError("denominator has wrong length")
        if any(e < 0 for e in den):
            raise ValueError("denominator exponents must be non-negative")
        if num.is_zero():
            self.num = Polynomial.zero(num.nvars)
            self.den = _zero_mon(num.nvars)
        else:
            shift = tuple(min(a, b) for a, b in zip(num.content_monomial(), den))
            self.num = num.divide_monomial(shift)
            self.den = _mon_sub(den, shift)
        self._ser: bytes | None = None

    # constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentForm":
        return cls(Polynomial.zero(nvars))

    @classmethod
    def one(cls, nvars: int) -> "LaurentForm":
        return cls(Polynomial.constant(1, nvars))

    @classmethod
    def constant(cls, c: int, nvars: int) -> "LaurentForm":
        return cls(Polynomial.constant(c, nvars))

    @classmethod
    def variable(cls, i: int, nvars: int) -> "LaurentForm":
        return cls(Polynomial.variable(i, nvars))

    # predicates ----------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_reduced(self) -> bool:
        if self.num.is_zero():
            return all(e == 0 for e in self.den)
        content = self.num.content_monomial()
        return all(c == 0 for c, d in zip(content, self.den) if d > 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentForm)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.den, self.num))

    # arithmetic ----------------------------------------------------------

    def __add__(self, other: "LaurentForm") -> "LaurentForm":
        common = tuple(max(a, b) for a, b in zip(self.den, other.den))
        n1 = self.num.mul_monomial(_mon_sub(common, self.den))
        n2 = other.num.mul_monomial(_mon_sub(common, other.den))
        return LaurentForm(n1 + n2, common)

    def __neg__(self) -> "LaurentForm":
        return LaurentForm(-self.num, self.den)

    def __sub__(self, other: "LaurentForm") -> "LaurentForm":
        return self + (-other)

    def __mul__(self, other: "LaurentForm") -> "LaurentForm":
        return LaurentForm(self.num * other.num, _mon_mul(self.den, other.den))

    def divide(self, other: "LaurentForm") -> "LaurentForm":
        """Quotient; succeeds exactly when it is a Laurent polynomial."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent form")
        content = other.num.content_monomial()
        stripped = other.num.divide_monomial(content)
        cleared = self.num.mul_monomial(other.den)
        try:
            q = cleared.exact_div(stripped)
        except NotDivisible as exc:
            raise LaurentViolation(
                "quotient is not a Laurent polynomial"
            ) from exc
        return LaurentForm(q, _mon_mul(self.den, content))

    def evaluate(self, point: Sequence) -> Fraction:
        d = Fraction(1)
        for i, e in enumerate(self.den):
            if e:
                d *= Fraction(point[i]) ** e
        return self.num.evaluate(point) / d

    # rendering -----------------------------------------------------------

    def canonical_serialize(self) -> bytes:
        """Injective byte form on reduced values; fixed graded-lex term order."""
        if self._ser is not None:
            return self._ser
        if self.is_zero():
            ser = b"L0|" + str(self.nvars).encode()
        else:
            parts = [f"{c}@" + ",".join(map(str, m)) for m, c in self.num.sorted_terms()]
            ser = ("L|" + ",".join(map(str, self.den)) + "|" + ";".join(parts)).encode()
        self._ser = ser
        return ser

    def render(self, ctx: Context) -> str:
        """Human-readable canonical text: sorted terms, explicit exponents."""
        if self.is_zero():
            return "0"

        def mono(m: Monomial) -> str:
            parts = []
            for i, e in enumerate(m):
                if e == 1:
                    parts.append(ctx.name(i))
                elif e > 1:
                    parts.append(f"{ctx.name(i)}^{e}")
            return "*".join(parts)

        pieces = []
        for m, c in self.num.sorted_terms():
            ms = mono(m)
            if not ms:
                term = str(abs(c))
            elif abs(c) == 1:
                term = ms
            else:
                term = f"{abs(c)}*{ms}"
            sign = "-" if c < 0 else "+"
            pieces.append((sign, term))
        first_sign, first = pieces[0]
        text = ("-" if first_sign == "-" else "") + first
        for sign, term in pieces[1:]:
            text += f" {sign} {term}"
        ds = mono(self.den)
        if ds:
            if len(self.num.terms) > 1:
                text = f"({text})"
            text = f"{text} / {ds}"
        return text

    def __repr__(self):
        return f"LaurentForm({self.num!r}, den={self.den})"


def denominator_vector(v: LaurentForm) -> tuple[int, ...]:
    """Denominator exponent minus numerator content, per variable."""
    if v.is_zero():
        raise ValueError("zero has no denominator vector")
    content = v.num.content_monomial()
    return tuple(d - c for d, c in zip(v.den, content))
