"""Exact multivariate polynomial and Laurent-form arithmetic over Z.

Values live in a fixed variable context: indices 0..n_cluster-1 are cluster
variables (rendered x1..xn), the remaining indices are invertible coefficient
symbols (rendered y1..ym).  A Laurent form is a polynomial numerator over a
monomial denominator, kept reduced so that equality is byte equality of the
canonical serialization.

Monomials are packed into single ints (Monagan and Pearce, "Sparse polynomial
division using a heap", J. Symbolic Comput. 2011): each exponent has a 32-bit
field of 31 value bits under a guard bit, variable 0 in the most significant
field, and the total degree sits above all fields.  A product of monomials is
then one addition, a quotient one subtraction, divisibility one mask test,
and graded-lex order is integer order.  Exponents are limited to
``EXPONENT_LIMIT``; an operation that would exceed it raises
``ExponentOverflow`` instead of wrapping.  The public views (``terms``,
``den``, ``leading()``, ...) still use exponent tuples.
"""
from __future__ import annotations

import struct
from fractions import Fraction
from functools import cache, reduce
from operator import add, or_, sub
from typing import Sequence

Monomial = tuple[int, ...]

EXPONENT_LIMIT = (1 << 31) - 1


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a non-zero remainder."""


class LaurentViolation(ArithmeticError):
    """A quotient of Laurent forms is not a Laurent polynomial.

    Downstream this signals a falsification of the Laurent phenomenon for the
    attempted mutation sequence and must abort the run loudly.
    """


class ExponentOverflow(ArithmeticError):
    """An exponent would exceed ``EXPONENT_LIMIT`` (2**31 - 1)."""

    def __init__(self):
        super().__init__(f"an exponent exceeds the limit {EXPONENT_LIMIT} (2**31 - 1)")


class Context:
    """Variable naming: n_cluster x-variables followed by n_coeff y-symbols."""

    __slots__ = ("n_cluster", "n_coeff")

    def __init__(self, n_cluster: int, n_coeff: int = 0):
        if n_cluster < 0 or n_coeff < 0:
            raise ValueError("variable counts must be non-negative")
        self.n_cluster = n_cluster
        self.n_coeff = n_coeff

    @property
    def nvars(self) -> int:
        return self.n_cluster + self.n_coeff

    def name(self, i: int) -> str:
        if i < self.n_cluster:
            return f"x{i + 1}"
        return f"y{i - self.n_cluster + 1}"

    def names(self) -> list[str]:
        return [self.name(i) for i in range(self.nvars)]


class _Layout:
    """The packed monomial format for one number of variables.

    A packed monomial is ``sum(e[i] << 32 * (nvars - 1 - i)) | degree << shift``
    with every exponent at most ``EXPONENT_LIMIT``, so that the guard bit
    (bit 31) of every field is clear.  Packing and unpacking go through one
    ``struct`` call each, so they cost O(nvars) in C.
    """

    __slots__ = ("nvars", "struct", "nbytes", "shift", "exps", "guard")

    def __init__(self, nvars: int):
        if nvars < 0:
            raise ValueError("variable count must be non-negative")
        self.nvars = nvars
        self.struct = struct.Struct(f">{nvars}I")
        self.nbytes = 4 * nvars
        self.shift = 32 * nvars              # the degree field
        self.exps = (1 << self.shift) - 1    # all exponent fields
        self.guard = int.from_bytes(b"\x80\0\0\0" * nvars, "big")

    def pack(self, m: Sequence[int]) -> int:
        """Pack a tuple of non-negative exponents of the right length."""
        if m and max(m) > EXPONENT_LIMIT:
            raise ExponentOverflow()
        return int.from_bytes(self.struct.pack(*m), "big") | sum(m) << self.shift

    def unpack(self, m: int) -> Monomial:
        return self.struct.unpack((m & self.exps).to_bytes(self.nbytes, "big"))

    def checked(self, m: int) -> int:
        if m & self.guard:
            raise ExponentOverflow()
        return m

    def min_fold(self, acc: int, mons) -> int:
        """Componentwise minimum of exponent fields ``acc`` (degree clear) and
        every monomial of ``mons``, as a packed monomial (0 once it is 0).
        Every operand must have its guard bits clear.

        Per field, ``(a | guard) - b`` keeps its guard bit exactly when a >= b
        and never borrows from the next field.  ``ge - (ge >> 31)`` spreads
        each kept guard bit over its field's value bits, and subtracting the
        difference a - b under that mask turns a into b where a >= b."""
        g = self.guard
        for m in mons:
            if not acc:
                return 0
            t = (acc | g) - m
            ge = t & g
            acc -= t & (ge - (ge >> 31))
        return acc | sum(self.unpack(acc)) << self.shift


# one layout per variable count, built on first use and never changed
_layout = cache(_Layout)


class Polynomial:
    """Sparse polynomial: map from packed monomial to non-zero integer."""

    __slots__ = ("nvars", "_lay", "_t")

    def __init__(self, nvars: int, terms: dict[Monomial, int] | None = None):
        lay = _layout(nvars)
        packed: dict[int, int] = {}
        if terms:
            for m, c in terms.items():
                if len(m) != nvars:
                    raise ValueError("exponent vector has wrong length")
                if m and min(m) < 0:
                    raise ValueError("polynomial exponents must be non-negative")
                if c:
                    packed[lay.pack(m)] = c
        self.nvars = nvars
        self._lay = lay
        self._t = packed

    # constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._raw(_layout(nvars), {})

    @classmethod
    def constant(cls, c: int, nvars: int) -> "Polynomial":
        return cls._raw(_layout(nvars), {0: c} if c else {})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        lay = _layout(nvars)
        return cls._raw(lay, {1 << lay.shift | 1 << 32 * (nvars - 1 - i): 1})

    # views --------------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, int]:
        """A fresh map from exponent tuple to coefficient."""
        unpack = self._lay.unpack
        return {unpack(m): c for m, c in self._t.items()}

    def coefficients(self):
        """The non-zero coefficients, in no particular order."""
        return self._t.values()

    # predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.nvars == other.nvars and self._t == other._t

    def __hash__(self):
        e = self._lay.exps   # packed x_i and x_(i+61) hash alike; their bit lengths differ
        return hash((self.nvars, frozenset([((m & e).bit_length(), m, c)
                                            for m, c in self._t.items()])))

    # arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self._t)
        for m, c in other._t.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]
        return Polynomial._raw(self._lay, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self._lay, {m: -c for m, c in self._t.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: dict[int, int] = {}
        get = out.get
        right = list(other._t.items())
        for m1, c1 in self._t.items():
            for m2, c2 in right:
                m = m1 + m2
                s = get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        # a field sum below 2**32 never carries, so only a set guard bit can
        # mark an exponent above the limit
        if out:
            self._lay.checked(reduce(or_, out))
        return Polynomial._raw(self._lay, out)

    def mul_monomial(self, m: Monomial, c: int = 1) -> "Polynomial":
        if not c:
            return Polynomial.zero(self.nvars)
        return self._times(self._lay.pack(m), c)

    def leading(self) -> tuple[Monomial, int]:
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        m = max(self._t)
        return self._lay.unpack(m), self._t[m]

    def content_monomial(self) -> Monomial:
        """Componentwise minimum exponent over all terms (zero poly: all-0)."""
        return self._lay.unpack(self._content())

    def divide_monomial(self, d: Monomial) -> "Polynomial":
        """Quotient by a monomial that divides every term (NotDivisible if not)."""
        dp = self._lay.pack(d)
        if any((m - dp) & self._lay.guard for m in self._t):
            raise NotDivisible(f"monomial {tuple(d)} does not divide every term")
        return self._over(dp)

    def exact_div(self, den: "Polynomial") -> "Polynomial":
        """Long division under graded lex; raises NotDivisible on remainder."""
        self._check(den)
        if den.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return Polynomial.zero(self.nvars)
        dm = max(den._t)
        dc = den._t[dm]
        right = list(den._t.items())
        guard = self._lay.guard
        # graded lex is a monomial order, so an exact quotient's trailing
        # term is trail(self) / trail(den); long division finds the quotient's
        # terms in decreasing order, so one below that bound means a remainder
        low = min(self._t) - min(den._t)
        if low & guard:
            raise NotDivisible("trailing term of the divisor does not divide "
                               "the trailing term of the dividend")
        rem = dict(self._t)
        quo: dict[int, int] = {}
        while rem:
            rm = max(rem)
            rc = rem[rm]
            # dm divides rm exactly when rm - dm borrows into no guard bit; a
            # set guard bit also flags a remainder term past the limit, which
            # an exact division never leads with
            qm = rm - dm
            if qm & guard or qm < low or rc % dc:
                raise NotDivisible(f"remainder has leading term {self._lay.unpack(rm)}")
            qc = rc // dc
            quo[qm] = qc
            for m, c in right:
                t = qm + m
                s = rem.get(t, 0) - qc * c
                if s:
                    rem[t] = s
                else:
                    del rem[t]
        return Polynomial._raw(self._lay, quo)

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
    def _raw(cls, lay: _Layout, terms: dict[int, int]) -> "Polynomial":
        p = cls.__new__(cls)
        p.nvars = lay.nvars
        p._lay = lay
        p._t = terms
        return p

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("operands belong to different variable contexts")

    def _times(self, d: int, c: int = 1) -> "Polynomial":
        """Product with the packed monomial d and the non-zero integer c."""
        if not d and c == 1:
            return self
        out = {m + d: k * c for m, k in self._t.items()}
        if out:
            self._lay.checked(reduce(or_, out))
        return Polynomial._raw(self._lay, out)

    def _over(self, d: int) -> "Polynomial":
        """Quotient by a packed monomial d that divides every term."""
        if not d:
            return self
        return Polynomial._raw(self._lay, {m - d: c for m, c in self._t.items()})

    def _content(self) -> int:
        """Packed componentwise minimum over all terms (zero poly: 0)."""
        if not self._t:
            return 0
        mons = iter(self._t)
        return self._lay.min_fold(next(mons) & self._lay.exps, mons)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        unpack = self._lay.unpack
        return [(unpack(m), c) for m, c in sorted(self._t.items(), reverse=True)]

    def __repr__(self):
        return f"Polynomial({self.nvars}, {dict(self.sorted_terms())})"


class LaurentForm:
    """Polynomial numerator over a monomial denominator, kept reduced.

    Reduced means: for every variable with positive denominator exponent, the
    numerator is not divisible by that variable.  Zero is numerator 0 over
    denominator 1.
    """

    __slots__ = ("num", "_d", "_ser")

    def __init__(self, num: Polynomial, den: Monomial | None = None):
        if den is None:
            d = 0
        else:
            if len(den) != num.nvars:
                raise ValueError("denominator has wrong length")
            if den and min(den) < 0:
                raise ValueError("denominator exponents must be non-negative")
            d = num._lay.pack(den)
        self.num, self._d = _reduced(num, d)
        self._ser: bytes | None = None

    @classmethod
    def _raw(cls, num: Polynomial, d: int) -> "LaurentForm":
        """The form num / d for a reduced pair (packed denominator d)."""
        f = cls.__new__(cls)
        f.num = num
        f._d = d
        f._ser = None
        return f

    @classmethod
    def _make(cls, num: Polynomial, d: int) -> "LaurentForm":
        return cls._raw(*_reduced(num, d))

    # constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentForm":
        return cls._make(Polynomial.zero(nvars), 0)

    @classmethod
    def one(cls, nvars: int) -> "LaurentForm":
        return cls._make(Polynomial.constant(1, nvars), 0)

    @classmethod
    def constant(cls, c: int, nvars: int) -> "LaurentForm":
        return cls._make(Polynomial.constant(c, nvars), 0)

    @classmethod
    def variable(cls, i: int, nvars: int) -> "LaurentForm":
        return cls._make(Polynomial.variable(i, nvars), 0)

    # predicates ----------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def den(self) -> Monomial:
        """The denominator's exponent tuple."""
        return self.num._lay.unpack(self._d)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_reduced(self) -> bool:
        if self.num.is_zero():
            return not self._d
        lay = self.num._lay
        return not lay.min_fold(self._d & lay.exps, self.num._t)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentForm)
            and self._d == other._d
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self._d, self.num))

    # arithmetic ----------------------------------------------------------

    def __add__(self, other: "LaurentForm") -> "LaurentForm":
        # a / x^d1 + b / x^d2 = (a x^(d2 - low) + b x^(d1 - low)) / x^(d1 + d2 - low)
        # with low = min(d1, d2), so the denominator is max(d1, d2)
        d1, d2 = self._d, other._d
        lay = self.num._lay
        low = lay.min_fold(d1 & lay.exps, (d2,))
        return LaurentForm._make(self.num._times(d2 - low) + other.num._times(d1 - low),
                                 d1 + d2 - low)

    def __neg__(self) -> "LaurentForm":
        return LaurentForm._raw(-self.num, self._d)

    def __sub__(self, other: "LaurentForm") -> "LaurentForm":
        return self + (-other)

    def __mul__(self, other: "LaurentForm") -> "LaurentForm":
        # The content of a product is the sum of the contents, and a reduced
        # form has no content where it has a denominator, so cancelling each
        # numerator against the other denominator first leaves the product
        # reduced, its exponents final: overflow means the result overflows.
        lay = self.num._lay
        a, b = self.num, other.num
        d = self._d + other._d
        if other._d:
            s = lay.min_fold(other._d & lay.exps, a._t)
            a, d = a._over(s), d - s
        if self._d:
            s = lay.min_fold(self._d & lay.exps, b._t)
            b, d = b._over(s), d - s
        num = a * b
        return LaurentForm._raw(num, lay.checked(d)) if num._t else LaurentForm.zero(self.nvars)

    def divide(self, other: "LaurentForm") -> "LaurentForm":
        """Quotient; succeeds exactly when it is a Laurent polynomial."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent form")
        lay = self.num._lay
        content = other.num._content()
        # other's numerator over its content has no monomial factor, so it
        # divides num * x^k (k = other's denominator) exactly when it divides
        # num; x^k is applied after dividing, less what the new denominator
        # cancels, so no exponent grows past the result's
        try:
            q = self.num.exact_div(other.num._over(content))
        except NotDivisible as exc:
            raise LaurentViolation(
                "quotient is not a Laurent polynomial"
            ) from exc
        # cancel x^k against content and then against self's denominator, one
        # at a time: a sum of the two could set guard bits, which min_fold
        # must not see
        k = other._d
        s1 = lay.min_fold(k & lay.exps, (content,))
        s2 = lay.min_fold((k - s1) & lay.exps, (self._d,))
        return LaurentForm._make(q._times(k - s1 - s2),
                                 lay.checked(self._d + content - s1 - s2))

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
            if len(self.num._t) > 1:
                text = f"({text})"
            text = f"{text} / {ds}"
        return text

    def __repr__(self):
        return f"LaurentForm({self.num!r}, den={self.den})"


def _reduced(num: Polynomial, d: int) -> tuple[Polynomial, int]:
    """num / d (packed) with their common monomial factor cancelled; zero
    is numerator 0 over denominator 1."""
    if not num._t:
        return Polynomial.zero(num.nvars), 0
    if d:
        shift = num._lay.min_fold(d & num._lay.exps, num._t)
        if shift:
            return num._over(shift), d - shift
    return num, d


class DenominatorVector:
    """Exact image of a positive-coefficient Laurent form under the monomial
    valuation: entry v is (denominator exponent minus numerator content) of
    variable v.

    Because every cluster variable has strictly positive coefficients, sums
    never cancel, so the valuation maps the exchange recursion exactly:
    products add, sums take the componentwise maximum and quotients subtract.
    Tracking these vectors instead of full numerators makes deep explorations
    of infinite-type surfaces affordable; the full symbolic mode stays the
    default everywhere counts or positivity are asserted.
    """

    __slots__ = ("vec", "_ser")

    def __init__(self, vec):
        self.vec = tuple(vec)
        self._ser: bytes | None = None

    @classmethod
    def variable(cls, i: int, nvars: int) -> "DenominatorVector":
        return cls(tuple(-1 if j == i else 0 for j in range(nvars)))

    @classmethod
    def one(cls, nvars: int) -> "DenominatorVector":
        return cls((0,) * nvars)

    @property
    def nvars(self) -> int:
        return len(self.vec)

    def __add__(self, other: "DenominatorVector") -> "DenominatorVector":
        return DenominatorVector(map(max, self.vec, other.vec))

    def __mul__(self, other: "DenominatorVector") -> "DenominatorVector":
        return DenominatorVector(map(add, self.vec, other.vec))

    def divide(self, other: "DenominatorVector") -> "DenominatorVector":
        return DenominatorVector(map(sub, self.vec, other.vec))

    def __eq__(self, other) -> bool:
        return isinstance(other, DenominatorVector) and self.vec == other.vec

    def __hash__(self):
        return hash(self.vec)

    def canonical_serialize(self) -> bytes:
        if self._ser is None:
            self._ser = ("D|" + ",".join(map(str, self.vec))).encode()
        return self._ser

    def render(self, ctx: Context) -> str:
        return "d(" + ",".join(map(str, self.vec)) + ")"

    def __repr__(self):
        return f"DenominatorVector({self.vec})"


def denominator_vector(v: LaurentForm) -> DenominatorVector:
    """The valuation of an exact Laurent form (for cross-checking modes)."""
    if v.is_zero():
        raise ValueError("zero has no denominator vector")
    content = v.num.content_monomial()
    return DenominatorVector(tuple(d - c for d, c in zip(v.den, content)))
