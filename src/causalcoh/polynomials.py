"""Sparse multivariate Laurent polynomials over the rationals: the chart
scalars.

A chart scalar is a :class:`RationalFunction`: a Laurent polynomial with
int coefficients over one positive integer denominator, stored as
(1/d) * sum c_m x^m with gcd(d, c_m...) = 1.  The coefficients are kept in
a dict from packed monomial keys: x0^e0 * x1^e1 * ... is the single
integer sum((e_i + 2^15) << (16 i)).  Every exponent carries the offset
2^15, so exponents from -2^15 to 2^15 - 1 pack (far beyond desk scale),
negative ones included, and multiplying monomials is integer addition
minus the packed offset of the constant monomial.

On the conformally flat charts of this package the conformal factor is
the monomial 1/(H x_i), so every scalar the package builds -- metric,
inverse metric, Christoffel symbols, curvature, volume scalar and every
field derived from them -- is a Laurent polynomial, and the ring
operations, derivatives and division by a monomial stay inside that ring.
There is no rational-function normalisation: the stored form is
canonical, so equality is dict equality, and division by anything but a
monomial raises ``ValueError``.

The tensor kernels sum many products of scalars at one component, such as
d_c T[J] - sum Gamma * T or sum g^{cc} * v.  :func:`sum_of_products`
computes such a sum c_1 a_1 b_1 + c_2 a_2 b_2 + ... in one pass: every
product is accumulated into one int term dict over the common denominator
of all of them, and the result is reduced by one gcd pass.  A fold of
``+`` and ``*`` would allocate two scalars, copy a dict and reduce once per
term; the canonical form makes both routes give equal scalars.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_F0 = Fraction(0)

_SHIFT = 16
_MASK = (1 << _SHIFT) - 1
_OFFSET = 1 << (_SHIFT - 1)

#: The packed keys store the exponents e with -EXPONENT_BOUND <= e < EXPONENT_BOUND.
EXPONENT_BOUND = _OFFSET

_ONE_KEYS: dict[int, int] = {}


def _one_key(nvars: int) -> int:
    """Packed key of the constant monomial 1 (every exponent zero)."""
    key = _ONE_KEYS.get(nvars)
    if key is None:
        key = _ONE_KEYS[nvars] = sum(_OFFSET << (_SHIFT * i) for i in range(nvars))
    return key


def monomial_key(exponents) -> int:
    """The packed key of the monomial x^exponents in a ``terms`` dict."""
    key = 0
    for i, e in enumerate(exponents):
        if not -_OFFSET <= e < _OFFSET:
            raise ValueError(f"exponent {e} out of storable range")
        key |= (e + _OFFSET) << (_SHIFT * i)
    return key


def monomial_shift(nvars: int, exponents) -> int:
    """The integer whose addition to a packed monomial key of ``terms``
    multiplies that monomial by x^exponents (negative exponents divide)."""
    return monomial_key(exponents) - _one_key(nvars)


def _coerce(c):
    """Normalize a coefficient: ints stay ints, integral Fractions become ints.
    Anything else, a float included, raises ``TypeError``."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    return tuple(((key >> (_SHIFT * i)) & _MASK) - _OFFSET for i in range(nvars))


# -- term-dict kernels ---------------------------------------------------------

def _add_terms(a: dict, b: dict, fb: int = 1, fa: int = 1) -> dict:
    """fa * a + fb * b, dropping zero coefficients."""
    out = dict(a) if fa == 1 else {m: fa * c for m, c in a.items()}
    get = out.get
    if fb == 1:
        for m, c in b.items():
            acc = get(m)
            if acc is None:
                out[m] = c
            else:
                acc += c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
    else:
        for m, c in b.items():
            acc = get(m)
            if acc is None:
                out[m] = fb * c
            else:
                acc += fb * c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
    return out


def _mul_terms(a: dict, b: dict, nvars: int) -> dict:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    one = _one_key(nvars)
    if len(a) == 1:
        (ma, ca), = a.items()
        ma -= one
        return {ma + mb: ca * cb for mb, cb in b.items()}
    shifted = [(mb - one, cb) for mb, cb in b.items()]
    out = {}
    for ma, ca in a.items():
        for mb, cb in shifted:
            m = ma + mb
            c = ca * cb
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                acc += c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
    return out


def _derivative_terms(terms: dict, var: int) -> dict:
    # lowering one exponent maps distinct monomials to distinct monomials,
    # so no two terms of the result collide
    shift = _SHIFT * var
    step = 1 << shift
    out = {}
    for m, c in terms.items():
        e = ((m >> shift) & _MASK) - _OFFSET
        if e:
            out[m - step] = c * e
    return out


_new = object.__new__


def _rf(nvars: int, terms: dict, d: int) -> "RationalFunction":
    """A scalar from int ``terms`` over ``d`` > 0 sharing no common factor."""
    r = _new(RationalFunction)
    r.nvars = nvars
    r.terms = terms
    r.d = d
    return r


def _reduced(nvars: int, terms: dict, d: int) -> "RationalFunction":
    """A scalar from int ``terms`` over ``d`` > 0, after one gcd pass."""
    if d != 1:
        g = gcd(d, *terms.values())
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
            d //= g
    return _rf(nvars, terms, d)


class RationalFunction:
    """A chart scalar: a Laurent polynomial (1/d) * sum c_m x^m.

    ``terms`` maps packed monomial keys to int coefficients and ``d`` is a
    positive int with gcd(d, c_m...) = 1; zero is ``{}`` over 1.  The form
    is canonical, so equality compares dicts.  Scalars are built by
    :meth:`constant`, :meth:`variable`, :meth:`from_key_terms` and the ring
    operations.
    """

    __slots__ = ("nvars", "terms", "d")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_key_terms(cls, nvars: int, terms: dict) -> "RationalFunction":
        """The Laurent polynomial with the nonzero int coefficients ``terms``,
        keyed by :func:`monomial_key`; the dict is kept, not copied."""
        return _rf(nvars, terms, 1)

    @classmethod
    def constant(cls, nvars: int, c) -> "RationalFunction":
        """The constant c, an int or Fraction (a float raises ``TypeError``)."""
        c = _coerce(c)
        if not c:
            return _rf(nvars, {}, 1)
        return _rf(nvars, {_one_key(nvars): c.numerator}, c.denominator)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "RationalFunction":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        return _rf(nvars, {_one_key(nvars) + (1 << (_SHIFT * index)): 1}, 1)

    @property
    def den(self) -> "RationalFunction":
        """The denominator d as a constant scalar (``bench/layers.py`` reads it)."""
        return RationalFunction.constant(self.nvars, self.d)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def den_is_one(self) -> bool:
        """d == 1 (``bench/layers.py`` reads it)."""
        return self.d == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = RationalFunction.constant(self.nvars, other)
        return self.d == other.d and self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    # -- arithmetic -----------------------------------------------------

    def _combine(self, other: "RationalFunction", sign: int) -> "RationalFunction":
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.nvars, _add_terms(self.terms, other.terms, sign), d1)
        g = gcd(d1, d2)
        fa, fb = d2 // g, d1 // g
        return _reduced(self.nvars, _add_terms(self.terms, other.terms, sign * fb, fa),
                        d1 * fa)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if not self.terms:
            return other
        if not other.terms:
            return self
        return self._combine(other, 1)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        if not other.terms:
            return self
        return self._combine(other, -1)

    def __neg__(self) -> "RationalFunction":
        return _rf(self.nvars, {m: -c for m, c in self.terms.items()}, self.d)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return _reduced(self.nvars, _mul_terms(self.terms, other.terms, self.nvars),
                        self.d * other.d)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        """Exact division by a monomial c x^m; any other divisor raises."""
        b = other.terms
        if not b:
            raise ZeroDivisionError("division by the zero rational function")
        if len(b) != 1:
            raise ValueError(f"division by the non-monomial {other!r}")
        (mb, cb), = b.items()
        shift = mb - _one_key(self.nvars)
        f = other.d if cb > 0 else -other.d
        return _reduced(self.nvars, {m - shift: c * f for m, c in self.terms.items()},
                        self.d * abs(cb))

    def scale(self, c) -> "RationalFunction":
        """c times the scalar, for an int or Fraction c (exact scalars only:
        a float raises ``TypeError``)."""
        c = _coerce(c)
        if not c:
            return _rf(self.nvars, {}, 1)
        if isinstance(c, int):
            # gcd(d, terms) = 1, so only a factor shared by c and d cancels
            g = gcd(c, self.d)
            if g != 1:
                c //= g
            return _rf(self.nvars, {m: c * v for m, v in self.terms.items()}, self.d // g)
        p = c.numerator
        return _reduced(self.nvars, {m: p * v for m, v in self.terms.items()},
                        self.d * c.denominator)

    def derivative(self, var: int) -> "RationalFunction":
        return _reduced(self.nvars, _derivative_terms(self.terms, var), self.d)

    def evaluate(self, point) -> Fraction:
        total = _F0
        for key, c in self.terms.items():
            v = Fraction(c)
            for x, e in zip(point, _unpack(key, self.nvars)):
                if e:
                    v *= Fraction(x) ** e
            total += v
        return total / self.d

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(((_unpack(key, self.nvars), c) for key, c in self.terms.items()),
                           key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
            mono = "*".join(f"x{i}^{e}" if e != 1 else f"x{i}"
                            for i, e in enumerate(m) if e)
            bits.append(f"{c}" if not mono else (f"{c}*{mono}" if c != 1 else mono))
        body = " + ".join(bits)
        return body if self.d == 1 else f"({body}) / ({self.d})"


# The name ``bench/layers.py`` wraps to count scalar products; not API.
MultiPolynomial = RationalFunction


def sum_of_products(nvars: int, products) -> RationalFunction:
    """The scalar sum of c * a * b over the (c, a, b) triples of
    ``products``: c an int, a and b scalars, and b None for the term c * a.

    Every term is accumulated into one int term dict over the common
    denominator of all the terms, and the result is reduced by one gcd
    pass, so it equals the fold of ``+`` and ``*`` over the same terms.
    No terms give zero; a single term 1 * a is ``a`` itself.
    """
    if not products:
        return _rf(nvars, {}, 1)
    if len(products) == 1:
        c, a, b = products[0]
        if c == 1 and b is None:
            return a
    dens = [a.d if b is None else a.d * b.d for _, a, b in products]
    common = lcm(*dens)
    one = _one_key(nvars)
    out: dict[int, int] = {}
    get = out.get
    for (c, a, b), d in zip(products, dens):
        f = c * (common // d)
        if b is None:
            for m, x in a.terms.items():
                out[m] = get(m, 0) + f * x
            continue
        at, bt = a.terms, b.terms
        if len(at) > len(bt):
            at, bt = bt, at
        for ma, x in at.items():
            fx = f * x
            ma -= one
            for mb, y in bt.items():
                m = ma + mb
                out[m] = get(m, 0) + fx * y
    return _reduced(nvars, {m: c for m, c in out.items() if c}, common)
