import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcoh.charts import de_sitter, minkowski
from causalcoh.polynomials import RationalFunction, monomial_key, sum_of_products


def poly(nvars, *terms):
    """The scalar sum of c * x^mono over the (mono, c) terms."""
    total = RationalFunction.constant(nvars, 0)
    for mono, c in terms:
        total = total + RationalFunction.from_key_terms(nvars, {monomial_key(mono): 1}).scale(c)
    return total


def test_constant_and_variable():
    one = RationalFunction.constant(2, 1)
    x = RationalFunction.variable(2, 0)
    assert one == 1 and one.terms == {monomial_key((0, 0)): 1} and one.d == 1
    assert x.terms == {monomial_key((1, 0)): 1} and x.d == 1
    assert (x * x).terms == {monomial_key((2, 0)): 1}
    with pytest.raises(ValueError):
        RationalFunction.variable(2, 2)


def test_zero_coefficients_dropped():
    p = poly(2, ((1, 0), 1), ((1, 0), -1))
    assert p.is_zero()


def test_mul_example():
    x = RationalFunction.variable(1, 0)
    one = RationalFunction.constant(1, 1)
    p = (x + one) * (x - one)
    assert p == poly(1, ((2,), 1), ((0,), -1))


def test_derivative():
    # d/dx0 (x0^2 x1 + 3 x1) = 2 x0 x1
    p = poly(2, ((2, 1), 1), ((0, 1), 3))
    assert p.derivative(0) == poly(2, ((1, 1), 2))
    assert p.derivative(0).derivative(0) == poly(2, ((0, 1), 2))


def test_evaluate():
    p = poly(2, ((2, 0), 1), ((0, 1), Fraction(1, 2)))
    assert p.evaluate((Fraction(3), Fraction(4))) == 11


def test_rf_normalization_cancels_monomials():
    # a monomial denominator cancels into negative exponents: x0^2 / x0^3 = x0^-1
    x0 = RationalFunction.variable(2, 0)
    r = (x0 * x0) / (x0 * x0 * x0)
    assert r.terms == {monomial_key((-1, 0)): 1} and r.d == 1
    assert repr(r) == "x0^-1"
    assert r * RationalFunction.variable(2, 0) == 1


def test_rf_fraction_coefficients_move_to_denominator():
    r = poly(1, ((1,), Fraction(1, 2)))
    assert all(isinstance(c, int) for c in r.terms.values())
    assert r.d == 2
    # one denominator for all terms, reduced against every coefficient
    r = poly(1, ((1,), Fraction(1, 6)), ((0,), Fraction(2, 3)))
    assert r.terms == poly(1, ((1,), 1), ((0,), 4)).terms and r.d == 6
    assert (r + r).d == 3 and (r.scale(6)).d == 1


def test_rf_non_monomial_divisor_rejected():
    x = RationalFunction.variable(1, 0)
    one = RationalFunction.constant(1, 1)
    with pytest.raises(ValueError):
        one / (x + one)
    with pytest.raises(ValueError):
        one / poly(1, ((1,), 1), ((0,), -1))
    # exact division by monomials, negative and fractional coefficients included
    assert (x * x + x) / x == x + one
    assert one / (x.scale(Fraction(-2, 3))) == (one / x).scale(Fraction(-3, 2))
    # equality is dict equality on the canonical form
    a = (x * x - one) * (x + one)
    b = x * x * x + x * x - x - one
    assert a == b and a.terms == b.terms and a.d == b.d


def test_rf_derivative_quotient_rule():
    x = RationalFunction.variable(1, 0)
    one = RationalFunction.constant(1, 1)
    r = one / x
    assert r.derivative(0) == -(one / (x * x))


def test_rf_division_by_zero():
    zero = RationalFunction.constant(1, 0)
    one = RationalFunction.constant(1, 1)
    with pytest.raises(ZeroDivisionError):
        one / zero
    with pytest.raises(ZeroDivisionError):
        RationalFunction.variable(1, 0) / zero


def test_rf_scale_keeps_int_coefficients():
    x = RationalFunction.variable(3, 1)
    r = x.scale(Fraction(2, 3))
    assert all(isinstance(c, int) for c in r.terms.values())
    assert isinstance(r.d, int)
    assert r == poly(3, ((0, 1, 0), 2)) / RationalFunction.constant(3, 3)
    assert r.scale(Fraction(3, 2)) == x and r.scale(3).d == 1


small_polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
              st.integers(-4, 4)),
    min_size=0, max_size=4).map(lambda ts: poly(2, *ts))


@settings(max_examples=80, derandomize=True)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a


@settings(max_examples=60, derandomize=True)
@given(small_polys, small_polys)
def test_derivative_leibniz(a, b):
    lhs = (a * b).derivative(0)
    rhs = a.derivative(0) * b + a * b.derivative(0)
    assert lhs == rhs


laurent_polys = st.lists(
    st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
              st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    min_size=0, max_size=4).map(lambda ts: poly(2, *ts))

laurent_monomials = st.tuples(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)).map(
        lambda t: poly(2, t))


@settings(max_examples=60, derandomize=True)
@given(laurent_polys, laurent_polys, laurent_polys, laurent_monomials)
def test_rf_laurent_ring_axioms(a, b, c, u):
    zero = RationalFunction.constant(2, 0)
    one = RationalFunction.constant(2, 1)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    assert a + zero == a and a * one == a and (a - a).is_zero()
    # the units are the monomials: division by one is exact
    assert (a / u) * u == a
    assert (a * u) / u == a
    assert (a * b).derivative(1) == a.derivative(1) * b + a * b.derivative(1)


@settings(max_examples=40, derandomize=True)
@given(laurent_polys, laurent_polys, laurent_monomials, st.randoms(use_true_random=False))
def test_rf_evaluation_consistent(a, b, u, rng):
    # evaluation at a point with nonzero coordinates is a ring homomorphism;
    # the right-hand sides are computed in Fraction arithmetic
    point = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(2))
    pa, pb, pu = a.evaluate(point), b.evaluate(point), u.evaluate(point)
    assert (a + b).evaluate(point) == pa + pb
    assert (a - b).evaluate(point) == pa - pb
    assert (a * b).evaluate(point) == pa * pb
    assert (a / u).evaluate(point) == pa / pu
    assert a.scale(Fraction(-5, 7)).evaluate(point) == pa * Fraction(-5, 7)


# -- the fused sum of products against the fold of + and * ---------------------

FUSED_CHARTS = [minkowski(4), de_sitter(4, 1), de_sitter(4, Fraction(2, 3))]


def _fold(nvars, products):
    """The sum of c * a * b through the ring's own + and *."""
    total = RationalFunction.constant(nvars, 0)
    for c, a, b in products:
        total = total + (a if b is None else a * b).scale(c)
    return total


def _random_scalar(rng, chart):
    """A chart scalar times a few monomials with exponents in [-1, 1] (so
    products repeat monomials) and coefficients over non-unit denominators;
    one in five is zero."""
    n = chart.n
    if rng.random() < 0.2:
        return chart.zero
    terms = [(tuple(rng.randint(-1, 1) for _ in range(n)),
              Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4, 6))))
             for _ in range(rng.randint(1, 4))]
    p = poly(n, *terms)
    gammas = [g for pulls in chart.connection_pulls for entries in pulls.values()
              for _, g in entries]
    return p * rng.choice(chart.metric_diag + chart.inverse_metric_diag + tuple(gammas)
                          + (chart.rf(1),))


@pytest.mark.parametrize("chart", FUSED_CHARTS,
                         ids=["minkowski4", "deSitter4", "deSitter4(H=2/3)"])
def test_sum_of_products_equals_the_fold(chart):
    rng = random.Random(19)
    n = chart.n
    assert any(v.d != 1 for v in (_random_scalar(rng, chart) for _ in range(20)))
    for _ in range(150):
        products = [(rng.randint(-3, 3), _random_scalar(rng, chart),
                     None if rng.random() < 0.3 else _random_scalar(rng, chart))
                    for _ in range(rng.randint(0, 6))]
        fused, folded = sum_of_products(n, products), _fold(n, products)
        assert fused == folded and fused.d == folded.d
        assert fused.d > 0 and gcd(fused.d, *fused.terms.values()) == 1
        assert all(isinstance(c, int) and c for c in fused.terms.values())
        # full cancellation: the same terms with the opposite signs
        cancelled = sum_of_products(n, products + [(-c, b if b is not None else a,
                                                    a if b is not None else None)
                                                   for c, a, b in products])
        assert cancelled.terms == {} and cancelled.d == 1


def test_sum_of_products_edge_cases():
    chart = de_sitter(4, Fraction(2, 3))
    zero, g = chart.zero, chart.metric_diag[0]
    assert sum_of_products(4, []) == zero and sum_of_products(4, []).d == 1
    assert sum_of_products(4, [(1, g, None)]) is g
    assert sum_of_products(4, [(0, g, g), (5, zero, g), (2, g, zero)]).terms == {}
    assert sum_of_products(4, [(2, g, None), (-1, g, None), (-1, g, None)]).d == 1
    half = g.scale(Fraction(1, 2))
    assert sum_of_products(4, [(1, half, None), (1, half, None)]) == g


# -- exact scalars only ----------------------------------------------------------

def test_scale_refuses_floats():
    x = RationalFunction.variable(2, 0)
    for bad in (0.1, 2.0, "2", complex(1, 0)):
        with pytest.raises(TypeError, match=f"expected int or Fraction, got {type(bad).__name__}"):
            x.scale(bad)
    assert x.scale(True) == x and x.scale(Fraction(4, 2)).d == 1


def test_constructors_refuse_floats():
    # Fraction(0.1) would store 3602879701896397/36028797018963968
    x = RationalFunction.variable(2, 0)
    chart = de_sitter(4)
    builds = {"RationalFunction.scale": x.scale,
              "RationalFunction.constant": lambda c: RationalFunction.constant(2, c),
              "Chart.rf": chart.rf}
    for name, build in builds.items():
        for bad in (0.1, 2.0, "2", complex(1, 0)):
            with pytest.raises(TypeError, match=f"expected int or Fraction, got {type(bad).__name__}"):
                build(bad)
        assert build(Fraction(4, 2)) == build(2), name
    tenth = RationalFunction.constant(2, Fraction(1, 10))
    assert tenth.terms == {monomial_key((0, 0)): 1} and tenth.d == 10
    assert chart.rf(Fraction(4, 2)) == chart.rf(2) and chart.rf(True) == chart.one


# -- repr: failure details quote it ------------------------------------------------

def test_repr_is_pinned():
    x0, x1 = RationalFunction.variable(2, 0), RationalFunction.variable(2, 1)
    one = RationalFunction.constant(2, 1)
    assert repr(RationalFunction.constant(2, 0)) == "0"
    assert repr(RationalFunction.constant(2, Fraction(-2, 3))) == "(-2) / (3)"
    assert repr(one / x0) == "x0^-1"
    assert repr((x0 * x0 + x1.scale(3)).scale(Fraction(1, 2))) == "(x0^2 + 3*x1) / (2)"
    assert repr((x0 * x1 - x1.scale(2) / (x0 * x0)).scale(-1)) == "-1*x0*x1 + 2*x0^-2*x1"
