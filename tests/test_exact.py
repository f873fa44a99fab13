"""Exact combinatorics and symbolic helpers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catalankit.exact
from catalankit.checks import geometric_inverse_check
from catalankit.exact import (
    Polynomial,
    RationalFunction,
    _integer_primitive,
    _poly_divmod,
    _poly_gcd,
    _primitive_prem,
    catalan,
    catalan_formulas,
    catalan_stream,
    double_factorial,
    exact_pow,
    falling_factorial,
    geometric_polynomial,
    polylog_neg,
    rising_factorial,
    stirling_first,
    stirling_second,
)

FIRST_CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_catalan_first_values():
    assert catalan_stream(9) == FIRST_CATALAN
    assert [catalan(n) for n in range(9)] == FIRST_CATALAN


@pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 101])
def test_catalan_formulas_agree(n):
    forms = catalan_formulas(n)
    assert set(forms) == {
        "factorial_quotient",
        "central_binomial",
        "gamma_ratio",
        "terminating_2f1",
    }
    assert len(set(forms.values())) == 1
    value = forms["factorial_quotient"]
    assert value.denominator == 1
    assert value == catalan(n)


def test_catalan_formulas_are_exact_rationals():
    # the Gamma-ratio route in particular must not fall back to floats
    for v in catalan_formulas(40).values():
        assert isinstance(v, Fraction)


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        catalan(-1)
    with pytest.raises(ValueError):
        catalan_formulas(-1)
    with pytest.raises(ValueError):
        catalan_stream(-2)


def test_double_factorial_conventions():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(7) == 105
    assert double_factorial(8) == 384
    with pytest.raises(ValueError):
        double_factorial(-2)


@given(st.integers(min_value=0, max_value=60))
def test_double_factorial_splits_factorial(n):
    assert double_factorial(n) * double_factorial(n - 1) == math.factorial(n)


def test_rising_falling_factorial():
    assert rising_factorial(Fraction(1, 2), 3) == Fraction(15, 8)
    assert rising_factorial(5, 0) == 1
    assert falling_factorial(Fraction(1, 2), 2) == -Fraction(1, 4)
    # (x)_n = (-1)^n <-x>_n
    x = Fraction(-3, 7)
    assert rising_factorial(x, 4) == falling_factorial(-x, 4)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_stirling_orthogonality(n, m):
    total = sum(stirling_first(n, k) * stirling_second(k, m) for k in range(n + 1))
    assert total == (1 if n == m else 0)


def test_stirling_rows():
    assert [stirling_second(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert [stirling_first(4, k) for k in range(5)] == [0, -6, 11, -6, 1]
    assert stirling_first(6, 8) == 0
    assert stirling_second(0, 0) == 1


def test_polynomial_arithmetic():
    p = Polynomial([1, 2, 3])  # 1 + 2x + 3x^2
    q = Polynomial([0, 1])
    assert (p * q).coeffs == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
    assert (p - p).degree == -1
    assert p(Fraction(2)) == 17
    assert p.derivative().coeffs == (Fraction(2), Fraction(6))
    assert Polynomial([0, 0, 0, 5])(2) == 40


def test_rational_function_reduction():
    num = Polynomial([0, 1, 1])  # x + x^2 = x(1+x)
    den = Polynomial([0, 0, 1])  # x^2
    r = RationalFunction(num, den)
    assert r == RationalFunction(Polynomial([1, 1]), Polynomial([0, 1]))
    assert r(Fraction(3)) == Fraction(4, 3)


def test_rational_function_derivative():
    # d/dx (1/(1-x)) = 1/(1-x)^2
    r = RationalFunction(1, Polynomial([1, -1]))
    d = r.derivative()
    assert d == RationalFunction(1, Polynomial([1, -1]) * Polynomial([1, -1]))


def _euclid_gcd(a, b):
    """Oracle: Euclid's algorithm over Fraction coefficients, made monic."""
    while not b.is_zero():
        a, b = b, _poly_divmod(a, b)[1]
    return a.monic()


def _content(cs):
    g = 0
    for c in cs:
        g = math.gcd(g, c)
    return g


_coeff = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
_poly = st.lists(_coeff, max_size=5).map(Polynomial)
_nonzero_poly = _poly.filter(lambda p: not p.is_zero())


def _power(p, k):
    out = Polynomial([1])
    for _ in range(k):
        out = out * p
    return out


# planted common factors: (1+y)^k, (1-y)^k, random linear and quadratic
_factor = st.one_of(
    st.integers(1, 4).map(lambda k: _power(Polynomial([1, 1]), k)),
    st.integers(1, 4).map(lambda k: _power(Polynomial([1, -1]), k)),
    st.lists(_coeff, min_size=2, max_size=3).map(Polynomial),
).filter(lambda p: p.degree >= 1)
_int_poly = st.lists(st.integers(-30, 30), min_size=2, max_size=7).filter(lambda cs: cs[-1])


@given(_poly, _poly, st.lists(_factor, max_size=3))
@settings(max_examples=200, deadline=None)
def test_poly_gcd_matches_fraction_euclid(f, g, factors):
    for h in factors:
        f, g = f * h, g * h
    want = _euclid_gcd(f, g)
    assert _poly_gcd(f, g) == want
    assert _poly_gcd(g, f) == want
    assert want.is_zero() or want.coeffs[-1] == 1


def test_poly_gcd_constants_and_zero():
    x1 = Polynomial([1, 1])
    assert _poly_gcd(Polynomial([Fraction(3, 4)]), x1 * x1) == Polynomial([1])
    assert _poly_gcd(Polynomial(), Polynomial([0, 2, 2])) == Polynomial([0, 1, 1])
    assert _poly_gcd(Polynomial([0, 2, 2]), Polynomial()) == Polynomial([0, 1, 1])
    assert _poly_gcd(Polynomial(), Polynomial()).is_zero()


@given(_nonzero_poly)
def test_integer_primitive_is_a_positive_primitive_multiple(p):
    cs = _integer_primitive(p)
    assert all(isinstance(c, int) for c in cs)
    assert _content(cs) == 1
    ratio = Fraction(cs[-1]) / p.coeffs[-1]
    assert ratio > 0 and Polynomial(cs) == p * ratio


@given(_int_poly, _int_poly)
@settings(deadline=None)
def test_primitive_prem_is_primitive_remainder(u, v):
    if len(u) < len(v):
        u, v = v, u
    r = _primitive_prem(u, v)
    rem = _poly_divmod(Polynomial(u), Polynomial(v))[1]
    assert r == [] or _content(r) == 1
    assert Polynomial(r).monic() == rem.monic()


@given(_poly, _nonzero_poly, st.lists(_factor, min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_rational_function_cancels_common_factors(f, g, factors):
    h = Polynomial([1])
    for k in factors:
        h = h * k
    r = RationalFunction(f * h, g * h)
    assert r == RationalFunction(f, g)
    assert r.den.coeffs[-1] == 1
    if f.is_zero():
        assert r.num.is_zero() and r.den == 1
    else:
        assert _euclid_gcd(r.num, r.den) == Polynomial([1])


# repeated factors, y^k among them, so that gcd(D, D') is not trivial
_planted = st.lists(
    st.one_of(_factor, st.integers(1, 4).map(lambda k: _power(Polynomial([0, 1]), k))),
    max_size=3,
)


def _times(p, factors):
    for k in factors:
        p = p * k
    return p


_ratfun = st.builds(
    lambda f, fs, g, gs: RationalFunction(_times(f, fs), _times(g, gs)),
    _poly, _planted, _nonzero_poly, _planted,
)


def _fields(r):
    return r.num.coeffs, r.den.coeffs


@given(
    _ratfun,
    _ratfun,
    st.one_of(
        st.just(0),
        st.integers(-9, 9),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
    ),
)
@settings(max_examples=60, deadline=None)
def test_henrici_arithmetic_matches_the_full_constructor(r, s, c):
    # products, scalings, negation and the derivative skip the full gcd;
    # each must still give the constructor's normal form of the unreduced
    # num and den
    full = RationalFunction
    assert _fields(r * s) == _fields(full(r.num * s.num, r.den * s.den))
    assert _fields(r * s.num) == _fields(full(r.num * s.num, r.den))
    assert _fields(r * c) == _fields(full(r.num * c, r.den))
    assert _fields(c * r) == _fields(full(r.num * c, r.den))
    assert _fields(-r) == _fields(full(-r.num, r.den))
    assert _fields(r.derivative()) == _fields(
        full(r.num.derivative() * r.den - r.num * r.den.derivative(), r.den * r.den)
    )


def test_equality_with_foreign_types_is_false():
    r = RationalFunction(3)
    assert not r == "x"
    assert r != "x"
    assert not r == None  # noqa: E711
    assert r != None  # noqa: E711


def test_equal_constants_hash_equal():
    assert Polynomial([3]) == 3 and RationalFunction(3) == Polynomial([3])
    assert len({RationalFunction(3), Polynomial([3]), 3}) == 1
    assert hash(Polynomial()) == hash(0) == hash(RationalFunction(0))
    line = Polynomial([1, Fraction(1, 2)])
    assert RationalFunction(line) == line and hash(RationalFunction(line)) == hash(line)


@pytest.mark.parametrize("n", range(9))
def test_geometric_inverse_identity(n):
    assert geometric_inverse_check(n)


def test_geometric_polynomial_fubini():
    assert [geometric_polynomial(n)(Fraction(1)) for n in range(6)] == [
        1, 1, 3, 13, 75, 541,
    ]


@pytest.mark.parametrize(
    "k, x",
    [(j, x) for j in (1, 2, 3, 4) for x in (Fraction(1, 3), Fraction(-2, 5))],
)
def test_polylog_neg_matches_series(k, x):
    # sum_{j>=1} j^k x^j, summed far past any visible contribution
    partial = sum(Fraction(j) ** k * x**j for j in range(1, 200))
    assert abs(polylog_neg(k)(x) - partial) < Fraction(1, 10**30)


def test_polylog_neg_closed_forms():
    x = Fraction(5, 7)
    assert polylog_neg(1)(x) == x / (1 - x) ** 2
    assert polylog_neg(2)(x) == x * (1 + x) / (1 - x) ** 3
    assert polylog_neg(3)(x) == x * (1 + 4 * x + x * x) / (1 - x) ** 4


def test_polylog_neg_matches_the_derivative_chain():
    # the route it replaced: Li_0 = x/(1-x), Li_{-k} = x d/dx Li_{-k+1};
    # the Eulerian closed form must store the same normal form at every k
    chain = RationalFunction(Polynomial([0, 1]), Polynomial([1, -1]))
    for k in range(41):
        assert _fields(polylog_neg(k)) == _fields(chain), k
        chain = chain.derivative() * Polynomial([0, 1])


def test_exact_pow():
    assert exact_pow(Fraction(8), Fraction(2, 3)) == 4
    assert exact_pow(Fraction(1, 4), Fraction(1, 2)) == Fraction(1, 2)
    assert exact_pow(Fraction(2), Fraction(1, 2)) is None
    # exponent 1/2 is the package's rational square root test
    assert exact_pow(Fraction(9, 4), Fraction(1, 2)) == Fraction(3, 2)
    assert exact_pow(Fraction(49), Fraction(1, 2)) == 7
    assert exact_pow(Fraction(2, 9), Fraction(1, 2)) is None
    # float-derived exponents have huge power-of-two denominators; must
    # return quickly instead of attempting astronomical integer powers
    assert exact_pow(Fraction(3), Fraction(0.1)) is None


def test_power_arithmetic_pairs_the_power_with_its_arithmetic():
    power_arithmetic = catalankit.exact._power_arithmetic
    to_float = catalankit.exact._to_float
    assert power_arithmetic(Fraction(9, 4), Fraction(1, 2)) == (Fraction(3, 2), Fraction)
    assert power_arithmetic(8, Fraction(2, 3)) == (4, Fraction)
    # an irrational root: math.sqrt at p = 1/2, the float power otherwise
    b = 2.315
    assert b**0.5 != math.sqrt(b)
    assert power_arithmetic(b, Fraction(1, 2)) == (math.sqrt(b), to_float)
    assert power_arithmetic(2, Fraction(1, 3)) == (2.0 ** (1 / 3), to_float)
    # the float stand-in keeps the range errors of the float of b and of b^p
    with pytest.raises(ValueError, match=r"value about 1e\+400 is outside float range"):
        power_arithmetic(2 * Fraction(10) ** 400, Fraction(1, 2))
    with pytest.raises(ValueError, match=r"b\^p about 1e\+450 is outside float range"):
        power_arithmetic(2 * Fraction(10) ** 300, Fraction(3, 2))


@given(
    st.fractions(min_value=Fraction(-4), max_value=4),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=60)
def test_rising_factorial_recurrence(x, n):
    assert rising_factorial(x, n + 1) == rising_factorial(x, n) * (x + n)
