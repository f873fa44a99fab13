"""Exact integer and rational combinatorics used across the package.

The combinatorics and polynomial arithmetic here run on ``int`` and
``fractions.Fraction``, so their results are exact oracles for the float
representations elsewhere. The exactness policy lives here too, with the
float helpers it rounds by (``_to_float``, ``_float_pow``).

Conventions the rest of the package relies on:

* ``double_factorial(-1) == 1`` and ``double_factorial(0) == 1``, so sums
  whose last term involves (-1)!! stay well defined.
* ``stirling_first`` / ``stirling_second`` return 0 when k is outside
  0..n instead of raising, which keeps triangular sums free of bounds
  checks.
* ``stirling_first`` returns the signed numbers s(n, k).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

__all__ = [
    "catalan",
    "catalan_formulas",
    "catalan_stream",
    "double_factorial",
    "rising_factorial",
    "falling_factorial",
    "stirling_first",
    "stirling_second",
    "geometric_polynomial",
    "polylog_neg",
    "exact_pow",
    "Polynomial",
    "RationalFunction",
]


def _is_exact(*xs) -> bool:
    """The package's one exactness test: every x is an int or a Fraction.
    A route returns a Fraction only if its inputs pass it."""
    return all(isinstance(x, (int, Fraction)) for x in xs)


def _float_range_error(name: str, exp10: float) -> ValueError:
    """The one reason a value cannot be a float: `name` is about 10^exp10."""
    return ValueError(f"{name} about 1e{exp10:+.0f} is outside float range")


def _to_float(x) -> float:
    """float(x), with a ValueError that gives the reason when x is an
    exact value beyond the float range (float() raises OverflowError)."""
    try:
        return float(x)
    except OverflowError:
        q = Fraction(x)
        exp10 = math.log10(abs(q.numerator)) - math.log10(q.denominator)
        raise _float_range_error("value", exp10) from None


def _float_pow(base, exponent, name: str):
    """base ** exponent, with a ValueError naming the power when a float
    result is beyond the float range (float ** raises OverflowError)."""
    try:
        return base ** exponent
    except OverflowError:
        raise _float_range_error(name, exponent * math.log10(base)) from None


def _power_arithmetic(b, p):
    """(b**p, cast): the one owner of whether a route can stay exact. The
    Fraction that exact_pow finds, with Fraction; else a float, with
    _to_float. sqrt(b) (p = 1/2) is math.sqrt, any other power _float_pow.
    A route runs its inputs through cast, then rounds by _exact_or_float."""
    power = exact_pow(b, p)
    if power is not None:
        return power, Fraction
    if p == Fraction(1, 2):
        return math.sqrt(_to_float(b)), _to_float
    return _float_pow(_to_float(b), _to_float(p), "b^p"), _to_float


def _exact_or_float(value, *inputs):
    """The package's one exactness policy, for a route's final value:
    value itself when every input passes _is_exact, else _to_float(value)."""
    return value if _is_exact(*inputs) else _to_float(value)


# The domain rules that every route taking n or p applies, in one place.
# Values print with str, as the command line echoes them (1/2, not
# Fraction(1, 2)).
def _check_n(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")


def _check_p(p) -> None:
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")


def _check_c2_domain(a, b, n) -> None:
    """The inputs of C2(n; a, b), which the functional shares: n, a >= 0
    and b > 0, both finite."""
    _check_n(n)
    if not a >= 0:
        raise ValueError(f"a must be >= 0, got {a}")
    if not b > 0:
        raise ValueError(f"b must be > 0, got {b}")
    if a == math.inf or b == math.inf:
        raise ValueError(f"a and b must be finite, got a = {a}, b = {b}")


def catalan_formulas(n: int) -> dict[str, Fraction]:
    """C_n by each closed formula separately, keyed by formula name.

    The four routes: factorial quotient, central binomial over n+1, the
    half-integer Gamma-ratio rearranged into an exact rational, and the
    terminating 2F1(-n, 1-n; 2; 1) sum.
    """
    if n < 0:
        raise ValueError("catalan: n must be >= 0")
    quotient = Fraction(factorial(2 * n), factorial(n) * factorial(n + 1))
    central = Fraction(comb(2 * n, n), n + 1)
    # 4^n * Gamma(n + 1/2) / (sqrt(pi) * Gamma(n + 2)), with
    # Gamma(n + 1/2) / sqrt(pi) = (2n)! / (4^n n!) kept as an exact rational.
    gamma_half_ratio = Fraction(factorial(2 * n), 4**n * factorial(n))
    gamma_form = 4**n * gamma_half_ratio / factorial(n + 1)
    # 2F1(-n, 1-n; 2; 1) by its term ratio (k-n)(k+1-n) / ((k+2)(k+1)), on the
    # integers (n+1) t_k = C(n+1, k+1) C(n-1, k) over one denominator; t_n = 0.
    term = total = n + 1
    for k in range(n - 1):
        term = term * (n - k) * (n - 1 - k) // ((k + 2) * (k + 1))
        total += term
    hyp_form = Fraction(total, n + 1)
    return {
        "factorial_quotient": quotient,
        "central_binomial": central,
        "gamma_ratio": gamma_form,
        "terminating_2f1": hyp_form,
    }


def catalan(n: int) -> int:
    """Catalan number C_n = C(2n, n) / (n + 1). The formulas of `catalan_formulas`
    and the recurrence are compared by `catalankit catalan` (any n), the selftest
    suite catalan_formulas (n <= 60) and the acceptance tests (n <= 300)."""
    if n < 0:
        raise ValueError("catalan: n must be >= 0")
    return comb(2 * n, n) // (n + 1)


def catalan_stream(count: int) -> list[int]:
    """First ``count`` Catalan numbers via C_{n+1} = 2(2n+1) C_n / (n+2)."""
    if count < 0:
        raise ValueError("catalan_stream: count must be >= 0")
    out: list[int] = []
    c = 1
    for n in range(count):
        out.append(c)
        c = c * 2 * (2 * n + 1) // (n + 2)
    return out


def double_factorial(n: int) -> int:
    """n!! for n >= -1, with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError("double_factorial: n must be >= -1")
    return math.prod(range(n, 1, -2))


def rising_factorial(x, n: int):
    """Pochhammer symbol (x)_n = x (x+1) ... (x+n-1); (x)_0 = 1.

    Works for int, Fraction and float arguments alike.
    """
    if n < 0:
        raise ValueError("rising_factorial: n must be >= 0")
    out = 1
    for i in range(n):
        out = out * (x + i)
    return out


def falling_factorial(x, n: int):
    """Falling factorial x (x-1) ... (x-n+1); equals (-1)^n (-x)_n."""
    if n < 0:
        raise ValueError("falling_factorial: n must be >= 0")
    out = 1
    for i in range(n):
        out = out * (x - i)
    return out


@lru_cache(maxsize=None)
def _stirling_row(n: int, first_kind: bool) -> tuple[int, ...]:
    """Row n of s(n, k) (first kind) or S(n, k), k = 0..n, built from row 0
    by the triangle recurrence in a loop, so n has no recursion limit."""
    row = (1,)
    for m in range(n):
        prev = (0, *row, 0)  # row m padded: prev[k] is row m at k - 1
        row = tuple(prev[k] + (-m if first_kind else k) * prev[k + 1] for k in range(m + 2))
    return row


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k); 0 out of range."""
    if n < 0:
        raise ValueError("stirling_first: n must be >= 0")
    return _stirling_row(n, True)[k] if 0 <= k <= n else 0


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k); 0 out of range."""
    if n < 0:
        raise ValueError("stirling_second: n must be >= 0")
    return _stirling_row(n, False)[k] if 0 <= k <= n else 0


class Polynomial:
    """Dense univariate polynomial with Fraction coefficients.

    ``coeffs[i]`` is the coefficient of x^i; trailing zeros are stripped,
    and the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if isinstance(other, RationalFunction):
            return NotImplemented
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate by Horner's rule; composes when x is a Polynomial."""
        acc = Polynomial() if isinstance(x, Polynomial) else 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> Polynomial:
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def monic(self) -> Polynomial:
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Polynomial([c / lead for c in self.coeffs])

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == _as_poly(other)
        return NotImplemented

    def __hash__(self):
        # a constant equals its coefficient, so it hashes like it
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        parts = [f"{c}*x^{i}" if i else f"{c}" for i, c in enumerate(self.coeffs) if c]
        return "Polynomial(" + " + ".join(parts) + ")"


def _as_poly(x) -> Polynomial:
    return x if isinstance(x, Polynomial) else Polynomial([x])


def _poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, a.degree - b.degree + 1)
    rem = list(a.coeffs)
    db, lead = b.degree, b.coeffs[-1]
    while True:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        shift = len(rem) - 1 - db
        factor = rem[-1] / lead
        q[shift] = factor
        for i in range(db + 1):
            rem[shift + i] -= factor * b.coeffs[i]
        rem.pop()
    return Polynomial(q), Polynomial(rem)


def _primitive(cs: list[int]) -> list[int]:
    """cs divided by the gcd of its entries (its content)."""
    g = 0
    for c in cs:
        g = math.gcd(g, c)
        if g == 1:
            return cs
    return [c // g for c in cs] if g > 1 else cs


def _integer_primitive(p: Polynomial) -> list[int]:
    """Primitive integer coefficients of a positive rational multiple of p."""
    d = 1
    for c in p.coeffs:
        d = math.lcm(d, c.denominator)
    return _primitive([c.numerator * (d // c.denominator) for c in p.coeffs])


def _primitive_prem(u: list[int], v: list[int]) -> list[int]:
    """Primitive part of a pseudo-remainder of u by v, len(u) >= len(v) >= 2.

    Each step cancels the leading term of r by r := m r - c x^shift v with
    m, c the cofactors of gcd(lead(v), lead(r)), then divides r by its
    content, so coefficient growth does not compound from step to step.
    """
    dv, lead = len(v) - 1, v[-1]
    r = list(u)
    while len(r) > dv:
        top = r.pop()
        g = math.gcd(lead, top)
        m, c = lead // g, top // g
        if m != 1:
            r = [m * x for x in r]
        shift = len(r) - dv
        for i in range(dv):
            r[shift + i] -= c * v[i]
        while r and r[-1] == 0:
            r.pop()
        r = _primitive(r)
    return r


def _poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of a and b; zero only when both are zero.

    Runs the primitive polynomial remainder sequence on integer
    coefficients (Knuth, TAOCP Vol. 2, 4.6.1): clear each operand's
    denominators, take primitive parts, and replace (u, v) by
    (v, primitive pseudo-remainder of u by v) until the remainder is zero
    or a constant. Every remainder is a nonzero rational multiple of the
    one Euclid's algorithm over Q would produce, so the last nonzero one
    divided by its leading coefficient is the same monic gcd.
    """
    if a.is_zero() or b.is_zero():
        return (b if a.is_zero() else a).monic()
    u, v = _integer_primitive(a), _integer_primitive(b)
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        r = _primitive_prem(u, v)
        if not r:
            break
        u, v = v, r
    return Polynomial(v).monic() if len(v) > 1 else Polynomial([1])


def _cancel_gcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(a/g, b/g) with g the monic gcd of a and b, not both zero."""
    g = _poly_gcd(a, b)
    if g.degree == 0:
        return a, b
    return _poly_divmod(a, g)[0], _poly_divmod(b, g)[0]


class RationalFunction:
    """Quotient of two Polynomials, stored reduced with a monic denominator.

    The constructor divides num and den by their monic gcd (``_poly_gcd``,
    an integer primitive remainder sequence) and then scales both so that
    den is monic. The monic gcd is unique, so the stored (num, den) is the
    unique normal form whichever gcd algorithm computed it; two equal
    rational functions have equal fields.

    Scaling, negation, products and derivatives start from reduced
    operands, so they divide out only what can cancel (Henrici's rule,
    Knuth, TAOCP Vol. 2, 4.5.1) and store the result by ``_coprime``:
    (a/b)(c/d) needs only gcd(a, d) and gcd(c, b), and (N/D)' =
    (N' D/g - N D'/g) / (D D/g) with g = gcd(D, D') is reduced in
    characteristic 0. Their denominators are products of monic ones, so
    none needs scaling either. Addition runs the full constructor.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Polynomial([1])
        else:
            num, den = _cancel_gcd(num, den)
        lead = den.coeffs[-1]
        self.num = num * (1 / Fraction(lead))
        self.den = den.monic()

    @classmethod
    def _coprime(cls, num: Polynomial, den: Polynomial) -> RationalFunction:
        """num/den stored as given: the constructor's normal form when num
        and den are coprime and den is monic (1 when num is zero). Every
        caller's den is a product of monic polynomials."""
        self = object.__new__(cls)
        self.num, self.den = num, den
        return self

    def __add__(self, other):
        other = _as_ratfun(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._coprime(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_as_ratfun(other))

    def __rsub__(self, other):
        return _as_ratfun(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return RationalFunction(0)
            return RationalFunction._coprime(self.num * other, self.den)
        other = _as_ratfun(other)
        if self.num.is_zero() or other.num.is_zero():
            return RationalFunction(0)
        a, d = _cancel_gcd(self.num, other.den)
        c, b = _cancel_gcd(other.num, self.den)
        return RationalFunction._coprime(a * c, b * d)

    __rmul__ = __mul__

    def derivative(self) -> RationalFunction:
        den_g, dden_g = _cancel_gcd(self.den, self.den.derivative())  # D/g, D'/g
        return RationalFunction._coprime(
            self.num.derivative() * den_g - self.num * dden_g, self.den * den_g
        )

    def __call__(self, x):
        """Evaluate at a number, or substitute when x is a Polynomial."""
        if isinstance(x, Polynomial):
            return RationalFunction(self.num(x), self.den(x))
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError("rational function pole")
        return self.num(x) / d

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction, Polynomial, RationalFunction)):
            return NotImplemented
        other = _as_ratfun(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial (den == 1) equals its numerator, so it hashes like it
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _as_ratfun(x) -> RationalFunction:
    return x if isinstance(x, RationalFunction) else RationalFunction(_as_poly(x))


def geometric_polynomial(n: int) -> Polynomial:
    """Geometric polynomial w_n(x) = sum_k S(n, k) k! x^k."""
    if n < 0:
        raise ValueError("geometric_polynomial: n must be >= 0")
    return Polynomial([stirling_second(n, k) * factorial(k) for k in range(n + 1)])


@lru_cache(maxsize=None)
def polylog_neg(k: int) -> RationalFunction:
    """Negative-order polylogarithm Li_{-k}(x) as an exact rational function.

    Li_{-k}(x) = x A_k(x) / (1-x)^(k+1), which sums sum_{j>=1} j^k x^j for
    |x| < 1. A_k is the Eulerian polynomial: A_0 = 1, and for k >= 1 its
    coefficients are A(k, j) = sum_{i<=j} (-1)^i C(k+1, i) (j+1-i)^k,
    j < k (Graham-Knuth-Patashnik, Concrete Mathematics 6.2). A_k(1) = k!
    is not 0, so the fraction is reduced; it is stored over the monic
    (x-1)^(k+1), with numerator (-1)^(k+1) x A_k(x).
    """
    if k < 0:
        raise ValueError("polylog_neg: order parameter k must be >= 0")
    eulerian = (sum((-1) ** i * comb(k + 1, i) * (j + 1 - i) ** k for i in range(j + 1))
                for j in range(max(k, 1)))
    num = Polynomial([0, *((-1) ** (k + 1) * a for a in eulerian)])
    den = Polynomial([(-1) ** (k + 1 - i) * comb(k + 1, i) for i in range(k + 2)])
    return RationalFunction._coprime(num, den)


def exact_pow(base, exponent) -> Fraction | None:
    """base**exponent as an exact Fraction when one exists, else None.

    base must be a positive rational and exponent rational; the result
    exists exactly when the denominator-root of base is rational.
    """
    base, exponent = Fraction(base), Fraction(exponent)
    if base <= 0:
        return None
    if exponent == 0:
        return Fraction(1)
    num, den = exponent.numerator, exponent.denominator
    rn = _int_nth_root(base.numerator, den)
    rd = _int_nth_root(base.denominator, den)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd) ** num


def _int_nth_root(m: int, n: int) -> int | None:
    """Integer r with r**n == m, or None. Newton iteration, overflow safe."""
    if m < 0:
        return None
    if m < 2 or n == 1:
        return m
    if n > m.bit_length():
        return None  # would need a root >= 2, but 2**n already exceeds m
    x = 1 << -(-m.bit_length() // n)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x if x**n == m else None
