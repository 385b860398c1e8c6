"""Exact scalar arithmetic in the ring Q[q, q^-1] of Laurent polynomials.

Everything downstream (normal ordering, operator calculus, ideal
membership) runs over this ring or over its fraction field, with
rational coefficients throughout.  No floating point anywhere.

Coefficients are integer-first: an ``int`` when the value is integral,
a ``Fraction`` only when it is not.  The coercion and every division here
(``_div``) keep to that, so integral data - the Serre rules, the Dirac and
wave operators, the dual closed forms - stays on ``int`` arithmetic.  A
sum or product of two non-integral ``Fraction`` values may stay a
``Fraction`` with denominator 1; it compares and hashes equal to the
``int``, so equality, hashing and every printed form are unaffected.

``LaurentPoly`` is a ``lin.Lin`` over integer exponents.  Each scalar
type has one coercion, next to it: ``as_laurent`` (int and Fraction
become constants) and ``as_ratq`` (int, Fraction and LaurentPoly become
x/1).  Element classes name one of them as their ``coerce``, and the
arithmetic dunders use them too, returning NotImplemented for any other
operand type.

Also provides the q-combinatorics ([n]_q, q-factorials of multi-indices)
and an exact root-of-unity vanishing test, linear in the degree: the
exponents are folded modulo q^m - 1, which Phi_m divides, and the fold is
tested for divisibility by Phi_m through the binomials q^d - 1 of the
Moebius identity Phi_m * prod_{mu(m/d) = -1} (q^d - 1) = prod_{mu(m/d) = +1}
(q^d - 1), without building Phi_m.

``RatQ`` stores a fraction in lowest terms.  Its denominators are
products of q-integers, and [n]_q = q^(1-n) prod_{d | 2n, d > 2} Phi_d(q),
so it cancels over cyclotomic factors rather than by Euclid over Q: a
monomial numerator shares no factor with a denominator whose constant
term is nonzero; otherwise the denominator is split once (memoised) into
Phi_m^e factors and a rest, each Phi_m is divided out of the numerator
while that is exact and at most e times, and ``laurent_gcd`` runs only on
a rest of positive degree.  The lowest-terms form is unique, so the
result does not depend on how many factors the split finds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps
from itertools import chain, repeat
from operator import sub

from .lin import Lin, add_into


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


def _as_coefficient(x):
    """An exact coefficient: an ``int`` when ``x`` is integral, else a ``Fraction``.

    ``bool`` becomes ``int``; a ``float`` or any other type raises TypeError.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError("coefficients must be int or Fraction, got %r" % (x,))


def _div(a, b):
    """The exact quotient of two coefficients: ``a // b`` when that is exact, else a Fraction."""
    if type(a) is int and type(b) is int:
        return a // b if not a % b else Fraction(a, b)
    c = a / b
    return c.numerator if c.denominator == 1 else c


def _coerced(coerce):
    """Decorate a binary operator to pass its operand through ``coerce``.

    An operand of the operator's own type skips ``coerce``; one that
    ``coerce`` rejects with TypeError gets NotImplemented.
    """
    def wrap(op):
        @wraps(op)
        def method(self, other):
            if type(other) is not type(self):
                try:
                    other = coerce(other)
                except TypeError:
                    return NotImplemented
            return op(self, other)
        return method
    return wrap


def as_laurent(c) -> LaurentPoly:
    """The Laurent coercion: int and Fraction become constants.

    Any other type but LaurentPoly raises TypeError.
    """
    return c if isinstance(c, LaurentPoly) else LaurentPoly.const(c)


class LaurentPoly(Lin):
    """A Laurent polynomial in q with int or Fraction coefficients.

    A ``Lin`` over int exponents: {exponent: coefficient} with no zero
    coefficients, so equality is structural.  ``int`` and ``Fraction``
    operands enter the ring as constants through ``as_laurent``.
    """

    __slots__ = ()
    coerce = staticmethod(_as_coefficient)
    check_key = int

    # -- constructors ------------------------------------------------

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._make({0: 1})

    @classmethod
    def q(cls, exp: int = 1) -> "LaurentPoly":
        return cls._make({int(exp): 1})

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    # -- ring structure ----------------------------------------------

    __eq__ = _coerced(as_laurent)(Lin.__eq__)

    def __hash__(self):
        # a constant hashes as the int or Fraction it equals
        return hash(self.terms.get(0, 0)) if self.terms.keys() <= {0} else Lin.__hash__(self)

    __add__ = __radd__ = _coerced(as_laurent)(Lin.__add__)
    __sub__ = _coerced(as_laurent)(Lin.__sub__)

    @_coerced(as_laurent)
    def __rsub__(self, other) -> "LaurentPoly":
        return other - self

    @_coerced(as_laurent)
    def __mul__(self, other) -> "LaurentPoly":
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                add_into(out, k1 + k2, c1 * c2)
        return LaurentPoly._make(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers only for monomials; use divide_exact")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- inspection ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Top exponent; raises on the zero polynomial."""
        return max(self.terms)

    @property
    def valuation(self) -> int:
        """Bottom exponent; raises on the zero polynomial."""
        return min(self.terms)

    def is_unit(self) -> bool:
        """True for c*q^k with c != 0."""
        return len(self.terms) == 1

    # -- text form -----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif mag == 1:
                body = "q" if k == 1 else "q^%d" % k
            else:
                body = "%s*q%s" % (mag, "" if k == 1 else "^%d" % k)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)


# -- q-combinatorics ---------------------------------------------------


@lru_cache(maxsize=None)
def q_int(n: int) -> LaurentPoly:
    """The symmetric q-integer (q^n - q^-n)/(q - q^-1) = q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    if n < 0:
        raise ValueError("q_int requires n >= 0, got %d" % n)
    return LaurentPoly({n - 1 - 2 * i: 1 for i in range(n)})


@lru_cache(maxsize=None)
def q_rising(n: int, a: int) -> LaurentPoly:
    """The rising q-factorial [n+1]_q [n+2]_q ... [n+a]_q = [n+a]_q!/[n]_q!."""
    if n < 0 or a < 0:
        raise ValueError("q_rising requires n, a >= 0, got %d, %d" % (n, a))
    out = LaurentPoly.one()
    for k in range(n + 1, n + a + 1):
        out = out * q_int(k)
    return out


def q_factorial(gamma) -> LaurentPoly:
    """Product of the single-index q-factorials [n]_q! = q_rising(0, n) over a multi-index."""
    return _q_factorial(tuple(gamma))


@lru_cache(maxsize=None)
def _q_factorial(gamma) -> LaurentPoly:
    out = LaurentPoly.one()
    for n in gamma:
        out = out * q_rising(0, n)
    return out


# -- exact division and polynomial helpers -----------------------------


def _to_dense(p: LaurentPoly):
    """(shift, [c_0..c_d]) with p = q^shift * sum c_i q^i and c_0 != 0."""
    v = p.valuation
    d = p.degree
    return v, [p.terms.get(k, 0) for k in range(v, d + 1)]


def _dense_trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _dense_divmod(num, den):
    num = list(num)
    out = [0] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        f = _div(num[i + len(den) - 1], lead)
        if f:
            out[i] = f
            for j, c in enumerate(den):
                num[i + j] -= f * c
    return out, _dense_trim(num)


def divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Quotient num/den when the division is exact in Q[q, q^-1]; hard error otherwise."""
    if not den:
        raise ExactDivisionError("division by the zero polynomial")
    if not num:
        return LaurentPoly.zero()
    vn, dn = _to_dense(num)
    vd, dd = _to_dense(den)
    quo, rem = _dense_divmod(dn, dd)
    if rem:
        raise ExactDivisionError("non-exact division: %s by %s" % (num, den))
    return LaurentPoly({vn - vd + i: c for i, c in enumerate(quo)})


def _dense_gcd(a, b):
    a = _dense_trim(list(a))
    b = _dense_trim(list(b))
    while b:
        _, r = _dense_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [_div(c, lead) for c in a]
    return a


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of the polynomial parts, as a Laurent polynomial with valuation 0."""
    da = _to_dense(a)[1] if a else []
    db = _to_dense(b)[1] if b else []
    return LaurentPoly(dict(enumerate(_dense_gcd(da, db))))


# -- cyclotomic reduction ----------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic(m: int):
    """Coefficient tuple (ascending) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("cyclotomic order must be >= 1")
    # x^m - 1 divided by the cyclotomics of all proper divisors
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _dense_divmod(num, cyclotomic(d))
            assert not rem
    return tuple(num)


def _prime_divisors(m: int):
    """The distinct primes dividing m >= 1, ascending."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def _times_binomial(cs, d):
    """cs * (q^d - 1), dense ascending."""
    return list(map(sub, chain(repeat(0, d), cs), chain(cs, repeat(0, d))))


def _over_binomial(cs, d):
    """cs / (q^d - 1) if that is exact, else None; dense ascending.

    The quotient's coefficient at i - d is the sum of cs at i, i + d,
    i + 2d, ...; what is left at 0..d-1 is the remainder.
    """
    r = list(cs)
    for i in range(len(r) - 1, d - 1, -1):
        r[i - d] += r[i]
    return None if any(r[:d]) else r[d:]


def vanishes_at_root_of_unity(p: LaurentPoly, m: int) -> bool:
    """True iff p(q) = 0 at every primitive m-th root of unity, i.e. Phi_m | p.

    Phi_m divides q^m - 1, so the exponents of p (negative ones too) are
    first folded modulo m into a list of length m.  Divisibility of the
    fold by Phi_m is then tested through binomials: by Moebius inversion
    of q^m - 1 = prod_{d | m} Phi_d,

        Phi_m * prod_{mu(m/d) = -1} (q^d - 1) = prod_{mu(m/d) = +1} (q^d - 1),

    so the fold is multiplied by the binomials on the left and divided
    exactly by those on the right, stopping at the first remainder.  Each
    step is linear in the length, and no cyclotomic polynomial is built.
    """
    if m < 1:
        raise ValueError("root-of-unity order must be >= 1")
    folded = [0] * m
    for e, c in p.terms.items():
        folded[e % m] += c
    binomials = [(m, 1)]  # (d, mu(m/d)) for every d with m/d squarefree
    for prime in _prime_divisors(m):
        binomials += [(d // prime, -mu) for d, mu in binomials]
    for d, mu in binomials:
        if mu < 0:
            folded = _times_binomial(folded, d)
    for d, mu in binomials:
        if mu > 0:
            folded = _over_binomial(folded, d)
            if folded is None:
                return False
    return True


@lru_cache(maxsize=4096)
def _cyclotomic_split(den):
    """Split a monic dense polynomial as prod Phi_m^e times a rest.

    Returns (((m, e), ...), rest).  Tries Phi_m for m <= deg + 2, which
    finds every factor of a product of q-integers; ``rest`` keeps the
    others, so it may still hold a cyclotomic factor of higher order.
    """
    rest = den
    factors = []
    for m in range(1, len(den) + 2):
        if len(rest) == 1:
            break
        phi = cyclotomic(m)
        e = 0
        while len(phi) <= len(rest):
            quo, rem = _dense_divmod(rest, phi)
            if rem:
                break
            rest, e = quo, e + 1
        if e:
            factors.append((m, e))
    return tuple(factors), tuple(rest)


def _cancel(num: LaurentPoly, den: LaurentPoly):
    """num/den in lowest terms, for a monic den with valuation 0.

    The cyclotomic factors of den are divided out of num as often as both
    hold them; Euclid runs only on what the split leaves.
    """
    dd = _to_dense(den)[1]
    factors, rest = _cyclotomic_split(tuple(dd))
    vn, dn = _to_dense(num)
    for m, e in factors:
        phi = cyclotomic(m)
        for _ in range(e):
            quo, rem = _dense_divmod(dn, phi)
            if rem:
                break
            dn = quo
            dd = _dense_divmod(dd, phi)[0]
    num = LaurentPoly({vn + i: c for i, c in enumerate(dn)})
    den = LaurentPoly(dict(enumerate(dd)))
    if len(rest) > 1:
        g = laurent_gcd(num, LaurentPoly(dict(enumerate(rest))))
        if g.degree > 0:
            num, den = divide_exact(num, g), divide_exact(den, g)
    return num, den


# -- fraction field -----------------------------------------------------


def as_ratq(c) -> RatQ:
    """The Q(q) coercion: int, Fraction and LaurentPoly become c/1.

    Any other type but RatQ raises TypeError.
    """
    return c if isinstance(c, RatQ) else RatQ(c)


class RatQ:
    """An element of Q(q), stored as num/den with a canonical denominator.

    The denominator is a monic polynomial in q with nonzero constant
    term; all q-power units are absorbed into the numerator.  Exact
    arithmetic; equality is structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = as_laurent(num)
        if den is not None:
            den = as_laurent(den)
            if not den:
                raise ZeroDivisionError("zero denominator in RatQ")
        if den is None or not num:
            self.num = num
            self.den = LaurentPoly.one()
            return
        vd, dd = _to_dense(den)
        lead = dd[-1]
        den = LaurentPoly._make({i: _div(c, lead) for i, c in enumerate(dd) if c})
        # a monomial numerator shares no factor with den, whose constant term is nonzero
        if not (den.is_unit() or num.is_unit()):
            num, den = _cancel(num, den)
        self.den = den
        self.num = LaurentPoly._make({e - vd: _div(v, lead) for e, v in num.terms.items()})

    @classmethod
    def zero(cls) -> "RatQ":
        return cls(0)

    @classmethod
    def one(cls) -> "RatQ":
        return cls(1)

    def __bool__(self):
        return bool(self.num)

    @_coerced(as_ratq)
    def __eq__(self, other):
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # x/1 hashes as the x it equals
        return hash(self.num) if self.is_laurent() else hash((self.num, self.den))

    def __neg__(self):
        out = object.__new__(RatQ)
        out.num = -self.num
        out.den = self.den
        return out

    @_coerced(as_ratq)
    def __add__(self, other):
        if self.den == other.den:
            return RatQ(self.num + other.num, self.den)
        return RatQ(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    @_coerced(as_ratq)
    def __sub__(self, other):
        return self + (-other)

    @_coerced(as_ratq)
    def __rsub__(self, other):
        return other - self

    @_coerced(as_ratq)
    def __mul__(self, other):
        if self.den.terms == {0: 1} and other.den.terms == {0: 1}:
            out = object.__new__(RatQ)
            out.num = self.num * other.num
            out.den = self.den
            return out
        return RatQ(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    @_coerced(as_ratq)
    def __truediv__(self, other):
        if not other:
            raise ZeroDivisionError("division by zero in RatQ")
        return RatQ(self.num * other.den, self.den * other.num)

    @_coerced(as_ratq)
    def __rtruediv__(self, other):
        return other / self

    def is_laurent(self) -> bool:
        return self.den.terms == {0: 1}

    def to_laurent(self) -> LaurentPoly:
        if not self.is_laurent():
            raise ExactDivisionError("not a Laurent polynomial: %s" % self)
        return self.num

    def __str__(self):
        if self.is_laurent():
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatQ(%s)" % self


INV_MU = RatQ(1, LaurentPoly.q(1) - LaurentPoly.q(-1))  # 1/(q - q^-1)


# -- multi-indices ------------------------------------------------------

ZERO4 = (0, 0, 0, 0)


def mi_check(gamma):
    """Validate a 4-part multi-index of non-negative integers."""
    g = tuple(int(x) for x in gamma)
    if len(g) != 4 or any(x < 0 for x in g):
        raise ValueError("multi-index must be 4 non-negative integers, got %r" % (gamma,))
    return g


def mi_degree(a) -> int:
    return a[0] + a[1] + a[2] + a[3]


def all_indices(degree: int):
    """All 4-part multi-indices of the given total degree, lexicographic."""
    out = []
    for a in range(degree, -1, -1):
        for b in range(degree - a, -1, -1):
            for c in range(degree - a - b, -1, -1):
                out.append((a, b, c, degree - a - b - c))
    return sorted(out)


def indices_up_to(degree: int):
    out = []
    for d in range(degree + 1):
        out.extend(all_indices(d))
    return out
