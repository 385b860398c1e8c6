"""Exact q-difference operator calculus on polynomials in z1..z4.

Operators are linear combinations of z^alpha o K^delta o [d]^gamma where
[d_i] is the symmetric q-derivative (z_i^n -> [n]_q z_i^(n-1)) and K_i
scales a monomial by q^(-alpha_i).  Per axis these satisfy

    [d] z = q z [d] + K        K z = q^-1 z K        K [d] = q [d] K

and distinct axes commute.

The raw monomial family is linearly *dependent* as operators, e.g.

    z o K o [d] = (q - q K^2) / (q - q^-1),

so structural equality of arbitrary term maps would not decide operator
equality.  A canonical form fixes this: on each axis a term never carries
both a z-power and a [d]-power (min(alpha_i, gamma_i) = 0).  Writing
t_i = q^(-n_i) for the action on z^n, an operator decomposes by shift
vector alpha - gamma with a Laurent-polynomial "symbol" in t; canonical
terms are in bijection with (shift, symbol) pairs, so equality of
canonical term maps is equality of operators.  Composition is computed
on symbols and re-expanded.

Coefficients live in the fraction field Q(q): re-expansion can introduce
denominators of q - q^-1 even for integer inputs (see the identity
above).  All displayed operators of interest have plain Laurent
coefficients, and ``apply_divided`` acts with them on functionals in
the divided basis z^beta / [beta]_q! without leaving Z[q, q^-1].
"""

from __future__ import annotations

from functools import lru_cache

from .lin import Lin, add_into
from .ring import LaurentPoly, RatQ, as_ratq, mi_check, q_int

_Q = LaurentPoly.q
_MU = RatQ(_Q(1) - _Q(-1))  # q - q^-1
ZERO4 = (0, 0, 0, 0)


# ------------------------------------------------------------ Poly4


class Poly4(Lin):
    """A polynomial in z1..z4 with exact Q(q) coefficients, stored sparsely."""

    __slots__ = ()
    coerce = staticmethod(as_ratq)
    check_key = staticmethod(mi_check)

    @classmethod
    def one(cls):
        return cls({ZERO4: RatQ.one()})

    @classmethod
    def monomial(cls, alpha, coeff=1):
        return cls({mi_check(alpha): coeff})

    @staticmethod
    def _mon(a):
        return "*".join(
            "z_%d" % (i + 1) if n == 1 else "z_%d^%d" % (i + 1, n)
            for i, n in enumerate(a) if n
        )


class Poly4Vec2:
    """A pair of Poly4 components (C^2-valued polynomials)."""

    __slots__ = ("p1", "p2")

    def __init__(self, p1=None, p2=None):
        self.p1 = p1 if p1 is not None else Poly4.zero()
        self.p2 = p2 if p2 is not None else Poly4.zero()

    def __eq__(self, other):
        if not isinstance(other, Poly4Vec2):
            return NotImplemented
        return self.p1 == other.p1 and self.p2 == other.p2

    def __add__(self, other):
        return Poly4Vec2(self.p1 + other.p1, self.p2 + other.p2)

    def __str__(self):
        return "(%s, %s)" % (self.p1, self.p2)


# --------------------------------------------- symbol-level machinery

# A symbol is dict[shift 4-tuple] -> dict[t-exponent 4-tuple] -> RatQ.


@lru_cache(maxsize=None)
def _axis_factor(g: int):
    """Symbol of [d]^g on one axis: prod_{j<g} (q^-j t^-1 - q^j t)/(q - q^-1), as {exp: RatQ}."""
    if g == 0:
        return ((0, RatQ.one()),)
    prev = dict(_axis_factor(g - 1))
    j = g - 1
    lo = RatQ(_Q(-j)) / _MU
    hi = -RatQ(_Q(j)) / _MU
    out = {}
    for e, c in prev.items():
        add_into(out, e - 1, c * lo)
        add_into(out, e + 1, c * hi)
    return tuple(sorted(out.items()))


def _tpoly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            add_into(out, e, c1 * c2)
    return out


def _tpoly_shift_arg(tp, s):
    """Substitute t_i -> t_i * q^(-s_i), i.e. scale each t^e term by q^(-s.e)."""
    out = {}
    for e, c in tp.items():
        k = s[0] * e[0] + s[1] * e[1] + s[2] * e[2] + s[3] * e[3]
        out[e] = c * RatQ(_Q(-k)) if k else c
    return out


def _term_symbol(alpha, delta, gamma, coeff):
    """Symbol of coeff * z^alpha K^delta [d]^gamma (shift is alpha - gamma)."""
    k = sum(g * d for g, d in zip(gamma, delta))
    tp = {tuple(delta): coeff * RatQ(_Q(k)) if k else coeff}
    for i in range(4):
        if gamma[i]:
            fac = {}
            for e, c in _axis_factor(gamma[i]):
                exp = [0, 0, 0, 0]
                exp[i] = e
                fac[tuple(exp)] = c
            tp = _tpoly_mul(tp, fac)
    return tp


def _divide_axis(tp, i, g):
    """Exact division of a t-polynomial by the axis-i factor of [d]^g."""
    if g == 0 or not tp:
        return dict(tp)
    div = dict(_axis_factor(g))
    hi = g
    lead = div[hi]
    # split into fibers over the other axes
    fibers = {}
    for e, c in tp.items():
        rest = e[:i] + e[i + 1 :]
        fibers.setdefault(rest, {})[e[i]] = c
    out = {}
    for rest, fib in fibers.items():
        vmin = min(fib) - (-g)  # valuation bound for an exact quotient
        quot = {}
        while fib:
            emax = max(fib)
            fexp = emax - hi
            if fexp < vmin:
                raise ArithmeticError("non-exact symbol division (invalid operator data)")
            f = fib[emax] / lead
            quot[fexp] = f
            for de, dc in div.items():
                add_into(fib, fexp + de, -(f * dc))
        for e_i, c in quot.items():
            e = rest[:i] + (e_i,) + rest[i:]
            out[e] = c
    return out


# ------------------------------------------------- action factors


@lru_cache(maxsize=None)
def _rising(n: int, a: int) -> LaurentPoly:
    """The rising q-factorial [n+1][n+2]...[n+a] = [n+a]!/[n]!."""
    return LaurentPoly.one() if a == 0 else _rising(n, a - 1) * q_int(n + a)


@lru_cache(maxsize=None)
def _divided_factor(n, alpha, delta) -> LaurentPoly:
    """prod_i [n_i+alpha_i]!/[n_i]! * q^(-delta.n): z^alpha K^delta on e_n, in e_(n+alpha)."""
    out = _Q(-(delta[0] * n[0] + delta[1] * n[1] + delta[2] * n[2] + delta[3] * n[3]))
    for m, a in zip(n, alpha):
        if a:
            out = out * _rising(m, a)
    return out


# ------------------------------------------------------------ QOperator


class QOperator(Lin):
    """A q-difference operator in canonical normal form.

    Terms map (alpha, delta, gamma) -> coefficient with, on every axis,
    min(alpha_i, gamma_i) = 0; two operators are equal iff their term
    maps are equal.
    """

    __slots__ = ()
    coerce = staticmethod(as_ratq)

    @staticmethod
    def check_key(key):
        alpha, delta, gamma = key
        delta = tuple(int(d) for d in delta)
        if len(delta) != 4:
            raise ValueError("K exponent must be 4 integers, got %r" % (delta,))
        return mi_check(alpha), delta, mi_check(gamma)

    def __init__(self, terms=None):
        super().__init__(terms)
        if self.terms:
            self.terms = _from_symbol(_to_symbol(self.terms))

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls):
        return cls._make({(ZERO4, ZERO4, ZERO4): RatQ.one()})

    @classmethod
    def scalar(cls, c):
        c = as_ratq(c)
        return cls._make({(ZERO4, ZERO4, ZERO4): c} if c else {})

    @classmethod
    def monomial(cls, alpha, delta, gamma, coeff=1):
        return cls({(alpha, delta, gamma): coeff})

    def __mul__(self, other):
        """Composition self o other (other applied first)."""
        if not isinstance(other, QOperator):
            return self._scalar_mul(other)
        return compose(self, other)

    def __rmul__(self, other):
        return self._scalar_mul(other)

    # -- action ----------------------------------------------------------

    def apply(self, p: Poly4) -> Poly4:
        out = {}
        for (alpha, delta, gamma), c in self.terms.items():
            for beta, pc in p.terms.items():
                n = tuple(b - g for b, g in zip(beta, gamma))
                if min(n) < 0:
                    continue
                # z^alpha K^delta [d]^gamma z^beta = [beta]!/[n]! q^(-delta.n) z^(n+alpha)
                coeff = RatQ(c.num * pc.num * _divided_factor(n, gamma, delta), c.den * pc.den)
                add_into(out, tuple(a + m for a, m in zip(alpha, n)), coeff)
        return Poly4._make(out)

    def apply_divided(self, f):
        """The action on a functional f (a ``DualFunctional``) in divided coordinates.

        f stands for sum_beta f(w^beta) e_beta with e_beta = z^beta / [beta]_q!,
        and z^alpha K^delta [d]^gamma sends e_beta to
        q^(-delta.(beta-gamma)) [beta-gamma+alpha]!/[beta-gamma]! e_(beta-gamma+alpha),
        or to 0 unless beta >= gamma.  Every factor is a Laurent polynomial,
        so the values are computed in Z[q, q^-1] with no division.  Returns a
        functional of f's type; raises ``ExactDivisionError`` if a
        coefficient of the operator is not a Laurent polynomial.
        """
        terms = [(key, c.to_laurent()) for key, c in self.terms.items()]
        out = {}
        for beta, v in f.terms.items():
            for (alpha, delta, gamma), c in terms:
                n = (beta[0] - gamma[0], beta[1] - gamma[1], beta[2] - gamma[2], beta[3] - gamma[3])
                if min(n) < 0:
                    continue
                target = (n[0] + alpha[0], n[1] + alpha[1], n[2] + alpha[2], n[3] + alpha[3])
                add_into(out, target, c * v * _divided_factor(n, alpha, delta))
        return type(f)._make(out)

    def __call__(self, p: Poly4) -> Poly4:
        return self.apply(p)

    def dbar_orders(self):
        """Sorted set of total [d]-orders over the canonical terms."""
        return sorted({sum(g) for (_, _, g) in self.terms})

    @staticmethod
    def _mon(key):
        factors = []
        for name, exps in zip("zKd", key):
            for i, n in enumerate(exps):
                if n:
                    factors.append("%s_%d" % (name, i + 1) + ("" if n == 1 else "^%d" % n))
        return "*".join(factors)


def _to_symbol(terms):
    sym = {}
    for (alpha, delta, gamma), c in terms.items():
        if not c:
            continue
        shift = tuple(a - g for a, g in zip(alpha, gamma))
        acc = sym.setdefault(shift, {})
        for e, tc in _term_symbol(alpha, delta, gamma, c).items():
            add_into(acc, e, tc)
    return {s: tp for s, tp in sym.items() if tp}


def _from_symbol(sym):
    terms = {}
    for shift, tp in sym.items():
        alpha = tuple(max(s, 0) for s in shift)
        gamma = tuple(max(-s, 0) for s in shift)
        r = dict(tp)
        for i in range(4):
            r = _divide_axis(r, i, gamma[i])
        for delta, c in r.items():
            k = sum(g * d for g, d in zip(gamma, delta))
            if k:
                c = c * RatQ(_Q(-k))
            if c:
                terms[(alpha, delta, gamma)] = c
    return terms


def compose(a: QOperator, b: QOperator) -> QOperator:
    """The composition a o b (b acts first), in canonical normal form."""
    sa = _to_symbol(a.terms)
    sb = _to_symbol(b.terms)
    sym = {}
    for s2, c2 in sb.items():
        for s1, c1 in sa.items():
            shift = tuple(x + y for x, y in zip(s1, s2))
            acc = sym.setdefault(shift, {})
            for e, c in _tpoly_mul(c2, _tpoly_shift_arg(c1, s2)).items():
                add_into(acc, e, c)
    sym = {s: tp for s, tp in sym.items() if tp}
    return QOperator._make(_from_symbol(sym))


# ------------------------------------------------- generator operators


def qdiff(i: int) -> QOperator:
    """The symmetric q-derivative along axis i: z_i^n -> [n]_q z_i^(n-1)."""
    if i not in (1, 2, 3, 4):
        raise ValueError("axis must be 1..4, got %r" % (i,))
    e = [0, 0, 0, 0]
    e[i - 1] = 1
    return QOperator._make({(ZERO4, ZERO4, tuple(e)): RatQ.one()})


def scaling(i: int, power: int = 1) -> QOperator:
    """The scaling operator K_i^power: z^alpha -> q^(-power*alpha_i) z^alpha."""
    if i not in (1, 2, 3, 4):
        raise ValueError("axis must be 1..4, got %r" % (i,))
    e = [0, 0, 0, 0]
    e[i - 1] = power
    return QOperator._make({(ZERO4, tuple(e), ZERO4): RatQ.one()})


def mul_z(i: int, power: int = 1) -> QOperator:
    """Multiplication by z_i^power."""
    if i not in (1, 2, 3, 4):
        raise ValueError("axis must be 1..4, got %r" % (i,))
    if power < 0:
        raise ValueError("z powers must be non-negative")
    e = [0, 0, 0, 0]
    e[i - 1] = power
    return QOperator._make({(tuple(e), ZERO4, ZERO4): RatQ.one()})
