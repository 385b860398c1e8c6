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
terms are in bijection with (shift, symbol) pairs.  So canonical terms are
linearly independent: equality of canonical term maps is equality of
operators.

Products are put in canonical form one axis at a time, by one closed
formula (``_axis_normal``).  On z^n the product of two triples, each
(a, e, g) standing for z^a K^e [d]^g, is

    z^a1 K^e1 [d]^g1 o z^a2 K^e2 [d]^g2 :
        z^n -> q^-(e2 (n-g2) + e1 (n-g2+a2-g1)) prod_{j in S} [n-j]_q z^(n+s)

with s = a1+a2-g1-g2 and S the multiset {0..g2-1} + {g2-a2 .. g2-a2+g1-1}.
S holds {0..g-1} for g = max(-s, 0): those factors are the [d]^g of the
canonical triples (max(s, 0), e, g).  With t = q^-n each other factor is
(q^-j t^-1 - q^j t)/(q - q^-1), so the coefficient of K^e is read off t^e.

Coefficients live in the fraction field Q(q): the canonical form can
introduce denominators of q - q^-1 even for integer inputs (see the identity
above).  All displayed operators of interest have plain Laurent
coefficients, and they act on functionals in the divided basis
e_beta = z^beta / [beta]_q! without leaving Z[q, q^-1]: the one divided
action, ``divided_column``, gives the image of e_beta as a sparse column,
and a functional's image is the sum of its values times their columns.
An operator converts its coefficients to Laurent form once
(``laurent_terms``), so the oracle sweeps read one column per index with
no conversion.
"""

from __future__ import annotations

from functools import lru_cache

from .lin import Lin, add_into
from .ring import ZERO4, LaurentPoly, RatQ, as_ratq, mi_check, q_rising

_Q = LaurentPoly.q


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
        return cls({alpha: coeff})

    @staticmethod
    def _mon(a):
        return "*".join(
            "z_%d" % (i + 1) if n == 1 else "z_%d^%d" % (i + 1, n)
            for i, n in enumerate(a) if n
        )


# ------------------------------------------------- action factors


@lru_cache(maxsize=None)
def _divided_factor(n, alpha, delta) -> LaurentPoly:
    """prod_i [n_i+alpha_i]!/[n_i]! * q^(-delta.n): z^alpha K^delta on e_n, in e_(n+alpha)."""
    out = _Q(-(delta[0] * n[0] + delta[1] * n[1] + delta[2] * n[2] + delta[3] * n[3]))
    for m, a in zip(n, alpha):
        if a:
            out = out * q_rising(m, a)
    return out


def divided_column(terms, beta) -> dict:
    """The image of e_beta = z^beta / [beta]_q! under an operator, as {target: LaurentPoly}.

    ``terms`` are the operator's pairs ((alpha, delta, gamma), c) with
    Laurent c (``QOperator.laurent_terms``).  z^alpha K^delta [d]^gamma
    sends e_beta to q^(-delta.n) [n+alpha]!/[n]! e_(n+alpha) with
    n = beta - gamma, or to 0 unless beta >= gamma.
    """
    out = {}
    for (alpha, delta, gamma), c in terms:
        n = (beta[0] - gamma[0], beta[1] - gamma[1], beta[2] - gamma[2], beta[3] - gamma[3])
        if min(n) < 0:
            continue
        target = (n[0] + alpha[0], n[1] + alpha[1], n[2] + alpha[2], n[3] + alpha[3])
        add_into(out, target, c * _divided_factor(n, alpha, delta))
    return out


# ------------------------------------------------------------ QOperator


class QOperator(Lin):
    """A q-difference operator in canonical normal form.

    Terms map (alpha, delta, gamma) -> coefficient with, on every axis,
    min(alpha_i, gamma_i) = 0; two operators are equal iff their term
    maps are equal.  The slot ``_laurent`` is filled on first use by
    ``laurent_terms``.
    """

    __slots__ = ("_laurent",)
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
        out = {}
        for key, c in self.terms.items():
            _canonical_into(out, c, key)
        self.terms = out

    # -- constructors --------------------------------------------------

    @classmethod
    def one(cls):
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
                n = (beta[0] - gamma[0], beta[1] - gamma[1], beta[2] - gamma[2], beta[3] - gamma[3])
                if min(n) < 0:
                    continue
                # z^alpha K^delta [d]^gamma z^beta = [beta]!/[n]! q^(-delta.n) z^(n+alpha)
                target = (n[0] + alpha[0], n[1] + alpha[1], n[2] + alpha[2], n[3] + alpha[3])
                num = c.num * pc.num * _divided_factor(n, gamma, delta)
                add_into(out, target, RatQ._over(num, c.den * pc.den))
        return Poly4._make(out)

    def laurent_terms(self):
        """The terms as pairs ((alpha, delta, gamma), LaurentPoly), converted once per operator.

        Raises ``ExactDivisionError`` if a coefficient is not a Laurent
        polynomial.
        """
        try:
            return self._laurent
        except AttributeError:
            self._laurent = tuple((key, c.to_laurent()) for key, c in self.terms.items())
            return self._laurent

    @staticmethod
    def _mon(key):
        factors = []
        for name, exps in zip("zKd", key):
            for i, n in enumerate(exps):
                if n:
                    factors.append("%s_%d" % (name, i + 1) + ("" if n == 1 else "^%d" % n))
        return "*".join(factors)


# ------------------------------------------------ canonical form


@lru_cache(maxsize=4096)
def _axis_normal(t1, t2):
    """The canonical form of t1 o t2 on one axis, by the product formula of the module
    docstring: pairs ((a, e, g), factor), None for a factor 1."""
    (a1, e1, g1), (a2, e2, g2) = t1, t2
    s = a1 + a2 - g1 - g2
    a, g = max(s, 0), max(-s, 0)
    rest = list(range(g2)) + list(range(g2 - a2, g2 - a2 + g1))
    for j in range(g):
        rest.remove(j)
    # On z^n, t^(e1+e2) q^(e2 g2 + e1 (g2-a2+g1)) prod_{j in rest} (q^-j t^-1 - q^j t) over
    # (q - q^-1)^r = q^-r (q^2 - 1)^r, as {(t-exponent, q-exponent): int} over (q^2 - 1)^r
    r = len(rest)
    prod = {(e1 + e2, e2 * g2 + e1 * (g2 - a2 + g1) + r): 1}
    for j in rest:
        nxt = {}
        for (e, m), c in prod.items():
            add_into(nxt, (e - 1, m - j), c)
            add_into(nxt, (e + 1, m + j), -c)
        prod = nxt
    nums = {}  # K^e [d]^g acts on z^n as t^e q^(e g)
    for (e, m), c in prod.items():
        nums.setdefault(e, {})[m - e * g] = c
    den = LaurentPoly({0: -1, 2: 1}) ** r
    fs = ((e, RatQ._over(LaurentPoly._make(num), den)) for e, num in nums.items())
    return tuple(((a, e, g), None if f == 1 else f) for e, f in fs)


def _canonical_into(out, c, left, right=(ZERO4,) * 3):
    """Add c times the product of the terms ``left`` o ``right`` to ``out``, canonically."""
    parts = [((), (), (), c)]
    for i in range(4):
        nf = _axis_normal((left[0][i], left[1][i], left[2][i]),
                          (right[0][i], right[1][i], right[2][i]))
        parts = [
            (al + (a,), de + (e,), ga + (g,), pc if f is None else pc * f)
            for al, de, ga, pc in parts
            for (a, e, g), f in nf
        ]
    for alpha, delta, gamma, pc in parts:
        add_into(out, (alpha, delta, gamma), pc)


def compose(a: QOperator, b: QOperator) -> QOperator:
    """The composition a o b (b acts first), in canonical normal form."""
    out = {}
    for kb, cb in b.terms.items():
        for ka, ca in a.terms.items():
            _canonical_into(out, ca * cb, ka, kb)
    return QOperator._make(out)


# ------------------------------------------------- generator operators


def _axis(i: int, power: int):
    """The 4-tuple with ``power`` at axis i (1..4) and 0 elsewhere."""
    if i not in (1, 2, 3, 4):
        raise ValueError("axis must be 1..4, got %r" % (i,))
    e = [0, 0, 0, 0]
    e[i - 1] = power
    return tuple(e)


def qdiff(i: int) -> QOperator:
    """The symmetric q-derivative along axis i: z_i^n -> [n]_q z_i^(n-1)."""
    return QOperator._make({(ZERO4, ZERO4, _axis(i, 1)): RatQ.one()})


def scaling(i: int, power: int = 1) -> QOperator:
    """The scaling operator K_i^power: z^alpha -> q^(-power*alpha_i) z^alpha."""
    return QOperator._make({(ZERO4, _axis(i, power), ZERO4): RatQ.one()})


def mul_z(i: int, power: int = 1) -> QOperator:
    """Multiplication by z_i^power."""
    e = _axis(i, power)
    if power < 0:
        raise ValueError("z powers must be non-negative")
    return QOperator._make({(e, ZERO4, ZERO4): RatQ.one()})
