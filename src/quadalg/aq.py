"""The quadratic algebra on four generators w1..w4 with PBW normal ordering.

Defining relations, oriented toward the normal order w1 < w2 < w3 < w4:

    w1 w2 = q w2 w1        w1 w3 = q w3 w1        w3 w4 = q w4 w3
    w2 w4 = q w4 w2        w2 w3 = w3 w2
    w1 w4 - w4 w1 = (q - q^-1) w2 w3

Elements are stored on the ordered monomial basis w1^a w2^b w3^c w4^d,
and products are closed formulas, not rewriting runs.  The algebra is the
quantum matrix algebra O_q(M_2) with a, b, c, d = w1..w4 (Klimyk &
Schmuedgen, *Quantum Groups and Their Representations*, 1997), so

    w4^m w1^n = sum_k (-1)^k (q - q^-1)^k [m k]_q [n k]_q [k]_q!
                      q^(k(k+1)/2 + k^2 - k(m+n)) w1^(n-k) w2^k w3^k w4^(m-k)

and every other reordering is a q-power: w2 and w3 pass w1 at q^-1 each,
and w4 passes w2 and w3 at q^-1 each.  The tests check the formula
against a rewriting engine built from the relations.
"""

from __future__ import annotations

from functools import lru_cache

from .lin import Lin, add_into
from .ring import ZERO4, LaurentPoly, as_laurent, divide_exact, mi_check, q_int

_Q = LaurentPoly.q
_MU = _Q(1) - _Q(-1)  # q - q^-1

GENERATORS = (1, 2, 3, 4)
_UNITS = {i: {tuple(int(j == i) for j in GENERATORS): LaurentPoly.one()} for i in GENERATORS}


@lru_cache(maxsize=4096)
def _d_past_a(m, n):
    """The coefficients of w1^(n-k) w2^k w3^k w4^(m-k) in w4^m w1^n, for k = 0..min(m, n)."""
    # c_k = [m k]_q [n k]_q [k]_q! by the ratio c_k / c_(k-1) = [m-k+1]_q [n-k+1]_q / [k]_q
    c, out = LaurentPoly.one(), [LaurentPoly.one()]
    for k in range(1, min(m, n) + 1):
        c = divide_exact(c * q_int(m - k + 1) * q_int(n - k + 1), q_int(k))
        out.append(c * (-_MU) ** k * _Q(k * (k + 1) // 2 + k * k - k * (m + n)))
    return tuple(out)


def _product(left, right):
    """The product of two combinations {multi-index: coeff} of PBW monomials."""
    out = {}
    for (a1, b1, c1, d1), x in left.items():
        for (a2, b2, c2, d2), y in right.items():
            xy = x * y
            for k, t in enumerate(_d_past_a(d1, a2)):
                # w1^(a2-k) passes w2^b1 w3^c1, and w2^b2 w3^c2 pass w4^(d1-k)
                e = (k - a2) * (b1 + c1) + (k - d1) * (b2 + c2)
                c = LaurentPoly._make({p + e: v for p, v in xy.terms.items()}) if e else xy
                add_into(out, (a1 + a2 - k, b1 + b2 + k, c1 + c2 + k, d1 + d2 - k),
                         c * t if k else c)
    return out


def reduce_word(word):
    """Normal-order a word of generator indices; returns {multi-index: coeff}."""
    out = {ZERO4: LaurentPoly.one()}
    for letter in word:
        out = _product(out, _UNITS[letter])
    return out


class AqElement(Lin):
    """A linear combination of normal-ordered monomials with Laurent coefficients.

    The slot ``_hash`` is filled on first use by ``__hash__``: an element
    keys the memoised product tables of ``transform``, so it is hashed
    once, not once per lookup.
    """

    __slots__ = ("_hash",)
    coerce = staticmethod(as_laurent)
    check_key = staticmethod(mi_check)

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls):
        return cls({ZERO4: LaurentPoly.one()})

    @classmethod
    def monomial(cls, gamma, coeff=None):
        return cls({gamma: coeff if coeff is not None else LaurentPoly.one()})

    @classmethod
    def generator(cls, i):
        if i not in GENERATORS:
            raise ValueError("generator index must be 1..4, got %r" % (i,))
        return cls._make(dict(_UNITS[i]))

    # -- algebra ----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, AqElement):
            return self._scalar_mul(other)
        return AqElement._make(_product(self.terms, other.terms))

    def __rmul__(self, other):
        return self._scalar_mul(other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = Lin.__hash__(self)
            return self._hash

    def degrees(self):
        return sorted({sum(g) for g in self.terms})

    @staticmethod
    def _mon(g):
        return "*".join(
            "w%d" % (i + 1) if n == 1 else "w%d^%d" % (i + 1, n)
            for i, n in enumerate(g) if n
        )


def normal_order(word) -> AqElement:
    """Normal-ordered expansion of an arbitrary product of generators."""
    for letter in word:
        if letter not in GENERATORS:
            raise ValueError("generator index must be 1..4, got %r" % (letter,))
    return AqElement(reduce_word(tuple(word)))


def commutator(a: AqElement, b: AqElement) -> AqElement:
    return a * b - b * a


def center_element() -> AqElement:
    """The central element w1 w4 - q w2 w3."""
    return AqElement({(1, 0, 0, 1): LaurentPoly.one(), (0, 1, 1, 0): -_Q(1)})


def relation_pairs():
    """The relations as (lhs, rhs) AqElement pairs, lhs the reversed product.

    Each pair encodes one defining relation in the form
    ``normal_order(reversed word) == rhs`` with rhs expressed on the
    ordered basis, e.g. w2*w1 == q^-1 * w1w2 and
    w4*w1 == w1w4 - (q - q^-1) w2w3.
    """
    qinv = _Q(-1)
    pairs = [
        (normal_order((2, 1)), AqElement({(1, 1, 0, 0): qinv})),
        (normal_order((3, 1)), AqElement({(1, 0, 1, 0): qinv})),
        (normal_order((4, 3)), AqElement({(0, 0, 1, 1): qinv})),
        (normal_order((4, 2)), AqElement({(0, 1, 0, 1): qinv})),
        (normal_order((3, 2)), AqElement({(0, 1, 1, 0): LaurentPoly.one()})),
        (
            normal_order((4, 1)),
            AqElement({(1, 0, 0, 1): LaurentPoly.one(), (0, 1, 1, 0): -_MU}),
        ),
    ]
    return pairs
