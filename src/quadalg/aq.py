"""The quadratic algebra on four generators w1..w4 with PBW normal ordering.

Defining relations, oriented toward the normal order w1 < w2 < w3 < w4:

    w1 w2 = q w2 w1        w1 w3 = q w3 w1        w3 w4 = q w4 w3
    w2 w4 = q w4 w2        w2 w3 = w3 w2
    w1 w4 - w4 w1 = (q - q^-1) w2 w3

Elements are stored on the ordered monomial basis w1^a w2^b w3^c w4^d.
Normal ordering is ``lin.rewrite`` with the rules ``RULES``.  Each rule
lowers the lexicographic order of words of a fixed length, so rewriting
terminates; its four overlaps resolve (the test suite checks them), so
the normal form does not depend on the order of rewriting.
"""

from __future__ import annotations

from .lin import Lin, add_into, rewrite
from .ring import LaurentPoly, as_laurent, mi_check

_Q = LaurentPoly.q
_MU = _Q(1) - _Q(-1)  # q - q^-1

GENERATORS = (1, 2, 3, 4)


def _word_of(gamma):
    word = []
    for i, n in enumerate(gamma):
        word.extend([i + 1] * n)
    return tuple(word)


def _exponents_of(word):
    g = [0, 0, 0, 0]
    for letter in word:
        g[letter - 1] += 1
    return tuple(g)


# The relations as rewriting rules, leading pair -> {word: factor}: the
# leading pair equals the sum of factor * word.  They are not derived from
# relation_pairs(), the specification the tests check them by.
RULES = {
    (2, 1): {(1, 2): _Q(-1)},
    (3, 1): {(1, 3): _Q(-1)},
    (4, 2): {(2, 4): _Q(-1)},
    (4, 3): {(3, 4): _Q(-1)},
    (3, 2): {(2, 3): LaurentPoly.one()},
    (4, 1): {(1, 4): LaurentPoly.one(), (2, 3): -_MU},
}

# RULES as the step hands them to lin.rewrite: a factor 1 becomes None, so
# a plain swap moves the coefficient without a product.
_STEPS = {
    lead: tuple((w, None if f == 1 else f) for w, f in rhs.items()) for lead, rhs in RULES.items()
}


def _step(word):
    """The leftmost inversion of ``word`` rewritten by its rule, or None if there is none."""
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            head, tail = word[:i], word[i + 2:]
            return [(head + w + tail, f) for w, f in _STEPS[word[i:i + 2]]]
    return None


def reduce_word(word, coeff=None):
    """Normal-order a word of generator indices; returns {multi-index: coeff}."""
    if coeff is None:
        coeff = LaurentPoly.one()
    return {_exponents_of(w): c for w, c in rewrite({tuple(word): coeff}, _step).items()}


class AqElement(Lin):
    """A linear combination of normal-ordered monomials with Laurent coefficients."""

    __slots__ = ()
    coerce = staticmethod(as_laurent)
    check_key = staticmethod(mi_check)

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls):
        return cls({(0, 0, 0, 0): LaurentPoly.one()})

    @classmethod
    def monomial(cls, gamma, coeff=None):
        return cls({mi_check(gamma): coeff if coeff is not None else LaurentPoly.one()})

    @classmethod
    def generator(cls, i):
        if i not in GENERATORS:
            raise ValueError("generator index must be 1..4, got %r" % (i,))
        e = [0, 0, 0, 0]
        e[i - 1] = 1
        return cls.monomial(tuple(e))

    # -- algebra ----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, AqElement):
            return self._scalar_mul(other)
        out = {}
        for g1, c1 in self.terms.items():
            w1 = _word_of(g1)
            for g2, c2 in other.terms.items():
                for g, c in reduce_word(w1 + _word_of(g2), c1 * c2).items():
                    add_into(out, g, c)
        return AqElement._make(out)

    def __rmul__(self, other):
        return self._scalar_mul(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = AqElement.one()
        for _ in range(n):
            out = out * self
        return out

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


def multiply(a: AqElement, b: AqElement) -> AqElement:
    return a * b


def commutator(a: AqElement, b: AqElement) -> AqElement:
    return a * b - b * a


def center_element() -> AqElement:
    """The central element w1 w4 - q w2 w3."""
    return AqElement(
        {
            (1, 0, 0, 1): LaurentPoly.one(),
            (0, 1, 1, 0): -_Q(1),
        }
    )


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
