"""Sparse linear combinations: the one core under every element class.

A combination is a dict {key: coefficient} that never holds a zero
coefficient, so equality of combinations is equality of dicts.  The two
primitives keep that invariant while accumulating; ``Lin`` builds the
shared linear structure on top of them, for the Laurent polynomials of
``ring`` as for the element classes over them.  This module imports
nothing from the package, so ``ring`` can build on it.
"""

from __future__ import annotations


def add_into(acc: dict, key, c) -> None:
    """``acc[key] += c``, dropping the key when the sum is zero."""
    old = acc.get(key)
    if old is None:
        if c:
            acc[key] = c
        return
    s = old + c
    if s:
        acc[key] = s
    else:
        del acc[key]


def add_scaled(acc: dict, row: dict, c) -> None:
    """``acc += c * row``, dropping zero sums; ``row`` is read only."""
    if not c:
        return
    get = acc.get
    for key, v in row.items():
        t = c * v
        old = get(key)
        if old is None:
            acc[key] = t
            continue
        s = old + t
        if s:
            acc[key] = s
        else:
            del acc[key]


class Lin:
    """A finitely supported linear combination of monomials.

    Per-class hooks: ``coerce`` converts a coefficient to the scalar type
    and has no default, so every subclass names its own (``as_laurent``,
    ``as_ratq`` or the int-or-Fraction coercion of ``ring``); ``check_key``,
    when set, validates a monomial key; ``one()`` is the unit, the zeroth
    power; ``_mon`` renders a monomial, with the empty string for the unit
    monomial, and a class whose terms print differently overrides
    ``_term``.  Instances are immutable by convention.
    """

    __slots__ = ("terms",)

    check_key = None

    def __init__(self, terms=None):
        clean = {}
        if terms:
            coerce, check = self.coerce, self.check_key
            for key, c in terms.items():
                key = check(key) if check else key  # also under a zero coefficient
                c = coerce(c)
                if c:
                    clean[key] = c
        self.terms = clean

    @classmethod
    def _make(cls, terms):
        """Wrap a dict that already has valid keys and no zero coefficient."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls._make({})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return self._make({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_into(out, k, c)
        return self._make(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_into(out, k, -c)
        return self._make(out)

    def scale(self, c):
        c = self.coerce(c)
        if not c:
            return self.zero()
        return self._make({k: c * v for k, v in self.terms.items()})

    def _scalar_mul(self, c):
        """``*`` by a non-element: ``scale``, or NotImplemented if ``coerce`` rejects ``c``."""
        try:
            c = self.coerce(c)
        except TypeError:
            return NotImplemented
        return self.scale(c)

    def __pow__(self, n: int):
        """``one()`` for n = 0, else n - 1 products by ``self`` from ``self``; not
        repeated squaring, which costs more on a many-term noncommutative element
        than n products by a generator."""
        if n < 0:
            raise ValueError("negative powers are not defined, got %d" % n)
        out = self if n else self.one()
        for _ in range(n - 1):
            out = out * self
        return out

    def _term(self, key, c) -> str:
        mon = self._mon(key)
        if not mon:
            return "(%s)" % c
        if c == 1:
            return mon
        return "(%s)*%s" % (c, mon)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(self._term(k, self.terms[k]) for k in sorted(self.terms))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)
