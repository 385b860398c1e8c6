"""The star action through the Hopf structure: the oracle for ``uq.star_act``.

``hopf_star_act`` computes sum_i b_i * a * S(a_i) over the coproduct pairs
of a generator, straightens it, applies the counit to the Cartan and
raising parts, and projects the remaining lowering part onto the pure-w
component of the PBW basis w^gamma F_mu^r F_nu^s.  The PBW coordinates
come from the rule table ``oracles.PBW_RULES`` through
``oracles.reference_pbw_matrix``, read as a module attribute so that a
test can swap the memo table, and not from ``uq._w_pbw_matrix``, a fold
of the star coefficients.  None of this shares code with the closed
formula of ``uq.star_act``.
"""

from quadalg.aq import AqElement
from quadalg.lin import Lin, add_into, add_scaled
from quadalg.ring import RatQ, as_ratq
from quadalg.uq import BETA, UqElement, straighten_word, w_embed

import oracles


def coproduct_pairs(symbol):
    """Coproduct of a single generator as a list of (left, right) pairs.

    Delta(E_i) = E_i x 1 + K_i x E_i
    Delta(F_i) = F_i x K_i^-1 + 1 x F_i
    Delta(K_i^e) = K_i^e x K_i^e
    """
    kind = symbol[0]
    i = symbol[1]
    if kind == "E":
        return [
            (UqElement.e_gen(i), UqElement.one()),
            (UqElement.k_gen(i), UqElement.e_gen(i)),
        ]
    if kind == "F":
        return [
            (UqElement.f_gen(i), UqElement.k_gen(i, -1)),
            (UqElement.one(), UqElement.f_gen(i)),
        ]
    if kind == "K":
        e = symbol[2] if len(symbol) > 2 else 1
        return [(UqElement.k_gen(i, e), UqElement.k_gen(i, e))]
    raise ValueError("unknown generator symbol %r" % (symbol,))


def antipode(x: UqElement) -> UqElement:
    """The antipode: S(E) = -K^-1 E, S(F) = -F K, S(K) = K^-1, anti-multiplicative."""
    out = UqElement.zero()
    for (fw, k, ew), c in x.terms.items():
        symbols = []
        sign = 1
        for i in reversed(ew):
            symbols += [("K", i, -1), ("E", i)]
            sign = -sign
        symbols += [("K", i, -e) for i, e in enumerate(k) if e]
        for i in reversed(fw):
            symbols += [("F", i), ("K", i, 1)]
            sign = -sign
        out = out + straighten_word(symbols, c if sign > 0 else -c)
    return out


def counit(x: UqElement) -> RatQ:
    total = RatQ(0)
    for (fw, k, ew), c in x.terms.items():
        if not fw and not ew:
            total = total + c
    return total


def counit_on_cartan(x: UqElement) -> UqElement:
    """Drop terms with raising letters; send every K monomial to 1."""
    out = {}
    for (fw, k, ew), c in x.terms.items():
        if not ew:
            add_into(out, (fw, (0, 0, 0), ()), c)
    return UqElement._make(out)


class TensorSum(Lin):
    """A sum of simple tensors of straightened elements (for Hopf checks)."""

    __slots__ = ()
    coerce = staticmethod(as_ratq)

    @classmethod
    def from_pairs(cls, pairs):
        out = {}
        for left, right in pairs:
            for k1, c1 in left.terms.items():
                for k2, c2 in right.terms.items():
                    add_into(out, (k1, k2), c1 * c2)
        return cls._make(out)

    def __mul__(self, other):
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                left = UqElement({a1: RatQ.one()}) * UqElement({a2: RatQ.one()})
                right = UqElement({b1: RatQ.one()}) * UqElement({b2: RatQ.one()})
                for k1, d1 in left.terms.items():
                    for k2, d2 in right.terms.items():
                        add_into(out, (k1, k2), c1 * c2 * d1 * d2)
        return TensorSum._make(out)

    @staticmethod
    def _mon(key):
        return "%s (x) %s" % tuple(UqElement._mon(side) or "1" for side in key)


def term_symbols(key):
    """The symbol word F_f K^k E_e of a straightened key (f, k, e)."""
    f, k, e = key
    return ([("F", i) for i in f] + [("K", i, x) for i, x in enumerate(k) if x]
            + [("E", i) for i in e])


def coproduct(x: UqElement) -> TensorSum:
    """The coproduct extended multiplicatively over straightened terms."""
    total = {}
    for key, c in x.terms.items():
        cur = TensorSum({((((), (0, 0, 0), ())), (((), (0, 0, 0), ()))): RatQ.one()})
        for s in term_symbols(key):
            cur = cur * TensorSum.from_pairs(coproduct_pairs(s))
        add_scaled(total, cur.terms, c)
    return TensorSum._make(total)


class NotInWSpanError(ValueError):
    """An element with K or E factors, which has no PBW coordinates in the lowering part."""


def w_decompose(x: UqElement) -> dict:
    """Coefficients of x over the PBW items (gamma, r, s); x must be pure F.

    Each F word is brought to PBW coordinates by ``oracles.PBW_RULES``,
    memoised per word, and the rows are summed with the coefficients of x.
    """
    for (fw, k, ew) in x.terms:
        if ew or any(k):
            raise NotInWSpanError("element has K or E factors: %s" % x)
    coords = {}
    for (fw, _, _), c in x.terms.items():
        add_scaled(coords, oracles.reference_pbw_matrix(fw), c)
    return coords


def hopf_star_act(symbol, a: AqElement) -> AqElement:
    """The co-adjoint action of a mu/nu generator on the quadratic algebra.

    Computes sum_i b_i * a * S(a_i) over the coproduct pairs, straightens,
    applies the counit to the Cartan and raising parts, and projects the
    remaining lowering part onto the pure-w component of the PBW basis
    w^gamma F_mu^r F_nu^s, read off by ``w_decompose``.
    """
    if symbol[1] == BETA:
        raise ValueError("star action is defined for the mu/nu subalgebra only")
    wa = w_embed(a)
    total = UqElement.zero()
    for left, right in coproduct_pairs(symbol):
        total = total + right * wa * antipode(left)
    projected = counit_on_cartan(total)
    out = {}
    for (gamma, r, s), c in w_decompose(projected).items():
        if r == 0 and s == 0:
            out[gamma] = c.to_laurent()
    return AqElement(out)
