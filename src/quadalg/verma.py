"""Verma module machinery: weights, the raising action on lowered vectors,
and the singular-vector scan for the degree-one intertwiner candidate.

A weight is a plain tuple (m, n, x): the character values q^m, q^n, q^x
of the three Cartan generators on the highest weight line.  Under the
"twisted" convention the generators act on v by the inverse character
(K_mu v = q^-m v, ...), which is the convention induced on functions by
twisting with the inverse character and the antipode; the "plain"
convention drops the inversion.  ``CONVENTIONS`` holds the sign each one
puts on the weight; every function here takes the convention explicitly,
and every report records it.

Elements act by closed formulas over Z[q, q^-1], with no straightening:
E_i F_w v = sum over the letters w_k = i of F_(w<k) [s_k]_q F_(w>k) v,
where q^(s_k) is the weight of K_i on F_(w>k) v (Jantzen, *Lectures on
Quantum Groups*, 1996, ch. 4-6); K scales by its weight, F concatenates,
and one Serre reduction brings the words to the quotient basis.

The candidate u0+ = w2 - q^-1 w1 F_mu applied to the highest weight
vector of the (1, 0, x) weight is primitive exactly when the raising
generator along beta kills it; the obstruction is the q-integer
[x - 2]_q (twisted convention), which vanishes at generic q iff x = 2
and otherwise vanishes at the primitive m-th roots of unity with
m | 2x - 4 and m >= 3 (the two classical points q = 1, -1 never kill a
nonzero q-integer).  Under the plain convention it is -[x + 2]_q.  With
s the convention's sign, generic vanishing is at x = -2s and the orders
divide 2x + 4s (``obstruction_modulus``).

``singular_test`` is memoised per (u0, x, convention) in a bounded LRU
table (128 reports), so a scan, the CLI and the verify suite pay for
each weight once per process; the ``SingularReport`` it hands to every
caller is therefore read-only.  |x| is capped at ``MAX_ABS_X``: the
obstruction has |x| terms and is tested at every divisor of its modulus, so
the ceiling bounds one report's cost.  A scan's cost is about the sum of
|x| over its points, which is capped at ``MAX_SCAN_ABS_X``; a scan checks
every x and the sum before building any report.
"""

from __future__ import annotations

from functools import lru_cache

from .lin import Lin, add_into
from .ring import LaurentPoly, RatQ, as_ratq, q_int, vanishes_at_root_of_unity
from .uq import CARTAN, GENERATOR_SYMBOLS, LETTER_NAMES, MU, UqElement, serre_reduce, w_gen

_Q = LaurentPoly.q

# The sign the weight carries in the K exponents on v, per convention.
CONVENTIONS = {"twisted": -1, "plain": 1}
MAX_ORDER = 12  # every root-of-unity order up to this one is scanned
MAX_ABS_X = 10_000  # the largest |x| that singular_test accepts
MAX_SCAN_ABS_X = 300_000  # the largest sum of |x| over the points of one scan


class VermaVector(Lin):
    """A combination of quotient-basis lowering words applied to v."""

    __slots__ = ()
    coerce = staticmethod(as_ratq)
    check_key = staticmethod(tuple)

    @classmethod
    def highest_weight(cls):
        return cls({(): RatQ.one()})

    def laurent_terms(self):
        """Coefficients cleared to Laurent form, {word: LaurentPoly}."""
        return {w: c.to_laurent() for w, c in self.terms.items()}

    def _term(self, w, c):
        mon = "*".join(LETTER_NAMES[i] for i in w) if w else "1"
        head = mon if c == 1 and w else "(%s)*%s" % (c, mon)
        return head + "*v"


def _signed_q_int(n: int) -> LaurentPoly:
    """The q-integer (q^n - q^-n)/(q - q^-1) for any integer n: [-n]_q = -[n]_q."""
    return q_int(n) if n >= 0 else -q_int(-n)


def _raise(eword, fword, k_exps) -> dict:
    """E_eword F_fword v as {unreduced F word: LaurentPoly}; K_i v = q^k_exps[i] v."""
    vec = {fword: LaurentPoly.one()}
    for i in reversed(eword):
        out = {}
        for w, c in vec.items():
            for j, letter in enumerate(w):
                if letter == i:
                    s = k_exps[i] - sum(CARTAN[i][x] for x in w[j + 1:])
                    add_into(out, w[:j] + w[j + 1:], c * _signed_q_int(s))
        vec = out
    return vec


def _sign(convention: str) -> int:
    if convention not in CONVENTIONS:
        raise ValueError("convention must be %s, got %r" % (" or ".join(CONVENTIONS), convention))
    return CONVENTIONS[convention]


def obstruction_modulus(x: int, convention: str) -> int:
    """|2x + 4s| for the convention's sign s: the m >= 3 dividing it are the
    root-of-unity orders at which the beta obstruction at (1, 0, x) vanishes."""
    return abs(2 * x + 4 * _sign(convention))


def apply_element(element: UqElement, v: VermaVector, weight: tuple,
                  convention: str) -> VermaVector:
    """The action of a straightened element on a Verma vector of the weight (m, n, x).

    A term F_f K^k E_e acts on F_w v by the raising rule of ``_raise``,
    then K^k by its weight, then F_f by concatenation on the left; one
    Serre reduction at the end brings the result to quotient-basis words.
    """
    sign = _sign(convention)
    k_exps = [sign * c for c in weight]
    out = {}
    for word, cv in v.terms.items():
        raised = {}
        for (fw, kexp, ew), c in element.terms.items():
            if ew not in raised:
                raised[ew] = _raise(ew, word, k_exps)
            for w, r in raised[ew].items():
                # K_i F_j = q^-(a_i, a_j) F_j K_i
                e = sum(k * (k_exps[i] - sum(CARTAN[i][x] for x in w)) for i, k in enumerate(kexp))
                add_into(out, fw + w, c * cv * (r * _Q(e) if e else r))
    return VermaVector._make(serre_reduce(out))


_GENS = {name: UqElement.generator(symbol) for name, symbol in GENERATOR_SYMBOLS.items()}


def act(name: str, v: VermaVector, weight: tuple, convention: str) -> VermaVector:
    """Action of a single named generator (e.g. "Eb", "Fm", "Kb^-1") on v."""
    return apply_element(_GENS[name], v, weight, convention)


def singular_candidate_plus() -> UqElement:
    """The degree-one candidate w2 - q^-1 w1 F_mu."""
    return w_gen(2) - (w_gen(1) * UqElement.f_gen(MU)).scale(_Q(-1))


class SingularReport:
    """Exact raising values of u0 v and the root-of-unity bookkeeping; read-only.

    ``singular_test`` hands one memoised report to every caller, so no
    field can be assigned or deleted after ``__init__``.
    """

    def __init__(self, x: int, convention: str, e_mu: VermaVector, e_mu_sq: VermaVector,
                 e_nu: VermaVector, e_beta: VermaVector, vanishes_generically: bool,
                 root_of_unity_orders: tuple):
        vars(self).update(
            x=x, convention=convention, e_mu=e_mu, e_mu_sq=e_mu_sq, e_nu=e_nu, e_beta=e_beta,
            vanishes_generically=vanishes_generically, root_of_unity_orders=root_of_unity_orders,
        )

    __hash__ = None

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if type(other) is not SingularReport:
            return NotImplemented
        return vars(self) == vars(other)


def _bounded_x(x: int) -> int:
    if abs(x) > MAX_ABS_X:
        raise ValueError("singular-vector x must satisfy |x| <= %d, got %d" % (MAX_ABS_X, x))
    return x


@lru_cache(maxsize=128)
def singular_test(u0: UqElement, x: int, convention: str) -> SingularReport:
    """Raising values on u0 v for the weight (1, 0, x), with exact scalars.

    The beta obstruction is reported with the root-of-unity orders at
    which it vanishes; the divisors of ``obstruction_modulus`` and every
    order from 1 to ``MAX_ORDER`` are scanned.  Memoised per
    (u0, x, convention); raises ValueError when |x| > ``MAX_ABS_X``.
    """
    weight = (1, 0, _bounded_x(x))
    v = VermaVector.highest_weight()
    u0v = apply_element(u0, v, weight, convention)
    e_mu = act("Em", u0v, weight, convention)
    e_mu_sq = act("Em", e_mu, weight, convention)
    e_nu = act("En", u0v, weight, convention)
    e_beta = act("Eb", u0v, weight, convention)
    found = ()
    if e_beta:
        modulus = obstruction_modulus(x, convention)
        orders = {d for d in range(1, modulus + 1) if modulus % d == 0}
        orders |= set(range(1, MAX_ORDER + 1))
        coeffs = list(e_beta.laurent_terms().values())
        found = tuple(
            m for m in sorted(orders)
            if all(vanishes_at_root_of_unity(c, m) for c in coeffs)
        )
    return SingularReport(
        x=x,
        convention=convention,
        e_mu=e_mu,
        e_mu_sq=e_mu_sq,
        e_nu=e_nu,
        e_beta=e_beta,
        vanishes_generically=not e_beta,
        root_of_unity_orders=found,
    )


def scan_singular(u0: UqElement, xs, convention: str):
    """Reports for each x in the scan; returns (reports, generically vanishing xs).

    Every x is checked against ``MAX_ABS_X``, and the sum of |x| against
    ``MAX_SCAN_ABS_X``, before any report is built.
    """
    xs = [_bounded_x(x) for x in xs]
    total = sum(map(abs, xs))
    if total > MAX_SCAN_ABS_X:
        raise ValueError("singular-vector scan must satisfy sum of |x| <= %d, got %d"
                         % (MAX_SCAN_ABS_X, total))
    reports = [singular_test(u0, x, convention) for x in xs]
    vanishing = [r.x for r in reports if r.vanishes_generically]
    return reports, vanishing

