"""Oracles and helpers shared by the test modules.

``reference_dual`` is the per-index brute-force dual that the transposed
tables of ``transform.right_dual_bruteforce`` replaced; ``psi_inv`` inverts
``transform.psi``; ``expected_beta_obstruction`` is the predicted beta
obstruction of ``verma.singular_test``; ``apply_divided``
sums ``qcalc.divided_column`` columns into the image of a functional;
``indicator`` is a pair of functionals with one monomial indicator;
``mutated`` perturbs one term of an operator for the mutation tests;
``q_factorial`` is the multi-index q-factorial as a product of q-integers;
``cyclotomic`` builds Phi_m by recursive division of q^m - 1, the
reference for the binomial Phi_m of ``ring``; ``vanishes_by_division`` is
the long division by Phi_m that the folded binomial test of
``ring.vanishes_at_root_of_unity`` replaced;
``require_canonical_denominators`` makes every ``RatQ`` built check that
its denominator is canonical; and ``_axis_step`` is the three-rule rewrite of
one axis's word of (a, e, g) triples, each z^a K^e [d]^g multiplied left
to right: on ``lin.rewrite`` it is the oracle of the closed product
formula ``qcalc._axis_normal`` that replaced it; ``laurent_product`` is
the product of two Laurent polynomials term by term, with no shortcut for
a one-term factor, the reference for ``LaurentPoly.__mul__``.
"""

from functools import lru_cache

from quadalg.aq import AqElement
from quadalg.lin import add_into
from quadalg.qcalc import QOperator, divided_column
from quadalg.ring import (
    INV_MU, LaurentPoly, RatQ, _dense_divmod, _to_dense, indices_up_to, mi_degree, q_int,
)
from quadalg.transform import DualFunctional


def reference_dual(w0):
    """The previous oracle: f(w^gamma w0) for every gamma up to f's degree."""
    products = {}

    def act(f):
        out = {}
        for g in indices_up_to(max((mi_degree(g) for g in f.terms), default=-1)):
            if g not in products:
                products[g] = AqElement.monomial(g) * w0
            val = f.evaluate(products[g])
            if val:
                out[g] = val
        return DualFunctional(out)

    return act


def q_factorial(gamma):
    """prod_i [gamma_i]_q!, each [n]_q! the product [1]_q [2]_q ... [n]_q."""
    out = LaurentPoly.one()
    for n in gamma:
        for k in range(1, n + 1):
            out = out * q_int(k)
    return out


def psi_inv(p):
    """Inverse of ``transform.psi`` on finitely supported data."""
    return DualFunctional({g: (c * RatQ(q_factorial(g))).to_laurent() for g, c in p.terms.items()})


def expected_beta_obstruction(x, convention="twisted"):
    """The predicted beta obstruction coefficient: [x-2]_q resp. -[x+2]_q."""
    n = x - 2 if convention == "twisted" else -(x + 2)  # [-n]_q = -[n]_q
    return q_int(n) if n >= 0 else -q_int(-n)


def apply_divided(op, f):
    """op on a functional f in divided coordinates: f's values times their columns.

    Raises ``ExactDivisionError`` if a coefficient of op is not a Laurent
    polynomial, even for f = 0.
    """
    terms = op.laurent_terms()
    out = {}
    for beta, v in f.terms.items():
        for target, c in divided_column(terms, beta).items():
            add_into(out, target, c * v)
    return type(f)._make(out)


def indicator(gamma, slot):
    """The pair of functionals with the indicator of w^gamma in slot 1 or 2."""
    f, zero = DualFunctional.indicator(gamma), DualFunctional.zero()
    if slot == 1:
        return f, zero
    if slot == 2:
        return zero, f
    raise ValueError("slot must be 1 or 2, got %r" % (slot,))


def mutated(op, rng, how):
    """op with one seeded term's coefficient multiplied by q, or dropped."""
    terms = dict(op.terms)
    key = rng.choice(sorted(terms))
    if how == "times q":
        terms[key] = terms[key] * LaurentPoly.q(1)
    else:
        del terms[key]
    return QOperator._make(terms)


@lru_cache(maxsize=None)
def cyclotomic(m):
    """Coefficient tuple (ascending) of Phi_m: q^m - 1 divided by every Phi_d, d | m, d < m."""
    if m < 1:
        raise ValueError("cyclotomic order must be >= 1")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _dense_divmod(num, cyclotomic(d))
            assert not rem
    return tuple(num)


def vanishes_by_division(p, m):
    """Phi_m | p, by long division of p (its unit q-power stripped) by Phi_m.

    Phi_m(q) = Phi_r(q^(m/r)) for the radical r of m, so only
    ``cyclotomic(r)`` is built; the division walks the nonzero terms of
    the monic Phi_m.
    """
    if m < 1:
        raise ValueError("root-of-unity order must be >= 1")
    if not p:
        return True
    r, rest, prime = 1, m, 2
    while rest > 1:
        if rest % prime == 0:
            r *= prime
            while rest % prime == 0:
                rest //= prime
        prime += 1
    phi = [(j * (m // r), c) for j, c in enumerate(cyclotomic(r)) if c]
    top = phi[-1][0]
    rem = _to_dense(p)[1]
    for i in range(len(rem) - 1, top - 1, -1):
        f = rem[i]
        if f:
            for j, c in phi:
                rem[i - top + j] -= f * c
    return not any(rem[:top])


def is_canonical(den):
    """Monic with valuation 0, so with a nonzero constant term."""
    return den.valuation == 0 and den.terms[den.degree] == 1


def require_canonical_denominators(monkeypatch):
    """Make ``ring._cancel``, which every ``RatQ`` constructor ends in, assert
    that the denominator it receives and the one it returns are canonical.

    Returns the list of the denominators received, one per call.
    """
    from quadalg import ring

    cancel, seen = ring._cancel, []

    def checked(num, den):
        assert is_canonical(den), den
        seen.append(den)
        num, den = cancel(num, den)
        assert is_canonical(den), den
        return num, den

    monkeypatch.setattr(ring, "_cancel", checked)
    return seen


_Q = LaurentPoly.q


def _axis_step(word):
    """One rewrite of a word of (a, e, g) triples on one axis, or None if it is canonical.

    Each rule lowers, in lexicographic order, the count of [d]-before-z pairs,
    then the count of z and [d] letters, then the count of triples, so the
    rewriting terminates.
    """
    for i, (a, e, g) in enumerate(word):
        if a and g:
            # z K^e [d] = q^e (K^(e-1) - K^(e+1)) / (q - q^-1)
            head, tail = word[:i], word[i + 1:]
            f = INV_MU * _Q(e)
            return [(head + ((a - 1, e - 1, g - 1),) + tail, f),
                    (head + ((a - 1, e + 1, g - 1),) + tail, -f)]
    if len(word) < 2:
        return None
    (a1, e1, g1), (a2, e2, g2), rest = word[0], word[1], word[2:]
    if not g1 or not a2:
        # K^e z^a = q^(-e a) z^a K^e  and  [d]^g K^e = q^(-e g) K^e [d]^g
        k = e1 * a2 + e2 * g1
        return [(((a1 + a2, e1 + e2, g1 + g2),) + rest, RatQ(_Q(-k)) if k else None)]
    # [d] z = q z [d] + K, with q z [d] as the triple (1, 0, 1)
    left, right = (a1, e1, g1 - 1), (a2 - 1, e2, g2)
    return [((left, (1, 0, 1), right) + rest, RatQ(_Q(1))),
            ((left, (0, 1, 0), right) + rest, None)]


def laurent_product(a, b):
    """The terms of a * b: every pair of terms, each added into the sum."""
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            add_into(out, k1 + k2, c1 * c2)
    return out
