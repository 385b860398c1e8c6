"""Oracles and helpers shared by the test modules.

``reference_dual`` is the per-index brute-force dual that the transposed
tables of ``transform.right_dual_bruteforce`` replaced; ``apply_divided``
sums ``qcalc.divided_column`` columns into the image of a functional;
``indicator`` is a pair of functionals with one monomial indicator; and
``mutated`` perturbs one term of an operator for the mutation tests.
"""

from quadalg.aq import AqElement
from quadalg.lin import add_into
from quadalg.qcalc import QOperator, divided_column
from quadalg.ring import LaurentPoly, indices_up_to
from quadalg.transform import DualFunctional


def reference_dual(w0):
    """The previous oracle: f(w^gamma w0) for every gamma up to f's degree."""
    products = {}

    def act(f):
        out = {}
        for g in indices_up_to(f.max_degree()):
            if g not in products:
                products[g] = AqElement.monomial(g) * w0
            val = f.evaluate(products[g])
            if val:
                out[g] = val
        return DualFunctional(out)

    return act


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
