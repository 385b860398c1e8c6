"""The divided-powers correspondence between functionals on the quadratic
algebra and polynomials on C^4, and the right-multiplication duals.

A functional f is known through its values f(w^gamma); the associated
polynomial is

    Psi_f(z) = sum_gamma f(w^gamma) z^gamma / [gamma]_q!

(divided-powers normalization; ``psi`` reads each [gamma]_q! = q^s D, D
canonical, from a bounded memo).  Right multiplication w^gamma -> w^gamma w0
dualizes to an operator on functionals; through Psi these duals become
q-difference operators with closed forms:

    dual(w4) = [d_4]                 dual(w2) = K_4 [d_2]
    dual(w3) = K_4 [d_3]
    dual(w1) = K_2 K_3 K_4^2 [d_1] + z_4 (1 - q^-2) K_4 box
    box      = dual(w1 w4 - q w2 w3) = K_2 K_3 [d_1][d_4] - q [d_2][d_3]

``verify_dual`` checks each closed form against brute-force right
multiplication on every monomial indicator up to a degree bound, and
``first_dual_failure`` names the first indicator where they disagree
(``dirac`` runs the other two sweeps).  It compares sparse columns in
divided coordinates: the image of the indicator of w^gamma under either
side is a fixed {delta: value} over Z[q, q^-1].  The closed form's column
comes from ``qcalc.divided_column``, the one divided action (which psi,
a bijection, ties to ``apply`` on the polynomials Psi_f), so no Q(q)
arithmetic is needed;
``first_column_failure`` runs it for one side per dual or matrix entry.
The brute-force side keeps right multiplication by w0 transposed, one
table per degree of gamma, built once per process.  Only the products
w^gamma w0 with gamma_1 = 0 go through the normal-ordering engine; every
other row is the table one degree down shifted by e1 in gamma and delta,
since w1 leads the normal order and w1 w^delta = w^(delta + e1) applies
no relation.  A sweep asks for the degrees in ascending order, so each
table reads the one below it from the memo.  A sweep looks the tables up
once per degree and reads each column off them, and a dual on a
functional reads its values off the columns of the functional's support.
The closed forms are built once per process as well; verdicts never are.
"""

from __future__ import annotations

from functools import lru_cache

from .aq import AqElement, center_element
from .lin import Lin, add_into
from .qcalc import Poly4, QOperator, compose, divided_column, mul_z, qdiff, scaling
from .ring import (
    LaurentPoly,
    RatQ,
    _q_factorial,
    all_indices,
    as_laurent,
    mi_check,
    mi_degree,
)

_Q = LaurentPoly.q


class DualFunctional(Lin):
    """A finitely supported functional on the monomial basis w^gamma."""

    __slots__ = ()
    coerce = staticmethod(as_laurent)
    check_key = staticmethod(mi_check)

    @classmethod
    def indicator(cls, gamma):
        return cls({gamma: LaurentPoly.one()})

    def evaluate(self, a: AqElement):
        """Linear extension: the value on an arbitrary algebra element."""
        out = LaurentPoly.zero()
        for g, c in a.terms.items():
            v = self.terms.get(g)
            if v is not None:
                out = out + c * v
        return out

    def _term(self, g, c):
        return "(%s)*delta%s" % (c, (g,))


def psi(f: DualFunctional) -> Poly4:
    """The divided-powers polynomial of a functional."""
    out = {}
    for g, v in f.terms.items():
        _, s, den = _q_factorial(g)
        out[g] = RatQ._over(LaurentPoly._make({e - s: c for e, c in v.terms.items()}), den)
    return Poly4._make(out)


@lru_cache(maxsize=1024)
def _right_mul_transpose(w0: AqElement, degree: int):
    """Right multiplication by w0 on the monomials of one degree, transposed.

    Maps each w^delta to the pairs (gamma, c), deg gamma = degree, where c
    is the coefficient of w^delta in w^gamma w0, with the gammas in
    ``all_indices`` order.  Only the rows with gamma_1 = 0 are products in
    the algebra.  Every other row is the table of degree - 1 shifted by e1
    in both gamma and delta: w^gamma = w1 w^(gamma - e1), and w1 w^delta =
    w^(delta + e1) because w1 leads the normal order, so the shift applies
    no relation.
    """
    table = {}
    for gamma in all_indices(degree):
        if gamma[0]:  # lexicographic: the gamma_1 = 0 rows come first
            break
        for delta, c in (AqElement._make({gamma: LaurentPoly.one()}) * w0).terms.items():
            table.setdefault(delta, []).append((gamma, c))
    if degree:
        for (a, b, c, d), pairs in _right_mul_transpose(w0, degree - 1).items():
            table.setdefault((a + 1, b, c, d), []).extend(
                ((g[0] + 1, g[1], g[2], g[3]), x) for g, x in pairs
            )
    return {delta: tuple(pairs) for delta, pairs in table.items()}


def right_dual_bruteforce(w0: AqElement):
    """The operator f -> (g: g(w^gamma) = f(w^gamma w0)), computed in the algebra.

    Returns a callable on DualFunctional.  Right multiplication by w0 is
    read off the transposed tables of ``_right_mul_transpose``, built
    once per process; g is summed from them over the support of f only.
    """
    degrees = w0.degrees()

    def act(f: DualFunctional) -> DualFunctional:
        out = {}
        for delta, v in f.terms.items():
            d = mi_degree(delta)
            for k in degrees:
                if k > d:
                    break
                for gamma, c in _right_mul_transpose(w0, d - k).get(delta, ()):
                    add_into(out, gamma, c * v)
        return DualFunctional._make(out)

    return act


@lru_cache(maxsize=None)
def box_operator() -> QOperator:
    """The quantized wave operator K_2 K_3 [d_1][d_4] - q [d_2][d_3]."""
    main = compose(compose(scaling(2), scaling(3)), compose(qdiff(1), qdiff(4)))
    return main - compose(qdiff(2), qdiff(3)).scale(_Q(1))


@lru_cache(maxsize=None)
def dual_w1_parts():
    """The two parts of dual(w1): K_2 K_3 K_4^2 [d_1] and z_4 (1 - q^-2) K_4 box."""
    first = compose(
        compose(scaling(2), scaling(3)), compose(scaling(4, 2), qdiff(1))
    )
    extra = compose(mul_z(4), compose(scaling(4), box_operator())).scale(
        LaurentPoly.one() - _Q(-2)
    )
    return first, extra


@lru_cache(maxsize=None)
def right_dual_closed(which) -> QOperator:
    """Closed form of the dual of right multiplication by w1..w4 or the center ("box")."""
    if which == 4:
        return qdiff(4)
    if which == 2:
        return compose(scaling(4), qdiff(2))
    if which == 3:
        return compose(scaling(4), qdiff(3))
    if which == 1:
        first, extra = dual_w1_parts()
        return first + extra
    if which == "box":
        return box_operator()
    raise ValueError("argument must be one of 1, 2, 3, 4, 'box'; got %r" % (which,))


def _brute_element(which) -> AqElement:
    if which == "box":
        return center_element()
    return AqElement.generator(which)


def _transpose_tables(w0: AqElement, degree: int):
    """The tables ``_right_mul_transpose(w0, degree - k)`` for the degrees k <= degree of w0."""
    return [_right_mul_transpose(w0, degree - k) for k in w0.degrees() if k <= degree]


def first_column_failure(sides, degree_bound: int):
    """The first (gamma, i) on which a brute-force dual and an operator disagree, or None.

    ``sides`` are triples (w0, s, terms): the image of the indicator of
    w^gamma under the dual of right multiplication by w0, times s (None
    for 1), against the column of the operator with Laurent terms
    ``terms`` (``divided_column``).  Indices go in ``indices_up_to``
    order, the sides in their given order at each index.  The brute
    column is read off the transposed products of each degree: the
    tables of one w0 hold distinct keys, one degree each, so a column is
    their pairs at gamma with no sum.
    """
    for d in range(degree_bound + 1):
        tables = [_transpose_tables(w0, d) for w0, _, _ in sides]
        for gamma in all_indices(d):
            for i, (w0, s, terms) in enumerate(sides):
                brute = {}
                for table in tables[i]:
                    brute.update(table.get(gamma, ()))
                if s is not None:
                    brute = {g: c * s for g, c in brute.items()}
                if brute != divided_column(terms, gamma):
                    return gamma, i
    return None


def first_dual_failure(which, degree_bound: int):
    """The first monomial indicator of total degree <= degree_bound on which
    brute-force right multiplication and the closed form disagree, or None.

    Both sides are compared as sparse columns in divided coordinates: the
    closed form's through ``divided_column``, which psi carries to its
    action on polynomials.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    closed = right_dual_closed(which).laurent_terms()
    bad = first_column_failure([(_brute_element(which), None, closed)], degree_bound)
    return bad[0] if bad else None


def verify_dual(which, degree_bound: int) -> bool:
    """True iff the closed form matches brute-force right multiplication
    on every monomial indicator of total degree <= degree_bound."""
    return first_dual_failure(which, degree_bound) is None
