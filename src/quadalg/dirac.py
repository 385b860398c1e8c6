"""The 2x2 first-order operator matrices factoring the quantized wave operator.

The two matrices are assembled from the right-multiplication duals:

    D+ = ( dual(w2)        dual(w4)      )     D- = ( dual(w3)        dual(w4)      )
         ( -q^-1 dual(w1)  -q^-1 dual(w3))          ( -q^-1 dual(w1)  -q^-1 dual(w2))

They act on pairs of polynomials as row vectors, (fM)_j = sum_i M_ij f_i;
this orientation is forced by the intertwiner computation

    g_1 = dual(w2) f_1 - q^-1 dual(w1) f_2
    g_2 = dual(w4) f_1 - q^-1 dual(w3) f_2

for the map f -> f(. u0) with u0 = w2 - q^-1 w1 F_mu, read through the
divided-powers correspondence componentwise.  With it both products
compose to -q^-1 times the diagonal wave operator, exactly.

``intertwine_check`` compares the brute-force pushforward with the matrix
action on every vector indicator as sparse columns in divided coordinates
(``transform.first_column_failure``, over Z[q, q^-1]): each entry M_ij
converts its coefficients once and gives the image of e_gamma through
``qcalc.divided_column``, the kernel of ``OpMatrix2.apply_divided``,
which psi, taken componentwise, ties to ``OpMatrix2.apply`` on pairs of
polynomials.
"""

from __future__ import annotations

from functools import lru_cache

from .aq import AqElement
from .qcalc import Poly4Vec2, QOperator, compose
from .ring import LaurentPoly
from .transform import (
    DualFunctional,
    box_operator,
    dual_w1_parts,
    first_column_failure,
    psi,
    right_dual_bruteforce,
    right_dual_closed,
)

_Q = LaurentPoly.q


class OpMatrix2:
    """A 2x2 matrix of q-difference operators acting on row vectors."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        (a, b), (c, d) = entries
        self.entries = ((a, b), (c, d))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, OpMatrix2):
            return NotImplemented
        return self.entries == other.entries

    def __add__(self, other):
        return OpMatrix2(
            tuple(
                tuple(self.entries[i][j] + other.entries[i][j] for j in (0, 1))
                for i in (0, 1)
            )
        )

    def scale(self, c):
        return OpMatrix2(
            tuple(tuple(self.entries[i][j].scale(c) for j in (0, 1)) for i in (0, 1))
        )

    def then(self, other: "OpMatrix2") -> "OpMatrix2":
        """The composite "self first, then other" on row vectors.

        Effective entries: (self.then(other))_ij = sum_k other_kj o self_ik.
        """
        out = []
        for i in (0, 1):
            row = []
            for j in (0, 1):
                row.append(
                    compose(other.entries[0][j], self.entries[i][0])
                    + compose(other.entries[1][j], self.entries[i][1])
                )
            out.append(tuple(row))
        return OpMatrix2(tuple(out))

    def apply(self, v: Poly4Vec2) -> Poly4Vec2:
        """Row-vector action: component j of the result is sum_i M_ij(v_i)."""
        return Poly4Vec2(
            self.entries[0][0].apply(v.p1) + self.entries[1][0].apply(v.p2),
            self.entries[0][1].apply(v.p1) + self.entries[1][1].apply(v.p2),
        )

    def apply_divided(self, v: "VectorDualFunctional") -> "VectorDualFunctional":
        """``apply`` in divided coordinates: slot j is sum_i M_ij.apply_divided(v_i)."""
        return VectorDualFunctional(
            self.entries[0][0].apply_divided(v.f1) + self.entries[1][0].apply_divided(v.f2),
            self.entries[0][1].apply_divided(v.f1) + self.entries[1][1].apply_divided(v.f2),
        )

    @classmethod
    def diagonal(cls, op: QOperator) -> "OpMatrix2":
        return cls(((op, QOperator.zero()), (QOperator.zero(), op)))

    def __str__(self):
        return "[[%s | %s]\n [%s | %s]]" % (
            self.entries[0][0], self.entries[0][1],
            self.entries[1][0], self.entries[1][1],
        )


_VARIANTS = {"plus": (2, 3), "minus": (3, 2)}  # the w indices (top, bottom) on the diagonal


def _roles(variant):
    if variant not in _VARIANTS:
        raise ValueError("variant must be 'plus' or 'minus', got %r" % (variant,))
    return _VARIANTS[variant]


def _dirac_parts(top, bottom):
    """First-order matrix and extra term with dual(w_top), dual(w_bottom) on the diagonal.

    The lower-left corner is -q^-1 dual(w1), split into its first-order
    part and the second-order departure -q^-1 z_4 (1 - q^-2) K_4 box.
    """
    zero = QOperator.zero()
    minus_qinv = -_Q(-1)
    w1_first, w1_extra = dual_w1_parts()
    first = OpMatrix2(
        (
            (right_dual_closed(top), right_dual_closed(4)),
            (w1_first.scale(minus_qinv), right_dual_closed(bottom).scale(minus_qinv)),
        )
    )
    extra = OpMatrix2(((zero, zero), (w1_extra.scale(minus_qinv), zero)))
    return first, extra


def dirac_plus_parts():
    """The first-order matrix and the extra wave-operator term, separately."""
    return _dirac_parts(*_VARIANTS["plus"])


def dirac_minus_parts():
    """As ``dirac_plus_parts`` with the roles of w2 and w3 interchanged."""
    return _dirac_parts(*_VARIANTS["minus"])


def dirac_plus() -> OpMatrix2:
    first, extra = dirac_plus_parts()
    return first + extra


def dirac_minus() -> OpMatrix2:
    first, extra = dirac_minus_parts()
    return first + extra


def factorization_check() -> bool:
    """True iff both products equal -q^-1 diag(box, box) as exact normal forms."""
    dp, dm = dirac_plus(), dirac_minus()
    target = OpMatrix2.diagonal(box_operator()).scale(-_Q(-1))
    return dp.then(dm) == target and dm.then(dp) == target


# ------------------------------------------------- algebraic intertwiner


class VectorDualFunctional:
    """A pair of functionals: values on the bases {w^gamma} and {w^gamma F}.

    The second slot refers to F_mu on the source side of the plus
    intertwiner and to F_nu on its target side (mu and nu swap for the
    minus intertwiner); the container itself is symmetric.
    """

    __slots__ = ("f1", "f2")

    def __init__(self, f1=None, f2=None):
        self.f1 = f1 if f1 is not None else DualFunctional.zero()
        self.f2 = f2 if f2 is not None else DualFunctional.zero()

    @classmethod
    def indicator(cls, gamma, slot):
        if slot == 1:
            return cls(DualFunctional.indicator(gamma), DualFunctional.zero())
        if slot == 2:
            return cls(DualFunctional.zero(), DualFunctional.indicator(gamma))
        raise ValueError("slot must be 1 or 2, got %r" % (slot,))

    def __eq__(self, other):
        if not isinstance(other, VectorDualFunctional):
            return NotImplemented
        return self.f1 == other.f1 and self.f2 == other.f2

    def __bool__(self):
        return bool(self.f1) or bool(self.f2)

    def psi_pair(self) -> Poly4Vec2:
        return Poly4Vec2(psi(self.f1), psi(self.f2))

    def __str__(self):
        return "(%s ; %s)" % (self.f1, self.f2)


def _pushforward_generators(variant):
    """The indices k, in rows i and columns j, of the duals in f -> f(. u0).

    Slot j of f(. u0) takes the dual of right multiplication by w_k on
    slot i of f, times -q^-1 from slot 2.
    """
    top, bottom = _roles(variant)
    return (top, 4), (1, bottom)


@lru_cache(maxsize=None)
def _pushforward_duals(variant):
    """The brute-force duals of ``_pushforward_generators``, built once per variant."""
    return tuple(
        tuple(right_dual_bruteforce(AqElement.generator(k)) for k in row)
        for row in _pushforward_generators(variant)
    )


def intertwine_bruteforce(f: VectorDualFunctional, variant: str = "plus") -> VectorDualFunctional:
    """The pushforward f -> f(. u0) on the target bases, via algebra products.

    For the plus variant u0 = w2 - q^-1 w1 F_mu and the target values are

        g1(delta) = f(w^delta w2) - q^-1 f(w^delta w1 F_mu)
        g2(delta) = f(w^delta w4) - q^-1 f(w^delta w3 F_mu)

    which only require normal-ordered products in the quadratic algebra.
    The minus variant interchanges the roles of w2 and w3.
    """
    qinv = _Q(-1)
    (d_top, d_w4), (d_w1, d_bottom) = _pushforward_duals(variant)
    g1 = d_top(f.f1) + d_w1(f.f2).scale(-qinv)
    g2 = d_w4(f.f1) + d_bottom(f.f2).scale(-qinv)
    return VectorDualFunctional(g1, g2)


def first_intertwine_failure(degree_bound: int, variant: str = "plus"):
    """The first (gamma, slot) of total degree <= degree_bound on which the
    brute-force pushforward and the matrix action disagree, or None.

    Each vector indicator's two images are compared as sparse columns in
    divided coordinates: entry M_ij's through ``divided_column`` (the
    kernel of ``OpMatrix2.apply_divided``, which psi carries componentwise
    to its action on polynomials), against the pushforward's dual of
    ``_pushforward_generators`` entry (i, j).
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    gens = _pushforward_generators(variant)  # rejects an unknown name before any matrix is built
    matrix = dirac_plus() if variant == "plus" else dirac_minus()
    minus_qinv = -_Q(-1)
    sides = [
        (AqElement.generator(gens[i][j]), minus_qinv if i else None, matrix[i, j].laurent_terms())
        for i in (0, 1)
        for j in (0, 1)
    ]
    bad = first_column_failure(sides, degree_bound)
    return (bad[0], bad[1] // 2 + 1) if bad else None


def intertwine_check(degree_bound: int, variant: str = "plus") -> bool:
    """True iff the brute-force pushforward equals the matrix action for
    every vector indicator of total degree <= degree_bound."""
    return first_intertwine_failure(degree_bound, variant) is None
