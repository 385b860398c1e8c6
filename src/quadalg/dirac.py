"""The 2x2 first-order operator matrices factoring the quantized wave operator.

Each entry is a right-multiplication dual times its row factor, M_ij =
s_i dual(w_k) with s_1 = 1, s_2 = -q^-1 and k from the one table ``_LAYOUT``:

    D+ = ( dual(w2)        dual(w4)      )     D- = ( dual(w3)        dual(w4)      )
         ( -q^-1 dual(w1)  -q^-1 dual(w3))          ( -q^-1 dual(w1)  -q^-1 dual(w2))

They act on pairs, plain tuples, as row vectors, (vM)_j = sum_i M_ij(v_i)
(``_row_times``, for operators, polynomials and functionals alike); this
orientation is forced by the intertwiner f -> f(. u0) with u0 = w2 - q^-1
w1 F_mu, read through the divided-powers correspondence componentwise, and
with it both products compose to -q^-1 times the diagonal wave operator,
exactly.

Three sweeps name the first indicator up to a degree bound where a check
fails, in divided coordinates over Z[q, q^-1] through the kernel
``qcalc.divided_column`` (which psi ties to ``apply`` on polynomials):
``transform.first_dual_failure`` for one dual, ``first_intertwine_failure``
for each entry against the brute-force pushforward's, and
``first_factorization_failure`` for both products, each (index, slot)
column of D+, D- and -q^-1 diag(box, box) read once per sweep.
"""

from __future__ import annotations

from functools import lru_cache

from .aq import AqElement
from .lin import add_scaled
from .qcalc import QOperator, compose, divided_column
from .ring import LaurentPoly, indices_up_to
from .transform import (
    box_operator,
    dual_w1_parts,
    first_column_failure,
    right_dual_bruteforce,
    right_dual_closed,
)

_Q = LaurentPoly.q

# The variants of D+-, the one table of their names: per variant the w index
# k of each entry M_ij = s_i dual(w_k), row by row.  The row factors s_i,
# with None for 1.
_LAYOUT = {"plus": ((2, 4), (1, 3)), "minus": ((3, 4), (1, 2))}
_ROW_FACTORS = (None, -_Q(-1))


def _layout(variant):
    """The pairs (s_i, row i of ``_LAYOUT[variant]``)."""
    if variant not in _LAYOUT:
        raise ValueError("variant must be %s, got %r" % (" or ".join(map(repr, _LAYOUT)), variant))
    return tuple(zip(_ROW_FACTORS, _LAYOUT[variant]))


def _scaled(x, s):
    return x if s is None else x.scale(s)


def _row_times(v, m, act):
    """The row vector v times the 2x2 matrix m: component j is sum_i act(m_ij, v_i)."""
    return tuple(act(m[0][j], v[0]) + act(m[1][j], v[1]) for j in (0, 1))


# The text form of a 2x2 matrix, from its four entries row by row.
MATRIX_TEXT = "[[%s | %s]\n [%s | %s]]"


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
        return OpMatrix2(tuple(_row_times(row, other.entries, compose) for row in self.entries))

    def apply(self, v):
        """Row-vector action on a pair (p1, p2) of ``Poly4``: component j is sum_i M_ij(p_i)."""
        return _row_times(v, self.entries, QOperator.apply)

    @classmethod
    def diagonal(cls, op: QOperator) -> "OpMatrix2":
        return cls(((op, QOperator.zero()), (QOperator.zero(), op)))

    def __str__(self):
        return MATRIX_TEXT % (*self.entries[0], *self.entries[1])


@lru_cache(maxsize=None)
def dirac_parts(variant):
    """The first-order matrix of D+ or D- and its extra term: each dual(w_k)
    split into its first-order part and the rest, which is zero but for the
    departure -q^-1 z_4 (1 - q^-2) K_4 box of the corner -q^-1 dual(w1).
    """
    parts = {k: (right_dual_closed(k), QOperator.zero()) for k in (2, 3, 4)}
    parts[1] = dual_w1_parts()
    return tuple(
        OpMatrix2(tuple(tuple(_scaled(parts[k][n], s) for k in row) for s, row in _layout(variant)))
        for n in (0, 1)
    )


@lru_cache(maxsize=None)
def dirac_matrix(variant) -> OpMatrix2:
    """D+ or D-, one matrix per variant of ``_LAYOUT``, built once per
    process and shared by every caller."""
    first, extra = dirac_parts(variant)
    return first + extra


def factorization_target() -> OpMatrix2:
    """-q^-1 diag(box, box), the value of both products of D+ and D-."""
    return OpMatrix2.diagonal(box_operator()).scale(-_Q(-1))


def factorization_products():
    """The two products (D+ then D-, D- then D+)."""
    dp, dm = map(dirac_matrix, _LAYOUT)
    return dp.then(dm), dm.then(dp)


class _ByColumns:
    """A matrix on pairs {delta: value} of functionals in divided coordinates.

    Column (delta, i), the image of the indicator of w^delta in slot i + 1,
    is row i of the matrix at delta, as the matrix acts on row vectors; it
    is read through ``divided_column`` on first use.  The image of a pair
    is the sum of its values times their columns.
    """

    def __init__(self, matrix):
        self.rows = [[op.laurent_terms() for op in row] for row in matrix.entries]
        self.columns = {}

    def column(self, delta, i):
        key = (delta, i)
        if key not in self.columns:
            self.columns[key] = tuple(divided_column(t, delta) for t in self.rows[i])
        return self.columns[key]

    def times(self, v):
        out = ({}, {})
        for i, f in enumerate(v):
            for delta, c in f.items():
                for acc, column in zip(out, self.column(delta, i)):
                    add_scaled(acc, column, c)
        return out


def first_factorization_failure(degree_bound: int):
    """The first (gamma, slot) of total degree <= degree_bound on which D+ then
    D- or D- then D+ differs from -q^-1 diag(box, box), or None.

    The matrices act on vector indicators in divided coordinates, over
    Z[q, q^-1], and read each (index, slot) column at most once per sweep.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    dp, dm, target = (_ByColumns(m) for m in (*map(dirac_matrix, _LAYOUT), factorization_target()))
    for gamma in indices_up_to(degree_bound):
        for i in (0, 1):
            expected = target.column(gamma, i)
            if any(b.times(a.column(gamma, i)) != expected for a, b in ((dp, dm), (dm, dp))):
                return gamma, i + 1
    return None


# ------------------------------------------------- algebraic intertwiner


def intertwine_bruteforce(f, variant: str):
    """The pushforward f -> f(. u0) on the target bases, read off ``_LAYOUT``.

    f is a pair (f1, f2) of ``DualFunctional``: the values on the bases
    {w^gamma} and {w^gamma F}, where F is F_mu on the source side of the
    plus intertwiner and F_nu on its target side (mu and nu swap for the
    minus intertwiner).  The result is the pair (g1, g2); for the plus
    variant u0 = w2 - q^-1 w1 F_mu and

        g1(delta) = f(w^delta w2) - q^-1 f(w^delta w1 F_mu)
        g2(delta) = f(w^delta w4) - q^-1 f(w^delta w3 F_mu)

    The minus variant interchanges the roles of w2 and w3.  This is not
    computed from u0: it is the row vector f times the brute-force duals
    of the w_k and row factors that ``_LAYOUT`` names, the table the
    matrices are built from.  So ``verify dirac-intertwine`` checks each
    entry's closed form against its brute-force dual, but cannot catch a
    wrong layout; ``verify dirac-factorization`` catches that.
    """
    duals = [[(right_dual_bruteforce(AqElement.generator(k)), s) for k in row]
             for s, row in _layout(variant)]
    return _row_times(f, duals, lambda d, x: _scaled(d[0](x), d[1]))


def first_intertwine_failure(degree_bound: int, variant: str):
    """The first (gamma, slot) of total degree <= degree_bound on which the
    brute-force pushforward and the matrix action disagree, or None.

    Each vector indicator's two images are compared entry by entry as
    sparse columns in divided coordinates: entry M_ij's through
    ``divided_column`` against s_i times the brute-force dual of w_k, for
    the k and s_i of ``_LAYOUT``.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    layout = _layout(variant)  # rejects an unknown name before any matrix is built
    matrix = dirac_matrix(variant)
    sides = [
        (AqElement.generator(k), s, matrix[i, j].laurent_terms())
        for i, (s, row) in enumerate(layout)
        for j, k in enumerate(row)
    ]
    bad = first_column_failure(sides, degree_bound)
    return (bad[0], bad[1] // 2 + 1) if bad else None


def intertwine_check(degree_bound: int, variant: str) -> bool:
    """True iff the brute-force pushforward equals the matrix action for
    every vector indicator of total degree <= degree_bound."""
    return first_intertwine_failure(degree_bound, variant) is None
