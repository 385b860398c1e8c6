import random

import pytest

from quadalg.aq import AqElement
from quadalg.dirac import (
    OpMatrix2,
    dirac_matrix,
    dirac_parts,
    factorization_products,
    factorization_target,
    first_factorization_failure,
    intertwine_bruteforce,
    intertwine_check,
)
from quadalg.qcalc import Poly4, QOperator, compose, mul_z, qdiff, scaling
from quadalg.ring import LaurentPoly, RatQ, indices_up_to
from quadalg.transform import DualFunctional, box_operator, right_dual_closed

from oracles import apply_divided, indicator, mutated, reference_dual

Q = LaurentPoly.q


# --------------------------------------------------------- matrix shape

def test_dirac_plus_entries():
    dp = dirac_matrix("plus")
    assert dp[0, 1] == qdiff(4)
    assert dp[0, 0] == compose(scaling(4), qdiff(2))
    assert dp[1, 1] == compose(scaling(4), qdiff(3)).scale(-Q(-1))
    assert dp[1, 0] == right_dual_closed(1).scale(-Q(-1))


def test_dirac_minus_entries():
    dm = dirac_matrix("minus")
    assert dm[0, 0] == compose(scaling(4), qdiff(3))
    assert dm[1, 1] == compose(scaling(4), qdiff(2)).scale(-Q(-1))
    # shared corner entry
    assert dm[1, 0] == dirac_matrix("plus")[1, 0]


def test_first_order_plus_extra_decomposition():
    for parts, full in ((dirac_parts("plus"), dirac_matrix("plus")),
                        (dirac_parts("minus"), dirac_matrix("minus"))):
        first, extra = parts
        assert first + extra == full
        # every term of the first-order part is exactly first order in [d]
        for i in (0, 1):
            for j in (0, 1):
                assert {sum(g) for _, _, g in first[i, j].terms} == {1}, (i, j)
        # the extra term sits in the lower-left corner and carries the wave operator
        assert extra[0, 0] == QOperator.zero()
        assert extra[0, 1] == QOperator.zero()
        assert extra[1, 1] == QOperator.zero()
        expected = compose(mul_z(4), compose(scaling(4), box_operator())).scale(
            (LaurentPoly.one() - Q(-2)) * -Q(-1)
        )
        assert extra[1, 0] == expected


def test_annihilates_constants():
    v = (Poly4.one(), Poly4.zero())
    out = dirac_matrix("plus").apply(v)
    assert out == (Poly4.zero(), Poly4.zero())


# -------------------------------------------------------- factorization

def test_factorization_exact_normal_forms():
    target = factorization_target()
    assert all(p == target for p in factorization_products())


def test_factorization_products_commute():
    dp, dm = dirac_matrix("plus"), dirac_matrix("minus")
    assert dp.then(dm) == dm.then(dp)


def test_factorization_pointwise_degree_5():
    dp, dm = dirac_matrix("plus"), dirac_matrix("minus")
    box = box_operator()
    minus_qinv = -Q(-1)
    for gamma in indices_up_to(5):
        for slot in (1, 2):
            p = Poly4.monomial(gamma)
            v = (p, Poly4.zero()) if slot == 1 else (Poly4.zero(), p)
            got = dm.apply(dp.apply(v))
            expected = (box.apply(v[0]).scale(minus_qinv), box.apply(v[1]).scale(minus_qinv))
            assert got == expected, (gamma, slot)
            assert dp.apply(dm.apply(v)) == expected, (gamma, slot)


def test_factorization_samples():
    # (D+ then D-)(z1 z4 e1) = -q^-1 e1 and the e2 companion with z2 z3
    dp, dm = dirac_matrix("plus"), dirac_matrix("minus")
    v = (Poly4.monomial((1, 0, 0, 1)), Poly4.zero())
    out = dm.apply(dp.apply(v))
    assert out == (Poly4.monomial((0, 0, 0, 0), -Q(-1)), Poly4.zero())
    v = (Poly4.zero(), Poly4.monomial((0, 1, 1, 0)))
    out = dm.apply(dp.apply(v))
    assert out == (Poly4.zero(), Poly4.one())


def reference_first_factorization_failure(dp, dm, degree_bound):
    """The per-index oracle: each vector indicator through both products, entry by entry."""
    target = OpMatrix2.diagonal(box_operator()).scale(-Q(-1))

    def apply(m, v):
        # row vectors: slot j of the image is sum_i m_ij(v_i)
        return (
            apply_divided(m[0, 0], v[0]) + apply_divided(m[1, 0], v[1]),
            apply_divided(m[0, 1], v[0]) + apply_divided(m[1, 1], v[1]),
        )

    for gamma in indices_up_to(degree_bound):
        for slot in (1, 2):
            v = indicator(gamma, slot)
            expected = apply(target, v)
            if apply(dm, apply(dp, v)) != expected or apply(dp, apply(dm, v)) != expected:
                return gamma, slot
    return None


def test_factorization_sweep_passes_through_degree_8():
    assert first_factorization_failure(8) is None
    assert reference_first_factorization_failure(dirac_matrix("plus"), dirac_matrix("minus"), 3) is None


def test_factorization_sweep_rejects_a_negative_bound():
    with pytest.raises(ValueError):
        first_factorization_failure(-1)


def _entry_times_q(rng):
    variant = rng.choice(["plus", "minus"])
    m = dirac_matrix(variant)
    entries = [list(row) for row in m.entries]
    i, j = rng.choice([(0, 0), (0, 1), (1, 0), (1, 1)])
    entries[i][j] = mutated(entries[i][j], rng, "times q")
    return variant, OpMatrix2(entries)


def _departure_dropped(rng):
    variant = rng.choice(["plus", "minus"])
    first, extra = dirac_parts(variant)
    entries = [list(row) for row in (first + extra).entries]
    entries[1][0] = first[1, 0]
    return variant, OpMatrix2(entries)


def _diagonal_swapped(rng):
    variant = rng.choice(["plus", "minus"])
    m = dirac_matrix(variant)
    return variant, OpMatrix2(((m[1, 1], m[0, 1]), (m[1, 0], m[0, 0])))


@pytest.mark.parametrize("mutation", [_entry_times_q, _departure_dropped, _diagonal_swapped],
                         ids=["entry times q", "departure dropped", "diagonal swapped"])
def test_factorization_sweep_names_the_oracles_first_failure(mutation, monkeypatch):
    from quadalg import dirac

    variant, matrix = mutation(random.Random(mutation.__name__))
    monkeypatch.setattr(dirac, "dirac_matrix", lambda v: matrix if v == variant else dirac_matrix(v))
    got = first_factorization_failure(5)
    assert got is not None
    patched = dirac.dirac_matrix("plus"), dirac.dirac_matrix("minus")
    assert got == reference_first_factorization_failure(*patched, 5)


def test_factorization_sweep_reads_each_column_once(monkeypatch):
    from quadalg import dirac

    reads = []
    column = dirac.divided_column

    def counting(terms, beta):
        if terms:
            reads.append((id(terms), beta))
        return column(terms, beta)

    monkeypatch.setattr(dirac, "divided_column", counting)
    assert first_factorization_failure(4) is None
    assert reads and len(reads) == len(set(reads))


# ----------------------------------------------------------- intertwiner

def test_bruteforce_examples():
    # with p1 = 1 the map reads off the w2 coefficient of the first slot
    # and the -q^-1 w1 coefficient of the second
    g = intertwine_bruteforce(indicator((0, 1, 0, 0), 1), "plus")
    assert g[0].terms.get((0, 0, 0, 0)) == LaurentPoly.one()
    g = intertwine_bruteforce(indicator((1, 0, 0, 0), 2), "plus")
    assert g[0].terms.get((0, 0, 0, 0)) == -Q(-1)

    # with p2 = 1 it picks out w4 and -q^-1 w3 instead
    g = intertwine_bruteforce(indicator((0, 0, 0, 1), 1), "plus")
    assert g[1].terms.get((0, 0, 0, 0)) == LaurentPoly.one()
    g = intertwine_bruteforce(indicator((0, 0, 1, 0), 2), "plus")
    assert g[1].terms.get((0, 0, 0, 0)) == -Q(-1)

    assert not any(intertwine_bruteforce((DualFunctional.zero(), DualFunctional.zero()), "plus"))
    # the pushforward lowers the support degree; degree-zero input dies
    assert not any(intertwine_bruteforce(indicator((0, 0, 0, 0), 1), "plus"))


def test_intertwine_check_degree_0():
    assert intertwine_check(0, "plus")
    assert intertwine_check(0, "minus")


def test_intertwine_check_degree_4_both_variants():
    assert intertwine_check(4, "plus")
    assert intertwine_check(4, "minus")


def test_intertwine_bruteforce_matches_reference_duals():
    w = {i: AqElement.generator(i) for i in (1, 2, 3, 4)}
    qinv = Q(-1)
    for variant, top, bottom in (("plus", 2, 3), ("minus", 3, 2)):
        d_top, d_w1, d_w4, d_bottom = (reference_dual(w[i]) for i in (top, 1, 4, bottom))
        for gamma in indices_up_to(3):
            for slot in (1, 2):
                f = indicator(gamma, slot)
                expected = (
                    d_top(f[0]) + d_w1(f[1]).scale(-qinv),
                    d_w4(f[0]) + d_bottom(f[1]).scale(-qinv),
                )
                assert intertwine_bruteforce(f, variant) == expected, (variant, gamma, slot)


def test_intertwine_check_recomputes_its_verdict(monkeypatch):
    from quadalg import dirac

    assert intertwine_check(2, "plus")
    m = dirac_matrix("plus")
    swapped = OpMatrix2(((m[1, 1], m[0, 1]), (m[1, 0], m[0, 0])))
    monkeypatch.setattr(dirac, "dirac_matrix", lambda variant: swapped)
    assert not intertwine_check(2, "plus")


def test_unknown_variant_is_rejected_before_any_matrix_is_built(monkeypatch):
    from quadalg import dirac

    built = []
    monkeypatch.setattr(dirac, "dirac_matrix", lambda variant: built.append(1) or dirac_matrix(variant))
    message = "variant must be 'plus' or 'minus', got 'Plus'"
    with pytest.raises(ValueError) as first:
        dirac.first_intertwine_failure(2, "Plus")
    with pytest.raises(ValueError) as brute:
        intertwine_bruteforce(indicator((0, 0, 0, 0), 1), "Plus")
    assert str(first.value) == str(brute.value) == message
    assert built == []
