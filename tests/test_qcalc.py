import hashlib
import random
from itertools import product

import pytest

from quadalg.lin import rewrite
from quadalg.qcalc import Poly4, QOperator, _axis_normal, compose, mul_z, qdiff, scaling
from quadalg.ring import LaurentPoly, RatQ, divide_exact, indices_up_to, q_int

from oracles import _axis_step, apply_divided

Q = LaurentPoly.q
MU = Q(1) - Q(-1)


def mono(alpha, c=1):
    return Poly4.monomial(alpha, c)


# ----------------------------------------------------------- generators

def test_qdiff_examples():
    # [3]_q derived from the difference quotient (q^3 - q^-3)/(q - q^-1)
    three = divide_exact(Q(3) - Q(-3), MU)
    assert qdiff(4).apply(mono((0, 0, 0, 3))) == mono((0, 0, 0, 2), three)
    assert qdiff(1).apply(mono((0, 1, 0, 0))) == Poly4.zero()
    assert qdiff(2).apply(mono((0, 1, 0, 0))) == Poly4.one()


def test_qdiff_monomial_rule():
    # [d_i] z_i^(m+n) = [m+n]_q z_i^(m+n-1) for all m + n <= 12
    for total in range(13):
        got = qdiff(2).apply(mono((0, total, 0, 0)))
        if total == 0:
            assert got == Poly4.zero()
        else:
            assert got == mono((0, total - 1, 0, 0), q_int(total))


def test_scaling_examples():
    assert scaling(2).apply(mono((0, 2, 1, 0))) == mono((0, 2, 1, 0), Q(-2))
    assert scaling(1).apply(Poly4.one()) == Poly4.one()
    assert scaling(4).apply(mono((0, 0, 0, 1))) == mono((0, 0, 0, 1), Q(-1))
    assert scaling(4, -2).apply(mono((0, 0, 0, 1))) == mono((0, 0, 0, 1), Q(2))


# -------------------------------------------------------- composition

def test_k_from_commutator():
    # [d_i] z_i - q z_i [d_i] == K_i, as exact normal forms
    for i in (1, 2, 3, 4):
        lhs = compose(qdiff(i), mul_z(i)) - compose(mul_z(i), qdiff(i)).scale(Q(1))
        assert lhs == scaling(i), i


def test_k_identity_pointwise():
    for i in (1, 2, 3, 4):
        lhs = compose(qdiff(i), mul_z(i)) - compose(mul_z(i), qdiff(i)).scale(Q(1))
        for beta in indices_up_to(8):
            p = mono(beta)
            assert lhs.apply(p) == scaling(i).apply(p)


def test_compose_identity_and_cross_axes():
    op = compose(scaling(1), qdiff(2))
    assert compose(QOperator.one(), op) == op
    # disjoint axes commute
    assert op == compose(qdiff(2), scaling(1))
    assert op.terms == {((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)): RatQ.one()}


def test_apply_compose_consistency():
    rng = random.Random(6)
    ops = [qdiff(1), scaling(2), mul_z(4), qdiff(4), scaling(3, -1), mul_z(1),
           scaling(2, -2), mul_z(3, 2), compose(mul_z(1), qdiff(1)),
           compose(qdiff(4), compose(scaling(4, -1), mul_z(4, 2)))]
    for _ in range(40):
        a, b = rng.choice(ops), rng.choice(ops)
        ab = compose(a, b)
        for beta in indices_up_to(3):
            p = mono(beta)
            assert ab.apply(p) == a.apply(b.apply(p))


def _at(axis, n):
    return tuple(n if j == axis else 0 for j in range(4))


def _word_action(axis, word, p):
    """Act with the raw terms z^a K^e [d]^g of ``word`` on ``p``, the rightmost first."""
    for a, e, g in reversed(word):
        p = QOperator._make({(_at(axis, a), _at(axis, e), _at(axis, g)): RatQ.one()}).apply(p)
    return p


def test_axis_rules_are_operator_identities():
    # every rewrite of the one-axis step, checked pointwise by raw terms
    # applied one after another, with no composition and no canonical form
    cases = {  # rule -> (its number of results, words it rewrites first)
        "collapse": (2, lambda e: [((1, e, 1),), ((2, e, 1),), ((1, e, 2), (0, 1, 1))]),
        "K z": (1, lambda e: [((1, e, 0), (1, -1, 0)), ((0, e, 0), (2, 1, 0), (0, 0, 1))]),
        "[d] K": (1, lambda e: [((0, 1, 2), (0, e, 1)), ((0, -1, 1), (0, e, 0), (1, 0, 0))]),
        "[d] z": (2, lambda e: [((0, e, 1), (1, 0, 0)), ((0, 1, 2), (2, e, 0), (0, 1, 1))]),
    }
    for axis in range(4):
        other = (axis + 1) % 4
        monos = [mono(tuple(x + y for x, y in zip(_at(axis, n), _at(other, m))))
                 for n in range(7) for m in range(2) if n + m <= 6]
        for e in range(-2, 3):
            for rule, (size, words) in cases.items():
                for word in words(e):
                    rhs = _axis_step(word)
                    assert len(rhs) == size, (rule, word)
                    for p in monos:
                        want = Poly4.zero()
                        for w, f in rhs:
                            got = _word_action(axis, w, p)
                            want = want + (got if f is None else got.scale(f))
                        assert _word_action(axis, word, p) == want, (rule, axis, word, p)


def test_axis_product_formula_matches_the_rewriting_oracle():
    # every pair of canonical triples with a, g <= 5 and e in -3..3, and every raw triple
    raw = [(a, e, g) for a in range(6) for e in range(-3, 4) for g in range(6)]
    pairs = list(product([t for t in raw if not (t[0] and t[2])], repeat=2))
    assert len(pairs) + len(raw) == 6181
    for t1, t2 in pairs:
        want = rewrite({(t1, t2): 1}, _axis_step)
        got = {(w,): 1 if f is None else f for w, f in _axis_normal(t1, t2)}
        assert got == want, (t1, t2)
    for t in raw:
        want = rewrite({(t,): 1}, _axis_step)
        got = {(w,): 1 if f is None else f for w, f in _axis_normal(t, (0, 0, 0))}
        assert got == want, t


def _compose_corpus():
    """str of compositions of random composites over all four axes, the
    closed forms pairwise and D+ then D-."""
    from quadalg.dirac import dirac_matrix
    from quadalg.transform import right_dual_closed

    rng = random.Random(10)
    gens = (
        [qdiff(i) for i in (1, 2, 3, 4)]
        + [scaling(i, k) for i, k in product((1, 2, 3, 4), (-2, -1, 1, 2))]
        + [mul_z(i, p) for i, p in product((1, 2, 3, 4), (1, 2))]
    )

    def composite():
        op = rng.choice(gens)
        for g in rng.choices(gens, k=rng.randint(0, 2)):
            op = compose(op, g)
        return op.scale(rng.choice((1, -1, Q(1), Q(-1) - Q(1))))

    closed = [right_dual_closed(w) for w in (1, 2, 3, 4, "box")]
    pairs = [(composite() + composite(), composite()) for _ in range(470)]
    pairs += list(product(closed, repeat=2))
    out = [str(compose(a, b)) for a, b in pairs]
    out.append(str(dirac_matrix("plus").then(dirac_matrix("minus"))))
    return out


def test_compose_corpus_is_pinned():
    # digest taken with the symbol calculus that the rewriting replaced
    out = _compose_corpus()
    assert len(out) == 496
    digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
    assert digest == "f7760f5c8064155cc238f97446cf3d2d4e7efbc3e6ee3b22c2d0e23e2ad396ee"


def test_compose_associative():
    ops = [qdiff(1), scaling(1), mul_z(1), qdiff(4), mul_z(4)]
    for a, b, c in product(ops, repeat=3):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_double_derivative():
    got = compose(qdiff(4), qdiff(4)).apply(mono((0, 0, 0, 2)))
    assert got == Poly4.monomial((0, 0, 0, 0), q_int(2))


def test_zero_operator():
    rng = random.Random(8)
    z = QOperator.zero()
    for _ in range(5):
        beta = tuple(rng.randint(0, 3) for _ in range(4))
        assert z.apply(mono(beta)) == Poly4.zero()


# ------------------------------------------- canonical form uniqueness

def test_canonical_form_identifies_equal_operators():
    # z_i K_i [d_i] == (q - q K_i^2)/(q - q^-1): same canonical term map
    for i in (1, 2, 3, 4):
        lhs = compose(mul_z(i), compose(scaling(i), qdiff(i)))
        rhs = (QOperator.one() - scaling(i, 2)).scale(RatQ(Q(1)) / RatQ(MU))
        assert lhs == rhs
        # and pointwise, as a second, independent check
        for beta in indices_up_to(5):
            assert lhs.apply(mono(beta)) == rhs.apply(mono(beta))


def test_canonical_terms_never_mix_z_and_d():
    ops = [
        compose(qdiff(4), mul_z(4)),
        compose(mul_z(4), compose(qdiff(4), qdiff(4))),
        compose(compose(mul_z(2, 2), qdiff(2)), scaling(2)),
    ]
    for op in ops:
        for alpha, _, gamma in op.terms:
            assert all(a == 0 or g == 0 for a, g in zip(alpha, gamma))


def test_monomial_constructor_canonicalizes():
    raw = QOperator.monomial((0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 1))
    built = compose(mul_z(4), compose(scaling(4), qdiff(4)))
    assert raw == built


def test_constructor_coerces_coefficients_and_checks_keys():
    z = (0, 0, 0, 0)
    with pytest.raises(TypeError):
        QOperator({(z, z, z): 1.5})
    op = QOperator({(z, z, z): 1})
    assert op == QOperator.one() and hash(op) == hash(QOperator.one())
    assert all(type(c) is RatQ for c in op.terms.values())
    assert QOperator({(z, (0, 0, 0, 2), (0, 0, 0, 1)): Q(1)}).terms
    for key in (
        ((0, 0, 1), z, z),
        ((0, 0, 0, -1), z, z),
        (z, (0, 0, 1), z),
        (z, z, (1, 0, 0, 0, 0)),
        (z, z),
    ):
        with pytest.raises(ValueError):
            QOperator({key: 1})
    with pytest.raises(ValueError):
        QOperator.monomial((0, 0, 1), z, z)


def test_operator_equality_vs_action_sweep():
    # structural equality <=> equal action, sampled both ways
    a = compose(qdiff(1), compose(mul_z(1), qdiff(1)))
    b = compose(qdiff(1), mul_z(1)) * qdiff(1)
    assert a == b
    c = a + scaling(1)
    assert c != a
    assert any(
        c.apply(mono(beta)) != a.apply(mono(beta)) for beta in indices_up_to(3)
    )


def test_str_roundtrip_flavour():
    op = compose(scaling(2), qdiff(1)) - mul_z(4).scale(Q(-1))
    s = str(op)
    assert "K_2" in s and "d_1" in s and "z_4" in s


# --------------------------------------------- divided-power coordinates

def test_apply_divided_on_generators():
    from quadalg.transform import DualFunctional

    e = DualFunctional.indicator
    # [d] e_n = e_(n-1): the q-factorials cancel
    assert apply_divided(qdiff(4), e((0, 0, 0, 3))) == e((0, 0, 0, 2))
    assert not apply_divided(qdiff(1), e((0, 1, 0, 0)))
    # z e_n = [n+1] e_(n+1), z^2 e_n = [n+1][n+2] e_(n+2)
    assert apply_divided(mul_z(2), e((0, 2, 0, 0))) == e((0, 3, 0, 0)).scale(q_int(3))
    assert apply_divided(mul_z(2, 2), e((0, 1, 0, 0))) == e((0, 3, 0, 0)).scale(
        q_int(2) * q_int(3)
    )
    # K scales e_n by q^-n, K^-2 by q^(2n)
    assert apply_divided(scaling(3), e((0, 0, 2, 0))) == e((0, 0, 2, 0)).scale(Q(-2))
    assert apply_divided(scaling(3, -2), e((0, 0, 2, 0))) == e((0, 0, 2, 0)).scale(Q(4))
    # K acts after [d]: K [d] e_3 = K e_2 = q^-2 e_2
    assert apply_divided(compose(scaling(1), qdiff(1)), e((3, 0, 0, 0))) == e(
        (2, 0, 0, 0)
    ).scale(Q(-2))
    assert not apply_divided(QOperator.zero(), e((1, 0, 0, 0)))
    assert apply_divided(QOperator.one(), DualFunctional.zero()) == DualFunctional.zero()


def test_apply_divided_is_apply_through_psi_on_composites():
    from quadalg.transform import DualFunctional, psi

    # [d] only on axes 1-2 and z only on axes 3-4 keeps every coefficient
    # Laurent; K_1^k [d_1] pins the K shift to beta - gamma
    rng = random.Random(11)
    gens = [qdiff(1), qdiff(2), scaling(1), scaling(3, -2), scaling(4, 2), mul_z(3), mul_z(4, 2)]
    ops = [compose(scaling(1, k), qdiff(1)) for k in (1, -2)]
    for _ in range(15):
        op = QOperator.one()
        for g in rng.sample(gens, 3):
            op = compose(op, g).scale(rng.choice((1, -1, Q(1), Q(-2))))
        ops.append(op + rng.choice(gens))
    for op in ops:
        for beta in indices_up_to(4):
            f = DualFunctional.indicator(beta)
            assert psi(apply_divided(op, f)) == op.apply(psi(f)), (op, beta)


def test_apply_divided_rejects_non_laurent_coefficients():
    from quadalg.ring import ExactDivisionError
    from quadalg.transform import DualFunctional

    # z_1 K_1 [d_1] = (q - q K_1^2)/(q - q^-1) in canonical form
    op = QOperator.monomial((1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0))
    assert any(not c.is_laurent() for c in op.terms.values())
    for f in (DualFunctional.indicator((1, 0, 0, 0)), DualFunctional.zero()):
        with pytest.raises(ExactDivisionError):
            apply_divided(op, f)
