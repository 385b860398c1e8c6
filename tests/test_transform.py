import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from quadalg.aq import AqElement, center_element
from quadalg.qcalc import Poly4, compose, mul_z, qdiff, scaling
from quadalg.ring import LaurentPoly, RatQ, divide_exact, indices_up_to, q_int
from quadalg.transform import (
    DualFunctional,
    box_operator,
    psi,
    right_dual_bruteforce,
    right_dual_closed,
    verify_dual,
)

from oracles import (
    apply_divided, indicator, is_canonical, mutated, psi_inv, q_factorial, reference_dual,
    require_canonical_denominators,
)

Q = LaurentPoly.q
ONE = LaurentPoly.one()
MU = Q(1) - Q(-1)


# ------------------------------------------------------------------ psi

def test_psi_examples():
    assert psi(DualFunctional.indicator((0, 0, 0, 0))) == Poly4.one()
    # z1^2 / [2]_q
    got = psi(DualFunctional.indicator((2, 0, 0, 0)))
    assert got == Poly4.monomial((2, 0, 0, 0), RatQ(ONE, q_int(2)))
    assert psi(DualFunctional.zero()) == Poly4.zero()


def test_psi_inverse():
    for gamma in indices_up_to(4):
        f = DualFunctional.indicator(gamma)
        assert psi_inv(psi(f)) == f


# ----------------------------------------------------- brute-force dual

def test_bruteforce_examples():
    dual4 = right_dual_bruteforce(AqElement.generator(4))
    g = dual4(DualFunctional.indicator((0, 0, 0, 1)))
    assert g.terms == {(0, 0, 0, 0): ONE}

    dual1 = right_dual_bruteforce(AqElement.generator(1))
    # w4 w1 = w1 w4 - (q - q^-1) w2 w3: the two coefficients read off at (0,0,0,1)
    g = dual1(DualFunctional.indicator((1, 0, 0, 1)))
    assert g.terms.get((0, 0, 0, 1)) == ONE
    g = dual1(DualFunctional.indicator((0, 1, 1, 0)))
    assert g.terms.get((0, 0, 0, 1)) == -MU

    ident = right_dual_bruteforce(AqElement.one())
    f = DualFunctional({(1, 2, 0, 1): Q(2), (0, 0, 0, 0): ONE})
    assert ident(f) == f


def test_duals_compose_contravariantly():
    # dual(a*b) = dual(b) then dual(a), on generator pairs through degree 5
    gens = [AqElement.generator(i) for i in (1, 2, 3, 4)]
    for a, b in product(gens, repeat=2):
        dual_ab = right_dual_bruteforce(a * b)
        dual_a = right_dual_bruteforce(a)
        dual_b = right_dual_bruteforce(b)
        for gamma in indices_up_to(5):
            f = DualFunctional.indicator(gamma)
            assert dual_ab(f) == dual_a(dual_b(f))


# -------------------------------------------------------- closed forms

def test_closed_forms_shapes():
    assert right_dual_closed(4) == qdiff(4)
    assert right_dual_closed(2) == compose(scaling(4), qdiff(2))
    assert right_dual_closed(3) == compose(scaling(4), qdiff(3))
    box = right_dual_closed("box")
    assert box == box_operator()
    # box has exactly the two displayed terms in canonical form
    assert box.terms == {
        ((0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1)): RatQ.one(),
        ((0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 1, 0)): RatQ(-Q(1)),
    }


def test_dual_w1_contains_extra_term():
    op = right_dual_closed(1)
    # canonical form carries a z_4-term: the departure from first order
    assert any(alpha != (0, 0, 0, 0) for alpha, _, _ in op.terms)
    assert any(sum(g) == 2 for _, _, g in op.terms)


def test_verify_dual_all_generators():
    for which in (1, 2, 3, 4, "box"):
        assert verify_dual(which, 6), which


def test_verify_dual_degree_zero():
    assert verify_dual(1, 0)


@pytest.mark.parametrize("gamma", [(1, 2, 3), (0, 0, 0, 0, 1), (0, -1, 0, 0), (1, 0, -2, 3)])
def test_bad_multi_indices_are_rejected_at_the_public_constructors(gamma):
    # checked once, by each class's check_key, also under a zero coefficient
    for make in (AqElement.monomial, DualFunctional.indicator, Poly4.monomial,
                 lambda g: AqElement({g: 1}), lambda g: DualFunctional({g: 1}),
                 lambda g: AqElement.monomial(g, 0), lambda g: Poly4.monomial(g, 0)):
        with pytest.raises(ValueError):
            make(gamma)


def test_box_is_dual_of_center():
    brute = right_dual_bruteforce(center_element())
    box = box_operator()
    for gamma in indices_up_to(6):
        f = DualFunctional.indicator(gamma)
        assert psi(brute(f)) == box.apply(psi(f))


# ------------------------------- transposed table against the old algorithm

def _w(i):
    return AqElement.generator(i)


EQUIVALENCE_ELEMENTS = [
    _w(1), _w(2), _w(3), _w(4), center_element(), AqElement.one(), AqElement.zero(),
    AqElement.one() + _w(1) + _w(2) * _w(3), _w(1) * _w(4),
]


def equivalence_functionals():
    rng = random.Random(20261018)
    out = [DualFunctional.zero()]
    out += [DualFunctional.indicator(g) for g in indices_up_to(5)]
    support = indices_up_to(5)
    for _ in range(50):
        out.append(DualFunctional({
            g: LaurentPoly({e: rng.choice((-3, -1, 1, 2)) for e in rng.sample(range(-3, 4), 2)})
            for g in rng.sample(support, rng.randint(2, 6))
        }))
    return out


@pytest.mark.parametrize("w0", EQUIVALENCE_ELEMENTS, ids=str)
def test_transposed_dual_matches_reference(w0):
    new, old = right_dual_bruteforce(w0), reference_dual(w0)
    for f in equivalence_functionals():
        assert new(f) == old(f), f


def test_each_product_is_formed_once_per_process(monkeypatch):
    from quadalg import transform
    from quadalg.dirac import intertwine_check

    count = [0]
    mul = AqElement.__mul__

    def counting(a, b):
        count[0] += 1
        return mul(a, b)

    transform._right_mul_transpose.cache_clear()
    monkeypatch.setattr(AqElement, "__mul__", counting)
    # w^gamma w_i for the four generators and every gamma of degree <= 3
    assert intertwine_check(4, "plus") and intertwine_check(4, "minus")
    assert count[0] == 4 * len(indices_up_to(3))
    for which in (1, 2, 3, 4, "box"):
        assert verify_dual(which, 5)
    assert count[0] == 4 * len(indices_up_to(4)) + len(indices_up_to(3))


# ------------------------------------- warm caches keep every check live

def test_verify_dual_recomputes_its_verdict(monkeypatch):
    from quadalg import transform

    assert verify_dual(2, 3) and verify_dual(3, 3)
    closed = transform.right_dual_closed
    monkeypatch.setattr(
        transform, "right_dual_closed", lambda which: closed({2: 3, 3: 2}.get(which, which))
    )
    assert not verify_dual(2, 3)
    assert not verify_dual(3, 3)


def test_memoized_closed_forms_are_not_changed_by_arithmetic():
    op = right_dual_closed(1)
    before = dict(op.terms)
    results = [op.scale(Q(2)), op + op, op - right_dual_closed(4), -op]
    assert all(r is not op and r.terms is not op.terms for r in results)
    assert right_dual_closed(1).terms == before
    assert right_dual_closed(1) == compose(
        compose(scaling(2), scaling(3)), compose(scaling(4, 2), qdiff(1))
    ) + compose(mul_z(4), compose(scaling(4), box_operator())).scale(ONE - Q(-2))


# ------------------------- divided coordinates against the psi picture

def _operators_with_laurent_coefficients():
    from quadalg.dirac import _LAYOUT, dirac_matrix

    ops = [right_dual_closed(which) for which in (1, 2, 3, 4, "box")]
    for m in map(dirac_matrix, _LAYOUT):
        ops += [m[i, j] for i in (0, 1) for j in (0, 1)]
    return ops + [box_operator().scale(-Q(-1))]


def test_apply_divided_is_apply_through_psi():
    for op in _operators_with_laurent_coefficients():
        for gamma in indices_up_to(5):
            f = DualFunctional.indicator(gamma)
            assert psi(apply_divided(op, f)) == op.apply(psi(f)), (op, gamma)


def test_psi_and_apply_cancel_without_euclid(monkeypatch):
    # every denominator on this path is a product of q-integers, which RatQ
    # cancels over their cyclotomic factors with no polynomial gcd
    from quadalg import ring

    cases = [(which, right_dual_closed(which), right_dual_bruteforce(w0))
             for which, w0 in ((1, _w(1)), (2, _w(2)), (3, _w(3)), (4, _w(4)), ("box", center_element()))]

    def no_gcd(a, b):
        raise AssertionError("laurent_gcd(%s, %s)" % (a, b))

    monkeypatch.setattr(ring, "laurent_gcd", no_gcd)
    with pytest.raises(AssertionError):
        RatQ(Q(1) + 1, Q(1) * 2 + 1)
    for f in equivalence_functionals():
        for which, closed, brute in cases:
            assert psi(brute(f)) == closed.apply(psi(f)), (which, f)


def reference_first_dual_failure(which, degree_bound):
    """The psi-based oracle: both sides compared as polynomials in Q(q)."""
    from quadalg import transform

    closed = transform.right_dual_closed(which)
    brute = right_dual_bruteforce(transform._brute_element(which))
    for gamma in indices_up_to(degree_bound):
        f = DualFunctional.indicator(gamma)
        if psi(brute(f)) != closed.apply(psi(f)):
            return gamma
    return None


def reference_first_intertwine_failure(degree_bound, variant):
    from quadalg import dirac

    matrix = dirac.dirac_matrix(variant)
    for gamma in indices_up_to(degree_bound):
        for slot in (1, 2):
            f = indicator(gamma, slot)
            got = tuple(map(psi, dirac.intertwine_bruteforce(f, variant)))
            if got != matrix.apply(tuple(map(psi, f))):
                return gamma, slot
    return None


def _fresh_dirac_memos(monkeypatch):
    """Empty memo tables for the D+- matrices while a closed form is patched."""
    from quadalg import dirac

    for name in ("dirac_parts", "dirac_matrix"):
        monkeypatch.setattr(dirac, name, lru_cache(maxsize=None)(getattr(dirac, name).__wrapped__))


def _swap_w2_w3(monkeypatch):
    from quadalg import dirac, transform

    closed = transform.right_dual_closed

    def swapped(which):
        return closed({2: 3, 3: 2}.get(which, which))

    monkeypatch.setattr(transform, "right_dual_closed", swapped)
    monkeypatch.setattr(dirac, "right_dual_closed", swapped)
    _fresh_dirac_memos(monkeypatch)


@pytest.mark.parametrize("swap", [False, True], ids=["closed forms", "w2 and w3 swapped"])
def test_oracles_agree_with_the_psi_reference(swap, monkeypatch):
    from quadalg.dirac import first_intertwine_failure
    from quadalg.transform import first_dual_failure

    if swap:
        _swap_w2_w3(monkeypatch)
    verdicts = []
    for which in (1, 2, 3, 4, "box"):
        got = first_dual_failure(which, 5)
        assert got == reference_first_dual_failure(which, 5), which
        assert verify_dual(which, 5) == (got is None)
        verdicts.append(got is None)
    for variant in ("plus", "minus"):
        got = first_intertwine_failure(5, variant)
        assert got == reference_first_intertwine_failure(5, variant), variant
        verdicts.append(got is None)
    assert all(verdicts) != swap


def _patch_closed(monkeypatch, which, op):
    from quadalg import dirac, transform

    closed = transform.right_dual_closed

    def patched(w):
        return op if w == which else closed(w)

    monkeypatch.setattr(transform, "right_dual_closed", patched)
    monkeypatch.setattr(dirac, "right_dual_closed", patched)
    _fresh_dirac_memos(monkeypatch)


@pytest.mark.parametrize("how", ["times q", "dropped"])
@pytest.mark.parametrize("which", [1, 2, 3, 4, "box"], ids=str)
def test_sweeps_name_the_oracles_first_failure_on_a_mutated_closed_form(which, how, monkeypatch):
    from quadalg.dirac import first_intertwine_failure
    from quadalg.transform import first_dual_failure

    rng = random.Random("%s %s" % (which, how))
    _patch_closed(monkeypatch, which, mutated(right_dual_closed(which), rng, how))
    got = first_dual_failure(which, 5)
    assert got is not None
    assert got == reference_first_dual_failure(which, 5)
    for variant in ("plus", "minus"):
        assert first_intertwine_failure(5, variant) == reference_first_intertwine_failure(5, variant)


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_intertwine_sweep_names_the_oracles_first_failure_on_a_perturbed_entry(variant, monkeypatch):
    from quadalg import dirac

    rng = random.Random(variant)
    original = dirac.dirac_matrix(variant)
    for i, j in product((0, 1), repeat=2):
        entries = [list(row) for row in original.entries]
        entries[i][j] = mutated(entries[i][j], rng, "times q")
        matrix = dirac.OpMatrix2(entries)
        monkeypatch.setattr(dirac, "dirac_matrix", lambda v, matrix=matrix: matrix)
        got = dirac.first_intertwine_failure(5, variant)
        assert got is not None and got[1] == i + 1, (i, j)
        assert got == reference_first_intertwine_failure(5, variant), (i, j)


# ---------------------------- psi and apply over canonical denominators


def multi_term_functionals(count, seed):
    """Seeded functionals of 2-5 values, each of 1-3 terms, on indices of degree <= 6."""
    rng = random.Random(seed)
    support = indices_up_to(6)

    def value():
        return LaurentPoly({e: rng.choice((-3, -1, 1, 2, 5))
                            for e in rng.sample(range(-4, 5), rng.randint(1, 3))})

    return [DualFunctional({g: value() for g in rng.sample(support, rng.randint(2, 5))})
            for _ in range(count)]


def test_psi_divides_each_value_by_its_q_factorial(monkeypatch):
    rng = random.Random(6)
    every = DualFunctional({g: Q(rng.randint(-2, 2)) * 3 - Q(1) + 2 for g in indices_up_to(6)})
    seen = require_canonical_denominators(monkeypatch)
    for f in multi_term_functionals(100, 6) + [every]:
        got = psi(f)
        want = {g: RatQ(v, q_factorial(g)) for g, v in f.terms.items()}
        assert {g: (c.num.terms, c.den.terms) for g, c in got.terms.items()} == {
            g: (c.num.terms, c.den.terms) for g, c in want.items()
        }, f
    assert len(seen) > len(every.terms)


def reference_apply(op, p):
    """``QOperator.apply`` one term pair at a time, every coefficient and every
    sum normalised in full by the constructor:
    z^alpha K^delta [d]^gamma z^beta = [beta]!/[n]! q^(-delta.n) z^(n+alpha), n = beta - gamma."""
    out = {}
    for (alpha, delta, gamma), c in op.terms.items():
        for beta, pc in p.terms.items():
            n = tuple(b - g for b, g in zip(beta, gamma))
            if min(n) < 0:
                continue
            factor = divide_exact(q_factorial(beta), q_factorial(n))
            factor = factor * Q(-sum(d * m for d, m in zip(delta, n)))
            x = RatQ(c.num * pc.num * factor, c.den * pc.den)
            target = tuple(a + m for a, m in zip(alpha, n))
            y = out.get(target)
            out[target] = x if y is None else RatQ(x.num * y.den + y.num * x.den, x.den * y.den)
    return Poly4(out)


def _apply_inputs():
    """Poly4 inputs over q-factorial denominators (psi's), and over others: 2 + q, 2q + 1,
    (2q + 1)[3]_q, q^2 - q + 1 and 1/2, with int and Fraction numerators."""
    rng = random.Random(20261020)
    inputs = [psi(f) for f in multi_term_functionals(12, 7)]
    others = [Q(1) + 2, Q(1) * 2 + 1, (Q(1) * 2 + 1) * q_int(3), Q(2) - Q(1) + 1, LaurentPoly.const(2)]
    for i in range(12):
        coeffs = (1, -2, 3) if i % 2 else (Fraction(1, 2), Fraction(-3, 4))
        inputs.append(Poly4({
            g: RatQ(LaurentPoly({rng.randint(-2, 2): rng.choice(coeffs)}) + Q(rng.randint(-1, 1)),
                    rng.choice(others))
            for g in rng.sample(indices_up_to(4), 3)
        }))
    return inputs


def test_apply_matches_the_per_pair_formula(monkeypatch):
    # the 5 closed duals, the 8 D+- entries, a scaled box, and two operators
    # whose own coefficients have denominators
    ops = _operators_with_laurent_coefficients() + [
        right_dual_closed(4).scale(RatQ(ONE, q_int(2))), mul_z(1) * qdiff(1) * mul_z(2),
    ]
    inputs = _apply_inputs()
    seen = require_canonical_denominators(monkeypatch)
    for op in ops:
        for p in inputs:
            got = op.apply(p)
            want = reference_apply(op, p)
            assert {k: (c.num.terms, c.den.terms) for k, c in got.terms.items()} == {
                k: (c.num.terms, c.den.terms) for k, c in want.terms.items()
            }, (op, p)
            assert all(is_canonical(c.den) for c in got.terms.values())
    assert seen


def psi_apply_digest():
    """sha256 of psi(f) and of one closed operator's apply on it, printed, for 300 functionals."""
    ops = _operators_with_laurent_coefficients()
    h = hashlib.sha256()
    for i, f in enumerate(multi_term_functionals(300, 20261020)):
        p = psi(f)
        h.update(("%s\n%s\n" % (p, ops[i % len(ops)].apply(p))).encode())
    return h.hexdigest()


def test_psi_and_apply_output_is_pinned():
    # taken when psi and apply built each coefficient with RatQ(num, den)
    assert psi_apply_digest() == (
        "caf684befdb94a130fd1747f682e4db7221bef1893646770599f254582293c2b"
    )


def test_apply_divided_on_multi_term_functionals_is_apply_through_psi():
    for op in _operators_with_laurent_coefficients():
        for f in equivalence_functionals()[-50:]:  # the multi-term ones
            assert apply_divided(op, f) == psi_inv(op.apply(psi(f))), (op, f)


def test_non_laurent_coefficients_still_raise(monkeypatch):
    from quadalg import dirac
    from quadalg.dirac import first_intertwine_failure
    from quadalg.ring import ExactDivisionError
    from quadalg.transform import first_dual_failure

    def broken():
        return right_dual_closed(4).scale(RatQ(ONE, q_int(2)))

    f = DualFunctional.indicator((0, 0, 0, 1))
    op = broken()
    for _ in range(2):  # a failed conversion leaves nothing behind
        with pytest.raises(ExactDivisionError):
            apply_divided(op, f)
    _patch_closed(monkeypatch, 4, broken())
    with pytest.raises(ExactDivisionError):
        first_dual_failure(4, 3)
    entries = [list(row) for row in dirac.dirac_matrix("plus").entries]
    entries[0][1] = broken()
    monkeypatch.setattr(dirac, "dirac_matrix", lambda variant: dirac.OpMatrix2(entries))
    with pytest.raises(ExactDivisionError):
        first_intertwine_failure(3, "plus")


def test_sweeps_convert_each_operator_term_at_most_once(monkeypatch):
    from quadalg import dirac, transform
    from quadalg.dirac import intertwine_check

    calls = [0]
    to_laurent = RatQ.to_laurent

    def counting(c):
        calls[0] += 1
        return to_laurent(c)

    for memo in (transform.right_dual_closed, dirac.dirac_parts, dirac.dirac_matrix):
        memo.cache_clear()  # fresh operators, not yet converted
    monkeypatch.setattr(RatQ, "to_laurent", counting)
    assert verify_dual(1, 6)
    assert 0 < calls[0] <= len(right_dual_closed(1).terms)
    calls[0] = 0
    assert intertwine_check(4, "plus")
    matrix = dirac.dirac_matrix("plus")
    assert 0 < calls[0] <= sum(len(matrix[i, j].terms) for i in (0, 1) for j in (0, 1))


def test_suites_name_the_first_failing_index(monkeypatch):
    from quadalg.suites import run_suite

    _swap_w2_w3(monkeypatch)
    report = run_suite("dual-closed-forms")
    failed = {c.name: c.witness for c in report.checks if not c.ok}
    assert failed == {
        "closed form of dual(w%d) through degree 6" % i: "first failure at (0, 0, 1, 0)"
        for i in (2, 3)
    }
    assert all(c.witness is None for c in report.checks if c.ok)
    report = run_suite("dirac-intertwine")
    assert [(c.ok, c.witness) for c in report.checks] == [
        (False, "first failure at ((0, 0, 1, 0), 1)"),
        (False, "first failure at ((0, 0, 1, 0), 1)"),
    ]


def test_box_suite_names_the_first_failing_index(monkeypatch):
    from quadalg import transform
    from quadalg.suites import run_suite

    box = transform.box_operator()
    monkeypatch.setattr(
        transform, "right_dual_closed", lambda which: box.scale(Q(1)) if which == "box" else None
    )
    report = run_suite("box")
    assert [c.ok for c in report.checks] == [True, False]
    assert report.checks[1].witness == "first failure at (0, 1, 1, 0)"
