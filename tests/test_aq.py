import math
import random
from itertools import product

from quadalg import aq
from quadalg.aq import (
    AqElement,
    center_element,
    commutator,
    normal_order,
    reduce_word,
    relation_pairs,
)
from quadalg.lin import add_into, rewrite
from quadalg.ring import LaurentPoly

from oracles import q_factorial

Q = LaurentPoly.q
ONE = LaurentPoly.one()
MU = Q(1) - Q(-1)

w1, w2, w3, w4 = (AqElement.generator(i) for i in (1, 2, 3, 4))


def rand_element(rng, degree=3, nterms=3):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        g = [0, 0, 0, 0]
        for _ in range(rng.randint(0, degree)):
            g[rng.randrange(4)] += 1
        terms[tuple(g)] = Q(rng.randint(-2, 2)) * LaurentPoly.const(rng.randint(-3, 3))
    return AqElement(terms)


# ------------------------------------------------------- normal ordering

def test_normal_order_examples():
    assert normal_order([2, 1]) == AqElement({(1, 1, 0, 0): Q(-1)})
    assert normal_order([1, 1]) == AqElement({(2, 0, 0, 0): ONE})
    assert normal_order([4, 1]) == AqElement(
        {(1, 0, 0, 1): ONE, (0, 1, 1, 0): -MU}
    )
    assert normal_order([3, 2]) == AqElement({(0, 1, 1, 0): ONE})


def test_all_six_relations():
    for lhs, rhs in relation_pairs():
        assert lhs == rhs


def _exponents(word):
    return tuple(word.count(i) for i in (1, 2, 3, 4))


def _word_of(gamma):
    return sum(((i + 1,) * n for i, n in enumerate(gamma)), ())


# ------------------------------------------- the rewriting oracle
#
# The relations as rewriting rules, leading pair -> {word: factor}: the
# leading pair equals the sum of factor * word.  Each rule lowers the
# lexicographic order of words of a fixed length, so ``lin.rewrite``
# terminates on them; they are checked against relation_pairs() below.

RULES = {
    (2, 1): {(1, 2): Q(-1)},
    (3, 1): {(1, 3): Q(-1)},
    (4, 2): {(2, 4): Q(-1)},
    (4, 3): {(3, 4): Q(-1)},
    (3, 2): {(2, 3): ONE},
    (4, 1): {(1, 4): ONE, (2, 3): -MU},
}

# RULES as the step hands them to lin.rewrite: a factor 1 becomes None, so
# a plain swap moves the coefficient without a product.
_STEPS = {
    lead: tuple((w, None if f == 1 else f) for w, f in rhs.items()) for lead, rhs in RULES.items()
}


def _step(word):
    """The leftmost inversion of ``word`` rewritten by its rule, or None if there is none."""
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            head, tail = word[:i], word[i + 2:]
            return [(head + w + tail, f) for w, f in _STEPS[word[i:i + 2]]]
    return None


def rewrite_reduce_word(word, coeff=ONE, step=_step):
    """Normal ordering by rewriting with RULES: {multi-index: coeff}."""
    return {_exponents(w): c for w, c in rewrite({tuple(word): coeff}, step).items()}


def reference_reduce_word(word, rightmost=False):
    """The reference oracle: a stack rewriter that follows every rewrite path
    on its own, at the first or at the last inversion, with the relations
    written out as code rather than read from ``RULES``."""
    out = {}
    stack = [(tuple(word), ONE)]
    while stack:
        w, c = stack.pop()
        spots = range(len(w) - 2, -1, -1) if rightmost else range(len(w) - 1)
        spot = next((i for i in spots if w[i] > w[i + 1]), None)
        if spot is None:
            add_into(out, _exponents(w), c)
            continue
        a, b = w[spot], w[spot + 1]
        head, tail = w[:spot], w[spot + 2:]
        stack.append((head + (b, a) + tail, c if (a, b) in ((4, 1), (3, 2)) else c * Q(-1)))
        if (a, b) == (4, 1):
            # w4 w1 = w1 w4 - (q - q^-1) w2 w3
            stack.append((head + (2, 3) + tail, c * -MU))
    return out


def test_confluence_on_short_words():
    # every word up to length 6: the closed-form fold, the rewriting oracle
    # and both strategies of the reference
    for n in range(1, 7):
        for word in product((1, 2, 3, 4), repeat=n):
            got = reduce_word(word)
            assert got == rewrite_reduce_word(word), word
            assert got == reference_reduce_word(word), word
            assert got == reference_reduce_word(word, rightmost=True), word


def test_rule_overlaps_resolve():
    overlaps = [w for w in product((1, 2, 3, 4), repeat=3) if w[:2] in RULES and w[1:] in RULES]
    assert overlaps == [(3, 2, 1), (4, 2, 1), (4, 3, 1), (4, 3, 2)]
    for a, b, c in overlaps:
        left, right = {}, {}
        for w, f in RULES[a, b].items():
            for g, x in rewrite_reduce_word(w + (c,), f).items():
                add_into(left, g, x)
        for w, f in RULES[b, c].items():
            for g, x in rewrite_reduce_word((a,) + w, f).items():
                add_into(right, g, x)
        assert left == right == rewrite_reduce_word((a, b, c)), (a, b, c)


def test_rules_agree_with_the_relations():
    # relation_pairs() lists the relations of w2w1, w3w1, w4w3, w4w2, w3w2, w4w1
    leads = [(2, 1), (3, 1), (4, 3), (4, 2), (3, 2), (4, 1)]
    assert sorted(leads) == sorted(RULES)
    for lead, (lhs, rhs) in zip(leads, relation_pairs()):
        rule = AqElement({_exponents(w): f for w, f in RULES[lead].items()})
        assert all(list(w) == sorted(w) for w in RULES[lead]), lead
        assert rule == rhs, lead
        assert AqElement(rewrite_reduce_word(lead)) == lhs == rhs, lead


def test_plain_swaps_reach_rewrite_with_a_unit_factor():
    # a factor None makes lin.rewrite move the coefficient without a product
    assert _step((1, 3, 2)) == [((1, 2, 3), None)]
    assert _step((4, 1)) == [((1, 4), None), ((2, 3), -MU)]
    assert _step((2, 1)) == [((1, 2), Q(-1))]


def test_reduce_word_merges_equal_words():
    calls = []
    word = (4,) * 6 + (1,) * 6
    got = rewrite_reduce_word(word, step=lambda w: calls.append(w) or _step(w))
    assert len(got) == 7 and got[(6, 0, 0, 6)] == ONE
    assert reduce_word(word) == got
    # the per-path rewriter follows this word down 13,327 complete paths
    assert 0 < len(calls) < 5000


# ------------------------------------------- the closed-form product

def q_binomial(m, k):
    """The symmetric q-binomial [m k]_q by the q-Pascal rule."""
    if k < 0 or k > m:
        return LaurentPoly.zero()
    if k == 0 or k == m:
        return ONE
    return Q(k) * q_binomial(m - 1, k) + Q(k - m) * q_binomial(m - 1, k - 1)


def test_d_past_a_is_the_q_binomial_formula():
    lopsided = [(40, 3), (3, 40), (25, 1), (1, 25)]
    for m, n in [(m, n) for m in range(6) for n in range(6)] + lopsided:
        coeffs = aq._d_past_a(m, n)
        assert len(coeffs) == min(m, n) + 1, (m, n)
        for k, t in enumerate(coeffs):
            expected = ((-MU) ** k * q_binomial(m, k) * q_binomial(n, k)
                        * q_factorial((k,)) * Q(k * (k + 1) // 2 + k * k - k * (m + n)))
            assert t == expected, (m, n, k)


def test_w4_powers_past_w1_powers_match_the_rewriting_oracle():
    for m in range(8):
        for n in range(8):
            word = (4,) * m + (1,) * n
            got = AqElement.monomial((0, 0, 0, m)) * AqElement.monomial((n, 0, 0, 0))
            assert got == AqElement(rewrite_reduce_word(word)), (m, n)


def test_monomial_products_match_the_rewriting_oracle():
    rng = random.Random(31)
    for _ in range(300):
        g1, g2 = (tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(2))
        c1, c2 = Q(rng.randint(-2, 2)), LaurentPoly.const(rng.choice((-2, 1, 3)))
        got = AqElement.monomial(g1, c1) * AqElement.monomial(g2, c2)
        assert got == AqElement(rewrite_reduce_word(_word_of(g1) + _word_of(g2), c1 * c2)), (g1, g2)


def test_fold_matches_the_rewriting_oracle_on_random_words():
    rng = random.Random(17)
    for _ in range(300):
        word = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 9)))
        assert reduce_word(word) == rewrite_reduce_word(word), word


def test_pbw_monomial_count():
    # ordered monomials in degree d are the 4-part weak compositions of d
    for d in range(9):
        count = sum(1 for a in range(d + 1) for b in range(d + 1 - a)
                    for c in range(d + 1 - a - b))
        assert count == math.comb(d + 3, 3)
        # normal ordering any degree-d word stays in degree d
    rng = random.Random(2)
    for _ in range(50):
        word = [rng.randint(1, 4) for _ in range(rng.randint(0, 8))]
        for g in reduce_word(tuple(word)):
            assert sum(g) == len(word)


# ------------------------------------------------------- multiplication

def test_multiply_examples():
    assert w2 * w1 == AqElement({(1, 1, 0, 0): Q(-1)})
    a = rand_element(random.Random(1))
    assert AqElement.one() * a == a
    # w4^2 * w1 = w1 w4^2 - (q - q^-3) w2 w3 w4
    assert (w4 * w4) * w1 == AqElement(
        {(1, 0, 0, 2): ONE, (0, 1, 1, 1): -(Q(1) - Q(-3))}
    )


def test_associativity_generators_and_random():
    gens = [w1, w2, w3, w4]
    for a, b, c in product(gens, repeat=3):
        assert (a * b) * c == a * (b * c)
    rng = random.Random(77)
    for _ in range(25):
        a, b, c = (rand_element(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_power_identity():
    # w4^N w1 = w1 w4^N - (q - q^(1-2N)) w2 w3 w4^(N-1), N = 1..8
    for n in range(1, 9):
        lhs = (w4 ** n) * w1
        rhs = AqElement(
            {
                (1, 0, 0, n): ONE,
                (0, 1, 1, n - 1): -(Q(1) - Q(1 - 2 * n)),
            }
        )
        assert lhs == rhs, n
    # N=1 is the defining relation again
    assert (w4 ** 1) * w1 == normal_order([4, 1])


# --------------------------------------------------------------- center

def test_center_element_form():
    assert center_element() == AqElement({(1, 0, 0, 1): ONE, (0, 1, 1, 0): -Q(1)})


def test_centrality():
    omega = center_element()
    for g in (w1, w2, w3, w4):
        assert commutator(omega, g) == AqElement.zero()


def test_commutator_examples():
    assert commutator(w1, w4) == AqElement({(0, 1, 1, 0): MU})
    assert commutator(w2, w3) == AqElement.zero()
    a = rand_element(random.Random(3))
    assert commutator(a, a) == AqElement.zero()


def test_grading_of_products():
    rng = random.Random(11)
    for _ in range(30):
        da, db = rng.randint(0, 3), rng.randint(0, 3)
        ga = [0, 0, 0, 0]
        for _ in range(da):
            ga[rng.randrange(4)] += 1
        gb = [0, 0, 0, 0]
        for _ in range(db):
            gb[rng.randrange(4)] += 1
        prod = AqElement.monomial(tuple(ga)) * AqElement.monomial(tuple(gb))
        for g in prod.terms:
            assert sum(g) == da + db


def test_str_form():
    omega = center_element()
    assert str(omega) == "(-q)*w2*w3 + w1*w4"
    assert str(AqElement.zero()) == "0"
    assert str(AqElement.one()) == "(1)"
