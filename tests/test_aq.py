import math
import random
from itertools import product

from quadalg import aq, lin
from quadalg.aq import (
    RULES,
    AqElement,
    center_element,
    commutator,
    multiply,
    normal_order,
    reduce_word,
    relation_pairs,
)
from quadalg.lin import add_into
from quadalg.ring import LaurentPoly

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
    # every word up to length 6 against both strategies of the reference
    for n in range(1, 7):
        for word in product((1, 2, 3, 4), repeat=n):
            got = reduce_word(word)
            assert got == reference_reduce_word(word), word
            assert got == reference_reduce_word(word, rightmost=True), word


def test_rule_overlaps_resolve():
    overlaps = [w for w in product((1, 2, 3, 4), repeat=3) if w[:2] in RULES and w[1:] in RULES]
    assert overlaps == [(3, 2, 1), (4, 2, 1), (4, 3, 1), (4, 3, 2)]
    for a, b, c in overlaps:
        left, right = {}, {}
        for w, f in RULES[a, b].items():
            for g, x in reduce_word(w + (c,), f).items():
                add_into(left, g, x)
        for w, f in RULES[b, c].items():
            for g, x in reduce_word((a,) + w, f).items():
                add_into(right, g, x)
        assert left == right == reduce_word((a, b, c)), (a, b, c)


def test_rules_agree_with_the_relations():
    # relation_pairs() lists the relations of w2w1, w3w1, w4w3, w4w2, w3w2, w4w1
    leads = [(2, 1), (3, 1), (4, 3), (4, 2), (3, 2), (4, 1)]
    assert sorted(leads) == sorted(RULES)
    for lead, (_, rhs) in zip(leads, relation_pairs()):
        rule = AqElement({_exponents(w): f for w, f in RULES[lead].items()})
        assert all(list(w) == sorted(w) for w in RULES[lead]), lead
        assert rule == rhs, lead


def test_plain_swaps_reach_rewrite_with_a_unit_factor():
    # a factor None makes lin.rewrite move the coefficient without a product
    assert aq._step((1, 3, 2)) == [((1, 2, 3), None)]
    assert aq._step((4, 1)) == [((1, 4), None), ((2, 3), -MU)]
    assert aq._step((2, 1)) == [((1, 2), Q(-1))]


def test_reduce_word_merges_equal_words(monkeypatch):
    calls = []

    def spy(vec, step):
        return lin.rewrite(vec, lambda w: calls.append(w) or step(w))

    monkeypatch.setattr(aq, "rewrite", spy)
    got = reduce_word((4,) * 6 + (1,) * 6)
    assert len(got) == 7 and got[(6, 0, 0, 6)] == ONE
    # the per-path rewriter follows this word down 13,327 complete paths
    assert 0 < len(calls) < 5000


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
    assert multiply(w2, w1) == AqElement({(1, 1, 0, 0): Q(-1)})
    a = rand_element(random.Random(1))
    assert multiply(AqElement.one(), a) == a
    # w4^2 * w1 = w1 w4^2 - (q - q^-3) w2 w3 w4
    assert multiply(w4 * w4, w1) == AqElement(
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
