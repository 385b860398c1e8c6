import hashlib
import json
import random
from fractions import Fraction

import pytest

from quadalg.ring import (
    ExactDivisionError,
    LaurentPoly,
    RatQ,
    _cyclotomic_split,
    _q_factorial,
    as_laurent,
    as_ratq,
    divide_exact,
    laurent_gcd,
    q_int,
    q_rising,
    vanishes_at_root_of_unity,
)

from oracles import (
    cyclotomic, is_canonical, laurent_product, q_factorial, require_canonical_denominators,
    vanishes_by_division,
)

Q = LaurentPoly.q
ONE = LaurentPoly.one()


def rand_poly(rng, span=4, nterms=4):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        terms[rng.randint(-span, span)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return LaurentPoly(terms)


# ---------------------------------------------------------------- q_int

def test_q_int_small_values():
    assert q_int(0) == LaurentPoly.zero()
    assert q_int(1) == ONE
    assert q_int(2) == LaurentPoly({1: 1, -1: 1})          # q + q^-1
    assert q_int(3) == LaurentPoly({2: 1, 0: 1, -2: 1})    # q^2 + 1 + q^-2


def test_q_int_rejects_negative():
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_int_difference_quotient():
    # [n]_q * (q - q^-1) == q^n - q^-n, checked multiplicatively
    mu = Q(1) - Q(-1)
    for n in range(21):
        assert q_int(n) * mu == Q(n) - Q(-n)


def test_q_factorial():
    assert _q_factorial((0, 0, 0, 0))[0] == ONE
    assert _q_factorial((2, 0, 0, 0))[0] == LaurentPoly({1: 1, -1: 1})
    assert _q_factorial((1, 1, 1, 1))[0] == ONE
    assert _q_factorial((2, 2, 0, 0))[0] == q_int(2) * q_int(2)


# ---------------------------------------------------------- ring axioms

def test_ring_axioms_random():
    rng = random.Random(20240811)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_no_zero_coefficients_stored():
    p = LaurentPoly({2: 1}) - LaurentPoly({2: 1}) + LaurentPoly({0: 3})
    assert set(p.terms) == {0}
    assert not (Q(1) - Q(1))


# -------------------------------------------------------- exact division

def test_divide_exact_examples():
    mu = Q(1) - Q(-1)
    assert divide_exact(Q(2) - Q(-2), mu) == LaurentPoly({1: 1, -1: 1})
    assert divide_exact(mu, mu) == ONE
    # (q^(x-2) - q^(2-x)) / (q - q^-1) at x = 5 is [3]_q
    assert divide_exact(Q(3) - Q(-3), mu) == LaurentPoly({2: 1, 0: 1, -2: 1})


def test_divide_exact_roundtrip_random():
    rng = random.Random(5)
    done = 0
    while done < 100:
        a, b = rand_poly(rng), rand_poly(rng)
        if not a or not b:
            continue
        assert divide_exact(a * b, b) == a
        done += 1


def test_divide_exact_rejects_inexact():
    with pytest.raises(ExactDivisionError):
        divide_exact(Q(1) + ONE, Q(1) - Q(-1))
    with pytest.raises(ExactDivisionError):
        divide_exact(ONE, LaurentPoly.zero())


# ------------------------------------------------------- roots of unity

def test_cyclotomic_small():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_split_builds_each_phi_as_the_reference():
    # q^m - 1 = prod_{d | m} Phi_d, so its split names every Phi_d once
    for m in range(1, 61):
        factors, rest = _cyclotomic_split((-1,) + (0,) * (m - 1) + (1,))
        assert factors == tuple((cyclotomic(d), 1) for d in range(1, m + 1) if m % d == 0), m
        assert rest == (1,), m


def test_vanishes_examples():
    assert vanishes_at_root_of_unity(Q(2) - Q(-2), 4) is True
    # at a primitive cube root w: w + w^-1 = -1 != 0
    assert vanishes_at_root_of_unity(Q(1) + Q(-1), 3) is False
    assert vanishes_at_root_of_unity(LaurentPoly.zero(), 7) is True


def test_vanishes_with_positive_valuation():
    # the unit q^3 changes nothing at a root of unity
    assert vanishes_at_root_of_unity(Q(3) * (Q(2) + ONE), 4) is True
    assert vanishes_at_root_of_unity(Q(3) * (Q(2) + ONE), 3) is False


def test_laurent_gcd_is_monic_with_valuation_zero():
    zero = LaurentPoly.zero()
    assert laurent_gcd(zero, zero) == zero
    p = Q(3) * LaurentPoly.const(2) + Q(4) * LaurentPoly.const(4)
    monic = LaurentPoly({0: Fraction(1, 2), 1: 1})
    assert laurent_gcd(zero, p) == monic
    assert laurent_gcd(p, zero) == monic
    assert laurent_gcd(Q(-2) * (Q(2) - ONE), Q(5) * (Q(1) - ONE)) == Q(1) - ONE


def test_vanishes_qm_minus_one():
    for m in range(1, 13):
        assert vanishes_at_root_of_unity(Q(m) - ONE, m) is True


def test_vanishes_against_numeric_oracle():
    # independent check: evaluate at every primitive m-th root numerically
    import cmath
    from math import gcd

    rng = random.Random(99)
    polys = [rand_poly(rng) for _ in range(20)] + [q_int(n) for n in range(1, 7)]
    for p in polys:
        for m in range(1, 9):
            num = all(
                abs(sum(complex(c) * cmath.exp(2j * cmath.pi * k / m) ** e
                        for e, c in p.terms.items())) < 1e-9
                for k in range(m) if gcd(k, m) == 1
            )
            assert vanishes_at_root_of_unity(p, m) == num, (p, m)


def test_vanishes_agrees_with_the_division_oracle():
    # seeded corpus: int and Fraction coefficients, negative exponents,
    # every order 1..60, and multiples of Phi_k (k = m or not) shifted by q^s
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    for _ in range(1000):
        m = rng.randint(1, 60)
        if rng.random() < 0.5:
            p = rand_poly(rng, span=40, nterms=6)
        else:
            p = LaurentPoly({rng.randint(-40, 40): rng.randint(-9, 9) for _ in range(6)})
        if rng.random() < 0.6:
            k = m if rng.random() < 0.7 else rng.randint(1, 60)
            p = p * LaurentPoly(dict(enumerate(cyclotomic(k)))) * Q(rng.randint(-50, 50))
        got = vanishes_at_root_of_unity(p, m)
        assert got == vanishes_by_division(p, m), (p, m)
        verdicts[got] += 1
    assert min(verdicts.values()) >= 100, verdicts
    big = q_int(4998)  # vanishes at the primitive m-th roots of unity for m | 9996, m >= 3
    for p, m, expected in ((big, 9996, True), (big + ONE, 9996, False)):
        assert vanishes_at_root_of_unity(p, m) == vanishes_by_division(p, m) == expected
    with pytest.raises(ValueError):
        vanishes_at_root_of_unity(ONE, 0)


# ------------------------------------------------------ text/JSON forms

def test_str_canonical():
    assert str(LaurentPoly.zero()) == "0"
    assert str(q_int(2)) == "q + q^-1"
    assert str(q_int(3)) == "q^2 + 1 + q^-2"
    assert str(LaurentPoly({1: -1, -1: 1})) == "-q + q^-1"
    assert str(LaurentPoly({2: Fraction(3, 2), 0: -1})) == "3/2*q^2 - 1"


# -------------------------------------------------------- fraction field

def test_ratq_normalization():
    mu = Q(1) - Q(-1)
    x = RatQ(q_int(2) * mu, mu)
    assert x.is_laurent() and x.to_laurent() == q_int(2)
    # unit denominators are absorbed
    y = RatQ(ONE, Q(3) * LaurentPoly.const(2))
    assert y.is_laurent() and y.to_laurent() == LaurentPoly({-3: Fraction(1, 2)})


def test_ratq_field_axioms_random():
    rng = random.Random(13)
    done = 0
    while done < 100:
        a, b, c, d = (rand_poly(rng) for _ in range(4))
        if not b or not d:
            continue
        x, y = RatQ(a, b), RatQ(c, d)
        assert x + y == y + x
        assert x * y == y * x
        if y:
            assert (x / y) * y == x
        assert x * (RatQ.one() + y) == x + x * y
        done += 1


def test_ratq_denominator_canonical():
    mu = Q(1) - Q(-1)
    x = RatQ(ONE, mu)
    # canonical denominator is monic in q with nonzero constant term
    assert x.den == LaurentPoly({2: 1, 0: -1})
    assert x.num == Q(1)
    assert str(x) == "(q)/(q^2 - 1)"


# ---------------------------------------------------------- coercion

def test_laurent_mixed_operands_agree_with_ratq():
    ops = {
        "==": lambda a, b: a == b,
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
    }
    polys = [LaurentPoly.const(Fraction(1, 2)), Q(1) - 2, LaurentPoly.const(3)]
    others = polys + [3, Fraction(1, 2), RatQ(Q(1), Q(1) + 1), RatQ(3)]
    for p in polys:
        for other in others:
            for name, f in ops.items():
                for a, b in ((p, other), (other, p)):
                    got = f(a, b)
                    want = f(as_ratq(a), as_ratq(b))
                    if name == "==":
                        assert got is want, (a, name, b)
                        if got:
                            assert hash(a) == hash(b), (a, b)
                        continue
                    assert as_ratq(got) == want, (a, name, b)
                    assert isinstance(got, RatQ if isinstance(other, RatQ) else LaurentPoly)


def test_equal_scalars_hash_alike():
    assert len({LaurentPoly.const(2), 2, RatQ(2), Fraction(2)}) == 1
    assert len({LaurentPoly.zero(), 0, RatQ(0)}) == 1
    half = Fraction(1, 2)
    assert hash(LaurentPoly.const(half)) == hash(half) == hash(RatQ(half))
    # x/1 hashes as x, also when it came out of a division
    p = Q(1) - 2
    assert RatQ(p * (Q(1) + 1), Q(1) + 1) == p
    assert hash(RatQ(p * (Q(1) + 1), Q(1) + 1)) == hash(p)
    assert hash(RatQ(1, Q(1))) == hash(Q(-1))


def test_scalar_coercions_reject_foreign_types():
    for bad in (1.5, 0.0, "1", None):
        with pytest.raises(TypeError):
            as_laurent(bad)
        with pytest.raises(TypeError):
            as_ratq(bad)
        with pytest.raises(TypeError):
            LaurentPoly({0: bad})
    for x in (Q(1), RatQ(Q(1), Q(1) + 1)):
        for op in ("__eq__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            assert getattr(x, op)(1.5) is NotImplemented, op
    with pytest.raises(TypeError):
        Q(1) * 1.5
    with pytest.raises(TypeError):
        1.5 - RatQ(1)


def test_ratq_without_denominator_keeps_the_numerator():
    p = Q(2) - Fraction(1, 3)
    assert RatQ(p).num is p and RatQ(p).den == ONE
    assert RatQ(Fraction(2, 3)).num == LaurentPoly.const(Fraction(2, 3))
    assert as_ratq(p) == RatQ(p, ONE) and as_ratq(RatQ(p)) == RatQ(p)


# ------------------------------------------------ pinned scalar output


def _corpus_poly(rng, integral):
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            c = rng.randint(-5, 5) if integral else Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            terms[rng.randint(-3, 3)] = c
        p = LaurentPoly(terms)
        if p:
            return p


def _corpus_den(rng):
    """A non-unit denominator, non-monic half of the time, like 2q + 1 or 3q^2 - 1."""
    lead = rng.choice((1, 2, 3, -2, Fraction(1, 2), Fraction(-3, 4)))
    return LaurentPoly({rng.randint(1, 3): lead, 0: rng.choice((1, -1, 2, 3))}) * Q(rng.randint(-2, 2))


def scalar_corpus():
    """The results of 3,000 seeded LaurentPoly/RatQ operations, in order.

    Operands are integral half of the time.  The operations cycle through
    + - * neg pow, divide_exact (exact and not), laurent_gcd of polynomials
    with a common factor, RatQ construction over non-unit, non-monic
    denominators, and RatQ + * /.
    """
    rng = random.Random(20261018)
    kinds = ("+", "-", "*", "neg", "pow", "divide_exact", "laurent_gcd",
             "RatQ", "RatQ +", "RatQ *", "RatQ /")
    for i in range(3000):
        kind = kinds[i % len(kinds)]
        a = _corpus_poly(rng, rng.random() < 0.5)
        b = _corpus_poly(rng, rng.random() < 0.5)
        if kind == "+":
            yield a + b
        elif kind == "-":
            yield a - b
        elif kind == "*":
            yield a * b
        elif kind == "neg":
            yield -a
        elif kind == "pow":
            yield a ** rng.randint(0, 3)
        elif kind == "divide_exact":
            if rng.random() < 0.8:
                yield divide_exact(a * b, b)
            else:
                try:
                    yield divide_exact(a + Q(5), _corpus_den(rng))
                except ExactDivisionError:
                    yield "inexact"
        elif kind == "laurent_gcd":
            g = _corpus_poly(rng, rng.random() < 0.5)
            yield laurent_gcd(a * g, b * g)
        elif kind == "RatQ":
            g = _corpus_den(rng) if rng.random() < 0.5 else ONE
            yield RatQ(a * g, _corpus_den(rng) * g)
        else:
            x = RatQ(a, _corpus_den(rng))
            y = RatQ(b, _corpus_den(rng) if rng.random() < 0.5 else ONE)
            yield x + y if kind == "RatQ +" else x * y if kind == "RatQ *" else x / y


def terms_json(p):
    """The terms of p as exact JSON records, highest exponent first."""
    return json.dumps([
        {"exp": k, "num": str(p.terms[k].numerator), "den": str(p.terms[k].denominator)}
        for k in sorted(p.terms, reverse=True)
    ])


def scalar_corpus_digest():
    h = hashlib.sha256()
    for x in scalar_corpus():
        if isinstance(x, RatQ):
            x = "%s %s %s" % (x, terms_json(x.num), terms_json(x.den))
        elif isinstance(x, LaurentPoly):
            x = "%s %s" % (x, terms_json(x))
        h.update(x.encode() + b"\n")
    return h.hexdigest()


def test_scalar_corpus_output_is_pinned():
    # taken with Fraction coefficients throughout, before the integer-first representation
    assert scalar_corpus_digest() == (
        "ebb4116531b0f3c8f46806861db6331cb061ea6b241fe0c8950e246d55bdf095"
    )


# --------------------------------------------- the coefficient invariant


def _exact_coefficients(*polys):
    """Every coefficient is an int or a Fraction, never a float or a bool,
    and an integral value is an int."""
    for p in polys:
        for c in p.terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (p, c)
    return True


def test_coefficients_are_int_or_non_integral_fraction():
    assert LaurentPoly({0: True}).terms == {0: 1} and _exact_coefficients(LaurentPoly({0: True}))
    two = LaurentPoly({0: Fraction(4, 2)})
    assert type(two.terms[0]) is int and two.terms[0] == 2
    mu = Q(1) - Q(-1)
    assert _exact_coefficients(
        ONE, Q(3), LaurentPoly.const(Fraction(1, 2)), q_int(4), (Q(1) * 2 - Q(-1)) ** 3,
        divide_exact(Q(2) - Q(-2), mu),
        divide_exact((Q(1) * 2 + 1) * (Q(2) * 3 - 1), Q(1) * 2 + 1),
        divide_exact(LaurentPoly({1: Fraction(1, 2), 0: Fraction(3, 4)}), Q(1) * 2 + 3),
        laurent_gcd((Q(1) * 2 + 1) * mu, (Q(1) * 2 + 1) * (Q(1) + 3)),
        laurent_gcd(Q(2) * 3 - 3, Q(1) * 6 - 6),
        LaurentPoly({2: Fraction(4, 2), 0: Fraction(-3, 4), -1: 1}),
        LaurentPoly({1: Fraction(6, 3), 0: Fraction(1, 2)}),
    )
    assert LaurentPoly({1: Fraction(6, 3)}).terms == {1: 2}
    for den in (Q(1) * 2 + 1, Q(2) * 3 - 1, Q(1) * Fraction(1, 2) - 2, Q(3) * -2):
        for num in (ONE, Q(2) * 4 - Q(-1) * 6, LaurentPoly.const(Fraction(3, 2)) + Q(1), den * (Q(1) - 5)):
            x = RatQ(num, den)
            assert _exact_coefficients(x.num, x.den), (num, den)
            y = RatQ(Q(1) + 2, Q(2) * 3 - 1)
            for z in (x + y, x * y, x / y, y / x, x - y):
                assert _exact_coefficients(z.num, z.den), (x, y, z)


# ------------------------------------- cancellation against Euclid over Q


def reference_ratq(num, den):
    """num/den in lowest terms by Euclid: (num, den), den monic with valuation 0."""
    if not num:
        return LaurentPoly.zero(), ONE
    g = laurent_gcd(num, den)
    num, den = divide_exact(num, g), divide_exact(den, g)
    unit = LaurentPoly({-den.valuation: Fraction(1) / den.terms[den.degree]})
    return num * unit, den * unit


def _product(factors):
    out = ONE
    for f in factors:
        out = out * f
    return out


# Products of q-integers, whose factors are cyclotomic, and factors that are not
# (q^2 - q + 1 is Phi_6 alone, beyond the orders the cyclotomic split tries).
CYCLOTOMIC_FACTORS = [q_int(n) for n in range(2, 7)] + [
    q_factorial((3, 0, 2, 1)), Q(1) - Q(-1), Q(1) + Q(-1), Q(1) - ONE,
]
OTHER_FACTORS = [
    Q(1) * 2 + 1, Q(2) + Q(1) - 1, Q(2) - Q(1) + 1,
    LaurentPoly({1: Fraction(1, 2), 0: Fraction(-3, 4)}), LaurentPoly({2: Fraction(2, 3), 0: 5}),
]


def ratq_corpus():
    """Seeded (num, den) pairs: q-integer denominators with repeated factors,
    times other factors and a unit; numerators zero, monomials, Fraction
    polynomials and multiples of the factors, some held more often than
    the denominator holds them."""
    rng = random.Random(20261019)
    for i in range(400):
        cyclo = [rng.choice(CYCLOTOMIC_FACTORS) for _ in range(rng.randint(0, 3))]
        other = [rng.choice(OTHER_FACTORS) for _ in range(rng.randint(0, 2))]
        unit = LaurentPoly({rng.randint(-3, 3): rng.choice((1, -2, Fraction(3, 2)))})
        den = _product(cyclo + other) * unit
        kind = i % 4
        if kind == 0:
            num = LaurentPoly.zero()
        elif kind == 1:
            num = LaurentPoly({rng.randint(-4, 4): rng.choice((1, -3, Fraction(-2, 5)))})
        elif kind == 2:
            num = _corpus_poly(rng, False)
        else:
            pool = cyclo + cyclo + other + CYCLOTOMIC_FACTORS[:3] + OTHER_FACTORS[:2]
            shared = rng.sample(pool, rng.randint(1, min(4, len(pool))))
            num = _product(shared) * _corpus_poly(rng, rng.random() < 0.5)
        yield num, den


def test_ratq_cancellation_matches_euclid():
    for num, den in ratq_corpus():
        x = RatQ(num, den)
        n, d = reference_ratq(num, den)
        assert (x.num, x.den) == (n, d), (num, den)
        assert terms_json(x.num) == terms_json(n) and terms_json(x.den) == terms_json(d)
        assert str(x) == (str(n) if d == ONE else "(%s)/(%s)" % (n, d))
        assert _exact_coefficients(x.num, x.den), (num, den)


# ------------------------------------ fractions over canonical denominators


def test_over_a_canonical_denominator_matches_the_constructor():
    # the corpus's denominators made canonical: q-integer products, 2q + 1 and
    # other non-cyclotomic factors; zero, monomial, int and Fraction numerators
    for num, den in ratq_corpus():
        den = RatQ(ONE, den).den
        assert is_canonical(den), den
        x, y = RatQ._over(num, den), RatQ(num, den)
        assert (x.num.terms, x.den.terms) == (y.num.terms, y.den.terms), (num, den)
        assert str(x) == str(y)


def test_sums_and_products_over_canonical_denominators_are_in_lowest_terms(monkeypatch):
    rng = random.Random(20261020)
    xs = [RatQ(num, den) for num, den in ratq_corpus()]
    seen = require_canonical_denominators(monkeypatch)
    for x in xs[::5]:
        y = rng.choice(xs)
        for got, num, den in ((x + y, x.num * y.den + y.num * x.den, x.den * y.den),
                              (x - y, x.num * y.den - y.num * x.den, x.den * y.den),
                              (x * y, x.num * y.num, x.den * y.den)):
            assert (got.num, got.den) == reference_ratq(num, den), (x, y)
        if y:
            q = x / y
            assert (q.num, q.den) == reference_ratq(x.num * y.den, x.den * y.num), (x, y)
        assert is_canonical((-x).den)
    assert len(seen) > len(xs) // 5


# ------------------------------------------- products with a unit or a monomial


def laurent_product_corpus(seed=2029):
    """Pairs of Laurent polynomials: a one-term factor on either side of a
    many-term one, two many-term factors, and zero; int and Fraction
    coefficients, exponents of both signs."""
    rng = random.Random(seed)

    def coefficient():
        if rng.random() < 0.5:
            return rng.choice((-3, -1, 1, 2, 5))
        return Fraction(rng.choice((-5, -1, 1, 3)), rng.randint(2, 4))

    def poly(nterms):
        return LaurentPoly({rng.randint(-6, 6): coefficient() for _ in range(nterms)})

    pairs = [(LaurentPoly.zero(), poly(3)), (poly(1), LaurentPoly.zero()),
             (LaurentPoly.zero(), LaurentPoly.zero()), (ONE, ONE)]
    for _ in range(150):
        one_term, many = poly(1), poly(rng.randint(2, 7))
        pairs += [(one_term, many), (many, one_term), (one_term, poly(1)),
                  (poly(rng.randint(2, 5)), poly(rng.randint(2, 5)))]
    return pairs


def test_laurent_products_match_the_term_by_term_reference():
    pairs = laurent_product_corpus()
    assert sum(len(a.terms) == 1 or len(b.terms) == 1 for a, b in pairs) > 300
    assert any(isinstance(c, Fraction) for a, _ in pairs for c in a.terms.values())
    for a, b in pairs:
        got = a * b
        assert got.terms == laurent_product(a, b), (a, b)
        assert 0 not in got.terms.values()
        assert str(got) == str(LaurentPoly._make(laurent_product(a, b)))


def test_products_of_fractions_over_one_match_the_canceling_product():
    for a, b in laurent_product_corpus()[::3]:
        got = RatQ(a) * RatQ(b)
        want = RatQ._over(LaurentPoly._make(laurent_product(a, b)), ONE)
        assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms), (a, b)
        assert got.den.terms == {0: 1} and got == a * b


def test_the_unit_fraction_is_shared_and_unchanged_by_use():
    one = RatQ.one()
    assert one is RatQ.one() and (one.num.terms, one.den.terms) == ({0: 1}, {0: 1})
    x = RatQ(Q(1) + 2, Q(2) + ONE)
    assert one * x == x == x * one and one + x == x + 1
    assert (one.num.terms, one.den.terms) == ({0: 1}, {0: 1})


def test_q_integer_memos_are_bounded():
    for memo in (q_int, q_rising):
        assert memo.cache_info().maxsize == 4096
