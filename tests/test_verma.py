import random

import pytest

from quadalg import verma
from quadalg.lin import add_into
from quadalg.ring import LaurentPoly, RatQ, q_int, vanishes_at_root_of_unity
from quadalg.uq import BETA, MU, NU, UqElement, serre_reduce, straighten_word, w_gen
from quadalg.verma import (
    CONVENTIONS,
    SingularReport,
    VermaVector,
    act,
    apply_element,
    scan_singular,
    singular_candidate_plus,
    singular_test,
)

from oracles import expected_beta_obstruction

Q = LaurentPoly.q
ONE = LaurentPoly.one()

V = VermaVector.highest_weight()


# -------------------------------------------------------------- action

def test_raising_kills_highest_weight():
    w = (1, 0, 3)
    for g in ("Em", "En", "Eb"):
        assert act(g, V, w, "twisted") == VermaVector.zero()


def test_eb_on_fb_v():
    # E_beta F_beta v = -[x]_q v under the twisted convention
    for x in range(5):
        w = (1, 0, x)
        fb_v = act("Fb", V, w, "twisted")
        assert fb_v == VermaVector({(BETA,): RatQ.one()})
        got = act("Eb", fb_v, w, "twisted")
        assert got == VermaVector({(): -RatQ(q_int(x))}), x


def test_kb_on_fmu_v():
    # K_beta F_mu v = q^(1-x) F_mu v (twisted)
    x = 4
    w = (1, 0, x)
    fm_v = act("Fm", V, w, "twisted")
    got = act("Kb", fm_v, w, "twisted")
    assert got == VermaVector({(MU,): RatQ(Q(1 - x))})


def test_weight_bookkeeping_two_ways():
    # straightening vs additive root bookkeeping on K-weights, degree <= 4
    from itertools import product

    w = (2, -1, 3)
    pair = {  # (letter index) -> Cartan pairing row (mu, nu, beta)
        MU: (2, 0, -1),
        NU: (0, 2, -1),
        BETA: (-1, -1, 2),
    }
    for n in range(5):
        for word in product((MU, NU, BETA), repeat=n):
            el = UqElement.one()
            for i in word:
                el = el * UqElement.f_gen(i)
            vec = apply_element(el, V, w, "twisted")
            if not vec:
                continue
            for kname, kidx in (("Km", 0), ("Kn", 1), ("Kb", 2)):
                got = act(kname, vec, w, "twisted")
                # additive bookkeeping: conjugating K past each letter
                shift = -sum(pair[i][kidx] for i in word)
                base = -w[kidx]
                expected = vec.scale(Q(shift + base))
                assert got == expected, (word, kname)


def straightened_apply(element, v, weight, convention):
    """The oracle: straighten element * F_w for each word w of v, then let
    the raising letters kill v and the Cartan monomial scale it."""
    out = VermaVector.zero()
    for word, c in v.terms.items():
        lowered = element * UqElement({(word, (0, 0, 0), ()): RatQ.one()})
        terms = {}
        for (fw, kexp, ew), d in lowered.terms.items():
            if not ew:
                e = CONVENTIONS[convention] * sum(k * c for k, c in zip(kexp, weight))
                add_into(terms, fw, d * RatQ(Q(e)))
        out = out + VermaVector(terms).scale(c)
    return out


def _random_symbols(rng, n):
    out = []
    for _ in range(n):
        kind, i = rng.choice("FEK"), rng.randrange(3)
        out.append((kind, i, rng.choice((-1, 1, 2))) if kind == "K" else (kind, i))
    return out


def test_apply_element_matches_the_straightening_oracle():
    rng = random.Random(41)
    nonzero = 0
    for _ in range(150):
        element = UqElement.zero()
        for _ in range(rng.randint(1, 2)):
            element = element + straighten_word(_random_symbols(rng, rng.randint(0, 5)),
                                                RatQ(Q(rng.randint(-2, 2)) * rng.choice((-2, 1, 3))))
        words = {tuple(rng.randrange(3) for _ in range(rng.randint(0, 4))): RatQ(Q(rng.randint(-2, 2)))
                 for _ in range(rng.randint(1, 3))}
        v = VermaVector(serre_reduce(words))
        weight = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        convention = rng.choice(list(CONVENTIONS))
        got = apply_element(element, v, weight, convention)
        assert got == straightened_apply(element, v, weight, convention), (element, v, weight)
        nonzero += bool(got)
    assert nonzero > 100


def signed_q_int(n):
    return q_int(n) if n >= 0 else -q_int(-n)


def test_raising_moves_past_other_letters_with_the_cartan_shift():
    # E_mu F_mu F_beta F_mu v = [s1]_q F_beta F_mu v + [s3]_q F_mu F_beta v:
    # s3 is the K_mu exponent k on v, and s1 = k - (a_mu, a_beta) - (a_mu, a_mu) = k - 1
    w = (2, -1, 3)
    v = VermaVector(serre_reduce({(MU, BETA, MU): RatQ.one()}))
    for convention, k in (("twisted", -2), ("plain", 2)):
        expected = serre_reduce({(BETA, MU): signed_q_int(k - 1), (MU, BETA): signed_q_int(k)})
        assert act("Em", v, w, convention) == VermaVector(expected), convention


def test_plain_convention_sign():
    x = 3
    w = (1, 0, x)
    fb_v = act("Fb", V, w, convention="plain")
    got = act("Eb", fb_v, w, convention="plain")
    assert got == VermaVector({(): RatQ(q_int(x))})


# ------------------------------------------------------- singular scan

def test_candidate_form():
    u0 = singular_candidate_plus()
    assert u0 == w_gen(2) - (w_gen(1) * UqElement.f_gen(MU)).scale(Q(-1))


def test_e_nu_and_e_mu_squared_vanish_for_all_x():
    u0 = singular_candidate_plus()
    for x in range(7):
        r = singular_test(u0, x, "twisted")
        assert r.e_nu == VermaVector.zero(), x
        assert r.e_mu_sq == VermaVector.zero(), x
        # first raising step is (q + q^-1) w1 v, never zero
        assert r.e_mu == VermaVector({(BETA,): RatQ(q_int(2))}), x


def test_beta_obstruction_is_qint_x_minus_2():
    u0 = singular_candidate_plus()
    for x in range(7):
        r = singular_test(u0, x, "twisted")
        expected = expected_beta_obstruction(x)
        if x == 2:
            assert r.vanishes_generically
            assert not expected
        else:
            assert r.e_beta == VermaVector({(MU,): RatQ(expected)}), x


def test_generic_vanishing_only_at_x_2():
    u0 = singular_candidate_plus()
    _, vanishing = scan_singular(u0, range(7), "twisted")
    assert vanishing == [2]


def test_root_of_unity_orders_exact_characterization():
    # for x != 2: the obstruction vanishes at a primitive m-th root of
    # unity iff m divides 2x - 4 and m >= 3 (q = +-1 are classical points)
    u0 = singular_candidate_plus()
    for x in range(7):
        if x == 2:
            continue
        r = singular_test(u0, x, "twisted")
        modulus = abs(2 * x - 4)
        expected = tuple(m for m in range(1, 15) if m >= 3 and modulus % m == 0)
        assert r.root_of_unity_orders == expected, (x, r.root_of_unity_orders)


def test_plain_convention_obstruction():
    # plain convention shifts the condition to q^(2x+4) = 1
    u0 = singular_candidate_plus()
    for x in range(4):
        r = singular_test(u0, x, convention="plain")
        assert not r.vanishes_generically
        assert r.e_beta == VermaVector({(MU,): RatQ(expected_beta_obstruction(x, "plain"))})
        coeff = -expected_beta_obstruction(x, "plain")
        assert vanishes_at_root_of_unity(coeff, 2 * x + 4) == (2 * x + 4 >= 3)


def test_scan_reads_every_order_to_max_order_and_the_divisors_of_the_modulus(monkeypatch):
    u0 = singular_candidate_plus()
    scanned = set()

    def spy(p, m):
        scanned.add(m)
        return vanishes_at_root_of_unity(p, m)

    monkeypatch.setattr(verma, "vanishes_at_root_of_unity", spy)
    assert verma.MAX_ORDER == 12
    singular_test.cache_clear()
    singular_test(u0, 5, "twisted")
    assert scanned == set(range(1, 13))
    scanned.clear()
    singular_test.cache_clear()
    r = singular_test(u0, 10, "twisted")
    assert scanned == set(range(1, 13)) | {16}  # 16 = 2*10 - 4
    assert r.root_of_unity_orders == (4, 8, 16)


def test_deep_scan_matches_the_predicted_obstruction():
    u0 = singular_candidate_plus()
    for convention, expected_x in (("twisted", 2), ("plain", -2)):
        reports, vanishing = scan_singular(u0, range(-20, 41), convention)
        assert vanishing == [expected_x], convention
        for r in reports:
            expected = expected_beta_obstruction(r.x, convention)
            assert bool(expected) == (r.x != expected_x), (convention, r.x)
            assert r.e_beta == VermaVector({(MU,): RatQ(expected)}), (convention, r.x)
            assert not r.e_nu and not r.e_mu_sq, (convention, r.x)


def test_weight_and_report_are_plain_values():
    u0 = singular_candidate_plus()
    a, b = singular_test(u0, 2, "twisted"), singular_test(u0, 2, "twisted")
    assert a == b and a != singular_test(u0, 3, "twisted")
    with pytest.raises(AttributeError):
        b.root_of_unity_orders = (5,)
    with pytest.raises(AttributeError):
        del b.e_beta
    fields = dict(b._asdict(), root_of_unity_orders=(5,))
    assert a != SingularReport(**fields) and a == SingularReport(**b._asdict())


def test_each_report_is_built_once_per_weight():
    singular_test.cache_clear()
    u0 = singular_candidate_plus()
    reports, _ = scan_singular(u0, range(7), "twisted")
    again, _ = scan_singular(singular_candidate_plus(), range(7), "twisted")
    assert all(a is b for a, b in zip(reports, again))
    assert singular_test(u0, 3, "twisted") is reports[3]
    info = singular_test.cache_info()
    assert (info.misses, info.maxsize) == (7, 128)
    assert singular_test(u0, 3, "plain") is not reports[3]


def test_x_beyond_the_ceiling_is_refused_before_any_report_is_built():
    u0 = singular_candidate_plus()
    assert verma.MAX_ABS_X == 10_000
    for x in (10_001, -10_001):
        with pytest.raises(ValueError, match="10000"):
            singular_test(u0, x, "twisted")
    singular_test.cache_clear()
    with pytest.raises(ValueError, match="10000"):
        scan_singular(u0, range(0, 10_002), "twisted")
    assert singular_test.cache_info().currsize == 0
