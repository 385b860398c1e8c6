import hashlib
import importlib.util
import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import permutations, product
from math import factorial

import pytest

import quadalg
from quadalg import uq
from quadalg.aq import AqElement, relation_pairs
from quadalg.lin import add_into, add_scaled, rewrite
from quadalg.ring import LaurentPoly, RatQ, all_indices, indices_up_to, mi_degree
from quadalg.uq import (
    BETA,
    MU,
    NU,
    UqElement,
    component,
    graded_dimension,
    serre_reduce,
    star_act,
    straighten_word,
    w_embed,
    w_gen,
    words_of_content,
)

from hopf_oracle import (
    NotInWSpanError,
    antipode,
    coproduct,
    coproduct_pairs,
    counit,
    hopf_star_act,
    w_decompose,
)

Q = LaurentPoly.q
ONE = LaurentPoly.one()
MU_POLY = Q(1) - Q(-1)
INV_MU = RatQ(ONE, MU_POLY)

Fm, Fn, Fb = (UqElement.f_gen(i) for i in (MU, NU, BETA))
Em, En, Eb = (UqElement.e_gen(i) for i in (MU, NU, BETA))

w1, w2, w3, w4 = (AqElement.generator(i) for i in (1, 2, 3, 4))


def series_dims(maxd):
    # coefficients of 1/((1-t)^3 (1-t^2)^2 (1-t^3)), computed from scratch
    coeffs = [1] + [0] * maxd
    for height, mult in ((1, 3), (2, 2), (3, 1)):
        for _ in range(mult):
            for i in range(height, maxd + 1):
                coeffs[i] += coeffs[i - height]
    return coeffs


# ------------------------------------------------------ Serre reduction

def test_serre_relation_reduces_to_zero():
    two = Q(1) + Q(-1)
    el = {(NU, NU, BETA): RatQ.one(), (NU, BETA, NU): -RatQ(two), (BETA, NU, NU): RatQ.one()}
    assert serre_reduce(el) == {}


def ratio(a, b):
    """The scalar r with a == r * b, or None when there is none."""
    if set(a) != set(b):
        return None
    ratios = {RatQ(a[w]) / RatQ(b[w]) for w in a}
    return ratios.pop() if len(ratios) == 1 else None


def test_no_two_serre_relations_are_proportional():
    rels = uq.serre_relations()
    for i, a in enumerate(rels):
        for b in rels[i + 1:]:
            assert ratio(a, b) is None, (a, b)
    assert ratio(rels[0], {w: -c for w, c in rels[0].items()}) == RatQ(-1)


def test_mu_nu_commute():
    assert serre_reduce({(NU, MU): RatQ.one(), (MU, NU): -RatQ.one()}) == {}


def test_degree_one_is_free():
    got = serre_reduce({(BETA,): RatQ.one()})
    assert got == {(BETA,): RatQ.one()}


def test_graded_dimensions():
    assert [graded_dimension(d) for d in range(4)] == [1, 3, 8, 17]
    oracle = series_dims(6)
    assert [graded_dimension(d) for d in range(7)] == oracle
    assert oracle == [1, 3, 8, 17, 33, 58, 97]


def test_graded_dimensions_in_one_pass_match_the_generating_function():
    dims = uq.graded_dimensions(400)
    assert dims == series_dims(400)
    assert graded_dimension(37) == dims[37]
    with pytest.raises(ValueError):
        uq.graded_dimensions(-1)


def test_graded_dimensions_count_irreducible_words_without_components():
    before = component.cache_info().misses
    assert [graded_dimension(d) for d in range(15)] == series_dims(14)
    assert graded_dimension(12) == 930
    assert component.cache_info().misses == before


# ------------------------------------------------- row-reduction oracle
#
# The ideal at a multidegree spanned by all products u * r * v of a
# Serre relation r and row-reduced into an echelon: the construction the
# rewriting engine replaced, kept here as its oracle.  It shares only
# ``serre_relations`` with the engine.


class Echelon:
    """Reduced row echelon rows over Q(q).

    Every row has coefficient 1 at its pivot, its lexicographically
    largest word, and holds no other row's pivot word.
    """

    def __init__(self):
        self.pivots = {}  # pivot word -> {word: scalar} with pivot coeff 1

    def reduce(self, vec):
        """Canonical coset representative of a coefficient vector."""
        vec = {w: c for w, c in vec.items() if c}
        for p in sorted((w for w in vec if w in self.pivots), reverse=True):
            c = vec.get(p)
            if c:
                add_scaled(vec, self.pivots[p], -c)  # clears p, whose row has 1 there
        return vec

    def insert(self, vec):
        """Add ``vec`` as a row; its pivot, or None if it reduced to 0."""
        row = self.reduce(vec)
        if not row:
            return None
        pivot = max(row)
        inv = 1 / row[pivot]
        row = {w: c * inv for w, c in row.items()}
        for r in self.pivots.values():  # back-substitute into the existing rows
            c = r.get(pivot)
            if c:
                add_scaled(r, row, -c)
        self.pivots[pivot] = row
        return pivot


def _subcontents(content, size):
    a, b, c = content
    out = []
    for x in range(min(a, size) + 1):
        for y in range(min(b, size - x) + 1):
            z = size - x - y
            if z <= c:
                out.append((x, y, z))
    return out


def _all_words(content):
    letters = [x for x, n in enumerate(content) for _ in range(n)]
    return tuple(sorted(set(permutations(letters))))


@lru_cache(maxsize=None)
def oracle_component(content):
    """(basis, echelon) of the ideal at ``content``, by u * r * v row reduction."""
    ech = Echelon()
    for rel in uq.serre_relations():
        rc = uq.word_content(next(iter(rel)))
        rest = tuple(c - r for c, r in zip(content, rc))
        if any(x < 0 for x in rest):
            continue
        for ulen in range(sum(rest) + 1):
            for usub in _subcontents(rest, ulen):
                vsub = tuple(r - u for r, u in zip(rest, usub))
                for u in _all_words(usub):
                    for v in _all_words(vsub):
                        ech.insert({u + w + v: RatQ(c) for w, c in rel.items()})
    basis = tuple(w for w in _all_words(content) if w not in ech.pivots)
    return basis, ech


def component_pivots(content):
    """The rows w - NF(w) of the words of ``content`` outside its basis, keyed by w."""
    return {w: {w: ONE, **{x: -c for x, c in nf.items()}}
            for w in words_of_content(content) if (nf := uq._normal_form(w)) is not None}


def component_digest(max_degree):
    """sha256 of every component's basis and pivot rows through ``max_degree``."""
    h = hashlib.sha256()
    for content in contents_up_to(max_degree):
        h.update(repr((content, component(content).basis)).encode())
        pivots = component_pivots(content)
        for p in sorted(pivots):
            h.update(repr((p, sorted((w, str(c)) for w, c in pivots[p].items()))).encode())
    return h.hexdigest()


def test_components_match_the_row_reduction_oracle():
    for content in contents_up_to(6):
        pivots = component_pivots(content)
        basis, ech = oracle_component(content)
        assert component(content).basis == basis, content
        assert set(pivots) == set(ech.pivots), content
        for p, row in ech.pivots.items():
            assert pivots[p] == row, (content, p)
            assert {w: str(c) for w, c in pivots[p].items()} == {
                w: str(c) for w, c in row.items()
            }


def test_component_digest_through_degree_7_is_pinned():
    # taken from the u * r * v row reduction through degree 7
    assert component_digest(7) == (
        "c335ec855864a1a4183077af72e590e917a978b089ba711ea757981ad3540b65"
    )


def test_component_digest_through_degree_8_is_pinned():
    # taken with Fraction coefficients, before the integer-first representation
    assert component_digest(8) == (
        "4dbfdd0c90747cd5b1198f47b8e502f68d1caf279e4a10d457e7595a7539102e"
    )


def test_components_hold_one_row_per_non_basis_word():
    for content in contents_up_to(6):
        comp, pivots = component(content), component_pivots(content)
        words = set(words_of_content(content))
        assert set(pivots) == words - set(comp.basis), content
        assert len(pivots) + comp.dimension == len(words), content


def test_rules_are_integral_and_hold_in_the_oracle():
    two = Q(1) + Q(-1)
    leads = list(uq.RULES)
    assert len(leads) == 8
    for lead, rhs in uq.RULES.items():
        # no leading word is a factor of another
        for other in leads:
            if other != lead:
                assert not any(
                    lead[i:i + len(other)] == other for i in range(len(lead))
                ), (lead, other)
        for w, c in rhs.items():
            assert w < lead and uq.word_content(w) == uq.word_content(lead)
            assert c in (ONE, -ONE, two, -two), (lead, w)
        vec = {lead: RatQ.one()}
        for w, c in rhs.items():
            vec[w] = -RatQ(c)
        _, ech = oracle_component(uq.word_content(lead))
        assert ech.reduce(vec) == {}, lead
        assert lead in ech.pivots


def _rewrite_at(word, pos, lead):
    assert word[pos:pos + len(lead)] == lead
    out = {}
    for u, c in uq.RULES[lead].items():
        out[word[:pos] + u + word[pos + len(lead):]] = c
    return out


def test_every_overlap_ambiguity_resolves():
    # diamond lemma: the two one-step rewrites of each overlap agree
    overlaps = [
        (a, b, k)
        for a in uq.RULES for b in uq.RULES
        for k in range(1, min(len(a), len(b)))
        if a[-k:] == b[:k]
    ]
    assert len(overlaps) == 13
    for a, b, k in overlaps:
        word = a + b[k:]
        left = serre_reduce(_rewrite_at(word, 0, a))
        right = serre_reduce(_rewrite_at(word, len(a) - k, b))
        assert left == right, (a, b, k)
        assert left == serre_reduce({word: ONE}), (a, b, k)


# ------------------------------------------------ memoised normal forms


def test_normal_forms_match_the_row_reduction_oracle():
    for content in contents_up_to(6):
        _, ech = oracle_component(content)
        for w in words_of_content(content):
            assert serre_reduce({w: 1}) == ech.reduce({w: RatQ.one()}), w


def test_non_laurent_coefficients_keep_their_values_and_printed_forms():
    # values and printed forms taken from the echelon query path
    cases = [
        ({(BETA, MU, MU): INV_MU},
         {(MU, MU, BETA): "(-q)/(q^2 - 1)", (MU, BETA, MU): "(q^2 + 1)/(q^2 - 1)"}),
        ({(BETA, MU, BETA, MU, NU): INV_MU, (BETA, NU, BETA, MU): RatQ(Q(3)), (MU, NU): 2},
         {(MU, NU): "2", (MU, NU, BETA, MU, BETA): "(q)/(q^2 - 1)",
          (MU, BETA, MU, NU, BETA): "(-q^2 - 1)/(q^2 - 1)", (MU, BETA, MU, BETA, NU): "(q)/(q^2 - 1)",
          (MU, BETA, NU, BETA): "-q^3", (NU, BETA, MU, BETA): "q^3",
          (NU, BETA, MU, BETA, MU): "(-q)/(q^2 - 1)", (BETA, MU, NU, BETA, MU): "(q^2 + 1)/(q^2 - 1)",
          (BETA, MU, BETA, NU): "q^3"}),
        ({(BETA, BETA, MU, NU, NU): RatQ(Q(2) + 1, Q(1) - 1), (BETA, MU, NU, NU, BETA): INV_MU * INV_MU},
         {(MU, NU, NU, BETA, BETA): "(-q^2 - 1)/(q - 1)",
          (MU, NU, BETA, NU, BETA): "(q^3 + 2*q + q^-1)/(q - 1)",
          (MU, BETA, NU, BETA, NU): "(-q^3 - 2*q - q^-1)/(q - 1)",
          (NU, NU, BETA, MU, BETA): "(q^6 + q^5 + q^4 + q^3 - 2*q^2 - q - 1 - q^-1)/(q^4 - 2*q^2 + 1)",
          (NU, BETA, MU, NU, BETA):
              "(-q^7 - q^6 - 2*q^5 - 2*q^4 + q^3 + 3*q + 2 + q^-1 + q^-2)/(q^4 - 2*q^2 + 1)",
          (BETA, MU, NU, BETA, NU): "(q^4 + 3*q^2 + 3 + q^-2)/(q - 1)"}),
    ]
    for element, want in cases:
        got = serre_reduce(element)
        assert {w: str(c) for w, c in got.items()} == want
        assert all(type(c) is RatQ for c in got.values())
        expected = {}
        for w, c in element.items():
            for x, f in serre_reduce({w: 1}).items():
                add_into(expected, x, f * c)
        assert got == expected


def test_a_component_builds_without_other_components():
    before = component.cache_info()
    comp = component.__wrapped__((2, 3, 4))
    assert comp.dimension == len(comp.basis) > 0
    assert component.cache_info() == before


def normal_form_basis(content):
    """The basis by the normal forms: the words that no rule reduces."""
    return tuple(w for w in words_of_content(content) if uq._normal_form(w) is None)


def test_component_bases_are_the_words_no_rule_reduces():
    for content in contents_up_to(8):
        assert component(content).basis == normal_form_basis(content), content


def test_component_dimensions_sum_to_the_graded_dimensions():
    for d in range(11):
        dims = [component(c).dimension for c in contents_up_to(d) if sum(c) == d]
        assert sum(dims) == graded_dimension(d), d


def test_components_build_no_normal_form_until_their_rows_are_read():
    component.cache_clear()
    uq._normal_form.cache_clear()
    comps = [component(content) for content in contents_up_to(10)]
    assert sum(comp.dimension for comp in comps) == sum(series_dims(10))
    assert uq._normal_form.cache_info().currsize == 0
    assert component_pivots((2, 1, 2)) and uq._normal_form.cache_info().currsize > 0


def test_reading_every_field_of_a_component_builds_no_normal_form():
    component.cache_clear()
    uq._normal_form.cache_clear()
    for content in contents_up_to(10):
        got, basis, dimension = component(content)
        assert (got, dimension) == (content, len(basis)), content
    assert uq._normal_form.cache_info().currsize == 0


def test_basis_pruning_without_any_one_leading_word_is_caught(monkeypatch):
    for dropped in uq.RULES:
        leads = set(uq.RULES) - {dropped}

        def ends_in_kept_lead(w, leads=leads):
            return any(w[-k:] in leads for k in uq._LEAD_LENGTHS)

        monkeypatch.setattr(uq, "_ends_in_lead", ends_in_kept_lead)
        assert any(component.__wrapped__(c).basis != normal_form_basis(c)
                   for c in contents_up_to(8)), dropped


def test_words_of_content_lists_distinct_words_in_lex_order():
    for content in contents_up_to(6):
        assert words_of_content(content) == _all_words(content), content
    words = words_of_content((4, 4, 3))
    assert len(words) == factorial(11) // (factorial(4) ** 2 * factorial(3))
    assert list(words) == sorted(set(words))


# ------------------------------------------------------------- w embed

def test_w_embed_generators():
    assert w_gen(1) == Fb
    assert w_gen(2) == UqElement(
        {((MU, BETA), (0, 0, 0), ()): RatQ.one(), ((BETA, MU), (0, 0, 0), ()): RatQ(-Q(1))}
    )
    assert w_embed(AqElement.zero()) == UqElement.zero()
    assert w_embed(AqElement.generator(3)) == Fn * Fb - (Fb * Fn).scale(Q(1))


def test_all_aq_relations_transport_to_zero():
    # the defining relations of the quadratic algebra, rewritten as
    # lhs - rhs with products taken upstairs, all land in the Serre ideal
    pairs = [
        ((2, 1), None), ((3, 1), None), ((4, 3), None),
        ((4, 2), None), ((3, 2), None), ((4, 1), None),
    ]
    from quadalg.aq import normal_order

    for word, _ in pairs:
        lhs = w_gen(word[0]) * w_gen(word[1])
        rhs = w_embed(normal_order(word))
        assert lhs == rhs, word


def test_recorded_identity_fmu_w2():
    lhs = Fm * w_gen(2)
    rhs = (w_gen(2) * Fm).scale(Q(-1))
    assert lhs == rhs


def test_power_identity_upstairs():
    # w4^2 w1 = w1 w4^2 - (q - q^-3) w2 w3 w4, transported
    lhs = w_gen(4) * w_gen(4) * w_gen(1)
    rhs = w_embed((AqElement.generator(4) ** 2) * AqElement.generator(1))
    assert lhs == rhs


def test_w_embed_is_multiplicative_through_degree_3():
    monomials = [AqElement.monomial(g) for g in indices_up_to(3)]
    for a in monomials:
        for b in monomials:
            if mi_degree(next(iter(a.terms))) + mi_degree(next(iter(b.terms))) <= 3:
                assert w_embed(a * b) == w_embed(a) * w_embed(b), (a, b)


def test_w_embed_of_every_degree_4_monomial_is_pinned():
    # taken with the echelon engine, which spent about 45 s on it
    h = hashlib.sha256()
    for gamma in all_indices(4):
        h.update((str(w_embed(AqElement.monomial(gamma))) + "\n").encode())
    assert h.hexdigest() == "21ceaed7b4618dca372e00fa4e3b8a7b429b444092ed94c2f4e7d847599fbeed"


def test_w_embed_of_w4_to_the_5_runs_cold_under_the_default_recursion_limit():
    # a fresh interpreter starts with empty memo tables
    src = os.path.dirname(os.path.dirname(quadalg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "from quadalg.aq import AqElement\n"
        "from quadalg.uq import w_embed\n"
        "x = w_embed(AqElement.monomial((0, 0, 0, 5)))\n"
        "y = w_embed(AqElement.monomial((0, 0, 0, 2))) * w_embed(AqElement.monomial((0, 0, 0, 3)))\n"
        "print(len(x.terms), x == y)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["56", "True"]


# -------------------------------------------------------- straightening

def test_straighten_eb_fb():
    got = straighten_word([("E", BETA), ("F", BETA)])
    expected = UqElement(
        {
            ((BETA,), (0, 0, 0), (BETA,)): RatQ.one(),
            ((), (0, 0, 1), ()): INV_MU,
            ((), (0, 0, -1), ()): -INV_MU,
        }
    )
    assert got == expected


def reference_straighten(symbols):
    """The reference oracle: a stack rewriter that follows every rewrite path
    to F * K * E order on its own, then reduces each F and E word."""
    rank = {"F": 0, "K": 1, "E": 2}
    done = []
    stack = [(tuple(symbols), RatQ.one())]
    while stack:
        word, c = stack.pop()
        spot = next((i for i in range(len(word) - 1)
                     if rank[word[i][0]] > rank[word[i + 1][0]]), None)
        if spot is None:
            k = [0, 0, 0]
            for s in word:
                if s[0] == "K":
                    k[s[1]] += s[2]
            done.append((tuple(s[1] for s in word if s[0] == "F"), tuple(k),
                         tuple(s[1] for s in word if s[0] == "E"), c))
            continue
        x, y = word[spot], word[spot + 1]
        head, tail = word[:spot], word[spot + 2:]
        if x[0] == "E" and y[0] == "F":
            stack.append((head + (y, x) + tail, c))
            if x[1] == y[1]:
                stack.append((head + (("K", x[1], 1),) + tail, c * INV_MU))
                stack.append((head + (("K", x[1], -1),) + tail, -(c * INV_MU)))
        elif x[0] == "E":
            stack.append((head + (y, x) + tail, c * RatQ(Q(-y[2] * uq.CARTAN[x[1]][y[1]]))))
        else:
            stack.append((head + (y, x) + tail, c * RatQ(Q(-x[2] * uq.CARTAN[x[1]][y[1]]))))
    terms = {}
    for fword, k, eword, c in done:
        for fw, fc in serre_reduce({fword: RatQ.one()}).items():
            for ew, ec in serre_reduce({eword: RatQ.one()}).items():
                add_into(terms, (fw, k, ew), c * fc * ec)
    return UqElement(terms)


def test_straighten_matches_the_per_path_reference():
    symbols = [("F", MU), ("F", BETA), ("E", MU), ("E", BETA), ("K", MU, 1), ("K", MU, -1)]
    for n in range(1, 5):
        for word in product(symbols, repeat=n):
            assert straighten_word(word) == reference_straighten(word), word


def test_straighten_distinct_indices_commute():
    assert straighten_word([("E", MU), ("F", BETA)]) == Fb * Em


def test_plain_swaps_reach_rewrite_with_a_unit_factor():
    # E_i F_j (i != j) and E_i K_j or K_j F_i with (a_i, a_j) = 0 commute with the factor None
    em, fb, kn = ("E", MU), ("F", BETA), ("K", NU, 2)
    assert uq._straighten_step((em, fb)) == [((fb, em), None)]
    assert uq._straighten_step((em, kn)) == [((kn, em), None)]
    assert uq._straighten_step((("K", MU, 1), fb)) == [((fb, ("K", MU, 1)), RatQ(Q(1)))]
    assert uq._straighten_step((em, ("F", MU)))[0] == ((("F", MU), em), None)


def test_k_past_f():
    # K_nu F_beta = q F_beta K_nu and K_beta F_beta = q^-2 F_beta K_beta
    kn = UqElement.k_gen(NU)
    kb = UqElement.k_gen(BETA)
    assert kn * Fb == (Fb * kn).scale(Q(1))
    assert kb * Fb == (Fb * kb).scale(Q(-2))


def test_recorded_identity_emu_w2():
    # E_mu w2 = w1 K_mu^-1 plus the residual w2 E_mu killed by raising
    lhs = Em * w_gen(2)
    rhs = w_gen(1) * UqElement.k_gen(MU, -1) + w_gen(2) * Em
    assert lhs == rhs
    # the part free of raising letters is exactly w1 K_mu^-1
    efree = UqElement({k: c for k, c in lhs.terms.items() if not k[2]})
    assert efree == w_gen(1) * UqElement.k_gen(MU, -1)


# ------------------------------------------------------------ Hopf data

def test_counit_composition_law():
    # (eps x id) Delta = id on all nine generators
    symbols = [("F", i) for i in (MU, NU, BETA)]
    symbols += [("E", i) for i in (MU, NU, BETA)]
    symbols += [("K", i, 1) for i in (MU, NU, BETA)]
    for s in symbols:
        gen = {
            "F": UqElement.f_gen,
            "E": UqElement.e_gen,
            "K": lambda i: UqElement.k_gen(i, 1),
        }[s[0]](s[1])
        total = UqElement.zero()
        for left, right in coproduct_pairs(s):
            total = total + right.scale(counit(left))
        assert total == gen, s


def test_antipode_axiom():
    # m (S x id) Delta = eps * 1 on all nine generators
    symbols = [("F", i) for i in (MU, NU, BETA)]
    symbols += [("E", i) for i in (MU, NU, BETA)]
    symbols += [("K", i, 1) for i in (MU, NU, BETA)]
    for s in symbols:
        total = UqElement.zero()
        for left, right in coproduct_pairs(s):
            total = total + antipode(left) * right
        if s[0] == "K":
            assert total == UqElement.one(), s
        else:
            assert total == UqElement.zero(), s


def test_antipode_values():
    assert antipode(Em) == -(UqElement.k_gen(MU, -1) * Em)
    assert antipode(Fb) == -(Fb * UqElement.k_gen(BETA))
    assert antipode(UqElement.k_gen(NU)) == UqElement.k_gen(NU, -1)


def test_coproduct_is_algebra_map():
    # Delta(x y) = Delta(x) Delta(y) on sample products
    samples = [
        (Em, Fb),
        (Fm, Fb),
        (UqElement.k_gen(MU), Fm),
        (Eb, Fb),
    ]
    for x, y in samples:
        assert coproduct(x * y) == coproduct(x) * coproduct(y)


# ----------------------------------------------------------- star action

STAR_TABLE_MU = [
    (("F", MU), 1, AqElement.generator(2)),
    (("F", MU), 3, AqElement.generator(4)),
    (("F", MU), 2, AqElement.zero()),
    (("F", MU), 4, AqElement.zero()),
    (("E", MU), 2, AqElement.generator(1)),
    (("E", MU), 4, AqElement.generator(3)),
    (("E", MU), 1, AqElement.zero()),
    (("E", MU), 3, AqElement.zero()),
    (("K", MU, 1), 1, AqElement.generator(1).scale(Q(1))),
    (("K", MU, 1), 3, AqElement.generator(3).scale(Q(1))),
    (("K", MU, 1), 2, AqElement.generator(2).scale(Q(-1))),
    (("K", MU, 1), 4, AqElement.generator(4).scale(Q(-1))),
]


def mirror_23(symbol, i, value):
    # the nu table is the mu table under the interchange 2 <-> 3
    swap = {1: 1, 2: 3, 3: 2, 4: 4}
    sym = (symbol[0], NU) + symbol[2:]
    swapped = AqElement(
        {(g[0], g[2], g[1], g[3]): c for g, c in value.terms.items()}
    )
    return sym, swap[i], swapped


def test_star_table_mu():
    for symbol, i, expected in STAR_TABLE_MU:
        got = star_act(symbol, AqElement.generator(i))
        assert got == expected, (symbol, i)


def test_star_table_nu():
    for symbol, i, expected in STAR_TABLE_MU:
        sym, j, want = mirror_23(symbol, i, expected)
        got = star_act(sym, AqElement.generator(j))
        assert got == want, (sym, j)


def test_star_rejects_beta():
    # beta, and a kind that is no generator
    for symbol in (("F", BETA), ("X", MU)):
        with pytest.raises(ValueError):
            star_act(symbol, AqElement.generator(1))


def test_star_kinverse():
    got = star_act(("K", MU, -1), AqElement.generator(2))
    assert got == AqElement.generator(2).scale(Q(1))


def test_star_act_on_every_degree_3_monomial_is_pinned():
    # degrees 3 and 4, both taken through the Hopf projection (hopf_star_act)
    pins = {
        3: "2d9ab9aba1d50f8b55949f812d75cb8c6fc6a1ae57d3631315622b66d0c93dcb",
        4: "524e8f0db31d08a2714fbededee0a0744b2dcd78d591cf05d8c614d311cc3ae0",
    }
    for degree, digest in pins.items():
        h = hashlib.sha256()
        for symbol in (("F", MU), ("E", MU), ("K", MU, 1)):
            for gamma in all_indices(degree):
                h.update((str(star_act(symbol, AqElement.monomial(gamma))) + "\n").encode())
        assert h.hexdigest() == digest, degree


STAR_SYMBOLS = [("F", MU), ("E", MU), ("K", MU, 1), ("K", MU, -1),
                ("F", NU), ("E", NU), ("K", NU, 1), ("K", NU, -1)]


def test_star_act_matches_the_hopf_projection():
    # all eight generators on every monomial of degree <= 3
    checks = [(symbol, AqElement.monomial(gamma))
              for symbol in STAR_SYMBOLS for gamma in indices_up_to(3)]
    # then 30 seeded mixed elements of degree <= 3, the generators in turn
    rng = random.Random(16)
    for n in range(30):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            gamma = rng.choice(indices_up_to(3))
            add_into(terms, gamma, Q(rng.randint(-2, 2)) * LaurentPoly.const(rng.choice((-2, 1, 3))))
        checks.append((STAR_SYMBOLS[n % len(STAR_SYMBOLS)], AqElement(terms)))
    for symbol, a in checks:
        got, want = star_act(symbol, a), hopf_star_act(symbol, a)
        assert got == want and str(got) == str(want), (symbol, a)


# The module-algebra identity X |> (ab) = sum (X_(1) |> a)(X_(2) |> b) with
# Delta'(F) = F x 1 + K x F, Delta'(E) = E x K^-1 + 1 x E, Delta'(K) = K x K.
# Both sides take only star_act and aq products; star_act is defined on the
# PBW basis, so the identity checks that it respects the six aq relations.

def _coproduct_prime(symbol):
    """Delta'(X) as (left, right) pairs of star symbols, None for the unit."""
    kind, i = symbol[0], symbol[1]
    if kind == "F":
        return [(symbol, None), (("K", i, 1), symbol)]
    if kind == "E":
        return [(symbol, ("K", i, -1)), (None, symbol)]
    return [(symbol, symbol)]


def _act(symbol, a):
    return a if symbol is None else star_act(symbol, a)


def covariance_failures(max_degree, symbols):
    """The checks run, and the triples (X, a, b) of monomials where the identity fails.

    a and b run over the monomials of degree >= 1 with total degree <= max_degree.
    """
    monomials = [(sum(gamma), AqElement.monomial(gamma))
                 for gamma in indices_up_to(max_degree - 1)[1:]]
    checks, failures = 0, []
    for symbol in symbols:
        pairs = _coproduct_prime(symbol)
        for da, a in monomials:
            for db, b in monomials:
                if da + db > max_degree:
                    continue
                rhs = AqElement.zero()
                for left, right in pairs:
                    rhs = rhs + _act(left, a) * _act(right, b)
                checks += 1
                if star_act(symbol, a * b) != rhs:
                    failures.append((symbol, a, b))
    return checks, failures


COVARIANCE_SYMBOLS = [("F", MU), ("E", MU), ("K", MU, 1), ("F", NU), ("E", NU), ("K", NU, 1)]


def test_star_act_is_a_module_algebra_action():
    assert covariance_failures(6, COVARIANCE_SYMBOLS) == (15504, [])


def test_covariance_catches_a_mutated_star_formula(monkeypatch):
    # Fm's second term times q: q^(a-b+1) [c]_q w^(gamma-e3+e4)
    mu_star = uq._mu_star

    def mutant(kind, k, gamma):
        terms = mu_star(kind, k, gamma)
        if kind == "F":
            (g1, c1), (g2, c2) = terms
            terms = (g1, c1), (g2, c2 * Q(1))
        return terms

    monkeypatch.setattr(uq, "_mu_star", mutant)
    # the nu generators read the mu formula through the mirror, so Fn fails too
    checks, failures = covariance_failures(4, COVARIANCE_SYMBOLS)
    assert checks == 2136
    assert {symbol for symbol, _, _ in failures} == {("F", MU), ("F", NU)}


# ------------------------------------------------- PBW cross-validation
#
# The rule table uq.PBW_RULES is checked through the U_q^- word engine:
# the letters 1..4 are w_gen(1..4), 5 and 6 are F_mu and F_nu.

PBW_GENERATORS = {i: w_gen(i) for i in (1, 2, 3, 4)}
PBW_GENERATORS.update({5: Fm, 6: Fn})


def pbw_product(word):
    """The product of PBW letters in U_q^-, taken by the word engine."""
    out = UqElement.one()
    for x in word:
        out = out * PBW_GENERATORS[x]
    return out


@lru_cache(maxsize=None)
def pbw_element(item):
    """w^gamma F_mu^r F_nu^s through w_embed and F products."""
    gamma, r, s = item
    el = w_embed(AqElement.monomial(gamma))
    for _ in range(r):
        el = el * Fm
    for _ in range(s):
        el = el * Fn
    return el


def test_pbw_rules_hold_in_the_lowering_part():
    # one rule per pair of letters out of order, onto ordered words
    assert set(uq.PBW_RULES) == {(x, y) for x in range(1, 7) for y in range(1, x)}
    for lead, rhs in uq.PBW_RULES.items():
        want = UqElement.zero()
        for word, c in rhs.items():
            assert list(word) == sorted(word), (lead, word)
            want = want + pbw_product(word).scale(c)
        assert pbw_product(lead) == want, lead


def _rightmost_pbw_step(word):
    for idx in reversed(range(len(word) - 1)):
        if word[idx] > word[idx + 1]:
            head, tail = word[:idx], word[idx + 2:]
            return [(head + u + tail, c) for u, c in uq.PBW_RULES[word[idx:idx + 2]].items()]
    return None


def test_pbw_overlaps_resolve():
    # every word x y z with x > y > z: leftmost and rightmost rewriting agree
    overlaps = [(x, y, z) for x in range(1, 7) for y in range(1, x) for z in range(1, y)]
    assert len(overlaps) == 20
    for word in overlaps:
        left = rewrite({word: ONE}, uq._pbw_step)
        assert left == rewrite({word: ONE}, _rightmost_pbw_step), word
        assert all(list(w) == sorted(w) for w in left), word


def test_w_pbw_spans_low_degrees():
    # the PBW count w^gamma F_mu^r F_nu^s reproduces every component
    # dimension: each basis word is the sum of the items it decomposes into
    for content in contents_up_to(4):
        for word in component(content).basis:
            x = UqElement({(word, (0, 0, 0), ()): RatQ.one()})
            coords = w_decompose(x)
            assert coords, word
            total = UqElement.zero()
            for item, c in coords.items():
                total = total + pbw_element(item).scale(c)
            assert total == x, word


def contents_up_to(d):
    return [(a, b, n - a - b) for n in range(d + 1) for a in range(n + 1) for b in range(n + 1 - a)]


def test_w_decompose_recovers_each_pbw_item():
    for content in contents_up_to(6):
        for item in uq._w_pbw_basis(content):
            assert w_decompose(pbw_element(item)) == {item: RatQ.one()}, item


def test_pbw_count_is_the_component_dimension():
    # the PBW theorem: the items of a content are as many as its basis words
    for content in contents_up_to(7):
        assert len(uq._w_pbw_basis(content)) == component(content).dimension, content


def test_w_pbw_matrix_builds_no_component(monkeypatch):
    items = [item for content in ((1, 1, 1), (2, 0, 2), (1, 2, 1), (0, 2, 2), (2, 2, 0))
             for item in uq._w_pbw_basis(content)]
    elements = [pbw_element(item) for item in items]

    def no_component(content):
        raise AssertionError("component(%r)" % (content,))

    monkeypatch.setattr(uq, "component", no_component)
    # an empty memo, so that w_decompose builds every row it reads
    monkeypatch.setattr(uq, "_w_pbw_matrix", lru_cache(maxsize=None)(uq._w_pbw_matrix.__wrapped__))
    for item, el in zip(items, elements):
        assert w_decompose(el) == {item: RatQ.one()}, item
    assert uq._w_pbw_matrix.cache_info().misses > 0


def assert_reduced_echelon(pivots):
    for pivot, row in pivots.items():
        assert row[pivot] == RatQ.one()
        assert pivot == max(row)
        assert not (set(row) - {pivot}) & set(pivots)
        assert all(row.values())


def test_echelon_rows_are_reduced():
    for content in contents_up_to(5):
        pivots = component_pivots(content)
        assert_reduced_echelon(pivots)
        assert not set(component(content).basis) & set(pivots)
        for w, row in pivots.items():  # w - NF(w)
            assert row == {w: ONE, **{x: -c for x, c in uq._normal_form(w).items()}}, w
    for content in contents_up_to(4):
        basis, echelon = oracle_component(content)
        assert_reduced_echelon(echelon.pivots)
        assert len(echelon.pivots) + len(basis) == len(words_of_content(content))


def _benchmark_uq_caches():
    """``UQ_CACHES`` of the benchmark's tracer, which imports only the standard library."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.UQ_CACHES


def test_uq_memo_tables_expose_cache_info():
    # the perfbench worker reads these on every pass
    names = _benchmark_uq_caches()
    assert "component" in names and "words_of_content" in names
    for name in names:
        info = getattr(uq, name).cache_info()
        assert info.currsize >= 0, name


def test_w_decompose_roundtrip():
    # w2 * w3 decomposes with pure-w weight on gamma = (0,1,1,0)
    el = w_gen(2) * w_gen(3)
    coords = w_decompose(el)
    assert coords.get(((0, 1, 1, 0), 0, 0)) == RatQ.one()


def test_w_decompose_rejects_k_terms():
    with pytest.raises(NotInWSpanError):
        w_decompose(UqElement.k_gen(MU) * Fb)
