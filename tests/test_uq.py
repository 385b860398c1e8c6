import pytest

from quadalg import uq
from quadalg.aq import AqElement, relation_pairs
from quadalg.ring import LaurentPoly, RatQ
from quadalg.uq import (
    BETA,
    MU,
    NU,
    NotInWSpanError,
    TensorSum,
    UqElement,
    antipode,
    component,
    coproduct,
    coproduct_pairs,
    counit,
    graded_dimension,
    serre_reduce,
    star_act,
    straighten,
    w_decompose,
    w_embed,
    w_gen,
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


# -------------------------------------------------------- straightening

def test_straighten_eb_fb():
    got = straighten([("E", BETA), ("F", BETA)])
    expected = UqElement(
        {
            ((BETA,), (0, 0, 0), (BETA,)): RatQ.one(),
            ((), (0, 0, 1), ()): INV_MU,
            ((), (0, 0, -1), ()): -INV_MU,
        }
    )
    assert got == expected


def test_straighten_distinct_indices_commute():
    assert straighten([("E", MU), ("F", BETA)]) == Fb * Em


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
    with pytest.raises(ValueError):
        star_act(("F", BETA), AqElement.generator(1))


def test_star_kinverse():
    got = star_act(("K", MU, -1), AqElement.generator(2))
    assert got == AqElement.generator(2).scale(Q(1))


# ------------------------------------------------- PBW cross-validation

def test_w_pbw_spans_low_degrees():
    # the PBW count w^gamma F_mu^r F_nu^s reproduces every component
    # dimension: decomposition of any basis word must succeed
    for d in range(5):
        for a in range(d + 1):
            for b in range(d + 1 - a):
                comp = component((a, b, d - a - b))
                for word in comp.basis:
                    coords = w_decompose(UqElement({(word, (0, 0, 0), ()): RatQ.one()}))
                    assert coords, word


def contents_up_to(d):
    return [(a, b, n - a - b) for n in range(d + 1) for a in range(n + 1) for b in range(n + 1 - a)]


def test_w_decompose_recovers_each_pbw_item():
    for content in contents_up_to(4):
        for item in uq._w_pbw_basis(content):
            gamma, r, s = item
            el = w_embed(AqElement.monomial(gamma))
            for _ in range(r):
                el = el * Fm
            for _ in range(s):
                el = el * Fn
            assert w_decompose(el) == {item: RatQ.one()}, item


def assert_reduced_echelon(echelon):
    for pivot, row in echelon.pivots.items():
        assert row[pivot] == RatQ.one()
        assert pivot == max(row)
        assert not (set(row) - {pivot}) & set(echelon.pivots)
        assert all(row.values())


def test_echelon_rows_are_reduced():
    for content in contents_up_to(5):
        comp = component(content)
        assert_reduced_echelon(comp)
        assert not set(comp.basis) & set(comp.pivots)
        assert all(not tags for tags in comp.tags.values())
    for content in contents_up_to(4):
        items, echelon = uq._w_pbw_matrix(content)
        assert_reduced_echelon(echelon)
        assert len(echelon.pivots) == len(items)


def test_echelon_tags_follow_the_row_operations():
    # a row's tags say which combination of the inserted vectors it is
    ech = uq._Echelon()
    a, b, c = (0,), (1,), (2,)
    vecs = [{c: RatQ(2), a: RatQ.one()}, {c: RatQ.one(), b: RatQ(Q(1))}, {b: RatQ(3)}]

    def combine(tags):
        out = {}
        for i, t in tags.items():
            for w, x in vecs[i].items():
                out[w] = out.get(w, RatQ.zero()) + t * x
        return {w: x for w, x in out.items() if x}

    for i, vec in enumerate(vecs):
        assert ech.insert(vec, {i: RatQ.one()}) is not None
    assert ech.insert({a: RatQ.one()}, {"x": RatQ.one()}) is None
    for pivot, row in ech.pivots.items():
        assert combine(ech.tags[pivot]) == row
    tags = {}
    assert ech.reduce({c: RatQ(5)}, tags) == {}
    assert combine({i: -t for i, t in tags.items()}) == {c: RatQ(5)}


def test_uq_memo_tables_expose_cache_info():
    # the perfbench worker reads these on every pass
    for name in ("words_of_content", "component", "w_gen", "_w_pbw_basis", "_w_pbw_matrix"):
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
