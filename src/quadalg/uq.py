"""The rank-3 quantized enveloping fragment acting behind the quadratic algebra.

Lowering generators F_mu, F_nu, F_beta (letters 0, 1, 2) generate a free
algebra modulo the quantum Serre relations; raising generators E_* satisfy
the same relations, and the Cartan generators K_* straighten past both
sides through the A3 pairing ((a,a) = 2, mu/beta and nu/beta adjacent = -1,
(mu,nu) = 0).  mu and nu play symmetric roles on opposite ends of the
Dynkin path mu -- beta -- nu.

Ideal membership is decided by the finite Groebner-Shirshov basis of the
Serre ideal (Bokut & Malcolmson 1996): eight rules rewrite leading words
to lex-smaller words, so each word has one normal form (diamond lemma) on
the basis words, those with no leading word as a factor.  A component is
a named tuple (content, basis, dimension) whose basis comes from that
factor test alone.  Normal forms are memoised per word over Z[q, q^-1]
(the rules are integral), each built on demand, on an explicit work
stack, from those of lex-smaller words.  A sum of c NF(x) over several
words x accumulates one {exponent: coefficient} table per basis word and
wraps each as a LaurentPoly once, at the end.  The memo holds at most
``MAX_NF_LETTERS`` letters, counting its words and the basis words of
their normal forms: a reduction that needs more on its own is refused
with ValueError and the memo cleared, and one that earlier reductions
leave no room for clears the memo and starts again.

Products in the full fragment are straightened in closed form to (F word)
(K monomial) (E word), with both words reduced to quotient-basis coordinates.

The star action of the mu/nu subalgebra on the quadratic algebra is a
closed formula on the PBW monomials w1^a w2^b w3^c w4^d: the degree-1
star table extended by the Leibniz rule of the module-algebra structure.
The Hopf projection it replaces (sum_i b_i a S(a_i), the counit on the K
and E parts, and PBW coordinates w^gamma F_mu^r F_nu^s) is the tests'
oracle for it, with PBW coordinates from a rule table of its own.  Here
the PBW coordinates of an F word are a fold of the same star
coefficients, as ``straighten_word`` is a fold of products: left
multiplication by F_mu or F_nu is F x = (F |> x) + (K |> x) F on x = w^gamma.
"""

from __future__ import annotations

from collections import namedtuple
from functools import _CacheInfo, lru_cache
from operator import add, mul

from .aq import AqElement
from .lin import Lin, add_into, add_scaled
from .ring import INV_MU, LaurentPoly, RatQ, as_laurent, as_ratq, q_int

MU, NU, BETA = 0, 1, 2
LETTER_NAMES = ("Fm", "Fn", "Fb")
E_NAMES = ("Em", "En", "Eb")
K_NAMES = ("Km", "Kn", "Kb")
# Each generator's name and its straightening symbol ("F", i), ("E", i) or ("K", i, e).
GENERATOR_SYMBOLS = {name: symbol for i in (MU, NU, BETA) for name, symbol in (
    (LETTER_NAMES[i], ("F", i)), (E_NAMES[i], ("E", i)),
    (K_NAMES[i], ("K", i, 1)), (K_NAMES[i] + "^-1", ("K", i, -1)))}

_Q = LaurentPoly.q
_ONE = LaurentPoly.one()

# A3 Cartan pairing in the letter order (mu, nu, beta)
CARTAN = (
    (2, 0, -1),
    (0, 2, -1),
    (-1, -1, 2),
)


def serre_relations():
    """The generating relations, each as {word: LaurentPoly}."""
    two = _Q(1) + _Q(-1)
    rels = []
    for i, j in ((NU, BETA), (MU, BETA), (BETA, NU), (BETA, MU)):
        rels.append({(i, i, j): _ONE, (i, j, i): -two, (j, i, i): _ONE})
    rels.append({(NU, MU): _ONE, (MU, NU): -_ONE})
    return rels


def word_content(word):
    c = [0, 0, 0]
    for letter in word:
        c[letter] += 1
    return tuple(c)


def _grown_words(content, pruned):
    """The words with the given letter counts, ascending lex, no prefix of which is pruned."""
    # each word extended by its remaining letters in ascending order stays in lex order
    words = [((), tuple(content))]
    for _ in range(sum(content)):
        words = [(w + (x,), left[:x] + (n - 1,) + left[x + 1:])
                 for w, left in words for x, n in enumerate(left) if n and not pruned(w + (x,))]
    return tuple(w for w, _ in words)


@lru_cache(maxsize=None)
def words_of_content(content):
    """All distinct words with the given letter counts, ascending lex.

    No caller in the package: it stays because perfbench reads its ``cache_info()``.
    """
    return _grown_words(content, lambda w: False)


# The Groebner-Shirshov rules as data: each leading word equals its right
# side modulo the ideal, and none is a factor of another.  They are not
# derived from serre_relations(), the specification the tests check them by.
_BRACKET2 = _Q(1) + _Q(-1)
RULES = {
    tuple(map(int, lead)): {tuple(map(int, w)): as_laurent(c) for w, c in rhs.items()}
    for lead, rhs in (
        ("10", {"01": 1}),
        ("200", {"002": -1, "020": _BRACKET2}),
        ("211", {"112": -1, "121": _BRACKET2}),
        ("220", {"022": -1, "202": _BRACKET2}),
        ("221", {"122": -1, "212": _BRACKET2}),
        ("2011", {"1120": -1, "1201": _BRACKET2}),
        ("2120", {"0212": -1, "1202": 1, "2021": 1}),
        ("20201", {"01202": 1, "02012": -_BRACKET2, "02021": 1, "12020": -1, "20120": _BRACKET2}),
    )
}
_LEAD_LENGTHS = sorted({len(lead) for lead in RULES})


def _ends_in_lead(w):
    """Whether w ends in a leading word: the factor test, asked at each letter a word grows by."""
    for k in _LEAD_LENGTHS:  # a plain loop: this runs once per letter grown
        if w[-k:] in RULES:
            return True
    return False


# One multidegree: its letter counts, its irreducible words and their number.
Component = namedtuple("Component", ("content", "basis", "dimension"))


@lru_cache(maxsize=None)
def component(content) -> Component:
    """The words with no leading word as a factor, grown letter by letter and
    pruned at the first prefix that ends in one; no normal form is built."""
    content = tuple(content)
    basis = _grown_words(content, _ends_in_lead)
    return Component(content, basis, len(basis))


# The most letters the normal-form memo may hold in all: those of its words
# and of the basis words in their normal forms.
MAX_NF_LETTERS = 10_000_000

_NF = {}  # word -> NF(word), or None for an irreducible word
_nf_letters = 0  # the letters _NF holds, counted as MAX_NF_LETTERS counts them
_UNBUILT = object()


def _normal_form(w):
    """NF(w) as {irreducible word: LaurentPoly}, or None when w is irreducible."""
    if w not in _NF:
        _memoise_normal_form(w)
    return _NF[w]


def _clear_normal_forms():
    global _nf_letters
    _NF.clear()
    _nf_letters = 0


# read like an lru_cache's: every word built is a miss, and hits are not counted
_normal_form.cache_info = lambda: _CacheInfo(None, len(_NF), None, len(_NF))
_normal_form.cache_clear = _clear_normal_forms


class _NoRoom(Exception):
    """The entries that earlier builds left in the memo leave a build no room."""


def _memoise_normal_form(word):
    """Put NF(word) into the memo, with every normal form it reads.

    The memo holds at most ``MAX_NF_LETTERS`` letters, in its words and in
    the basis words of their normal forms.  A build that needs more on its
    own is refused with ValueError and clears the memo; one that the
    entries of earlier builds leave no room for clears the memo and starts
    again, so no entry is evicted while a build reads the memo.
    """
    try:
        _build_normal_forms(word)
    except _NoRoom:
        _clear_normal_forms()
        _build_normal_forms(word)


def _build_normal_forms(word):
    """Memoise NF(word), each normal form after those it reads.

    NF(w) = NF(w[0] NF(w[1:])) for a reducible tail; an irreducible tail
    leaves only the rule whose leading word prefixes w.  Both steps reach
    lex-smaller words, and the rules, a Groebner-Shirshov basis, make the
    normal form unique (diamond lemma).  The words still to build wait on
    an explicit stack, so no word length meets the recursion limit.
    """
    start = _nf_letters
    stack = [(word, None)]  # (w, its terms once NF(w[1:]) is known)
    while stack:
        w, terms = stack[-1]
        if terms is None:
            if w in _NF:
                stack.pop()
                continue
            tail = _NF.get(w[1:], _UNBUILT) if len(w) > 1 else None
            if tail is _UNBUILT:
                stack.append((w[1:], None))
                continue
            if tail is not None:
                terms = [(w[:1] + u, c) for u, c in tail.items()]
            else:
                for n in _LEAD_LENGTHS:
                    if w[:n] in RULES:
                        terms = [(u + w[n:], c) for u, c in RULES[w[:n]].items()]
                        break
                else:
                    _store(w, None, start)
                    stack.pop()
                    continue
            stack[-1] = (w, terms)
        for x, _ in terms:
            if x not in _NF:
                stack.append((x, None))
                break
        else:
            _store(w, _sum_normal_forms(terms), start)
            stack.pop()


def _store(w, nf, start):
    """Memoise NF(w) for a build that began with ``start`` letters in the memo."""
    global _nf_letters
    letters = _nf_letters + len(w) + (sum(map(len, nf)) if nf else 0)
    if letters > MAX_NF_LETTERS:
        if letters - start > MAX_NF_LETTERS:
            _clear_normal_forms()
            raise ValueError("the normal forms of this reduction need more than "
                             "MAX_NF_LETTERS = %d memoised letters" % MAX_NF_LETTERS)
        raise _NoRoom
    _NF[w] = nf
    _nf_letters = letters


def _sum_normal_forms(terms):
    """The sum of c NF(x) over the pairs (x, c), c != 0, where NF(x) = x for an irreducible x.

    A Laurent multiple of a reducible word's normal form is summed on one
    {exponent: coefficient} table per basis word, each wrapped once at the
    end; irreducible words and other coefficients (RatQ) are summed by
    their own arithmetic.
    """
    tables = {}  # basis word -> {exponent: coefficient}
    out = {}
    for x, c in terms:
        try:
            nf = _NF[x]
        except KeyError:
            nf = _normal_form(x)
        if nf is None:
            add_into(out, x, c)
        elif type(c) is not LaurentPoly:
            add_scaled(out, nf, c)
        else:
            cs = c.terms.items()
            for u, v in nf.items():
                table = tables.get(u)
                if table is None:
                    table = tables[u] = {}
                get = table.get
                for f, b in cs:
                    for e, a in v.terms.items():
                        k = e + f
                        table[k] = get(k, 0) + a * b
    for u, table in tables.items():
        table = {k: a for k, a in table.items() if a}
        if table:
            add_into(out, u, LaurentPoly._make(table))
    return out


def serre_reduce(element) -> dict:
    """Quotient-basis coordinates of a linear combination of free words.

    ``element`` maps words (tuples over 0, 1, 2) to coefficients; the
    result, over RatQ, is supported on basis words only and is empty iff
    the input lies in the Serre ideal.  It is summed over Q[q, q^-1]
    unless an input coefficient is not a Laurent polynomial.
    """
    terms = []
    for w, c in element.items():
        if isinstance(c, RatQ) and c.is_laurent():
            c = c.num
        c = c if isinstance(c, RatQ) else as_laurent(c)
        if c:
            terms.append((w, c))
    return {w: as_ratq(c) for w, c in _sum_normal_forms(terms).items()}


def graded_dimensions(n: int) -> list:
    """Dimensions of the Serre quotient in degrees 0..n: the numbers of words no rule applies to."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    counts = {(): 1}  # last letters a leading word can still overlap -> words
    dims = [1]
    for _ in range(n):
        grown = {}
        for suffix, m in counts.items():
            for x in range(3):
                w = suffix + (x,)
                if not _ends_in_lead(w):
                    add_into(grown, w[1 - _LEAD_LENGTHS[-1]:], m)
        counts = grown
        dims.append(sum(counts.values()))
    return dims


def graded_dimension(d: int) -> int:
    """Dimension of the degree-d Serre quotient."""
    return graded_dimensions(d)[-1]


# ----------------------------------------------------- straightened form
#
# A key (f, k, e) stands for F_f K^k E_e.  Each key of a left factor acts
# on the keys of the right factor (Jantzen, *Lectures on Quantum Groups*,
# 1996, ch. 1 and 4): its E letters one at a time, last first, by
#
#     E_i F_f K^k E_e = q^-(a_i,k) F_f K^k E_(i e) + sum over the p with f_p = i
#         of F_(f without p) (q^-t K_i - q^t K_i^-1) K^k E_e / (q - q^-1),
#     t = (a_i, weight of the letters of f after p),
#
# then its K monomial and F word in one step, K^x F_f = q^-(x, weight of f) F_f K^x.


def _e_times(i, vec):
    """E_i times the keys (f, k, e) of ``vec`` by the closed form above; F words stay unreduced."""
    row = CARTAN[i]
    out = {}
    for (f, k, e), c in vec.items():
        t = sum(map(mul, row, k))
        for ew, ec in _sum_normal_forms([((i,) + e, c * _Q(-t) if t else c)]).items():
            add_into(out, (f, k, ew), ec)
        removed = {}  # f without one letter i -> {t: positions}
        t = 0
        for p in range(len(f) - 1, -1, -1):
            if f[p] == i:
                add_into(removed.setdefault(f[:p] + f[p + 1:], {}), t, 1)
            t += row[f[p]]
        if removed:
            c = c * INV_MU
            up = k[:i] + (k[i] + 1,) + k[i + 1:]
            down = k[:i] + (k[i] - 1,) + k[i + 1:]
            for g, ts in removed.items():
                add_into(out, (g, up, e), c * LaurentPoly._make({-t: n for t, n in ts.items()}))
                add_into(out, (g, down, e), -c * LaurentPoly._make(ts))
    return out


def straighten_word(symbols, coeff=None) -> "UqElement":
    """Normal-order a product of generators to F * K * E form, folding from the right."""
    out = UqElement.one() if coeff is None else UqElement.one().scale(coeff)
    for s in reversed(symbols):
        out = UqElement.generator(s) * out
    return out


class UqElement(Lin):
    """A straightened element: sum of (F word) (K monomial) (E word) terms.

    F and E words are quotient-basis representatives; coefficients are
    exact rational functions of q.
    """

    __slots__ = ()
    coerce = staticmethod(as_ratq)

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls):
        return cls._make({((), (0, 0, 0), ()): RatQ.one()})

    @classmethod
    def f_gen(cls, i):
        return cls._make({((i,), (0, 0, 0), ()): RatQ.one()})

    @classmethod
    def e_gen(cls, i):
        return cls._make({((), (0, 0, 0), (i,)): RatQ.one()})

    @classmethod
    def k_gen(cls, i, power=1):
        k = [0, 0, 0]
        k[i] = power
        return cls._make({((), tuple(k), ()): RatQ.one()})

    @classmethod
    def generator(cls, symbol):
        """The generator of a symbol of ``GENERATOR_SYMBOLS``."""
        if symbol[0] == "K":
            return cls.k_gen(symbol[1], symbol[2])
        return (cls.f_gen if symbol[0] == "F" else cls.e_gen)(symbol[1])

    # -- algebra ----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, UqElement):
            return self._scalar_mul(other)
        out = {}
        for (f1, k1, e1), c1 in self.terms.items():
            vec = other.terms
            for i in reversed(e1):
                vec = _e_times(i, vec)
            for (f, k, e), c in vec.items():
                if any(k1):
                    t = sum(sum(map(mul, k1, CARTAN[j])) for j in f)
                    c = c * _Q(-t) if t else c
                    k = tuple(map(add, k1, k))
                for fw, fc in _sum_normal_forms([(f1 + f, c1 * c)]).items():
                    add_into(out, (fw, k, e), fc)
        return UqElement._make(out)

    def __rmul__(self, other):
        return self._scalar_mul(other)

    @staticmethod
    def _mon(key):
        fw, k, ew = key
        factors = [LETTER_NAMES[i] for i in fw]
        factors += [
            K_NAMES[i] + ("" if e == 1 else "^%d" % e)
            for i, e in enumerate(k) if e
        ]
        factors += [E_NAMES[i] for i in ew]
        return "*".join(factors)


# ------------------------------------------------------------- w letters


@lru_cache(maxsize=None)
def w_gen(i: int) -> UqElement:
    """The quadratic-algebra generators inside the lowering subalgebra."""
    if i == 1:
        return UqElement.f_gen(BETA)
    if i == 2:
        fm, fb = UqElement.f_gen(MU), UqElement.f_gen(BETA)
        return fm * fb - (fb * fm).scale(_Q(1))
    if i == 3:
        fn, fb = UqElement.f_gen(NU), UqElement.f_gen(BETA)
        return fn * fb - (fb * fn).scale(_Q(1))
    if i == 4:
        fm, w3 = UqElement.f_gen(MU), w_gen(3)
        return fm * w3 - (w3 * fm).scale(_Q(1))
    raise ValueError("generator index must be 1..4, got %r" % (i,))


def w_embed(a: AqElement) -> UqElement:
    """Expand a quadratic-algebra element through w1..w4 and reduce."""
    out = UqElement.zero()
    for gamma, c in a.terms.items():
        piece = UqElement.one()
        for i, n in enumerate(gamma):
            for _ in range(n):
                piece = piece * w_gen(i + 1)
        out = out + piece.scale(c)
    return out


# --------------------------------------------------------- star action


def _mu_star(kind, k, gamma):
    """The terms (gamma', coefficient) of a mu generator acting on w^gamma."""
    a, b, c, d = gamma
    if kind == "F":
        return ((a - 1, b + 1, c, d), q_int(a)), ((a, b, c - 1, d + 1), _Q(a - b) * q_int(c))
    if kind == "E":
        return ((a + 1, b - 1, c, d), _Q(d - c) * q_int(b)), ((a, b, c + 1, d - 1), q_int(d))
    return ((gamma, _Q(k * (a - b + c - d))),)


def _swap23(gamma):
    return gamma[0], gamma[2], gamma[1], gamma[3]


def _same(gamma):
    return gamma


def star_act(symbol, a: AqElement) -> AqElement:
    """The co-adjoint action of a mu/nu generator on the quadratic algebra.

    On w^gamma = w1^a w2^b w3^c w4^d the mu generators act by

        Fm |> w^gamma   = [a]_q w^(gamma-e1+e2) + q^(a-b) [c]_q w^(gamma-e3+e4)
        Em |> w^gamma   = q^(d-c) [b]_q w^(gamma+e1-e2) + [d]_q w^(gamma+e3-e4)
        Km^k |> w^gamma = q^(k(a-b+c-d)) w^gamma

    and Fn, En, Kn by the mirror image, with w2 and w3 swapped.  This is
    the degree-1 star table extended by the Leibniz rule of the
    module-algebra structure, Delta'(F) = F x 1 + K x F,
    Delta'(E) = E x K^-1 + 1 x E, Delta'(K) = K x K (Klimyk & Schmuedgen,
    *Quantum Groups and Their Representations*, 1997, ch. 1).  The tests
    check it against the Hopf projection sum_i b_i a S(a_i) with the
    counit on the Cartan and raising parts.
    """
    kind, i = symbol[0], symbol[1]
    if i not in (MU, NU):
        raise ValueError("star action is defined for the mu/nu subalgebra only")
    if kind not in ("F", "E", "K"):
        raise ValueError("unknown generator symbol %r" % (symbol,))
    k = symbol[2] if len(symbol) > 2 else 1
    mirror = _swap23 if i == NU else _same
    out = {}
    for gamma, c in a.terms.items():
        for g, t in _mu_star(kind, k, mirror(gamma)):
            add_into(out, mirror(g), c * t)
    return AqElement._make(out)


# -------------------------------------------------------- PBW coordinates
#
# The engine reads no PBW coordinates: the tests do, through these names,
# and the perfbench worker reads the cache_info() of the two memo tables on
# every pass.


@lru_cache(maxsize=None)
def _w_pbw_basis(content):
    """PBW items (gamma, r, s) for w^gamma F_mu^r F_nu^s at a multidegree."""
    a, b, c = content  # counts of mu, nu, beta
    items = []
    for g1 in range(c + 1):
        for g2 in range(c + 1 - g1):
            for g3 in range(c + 1 - g1 - g2):
                g4 = c - g1 - g2 - g3
                r = a - g2 - g4
                s = b - g3 - g4
                if r >= 0 and s >= 0:
                    items.append(((g1, g2, g3, g4), r, s))
    return tuple(sorted(items))


@lru_cache(maxsize=4096)
def _w_pbw_matrix(fword):
    """PBW coordinates of one F word: {(gamma, r, s): LaurentPoly} for w^gamma F_mu^r F_nu^s.

    A fold of left multiplication from the right, in the PBW order
    w1 < w2 < w3 < w4 < F_mu < F_nu (Levendorskii-Soibelman; Lusztig,
    *Introduction to Quantum Groups*, 1993).  F_beta = w1 leads, so it
    raises gamma_1; F_mu and F_nu act by F x = (F |> x) + (K |> x) F on
    x = w^gamma, with the star coefficients of ``_mu_star`` and its mirror,
    and F joins F_mu^r F_nu^s on the left, since F_nu F_mu = F_mu F_nu.
    """
    row = {((0, 0, 0, 0), 0, 0): _ONE}
    for letter in reversed(fword):
        mirror = _swap23 if letter == NU else _same
        out = {}
        for (gamma, r, s), c in row.items():
            if letter == BETA:  # one-to-one on the items: nothing to sum
                out[(gamma[0] + 1,) + gamma[1:], r, s] = c
                continue
            g = mirror(gamma)
            for moved, t in _mu_star("F", 1, g):
                add_into(out, (mirror(moved), r, s), c * t)
            ((_, t),) = _mu_star("K", 1, g)
            add_into(out, (gamma, r + (letter == MU), s + (letter == NU)), c * t)
        row = out
    return row
