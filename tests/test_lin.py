import ast
from fractions import Fraction
from pathlib import Path

import pytest

from quadalg import lin
from quadalg.aq import AqElement, center_element, normal_order
from quadalg.lin import Lin, add_into, add_scaled, rewrite
from quadalg.qcalc import Poly4, QOperator, mul_z, qdiff
from quadalg.ring import LaurentPoly, RatQ
from quadalg.transform import DualFunctional, box_operator, right_dual_closed
from quadalg.uq import MU, UqElement, w_gen
from quadalg.verma import VermaVector

from hopf_oracle import TensorSum, coproduct

Q = LaurentPoly.q


def _samples():
    """Per class: two overlapping elements and the coefficient type."""
    fm, em, km_inv = UqElement.f_gen(MU), UqElement.e_gen(MU), UqElement.k_gen(MU, -1)
    return [
        (normal_order((4, 1)), center_element(), LaurentPoly),
        (w_gen(2), em * fm + fm.scale(Q(1)), RatQ),
        (
            Poly4({(1, 0, 0, 0): 2, (0, 1, 0, 0): Q(1)}),
            Poly4({(0, 1, 0, 0): RatQ(Q(1), Q(1) + 1), (0, 0, 0, 3): -1}),
            RatQ,
        ),
        (box_operator(), right_dual_closed(1), RatQ),
        (
            DualFunctional({(0, 0, 0, 1): Q(1), (1, 0, 0, 0): 2}),
            DualFunctional.indicator((0, 0, 0, 1)),
            LaurentPoly,
        ),
        (
            VermaVector({(MU,): 1, (): Q(1)}),
            VermaVector({(MU,): RatQ(Q(1), Q(1) + 1)}),
            RatQ,
        ),
        (coproduct(fm), TensorSum.from_pairs([(fm, km_inv), (em, fm)]), RatQ),
    ]


SAMPLES = _samples()


@pytest.mark.parametrize("x, y, scalar", SAMPLES, ids=lambda v: type(v).__name__)
def test_linear_structure(x, y, scalar):
    cls = type(x)
    assert x and y
    assert not x - x and x - x == cls.zero()
    assert not (x + (-x))
    assert not x.scale(0) and x.scale(0) == cls.zero()
    # the same element along different paths: equal, with equal hashes
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    assert x + y == y + x and hash(x + y) == hash(y + x)
    assert x - y == -(y - x)
    for z in (x + y, x - y, -x, x.scale(3), x.scale(Q(-1)), y.scale(-2)):
        assert z.terms and all(type(c) is scalar and c for c in z.terms.values())


def test_laurent_poly_linear_structure():
    x, y = Q(1) + Fraction(1, 2), Q(-1) - 3 * Q(1)
    assert isinstance(x, Lin)
    assert not x - x and x - x == LaurentPoly.zero()
    assert not (x + (-x))
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    assert x * y == y * x and hash(x * y) == hash(y * x)
    assert hash(x * (y + 1)) == hash(x * y + x)
    for z in (x + y, x - y, -x, x * y, x.scale(3)):
        assert z.terms and all(type(c) in (int, Fraction) and c for c in z.terms.values())


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_lin_subclass_names_its_own_coerce():
    subs = set(_subclasses(Lin))
    assert len(subs) == 8
    assert not hasattr(Lin, "coerce")
    assert [c.__name__ for c in subs if "coerce" not in vars(c)] == []


def test_lin_imports_nothing_from_the_package():
    tree = ast.parse(Path(lin.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.dump(node)
            assert not (node.module or "").startswith("quadalg"), ast.dump(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("quadalg") for a in node.names), ast.dump(node)


def unused_imports(source):
    """The names bound by top-level imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_module_keeps_an_unused_import():
    assert unused_imports("import json\nimport re\nfrom .lin import Lin\nR = re.compile(Lin)\n") == ["json"]
    package = Path(lin.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 13
    for path in modules:
        assert unused_imports(path.read_text()) == [], path.name


# Memos with no bound, each with the reason it may stay unbounded.  Those
# that grow with the input are open under ROADMAP item 7; no new one may join.
UNBOUNDED_MEMOS = {
    "aq._d_past_a": "open: grows with the w-exponents of the products",
    "cli._shared_parser": "takes no argument: one parser",
    "dirac.dirac_parts": "one entry per D+- variant",
    "dirac.dirac_matrix": "one entry per D+- variant",
    "qcalc._divided_factor": "open: grows with the multi-indices an operator meets",
    "transform.box_operator": "takes no argument: one operator",
    "transform.dual_w1_parts": "takes no argument: one pair of operators",
    "transform.right_dual_closed": "one entry per closed dual, five in all",
    "uq.words_of_content": "open: grows with the contents reached",
    "uq.component": "open: grows with the contents reached",
    "uq.w_gen": "one entry per generator, four in all",
    "uq._w_pbw_basis": "open: grows with the contents reached",
    "uq._w_pbw_matrix": "open: grows with the F-words reached",
}


def _callee(node):
    f = node.func if isinstance(node, ast.Call) else node
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def unbounded_memos(source):
    """The functions of ``source`` memoised with no bound, by ``lru_cache(maxsize=None)``
    or ``cache``; such a memo made outside a decorator is named by its line."""
    tree = ast.parse(source)
    owner = {
        id(d): f.name for f in ast.walk(tree)
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) for d in f.decorator_list
    }
    out = []
    for node in ast.walk(tree):
        name = _callee(node) if isinstance(node, (ast.Call, ast.Name, ast.Attribute)) else None
        if name == "lru_cache" and isinstance(node, ast.Call):
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None)
            unbounded = isinstance(size, ast.Constant) and size.value is None
        else:
            unbounded = name == "cache" and (isinstance(node, ast.Call) or id(node) in owner)
        if unbounded:
            out.append(owner.get(id(node), "line %d" % node.lineno))
    return sorted(out)


def test_no_new_memo_is_unbounded():
    assert unbounded_memos(
        "@lru_cache(maxsize=None)\ndef a(): pass\n@functools.lru_cache(None)\ndef b(): pass\n"
        "@lru_cache(maxsize=64)\ndef c(): pass\n@lru_cache\ndef d(): pass\n@cache\ndef e(): pass\n"
        "f = lru_cache(maxsize=None)(len)\n"
    ) == ["a", "b", "e", "line 11"]
    found = {
        "%s.%s" % (path.stem, name)
        for path in Path(lin.__file__).parent.glob("*.py")
        for name in unbounded_memos(path.read_text())
    }
    assert found == set(UNBOUNDED_MEMOS)
    assert all(reason and "\n" not in reason for reason in UNBOUNDED_MEMOS.values())


def power_owners(source):
    """The classes of ``source`` that define or assign ``__pow__``."""
    return sorted(
        cls.name for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
        if any(isinstance(n, ast.FunctionDef) and n.name == "__pow__"
               or isinstance(n, ast.Name) and n.id == "__pow__" and isinstance(n.ctx, ast.Store)
               for n in ast.walk(cls))
    )


def test_only_lin_defines_a_power_rule():
    assert power_owners(
        "class A:\n    def __pow__(self, n): pass\n"
        "class B:\n    __pow__ = f\n"
        "class C:\n    p = __pow__\n"
    ) == ["A", "B"]
    found = {
        "%s.%s" % (path.stem, name)
        for path in Path(lin.__file__).parent.glob("*.py")
        for name in power_owners(path.read_text())
    }
    assert found == {"lin.Lin"}


def rewrite_callers(source):
    """The functions of ``source`` that call ``rewrite``, bare or as an attribute."""
    return sorted(
        f.name for f in ast.walk(ast.parse(source))
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        if any(isinstance(n, ast.Call) and _callee(n) == "rewrite" for n in ast.walk(f))
    )


def test_only_the_pbw_rows_run_rewrite():
    # U_q products are straightened and q-difference operators composed in
    # closed form, not by rewriting words
    assert rewrite_callers(
        "def a():\n    rewrite(v, s)\n"
        "def b():\n    return lin.rewrite(v, s)\n"
        "def c():\n    rewritten(v)\n"
        "def d():\n    step = rewrite\n"
    ) == ["a", "b"]
    found = {
        "%s.%s" % (path.stem, name)
        for path in Path(lin.__file__).parent.glob("*.py")
        for name in rewrite_callers(path.read_text())
    }
    assert found == {"uq._w_pbw_matrix"}


@pytest.mark.parametrize("x", [
    Q(1) * 2 - Q(-1),
    AqElement.generator(1) + AqElement.generator(4),
    UqElement.f_gen(MU) + UqElement.e_gen(MU),
    mul_z(2) + qdiff(1),
], ids=["LaurentPoly", "AqElement", "UqElement", "QOperator"])
def test_powers_start_from_one_and_refuse_negative_exponents(x):
    assert x ** 0 == type(x).one()
    assert x ** 1 == x and x ** 3 == x * x * x
    with pytest.raises(ValueError):
        x ** -1


def test_rendering_keeps_unit_and_coefficient_forms():
    assert str(AqElement.zero()) == "0"
    assert str(AqElement.one().scale(2) + AqElement.generator(1)) == "(2) + w1"
    assert str(DualFunctional.indicator((0, 0, 0, 1))) == "(1)*delta((0, 0, 0, 1),)"
    assert str(VermaVector.highest_weight()) == "(1)*1*v"
    assert str(VermaVector({(MU,): 1, (MU, MU): Q(1)})) == "Fm*v + (q)*Fm*Fm*v"
    assert repr(QOperator.one()) == "QOperator((1))"


def test_add_into_drops_zero_sums():
    acc = {}
    add_into(acc, "a", LaurentPoly.zero())
    assert acc == {}
    add_into(acc, "a", Q(1))
    add_into(acc, "b", Q(2))
    add_into(acc, "a", -Q(1))
    assert acc == {"b": Q(2)}
    add_into(acc, "b", Q(-1))
    assert acc == {"b": Q(2) + Q(-1)} and all(acc.values())


def test_add_scaled_drops_zero_sums_and_leaves_row_alone():
    q = RatQ(Q(1))
    row = {"a": q, "b": RatQ(1), "c": RatQ(1, Q(1) + 1)}
    before = dict(row)
    acc = {"a": q * 2, "b": RatQ(2), "c": RatQ(2, Q(1) + 1), "d": RatQ(5)}
    add_scaled(acc, row, RatQ(-2))
    assert acc == {"d": RatQ(5)}
    add_scaled(acc, row, q)
    assert acc == {"d": RatQ(5), "a": q * q, "b": q, "c": RatQ(Q(1), Q(1) + 1)}
    add_scaled(acc, row, RatQ(0))
    assert len(acc) == 4 and all(acc.values())
    add_scaled(acc, row, -q)
    assert acc == {"d": RatQ(5)}
    assert row == before and all(row[k] is before[k] for k in row)


def _spied(rules):
    """A ``step`` over string words with the leading letter rewritten by ``rules``, and its calls."""
    calls = []

    def step(word):
        calls.append(word)
        rhs = rules.get(word[:1])
        return None if rhs is None else [(w + word[1:], f) for w, f in rhs]

    return step, calls


def test_rewrite_merges_words_reached_along_different_paths():
    step, calls = _spied({"x": [("y", 1), ("z", 2)], "y": [("w", 1)], "z": [("w", 3)]})
    assert rewrite({"xa": Fraction(1, 2)}, step) == {"wa": Fraction(7, 2)}
    # "wa" comes from "ya" and from "za" in the same round and is looked at once
    assert sorted(calls) == ["wa", "xa", "ya", "za"]


def test_rewrite_moves_the_coefficient_on_a_unit_factor():
    step, calls = _spied({"x": [("y", None), ("z", 2)], "y": [("w", None)]})
    c = RatQ(Q(1), Q(1) + 1)
    out = rewrite({"xa": c}, step)
    assert out == {"wa": c, "za": c * 2}
    # a factor None forms no product: the coefficient object itself arrives
    assert out["wa"] is c


def test_rewrite_drops_cancelling_terms():
    step, calls = _spied({"x": [("y", 1), ("z", -1)], "y": [("w", 1)], "z": [("w", 1)]})
    assert rewrite({"x": Q(1), "v": Q(2)}, step) == {"v": Q(2)}
    assert "w" not in calls


def test_rewrite_leaves_a_normal_combination_unchanged():
    step, calls = _spied({"x": [("y", 1)]})
    vec = {"ab": Q(1), "b": 3, "": Fraction(1, 3)}
    before = dict(vec)
    assert rewrite(vec, step) == before
    assert vec == before and sorted(calls) == sorted(before)
    assert rewrite({}, step) == {}


@pytest.mark.parametrize("x", [
    AqElement.generator(1), UqElement.f_gen(MU), box_operator(),
], ids=lambda v: type(v).__name__)
def test_element_times_any_coercible_scalar(x):
    cls = type(x)
    assert "__mul__" in cls.__dict__ and "__rmul__" in cls.__dict__
    scalars = [2, Fraction(1, 2), Q(1) - 1]
    if cls is not AqElement:
        scalars.append(RatQ(Q(1), Q(1) + 1))
    for c in scalars:
        assert x * c == x.scale(c) == c * x, c
    for bad in (1.5, "2", None):
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad * x
    foreign = RatQ(Q(1), Q(1) + 1) if cls is AqElement else AqElement.one()
    with pytest.raises(TypeError):
        x * foreign
