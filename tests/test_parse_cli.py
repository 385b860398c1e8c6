import argparse
import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quadalg
from quadalg import dirac, verma
from quadalg.aq import AqElement, center_element
from quadalg.cli import main
from quadalg.parse import ParseError, parse_expression
from quadalg.qcalc import QOperator, compose, mul_z, qdiff, scaling
from quadalg.ring import LaurentPoly, RatQ
from quadalg.transform import box_operator
from quadalg.uq import BETA, MU, NU, UqElement, straighten_word, w_gen

Q = LaurentPoly.q
ONE = LaurentPoly.one()


# ------------------------------------------------------------ the parser

def test_parse_aq():
    kind, value = parse_expression("w4*w1")
    assert kind == "aq"
    assert value == AqElement.generator(4) * AqElement.generator(1)
    kind, value = parse_expression("w1*w4 - (q)*w2*w3")
    assert value == center_element()


def test_parse_uq():
    kind, value = parse_expression("Fn*Fb - (q)*Fb*Fn")
    assert kind == "uq"
    assert value == w_gen(3)
    kind, value = parse_expression("Km^-1")
    assert value == UqElement.k_gen(MU, -1)


def test_parse_operator_box():
    kind, value = parse_expression("K_2 K_3 d_1 d_4 - (q) d_2 d_3")
    assert kind == "op"
    assert value == box_operator()
    kind, value = parse_expression("K_2.K_3.d_1.d_4 - (q)*d_2*d_3")
    assert value == box_operator()


def test_parse_powers_and_scalars():
    kind, value = parse_expression("(q - q^-1)*w2*w3 + w1^2")
    assert kind == "aq"
    assert value == AqElement(
        {(0, 1, 1, 0): Q(1) - Q(-1), (2, 0, 0, 0): LaurentPoly.one()}
    )
    kind, value = parse_expression("(1/2)*w1")
    assert value == AqElement.generator(1).scale(LaurentPoly.const(RatQ(1, 2).num.terms[0]))
    kind, value = parse_expression("3*w1 - w1 - w1 - w1")
    assert not value


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_expression("w1*Fb")  # mixed families
    with pytest.raises(ParseError):
        parse_expression("w5")
    with pytest.raises(ParseError):
        parse_expression("w1 +")
    with pytest.raises(ParseError):
        parse_expression("w1^-1")
    with pytest.raises(ParseError):
        parse_expression("d_1 * w1")
    err = None
    try:
        parse_expression("w1 * !")
    except ParseError as exc:
        err = exc
    assert err is not None and "position" in str(err)


@pytest.mark.parametrize(
    "text, kind, cls",
    [
        ("w2*w3 - w1", "aq", AqElement),
        ("Fm*Km^-1 + Eb", "uq", UqElement),
        ("z_1 d_1 K_2^-1", "op", QOperator),
        ("(q + 2)/(q - 1) - 3", "scalar", RatQ),
    ],
)
def test_parse_expression_names_the_family_of_its_value(text, kind, cls):
    got, value = parse_expression(text)
    assert (got, type(value)) == (kind, cls)


@pytest.mark.parametrize(
    "text, message",
    [
        ("w1*Fb", "cannot mix uq and aq symbols in one expression (at position 2)"),
        ("Fm + 2 + d_1", "cannot mix op and uq symbols in one expression (at position 7)"),
        ("d_1 * w1", "cannot mix aq and op symbols in one expression (at position 4)"),
        ("(q)*z_1 + w4", "cannot mix aq and op symbols in one expression (at position 8)"),
        ("w1^-1", "negative powers are only defined for K symbols (at position 0)"),
        ("Fm^-2", "negative powers are only defined for K symbols (at position 0)"),
        ("2*d_1^-1", "negative powers are only defined for K symbols (at position 2)"),
        ("z_3^-1*K_1", "negative powers are only defined for K symbols (at position 0)"),
        ("Fm/2", "division is defined between scalars only (at position 2)"),
        ("(w1)", "expected a scalar (at position 0)"),
    ],
)
def test_parse_errors_keep_their_text_and_position(text, message):
    with pytest.raises(ParseError) as exc:
        parse_expression(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, kind, expected",
    [
        ("((q)/(q^2 + 1))*Fm", "uq", UqElement.f_gen(MU).scale(RatQ(Q(1), Q(2) + ONE))),
        ("(q^2 * -1)*Fm", "uq", UqElement.f_gen(MU).scale(-Q(2))),
        ("(- - 2)", "scalar", RatQ(2)),
        ("(q + 1/2)*w1", "aq", AqElement.generator(1).scale(Q(1) + LaurentPoly.const(Fraction(1, 2)))),
        ("(1 - q^-2)*d_1", "op", qdiff(1).scale(ONE - Q(-2))),
    ],
)
def test_scalar_literals_parse_to_fixed_values(text, kind, expected):
    assert parse_expression(text) == (kind, expected)


@pytest.mark.parametrize(
    "text, same_as",
    [
        ("w1 * -w2", "-w1*w2"),
        ("--w1", "w1"),
        ("(2.q)", "(2*q)"),
        ("1/2*w1", "(1/2)*w1"),
        ("-Fm * -(q)Fb", "(q)*Fm*Fb"),
    ],
)
def test_signs_dots_and_division_in_either_context(text, same_as):
    assert parse_expression(text) == parse_expression(same_as)


@pytest.mark.parametrize("text", ["(w1 - w1)", "w1*2/3", "()"])
def test_parenthesized_and_divided_non_scalars_are_rejected(text):
    with pytest.raises(ParseError):
        parse_expression(text)


def test_negative_k_powers():
    kind, value = parse_expression("K_4^-2")
    assert value == scaling(4, -2)
    kind, value = parse_expression("Kb^-1 * Kb")
    assert value == UqElement.one()


@pytest.mark.parametrize("text, products", [
    ("w1", 0), ("Fm", 0), ("d_1", 0), ("K_1^-1", 0), ("2*Fm", 0), ("Fm*(q - q^-1)", 0),
    ("(q^2 + 1)*w1", 0), ("Fm^3", 2), ("w1^2", 1), ("d_1^3", 2), ("2*d_1*3", 0),
])
def test_parsing_takes_no_product_by_the_unit(text, products, monkeypatch):
    # a symbol is built as it is and a scalar factor scales: only a power's
    # n - 1 products and the products the input writes remain
    from quadalg import parse, qcalc

    calls = []

    def counted(fn):
        return lambda *args: calls.append(fn) or fn(*args)

    monkeypatch.setattr(AqElement, "__mul__", counted(AqElement.__mul__))
    monkeypatch.setattr(UqElement, "__mul__", counted(UqElement.__mul__))
    monkeypatch.setattr(qcalc, "compose", counted(qcalc.compose))
    monkeypatch.setattr(parse, "compose", qcalc.compose)
    value = parse_expression(text)[1]
    assert len(calls) == products
    monkeypatch.undo()
    assert value == parse_expression(text)[1]


SCALAR_FACTORS = ("2", "(q - q^-1)", "(q^2 + 1)", "(q + 1/2)", "(q^-3)", "(0)")
NON_LAURENT_FACTORS = ("((q)/(q^2 + 1))", "(1/(q + 1))")


@pytest.mark.parametrize("family, elements", [
    ("aq", ("w4*w1", "w1 + w2^2*w3", "w4^3")),
    ("uq", ("Em*Fm", "Fn*Fb - (q)*Fb*Fn", "Kb^-1*En + Fm^2")),
    ("op", ("d_1*z_1", "K_2 K_3 d_1 d_4 - (q) d_2 d_3", "z_2^2*K_2^-1")),
])
def test_a_scalar_factor_scales_as_its_promotion_multiplies(family, elements):
    # scalars are central: scaling an element equals the product with the
    # scalar promoted into its family, with the scalar on either side
    from quadalg.parse import _promote, combine

    scalars = SCALAR_FACTORS + (NON_LAURENT_FACTORS if family != "aq" else ())
    for s in (parse_expression(text)[1] for text in scalars):
        for x in (parse_expression(text)[1] for text in elements):
            promoted = _promote(s, family, 0)
            for got, want in ((combine(s, x, "*", 0), promoted * x),
                              (combine(x, s, "*", 0), x * promoted)):
                assert type(got) is type(want) and got == want, (s, x)
                assert str(got) == str(want)


@pytest.mark.parametrize("argv, scalar", [
    (("normalize", "((q)/(q^2 + 1))*w1"), "(q)/(q^2 + 1)"),
    (("normalize", "w1*(1/(q + 1))"), "(1)/(q + 1)"),
    (("mul", "(1/(q + 1))", "w2"), "(1)/(q + 1)"),
    (("mul", "w2", "((q)/(q^2 + 1))"), "(q)/(q^2 + 1)"),
])
def test_a_non_laurent_scalar_times_a_w_symbol_exits_2(argv, scalar, capsys):
    assert main(list(argv)) == 2
    assert capsys.readouterr() == ("", "error: not a Laurent polynomial: %s\n" % scalar)


# ------------------------------------------------- print/parse roundtrip

def rand_aq(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        g = tuple(rng.randint(0, 2) for _ in range(4))
        terms[g] = Q(rng.randint(-2, 2)) + LaurentPoly.const(rng.randint(0, 2))
    return AqElement(terms)


def rand_uq(rng):
    el = UqElement.one()
    gens = [UqElement.f_gen(i) for i in (MU, NU, BETA)]
    gens += [UqElement.e_gen(i) for i in (MU, NU, BETA)]
    gens += [UqElement.k_gen(i, e) for i in (MU, NU, BETA) for e in (-1, 1)]
    for _ in range(rng.randint(1, 3)):
        el = el * rng.choice(gens)
    return el.scale(Q(rng.randint(-1, 1)))


def rand_op(rng):
    ops = [qdiff(i) for i in (1, 2, 3, 4)]
    ops += [scaling(i, e) for i in (1, 2, 3, 4) for e in (-1, 1, 2)]
    ops += [mul_z(i) for i in (1, 2, 3, 4)]
    el = QOperator.one()
    for _ in range(rng.randint(1, 3)):
        el = compose(el, rng.choice(ops))
    return el.scale(Q(rng.randint(-1, 1)) + LaurentPoly.const(rng.randint(0, 1)))


def test_roundtrip_non_laurent_coefficient():
    value = straighten_word([("E", BETA), ("F", BETA)])
    assert any(not c.is_laurent() for c in value.terms.values())
    assert parse_expression(str(value)) == ("uq", value)


def test_roundtrip_corpus_50():
    rng = random.Random(20240812)
    count = 0
    for maker in (rand_aq, rand_uq, rand_op):
        for _ in range(17):
            value = maker(rng)
            if not value:
                continue
            printed = str(value)
            kind, reparsed = parse_expression(printed)
            assert reparsed == value, printed
            count += 1
    assert count >= 45


# ------------------------------------------------------------- CLI layer

def run_cli(*argv):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_cli_normalize():
    code, out = run_cli("normalize", "w4*w1")
    assert code == 0
    assert "w1*w4" in out and "w2*w3" in out


def test_cli_mul_json():
    code, out = run_cli("mul", "w4^2", "w1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "aq"
    assert "w2*w3*w4" in payload["product"]


def test_cli_serre_reduce():
    code, out = run_cli(
        "serre-reduce", "Fm*Fm*Fb - (q + q^-1)*Fm*Fb*Fm + Fb*Fm*Fm", "--json"
    )
    assert code == 0
    assert json.loads(out)["is_zero"] is True


def test_cli_dims():
    code, out = run_cli("dims", "--max-degree", "3", "--json")
    assert code == 0
    assert json.loads(out)["dimensions"] == [1, 3, 8, 17]


def test_cli_dims_at_degree_12():
    # coefficients of 1/((1-t)^3 (1-t^2)^2 (1-t^3))
    want = [1, 3, 8, 17, 33, 58, 97, 153, 233, 342, 489, 681, 930]
    code, out = run_cli("dims", "--max-degree", "12", "--json")
    assert code == 0
    assert json.loads(out) == {"max_degree": 12, "dimensions": want}


def test_cli_star():
    code, out = run_cli("star", "--k", "Fm", "--w", "1", "--json")
    assert code == 0
    assert json.loads(out)["result"] == "w2"


def test_cli_dual():
    code, out = run_cli("dual", "--generator", "4", "--check-degree", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_agrees"] is True
    assert payload["closed_form"] == "d_4"


def test_cli_dirac():
    code, out = run_cli("dirac", "--which", "plus")
    assert code == 0
    assert "d_4" in out
    with pytest.raises(SystemExit) as exc:
        run_cli("dirac", "--which", "plus", "--show")
    assert exc.value.code == 2


@pytest.mark.parametrize("variant", list(dirac._LAYOUT))
def test_cli_dirac_prints_each_variant_of_the_table(variant):
    code, out = run_cli("dirac", "--which", variant, "--json")
    assert code == 0
    matrix = dirac.dirac_matrix(variant)
    entries = [[str(matrix[i, j]) for j in (0, 1)] for i in (0, 1)]
    assert json.loads(out) == {"which": variant, "entries": entries}
    assert dirac.intertwine_check(3, variant)


@pytest.mark.parametrize("convention", list(verma.CONVENTIONS))
def test_singular_vector_vanishes_exactly_at_minus_twice_the_sign(convention):
    expected_x = -2 * verma.CONVENTIONS[convention]
    code, out = run_cli("verify", "singular-vector", "--convention", convention, "--scan=-6..6", "--json")
    assert code == 0
    checks = [c for c in json.loads(out)["checks"] if "vanishing" in c["name"]]
    assert checks == [{"name": "generic vanishing exactly at x=%d" % expected_x, "ok": True, "witness": None}]
    code, out = run_cli("singular-vector", "--convention", convention, "--scan=-6..6", "--json")
    assert code == 0
    assert json.loads(out)["vanishing_x"] == [expected_x]


def test_cli_choices_are_the_table_keys():
    from quadalg import cli

    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def choices(command, option):
        return tuple(next(a.choices for a in commands.choices[command]._actions if option in a.option_strings))

    assert choices("dirac", "--which") == tuple(dirac._LAYOUT)
    assert choices("singular-vector", "--convention") == tuple(verma.CONVENTIONS)
    assert choices("verify", "--convention") == tuple(verma.CONVENTIONS)


def test_cli_singular_vector():
    code, out = run_cli("singular-vector", "--x", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["x"] == 4
    assert payload["vanishing_x"] == [2]
    assert payload["root_of_unity_orders"] == [4]
    assert payload["E_nu"] == "0"
    assert payload["convention"] == "twisted"


def test_cli_verify_pass_and_exit_codes():
    code, out = run_cli("verify", "aq-relations", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["checks"]) == 10


def test_cli_parse_error_exit_2():
    code, _ = run_cli("normalize", "w1*Fb")
    assert code == 2


def test_cli_reports_byte_identical():
    for suite in ("aq-relations", "dims"):
        first = run_cli("verify", suite, "--json")[1]
        second = run_cli("verify", suite, "--json")[1]
        assert first == second


def child_env():
    """The environment of a child interpreter that imports the quadalg under test."""
    src = os.path.dirname(os.path.dirname(quadalg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_cli_subprocess_end_to_end():
    env = child_env()
    cmd = [sys.executable, "-m", "quadalg", "verify", "aq-power-identity", "--json"]
    a = subprocess.run(cmd, capture_output=True, text=True, env=env)
    b = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["ok"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("normalize", "(1/(q+1))*w1"),
        ("mul", "(1/(q+1))", "w1"),
        ("mul", "w1", "Fm"),
        ("verify", "dims", "--degree", "-1", "--json"),
        ("dims", "--max-degree", "-3"),
        ("verify", "aq-relations", "--degree", "3", "--json"),
        ("verify", "singular-vector", "--degree", "3"),
        ("verify", "dims", "--scan", "0..3", "--convention", "plain"),
        ("verify", "dims", "--scan", "0..3"),
        ("verify", "box", "--convention", "twisted", "--json"),
        ("normalize", "(w1)"),
        ("normalize", "w1/2"),
        ("normalize", "(1/0)"),
        ("normalize", "(d_1)*w1"),
    ],
)
def test_cli_rejects_with_exit_2_and_no_traceback(argv, capsys):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("normalize", "(" * 1200 + "w1" + ")" * 1200),
        ("normalize", "--", "-" * 2000 + "1"),
    ],
    ids=["nested-parentheses", "signs"],
)
def test_cli_input_past_the_recursion_limit_exits_2_without_traceback(argv):
    # a fresh interpreter, at the default recursion limit
    run = subprocess.run([sys.executable, "-m", "quadalg", *argv],
                         capture_output=True, text=True, env=child_env())
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize(
    ("power", "digest"),
    [
        (300, "cfbf0c7ace97f5806835d8a318865c51de4130c31cbfd222f9170347630289d5"),
        (1000, "3c8de907ab225e05725114edcb1210003298e7a0e777f129cf59817855406174"),
    ],
    ids=["Fm^300", "Fm^1000"],
)
def test_cli_reduces_long_serre_words_at_the_default_recursion_limit(power, digest):
    # a fresh interpreter, at the default recursion limit; the digests were
    # taken from the recursive normal forms under a raised recursion limit
    argv = ["serre-reduce", "Fb*Fm^%d" % power, "--json"]
    run = subprocess.run([sys.executable, "-m", "quadalg", *argv],
                         capture_output=True, text=True, env=child_env())
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["serre-reduce", "normalize"])
def test_cli_refuses_a_word_whose_normal_forms_pass_the_memo_bound(command):
    # Fm^n memoises the words Fm^1 .. Fm^n, n (n + 1) / 2 letters: 12.5 M for n = 5000
    run = subprocess.run([sys.executable, "-m", "quadalg", command, "Fm^5000"],
                         capture_output=True, text=True, env=child_env())
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert "MAX_NF_LETTERS = 10000000" in run.stderr


@pytest.mark.parametrize(
    ("expression", "expected"),
    [
        # w4^n w1 = w1 w4^n - (q - q^(1-2n)) w2 w3 w4^(n-1), n = 1200
        ("w4^1200*w1", AqElement({(1, 0, 0, 1200): ONE, (0, 1, 1, 1199): Q(-2399) - Q(1)})),
        # w4 w1^n = w1^n w4 - (q - q^(1-2n)) w1^(n-1) w2 w3, n = 1100
        ("w4*w1^1100", AqElement({(1100, 0, 0, 1): ONE, (1099, 1, 1, 0): Q(-2199) - Q(1)})),
    ],
    ids=["w4^1200*w1", "w4*w1^1100"],
)
def test_cli_normalizes_high_powers_at_the_default_recursion_limit(expression, expected):
    # a fresh interpreter, at the default recursion limit
    run = subprocess.run([sys.executable, "-m", "quadalg", "normalize", expression, "--json"],
                         capture_output=True, text=True, env=child_env())
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert json.loads(run.stdout) == {"kind": "aq", "normal_form": str(expected)}


def test_cli_builds_its_parser_once(monkeypatch):
    from quadalg import cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._shared_parser.cache_clear()
    assert run_cli("dims", "--max-degree", "2")[0] == 0
    assert run_cli("normalize", "w4*w1")[0] == 0
    assert len(built) == 1
    assert build() is not build()


def test_run_suite_rejects_negative_degree():
    from quadalg.suites import run_suite

    with pytest.raises(ValueError):
        run_suite("dims", degree=-1)


@pytest.mark.parametrize(
    "name, options",
    [
        ("aq-relations", {"degree": 3}),
        ("singular-vector", {"degree": 0}),
        ("dims", {"scan": range(0, 4)}),
        ("dims", {"convention": "plain"}),
    ],
)
def test_run_suite_rejects_options_the_suite_does_not_take(name, options):
    from quadalg.suites import run_suite

    with pytest.raises(ValueError):
        run_suite(name, **options)


def test_cli_verify_applies_the_options_a_suite_takes():
    code, out = run_cli("verify", "dims", "--degree", "3", "--json")
    assert code == 0
    assert json.loads(out)["parameters"] == {"degree": 3}
    code, out = run_cli(
        "verify", "singular-vector", "--scan", "0..3", "--convention", "twisted", "--json"
    )
    assert code == 0
    assert json.loads(out)["parameters"] == {"scan": "0..3", "convention": "twisted"}
    code, out = run_cli("verify", "singular-vector", "--json")
    assert json.loads(out)["parameters"] == {"scan": "0..6", "convention": "twisted"}


def test_report_without_checks_is_not_ok():
    from quadalg.suites import Report

    report = Report("empty", {})
    assert not report.ok
    assert report.to_dict()["ok"] is False
    report.add("one check", True)
    assert report.ok


def test_reports_and_checks_compare_by_value():
    from quadalg.suites import Check, Report

    a, b = Report("s", {"degree": 1}), Report(suite="s", parameters={"degree": 1})
    assert a == b and a.checks == [] and a.duration == 0.0 and a.checks is not b.checks
    a.add("one", False, "why")
    assert a != b and a.checks == [Check("one", False, "why")]
    b.checks.append(Check(name="one", ok=False, witness="why"))
    b.duration = 1.5
    assert a != b
    assert Check("one", True) == Check("one", True, None) != Check("two", True)


def test_cli_imports_without_dataclasses():
    code = "import sys, quadalg.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_long_failing_witness_is_capped_with_its_length(monkeypatch):
    from quadalg import aq
    from quadalg.suites import WITNESS_LIMIT, Report, run_suite

    long = "q^2 - " * 1000
    report = Report("long", {})
    report.add("long", False, long)
    report.add("at the limit", False, long[:WITNESS_LIMIT])
    report.add("first failure", False, "first failure at ((0, 0, 1, 0), 1)")
    report.add("pass", True, long)
    assert [c.witness for c in report.checks] == [
        long[:WITNESS_LIMIT] + " ... [6000 characters in all]",
        long[:WITNESS_LIMIT],
        "first failure at ((0, 0, 1, 0), 1)",
        None,
    ]
    # a suite whose relation check fails with a difference that grows with degree
    w = aq.AqElement.generator
    big = (w(1) + w(2) + w(3) + w(4)) ** 6
    monkeypatch.setattr(aq, "relation_pairs", lambda: [(big, aq.AqElement.zero())])
    check = run_suite("aq-relations").checks[0]
    assert not check.ok and len(str(big)) > WITNESS_LIMIT
    assert check.witness == "%s ... [%d characters in all]" % (str(big)[:WITNESS_LIMIT], len(str(big)))


@pytest.mark.parametrize("suite,degree", [
    ("dual-closed-forms", 9), ("dirac-intertwine", 7), ("box", 10), ("dirac-factorization", 7),
])
def test_cli_verify_oracles_above_their_default_bounds(suite, degree):
    code, out = run_cli("verify", suite, "--degree", str(degree), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["parameters"] == {"degree": degree}
    assert payload["checks"] and all(c["ok"] and c["witness"] is None for c in payload["checks"])


# sha256 of the --json output of the per-path stack rewriters, which
# took 21.9 s and 1.7 s for the first two requests, and of the operator
# symbol calculus, which took 2.8 s for the third
@pytest.mark.parametrize("argv,digest", [
    (("mul", "w4^7", "w1^7"), "7220547346bcecb29c9720f4a87d3397eacccde8961394ae97d76070541cb5c3"),
    (("normalize", "Em^4*Fm^4"), "ec811e195061bcf2ce670b6f7b01b2d42c93aa2181b9813e73b70b359070f248"),
    (("normalize", "d_1^4*z_1^4*d_1^3*z_2^3*d_2^4*K_3*d_3^3*z_3^4"),
     "ffcf091b00a06c5305d37657d95f3b2cc421bd3a409d179fba0bb9d24555667b"),
], ids=["mul", "normalize", "normalize-operator"])
def test_cli_deep_products_are_pinned(argv, digest):
    code, out = run_cli(*argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the printed normal forms of these inputs for n = 0..4, taken
# when F, E, w and d powers were built by loops of their own and Laurent
# powers by repeated squaring; the grammar takes no power of a parenthesis,
# so those inputs are powers of the parsed sum
POWER_INPUTS = ("w1^{n}", "(w1 + w2)^{n}", "Fm^{n}", "Em^{n}*Fm^{n}", "d_1^{n}", "(d_1 + z_2)^{n}")
POWER_DIGEST = "f1e35a8134523455cb7700096fefe58a17c50d39ce3f1db7768c912e9df8ac69"


def printed_power(text):
    if text.startswith("("):
        base, n = text[1:].split(")^")
        return "%s\n" % (parse_expression(base)[1] ** int(n))
    code, out = run_cli("normalize", text)
    assert code == 0
    return out


def test_powers_print_as_pinned():
    text = "".join(printed_power(form.format(n=n)) for form in POWER_INPUTS for n in range(5))
    assert hashlib.sha256(text.encode()).hexdigest() == POWER_DIGEST


def test_raising_powers_times_lowering_powers_print_as_pinned():
    # n = 0..7; the digest was taken when products were straightened by
    # rewriting symbol words one adjacent swap at a time
    text = "".join(printed_power(form.format(n=n))
                   for form in ("Em^{n}*Fm^{n}", "Eb^{n}*Fb^{n}", "En^{n}*Kb*Fn^{n}")
                   for n in range(8))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8c6d95874dd421da555da76c85a0916123cc6c8c2ba944932da90642b4916dde"
    )


# sha256 of the printed normal forms of a [d] power before a z power on one
# axis, taken when compose rewrote each axis's word one rule at a time
@pytest.mark.parametrize("forms,ns,digest", [
    (("d_1^{n}*z_1^{n}", "z_1^{n}*d_1^{n}*K_1^-2*z_1^{n}", "d_2^{n}*K_2*z_2^{m}"), range(9),
     "ea35fa20b4436c66f8e98983f96ccf02952b646cc90a08cee58115ca3fdedfe2"),
    (("d_1^{n}*z_1^{n}",), (24,), "111bddd6127620c7540572624ec7606e23c9073808b68c24cb4cc7d83cc4c087"),
], ids=["n=0..8", "n=24"])
def test_same_axis_d_before_z_prints_as_pinned(forms, ns, digest):
    text = "".join(printed_power(form.format(n=n, m=n + 1)) for form in forms for n in ns)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the singular-vector --json outputs of the straightening path,
# which acted on Verma vectors through UqElement products before the
# closed-form raising rule replaced it
SINGULAR_VECTOR_DIGESTS = {
    "twisted": (
        "99cc651893194dc6dfd7a32736976e1362c7b15c8c0e81ce1e016542b7e1cabb",
        "9e3dcf0b0246c4bdce6649ca0c6848a90a9ce665b624bb3fb770bf571a5d834d",
        "f6c08dc21a881f0aeb08ca6e7678d6c4fbdac23d41651d578a3333fe9645dc95",
        "a87ff9a0ee2944a9c9c96c38e383ba6c6781976a8f87acc0d538f98a761bc82f",
        "c8a8da7fdb95d64879a628d231f9c0882d5f5ab99ef634cb7dde4170947ad9f7",
        "0f36597dede278a59c52fd70759a28e8980afec987ea1e9b54a0b7f88e5304f5",
        "04c9d3ee489c5dc6c774cbe1ef1e0e3af54ec9d109fc7cd8cf16b146ecaf7b2f",
        "0d80ad0e1a4938a3e8d17f12478be83b6795949d9e76c008dad9c926bb583ed4",
        "96c6aa42e5e176e7904c3f6f3448d3ec31309c4292cc2a5d0e8684ef29fc28a3",
        "51e30f08db3e2cec6a292c2bc424eb88b725983232d3c56a18771779cb8f5755",
        "5ab0be877cd133dbb8aadbeb2507ff024c66f4b833929bd61f96142b583b5ab8",
        "8b21980f258d273dc57b11e7b6c5336db91d75ab78ea2e94230ce0b5d7af5c2f",
        "6b795865a6a94cd93af7d722ddbd5838363b38cfebceec9aae019cf9cac3f411",
    ),
    "plain": (
        "9aa4678f909b5fe6b35f5b1840620e2dd705b3d175132f5551c5116ddb452f6c",
        "138e6e5a171996dac878b720ef2c187ce433eab12749c58335fd8c1993b61152",
        "0b7dc055df6f1bebc8c4d2f368a40bd08da5fd8de18d530479d6cede188288b0",
        "a91a8cf1571192943681af3e349eee1de1abc93afd78fe8069b89b8dac93a97b",
        "b01bdc6247fd691389a38bd4afc55867e9ee6dc05308baadbc0b73e13b62c6d4",
        "42129d2d05c10598434b0ff5572b4c3e98d642d840e9b672c5f731d1f84cb72b",
        "edbe3eefa255acdfc2d592248743e09c82dc7930e6d41d0f732dbc0b032400e5",
        "bc15972e0d1aa1cc55e347d6107ab0915ecfe182fce555588cc0cf97708d98db",
        "fa583dc8e404939a2e61c13c9d2ac592dfca09b5ab4a4630f0477305b5adfdf4",
        "1088b1e94297e5d3c65506726a377ce5012d3bdc6711f39f025ddb2b2609cf5f",
        "aa5bf069453b4fd249aa90e427de8c47eee7e28af4076dc3ef5869e19f4e68de",
        "19761762c5ca11a853722818e63463f92e08cf06c784613021846c1ede90dbbb",
        "499e166c5d3652df8be41df62b571af6bab787b43f515ad6992b489d2c105616",
    ),
}
SINGULAR_SCAN_DIGESTS = {
    "twisted": "65be0e72eed9c466a5d388aee8446c80a92b5550ec9fc84cceea54b4198d2dd8",
    "plain": "db3e679eddb40fafb4e1261b96f4885e4424e3c3f6b37045e405167461cb2a3d",
}


@pytest.mark.parametrize("convention", ["twisted", "plain"])
def test_cli_singular_vector_outputs_are_pinned(convention):
    for x, digest in zip(range(-3, 10), SINGULAR_VECTOR_DIGESTS[convention]):
        code, out = run_cli("singular-vector", "--x", str(x), "--convention", convention, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, x
    code, out = run_cli("verify", "singular-vector", "--scan=-4..10", "--convention", convention, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SINGULAR_SCAN_DIGESTS[convention]


# sha256 of the --json output of the long division by the cyclotomic
# polynomial, which took about 5 s for each request
@pytest.mark.parametrize("argv,digest", [
    (("--x", "5000"), "f105767946952001f2257f298991a7a16980760c43b319460edf1cfcb39bc0a7"),
    (("--convention", "plain", "--x", "-5000"),
     "ebc9d0198f7b79c20cddc468d5e5f80b018df6d20c40c4e4a78d237db64bbe07"),
], ids=["twisted-5000", "plain-minus-5000"])
def test_cli_singular_vector_at_large_x_is_pinned(argv, digest):
    code, out = run_cli("singular-vector", *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("singular-vector", "--x", "10001"),
    ("singular-vector", "--x=-10001", "--json"),
    ("verify", "singular-vector", "--scan", "0..10001"),
    ("verify", "singular-vector", "--scan=-10001..0", "--json"),
])
def test_singular_vector_beyond_the_ceiling_exits_2_naming_it(argv, capsys):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "|x| <= 10000" in err


@pytest.mark.parametrize("argv, total", [
    (("singular-vector", "--scan", "0..774", "--x", "10000"), 299_925 + 10_000),
    (("verify", "singular-vector", "--scan", "9900..9930", "--json"), 307_365),
])
def test_singular_vector_scan_beyond_its_cost_ceiling_exits_2_naming_it(argv, total, capsys):
    verma.singular_test.cache_clear()
    code, out = run_cli(*argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: singular-vector scan must satisfy sum of |x| <= 300000, got %d\n" % total
    )
    assert verma.singular_test.cache_info().currsize == 0


def _readme_commands():
    """Each ``quadalg ...`` line of the README: (argv, the output after ``# ->`` or None)."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    out = []
    for line in re.findall(r"^quadalg (.+)$", readme.read_text(), re.MULTILINE):
        command, _, expected = line.partition("# -> ")
        out.append((shlex.split(command, comments=True), expected or None))
    return out


def test_readme_examples_print_what_they_say(capsys):
    commands = _readme_commands()
    assert len(commands) >= 9 and sum(e is not None for _, e in commands) >= 3
    for argv, expected in commands:
        code, out = run_cli(*argv)
        assert code == 0, (argv, capsys.readouterr().err)
        if expected is not None:
            assert out == expected + "\n", argv


@pytest.mark.parametrize(
    "argv, name",
    [
        (("--convention", "plain"), "no generic vanishing in scan 0..6"),
        (("--scan=3..6",), "no generic vanishing in scan 3..6"),
    ],
)
def test_singular_vector_names_its_vanishing_check_by_the_scan(argv, name):
    # a scan that misses the expected point cannot claim to find it there
    code, out = run_cli("verify", "singular-vector", *argv, "--json")
    assert code == 0
    checks = [c for c in json.loads(out)["checks"] if "vanishing" in c["name"]]
    assert [(c["name"], c["ok"]) for c in checks] == [(name, True)]


def test_default_suite_reports_match_the_recorded_digests():
    from quadalg.suites import SUITES

    path = Path(__file__).resolve().parents[1] / "perfbench" / "suite_digests.json"
    digests = json.loads(path.read_text())
    assert sorted(digests) == sorted(SUITES)
    for suite, digest in sorted(digests.items()):
        code, out = run_cli("verify", suite, "--json")
        assert code == 0, suite
        assert hashlib.sha256(out.encode()).hexdigest() == digest, suite


def test_generator_names_come_from_one_table(capsys):
    from quadalg import verma
    from quadalg.uq import GENERATOR_SYMBOLS

    assert len(GENERATOR_SYMBOLS) == 12
    for name, symbol in GENERATOR_SYMBOLS.items():
        assert straighten_word([symbol]) == UqElement.generator(symbol) == verma._GENS[name]
        if not name.endswith("^-1"):
            assert parse_expression(name) == ("uq", UqElement.generator(symbol))
    assert main(["star", "--k", "Fb", "--w", "1"]) == 2
    names = "['Em', 'En', 'Fm', 'Fn', 'Km', 'Km^-1', 'Kn', 'Kn^-1']"
    assert "star generator must be one of %s" % names in capsys.readouterr().err


# ------------------------------------------------ a pinned request stream

_STREAM_SCALARS = ("2", "3", "(q - q^-1)", "(q^2 + 1)", "(q^-1)", "(1 - q^-2)",
                   "(q + 1/2)", "1/2", "(2.q)", "q^2")
_STREAM_SYMBOLS = {
    "aq": ("w1", "w2", "w3", "w4"),
    "uq": ("Fm", "Fn", "Fb", "Em", "En", "Eb", "Km", "Kn", "Kb", "Km^-1", "Kn^-1", "Kb^-1"),
    "op": tuple("%s_%d" % (s, i) for s in "dKz" for i in (1, 2, 3, 4))
    + ("K_1^-1", "K_2^-1", "K_3^-1", "K_4^-1"),
}
# the README's scalar-only and mixed-sign forms, zeroth powers, K^-1 and
# scalars that are not Laurent polynomials, each in the family it reaches
_STREAM_FIXED = (
    ("normalize", "(q + 1/2)"), ("normalize", "1/2"), ("normalize", "(2.q)"),
    ("normalize", "q^-3"), ("normalize", "-(q - q^-1)*2"), ("normalize", "w1 * -w2"),
    ("normalize", "w1 + -w2"), ("normalize", "--w1"), ("normalize", "1/2*w1"),
    ("normalize", "-Fm * -(q)Fb"), ("normalize", "Kb^-1 * Kb"), ("normalize", "K_4^-2"),
    ("normalize", "w1^0"), ("normalize", "Fm^0*2"), ("normalize", "3*d_1^0"),
    ("mul", "2", "w1"), ("mul", "w1", "(q)"), ("mul", "(1/2)", "(q)"),
    ("mul", "(q - q^-1)", "Fm^2"), ("mul", "d_2^3", "(q^2 + 1)"),
    ("serre-reduce", "3"), ("serre-reduce", "(q + 1/2)"),
    ("serre-reduce", "Fn*Fb - (q)*Fb*Fn"), ("normalize", "((q)/(q^2 + 1))*Fm"),
    ("normalize", "d_1*(1/(q + 1))"), ("normalize", "((q)/(q^2 + 1))*w1"),
    ("mul", "w1", "(1/(q + 1))"), ("normalize", "Fm^3"), ("normalize", "d_1^3*z_1^3"),
)


def _stream_factor(rng, family):
    if rng.random() < 0.25:
        return rng.choice(_STREAM_SCALARS)
    symbol = rng.choice(_STREAM_SYMBOLS[family])
    if "^" not in symbol and rng.random() < 0.3:
        symbol += "^%d" % rng.randint(0, 3)
    return symbol


def _stream_product(rng, family, lo, hi):
    return rng.choice(("*", ".", " ")).join(
        _stream_factor(rng, family) for _ in range(rng.randint(lo, hi))
    )


def _stream_expression(rng, family):
    out = _stream_product(rng, family, 1, 4)
    for _ in range(rng.randint(0, 2)):
        out += rng.choice((" + ", " - ", " + -")) + _stream_product(rng, family, 1, 3)
    return out


def request_stream(seed=29, n=300):
    """The seeded stream: the fixed forms, then random requests of every kind.

    Each argv asks for --json; a ``--`` before the expressions lets them
    start with a sign.
    """
    rng = random.Random(seed)
    out = [list(r) for r in _STREAM_FIXED]
    for _ in range(n):
        kind = rng.choice(("normalize", "mul", "serre-reduce", "star", "dual"))
        if kind == "normalize":
            out.append(["normalize", _stream_expression(rng, rng.choice(("aq", "uq", "op")))])
        elif kind == "mul":
            family = rng.choice(("aq", "uq", "op"))
            out.append(["mul", _stream_product(rng, family, 1, 3),
                        _stream_product(rng, family, 1, 3)])
        elif kind == "serre-reduce":
            factor = lambda: rng.choice(_STREAM_SCALARS + ("Fm", "Fn", "Fb", "Fm^2", "Fn^3"))
            terms = ("*".join(factor() for _ in range(rng.randint(1, 5)))
                     for _ in range(rng.randint(1, 3)))
            out.append(["serre-reduce", rng.choice((" + ", " - ")).join(terms)])
        elif kind == "star":
            k = rng.choice(("Fm", "Em", "Km", "Km^-1", "Fn", "En", "Kn", "Kn^-1"))
            out.append(["star", "--k", k, "--w", str(rng.randint(1, 4))])
        else:
            out.append(["dual", "--generator", rng.choice(("1", "2", "3", "4", "box")),
                        "--check-degree", str(rng.randint(1, 3))])
    return [[cmd, "--json"] + ([] if cmd in ("star", "dual") else ["--"]) + rest
            for cmd, *rest in out]


# sha256 of the exit codes, --json outputs and errors of ``request_stream()``,
# taken when every symbol was built as a product with the unit and every
# scalar factor was promoted to an element before its product
REQUEST_STREAM_DIGEST = "82d06bf18a312112b62ca09bfb4108eb5d0c5c95c134d3c63a6c8bab42c1554d"


def test_request_stream_prints_as_pinned(capsys):
    text = []
    for argv in request_stream():
        code, out = run_cli(*argv)
        text.append("%s %d\n%s%s" % (argv, code, out, capsys.readouterr().err))
    assert hashlib.sha256("".join(text).encode()).hexdigest() == REQUEST_STREAM_DIGEST
