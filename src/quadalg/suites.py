"""Named verification suites with deterministic, machine-readable reports.

Each suite runs a fixed list of exact checks and reports one status line
per check.  Reports serialize to canonical JSON (sorted keys, sorted
deterministic content) so that two runs over the same inputs are
byte-identical; wall-clock duration is kept out of the JSON and only
shown in the human-readable rendering.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple

from . import aq, dirac, transform, uq, verma
from .aq import AqElement
from .ring import LaurentPoly, RatQ
from .uq import MU, NU, UqElement

_Q = LaurentPoly.q

# A failing witness such as str(lhs - rhs) grows with the degree; beyond
# this many characters the report keeps its head and the full length.
WITNESS_LIMIT = 400

# The singular-vector convention when none is named, on the command line too.
DEFAULT_CONVENTION = "twisted"


def _capped(witness):
    if witness is None or len(witness) <= WITNESS_LIMIT:
        return witness
    return "%s ... [%d characters in all]" % (witness[:WITNESS_LIMIT], len(witness))


# One named check of a suite: its verdict and, if it failed, a witness.
Check = namedtuple("Check", ("name", "ok", "witness"), defaults=(None,))


class Report:
    """The checks of one suite run, with its parameters and wall time."""

    __hash__ = None

    def __init__(self, suite: str, parameters: dict, checks: list | None = None,
                 duration: float = 0.0):
        self.suite = suite
        self.parameters = parameters
        self.checks = [] if checks is None else checks
        self.duration = duration

    def __eq__(self, other):
        if type(other) is not Report:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def ok(self) -> bool:
        """True iff the report has at least one check and every check passed."""
        return bool(self.checks) and all(c.ok for c in self.checks)

    def add(self, name, ok, witness=None):
        """Record a check; a failing one keeps its witness, capped at ``WITNESS_LIMIT``."""
        self.checks.append(Check(name, bool(ok), _capped(witness) if not ok else None))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "checks": [
                {"name": c.name, "ok": c.ok, "witness": c.witness} for c in self.checks
            ],
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        lines = ["suite %s  (%s)" % (self.suite, _fmt_params(self.parameters))]
        for c in self.checks:
            mark = "pass" if c.ok else "FAIL"
            line = "  [%s] %s" % (mark, c.name)
            if c.witness:
                line += "  <- " + c.witness
            lines.append(line)
        lines.append(
            "%s: %s  (%.2fs)"
            % (self.suite, "all checks passed" if self.ok else "FAILURES", self.duration)
        )
        return "\n".join(lines)


def _fmt_params(params) -> str:
    if not params:
        return "no parameters"
    return ", ".join("%s=%s" % (k, params[k]) for k in sorted(params))


# ----------------------------------------------------------- the suites


def suite_aq_relations(report):
    names = ["w2*w1", "w3*w1", "w4*w3", "w4*w2", "w3*w2", "w4*w1"]
    for name, (lhs, rhs) in zip(names, aq.relation_pairs()):
        report.add("relation %s" % name, lhs == rhs, str(lhs - rhs))
    omega = aq.center_element()
    for i in (1, 2, 3, 4):
        c = aq.commutator(omega, AqElement.generator(i))
        report.add("center commutes with w%d" % i, not c, str(c))


def suite_aq_power_identity(report, degree):
    w1, w4 = AqElement.generator(1), AqElement.generator(4)
    for n in range(1, degree + 1):
        lhs = (w4 ** n) * w1
        rhs = AqElement(
            {
                (1, 0, 0, n): LaurentPoly.one(),
                (0, 1, 1, n - 1): -(_Q(1) - _Q(1 - 2 * n)),
            }
        )
        report.add("power identity N=%d" % n, lhs == rhs, str(lhs - rhs))


def suite_serre_oracle(report):
    words = [(2, 1), (3, 1), (4, 3), (4, 2), (3, 2), (4, 1)]
    for word in words:
        lhs = uq.w_gen(word[0]) * uq.w_gen(word[1])
        rhs = uq.w_embed(aq.normal_order(word))
        diff = lhs - rhs
        report.add("transported relation w%d*w%d" % word, not diff, str(diff))


def suite_dims(report, degree):
    coeffs = [1] + [0] * degree
    for height, mult in ((1, 3), (2, 2), (3, 1)):
        for _ in range(mult):
            for i in range(height, degree + 1):
                coeffs[i] += coeffs[i - height]
    for d, got in enumerate(uq.graded_dimensions(degree)):
        report.add(
            "dimension at degree %d" % d,
            got == coeffs[d],
            "got %d, generating function says %d" % (got, coeffs[d]),
        )


def _star_table():
    q = _Q(1)
    table = [
        (("F", MU), 1, AqElement.generator(2)),
        (("F", MU), 3, AqElement.generator(4)),
        (("F", MU), 2, AqElement.zero()),
        (("F", MU), 4, AqElement.zero()),
        (("E", MU), 2, AqElement.generator(1)),
        (("E", MU), 4, AqElement.generator(3)),
        (("E", MU), 1, AqElement.zero()),
        (("E", MU), 3, AqElement.zero()),
        (("K", MU, 1), 1, AqElement.generator(1).scale(q)),
        (("K", MU, 1), 3, AqElement.generator(3).scale(q)),
        (("K", MU, 1), 2, AqElement.generator(2).scale(_Q(-1))),
        (("K", MU, 1), 4, AqElement.generator(4).scale(_Q(-1))),
    ]
    swap = {1: 1, 2: 3, 3: 2, 4: 4}
    mirrored = []
    for symbol, i, value in table:
        sym = (symbol[0], NU) + symbol[2:]
        swapped = AqElement({(g[0], g[2], g[1], g[3]): c for g, c in value.terms.items()})
        mirrored.append((sym, swap[i], swapped))
    return table + mirrored


_SYMBOL_NAMES = {symbol: name for name, symbol in uq.GENERATOR_SYMBOLS.items()}


def suite_star_table(report):
    for symbol, i, expected in _star_table():
        got = uq.star_act(symbol, AqElement.generator(i))
        report.add(
            "%s * w%d" % (_SYMBOL_NAMES[symbol], i),
            got == expected,
            "got %s, expected %s" % (got, expected),
        )


def suite_recorded_identities(report):
    fm = UqElement.f_gen(MU)
    em = UqElement.e_gen(MU)
    w1t, w2t = uq.w_gen(1), uq.w_gen(2)
    diff = fm * w2t - (w2t * fm).scale(_Q(-1))
    report.add("Fm*w2 = q^-1 w2*Fm", not diff, str(diff))
    lhs = em * w2t
    rhs = w1t * UqElement.k_gen(MU, -1) + w2t * em
    report.add(
        "Em*w2 = w1*Km^-1 + w2*Em (exact straightened form)",
        lhs == rhs,
        str(lhs - rhs),
    )
    efree = UqElement({k: c for k, c in lhs.terms.items() if not k[2]})
    report.add(
        "raising-free part of Em*w2 is w1*Km^-1",
        efree == w1t * UqElement.k_gen(MU, -1),
        str(efree),
    )


def suite_dual_closed_forms(report, degree):
    for which in (1, 2, 3, 4, "box"):
        label = "w%s" % which if which != "box" else "center"
        bad = transform.first_dual_failure(which, degree)
        report.add(
            "closed form of dual(%s) through degree %d" % (label, degree),
            bad is None,
            "first failure at %s" % (bad,),
        )


def suite_box(report, degree):
    box = transform.box_operator()
    report.add(
        "wave operator matches its displayed normal form",
        box.terms
        == {
            ((0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1)): RatQ.one(),
            ((0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 1, 0)): RatQ(-_Q(1)),
        },
        str(box),
    )
    bad = transform.first_dual_failure("box", degree)
    report.add(
        "wave operator is the dual of the center through degree %d" % degree,
        bad is None,
        "first failure at %s" % (bad,),
    )


def suite_dirac_factorization(report, degree):
    pm, mp = dirac.factorization_products()
    target = dirac.factorization_target()
    report.add("D+ then D- equals -q^-1 diag(box, box) exactly", pm == target)
    report.add("D- then D+ equals -q^-1 diag(box, box) exactly", mp == target)
    report.add("the two products agree", pm == mp)
    bad = dirac.first_factorization_failure(degree)
    report.add(
        "pointwise factorization on monomials through degree %d" % degree,
        bad is None,
        "first failure at %s" % (bad,),
    )


def suite_dirac_intertwine(report, degree):
    for variant in dirac._LAYOUT:
        bad = dirac.first_intertwine_failure(degree, variant)
        report.add(
            "matrix matches the algebraic intertwiner (%s) through degree %d"
            % (variant, degree),
            bad is None,
            "first failure at %s" % (bad,),
        )


def suite_singular_vector(report, scan, convention):
    u0 = verma.singular_candidate_plus()
    reports, vanishing = verma.scan_singular(u0, scan, convention)
    for r in reports:
        report.add("E_nu kills the candidate at x=%d" % r.x, not r.e_nu, str(r.e_nu))
        report.add(
            "E_mu^2 kills the candidate at x=%d" % r.x, not r.e_mu_sq, str(r.e_mu_sq)
        )
    expected_x = -2 * verma.CONVENTIONS[convention]
    expected = [expected_x] if expected_x in scan else []
    # a scan that misses the expected point checks only that nothing vanishes
    name = ("generic vanishing exactly at x=%d" % expected_x if expected
            else "no generic vanishing in scan %d..%d" % (min(scan), max(scan)))
    report.add(name, vanishing == expected, "vanishing at %s" % (vanishing,))
    for r in reports:
        if r.vanishes_generically:
            continue
        modulus = verma.obstruction_modulus(r.x, convention)
        expected = tuple(m for m in range(3, verma.MAX_ORDER + 1) if modulus % m == 0)
        extra = tuple(m for m in r.root_of_unity_orders if m > verma.MAX_ORDER)
        got = tuple(m for m in r.root_of_unity_orders if m <= verma.MAX_ORDER)
        report.add(
            "root-of-unity orders at x=%d are the divisors >= 3 of %d" % (r.x, modulus),
            got == expected and all(modulus % m == 0 for m in extra),
            "got %s, expected %s" % (r.root_of_unity_orders, expected),
        )


SUITES = {
    "aq-relations": (suite_aq_relations, None),
    "aq-power-identity": (suite_aq_power_identity, 8),
    "serre-oracle": (suite_serre_oracle, None),
    "dims": (suite_dims, 6),
    "star-table": (suite_star_table, None),
    "recorded-identities": (suite_recorded_identities, None),
    "dual-closed-forms": (suite_dual_closed_forms, 6),
    "box": (suite_box, 6),
    "dirac-factorization": (suite_dirac_factorization, 5),
    "dirac-intertwine": (suite_dirac_intertwine, 4),
    "singular-vector": (suite_singular_vector, None),
}


def run_suite(name, degree=None, scan=None, convention=None) -> Report:
    """Run one named suite; raises KeyError on an unknown name and
    ValueError on a negative degree bound or on an option the suite does
    not take: ``degree`` for a suite without a degree bound, ``scan`` or
    ``convention`` for any suite but singular-vector."""
    if name not in SUITES:
        raise KeyError(name)
    fn, default_degree = SUITES[name]
    if degree is not None:
        if default_degree is None:
            raise ValueError("suite %s takes no degree bound" % name)
        if degree < 0:
            raise ValueError("degree bound must be >= 0, got %d" % degree)
    if name != "singular-vector" and (scan is not None or convention is not None):
        raise ValueError("suite %s takes no scan or convention" % name)
    params = {}
    start = time.monotonic()
    if name == "singular-vector":
        scan = verma.scan_points(scan if scan is not None else range(0, 7))
        convention = convention if convention is not None else DEFAULT_CONVENTION
        params = {"scan": "%d..%d" % (min(scan), max(scan)), "convention": convention}
        report = Report(name, params)
        fn(report, scan, convention)
    elif default_degree is not None:
        bound = degree if degree is not None else default_degree
        params = {"degree": bound}
        report = Report(name, params)
        fn(report, bound)
    else:
        report = Report(name, params)
        fn(report)
    report.duration = time.monotonic() - start
    return report
