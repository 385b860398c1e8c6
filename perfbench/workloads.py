"""Seeded inputs and one timed pass of each workload.

Input generation is pure Python and imports nothing from ``quadalg``: the
program only receives the inputs generated from the seed.  The checks
that decide whether an op failed do not reuse the engine being timed:
the Serre relations and the dimension generating function below are
written out independently of ``quadalg.uq``.

A pass is a closed loop with one client: each op starts when the
previous one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time

from reference import time_kernel

MU, NU, BETA = 0, 1, 2

# The quantum Serre relations of U_q^- in type A_3 on the Dynkin path
# mu - beta - nu, as {word: {q-exponent: integer coefficient}}.
SERRE_RELATIONS = tuple(
    {(i, i, j): {0: 1}, (i, j, i): {1: -1, -1: -1}, (j, i, i): {0: 1}}
    for i, j in ((NU, BETA), (MU, BETA), (BETA, NU), (BETA, MU))
) + ({(NU, MU): {0: 1}, (MU, NU): {0: -1}},)

SUITE_NAMES = (
    "aq-power-identity", "aq-relations", "box", "dims", "dirac-factorization",
    "dirac-intertwine", "dual-closed-forms", "recorded-identities",
    "serre-oracle", "singular-vector", "star-table",
)

PARAMS = {
    "serre-build": {"max_degree": 7, "queries": 1200, "query_max_degree": 7},
    "dual-oracle": {
        "verify_dual_degree": 7, "random_functionals": 300,
        "random_max_degree": 4, "intertwine_degree": 5,
    },
    "cli-session": {"requests": 300, "suites": len(SUITE_NAMES)},
}

WORKLOADS = tuple(PARAMS)

DUAL_GENERATORS = (1, 2, 3, 4, "box")


def rng_for(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def pbw_dimensions(degree):
    """Coefficients of 1 / ((1-t)^3 (1-t^2)^2 (1-t^3)) through t^degree."""
    coeffs = [1] + [0] * degree
    for height in (1, 1, 1, 2, 2, 3):
        for i in range(height, degree + 1):
            coeffs[i] += coeffs[i - height]
    return coeffs


def contents(degree):
    return [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]


def _poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ideal_element(rng, degree, shape=None):
    """A random scalar multiple of u * r * v of the given total degree.

    ``shape`` is a pair (r, letter counts of u * v) that fixes both; the
    seed then only sets the order of the letters and where u ends.
    """
    if shape is None:
        rel = rng.choice([r for r in SERRE_RELATIONS if len(next(iter(r))) <= degree])
        rlen = len(next(iter(rel)))
        ulen = rng.randint(0, degree - rlen)
        u = tuple(rng.randrange(3) for _ in range(ulen))
        v = tuple(rng.randrange(3) for _ in range(degree - rlen - ulen))
    else:
        rel, counts = shape
        letters = [x for x, n in enumerate(counts) for _ in range(n)]
        rng.shuffle(letters)
        ulen = rng.randint(0, len(letters))
        u, v = tuple(letters[:ulen]), tuple(letters[ulen:])
    coeff = {rng.randint(-2, 2): rng.choice((1, -1, 2, -3))}
    return {u + w + v: _poly_mul(coeff, c) for w, c in rel.items()}


def _shapes(degree):
    """Every (relation, letter counts of u * v) of the given total degree."""
    return [
        (rel, counts)
        for rel in SERRE_RELATIONS if len(next(iter(rel))) <= degree
        for counts in contents(degree - len(next(iter(rel))))
    ]


def serre_queries(seed):
    """Membership queries: (element, pick); pick None means it must reduce to 0.

    Otherwise the query adds basis word number ``pick`` (modulo the basis
    size of the element's multidegree) and that word must survive alone.
    Degrees take turns; within a degree the shapes take turns, each once
    without and once with a basis word.  So the cost mix is the same for
    every seed, and the seed sets the words, scalars and picks.
    """
    rng = rng_for("serre-build", seed)
    p = PARAMS["serre-build"]
    degrees = range(2, p["query_max_degree"] + 1)
    shapes = {d: _shapes(d) for d in degrees}
    out = []
    for i in range(p["queries"]):
        degree, turn = degrees[i % len(degrees)], i // len(degrees)
        element = _ideal_element(rng, degree, shapes[degree][turn // 2 % len(shapes[degree])])
        pick = rng.randrange(1 << 30) if turn % 2 else None
        out.append((element, pick))
    return out


def random_functionals(seed):
    """(generator, {multi-index: {q-exponent: coefficient}}) pairs.

    The generators take turns and every functional reaches the top degree,
    so the cost mix is the same for every seed; only the values vary.
    """
    rng = rng_for("dual-oracle", seed)
    p = PARAMS["dual-oracle"]
    top = p["random_max_degree"]
    out = []
    for i in range(p["random_functionals"]):
        which = DUAL_GENERATORS[i % len(DUAL_GENERATORS)]
        values = {}
        for k in range(rng.randint(1, 5)):
            degree = top if k == 0 else rng.randint(0, top)
            cuts = sorted(rng.randint(0, degree) for _ in range(3))
            gamma = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], degree - cuts[2])
            values[gamma] = {rng.randint(-2, 2): rng.choice((1, -1, 2, 3))}
        out.append((which, values))
    return out


_SCALARS = ("2", "3", "(q - q^-1)", "(q^2 + 1)", "(q^-1)", "(1 - q^-2)", "(q + 1/2)")
_UQ_SYMBOLS = ("Fm", "Fn", "Fb", "Em", "En", "Eb", "Km", "Kn", "Kb", "Km^-1", "Kn^-1", "Kb^-1")
_OP_SYMBOLS = tuple("%s_%d" % (s, i) for s in "dKz" for i in (1, 2, 3, 4)) + (
    "K_1^-1", "K_2^-1", "K_3^-1", "K_4^-1",
)
_STAR_KS = ("Fm", "Em", "Km", "Km^-1", "Fn", "En", "Kn", "Kn^-1")


def _product(rng, symbols, lo, hi):
    return "*".join(rng.choice(symbols) for _ in range(rng.randint(lo, hi)))


# Requests of each kind per 100; the stream holds them in these shares.
# They are an assumption, not measured traffic: see the README.
_REQUEST_MIX = (
    ("normalize-w", 20), ("mul", 15), ("serre-reduce", 20), ("normalize-uq", 15),
    ("normalize-op", 15), ("star", 6), ("dual", 5), ("singular-vector", 4),
)


def _request(rng, kind, turn):
    """One request of the given kind; ``turn`` counts earlier ones of that kind."""
    ws = ("w1", "w2", "w3", "w4")
    if kind == "normalize-w":
        expr = _product(rng, ws, 1, 10)
        if rng.random() < 0.4:
            expr = "%s*%s + %s" % (rng.choice(_SCALARS), expr, _product(rng, ws, 1, 10))
        return ["normalize", expr]
    if kind == "mul":
        return ["mul", _product(rng, ws, 1, 5), _product(rng, ws, 1, 5)]
    if kind == "serre-reduce":
        degree = 1 + turn % 6
        if turn // 6 % 2 or degree == 1:
            return ["serre-reduce", _product(rng, ("Fm", "Fn", "Fb"), degree, degree)]
        names = ("Fm", "Fn", "Fb")
        terms = []
        for word, coeff in _ideal_element(rng, degree).items():
            scalar = " + ".join("%d*q^%d" % (c, e) for e, c in sorted(coeff.items()))
            terms.append("(%s)*%s" % (scalar, "*".join(names[x] for x in word)))
        return ["serre-reduce", " + ".join(terms)]
    if kind == "normalize-uq":
        return ["normalize", _product(rng, _UQ_SYMBOLS, 2, 5)]
    if kind == "normalize-op":
        expr = _product(rng, _OP_SYMBOLS, 1, 4)
        if rng.random() < 0.5:
            expr = "%s + %s*%s" % (expr, rng.choice(_SCALARS), _product(rng, _OP_SYMBOLS, 1, 3))
        return ["normalize", expr]
    if kind == "star":
        return ["star", "--k", rng.choice(_STAR_KS), "--w", str(rng.randint(1, 4))]
    if kind == "dual":
        return ["dual", "--generator", str(DUAL_GENERATORS[turn % 5]),
                "--check-degree", str(2 + turn % 4)]
    return ["singular-vector", "--x", str(-2 + turn % 11)]


def _spread(items, slots):
    """Split ``items`` into ``slots`` consecutive, nearly equal slices."""
    return [items[i * len(items) // slots:(i + 1) * len(items) // slots] for i in range(slots)]


def cli_requests(seed):
    """The seeded request stream with every verify suite (default bound) spread through it."""
    rng = rng_for("cli-session", seed)
    n = PARAMS["cli-session"]["requests"]
    kinds = [kind for kind, share in _REQUEST_MIX for _ in range(share * n // 100)]
    rng.shuffle(kinds)
    turns = dict.fromkeys(kinds, 0)
    requests = []
    for kind in kinds:
        requests.append(_request(rng, kind, turns[kind]) + ["--json"])
        turns[kind] += 1
    out = []
    for chunk, suite in zip(_spread(requests, len(SUITE_NAMES)), SUITE_NAMES):
        out += chunk + [["verify", suite, "--json"]]
    return out


# ----------------------------------------------------------- timed passes


REFERENCE_INTERVAL_S = 0.2


class Ops:
    """Times ops one after another and counts attempts and failures.

    Between ops, at most every REFERENCE_INTERVAL_S, it also times the
    reference kernel to sample the machine's speed during the pass;
    ``sampling_s`` is the time those samples took, warm-up runs included,
    and ``sample_counts`` holds, for each timed op, the number of samples
    taken before it started.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.sample_counts = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference_s = []
        self.sampling_s = 0.0
        self._next_reference = 0.0

    def sample_reference(self, force=False):
        """Time the reference kernel if REFERENCE_INTERVAL_S has passed (or ``force``)."""
        t0 = time.perf_counter()
        if force or t0 >= self._next_reference:
            self.reference_s.append(time_kernel())
            t1 = time.perf_counter()
            self.sampling_s += t1 - t0
            self._next_reference = t1 + REFERENCE_INTERVAL_S

    def run(self, fn, *args, timed=True, weight=1):
        """Run one op; returns (True, result) or (False, None) if it raised."""
        self.sample_reference()
        samples = len(self.reference_s)
        t0 = time.perf_counter()
        try:
            result = fn(*args) if self.tracer is None else self.tracer.op(fn, *args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.errors.append("%s: %r" % (getattr(fn, "__name__", fn), exc))
            self.record(False, weight)
            return False, None
        finally:
            if timed:
                self.latencies.append(time.perf_counter() - t0)
                self.sample_counts.append(samples)
        return True, result

    def record(self, ok, weight=1):
        self.attempted += weight
        if not ok:
            self.failed += weight


def run_serre_build(q, ops, seed):
    """Cold graded dimensions through ``max_degree``, with membership queries.

    Queries of lower degree run between the builds of the top degree, so
    their latencies are sampled across the whole pass; queries of the top
    degree run last.
    """
    uq, LaurentPoly, RatQ = q.uq, q.ring.LaurentPoly, q.ring.RatQ
    top = PARAMS["serre-build"]["max_degree"]
    expected = pbw_dimensions(top)

    def query(element, pick):
        vec = {w: LaurentPoly(c) for w, c in element.items()}
        want = {}
        if pick is not None:
            basis = uq.component(uq.word_content(next(iter(vec)))).basis
            if basis:
                word = basis[pick % len(basis)]
                vec[word] = vec.get(word, LaurentPoly.zero()) + LaurentPoly.one()
                want = {word: RatQ.one()}
        return uq.serre_reduce(vec) == want

    def run_queries(batch):
        for element, pick in batch:
            ok, result = ops.run(query, element, pick)
            if ok:
                ops.record(result)

    queries = serre_queries(seed)
    early = [x for x in queries if len(next(iter(x[0]))) < top]
    degree_s = {}
    for d in range(top + 1):
        total, built, degree_s[d] = 0, 0, 0.0
        slices = _spread(early, len(contents(d))) if d == top else None
        for i, content in enumerate(contents(d)):
            ok, dim = ops.run(lambda c: uq.component(c).dimension, content)
            degree_s[d] += ops.latencies[-1]
            if ok:
                total += dim
                built += 1
            if slices:
                run_queries(slices[i])
        ok = built == len(contents(d)) and total == expected[d]
        ok = ok and uq.graded_dimension(d) == expected[d]
        ops.record(ok, built)
    run_queries([x for x in queries if len(next(iter(x[0]))) == top])
    return {"degree_s": degree_s}


def run_dual_oracle(q, ops, seed):
    """Brute-force right-multiplication duals against their closed forms."""
    transform, dirac, ring, aq = q.transform, q.dirac, q.ring, q.aq
    p = PARAMS["dual-oracle"]
    batches = [
        (transform.verify_dual, which, p["verify_dual_degree"]) for which in DUAL_GENERATORS
    ] + [
        (dirac.intertwine_check, p["intertwine_degree"], variant) for variant in ("plus", "minus")
    ]
    n_dual = len(ring.indices_up_to(p["verify_dual_degree"]))
    # intertwine_check checks one vector functional per index and slot, two slots.
    n_inter = 2 * len(ring.indices_up_to(p["intertwine_degree"]))
    weights = [n_dual] * len(DUAL_GENERATORS) + [n_inter] * 2
    elements = {i: aq.AqElement.generator(i) for i in (1, 2, 3, 4)}
    elements["box"] = aq.center_element()

    def check(which, values):
        f = transform.DualFunctional({g: ring.LaurentPoly(c) for g, c in values.items()})
        brute = transform.right_dual_bruteforce(elements[which])
        closed = transform.right_dual_closed(which)
        return transform.psi(brute(f)) == closed.apply(transform.psi(f))

    # The individually timed functionals run between the batch calls, so
    # their latencies are sampled across the whole pass.
    slices = _spread(random_functionals(seed), len(batches) + 1)
    for i, batch in enumerate(batches + [None]):
        for which, values in slices[i]:
            ok, result = ops.run(check, which, values)
            if ok:
                ops.record(result)
        if batch is not None:
            ok, result = ops.run(*batch, timed=False, weight=weights[i])
            if ok:
                ops.record(result, weights[i])
    return {}


def run_cli_session(q, ops, seed, suite_digests):
    """The request stream through ``quadalg.cli.main`` with ``--json``."""
    cli = q.cli
    digests = []
    for argv in cli_requests(seed):
        out, err = io.StringIO(), io.StringIO()

        def request(argv=argv, out=out, err=err):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    return cli.main(list(argv))
                except SystemExit as exc:  # argparse rejects a request this way
                    return exc.code

        ok, code = ops.run(request)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        digests.append(digest)
        if not ok:
            continue
        good = code == 0 and not err.getvalue()
        if argv[0] == "verify":
            good = good and suite_digests.get(argv[1]) == digest
        ops.record(good)
        if not good:
            ops.errors.append("%s: exit %r %s" % (" ".join(argv), code, err.getvalue().strip()))
    return {"output_digests": digests}
