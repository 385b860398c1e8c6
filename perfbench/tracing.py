"""Span and counter tracing of quadalg's layers, installed from outside.

The tracer replaces public functions and methods of the ``quadalg``
modules with thin wrappers and puts every original back when it is
uninstalled, so untraced runs execute unpatched code.  A wrapped function
is replaced in every ``quadalg`` module that holds a reference to it,
because modules import each other's functions by name.

Hot scalar dunders are only counted; the other targets record a span
``[name, parent, start, end]`` per call.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
import sys
import time

# (kind, module, class or None, attribute, metric name).  "count" only
# counts calls; "span" records a span per call; the other kinds add the
# bookkeeping their per-layer metrics need on top of a span.
TARGETS = (
    ("count", "quadalg.ring", "LaurentPoly", "__mul__", "ring.laurent_mul"),
    ("count", "quadalg.ring", "LaurentPoly", "__rmul__", "ring.laurent_mul"),
    ("count", "quadalg.ring", "LaurentPoly", "__add__", "ring.laurent_add"),
    ("count", "quadalg.ring", "LaurentPoly", "__radd__", "ring.laurent_add"),
    ("count", "quadalg.ring", "RatQ", "__init__", "ring.ratq_new"),
    ("span", "quadalg.ring", None, "laurent_gcd", "ring.laurent_gcd"),
    ("count", "quadalg.ring", None, "divide_exact", "ring.divide_exact"),
    ("component", "quadalg.uq", None, "component", "uq.component"),
    ("span", "quadalg.uq", None, "serre_reduce", "uq.serre_reduce"),
    ("span", "quadalg.uq", None, "straighten_word", "uq.straighten"),
    ("span", "quadalg.uq", None, "_w_pbw_matrix", "uq.w_pbw_matrix"),
    ("aq_mul", "quadalg.aq", "AqElement", "__mul__", "aq.mul"),
    ("count", "quadalg.aq", None, "reduce_word", "aq.reduce_word"),
    ("bruteforce", "quadalg.transform", None, "right_dual_bruteforce", "transform.bruteforce"),
    ("count", "quadalg.transform", "DualFunctional", "evaluate", "transform.evaluate"),
    ("span", "quadalg.transform", None, "psi", "transform.psi"),
    ("span", "quadalg.qcalc", "QOperator", "apply", "qcalc.apply"),
    ("span", "quadalg.qcalc", None, "compose", "qcalc.compose"),
    ("span", "quadalg.dirac", None, "intertwine_bruteforce", "dirac.intertwine_bruteforce"),
    ("span", "quadalg.dirac", "OpMatrix2", "then", "dirac.then"),
    ("span", "quadalg.verma", None, "singular_test", "verma.singular_test"),
    ("span", "quadalg.suites", None, "run_suite", "suites.run_suite"),
    ("span", "quadalg.parse", None, "parse_expression", "parse.parse_expression"),
    ("span", "quadalg.cli", None, "main", "cli.main"),
)

MODULES = ("ring", "uq", "aq", "transform", "qcalc", "dirac", "verma", "suites", "parse", "cli")

# uq's memo tables; their total size is ``uq.cache_entries``.
UQ_CACHES = ("words_of_content", "component", "w_gen", "_w_pbw_basis", "_w_pbw_matrix")

ROOT = "bench.op"


def self_times(spans):
    """Duration of each span minus the time covered by its direct children.

    ``spans`` are ``[name, parent, start, end]`` records in start order,
    with ``parent`` the index of the enclosing span or -1.
    """
    covered = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, start, end) in enumerate(spans)]


def _multinomial(content):
    out = math.factorial(sum(content))
    for n in content:
        out //= math.factorial(n)
    return out


def span_row_count(content, relation_contents):
    """Number of products u * r * v spanning the ideal at ``content``."""
    rows = 0
    for rc in relation_contents:
        rest = tuple(c - r for c, r in zip(content, rc))
        if min(rest) < 0:
            continue
        for a in range(rest[0] + 1):
            for b in range(rest[1] + 1):
                for c in range(rest[2] + 1):
                    u = (a, b, c)
                    v = (rest[0] - a, rest[1] - b, rest[2] - c)
                    rows += _multinomial(u) * _multinomial(v)
    return rows


class Tracer:
    """Wraps the targets on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = {}
        self.patches = []  # (owner, attribute, original)
        self.builds = 0
        self.span_rows = 0
        self.pivot_rows = 0
        self._pairs = set()
        self._relation_contents = ()

    # -- recording ----------------------------------------------------

    def _cell(self, name):
        return self.counts.setdefault(name, [0])

    def counted(self, name, fn):
        cell = self._cell(name)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spanned(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def op(self, fn, *args):
        """Run one benchmark op under a root span."""
        return self.spanned(ROOT, fn)(*args)

    def _component_wrapper(self, name, fn):
        misses = [0]

        def before(args):
            misses[0] = fn.cache_info().misses

        def after(args, comp):
            if fn.cache_info().misses != misses[0]:
                self.builds += 1
                self.span_rows += span_row_count(tuple(args[0]), self._relation_contents)
                self.pivot_rows += len(getattr(comp, "pivots", ()))

        return self.spanned(name, fn, before, after)

    def _aq_mul_wrapper(self, name, fn):
        pairs = self._pairs

        def key(x):
            return frozenset((g, frozenset(c.terms.items())) for g, c in x.terms.items())

        def before(args):
            a, b = args
            pairs.add((key(a), key(b) if type(b) is type(a) else ("scalar", str(b))))

        return self.spanned(name, fn, before)

    def _bruteforce_wrapper(self, name, fn):
        def factory(*args, **kwargs):
            return self.spanned(name, fn(*args, **kwargs))

        return factory

    # -- installation -------------------------------------------------

    def install(self):
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "quadalg" or name.startswith("quadalg."))
        }
        self._relation_contents = tuple(
            tuple(sum(1 for x in next(iter(rel)) if x == i) for i in range(3))
            for rel in modules["quadalg.uq"].serre_relations()
        )
        try:
            for kind, modname, clsname, attr, name in TARGETS:
                owner = modules[modname]
                if clsname is not None:
                    owner = getattr(owner, clsname)
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
                if kind == "count":
                    wrapper = self.counted(name, original)
                elif kind == "span":
                    wrapper = self.spanned(name, original)
                else:
                    wrapper = getattr(self, "_%s_wrapper" % kind)(name, original)
                if clsname is not None:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch(self, owner, attr, wrapper):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------

    def metrics(self):
        """Per-layer counts and self times aggregated over all spans."""
        calls = {name: cell[0] for name, cell in self.counts.items()}
        self_s = {}
        by_module = dict.fromkeys(MODULES, 0.0)
        unattributed = 0.0
        for (name, _, _, _), own in zip(self.spans, self_times(self.spans)):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if name == ROOT:
                unattributed += own
            else:
                by_module[name.split(".", 1)[0]] += own
        out = {}
        for kind, _, _, _, name in TARGETS:
            out[name + ".calls"] = calls.get(name, 0)
            if kind != "count":
                out[name + ".self_s"] = self_s.get(name, 0.0)
        for module, seconds in by_module.items():
            out[module + ".self_s"] = seconds
        out["trace.unattributed_s"] = unattributed
        out["uq.component.builds"] = self.builds
        out["uq.component.span_rows"] = self.span_rows
        out["uq.component.pivot_rows"] = self.pivot_rows
        out["uq.component.row_yield"] = self.pivot_rows / self.span_rows if self.span_rows else 0.0
        mul_calls = calls.get("aq.mul", 0)
        out["aq.mul.distinct_ratio"] = len(self._pairs) / mul_calls if mul_calls else 0.0
        return out

    def write_spans(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "start_s", "end_s"],
                    "names": names,
                    "spans": [[index[n], p, s - t0, e - t0] for n, p, s, e in self.spans],
                },
                fh,
                separators=(",", ":"),
            )


def uq_cache_entries(uq):
    """Total number of entries in uq's memo tables."""
    return sum(getattr(uq, name).cache_info().currsize for name in UQ_CACHES)
