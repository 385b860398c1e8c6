"""Tests of the benchmark's own code: statistics, scaling, spans, inputs, tracing."""

import os
import sys
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import reference  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = stats.tail(list(range(100, 0, -1)))
    assert (value, pct, n) == (90, 90.0, 100)
    value, pct, n = stats.tail([5.0] * 3 + list(range(8)))
    assert n == 11 and value == 0 and pct == pytest.approx(100 / 11)
    for n in (11, 57, 420):
        samples = list(range(n))
        value, _, _ = stats.tail(samples)
        assert sum(s > value for s in samples) == 10
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def test_speed_scales_by_the_mean_reference_time():
    assert reference.speed([reference.REFERENCE_S] * 3) == 1.0
    assert reference.speed([0.001, 0.003]) == pytest.approx(reference.REFERENCE_S / 0.002)


def test_local_speeds_follow_the_samples_around_each_op():
    ms = reference.REFERENCE_S
    samples = [ms] * 4 + [2 * ms] * 4
    assert reference.local_speeds(samples, [1, 8], window=1) == [1.0, 0.5]
    assert reference.local_speeds(samples, [4], window=1) == [pytest.approx(2 / 3)]
    assert reference.local_speeds(samples, [4], window=4) == [pytest.approx(2 / 3)]


def test_time_kernel_runs_without_gc_and_restores_it():
    import gc

    assert gc.isenabled()
    seen = []
    real = reference.reference_kernel
    try:
        reference.reference_kernel = lambda: seen.append(gc.isenabled())
        assert reference.time_kernel() >= 0.0
    finally:
        reference.reference_kernel = real
    assert seen == [False, False]  # one warm-up run, one timed run
    assert gc.isenabled()
    gc.disable()
    try:
        reference.time_kernel()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_reference_samples_are_spaced_between_ops(monkeypatch):
    ops = workloads.Ops()
    ops.run(lambda: None)
    ops.run(lambda: None)
    assert len(ops.reference_s) == 1
    ops.sample_reference(force=True)
    monkeypatch.setattr(workloads, "REFERENCE_INTERVAL_S", 0.0)
    ops.sample_reference(force=True)
    ops.sample_reference()
    assert len(ops.reference_s) == 4
    assert len(ops.latencies) == 2
    assert ops.sampling_s >= sum(ops.reference_s)
    assert ops.sample_counts == [1, 1]


def test_self_time_of_nested_spans():
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["a.child", 1, 2.0, 3.0],
        ["b", 0, 5.0, 9.0],
        ["other", -1, 11.0, 12.5],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_spans_record_parents_and_self_time():
    tracer = tracing.Tracer()
    inner = tracer.spanned("uq.inner", lambda: sum(range(1000)))
    outer = tracer.spanned("aq.outer", lambda: inner() + inner())
    tracer.op(outer)
    names = [s[0] for s in tracer.spans]
    parents = [s[1] for s in tracer.spans]
    assert names == [tracing.ROOT, "aq.outer", "uq.inner", "uq.inner"]
    assert parents == [-1, 0, 1, 1]
    own = tracing.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root[3] - root[2])
    metrics = tracer.metrics()
    assert metrics["aq.self_s"] == pytest.approx(own[1])
    assert metrics["uq.self_s"] == pytest.approx(own[2] + own[3])


@pytest.mark.parametrize(
    "generate", [workloads.serre_queries, workloads.random_functionals, workloads.cli_requests]
)
def test_inputs_depend_only_on_the_seed(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_cli_stream_has_a_fixed_mix_and_every_suite():
    requests = workloads.cli_requests(1)
    suites = list(workloads.SUITE_NAMES)
    assert len(requests) == workloads.PARAMS["cli-session"]["requests"] + len(suites)
    assert [r[1] for r in requests if r[0] == "verify"] == suites
    assert requests[-1] == ["verify", suites[-1], "--json"]
    assert all(r[-1] == "--json" for r in requests)
    assert Counter(r[0] for r in requests) == Counter(r[0] for r in workloads.cli_requests(2))


def test_spread_keeps_order_and_items():
    items = list(range(17))
    slices = workloads._spread(items, 5)
    assert len(slices) == 5 and sum(slices, []) == items
    assert max(map(len, slices)) - min(map(len, slices)) <= 1


def test_independent_checks():
    assert workloads.pbw_dimensions(3) == [1, 3, 8, 17]
    relations = [(0, 2, 1), (2, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 0), (1, 1, 0)]
    # (2,0,1) leaves one n to place on either side; each commutator
    # leaves m and b: 2 + 1 + 1 + 2 placements.
    assert tracing.span_row_count((2, 1, 1), relations) == 2 + 2 * 6


def test_op_that_raises_counts_as_failed():
    ops = workloads.Ops()
    assert ops.run(lambda: 1 // 0) == (False, None)
    ok, value = ops.run(lambda: 3)
    ops.record(value == 3)
    assert (ops.attempted, ops.failed, len(ops.latencies)) == (2, 1, 2)


def _snapshot():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "quadalg" or name.startswith("quadalg."):
            snap[mod] = dict(vars(mod))
    for _, modname, clsname, _, _ in tracing.TARGETS:
        if clsname is not None:
            cls = getattr(sys.modules[modname], clsname)
            snap[cls] = dict(cls.__dict__)
    return snap


def test_tracing_wraps_every_target_and_restores_it():
    import quadalg.cli  # noqa: F401  (loads every quadalg module)
    from quadalg import dirac, ring, transform, uq

    before = _snapshot()
    tracer = tracing.Tracer()
    with tracer:
        patched = {(owner, attr) for owner, attr, _ in tracer.patches}
        for _, modname, clsname, attr, _ in tracing.TARGETS:
            owner = sys.modules[modname]
            if clsname is not None:
                owner = getattr(owner, clsname)
            assert (owner, attr) in patched
        assert dirac.right_dual_bruteforce is transform.right_dual_bruteforce
        assert dirac.right_dual_bruteforce is not before[dirac]["right_dual_bruteforce"]
        ring.LaurentPoly.q(1) * ring.LaurentPoly.q(2)
        uq.serre_reduce({(0, 1): 1, (1, 0): -1})
    after = _snapshot()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys()
        for attr, value in attrs.items():
            assert after[owner][attr] is value, (owner, attr)
    metrics = tracer.metrics()
    assert metrics["ring.laurent_mul.calls"] >= 1
    assert metrics["uq.serre_reduce.calls"] == 1
    count = metrics["ring.laurent_mul.calls"]
    ring.LaurentPoly.q(1) * ring.LaurentPoly.q(2)
    assert tracer.metrics()["ring.laurent_mul.calls"] == count
