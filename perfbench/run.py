"""quadalg benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a quadalg checkout.  Each workload pass runs in a
fresh interpreter (cold ``lru_cache``s, as every ``quadalg`` invocation
pays), passes repeat until about ``--seconds`` have been spent, and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it starts with ``meta`` and holds the run
metadata; everything is also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import reference
import stats
import tracing
import workloads

median = statistics.median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_IMPORTS = 21
MIN_PASSES = 3
# A run gives up (exit 1) rather than overrun the 180 s a run may take.
RUN_LIMIT_S = 170
# Prints the set-up time, then the reference kernel's time in the same
# interpreter; perfbench/ is put on sys.path after quadalg is imported.
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import quadalg, quadalg.cli\n"
    "quadalg.cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, %r)\n"
    "from reference import time_kernel\n"
    "refs = [time_kernel() for _ in range(5)]\n"
    "print(repr(t1 - t0), repr(sum(refs) / len(refs)))\n"
)


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline):
    proc = subprocess.run(
        [sys.executable] + args, cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError("child %s exited %d:\n%s" % (args[:2], proc.returncode, proc.stderr))
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(deadline):
    """Time for a fresh interpreter to import quadalg and build the CLI parser.

    Returns the median raw time and the median time scaled to the
    reference speed measured in the same interpreter.
    """
    code = SETUP_CODE % HERE
    run_child(["-c", code], deadline)  # compiles the bytecode once, untimed
    raw, scaled = [], []
    for _ in range(SETUP_IMPORTS):
        seconds, ref = map(float, run_child(["-c", code], deadline).split())
        raw.append(seconds)
        scaled.append(seconds * reference.speed([ref]))
    return median(raw), median(scaled)


def run_pass(workload, seed, deadline, spans_path=None):
    args = [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    if spans_path:
        args += ["--spans", spans_path]
    return json.loads(run_child(args, deadline))


def run_passes(workload, seed, seconds, traced, deadline):
    """Untraced passes (alternating with traced ones when ``traced``) for ~seconds."""
    plain, tr = [], []
    start = time.perf_counter()
    step_times = []
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(workload, seed, deadline))
        if traced:
            path = os.path.join(OUT, "spans-%s-seed%d.json" % (workload, seed))
            tr.append(run_pass(workload, seed, deadline, path))
        step_times.append(time.perf_counter() - t0)
        spent = time.perf_counter() - start
        enough = len(step_times) >= (1 if traced else MIN_PASSES)
        if enough and spent + median(step_times) > seconds:
            return plain, tr


def check_passes(workload, passes):
    """Failures across passes, plus cli outputs that differ from the first pass."""
    failed = sum(p["failed"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    if workload == "cli-session":
        first = passes[0]["output_digests"]
        for p in passes[1:]:
            failed += sum(a != b for a, b in zip(first, p["output_digests"]))
    return attempted, failed


def end_to_end(plain, setup):
    """Medians over passes of the pass figures scaled to the reference speed.

    A pass's wall time is scaled by the pass's mean speed, each latency by
    the speed around the op.  Latency percentiles are taken within each
    pass.  The raw medians go into the metadata.
    """
    tails = [stats.tail(p["latencies_s"]) for p in plain]
    per_pass = {
        "wall_s": [p["wall_s"] for p in plain],
        "op_p50_ms": [median(p["latencies_s"]) * 1000.0 for p in plain],
        "op_tail_ms": [t[0] * 1000.0 for t in tails],
    }
    speeds = [reference.speed(p["reference_s"]) for p in plain]
    scaled = [
        [x * f for x, f in zip(p["latencies_s"],
                               reference.local_speeds(p["reference_s"], p["sample_counts"]))]
        for p in plain
    ]
    values = {
        "wall_s": median(x * f for x, f in zip(per_pass["wall_s"], speeds)),
        "op_p50_ms": median(median(x) for x in scaled) * 1000.0,
        "op_tail_ms": median(stats.tail(x)[0] for x in scaled) * 1000.0,
        "setup_s": setup[1],
    }
    values["ops_per_s"] = plain[0]["attempted"] / values["wall_s"]
    values["peak_rss_mb"] = median(p["peak_rss_mb"] for p in plain)
    meta = {
        "raw": {k: median(v) for k, v in per_pass.items()},
        "reference_speed": median(speeds),
        "tail_percentile": tails[0][1],
        "latency_samples_per_pass": tails[0][2],
    }
    meta["raw"]["setup_s"] = setup[0]
    return values, meta


def per_layer(workload, plain, traced):
    """Medians over traced passes; build times and overhead from untraced ones.

    Span self times are raw seconds of the traced passes.  Build times and
    the tracing overhead are scaled to the reference speed, like the
    end-to-end times, so that drift between passes does not swamp them.
    """
    values = {key: median(p["layers"][key] for p in traced) for key in traced[0]["layers"]}
    degrees = ("uq.degree_5_s", "uq.degree_6_s", "uq.degree_7_s")
    if workload == "serre-build":
        for d, name in enumerate(degrees, start=5):
            values[name] = median(
                p["degree_s"][str(d)] * reference.speed(p["reference_s"]) for p in plain
            )
        values["uq.growth_x"] = values["uq.degree_7_s"] / values["uq.degree_6_s"]
    else:
        values.update(dict.fromkeys(degrees + ("uq.growth_x",), 0.0))
    values["uq.cache_entries"] = median(p["uq_cache_entries"] for p in plain)
    values["trace.overhead_s"] = median(
        p["wall_s"] * reference.speed(p["reference_s"]) for p in traced
    ) - median(p["wall_s"] * reference.speed(p["reference_s"]) for p in plain)
    return values


def rollup(workload, values):
    lines = ["self time per module on %s (traced run):" % workload]
    for module in tracing.MODULES:
        lines.append("  %-10s %9.4f s" % (module, values[module + ".self_s"]))
    lines.append("  %-10s %9.4f s" % ("(ops)", values["trace.unattributed_s"]))
    lines.append("  trace.overhead_s     %.4f s" % values["trace.overhead_s"])
    lines.append("  uq.component.builds  %d" % values["uq.component.builds"])
    lines.append("  aq.mul.calls         %d" % values["aq.mul.calls"])
    return "\n".join(lines)


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "quadalg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quadalg", "__init__.py")):
        sys.stderr.write("error: no quadalg sources under %s\n" % SRC)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)
    try:
        setup = None if args.trace else measure_setup(deadline)
        plain, traced = run_passes(args.workload, args.seed, args.seconds, args.trace, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    attempted, failed = check_passes(args.workload, plain + traced)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "parameters": workloads.PARAMS[args.workload],
        "passes": len(plain),
        "traced_passes": len(traced),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "fail_ratio": failed / attempted,
        "errors": [e for p in plain + traced for e in p["errors"]][:20],
    }
    if args.trace:
        values = per_layer(args.workload, plain, traced)
        names = spec["per_layer"]
        sys.stderr.write(rollup(args.workload, values) + "\n")
    else:
        values, extra = end_to_end(plain, setup)
        meta.update(extra)
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=2, sort_keys=True)
    sys.stdout.write("meta " + json.dumps(meta, sort_keys=True) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
