"""One pass of one workload in a fresh interpreter; prints one JSON line.

Started by run.py as ``python3 perfbench/worker.py --workload W --seed N
[--spans FILE]``, with ``src`` on PYTHONPATH.  With ``--spans`` the pass
runs traced and the spans are written to FILE when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SUITE_DIGESTS = os.path.join(HERE, "suite_digests.json")


def run_pass(workload, seed, spans_path=None):
    import quadalg.cli  # loads every quadalg module

    q = quadalg
    with open(SUITE_DIGESTS) as fh:
        suite_digests = json.load(fh)
    tracer = tracing.Tracer().install() if spans_path else None
    ops = workloads.Ops(tracer)
    t0 = time.perf_counter()
    try:
        if workload == "serre-build":
            extra = workloads.run_serre_build(q, ops, seed)
        elif workload == "dual-oracle":
            extra = workloads.run_dual_oracle(q, ops, seed)
        else:
            extra = workloads.run_cli_session(q, ops, seed, suite_digests)
        ops.sample_reference(force=True)
    finally:
        wall = time.perf_counter() - t0 - ops.sampling_s
        if tracer is not None:
            tracer.uninstall()
    result = {
        "wall_s": wall,
        "latencies_s": ops.latencies,
        "sample_counts": ops.sample_counts,
        "reference_s": ops.reference_s,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "uq_cache_entries": tracing.uq_cache_entries(q.uq),
    }
    result.update(extra)
    if tracer is not None:
        tracer.write_spans(spans_path)
        result["layers"] = tracer.metrics()
        result["span_count"] = len(tracer.spans)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
