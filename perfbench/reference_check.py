"""Check that the reference samples do not depend on quadalg's state.

    python3 perfbench/reference_check.py [--seed N] [--rounds R]

Run from the repository root.  For each workload in turn, R rounds, it
runs one pass in a fresh interpreter.  Right after every reference
sample of the pass, the kernel is also timed in a companion interpreter
that holds nothing but the kernel.  It prints, per workload, the median
ratio of the in-process sample to the companion's.  If quadalg's heap or caches
slowed the in-process samples, that workload's ratio would stand above
the others.  The exit code is 1 if a ratio is off 1 by more than
TOLERANCE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TOLERANCE = 0.05
COMPANION = (
    "import sys\n"
    "sys.path.insert(0, %r)\n"
    "from reference import time_kernel\n"
    "for _ in sys.stdin:\n"
    "    print(repr(time_kernel()), flush=True)\n"
) % HERE


class PairedOps(workloads.Ops):
    """Ops whose every reference sample is paired with one from the companion."""

    def __init__(self, companion):
        super().__init__()
        self.companion = companion
        self.ratios = []

    def sample_reference(self, force=False):
        before = len(self.reference_s)
        super().sample_reference(force)
        if len(self.reference_s) > before:
            self.companion.stdin.write("\n")
            self.companion.stdin.flush()
            other = float(self.companion.stdout.readline())
            self.ratios.append(self.reference_s[-1] / other)


def one_pass(workload, seed):
    import quadalg.cli  # loads every quadalg module

    companion = subprocess.Popen([sys.executable, "-c", COMPANION], text=True,
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        ops = PairedOps(companion)
        if workload == "serre-build":
            workloads.run_serre_build(quadalg, ops, seed)
        elif workload == "dual-oracle":
            workloads.run_dual_oracle(quadalg, ops, seed)
        else:
            with open(os.path.join(HERE, "suite_digests.json")) as fh:
                workloads.run_cli_session(quadalg, ops, seed, json.load(fh))
    finally:
        companion.stdin.close()
        companion.wait()
    return ops.ratios


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--pass-of", choices=workloads.WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pass_of:
        print(json.dumps(one_pass(args.pass_of, args.seed)))
        return 0
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    ratios = {w: [] for w in workloads.WORKLOADS}
    for _ in range(args.rounds):
        for w in workloads.WORKLOADS:
            out = subprocess.run([sys.executable, __file__, "--pass-of", w, "--seed", str(args.seed)],
                                 env=env, capture_output=True, text=True, check=True)
            ratios[w] += json.loads(out.stdout.strip().splitlines()[-1])
    ok = True
    for w, r in ratios.items():
        m = statistics.median(r)
        ok = ok and abs(m - 1.0) <= TOLERANCE
        print("%-12s samples %4d  in-process / companion: median %.3f" % (w, len(r), m))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
