"""One pass of each benchmark workload, run as the benchmark runs it.

A pass runs ``perfbench/worker.py`` in a fresh interpreter with ``src`` on
PYTHONPATH and PYTHONHASHSEED=0, and every workload checks its own
results; so an engine change that breaks one shows here before a
benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_of_each_benchmark_workload_has_no_failed_op(workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload, "--seed", "1"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert (result["failed"], result["errors"]) == (0, [])
