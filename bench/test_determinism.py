"""Self-test of the benchmark: same seed, same work; other seed, other inputs.

    python3 -m pytest bench/test_determinism.py -q

Takes a few minutes: each traced run repeats one pass under the tracer.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import locate  # noqa: E402

locate.import_package()
import workloads  # noqa: E402

SEED, OTHER_SEED = 1, 2
TIMED = ("busy_s", "trace.overhead_ratio")  # wall-clock metrics; everything else is a count or a ratio of counts


def run(workload: str, seed: int, trace: int) -> tuple[str, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=locate.ROOT, capture_output=True, text=True, timeout=600, check=True).stdout.splitlines()
    return re.search(r"inputs_sha256=(\w+)", lines[0]).group(1), json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_same_seed_gives_identical_counts(workload):
    digest_a, a = run(workload, SEED, trace=1)
    digest_b, b = run(workload, SEED, trace=1)
    assert digest_a == digest_b
    assert a["correct"] and b["correct"]
    counts_a = {k: v["value"] for k, v in a["metrics"].items() if not k.endswith(TIMED)}
    counts_b = {k: v["value"] for k, v in b["metrics"].items() if not k.endswith(TIMED)}
    assert counts_a == counts_b


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_other_seed_draws_other_inputs_with_no_errors(workload):
    table_dir = locate.OUT / "unused"
    first = workloads.inputs_digest(workloads.draw(workload, SEED, table_dir))
    assert first == workloads.inputs_digest(workloads.draw(workload, SEED, table_dir))
    digest, result = run(workload, OTHER_SEED, trace=0)
    assert digest != first
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
