"""The benchmark's seeded ledgers, checked on every test run.

One pass of each workload in perfbench/workloads.py, at its default seed and
full scale, must pass the workload's correctness check and reproduce the
record in perfbench/reference_ledgers.json exactly: every verdict and every
ledger count. The benchmark reads the same files, so a change that moves a
count fails here before a benchmark run would show it.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference_ledgers.json").read_text())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_one_pass_reproduces_the_reference_ledgers(name):
    workload = workloads.make_workload(name, workloads.DEFAULT_SEEDS[name])
    check = workload.check(workload.run_pass())
    assert check.failed == 0, check.notes
    assert check.record == REFERENCE[name]
