"""The benchmark's seeded ledgers, checked on every test run.

One pass of each workload in perfbench/workloads.py, at its default seed and
full scale, must pass the workload's correctness check and reproduce the
record in perfbench/reference_ledgers.json exactly: every verdict and every
ledger count. The benchmark reads the same files, so a change that moves a
count fails here before a benchmark run would show it.

The traced benchmark wraps program names by module attribute and leading
parameter names (perfbench/tracer.py TARGETS), and a name it cannot resolve
only zeroes the metrics that need it. The set of names it resolves is
checked here too, so a refactor that blinds one more target fails a test.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from tracer import TARGETS, TracedRun  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference_ledgers.json").read_text())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_one_pass_reproduces_the_reference_ledgers(name):
    workload = workloads.make_workload(name, workloads.DEFAULT_SEEDS[name])
    check = workload.check(workload.run_pass())
    assert check.failed == 0, check.notes
    assert check.record == REFERENCE[name]


# the names a traced run wraps, and those it reports absent because the
# program no longer has them (or no longer takes those leading parameters)
LIVE_TARGETS = {
    "experiment.run_experiment",
    "experiment.gen_far",
    "experiment.gen_member",
    "experiment.quantum_test",
    "experiment.classical_test",
    "experiment.exact_member",
    "membership.exact_member",
}
DEAD_TARGETS = {
    "generators.distance_to_language",
    "tester.left_string",
    "tester.right_string",
    "tester.Trie",
    "tester.grover_search",
}


def test_the_tracer_resolves_exactly_its_live_targets():
    with TracedRun() as run:
        absent = set(run.absent)
    assert set(TARGETS) == LIVE_TARGETS | DEAD_TARGETS
    assert absent == DEAD_TARGETS
