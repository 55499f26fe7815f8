"""Child-process helpers of the benchmark.

    python3 perfbench/probe.py setup <workload> <seed>
        Import twopal (and its CLI module) in a fresh interpreter and make
        one warm-up call of each entry point the workload uses, at n = 16.
        The parent times the whole process as setup_s.

    python3 perfbench/probe.py oracle <n> <seed>
        Print, as a JSON list, whether each exact_adversarial word of length
        n is a member according to the exact distance oracle.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import twopal  # noqa: E402
import twopal.cli  # noqa: E402,F401

from workloads import SWEEPS, adversarial_words  # noqa: E402

SETUP_N = 16


def setup(workload: str, seed: int) -> None:
    if workload in SWEEPS:
        from twopal.experiment import ExperimentConfig, run_experiment

        common = SWEEPS[workload]["common"]
        run_experiment(ExperimentConfig(sizes=(SETUP_N,), trials=2, seed=seed, **common))
        return
    for w in adversarial_words(SETUP_N, seed):
        twopal.exact_member(w, twopal.QueryLedger())


def oracle(n: int, seed: int) -> None:
    verdicts = [
        twopal.distance_to_language(w).distance == 0
        for w in adversarial_words(n, seed)
    ]
    print(json.dumps(verdicts))


if __name__ == "__main__":
    command, first, second = sys.argv[1:4]
    if command == "setup":
        setup(first, int(second))
    elif command == "oracle":
        oracle(int(first), int(second))
    else:
        sys.exit(f"unknown probe command {command!r}")
