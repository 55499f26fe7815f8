"""twopal benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload desk_mixed --seed 41 --seconds 36 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):

- sweep_far_ladder: run_experiment at n = 2^9..2^21, eps 0.1, 4 far trials,
  quantum and classical (default seed 1706, 40 trial-ops per pass).
- desk_mixed: run_experiment at n = 1024, eps 0.1, 200 trials, half members,
  quantum, classical and exact (default seed 41, 600 trial-ops per pass).
- exact_adversarial: exact_member on seven adversarial words at n = 2^20
  (default seed 2015, 7 ops per pass).

The run first times SETUP_PROBES fresh interpreters that import twopal and
warm up the workload's entry points at n = 16. setup_s is their median in
nominal seconds: each probe's seconds rescaled to a host on which the
reference computation takes REFERENCE_NOMINAL_S, because a shared host's
speed can drift by up to 2x; the measured seconds are printed as
setup_seconds.
It then repeats the workload's fixed work, single process, until another
pass would overrun --seconds (at least one pass). wall_ref is the median
pass time in units of a fixed reference computation timed across the same
pass (see ReferenceSampler); the plain median pass time in seconds, wall_s,
is printed with the other facts. peak_rss_mb is the process's peak resident
memory. Every op of every pass goes through the workload's correctness
gate, and seeded verdicts and ledgers must repeat exactly across passes; at
a workload's default seed they must also equal
perfbench/reference_ledgers.json.

With --trace 1 a further pass runs with the per-layer wrappers of tracer.py
installed and the per-layer metrics are printed instead. Machine facts,
ledger tables and accept rates go to stdout and to .perfbench_out/; the
last stdout line is the JSON result. The exit code is nonzero when any op
failed or when the program's source tree (src/twopal) is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference_ledgers.json"
SETUP_PROBES = 7
REFERENCE_INTERVAL_S = 0.25
REFERENCE_NOMINAL_S = 0.002


def load_program() -> None:
    """Import twopal from this checkout's src/, never from anywhere else."""
    init = SRC / "twopal" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: program source not found at {init}")
    sys.path.insert(0, str(SRC))
    import twopal

    if Path(twopal.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported twopal from {twopal.__file__}, not {init}")


_REFERENCE_TEXT = bytes(range(256)) * 16


def reference_work() -> tuple[float, float]:
    """Run a fixed unit of pure-Python work shaped like the program's hot
    loops (a generator building bytes by modular indexing); returns its
    start time and duration in seconds."""
    start = time.perf_counter()
    bytes(_REFERENCE_TEXT[(7 * p) % 4093] for p in range(20_000))
    return start, time.perf_counter() - start


class ReferenceSampler:
    """Times reference_work() before, during (every REFERENCE_INTERVAL_S, from
    a SIGALRM handler, so between bytecodes of the main thread) and after a
    pass. A shared host's speed can drift by tens of percent over tens of
    seconds; a pass's time divided by the reference time measured across it
    drifts much less, which is what wall_ref reports."""

    def __enter__(self) -> "ReferenceSampler":
        self.samples = [reference_work()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        return self

    def _sample(self, signum, frame) -> None:
        self.samples.append(reference_work())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Time SETUP_PROBES fresh interpreters; returns their seconds, and the
    same at the nominal reference speed (see nominal_seconds)."""
    cmd = [sys.executable, str(HERE / "probe.py"), "setup", name, str(seed)]
    # one untimed probe first, so bytecode caches are as a user would find them
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    raw, nominal = [], []
    for _ in range(SETUP_PROBES):
        before = [reference_work()[1] for _ in range(3)]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        seconds = time.perf_counter() - start
        after = [reference_work()[1] for _ in range(3)]
        raw.append(seconds)
        nominal.append(nominal_seconds(seconds, before + after))
    return raw, nominal


def nominal_seconds(seconds: float, reference: list[float]) -> float:
    """seconds rescaled to a host on which reference_work() takes
    REFERENCE_NOMINAL_S, using reference samples taken around them."""
    return seconds * REFERENCE_NOMINAL_S / statistics.mean(reference)


def timed_pass(workload) -> tuple[object, float, float]:
    """Run one pass; returns its outputs, its seconds net of the reference
    samples taken inside it, and those seconds in reference units."""
    with ReferenceSampler() as ref:
        t0 = time.perf_counter()
        outputs = workload.run_pass()
        t1 = time.perf_counter()
    ref.samples.append(reference_work())
    inside = sum(d for start, d in ref.samples if t0 <= start and start + d <= t1)
    seconds = t1 - t0 - inside
    return outputs, seconds, seconds / statistics.mean(d for _, d in ref.samples)


def timed_passes(workload, seconds: float) -> tuple[list[float], list[float], list]:
    """Repeat the workload until another pass would overrun the budget."""
    start = time.perf_counter()
    times, refs, checks = [], [], []
    while True:
        outputs, elapsed, in_ref = timed_pass(workload)
        times.append(elapsed)
        refs.append(in_ref)
        checks.append(workload.check(outputs))
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times, refs, checks


def gate_repeats(checks: list, reference: dict | None) -> None:
    """Every pass must reproduce the first pass's seeded record, and the first
    must match the recorded reference when there is one. Ops of a pass that
    drifts count as failed."""
    first = checks[0].record
    for check in checks[1:]:
        if check.record != first:
            check.notes.append("seeded verdicts or ledgers differ from the first pass")
            check.failed = check.attempted
    if reference is None:
        return
    for label in sorted(set(reference) | set(first)):
        if reference.get(label) != first.get(label):
            row = reference.get(label) or first.get(label)
            checks[0].failed = min(
                checks[0].attempted, checks[0].failed + row.get("trials", 1)
            )
            checks[0].notes.append(f"{label}: ledger differs from reference")


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_benchmark(
    name: str,
    seed: int | None,
    seconds: float,
    trace: bool,
    scale: str = "full",
) -> tuple[dict, dict]:
    """Run one workload; returns (result, info) where result is the object
    printed as the last line."""
    if seed is None:
        seed = workloads.DEFAULT_SEEDS[name]
    setup, setup_nominal = measure_setup(name, seed)
    workload = workloads.make_workload(name, seed, scale)
    times, refs, checks = timed_passes(workload, seconds)
    reference = None
    if scale == "full" and seed == workloads.DEFAULT_SEEDS[name]:
        reference = json.loads(REFERENCE.read_text())[name]
    gate_repeats(checks, reference)
    wall_s = statistics.median(times)
    info = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "machine": machine_info(),
        "wall_s": wall_s,
        "pass_seconds": times,
        "pass_ref": refs,
        "setup_seconds": setup,
        "setup_nominal_seconds": setup_nominal,
        "ledgers": checks[0].record,
        "rates": workload.rates(checks[0].record),
        "failures": [note for c in checks for note in c.notes],
    }
    if trace:
        from tracer import TracedRun

        with TracedRun() as traced:
            t0 = time.perf_counter()
            outputs = workload.run_pass()
            traced_wall = time.perf_counter() - t0
        traced_check = workload.check(outputs)
        checks.append(traced_check)
        if traced_check.record != checks[0].record:
            traced_check.notes.append("traced pass differs from the timed passes")
            traced_check.failed = traced_check.attempted
        metrics, absent = traced.metrics(traced_wall, wall_s)
        info["absent_metrics"] = absent
        info["absent_targets"] = traced.absent
        info["self_seconds"] = dict(traced.tracer.self_time)
        info["failures"] += traced_check.notes
        traced.tracer.write(OUT_DIR / f"{name}-seed{seed}-{scale}.spans.csv.gz")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_nominal), "unit": "s"},
            "wall_ref": {"value": statistics.median(refs), "unit": "ref"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    info["fail_rate"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    result, info = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{info['seed']}-trace{args.trace}.json"
    out.write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n")
    for key in (
        "machine",
        "rates",
        "fail_rate",
        "wall_s",
        "pass_seconds",
        "pass_ref",
        "setup_seconds",
        "setup_nominal_seconds",
    ):
        print(f"{key}: {json.dumps(info[key])}")
    for label, row in info["ledgers"].items():
        print(f"ledger {label}: {json.dumps(row)}")
    for key in ("absent_metrics", "failures"):
        if info.get(key):
            print(f"{key}: {json.dumps(info[key])}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
