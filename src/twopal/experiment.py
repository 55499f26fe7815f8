"""Seeded experiment harness: sweeps (n, epsilon, mode, instance class) cells,
aggregates query ledgers, and emits CSV/JSON reports.

A trial is one instance run under every configured mode. It derives its seed
from the base seed and a stable hash of (n, epsilon, class, trial index),
builds the instance once, and draws the testers' shift sample once right
after it (only when a tester mode is configured). Each tester takes the
shared sample in place of its own first draw, and after that draw only the
quantum tester takes anything from the generator, so every mode sees the
same word and the same draws it would see alone. Any subset of cells or
modes therefore reproduces bit-identically, and trials can run in any order
or process. Aggregation uses only sums and maxima, keeping parallel runs
deterministic (wall-clock seconds excepted).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

from .generators import FarInstanceError, gen_far, gen_member
from .ledger import QueryLedger
from .membership import exact_member
from .tester import classical_test, quantum_test, sample_offsets

CSV_COLUMNS = (
    "n",
    "epsilon",
    "mode",
    "class",
    "trials",
    "accept_rate",
    "mean_queries",
    "max_queries",
    "mean_classical_reads",
    "seconds",
)

# the largest size every alphabet can draw: random_word may ask the
# generator for 8n random bits in one getrandbits call (32n for an alphabet
# that does not divide 256), and that call's bit count is a C int, below
# 2^31. A plain random.Random draws a long word through numpy instead, but
# any other generator object still makes that call
MAX_SIZE = 2**25

MODES = ("quantum", "classical", "exact")


def _check_int(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class AssertionThresholds:
    """Acceptance gates evaluated by --assert: members must be accepted at a
    Wilson lower bound above the first value, far words accepted at most at
    the second."""

    member_accept_lower_min: float = 0.80
    far_accept_max: float = 0.30

    def __post_init__(self) -> None:
        for name in ("member_accept_lower_min", "far_accept_max"):
            value = getattr(self, name)
            _check_real(name, value)
            # NaN fails both comparisons, so it is refused with the infinities
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    sizes: tuple[int, ...]
    epsilons: tuple[float, ...]
    trials: int = 100
    seed: int = 0
    modes: tuple[str, ...] = ("quantum",)
    member_fraction: float = 0.5
    workers: int = 1
    max_far_attempts: int = 1000
    alphabet_size: int = 2
    assertions: AssertionThresholds = field(default_factory=AssertionThresholds)

    def __post_init__(self) -> None:
        for name in ("trials", "seed", "workers", "max_far_attempts", "alphabet_size"):
            _check_int(name, getattr(self, name))
        _check_real("member_fraction", self.member_fraction)
        for n in self.sizes:
            _check_int("sizes entry", n)
            if n < 4 or n % 2:
                raise ValueError(f"sizes must be even and >= 4, got {n}")
            if n > MAX_SIZE:
                raise ValueError(
                    f"sizes must be at most {MAX_SIZE} (2^25), got {n}: a word "
                    "draws up to 32 random bits per symbol in one call, whose "
                    "bit count must stay below 2^31"
                )
        for eps in self.epsilons:
            _check_real("epsilons entry", eps)
            if not 0.0 < eps < 1.0:
                raise ValueError(f"epsilons must lie in (0, 1), got {eps}")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
        # set() needs hashable entries, so the entries are checked first
        for name in ("sizes", "epsilons", "modes"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat entries, got {list(values)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.member_fraction <= 1.0:
            raise ValueError("member_fraction must lie in [0, 1]")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_far_attempts < 1:
            raise ValueError("max_far_attempts must be >= 1")
        if not 2 <= self.alphabet_size <= 256:
            raise ValueError("alphabet_size must lie in [2, 256]")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        data = dict(raw)
        try:
            thresholds = AssertionThresholds(**data.pop("assertions", {}))
        except TypeError as exc:
            raise ValueError(f"bad config section: {exc}") from None
        for key in ("sizes", "epsilons", "modes"):
            if key in data:
                if not isinstance(data[key], (list, tuple)):
                    raise ValueError(f"{key} must be a list, got {data[key]!r}")
                data[key] = tuple(data[key])
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        missing = [
            f.name
            for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING and f.name not in data
        ]
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        return cls(assertions=thresholds, **data)

    def to_dict(self) -> dict:
        return asdict(self)

    def class_trials(self) -> list[tuple[str, int]]:
        members = round(self.trials * self.member_fraction)
        split = [("member", members), ("far", self.trials - members)]
        return [(cls_, count) for cls_, count in split if count > 0]


@dataclass
class CellResult:
    n: int
    epsilon: float
    mode: str
    instance_class: str
    trials: int
    accepts: int
    mean_queries: float
    max_queries: int
    mean_classical_reads: float
    seconds: float
    skipped: Optional[str] = None

    @property
    def accept_rate(self) -> float:
        return self.accepts / self.trials if self.trials else 0.0

    @property
    def wilson(self) -> tuple[float, float]:
        return wilson_interval(self.accepts, self.trials)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    cells: list[CellResult]


# the standard normal's 97.5% quantile, for two-sided 95% intervals
_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% score interval for a binomial proportion."""
    z = _Z95
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)
    )
    return (max(0.0, center - half), min(1.0, center + half))


def _trial_seed(base_seed: int, cell_key: str, trial: int) -> int:
    digest = hashlib.blake2b(
        f"{cell_key}#{trial}".encode(), digest_size=8
    ).digest()
    return base_seed ^ int.from_bytes(digest, "big")


def _run_mode(mode: str, x, epsilon: float, rng: random.Random, shifts) -> tuple:
    if mode != "exact":
        tester = quantum_test if mode == "quantum" else classical_test
        verdict = tester(x, epsilon, rng, shifts)
        ledger = verdict.ledger
        return (verdict.accept, ledger.total_charged, ledger.classical_reads)
    ledger = QueryLedger()
    result = exact_member(x, ledger)
    return (result.is_member, ledger.total_charged, ledger.classical_reads)


def _run_trial(config: ExperimentConfig, key: tuple) -> list[tuple]:
    """One seeded trial, wholly described by config and key = (n, epsilon,
    class, trial index): build the instance once and, when config.modes holds
    a tester mode, draw the testers' shift sample once right after it. Then
    run the instance under every mode of config.modes, handing the shifts to
    each tester, which continues exactly as if it had drawn it itself. Only
    the quantum tester draws from rng after that, so every mode starts from
    the state the draw left. Returns one (outcome, seconds) per mode, where
    outcome is (accepted, total_queries, classical_reads) or the skip reason
    when no far instance was found, and seconds is the mode's own time plus
    an equal share of the build time (the draw included). Module level so
    worker processes can import it."""
    n, epsilon, cls_, trial = key
    modes = config.modes
    start = time.perf_counter()
    # the cell key omits the mode: one trial runs its instance under every mode
    rng = random.Random(_trial_seed(config.seed, f"{n}:{epsilon!r}:{cls_}", trial))
    try:
        if cls_ == "member":
            half_u = rng.randint(1, n // 2 - 1)
            x = gen_member(half_u, n // 2 - half_u, rng, config.alphabet_size)
        else:
            x = gen_far(n, epsilon, rng, config.max_far_attempts, config.alphabet_size)
    except FarInstanceError as exc:
        share = (time.perf_counter() - start) / len(modes)
        return [(str(exc), share)] * len(modes)
    # both testers start by drawing the same shifts from the same state
    shifts = None
    if any(mode != "exact" for mode in modes):
        shifts = sample_offsets(n, epsilon, rng)
    share = (time.perf_counter() - start) / len(modes)
    results = []
    for mode in modes:
        start = time.perf_counter()
        outcome = _run_mode(mode, x, epsilon, rng, shifts)
        results.append((outcome, share + time.perf_counter() - start))
    return results


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every (size, epsilon, mode, class) cell and aggregate ledgers.

    A trial is (config, key) with key = (n, epsilon, class, trial index) and
    covers every mode (see _run_trial); all keys are mapped in one pass,
    serially or through a process pool of at most config.workers,
    os.cpu_count() and one process per key. Outcomes are grouped by (n,
    epsilon, mode, class), and cells are listed by size, epsilon, mode and
    class. A cell's seconds sum its trials' per-mode seconds, so over a
    serial run the cells add up to the wall time.
    A cell whose far-instance sampling exhausts its budget is reported with
    trials=0 and a skip reason instead of failing the sweep.
    """
    class_trials = config.class_trials()
    keys = [
        (n, epsilon, cls_, trial)
        for n in config.sizes
        for epsilon in config.epsilons
        for cls_, count in class_trials
        for trial in range(count)
    ]
    run = functools.partial(_run_trial, config)
    # more processes than cores or trials only cost memory: no report
    # depends on the worker count
    workers = min(config.workers, len(keys), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, keys))
    else:
        results = list(map(run, keys))
    outcomes: dict[tuple, list] = {}
    for (n, epsilon, cls_, _), per_mode in zip(keys, results):
        for mode, outcome in zip(config.modes, per_mode):
            outcomes.setdefault((n, epsilon, mode, cls_), []).append(outcome)
    classes = [cls_ for cls_, _ in class_trials]
    order = itertools.product(config.sizes, config.epsilons, config.modes, classes)
    cells = [_aggregate(*cell, outcomes[cell]) for cell in order]
    return ExperimentReport(config=config, cells=cells)


def _aggregate(
    n: int, epsilon: float, mode: str, cls_: str, outcomes: list[tuple]
) -> CellResult:
    seconds = sum(s for _, s in outcomes)
    skip = next((o for o, _ in outcomes if isinstance(o, str)), None)
    if skip is not None:
        return CellResult(n, epsilon, mode, cls_, 0, 0, 0.0, 0, 0.0, seconds, skip)
    count = len(outcomes)
    accepts = sum(1 for (accepted, _, _), _ in outcomes if accepted)
    totals = [total for (_, total, _), _ in outcomes]
    reads = [r for (_, _, r), _ in outcomes]
    return CellResult(
        n=n,
        epsilon=epsilon,
        mode=mode,
        instance_class=cls_,
        trials=count,
        accepts=accepts,
        mean_queries=sum(totals) / count,
        max_queries=max(totals),
        mean_classical_reads=sum(reads) / count,
        seconds=seconds,
    )


def _csv_row(cell: CellResult) -> list[str]:
    if cell.skipped is not None:
        return [
            str(cell.n), str(cell.epsilon), cell.mode, cell.instance_class,
            "0", "", "", "", "", f"{cell.seconds:.3f}",
        ]
    return [
        str(cell.n),
        str(cell.epsilon),
        cell.mode,
        cell.instance_class,
        str(cell.trials),
        f"{cell.accept_rate:.6f}",
        f"{cell.mean_queries:.3f}",
        str(cell.max_queries),
        f"{cell.mean_classical_reads:.3f}",
        f"{cell.seconds:.3f}",
    ]


def _json_cell(cell: CellResult) -> dict:
    low, high = cell.wilson
    row = {
        "n": cell.n,
        "epsilon": cell.epsilon,
        "mode": cell.mode,
        "class": cell.instance_class,
        "trials": cell.trials,
        "accept_rate": cell.accept_rate,
        "accept_rate_wilson_low": low,
        "accept_rate_wilson_high": high,
        "mean_queries": cell.mean_queries,
        "max_queries": cell.max_queries,
        "mean_classical_reads": cell.mean_classical_reads,
        "seconds": cell.seconds,
    }
    if cell.skipped is not None:
        row["skipped"] = cell.skipped
    return row


def emit_report(report: ExperimentReport, path: str | Path, format: str = "csv") -> None:
    """Write the report; CSV carries exactly the documented columns, JSON adds
    Wilson bounds and the config echo."""
    path = Path(path)
    try:
        if format == "csv":
            with path.open("w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(CSV_COLUMNS)
                for cell in report.cells:
                    writer.writerow(_csv_row(cell))
        elif format == "json":
            payload = {
                "config": report.config.to_dict(),
                "cells": [_json_cell(c) for c in report.cells],
            }
            with path.open("w") as f:
                json.dump(payload, f, indent=2)
                f.write("\n")
        else:
            raise ValueError(f"unknown format {format!r}")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def check_assertions(report: ExperimentReport) -> list[str]:
    """Evaluate acceptance thresholds; returns human-readable failures."""
    thresholds = report.config.assertions
    failures = []
    for cell in report.cells:
        if cell.skipped is not None or cell.trials == 0:
            continue
        label = (
            f"n={cell.n} eps={cell.epsilon} mode={cell.mode} "
            f"class={cell.instance_class}"
        )
        if cell.instance_class == "member":
            low, _ = cell.wilson
            if low < thresholds.member_accept_lower_min:
                failures.append(
                    f"{label}: member accept Wilson lower bound {low:.4f} "
                    f"< {thresholds.member_accept_lower_min}"
                )
        else:
            if cell.accept_rate > thresholds.far_accept_max:
                failures.append(
                    f"{label}: far accept rate {cell.accept_rate:.4f} "
                    f"> {thresholds.far_accept_max}"
                )
    return failures


def load_config(path: str | Path) -> ExperimentConfig:
    with Path(path).open() as f:
        try:
            data = json.load(f)
        except RecursionError:
            raise ValueError(f"config {path} is nested too deeply to parse") from None
    return ExperimentConfig.from_dict(data)
