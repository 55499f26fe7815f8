"""Seeded experiment harness: sweeps (n, epsilon, mode, instance class) cells,
aggregates query ledgers, and emits CSV/JSON reports.

Each trial derives its own seed from the base seed and a stable hash of the
cell key and trial index, so any subset of cells reproduces bit-identically
and trials can run in any order or process. Aggregation uses only sums and
maxima, keeping parallel runs deterministic (wall-clock seconds excepted).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

from .generators import FarInstanceError, gen_far, gen_member
from .grover import GroverConfig
from .ledger import QueryLedger
from .membership import exact_member
from .tester import classical_test, quantum_test

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

MODES = ("quantum", "classical", "exact")
INSTANCE_CLASSES = ("member", "far")


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
        _check_real("member_accept_lower_min", self.member_accept_lower_min)
        _check_real("far_accept_max", self.far_accept_max)


@dataclass(frozen=True)
class ExperimentConfig:
    sizes: tuple[int, ...]
    epsilons: tuple[float, ...]
    trials: int = 100
    seed: int = 0
    modes: tuple[str, ...] = ("quantum",)
    member_fraction: float = 0.5
    grover: GroverConfig = field(default_factory=GroverConfig)
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
        for eps in self.epsilons:
            _check_real("epsilons entry", eps)
            if not 0.0 < eps < 1.0:
                raise ValueError(f"epsilons must lie in (0, 1), got {eps}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.member_fraction <= 1.0:
            raise ValueError("member_fraction must lie in [0, 1]")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        data = dict(raw)
        try:
            grover = GroverConfig(**data.pop("grover", {}))
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
        return cls(grover=grover, assertions=thresholds, **data)

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


def wilson_interval(
    successes: int, trials: int, z: float = 1.959963984540054
) -> tuple[float, float]:
    """95% score interval for a binomial proportion."""
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


@dataclass(frozen=True)
class _TrialSpec:
    n: int
    epsilon: float
    mode: str
    instance_class: str
    seed: int
    cap_multiplier: float
    growth_factor: float
    alphabet_size: int
    max_far_attempts: int


def _run_trial(spec: _TrialSpec):
    """One seeded trial; returns (accepted, total_queries, classical_reads)
    or a skip-reason string. Module level so worker processes can import it."""
    rng = random.Random(spec.seed)
    try:
        if spec.instance_class == "member":
            half_u = rng.randint(1, spec.n // 2 - 1)
            x = gen_member(half_u, spec.n // 2 - half_u, rng, spec.alphabet_size)
        else:
            x = gen_far(
                spec.n, spec.epsilon, rng, spec.max_far_attempts, spec.alphabet_size
            )
    except FarInstanceError as exc:
        return str(exc)
    if spec.mode == "quantum":
        verdict = quantum_test(
            x,
            spec.epsilon,
            rng,
            GroverConfig(spec.cap_multiplier, spec.growth_factor),
        )
        ledger = verdict.ledger
        return (verdict.accept, ledger.total_charged, ledger.classical_reads)
    if spec.mode == "classical":
        verdict = classical_test(x, spec.epsilon, rng)
        ledger = verdict.ledger
        return (verdict.accept, ledger.total_charged, ledger.classical_reads)
    ledger = QueryLedger()
    result = exact_member(x, ledger)
    return (result.is_member, ledger.total_charged, ledger.classical_reads)


def _cell_specs(
    config: ExperimentConfig, n: int, epsilon: float, mode: str, cls_: str, count: int
) -> list[_TrialSpec]:
    # the cell key omits the mode so quantum/classical/exact see paired instances
    cell_key = f"{n}:{epsilon!r}:{cls_}"
    return [
        _TrialSpec(
            n=n,
            epsilon=epsilon,
            mode=mode,
            instance_class=cls_,
            seed=_trial_seed(config.seed, cell_key, trial),
            cap_multiplier=config.grover.cap_multiplier,
            growth_factor=config.grover.growth_factor,
            alphabet_size=config.alphabet_size,
            max_far_attempts=config.max_far_attempts,
        )
        for trial in range(count)
    ]


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every (size, epsilon, mode, class) cell and aggregate ledgers.

    A cell whose far-instance sampling exhausts its budget is reported with
    trials=0 and a skip reason instead of failing the sweep.
    """
    cells: list[CellResult] = []
    pool = (
        ProcessPoolExecutor(max_workers=config.workers)
        if config.workers > 1
        else None
    )
    try:
        for n in config.sizes:
            for epsilon in config.epsilons:
                for mode in config.modes:
                    for cls_, count in config.class_trials():
                        specs = _cell_specs(config, n, epsilon, mode, cls_, count)
                        start = time.perf_counter()
                        if pool is not None:
                            outcomes = list(pool.map(_run_trial, specs))
                        else:
                            outcomes = [_run_trial(s) for s in specs]
                        seconds = time.perf_counter() - start
                        cells.append(
                            _aggregate(n, epsilon, mode, cls_, outcomes, seconds)
                        )
    finally:
        if pool is not None:
            pool.shutdown()
    return ExperimentReport(config=config, cells=cells)


def _aggregate(
    n: int, epsilon: float, mode: str, cls_: str, outcomes: list, seconds: float
) -> CellResult:
    skip = next((o for o in outcomes if isinstance(o, str)), None)
    if skip is not None:
        return CellResult(n, epsilon, mode, cls_, 0, 0, 0.0, 0, 0.0, seconds, skip)
    count = len(outcomes)
    accepts = sum(1 for accepted, _, _ in outcomes if accepted)
    totals = [total for _, total, _ in outcomes]
    reads = [r for _, _, r in outcomes]
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
        return ExperimentConfig.from_dict(json.load(f))
