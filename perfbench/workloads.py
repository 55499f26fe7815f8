"""The benchmark's workloads: inputs made from a seed, one timed pass, and the
correctness gate applied to every op of a pass.

Each workload builds its inputs (an experiment config or a list of words)
from the seed alone and hands only those to the program. Entry points are
looked up on their modules at call time, so a traced pass sees the wrappers.
"""

from __future__ import annotations

import importlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

DEFAULT_SEEDS = {"sweep_far_ladder": 1706, "desk_mixed": 41, "exact_adversarial": 2015}
NAMES = tuple(DEFAULT_SEEDS)

# experiment configs, full size and the tiny size the smoke tests use
SWEEPS = {
    "sweep_far_ladder": {
        "full": dict(sizes=(2**9, 2**12, 2**15, 2**18, 2**21), trials=4),
        "tiny": dict(sizes=(2**6, 2**8), trials=2),
        "common": dict(
            epsilons=(0.1,), modes=("quantum", "classical"), member_fraction=0.0
        ),
    },
    "desk_mixed": {
        "full": dict(sizes=(1024,), trials=200),
        "tiny": dict(sizes=(64,), trials=6),
        "common": dict(
            epsilons=(0.1,),
            modes=("quantum", "classical", "exact"),
            member_fraction=0.5,
        ),
    },
}
EXACT_N = {"full": 2**20, "tiny": 2**8}
ADVERSARIAL_KINDS = (
    "member_middle",
    "member_edge",
    "random",
    "period_01",
    "period_0001",
    "zeros",
    "single_one",
)


def adversarial_words(n: int, seed: int) -> list:
    """The exact_adversarial inputs: members split at the middle and at the
    edge, a uniform word, the periodic words (01)^k and (0001)^k, the all-zero
    word and a single one, all of length n."""
    from twopal.generators import gen_gamma, gen_member, gen_sigma, random_word
    from twopal.words import Word

    rng = random.Random(seed)
    return [
        gen_member(n // 4, n // 4, rng),
        gen_member(n // 2 - 1, 1, rng),
        random_word(n, rng),
        Word(b"\x00\x01" * (n // 2)),
        Word(b"\x00\x00\x00\x01" * (n // 4)),
        gen_sigma(n),
        gen_gamma(n, rng.randrange(n)),
    ]


@dataclass
class PassCheck:
    """Outcome of checking one pass: ops attempted and failed, and the seeded
    record (verdicts and ledgers) that must repeat exactly on every pass."""

    attempted: int
    failed: int
    record: dict
    notes: list[str] = field(default_factory=list)


class SweepWorkload:
    """run_experiment on a fixed config, serial (workers=1)."""

    def __init__(self, name: str, seed: int, scale: str = "full") -> None:
        from twopal.experiment import ExperimentConfig

        spec = SWEEPS[name]
        self.config = ExperimentConfig(
            seed=seed, workers=1, **spec["common"], **spec[scale]
        )

    def run_pass(self):
        experiment = importlib.import_module("twopal.experiment")
        return experiment.run_experiment(self.config)

    def expected_cells(self) -> dict[tuple, int]:
        cfg = self.config
        return {
            (n, eps, mode, cls_): count
            for n in cfg.sizes
            for eps in cfg.epsilons
            for mode in cfg.modes
            for cls_, count in cfg.class_trials()
        }

    def check(self, report) -> PassCheck:
        from twopal.tester import offset_count

        expected = self.expected_cells()
        attempted = sum(expected.values())
        failed = 0
        notes = []
        record = {}
        seen = set()
        for cell in report.cells:
            key = (cell.n, cell.epsilon, cell.mode, cell.instance_class)
            label = f"{cell.mode}/{cell.instance_class}/n={cell.n}/eps={cell.epsilon}"
            if key not in expected or key in seen:
                notes.append(f"unexpected cell {label}")
                continue
            seen.add(key)
            count = expected[key]
            if cell.skipped is not None or cell.trials != count:
                notes.append(f"cell {label} skipped or short: {cell.skipped}")
                failed += count
                continue
            # exact cells accept exactly the members; classical scans never miss
            if cell.mode == "exact" or (
                cell.mode == "classical" and cell.instance_class == "member"
            ):
                want = count if cell.instance_class == "member" else 0
                wrong = abs(cell.accepts - want)
                if wrong:
                    notes.append(f"cell {label}: {cell.accepts}/{count} accepted")
                failed += wrong
            predicate_mean = 0.0
            if cell.mode == "quantum":
                m = offset_count(cell.n, cell.epsilon)
                predicate_mean = (cell.mean_queries - cell.mean_classical_reads) / m
            record[label] = {
                "trials": cell.trials,
                "accepts": cell.accepts,
                "mean_queries": cell.mean_queries,
                "max_queries": cell.max_queries,
                "mean_classical_reads": cell.mean_classical_reads,
                "mean_predicate_calls": predicate_mean,
            }
        for key in expected.keys() - seen:
            notes.append(f"missing cell {key}")
            failed += expected[key]
        return PassCheck(attempted, min(failed, attempted), record, notes)

    def rates(self, record: dict) -> dict:
        rates = {}
        for cls_ in ("member", "far"):
            rows = [r for label, r in record.items() if f"/{cls_}/" in label]
            trials = sum(r["trials"] for r in rows)
            if trials:
                rates[f"{cls_}_accept_rate"] = sum(r["accepts"] for r in rows) / trials
        return rates


class ExactWorkload:
    """exact_member on the adversarial words, one fresh ledger per call."""

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.n = EXACT_N[scale]
        self.words = adversarial_words(self.n, seed)
        self.expected = oracle_verdicts(self.n, seed)
        self._checked: dict[tuple, bool] = {}

    def run_pass(self):
        from twopal.ledger import QueryLedger

        membership = importlib.import_module("twopal.membership")
        outputs = []
        for w in self.words:
            ledger = QueryLedger()
            outputs.append((membership.exact_member(w, ledger), ledger))
        return outputs

    def _op_ok(self, index: int, result, reads: int) -> bool:
        from twopal.membership import check_symmetric_characterization

        w = self.words[index]
        n = w.n
        if result.is_member != self.expected[index] or reads > 3 * n:
            return False
        if not result.is_member:
            return True
        d = result.witness
        if d.half_u + d.half_v != n // 2:
            return False
        left, right = w.symbols[: 2 * d.half_u], w.symbols[2 * d.half_u :]
        return (
            left == left[::-1]
            and right == right[::-1]
            and check_symmetric_characterization(w, d)
        )

    def check(self, outputs) -> PassCheck:
        failed = 0
        notes = []
        record = {}
        for index, (result, ledger) in enumerate(outputs):
            kind = ADVERSARIAL_KINDS[index]
            witness = result.witness
            key = (
                index,
                result.is_member,
                None if witness is None else (witness.half_u, witness.half_v),
                ledger.classical_reads,
            )
            ok = self._checked.get(key)
            if ok is None:
                ok = self._checked[key] = self._op_ok(
                    index, result, ledger.classical_reads
                )
            if not ok:
                failed += 1
                notes.append(f"{kind}: wrong verdict, witness or reads ({key[1:]})")
            record[f"exact/{kind}/n={self.n}"] = {
                "member": result.is_member,
                "witness": None if witness is None else [witness.half_u, witness.half_v],
                "classical_reads": ledger.classical_reads,
                "reads_per_n": ledger.classical_reads / self.n,
            }
        return PassCheck(len(outputs), failed, record, notes)

    def rates(self, record: dict) -> dict:
        accepted = [r["member"] for r in record.values()]
        rates = {}
        # the non-members here are adversarial, not certified far
        for cls_, want in (("member", True), ("nonmember", False)):
            picked = [a for a, m in zip(accepted, self.expected) if m == want]
            if picked:
                rates[f"{cls_}_accept_rate"] = sum(picked) / len(picked)
        return rates


def oracle_verdicts(n: int, seed: int) -> list[bool]:
    """distance_to_language(w).distance == 0 for each adversarial word,
    computed in a child process so its memory stays out of peak_rss_mb."""
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), "oracle", str(n), str(seed)],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def make_workload(name: str, seed: int, scale: str = "full"):
    if name in SWEEPS:
        return SweepWorkload(name, seed, scale)
    if name == "exact_adversarial":
        return ExactWorkload(seed, scale)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
