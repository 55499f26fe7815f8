"""Command-line workbench: membership, distance, testers, experiment sweeps."""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from pathlib import Path

from .distance import distance_to_language
from .experiment import check_assertions, emit_report, load_config, run_experiment
from .ledger import QueryLedger
from .membership import exact_member
from .tester import classical_test, offset_count, quantum_test
from .words import Word


# a word argument that names a file is read from it: one argv string is capped
# at 128 KiB on Linux, far below the lengths the tester is meant for
def _read_word_argument(args: argparse.Namespace) -> Word:
    alphabet_size = 2 if args.alphabet_size is None else args.alphabet_size
    path = Path(args.word)
    try:
        is_file = path.is_file()
    except OSError:  # a word longer than a file name may be
        is_file = False
    text = path.read_text().strip() if is_file else args.word
    return Word.from_text(text, alphabet_size)


def _cmd_member(args: argparse.Namespace) -> int:
    word = _read_word_argument(args)
    ledger = QueryLedger()
    result = exact_member(word, ledger)
    witness = result.witness
    print(
        json.dumps(
            {
                "member": result.is_member,
                "half_u": witness.half_u if witness else None,
                "half_v": witness.half_v if witness else None,
                "classical_reads": ledger.classical_reads,
            }
        )
    )
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    word = _read_word_argument(args)
    result = distance_to_language(word)
    print(
        json.dumps(
            {
                "distance": result.distance,
                "half_u": result.best_split.half_u,
                "half_v": result.best_split.half_v,
            }
        )
    )
    return 0


def _cmd_test(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    word = _read_word_argument(args)
    if offset_count(word.n, args.epsilon) >= word.n:
        print(
            f"warning: fingerprint length m >= n for n={word.n}, "
            f"epsilon={args.epsilon}; the exact decider "
            f"(`twopal member`) is cheaper here",
            file=sys.stderr,
        )
    runner = quantum_test if args.mode == "quantum" else classical_test
    for trial in range(args.trials):
        seed = args.seed + trial
        verdict = runner(word, args.epsilon, random.Random(seed))
        ledger = verdict.ledger
        print(
            json.dumps(
                {
                    "trial": trial,
                    "seed": seed,
                    "mode": args.mode,
                    "accept": verdict.accept,
                    "found_pair": list(verdict.found_pair)
                    if verdict.found_pair
                    else None,
                    "classical_reads": ledger.classical_reads,
                    "quantum_charged": ledger.quantum_charged,
                    "predicate_calls": ledger.predicate_calls,
                    "total_charged": ledger.total_charged,
                    "uncharged_reads": ledger.uncharged_reads,
                }
            )
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.alphabet_size is not None:
        overrides["alphabet_size"] = args.alphabet_size
    if overrides:
        config = dataclasses.replace(config, **overrides)
    report = run_experiment(config)
    emit_report(report, args.out, args.format)
    print(f"wrote {len(report.cells)} cells to {args.out}")
    for cell in report.cells:
        if cell.skipped is not None:
            print(
                f"skipped n={cell.n} eps={cell.epsilon} mode={cell.mode} "
                f"class={cell.instance_class}: {cell.skipped}",
                file=sys.stderr,
            )
    if args.check:
        failures = check_assertions(report)
        for failure in failures:
            print(f"assertion failed: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twopal",
        description=(
            "Membership, distance, and sublinear property testing for the "
            "language of two concatenated even palindromes."
        ),
    )
    parser.add_argument(
        "--alphabet-size",
        type=int,
        default=None,
        help="symbol alphabet size (default 2, or the experiment config's)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_member = sub.add_parser("member", help="exact membership with witness")
    p_member.add_argument(
        "word", help="word as a digit string, e.g. 01101001, or a file holding one"
    )
    p_member.set_defaults(func=_cmd_member)

    p_distance = sub.add_parser(
        "distance", help="exact Hamming distance to the language"
    )
    p_distance.add_argument("word", help="word as a digit string, or a file holding one")
    p_distance.set_defaults(func=_cmd_distance)

    p_test = sub.add_parser("test", help="run the property tester")
    p_test.add_argument("word", help="word as a digit string, or a file holding one")
    p_test.add_argument("--epsilon", type=float, required=True)
    p_test.add_argument(
        "--mode", choices=("quantum", "classical"), default="quantum"
    )
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--trials", type=int, default=1)
    p_test.set_defaults(func=_cmd_test)

    p_exp = sub.add_parser("experiment", help="run a configured sweep")
    p_exp.add_argument("--config", required=True, help="JSON config file")
    p_exp.add_argument("--out", default="report.csv")
    p_exp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_exp.add_argument("--workers", type=int, default=None)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument(
        "--assert",
        dest="check",
        action="store_true",
        help="exit nonzero if acceptance thresholds fail",
    )
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
