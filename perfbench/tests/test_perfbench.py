"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import METRICS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name, trace):
    return run.run_benchmark(name, seed=3, seconds=0.01, trace=trace, scale="tiny")


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_every_workload_and_layer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert _units("per_layer") == {name: unit for name, (unit, _) in METRICS.items()}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_timed_run_prints_every_end_to_end_metric(name):
    result, info = _tiny(name, trace=False)
    assert result["correct"] and result["failed"] == 0, info["failures"]
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["machine"]["nproc"] >= 1 and info["ledgers"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_prints_every_layer_metric(name):
    result, info = _tiny(name, trace=True)
    assert result["correct"], info["failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    assert info["absent_metrics"] == []
    traced_wall = result["metrics"]["trace.wall_s"]["value"]
    assert sum(info["self_seconds"].values()) <= traced_wall


def test_removed_name_is_reported_absent(monkeypatch):
    """Deleting the trie (and building the row table from a dict instead)
    must not fail the traced run; only the metrics that need it go absent."""
    import twopal.tester as tester

    class RowSet(dict):
        def contains(self, s):
            return s in self

    def build_left_table(x, grids, sample, ledger):
        rows = RowSet()
        for i in grids.i_set:
            rows.setdefault(tester.left_string(x, i, sample, ledger), i)
        return rows, rows

    monkeypatch.delattr(tester, "Trie")
    monkeypatch.setattr(tester, "_build_left_table", build_left_table)
    result, info = _tiny("desk_mixed", trace=True)
    assert result["correct"], info["failures"]
    assert info["absent_targets"] == ["tester.Trie"]
    gone = {"tester.row_table_s", "tester.column_scan_s"} | {
        name for name in METRICS if name.startswith("trie.")
    }
    assert set(info["absent_metrics"]) == gone
    assert set(result["metrics"]) == set(METRICS)
    assert result["metrics"]["grover.searches"]["value"] > 0


def test_changed_signature_is_reported_absent(monkeypatch):
    import twopal.generators as generators

    original = generators.distance_to_language

    def distance_to_language(word, method="auto"):
        return original(word, method)

    monkeypatch.setattr(generators, "distance_to_language", distance_to_language)
    result, info = _tiny("sweep_far_ladder", trace=True)
    assert result["correct"], info["failures"]
    assert info["absent_targets"] == ["generators.distance_to_language"]
    assert {m for m in info["absent_metrics"]} == {
        "distance.calls",
        "distance.fast_s",
        "distance.baseline_s",
        "generators.gen_far_self_s",
        "generators.far_attempts",
    }


def test_seeded_record_repeats_and_drift_fails():
    w = workloads.make_workload("desk_mixed", 5, "tiny")
    checks = [w.check(w.run_pass()) for _ in range(2)]
    run.gate_repeats(checks, None)
    assert sum(c.failed for c in checks) == 0
    bad = json.loads(json.dumps(checks[0].record))
    label = next(iter(bad))
    bad[label]["mean_queries"] += 1
    run.gate_repeats(checks, bad)
    assert checks[0].failed == bad[label]["trials"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
