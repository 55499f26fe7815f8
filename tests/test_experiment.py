import csv
import json
import random

import pytest

from twopal.experiment import (
    CSV_COLUMNS,
    AssertionThresholds,
    ExperimentConfig,
    _cell_specs,
    check_assertions,
    emit_report,
    load_config,
    run_experiment,
    wilson_interval,
)
from twopal.grover import GroverConfig


def small_config(**overrides):
    base = dict(
        sizes=(16,),
        epsilons=(0.2,),
        trials=8,
        seed=5,
        modes=("classical", "exact"),
        member_fraction=0.5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_wilson_interval_frozen():
    low, high = wilson_interval(8, 10)
    assert abs(low - 0.4902) < 1e-3
    assert abs(high - 0.9433) < 1e-3
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] <= 1.0
    low3, _ = wilson_interval(3, 3)
    assert abs(low3 - 0.4385) < 1e-3


def test_wilson_interval_properties():
    rng = random.Random(2)
    for _ in range(200):
        trials = rng.randrange(1, 500)
        successes = rng.randrange(0, trials + 1)
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= successes / trials <= high <= 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(sizes=(5,), epsilons=(0.1,))
    with pytest.raises(ValueError):
        ExperimentConfig(sizes=(8,), epsilons=(1.5,))
    with pytest.raises(ValueError):
        ExperimentConfig(sizes=(8,), epsilons=(0.1,), trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(sizes=(8,), epsilons=(0.1,), modes=("warp",))
    with pytest.raises(ValueError):
        ExperimentConfig(sizes=(8,), epsilons=(0.1,), member_fraction=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(sizes=(8.0,), epsilons=(0.1,))
    with pytest.raises(ValueError):
        ExperimentConfig(sizes=(8,), epsilons=("0.1",))
    with pytest.raises(ValueError):
        ExperimentConfig(sizes=(8,), epsilons=(0.1,), workers=True)
    with pytest.raises(ValueError):
        AssertionThresholds(far_accept_max="0.3")
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"sizes": [8], "epsilons": 0.1})


def test_config_round_trip():
    config = small_config(grover=GroverConfig(cap_multiplier=4.0))
    rebuilt = ExperimentConfig.from_dict(config.to_dict())
    assert rebuilt == config


def test_trial_seeds_pair_instances_across_modes():
    config = small_config()
    quantum = _cell_specs(config, 16, 0.2, "quantum", "member", 4)
    classical = _cell_specs(config, 16, 0.2, "classical", "member", 4)
    assert [s.seed for s in quantum] == [s.seed for s in classical]
    other_cell = _cell_specs(config, 16, 0.2, "quantum", "far", 4)
    assert [s.seed for s in quantum] != [s.seed for s in other_cell]


def test_run_experiment_cells_and_determinism():
    config = small_config()
    first = run_experiment(config)
    second = run_experiment(config)
    assert len(first.cells) == 2 * 2  # modes x classes
    for a, b in zip(first.cells, second.cells):
        assert (a.n, a.epsilon, a.mode, a.instance_class) == (
            b.n,
            b.epsilon,
            b.mode,
            b.instance_class,
        )
        assert a.accepts == b.accepts
        assert a.mean_queries == b.mean_queries
        assert a.max_queries == b.max_queries


def test_exact_mode_is_perfectly_separating():
    report = run_experiment(small_config(modes=("exact",), trials=10))
    by_class = {cell.instance_class: cell for cell in report.cells}
    assert by_class["member"].accept_rate == 1.0
    assert by_class["far"].accept_rate == 0.0


def test_workers_do_not_change_results():
    config = small_config()
    serial = run_experiment(config)
    parallel = run_experiment(small_config(workers=2))
    for a, b in zip(serial.cells, parallel.cells):
        assert a.accepts == b.accepts
        assert a.mean_queries == b.mean_queries


def test_skipped_cell_reported(tmp_path):
    config = small_config(
        sizes=(6,), epsilons=(0.9,), modes=("exact",), member_fraction=0.0
    )
    report = run_experiment(config)
    assert len(report.cells) == 1
    cell = report.cells[0]
    assert cell.skipped is not None
    assert cell.trials == 0

    csv_path = tmp_path / "skip.csv"
    emit_report(report, csv_path, "csv")
    rows = list(csv.reader(csv_path.open()))
    assert rows[1][4] == "0"
    assert rows[1][5] == ""

    json_path = tmp_path / "skip.json"
    emit_report(report, json_path, "json")
    payload = json.loads(json_path.read_text())
    assert "skipped" in payload["cells"][0]


def test_csv_shape_and_determinism(tmp_path):
    config = small_config()
    report = run_experiment(config)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(report, path_a, "csv")
    emit_report(run_experiment(config), path_b, "csv")

    rows_a = list(csv.reader(path_a.open()))
    rows_b = list(csv.reader(path_b.open()))
    assert rows_a[0] == list(CSV_COLUMNS)
    assert len(rows_a) == len(report.cells) + 1
    # identical modulo the wall-clock seconds column
    for ra, rb in zip(rows_a, rows_b):
        assert ra[:9] == rb[:9]


def test_empty_report_is_header_only(tmp_path):
    report = run_experiment(small_config())
    report.cells = []
    path = tmp_path / "empty.csv"
    emit_report(report, path, "csv")
    assert path.read_text().strip() == ",".join(CSV_COLUMNS)


def test_json_round_trip(tmp_path):
    report = run_experiment(small_config(trials=4))
    path = tmp_path / "report.json"
    emit_report(report, path, "json")
    payload = json.loads(path.read_text())
    assert payload["config"]["seed"] == 5
    assert len(payload["cells"]) == len(report.cells)
    for cell in payload["cells"]:
        assert 0.0 <= cell["accept_rate_wilson_low"] <= cell["accept_rate"]
        assert cell["accept_rate"] <= cell["accept_rate_wilson_high"] <= 1.0


def test_emit_report_bad_path(tmp_path):
    report = run_experiment(small_config(trials=2))
    with pytest.raises(OSError, match="no/such"):
        emit_report(report, tmp_path / "no" / "such" / "dir.csv", "csv")
    with pytest.raises(ValueError):
        emit_report(report, tmp_path / "x.bin", "parquet")


def test_check_assertions():
    report = run_experiment(small_config(modes=("exact",), trials=40))
    assert check_assertions(report) == []
    strict = run_experiment(
        small_config(
            modes=("exact",),
            trials=2,
            assertions=AssertionThresholds(member_accept_lower_min=0.99),
        )
    )
    failures = check_assertions(strict)
    assert any("member" in f for f in failures)


def test_load_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "sizes": [16],
                "epsilons": [0.2],
                "trials": 3,
                "seed": 9,
                "modes": ["exact"],
                "grover": {"cap_multiplier": 5.0},
                "assertions": {"far_accept_max": 0.2},
            }
        )
    )
    config = load_config(path)
    assert config.sizes == (16,)
    assert config.grover.cap_multiplier == 5.0
    assert config.assertions.far_accept_max == 0.2
