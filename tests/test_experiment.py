import csv
import json
import random
from dataclasses import replace

import pytest

import twopal.experiment as experiment
from twopal.experiment import (
    CSV_COLUMNS,
    MODES,
    AssertionThresholds,
    ExperimentConfig,
    check_assertions,
    emit_report,
    load_config,
    run_experiment,
    wilson_interval,
)


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



@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 1.5])
@pytest.mark.parametrize("name", ["member_accept_lower_min", "far_accept_max"])
def test_assertion_thresholds_lie_in_unit_interval(name, value):
    # a NaN threshold made --assert pass every cell, -1 fail every far cell
    with pytest.raises(ValueError, match=name):
        AssertionThresholds(**{name: value})
    for edge in (0.0, 1.0):
        assert getattr(AssertionThresholds(**{name: edge}), name) == edge

def test_config_round_trip():
    config = small_config(assertions=AssertionThresholds(far_accept_max=0.2))
    rebuilt = ExperimentConfig.from_dict(config.to_dict())
    assert rebuilt == config


def _cell_record(cell):
    return (
        cell.n,
        cell.epsilon,
        cell.mode,
        cell.instance_class,
        cell.trials,
        cell.accepts,
        cell.mean_queries,
        cell.max_queries,
        cell.mean_classical_reads,
        cell.skipped,
    )


def test_one_instance_per_trial_runs_under_every_mode(monkeypatch):
    calls = {"gen_far": 0, "gen_member": 0}

    def counted(name):
        original = getattr(experiment, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, name, wrapper)

    counted("gen_far")
    counted("gen_member")
    # classical runs before quantum, so quantum matches its single-mode run
    # only if classical, handed the trial's shift sample, draws nothing more
    modes = ("exact", "classical", "quantum")
    config = small_config(sizes=(16, 64), epsilons=(0.1, 0.2), modes=modes, trials=5)
    full = run_experiment(config)
    # 2 sizes x 2 epsilons x (2 member + 3 far trials), one instance each
    assert calls == {"gen_far": 2 * 2 * 3, "gen_member": 2 * 2 * 2}
    assert len(full.cells) == 2 * 2 * 3 * 2

    # each mode alone sees the same instance and the same draws as in the
    # three-mode run
    by_key = {(c.n, c.epsilon, c.mode, c.instance_class): c for c in full.cells}
    for mode in modes:
        alone = run_experiment(replace(config, modes=(mode,)))
        assert len(alone.cells) == 2 * 2 * 2
        for cell in alone.cells:
            key = (cell.n, cell.epsilon, cell.mode, cell.instance_class)
            assert _cell_record(cell) == _cell_record(by_key[key])


@pytest.mark.parametrize(
    "modes, draws_per_trial",
    [
        (("quantum", "classical", "exact"), 1),
        (("classical", "quantum"), 1),
        (("quantum",), 1),
        (("exact",), 0),
    ],
)
def test_a_trial_draws_its_shift_sample_once(monkeypatch, modes, draws_per_trial):
    calls = []
    original = experiment.sample_offsets

    def counted(n, epsilon, rng):
        calls.append((n, epsilon))
        return original(n, epsilon, rng)

    # the testers must not draw again, so their own name is counted too
    monkeypatch.setattr(experiment, "sample_offsets", counted)
    monkeypatch.setattr("twopal.tester.sample_offsets", counted)
    config = small_config(sizes=(16, 64), epsilons=(0.1, 0.2), modes=modes, trials=5)
    run_experiment(config)
    keys = [(n, eps) for n in (16, 64) for eps in (0.1, 0.2) for _ in range(5)]
    assert calls == keys * draws_per_trial


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



@pytest.mark.parametrize(
    "member_fraction, classes",
    [(0.0, ["far"]), (0.5, ["member", "far"]), (1.0, ["member"])],
)
def test_cells_follow_sizes_epsilons_modes_classes(member_fraction, classes):
    modes = ("exact", "quantum")  # not MODES order
    config = small_config(
        sizes=(64, 16),
        epsilons=(0.2, 0.1),
        modes=modes,
        trials=4,
        member_fraction=member_fraction,
    )
    report = run_experiment(config)
    assert [(c.n, c.epsilon, c.mode, c.instance_class) for c in report.cells] == [
        (n, epsilon, mode, cls_)
        for n in (64, 16)
        for epsilon in (0.2, 0.1)
        for mode in modes
        for cls_ in classes
    ]

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


def test_workers_reproduce_every_ledger_field():
    config = small_config(sizes=(16, 64), epsilons=(0.1, 0.2), modes=MODES)
    serial = run_experiment(config)
    parallel = run_experiment(replace(config, workers=2))
    assert len(serial.cells) == 2 * 2 * 3 * 2
    assert [_cell_record(c) for c in serial.cells] == [
        _cell_record(c) for c in parallel.cells
    ]


def _record_pool_sizes(monkeypatch, cpu_count):
    """Stand in for the process pool: record each size asked for and map in
    this process, with os.cpu_count() reading cpu_count."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpu_count)
    return sizes


def test_the_pool_is_never_larger_than_the_trial_count(monkeypatch):
    serial = run_experiment(small_config(trials=4))
    sizes = _record_pool_sizes(monkeypatch, cpu_count=64)
    for workers in (64, 4, 3):
        report = run_experiment(small_config(trials=4, workers=workers))
        assert [_cell_record(c) for c in report.cells] == [
            _cell_record(c) for c in serial.cells
        ]
    assert sizes == [4, 4, 3]


def test_the_pool_is_never_larger_than_the_cpu_count(monkeypatch):
    serial = run_experiment(small_config())
    for cpu_count, expected in ((2, [2]), (3, [3]), (1, []), (None, [])):
        sizes = _record_pool_sizes(monkeypatch, cpu_count)
        report = run_experiment(small_config(workers=100_000))
        assert [_cell_record(c) for c in report.cells] == [
            _cell_record(c) for c in serial.cells
        ]
        # one core, or an unknown count, maps serially: no pool at all
        assert sizes == expected, cpu_count


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
    with csv_path.open() as f:
        rows = list(csv.reader(f))
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

    with path_a.open() as fa, path_b.open() as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
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
                "assertions": {"far_accept_max": 0.2},
            }
        )
    )
    config = load_config(path)
    assert config.sizes == (16,)
    assert config.assertions.far_accept_max == 0.2
    path.write_text(
        json.dumps(
            {"sizes": [16], "epsilons": [0.2], "grover": {"cap_multiplier": 3.0}}
        )
    )
    with pytest.raises(ValueError, match=r"unknown config keys: \['grover'\]"):
        load_config(path)


# --- frozen seeded report ---------------------------------------------

# (n, epsilon, mode, class, trials, accepts, total queries, max queries,
# total classical reads) per cell, recorded when every mode still regenerated
# its own instance; seed 2024, 6 trials, half members. Totals are stored so
# the records stay integers: a cell's means are these totals over its trials.
FROZEN_CELLS = {
    2: [
        (16, 0.1, "quantum", "member", 3, 3, 1280, 480, 480),
        (16, 0.1, "quantum", "far", 3, 0, 2640, 880, 480),
        (16, 0.1, "classical", "member", 3, 3, 1680, 560, 1680),
        (16, 0.1, "classical", "far", 3, 0, 1920, 640, 1920),
        (16, 0.1, "exact", "member", 3, 3, 125, 43, 125),
        (16, 0.1, "exact", "far", 3, 0, 138, 46, 138),
        (16, 0.2, "quantum", "member", 3, 3, 640, 280, 240),
        (16, 0.2, "quantum", "far", 3, 1, 1080, 440, 240),
        (16, 0.2, "classical", "member", 3, 3, 760, 280, 760),
        (16, 0.2, "classical", "far", 3, 1, 840, 320, 840),
        (16, 0.2, "exact", "member", 3, 3, 121, 43, 121),
        (16, 0.2, "exact", "far", 3, 0, 138, 46, 138),
        (64, 0.1, "quantum", "member", 3, 3, 3600, 1560, 1440),
        (64, 0.1, "quantum", "far", 3, 0, 5760, 1920, 1440),
        (64, 0.1, "classical", "member", 3, 3, 5040, 1800, 5040),
        (64, 0.1, "classical", "far", 3, 0, 5760, 1920, 5760),
        (64, 0.1, "exact", "member", 3, 3, 517, 177, 517),
        (64, 0.1, "exact", "far", 3, 0, 570, 190, 570),
        (64, 0.2, "quantum", "member", 3, 3, 1320, 480, 720),
        (64, 0.2, "quantum", "far", 3, 0, 2880, 960, 720),
        (64, 0.2, "classical", "member", 3, 3, 2520, 960, 2520),
        (64, 0.2, "classical", "far", 3, 0, 2880, 960, 2880),
        (64, 0.2, "exact", "member", 3, 3, 517, 187, 517),
        (64, 0.2, "exact", "far", 3, 0, 570, 190, 570),
        (1024, 0.1, "quantum", "member", 3, 3, 16800, 10000, 6000),
        (1024, 0.1, "quantum", "far", 3, 0, 24600, 8200, 6000),
        (1024, 0.1, "classical", "member", 3, 3, 26400, 9600, 26400),
        (1024, 0.1, "classical", "far", 3, 0, 38400, 12800, 38400),
        (1024, 0.1, "exact", "member", 3, 3, 7259, 2559, 7259),
        (1024, 0.1, "exact", "far", 3, 0, 9210, 3070, 9210),
        (1024, 0.2, "quantum", "member", 3, 3, 10200, 4800, 3000),
        (1024, 0.2, "quantum", "far", 3, 0, 12300, 4100, 3000),
        (1024, 0.2, "classical", "member", 3, 3, 17300, 6100, 17300),
        (1024, 0.2, "classical", "far", 3, 0, 19200, 6400, 19200),
        (1024, 0.2, "exact", "member", 3, 3, 8555, 2961, 8555),
        (1024, 0.2, "exact", "far", 3, 0, 9210, 3070, 9210),
        (2050, 0.1, "quantum", "member", 3, 3, 22542, 9503, 7956),
        (2050, 0.1, "quantum", "far", 3, 0, 34476, 11492, 7956),
        (2050, 0.1, "classical", "member", 3, 3, 54145, 19448, 54145),
        (2050, 0.1, "classical", "far", 3, 0, 60333, 20111, 60333),
        (2050, 0.1, "exact", "member", 3, 3, 17191, 6029, 17191),
        (2050, 0.1, "exact", "far", 3, 0, 18444, 6148, 18444),
        (2050, 0.2, "quantum", "member", 3, 3, 12210, 5106, 3996),
        (2050, 0.2, "quantum", "far", 3, 0, 17316, 5772, 3996),
        (2050, 0.2, "classical", "member", 3, 3, 23532, 8436, 23532),
        (2050, 0.2, "classical", "far", 3, 0, 30303, 10101, 30303),
        (2050, 0.2, "exact", "member", 3, 3, 15631, 5459, 15631),
        (2050, 0.2, "exact", "far", 3, 0, 18444, 6148, 18444),
],
    3: [
        (16, 0.1, "quantum", "member", 3, 3, 1680, 1040, 480),
        (16, 0.1, "quantum", "far", 3, 0, 2640, 880, 480),
        (16, 0.1, "classical", "member", 3, 3, 1680, 560, 1680),
        (16, 0.1, "classical", "far", 3, 0, 1920, 640, 1920),
        (16, 0.1, "exact", "member", 3, 3, 125, 43, 125),
        (16, 0.1, "exact", "far", 3, 0, 138, 46, 138),
        (16, 0.2, "quantum", "member", 3, 3, 600, 280, 240),
        (16, 0.2, "quantum", "far", 3, 0, 1320, 440, 240),
        (16, 0.2, "classical", "member", 3, 3, 760, 280, 760),
        (16, 0.2, "classical", "far", 3, 0, 960, 320, 960),
        (16, 0.2, "exact", "member", 3, 3, 121, 43, 121),
        (16, 0.2, "exact", "far", 3, 0, 138, 46, 138),
        (64, 0.1, "quantum", "member", 3, 3, 3000, 1320, 1440),
        (64, 0.1, "quantum", "far", 3, 0, 5760, 1920, 1440),
        (64, 0.1, "classical", "member", 3, 3, 5040, 1800, 5040),
        (64, 0.1, "classical", "far", 3, 0, 5760, 1920, 5760),
        (64, 0.1, "exact", "member", 3, 3, 517, 177, 517),
        (64, 0.1, "exact", "far", 3, 0, 570, 190, 570),
        (64, 0.2, "quantum", "member", 3, 3, 1740, 660, 720),
        (64, 0.2, "quantum", "far", 3, 0, 2880, 960, 720),
        (64, 0.2, "classical", "member", 3, 3, 2520, 960, 2520),
        (64, 0.2, "classical", "far", 3, 0, 2880, 960, 2880),
        (64, 0.2, "exact", "member", 3, 3, 517, 187, 517),
        (64, 0.2, "exact", "far", 3, 0, 570, 190, 570),
        (1024, 0.1, "quantum", "member", 3, 3, 15800, 6600, 6000),
        (1024, 0.1, "quantum", "far", 3, 0, 24600, 8200, 6000),
        (1024, 0.1, "classical", "member", 3, 3, 26400, 9600, 26400),
        (1024, 0.1, "classical", "far", 3, 0, 38400, 12800, 38400),
        (1024, 0.1, "exact", "member", 3, 3, 7259, 2559, 7259),
        (1024, 0.1, "exact", "far", 3, 0, 9210, 3070, 9210),
        (1024, 0.2, "quantum", "member", 3, 3, 6200, 3100, 3000),
        (1024, 0.2, "quantum", "far", 3, 0, 12300, 4100, 3000),
        (1024, 0.2, "classical", "member", 3, 3, 17300, 6100, 17300),
        (1024, 0.2, "classical", "far", 3, 0, 19200, 6400, 19200),
        (1024, 0.2, "exact", "member", 3, 3, 8555, 2961, 8555),
        (1024, 0.2, "exact", "far", 3, 0, 9210, 3070, 9210),
        (2050, 0.1, "quantum", "member", 3, 3, 27625, 10387, 7956),
        (2050, 0.1, "quantum", "far", 3, 0, 34476, 11492, 7956),
        (2050, 0.1, "classical", "member", 3, 3, 54145, 19448, 54145),
        (2050, 0.1, "classical", "far", 3, 0, 60333, 20111, 60333),
        (2050, 0.1, "exact", "member", 3, 3, 17191, 6029, 17191),
        (2050, 0.1, "exact", "far", 3, 0, 18444, 6148, 18444),
        (2050, 0.2, "quantum", "member", 3, 3, 15762, 6438, 3996),
        (2050, 0.2, "quantum", "far", 3, 0, 17316, 5772, 3996),
        (2050, 0.2, "classical", "member", 3, 3, 23532, 8436, 23532),
        (2050, 0.2, "classical", "far", 3, 0, 30303, 10101, 30303),
        (2050, 0.2, "exact", "member", 3, 3, 15631, 5459, 15631),
        (2050, 0.2, "exact", "far", 3, 0, 18444, 6148, 18444),
],
}
FROZEN_SKIP_REASON = "no far instance found for n=8, epsilon=0.45 after 3 attempts"
FROZEN_SKIPPED_CELLS = [
    (8, 0.45, "quantum", "member", 3, 3, 210, 84, 84),
    (8, 0.45, "quantum", "far", 0, 0, 0, 0, 0),
    (8, 0.45, "classical", "member", 3, 3, 182, 70, 182),
    (8, 0.45, "classical", "far", 0, 0, 0, 0, 0),
    (8, 0.45, "exact", "member", 3, 3, 55, 21, 55),
    (8, 0.45, "exact", "far", 0, 0, 0, 0, 0),
]


def _frozen_config(**overrides):
    base = dict(trials=6, seed=2024, modes=MODES, member_fraction=0.5)
    base.update(overrides)
    return ExperimentConfig(**base)


def _expected_cell(record, skip_reason=None):
    n, epsilon, mode, cls_, trials, accepts, queries, max_queries, reads = record
    if not trials:
        return (n, epsilon, mode, cls_, 0, 0, 0.0, 0, 0.0, skip_reason)
    ledger = (queries / trials, max_queries, reads / trials)
    return (n, epsilon, mode, cls_, trials, accepts, *ledger, None)


@pytest.mark.parametrize("alphabet_size", sorted(FROZEN_CELLS))
def test_seeded_report_is_frozen(alphabet_size):
    config = _frozen_config(
        sizes=(16, 64, 1024, 2050), epsilons=(0.1, 0.2), alphabet_size=alphabet_size
    )
    report = run_experiment(config)
    assert [_cell_record(c) for c in report.cells] == [
        _expected_cell(r) for r in FROZEN_CELLS[alphabet_size]
    ]


def test_seeded_report_with_skipped_cells_is_frozen():
    config = _frozen_config(sizes=(8,), epsilons=(0.45,), max_far_attempts=3)
    report = run_experiment(config)
    assert [_cell_record(c) for c in report.cells] == [
        _expected_cell(r, FROZEN_SKIP_REASON) for r in FROZEN_SKIPPED_CELLS
    ]


# --- report bytes -----------------------------------------------------

# a ternary sweep with every mode whose far cells exhaust their budget,
# written with each cell's seconds set to 0.25: the CSV's decimals and a
# skipped row's blank columns, the JSON's key order and Wilson bounds
GOLDEN_CSV = (
    "n,epsilon,mode,class,trials,accept_rate,mean_queries,max_queries,mean_classical_reads,seconds\r\n"
    "16,0.45,quantum,member,3,1.000000,96.000,144,36.000,0.250\r\n"
    "16,0.45,quantum,far,0,,,,,0.250\r\n"
    "16,0.45,classical,member,3,1.000000,108.000,144,108.000,0.250\r\n"
    "16,0.45,classical,far,0,,,,,0.250\r\n"
    "16,0.45,exact,member,3,1.000000,38.333,45,38.333,0.250\r\n"
    "16,0.45,exact,far,0,,,,,0.250\r\n"
)

GOLDEN_JSON = """\
{
  "config": {
    "sizes": [
      16
    ],
    "epsilons": [
      0.45
    ],
    "trials": 6,
    "seed": 2024,
    "modes": [
      "quantum",
      "classical",
      "exact"
    ],
    "member_fraction": 0.5,
    "workers": 1,
    "max_far_attempts": 3,
    "alphabet_size": 3,
    "assertions": {
      "member_accept_lower_min": 0.8,
      "far_accept_max": 0.3
    }
  },
  "cells": [
    {
      "n": 16,
      "epsilon": 0.45,
      "mode": "quantum",
      "class": "member",
      "trials": 3,
      "accept_rate": 1.0,
      "accept_rate_wilson_low": 0.43850296824495455,
      "accept_rate_wilson_high": 1.0,
      "mean_queries": 96.0,
      "max_queries": 144,
      "mean_classical_reads": 36.0,
      "seconds": 0.25
    },
    {
      "n": 16,
      "epsilon": 0.45,
      "mode": "quantum",
      "class": "far",
      "trials": 0,
      "accept_rate": 0.0,
      "accept_rate_wilson_low": 0.0,
      "accept_rate_wilson_high": 1.0,
      "mean_queries": 0.0,
      "max_queries": 0,
      "mean_classical_reads": 0.0,
      "seconds": 0.25,
      "skipped": "no far instance found for n=16, epsilon=0.45 after 3 attempts"
    },
    {
      "n": 16,
      "epsilon": 0.45,
      "mode": "classical",
      "class": "member",
      "trials": 3,
      "accept_rate": 1.0,
      "accept_rate_wilson_low": 0.43850296824495455,
      "accept_rate_wilson_high": 1.0,
      "mean_queries": 108.0,
      "max_queries": 144,
      "mean_classical_reads": 108.0,
      "seconds": 0.25
    },
    {
      "n": 16,
      "epsilon": 0.45,
      "mode": "classical",
      "class": "far",
      "trials": 0,
      "accept_rate": 0.0,
      "accept_rate_wilson_low": 0.0,
      "accept_rate_wilson_high": 1.0,
      "mean_queries": 0.0,
      "max_queries": 0,
      "mean_classical_reads": 0.0,
      "seconds": 0.25,
      "skipped": "no far instance found for n=16, epsilon=0.45 after 3 attempts"
    },
    {
      "n": 16,
      "epsilon": 0.45,
      "mode": "exact",
      "class": "member",
      "trials": 3,
      "accept_rate": 1.0,
      "accept_rate_wilson_low": 0.43850296824495455,
      "accept_rate_wilson_high": 1.0,
      "mean_queries": 38.333333333333336,
      "max_queries": 45,
      "mean_classical_reads": 38.333333333333336,
      "seconds": 0.25
    },
    {
      "n": 16,
      "epsilon": 0.45,
      "mode": "exact",
      "class": "far",
      "trials": 0,
      "accept_rate": 0.0,
      "accept_rate_wilson_low": 0.0,
      "accept_rate_wilson_high": 1.0,
      "mean_queries": 0.0,
      "max_queries": 0,
      "mean_classical_reads": 0.0,
      "seconds": 0.25,
      "skipped": "no far instance found for n=16, epsilon=0.45 after 3 attempts"
    }
  ]
}
"""


def test_report_bytes_are_pinned(tmp_path):
    config = _frozen_config(
        sizes=(16,), epsilons=(0.45,), max_far_attempts=3, alphabet_size=3
    )
    report = run_experiment(config)
    for cell in report.cells:
        cell.seconds = 0.25
    emit_report(report, tmp_path / "report.csv", "csv")
    emit_report(report, tmp_path / "report.json", "json")
    assert (tmp_path / "report.csv").read_bytes().decode() == GOLDEN_CSV
    assert (tmp_path / "report.json").read_text() == GOLDEN_JSON
