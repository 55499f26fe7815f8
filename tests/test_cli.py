import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from twopal import exact_member, gen_member
from twopal.cli import main
from twopal.experiment import MAX_SIZE, ExperimentConfig, load_config

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def test_member_json(capsys):
    assert main(["member", "01101001"]) == 0
    out = json.loads(capsys.readouterr().out)
    # the witness offset is i = 3: 2n + i reads
    assert out == {"member": True, "half_u": 2, "half_v": 2, "classical_reads": 19}


def test_member_json_non_member(capsys):
    assert main(["member", "0101"]) == 0
    out = json.loads(capsys.readouterr().out)
    # no witness: 3n - 2 reads
    assert out == {
        "member": False,
        "half_u": None,
        "half_v": None,
        "classical_reads": 10,
    }


def test_distance_json(capsys):
    assert main(["distance", "100000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"distance": 1, "half_u": 1, "half_v": 2}


def test_distance_rejects_odd_word(capsys):
    assert main(["distance", "10000"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_word_is_a_usage_error(capsys):
    assert main(["member", "01a1"]) == 2
    assert "error:" in capsys.readouterr().err



@pytest.mark.parametrize("command", ["member", "distance", "test"])
def test_non_ascii_digits_are_a_usage_error(command, capsys):
    epsilon = ["--epsilon", "0.3"] if command == "test" else []
    assert main([command, "\u0660\u0661\u0661\u0660", *epsilon]) == 2
    assert "word text must be digits" in capsys.readouterr().err

def test_bad_symbol_in_a_large_file_gives_a_short_error(tmp_path, capsys):
    path = tmp_path / "word.txt"
    path.write_text("0" * 2**20 + "x\n")
    assert main(["member", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'x' at index 1048576" in err
    assert all(len(line.encode()) < 200 for line in err.splitlines())


def test_tiny_epsilon_is_a_usage_error(capsys):
    # m = ceil((2 / epsilon) log2 n) shifts is far more than one sample draws
    assert main(["test", "0110", "--epsilon", "1e-300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: epsilon=1e-300 needs m=")
    assert len(err.splitlines()) == 1


def test_test_subcommand_json_lines(capsys):
    code = main(
        ["test", "0110100110100110", "--epsilon", "0.3", "--seed", "3", "--trials", "2"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines):
        row = json.loads(line)
        assert row["trial"] == i
        assert row["mode"] == "quantum"
        assert isinstance(row["accept"], bool)
        assert row["total_charged"] == row["classical_reads"] + row["quantum_charged"]


@pytest.mark.parametrize("mode, columns", [("quantum", 8), ("classical", 4)])
def test_test_subcommand_reports_uncharged_reads(mode, columns, capsys):
    # n = 16, eps 0.3: m = 27 shifts, under the 48-shift prefix, so the
    # private column reads are m per column and none of them is charged
    code = main(["test", "0110100110100110", "--epsilon", "0.3", "--mode", mode])
    assert code == 0
    row = json.loads(capsys.readouterr().out)
    assert row["uncharged_reads"] == columns * 27
    assert row["total_charged"] == row["classical_reads"] + row["quantum_charged"]


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_test_subcommand_rejects_nonpositive_trials(trials, capsys):
    code = main(["test", "01101001", "--epsilon", "0.3", "--trials", trials])
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


def test_test_subcommand_warns_on_expensive_settings(capsys):
    main(["test", "0110", "--epsilon", "0.5", "--trials", "1"])
    assert "warning" in capsys.readouterr().err


def test_test_subcommand_reads_word_from_file(tmp_path, capsys):
    path = tmp_path / "word.txt"
    path.write_text("01101001\n")
    assert main(["test", str(path), "--epsilon", "0.3", "--mode", "classical"]) == 0
    row = json.loads(capsys.readouterr().out.strip())
    assert row["accept"] is True


def test_member_and_distance_read_word_from_file(tmp_path, capsys):
    # 2^18 symbols: twice what one argv string may hold on Linux
    word = gen_member(1000, 2**17 - 1000, random.Random(18))
    path = tmp_path / "word.txt"
    path.write_text(word.text() + "\n")
    witness = exact_member(word).witness
    assert main(["member", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "member": True,
        "half_u": witness.half_u,
        "half_v": witness.half_v,
        "classical_reads": 2 * 2**18 + 2 * witness.half_u - 1,
    }
    assert witness.half_u + witness.half_v == 2**17
    assert main(["distance", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == 0


def test_word_longer_than_a_file_name_is_read_as_a_word(capsys):
    word = "0" * 300
    assert main(["member", word]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True
    assert main(["distance", word]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == 0
    assert main(["test", word, "--epsilon", "0.3", "--mode", "classical"]) == 0
    assert json.loads(capsys.readouterr().out)["accept"] is True


def test_experiment_subcommand(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "sizes": [16],
                "epsilons": [0.2],
                "trials": 6,
                "seed": 1,
                "modes": ["exact"],
            }
        )
    )
    out = tmp_path / "report.csv"
    code = main(["experiment", "--config", str(config), "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("n,epsilon,mode,class,trials")
    assert "wrote 2 cells" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["scaling.json", "error_rates.json"])
def test_example_config_runs_at_tiny_sizes(tmp_path, capsys, name):
    raw = json.loads((EXAMPLES / name).read_text())
    load_config(EXAMPLES / name)  # the full-size config is valid as shipped
    raw.update(sizes=[16, 64], trials=4)
    config = tmp_path / name
    config.write_text(json.dumps(raw))
    out = tmp_path / "report.json"
    argv = ["experiment", "--config", str(config), "--out", str(out), "--format", "json"]
    assert main(argv) == 0
    cells = json.loads(out.read_text())["cells"]
    assert len(cells) == 2 * len(raw["epsilons"]) * len(raw["modes"]) * 2
    assert {cell["mode"] for cell in cells} == set(raw["modes"])


def test_experiment_assert_failure_exits_nonzero(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "sizes": [16],
                "epsilons": [0.2],
                "trials": 3,
                "seed": 1,
                "modes": ["exact"],
                "member_fraction": 1.0,
                "assertions": {"member_accept_lower_min": 0.99},
            }
        )
    )
    out = tmp_path / "report.csv"
    code = main(
        ["experiment", "--config", str(config), "--out", str(out), "--assert"]
    )
    assert code == 1
    assert "assertion failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw",
    [
        {"sizes": 64, "epsilons": [0.2], "trials": 2, "modes": ["exact"]},
        {"sizes": [16], "epsilons": [0.2], "trials": "x", "modes": ["exact"]},
        [16, 0.2],
        {"epsilons": [0.2], "trials": 2, "modes": ["exact"]},
        {"sizes": [[16]], "epsilons": [0.2], "trials": 2, "modes": ["exact"]},
        {"sizes": [16], "epsilons": [0.2], "trials": 2, "modes": [{}]},
    ],
    ids=[
        "sizes-not-a-list",
        "trials-not-an-int",
        "top-level-list",
        "sizes-missing",
        "sizes-entry-a-list",
        "modes-entry-an-object",
    ],
)
def test_experiment_malformed_config_is_a_usage_error(tmp_path, capsys, raw):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "report.csv"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [
        {"alphabet_size": 0},
        {"alphabet_size": 257},
        {"max_far_attempts": 0},
        {"grover": {"cap_multiplier": float("inf")}},
        {"grover": {"growth_factor": float("inf")}},
        {"sizes": []},
        {"sizes": [16, 16]},
        {"epsilons": []},
        {"epsilons": [0.2, 0.1, 0.2]},
        {"modes": []},
        {"modes": ["quantum", "quantum"]},
        {"assertions": {"far_accept_max": float("nan")}},
        {"assertions": {"member_accept_lower_min": float("nan")}},
        {"assertions": {"far_accept_max": -1}},
    ],
    ids=[
        "alphabet-zero",
        "alphabet-above-256",
        "no-far-attempts",
        "cap-infinite",
        "growth-infinite",
        "sizes-empty",
        "sizes-repeated",
        "epsilons-empty",
        "epsilons-repeated",
        "modes-empty",
        "modes-repeated",
        "far-max-nan",
        "member-min-nan",
        "far-max-negative",
    ],
)
def test_experiment_out_of_range_config_is_a_usage_error(tmp_path, capsys, extra):
    raw = {"sizes": [16], "epsilons": [0.2], "trials": 2, "modes": ["quantum"]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**raw, **extra}))
    out = tmp_path / "report.csv"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_experiment_tiny_epsilon_is_a_usage_error(tmp_path, capsys):
    raw = {"sizes": [16], "epsilons": [1e-300], "trials": 2, "modes": ["quantum"]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "report.csv"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: epsilon=1e-300 needs m=")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("size", [1 << 28, 1 << 36])
def test_experiment_oversized_size_is_a_usage_error(tmp_path, capsys, size):
    # a word of n symbols draws up to 32n random bits in one call, whose bit
    # count is a C int; such sizes are refused before anything is drawn
    raw = {"sizes": [size], "epsilons": [0.2], "trials": 1, "modes": ["exact"]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "report.csv"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sizes must be at most {MAX_SIZE}")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_largest_size_every_alphabet_draws_passes_validation():
    # validation only: a run at this size would draw 32 MiB words
    assert MAX_SIZE == 1 << 25
    for alphabet_size in (2, 3, 256):
        config = ExperimentConfig(
            sizes=(MAX_SIZE,), epsilons=(0.1,), alphabet_size=alphabet_size
        )
        assert config.sizes == (MAX_SIZE,)
    with pytest.raises(ValueError, match="at most"):
        ExperimentConfig(sizes=(MAX_SIZE + 2,), epsilons=(0.1,))


def test_import_leaves_numpy_random_unloaded():
    # importing numpy.random costs about 7 ms per fresh interpreter and up
    # to 6 MB of resident memory (one exact_adversarial pass at n = 2^20
    # peaked at 36.9 MB without it and 42.9 MB with it), so the package
    # loads it only on a draw of at least generators.NUMPY_IMPORT_MIN outputs
    code = (
        "import sys, twopal, twopal.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "[]"


def test_experiment_deeply_nested_config_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[" * 100_000)
    out = tmp_path / "report.csv"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_experiment_alphabet_size_override(tmp_path):
    raw = {"sizes": [16], "epsilons": [0.2], "trials": 4, "seed": 1, "modes": ["exact"]}

    def run(extra, *flags):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**raw, **extra}))
        out = tmp_path / "report.json"
        argv = [*flags, "experiment", "--config", str(config), "--out", str(out)]
        assert main([*argv, "--format", "json"]) == 0
        return json.loads(out.read_text())

    flagged = run({}, "--alphabet-size", "3")
    from_config = run({"alphabet_size": 3})
    assert flagged["config"]["alphabet_size"] == 3
    assert from_config["config"]["alphabet_size"] == 3
    assert run({})["config"]["alphabet_size"] == 2
    assert run({"alphabet_size": 5}, "--alphabet-size", "3")["config"]["alphabet_size"] == 3
    for a, b in zip(flagged["cells"], from_config["cells"]):
        assert {**a, "seconds": 0} == {**b, "seconds": 0}


def test_experiment_seed_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "sizes": [16],
                "epsilons": [0.2],
                "trials": 4,
                "seed": 1,
                "modes": ["exact"],
            }
        )
    )
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["experiment", "--config", str(config), "--out", str(out_a), "--format", "json", "--seed", "42"]) == 0
    assert main(["experiment", "--config", str(config), "--out", str(out_b), "--format", "json", "--seed", "42"]) == 0
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["config"]["seed"] == 42
    for ca, cb in zip(a["cells"], b["cells"]):
        assert ca["accept_rate"] == cb["accept_rate"]
        assert ca["mean_queries"] == cb["mean_queries"]
