import json

import pytest

from twopal.cli import main


def test_member_json(capsys):
    assert main(["member", "01101001"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"member": True, "half_u": 2, "half_v": 2}


def test_member_json_non_member(capsys):
    assert main(["member", "0101"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"member": False, "half_u": None, "half_v": None}


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


def test_test_subcommand_warns_on_expensive_settings(capsys):
    main(["test", "0110", "--epsilon", "0.5", "--trials", "1"])
    assert "warning" in capsys.readouterr().err


def test_test_subcommand_reads_word_from_file(tmp_path, capsys):
    path = tmp_path / "word.txt"
    path.write_text("01101001\n")
    assert main(["test", str(path), "--epsilon", "0.3", "--mode", "classical"]) == 0
    row = json.loads(capsys.readouterr().out.strip())
    assert row["accept"] is True


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
    ],
    ids=["sizes-not-a-list", "trials-not-an-int", "top-level-list", "sizes-missing"],
)
def test_experiment_malformed_config_is_a_usage_error(tmp_path, capsys, raw):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "report.csv"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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
