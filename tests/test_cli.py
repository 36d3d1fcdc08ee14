"""End-to-end tests of the command-line interface."""

import json
from pathlib import Path

import pytest

from ppsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

IPE_SCENARIO = {
    "protocol": "pp_epr",
    "rounds": 2000,
    "control_prob": 0.5,
    "attack": {"kind": "ipe", "lambda_e_nm": 190000.0},
    "seed": 42,
}


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def parse_report(text: str) -> dict:
    out = {}
    for line in text.strip().splitlines():
        key, value = line.split("=", 1)
        out[key] = value
    return out


def parse_csv(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestRun:
    def test_canonical_ipe_report(self, tmp_path):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        out = tmp_path / "report.txt"
        assert main(["run", scenario, "-o", str(out)]) == 0
        report = parse_report(out.read_text(encoding="utf-8"))
        assert report["eve_accuracy"] == "1.000000000"
        assert report["eve_mutual_info_bits"] == "1.000000000"
        assert report["anomaly_count"] == "0"
        assert report["qber"] == "0.000000000"
        assert report["seed"] == "42"

    def test_reruns_are_byte_identical(self, tmp_path):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["run", scenario, "-o", str(out1)]) == 0
        assert main(["run", scenario, "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_by_default(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, dict(IPE_SCENARIO, rounds=200))
        assert main(["run", scenario]) == 0
        assert "eve_accuracy=1.000000000" in capsys.readouterr().out

    def test_overrides_change_the_session(self, tmp_path):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        out = tmp_path / "r.txt"
        assert main(["run", scenario, "-o", str(out), "--rounds", "321", "--seed", "5"]) == 0
        report = parse_report(out.read_text(encoding="utf-8"))
        assert report["rounds"] == "321"
        assert report["seed"] == "5"

    def test_no_eve_report_omits_eve_fields(self, tmp_path):
        scenario = write_scenario(tmp_path, {"protocol": "pp_epr", "rounds": 200})
        out = tmp_path / "r.txt"
        assert main(["run", scenario, "-o", str(out)]) == 0
        report = parse_report(out.read_text(encoding="utf-8"))
        assert "eve_accuracy" not in report
        assert "eve_mutual_info_bits" not in report


class TestExitCodes:
    def test_parse_failure_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert "scenario error" in capsys.readouterr().err

    def test_unknown_key_is_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"protocol": "pp_epr", "mystery": 1}', encoding="utf-8")
        assert main(["run", str(path)]) == 2

    def test_constraint_violation_is_3_and_names_field(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {"protocol": "pp_epr", "control_prob": 1.5})
        assert main(["run", scenario]) == 3
        assert "control_prob" in capsys.readouterr().err

    def test_unknown_sweep_field_is_4(self, tmp_path):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        assert main(["sweep", scenario, "--field", "wavelength", "--values", "1"]) == 4

    def test_unreadable_scenario_is_5(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.json")]) == 5

    def test_unwritable_output_is_5(self, tmp_path):
        scenario = write_scenario(tmp_path, dict(IPE_SCENARIO, rounds=50))
        assert main(["run", scenario, "-o", str(tmp_path / "no" / "dir" / "x.txt")]) == 5


class TestSweep:
    def test_passband_half_width_controls_the_attack(self, tmp_path):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", scenario, "--field", "passband_half_width_nm",
            "--values", "0.005,0.05,5,500000", "-o", str(out), "--rounds", "2000",
        ])
        assert code == 0
        rows = parse_csv(out.read_text(encoding="utf-8"))
        assert [r["value"] for r in rows] == ["0.005", "0.05", "5", "500000"]
        for row in rows[:3]:  # probe filtered out: coin-flip accuracy
            assert abs(float(row["eve_accuracy"]) - 0.5) < 0.05
            assert float(row["eve_mi_bits"]) < 0.01
        assert float(rows[3]["eve_accuracy"]) == 1.0  # passband admits the probe
        assert int(rows[3]["absorbed_total"]) == 0

    def test_header_matches_contract(self, tmp_path):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", scenario, "--field", "control_prob", "--values", "",
                     "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == (
            "value,qber,control_failure_rate,eve_accuracy,eve_mi_bits,"
            "anomaly_count,absorbed_total\n"
        )

    def test_visible_probe_wavelength_raises_anomalies(self, tmp_path):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", scenario, "--field", "lambda_e_nm", "--values", "800",
                     "-o", str(out), "--rounds", "2000"]) == 0
        rows = parse_csv(out.read_text(encoding="utf-8"))
        assert int(rows[0]["anomaly_count"]) > 0

    def test_probe_count_sweep_requires_probe_attack(self, tmp_path):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        assert main(["sweep", scenario, "--field", "n", "--values", "1,2"]) == 3

    def test_probe_count_sweep(self, tmp_path):
        scenario = write_scenario(tmp_path, {
            "protocol": "kkkp",
            "rounds": 400,
            "attack": {"kind": "kkkp_probe", "n": 1},
        })
        out = tmp_path / "sweep.csv"
        assert main(["sweep", scenario, "--field", "n", "--values", "1,4", "-o", str(out)]) == 0
        rows = parse_csv(out.read_text(encoding="utf-8"))
        assert len(rows) == 2

    def test_bad_value_is_parse_error(self, tmp_path):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        assert main(["sweep", scenario, "--field", "control_prob", "--values", "a,b"]) == 2

    @pytest.mark.parametrize("scenario, field, values, golden", [
        ("kkkp_probe_seed7.json", "n", "1,2,4,16", "sweep_kkkp_probe_n_seed7.csv"),
        # Filter on: 850 nm is visible but outside the passband; 800 nm is
        # inside it and inside the spectroscope band of the signal.
        ("kkkp_probe_filter_seed7.json", "lambda_e_nm", "190000,850,800",
         "sweep_kkkp_probe_lambda_filter_seed7.csv"),
    ])
    def test_kkkp_sweep_is_pinned(self, tmp_path, scenario, field, values, golden):
        # Any change to a kkkp draw or to the random-stream layout shows
        # here; regenerating the files is a declared change.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(GOLDEN / scenario), "--field", field, "--values", values,
                     "-o", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    out = tmp_path_factory.mktemp("cmp") / "matrix.csv"
    assert main(["compare", "-o", str(out), "--rounds", "1500"]) == 0
    return out.read_text(encoding="utf-8")


class TestCompare:
    def test_covers_all_protocols_and_filters(self, matrix):
        rows = parse_csv(matrix)
        assert len(rows) == 22  # 3+3+3+2 attacks, each with filter off/on
        protocols = {r["protocol"] for r in rows}
        assert protocols == {"pp_epr", "pp_single", "pp_dense", "kkkp"}
        assert {r["filter"] for r in rows} == {"off", "on"}

    def test_dense_pair_probe_reads_two_bits(self, matrix):
        rows = parse_csv(matrix)
        row = next(r for r in rows if (r["protocol"], r["attack"], r["filter"])
                   == ("pp_dense", "ipe_dense", "off"))
        assert float(row["eve_accuracy"]) == 1.0
        assert float(row["eve_mi_bits"]) == 2.0
        assert float(row["qber"]) == 0.0

    def test_blind_rotation_probe_learns_nothing(self, matrix):
        rows = parse_csv(matrix)
        row = next(r for r in rows if (r["protocol"], r["attack"], r["filter"])
                   == ("kkkp", "kkkp_probe_n4", "off"))
        assert float(row["eve_mi_bits"]) < 0.01

    def test_filter_is_transparent_to_honest_runs(self, matrix):
        rows = parse_csv(matrix)
        row = next(r for r in rows if (r["protocol"], r["attack"], r["filter"])
                   == ("pp_epr", "no_eve", "on"))
        assert float(row["qber"]) == 0.0
        assert row["eve_accuracy"] == "" and row["eve_mi_bits"] == ""

    def test_compare_is_deterministic(self, matrix, tmp_path):
        out = tmp_path / "again.csv"
        assert main(["compare", "-o", str(out), "--rounds", "1500"]) == 0
        assert out.read_text(encoding="utf-8") == matrix

    def test_matrix_is_pinned(self, tmp_path):
        # Any change to a kernel's draws or to the random-stream layout
        # shows here; regenerating the file is a declared change.
        out = tmp_path / "matrix.csv"
        assert main(["compare", "-o", str(out), "--seed", "42", "--rounds", "2000"]) == 0
        assert out.read_bytes() == (GOLDEN / "compare_seed42_rounds2000.csv").read_bytes()
