"""End-to-end tests of the command-line interface."""

import json
from pathlib import Path

import pytest

from ppsim import cli
from ppsim.cli import main
from ppsim.harness import run_session

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

    def test_readme_report_is_pinned(self, tmp_path):
        # README's report for the canonical invisible-photon scenario, byte for byte.
        out = tmp_path / "report.txt"
        assert main(["run", str(GOLDEN / "readme_ipe_seed42.json"), "-o", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "readme_run_ipe_seed42.txt").read_bytes()

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

    @pytest.mark.parametrize("obj, field", [
        ({"protocol": "pp_epr", "filter": {"enabled": True, "passband_nm": [900, 600]}}, "passband"),
        ({"protocol": "pp_epr", "detector_window_nm": [900, 600]}, "detector window"),
        ({"protocol": "kkkp", "attack": {"kind": "kkkp_probe", "n": 0}}, "attack n"),
        ({"protocol": "pp_epr", "attack": {"kind": "ipe", "lambda_e_nm": -1}}, "lambda_e_nm"),
    ], ids=["passband", "detector_window", "probe_count", "probe_wavelength"])
    def test_optics_and_attack_constraints_are_3(self, tmp_path, capsys, obj, field):
        assert main(["run", write_scenario(tmp_path, obj)]) == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        ('{"protocol": "pp_epr", "filter": {"enabled": true, "passband_nm": [600, 1e400]}}', "filter passband"),
        ('{"protocol": "pp_epr", "detector_window_nm": [600, 1e400]}', "detector window"),
    ], ids=["passband", "detector_window"])
    def test_unbounded_intervals_are_3(self, tmp_path, capsys, text, field):
        # JSON reads 1e400 as an infinite float.
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path)]) == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("angle", ["1e400", "-1e309"])
    def test_non_finite_basis_angle_is_3(self, tmp_path, capsys, angle):
        # JSON reads both angles as infinite floats.
        path = tmp_path / "scenario.json"
        text = '{"protocol": "pp_epr", "attack": {"kind": "intercept_resend", "basis": %s}}' % angle
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path)]) == 3
        assert "basis" in capsys.readouterr().err

    @pytest.mark.parametrize("obj, field", [
        ({"protocol": "pp_epr", "control_prob": 10**400}, "control_prob"),
        ({"protocol": "pp_epr", "filter": {"enabled": True, "passband_nm": [600, 10**400]}}, "passband_nm"),
        ({"protocol": "pp_epr", "attack": {"kind": "intercept_resend", "basis": -10**400}}, "attack.basis"),
    ], ids=["control_prob", "interval", "basis"])
    def test_integer_beyond_float_range_is_2(self, tmp_path, capsys, obj, field):
        assert main(["run", write_scenario(tmp_path, obj)]) == 2
        assert f"{field} is beyond float range" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1 << 64, -1])
    def test_seed_outside_64_bits_is_3(self, tmp_path, capsys, seed):
        assert main(["run", write_scenario(tmp_path, dict(IPE_SCENARIO, seed=seed))]) == 3
        assert "seed must be" in capsys.readouterr().err

    @pytest.mark.parametrize("obj, message", [
        ({"protocol": "pp_epr", "attack": "ipe"}, "attack must be an object"),
        ({"protocol": "pp_epr", "filter": True}, "filter must be an object"),
        ({"protocol": "pp_epr", "control_prob": "0.5"}, "control_prob must be a number"),
        ({"protocol": "pp_epr", "attack": {"kind": "ipe", "lambda_e_nm": True}}, "lambda_e_nm must be"),
        ({"protocol": "pp_epr", "attack": {"kind": "intercept_resend", "basis": True}}, "basis must be"),
        ({"protocol": "pp_epr", "attack": {"kind": "intercept_resend", "basis": [0.5]}}, "basis must be"),
    ], ids=["attack_not_object", "filter_not_object", "string_number", "boolean_number",
            "boolean_basis", "list_basis"])
    def test_ill_typed_values_are_2(self, tmp_path, capsys, obj, message):
        assert main(["run", write_scenario(tmp_path, obj)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("protocol, attack", [
        ("pp_dense", "ipe"),
        ("pp_epr", "ipe_dense"), ("pp_single", "ipe_dense"), ("kkkp", "ipe_dense"),
        ("pp_epr", "kkkp_probe"), ("pp_single", "kkkp_probe"), ("pp_dense", "kkkp_probe"),
    ])
    def test_mismatched_protocol_and_attack_are_3(self, tmp_path, capsys, protocol, attack):
        scenario = write_scenario(tmp_path, {"protocol": protocol, "rounds": 50, "attack": {"kind": attack}})
        assert main(["run", scenario]) == 3
        assert main(["sweep", scenario, "--field", "lambda_e_nm", "--values", "190000"]) == 3
        err = capsys.readouterr().err
        assert err.count(f"attack.kind {attack!r} does not apply to protocol {protocol!r}") == 2

    @pytest.mark.parametrize("protocol, attack", [
        *((p, a) for p in ("pp_epr", "pp_single", "pp_dense", "kkkp") for a in ("no_eve", "intercept_resend")),
        ("pp_epr", "ipe"), ("pp_single", "ipe"), ("kkkp", "ipe"), ("pp_dense", "ipe_dense"),
        ("kkkp", "kkkp_probe"),
    ])
    def test_applicable_protocol_and_attack_run(self, tmp_path, protocol, attack):
        scenario = write_scenario(tmp_path, {"protocol": protocol, "rounds": 50, "attack": {"kind": attack}})
        assert main(["run", scenario, "-o", str(tmp_path / "report.txt")]) == 0

    def test_other_errors_are_internal_1(self, tmp_path, capsys, monkeypatch):
        def broken(cfg, spec):
            raise ValueError("not a constraint")

        monkeypatch.setattr(cli, "run_session", broken)
        assert main(["run", write_scenario(tmp_path, IPE_SCENARIO)]) == 1
        assert capsys.readouterr().err == "ppsim: internal error: ValueError: not a constraint\n"

    def test_unknown_sweep_field_is_4(self, tmp_path):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        assert main(["sweep", scenario, "--field", "wavelength", "--values", "1"]) == 4

    def test_unknown_sweep_field_is_4_before_the_scenario_is_read(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        assert main(["sweep", missing, "--field", "wavelength", "--values", "1"]) == 4

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
        assert main(["sweep", scenario, "--field", "control_prob", "--values", "0.5",
                     "-o", str(out), "--rounds", "10"]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[0] == (
            "value,qber,control_failure_rate,eve_accuracy,eve_mi_bits,"
            "anomaly_count,absorbed_total"
        )

    @pytest.mark.parametrize("values", ["", " , "], ids=["empty", "commas"])
    def test_no_values_is_2(self, tmp_path, capsys, values):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", scenario, "--field", "control_prob", "--values", values,
                     "-o", str(out)]) == 2
        assert "no value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", ["0.5,,0.25", "0.5,0.25,"], ids=["inner", "trailing"])
    def test_empty_token_is_2(self, tmp_path, capsys, values):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", scenario, "--field", "control_prob", "--values", values,
                     "--rounds", "10", "-o", str(out)]) == 2
        assert "empty value" in capsys.readouterr().err
        assert not out.exists()

    def test_visible_probe_wavelength_raises_anomalies(self, tmp_path):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", scenario, "--field", "lambda_e_nm", "--values", "800",
                     "-o", str(out), "--rounds", "2000"]) == 0
        rows = parse_csv(out.read_text(encoding="utf-8"))
        assert int(rows[0]["anomaly_count"]) > 0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_probe_wavelength_is_3(self, tmp_path, capsys, value):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        assert main(["sweep", scenario, "--field", "lambda_e_nm", "--values", value,
                     "--rounds", "300"]) == 3
        assert "lambda_e_nm" in capsys.readouterr().err

    def test_unbounded_passband_is_3(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        assert main(["sweep", scenario, "--field", "passband_half_width_nm", "--values", "inf",
                     "--rounds", "300"]) == 3
        assert "filter passband" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_passband_half_width_is_3(self, tmp_path, capsys, value):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        assert main(["sweep", scenario, "--field", "passband_half_width_nm", "--values", value,
                     "--rounds", "300"]) == 3
        assert "passband_half_width_nm must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("attack", [{"kind": "no_eve"}, {"kind": "intercept_resend"}])
    def test_probe_wavelength_sweep_requires_probe_attack(self, tmp_path, capsys, attack):
        scenario = write_scenario(tmp_path, dict(IPE_SCENARIO, attack=attack))
        assert main(["sweep", scenario, "--field", "lambda_e_nm", "--values", "190000",
                     "--rounds", "300"]) == 3
        assert "has no probe wavelength" in capsys.readouterr().err

    def test_control_prob_sweep(self, tmp_path, monkeypatch):
        sessions = []

        def recorded(cfg, spec, *, shared=None):
            stats, log = run_session(cfg, spec, shared=shared)
            sessions.append(stats)
            return stats, log

        monkeypatch.setattr(cli, "run_session", recorded)
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", scenario, "--field", "control_prob", "--values", "0.1,0.5,0.9",
                     "--rounds", "2000", "-o", str(out)]) == 0
        rows = parse_csv(out.read_text(encoding="utf-8"))
        assert [r["value"] for r in rows] == ["0.1", "0.5", "0.9"]
        messages = [s.message_rounds for s in sessions]
        assert messages[0] > messages[1] > messages[2] > 0

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

    @pytest.mark.parametrize("golden", ["readme_run_ipe_seed42.txt", "readme_sweep_passband_rounds4000.csv"])
    def test_readme_shows_the_pinned_output(self, golden):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert "```\n" + (GOLDEN / golden).read_text(encoding="utf-8") + "```" in readme

    def test_readme_sweep_is_pinned(self, tmp_path):
        # README's "widening the filter" example, byte for byte.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(GOLDEN / "readme_ipe_seed42.json"), "--field", "passband_half_width_nm",
                     "--values", "0.005,0.05,5,500000", "--rounds", "4000", "-o", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "readme_sweep_passband_rounds4000.csv").read_bytes()

    @pytest.mark.parametrize("scenario, field, values, golden", [
        ("kkkp_probe_seed7.json", "n", "1,2,4,16", "sweep_kkkp_probe_n_seed7.csv"),
        # Filter on: 850 nm is visible but outside the passband; 800 nm is
        # inside it, at the signal's own wavelength.
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


class TestEachDistinctSessionOnce:
    """``compare`` and ``sweep`` compute a session that repeats one of their own only once."""

    def test_compare_computes_15_of_its_22_sessions_in_each_call(self, tmp_path, sessions_computed):
        # The filter passes the signal, so it changes nothing for no_eve and
        # intercept_resend_z: 7 filter-on rows repeat their filter-off row.
        counts = []
        for call in range(2):
            out = tmp_path / f"matrix{call}.csv"
            assert main(["compare", "-o", str(out), "--seed", "42", "--rounds", "2000"]) == 0
            assert out.read_bytes() == (GOLDEN / "compare_seed42_rounds2000.csv").read_bytes()
            counts.append(len(sessions_computed))
            sessions_computed.clear()
        assert counts == [15, 15]

    def test_a_passband_sweep_across_the_probe_computes_each_verdict_once(self, tmp_path,
                                                                           sessions_computed):
        # Half-widths 0.005, 0.05 and 5 nm pass the signal and absorb the
        # 190000 nm probe; 500000 nm passes both.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(GOLDEN / "readme_ipe_seed42.json"), "--field", "passband_half_width_nm",
                     "--values", "0.005,0.05,5,500000", "--rounds", "4000", "-o", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "readme_sweep_passband_rounds4000.csv").read_bytes()
        assert len(sessions_computed) == 2

    def test_a_lambda_sweep_of_one_verdict_computes_one_session(self, tmp_path, sessions_computed):
        # No filter: every probe is invisible, admitted and far from the
        # signal, so the five values are one session.  The golden file is
        # the output of a checkout that computed all five.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(GOLDEN / "kkkp_probe_seed7.json"), "--rounds", "10000", "--field", "lambda_e_nm",
                     "--values", "150000,170000,190000,210000,230000", "-o", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "sweep_kkkp_probe_lambda_seed7_rounds10000.csv").read_bytes()
        assert len(sessions_computed) == 1

    def test_a_repeated_sweep_value_is_computed_once(self, tmp_path, sessions_computed):
        scenario = write_scenario(tmp_path, IPE_SCENARIO)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", scenario, "--field", "control_prob", "--values", "0.1,0.5,0.1",
                     "--rounds", "300", "-o", str(out)]) == 0
        rows = parse_csv(out.read_text(encoding="utf-8"))
        assert len(rows) == 3 and rows[0] == rows[2] != rows[1]
        assert len(sessions_computed) == 2
