"""Self-tests of the benchmark; they are not part of the Tier-1 suite.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import ppsim  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from timing import CALIBRATION_REFERENCE_S, Timer  # noqa: E402
from workloads import Cell, Session, Workload, gate, report_of, run_pass  # noqa: E402

GOOD_IPE = ppsim.RunStats(
    rounds=1000, message_rounds=500, control_rounds_evaluated=500, qber=0.0,
    control_failure_rate=0.0, anomaly_count=0, absorbed_total=0, eve_accuracy=1.0,
    eve_mutual_info_bits=1.0, blind_rounds=500, seed=1,
)


def test_gate_passes_a_faithful_runstats():
    assert gate(Cell("pp_epr", "ipe"), report_of(GOOD_IPE)) == []


@pytest.mark.parametrize("cell, bad", [
    (Cell("pp_epr", "ipe"), replace(GOOD_IPE, eve_accuracy=0.9)),
    (Cell("pp_epr", "ipe"), replace(GOOD_IPE, eve_mutual_info_bits=0.5)),
    (Cell("pp_epr", "ipe"), replace(GOOD_IPE, anomaly_count=3)),
    (Cell("pp_epr", "no_eve"), replace(GOOD_IPE, qber=0.01, eve_accuracy=None,
                                       eve_mutual_info_bits=None)),
    (Cell("pp_epr", "ipe", filter_on=True), replace(GOOD_IPE, absorbed_total=1000)),
    (Cell("pp_epr", "ipe", filter_on=True), replace(GOOD_IPE, eve_accuracy=0.5,
                                                    absorbed_total=999)),
    (Cell("pp_epr", "intercept_resend"), replace(GOOD_IPE, qber=0.1, eve_accuracy=None,
                                                 eve_mutual_info_bits=None)),
    (Cell("kkkp", "kkkp_probe", n=4), replace(GOOD_IPE, eve_accuracy=0.6,
                                              eve_mutual_info_bits=0.05)),
    (Cell("kkkp", "kkkp_probe", theta_known=True), replace(GOOD_IPE, eve_accuracy=0.9)),
])
def test_gate_fails_on_fabricated_bad_runstats(cell, bad):
    assert gate(cell, report_of(bad))


def test_compare_check_fails_on_a_short_matrix():
    header = ppsim.cli.COMPARE_HEADER
    checked = workloads.check_compare_csv(header + "\n")
    assert checked.failed == workloads.COMPARE_ROWS


def _fake_session(name, count, result=None, error=None, problems=()):
    def call():
        if error is not None:
            raise error
        return result

    def run(timer):
        return timer.timed(name, call)

    return Session(name, count, run,
                   lambda r: workloads.Checked(int(bool(problems)), list(problems), repr(r)))


def test_failed_frac_counts_a_session_that_raised():
    wl = Workload("fake", [
        _fake_session("ok", 1, result=1),
        _fake_session("boom", 1, error=RuntimeError("boom")),
        _fake_session("grid", 22, error=ValueError("bad grid")),
        _fake_session("wrong", 1, result=2, problems=["wrong answer"]),
    ], session_rounds=10, rounds_per_pass=40, cell_a="ok", cell_b="ok")
    result = run_pass(wl, calibrate=lambda: 0.01)
    assert result.attempted == 25
    assert result.failed == 24
    assert any("boom" in p for p in result.problems)
    assert "wrong answer" in result.problems


def _small(monkeypatch):
    monkeypatch.setattr(workloads, "KKKP_ROUNDS", 60)
    monkeypatch.setattr(workloads, "COMPARE_ROUNDS", 40)
    monkeypatch.setattr(workloads, "DENSE_ROUNDS", 80)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracer_changes_no_draw_and_leaves_ppsim_unpatched(name, monkeypatch, tmp_path):
    _small(monkeypatch)
    wl = workloads.build(name, 3, str(tmp_path))
    untraced = run_pass(wl, calibrate=lambda: 0.01)
    before = tracer.ppsim_bindings()
    with tracer.Tracer() as tr:
        assert tracer.changed_bindings(before), "tracer patched nothing"
        traced = run_pass(wl, calibrate=lambda: 0.01)
    assert tracer.changed_bindings(before) == []
    assert traced.digest == untraced.digest
    spans = tr.summary()["spans"]
    assert spans["protocols.run_round"]["calls"] == wl.rounds_per_pass
    assert spans["harness.rng"]["calls"] > 0


def test_tracer_unpatches_when_a_traced_call_raises():
    before = tracer.ppsim_bindings()
    with pytest.raises(ppsim.ConfigError):
        with tracer.Tracer():
            ppsim.run_session(ppsim.ProtocolConfig(ppsim.ProtocolKind.PP_EPR, rounds=0),
                              ppsim.StrategySpec(ppsim.StrategyKind.NO_EVE))
    assert tracer.changed_bindings(before) == []


def test_timer_normalises_by_the_kernel_around_each_cell():
    kernel = iter([0.02, 0.04, 0.01])
    timer = Timer(calibrate=lambda: next(kernel))
    timer.timed("a", lambda: None)
    timer.timed("b", lambda: None)
    assert timer.speed == {"a": 0.03, "b": 0.025}
    assert timer.normalised("a") == timer.seconds["a"] * CALIBRATION_REFERENCE_S / 0.03


def test_covered_is_the_union_of_inner_intervals():
    inner = [(1.0, 3.0), (2.0, 5.0), (6.0, 7.0), (11.0, 12.0)]
    assert tracer._covered([(0.0, 10.0)], inner) == pytest.approx(5.0)


def test_exits_without_printing_a_result_when_sources_are_missing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = bench.main(["--workload", "kkkp_probe", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in bench.PER_LAYER]
    for name in workloads.WORKLOADS:
        bench.parse_args(["--workload", name, "--seed", "0", "--seconds", "1"])
    with pytest.raises(SystemExit):
        bench.parse_args(["--workload", "nope", "--seed", "0", "--seconds", "1"])
