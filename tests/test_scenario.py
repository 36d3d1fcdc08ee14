"""Scenario file parsing, validation and round-tripping."""

import math
from dataclasses import replace

import pytest

from ppsim.adversaries import StrategyKind, StrategySpec
from ppsim.harness import run_session
from ppsim.protocols import ConfigError, ProtocolConfig, ProtocolKind
from ppsim.scenario import (
    Scenario,
    ScenarioError,
    parse_scenario_text,
    scenario_to_text,
    with_overrides,
)

MINIMAL = '{"protocol": "pp_epr"}'

FULL = """
{
  "protocol": "pp_dense",
  "rounds": 500,
  "control_prob": 0.25,
  "signal_wavelength_nm": 800.0,
  "detector_window_nm": [600, 900],
  "filter": {"enabled": true, "passband_nm": [799.9, 800.1]},
  "attack": {"kind": "ipe_dense", "lambda_e_nm": 190000.0},
  "seed": 7,
  "log_rounds": true
}
"""


class TestParsing:
    def test_minimal_scenario_uses_canonical_defaults(self):
        sc = parse_scenario_text(MINIMAL)
        assert sc.protocol is ProtocolKind.PP_EPR
        assert sc.rounds == 10_000
        assert sc.control_prob == 0.5
        assert sc.signal_wavelength_nm == 800.0
        assert sc.detector_window_nm == (600.0, 900.0)
        assert not sc.filter_enabled
        assert sc.attack.kind is StrategyKind.NO_EVE
        assert sc.seed == 42
        assert not sc.log_rounds

    def test_full_scenario(self):
        sc = parse_scenario_text(FULL)
        assert sc.protocol is ProtocolKind.PP_DENSE
        assert sc.rounds == 500
        assert sc.filter_enabled
        assert sc.filter_passband_nm == (799.9, 800.1)
        assert sc.attack.kind is StrategyKind.IPE_DENSE
        assert sc.log_rounds

    def test_kkkp_defaults_to_no_control_mode(self):
        sc = parse_scenario_text('{"protocol": "kkkp"}')
        assert sc.control_prob == 0.0
        assert sc.to_config().control_prob == 0.0

    def test_filter_passband_defaults_to_signal_band(self):
        sc = parse_scenario_text('{"protocol": "pp_epr", "filter": {"enabled": true}}')
        assert sc.effective_passband() == (799.95, 800.05)

    def test_filter_passband_follows_signal_wavelength(self):
        sc = parse_scenario_text(
            '{"protocol": "pp_epr", "signal_wavelength_nm": 1550.0, "filter": {"enabled": true}}'
        )
        assert sc.effective_passband() == (1549.95, 1550.05)

    def test_basis_accepts_names_and_radians(self):
        sc = parse_scenario_text(
            '{"protocol": "pp_epr", "attack": {"kind": "intercept_resend", "basis": "x"}}'
        )
        assert sc.attack.basis == "x"
        sc = parse_scenario_text(
            '{"protocol": "pp_epr", "attack": {"kind": "intercept_resend", "basis": 0.5}}'
        )
        assert sc.attack.basis == 0.5


class TestRejection:
    def test_invalid_json(self):
        with pytest.raises(ScenarioError, match="invalid JSON"):
            parse_scenario_text("{nope")

    def test_non_object(self):
        with pytest.raises(ScenarioError, match="object"):
            parse_scenario_text("[1, 2]")

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="wavelength_nm"):
            parse_scenario_text('{"protocol": "pp_epr", "wavelength_nm": 800}')

    def test_unknown_nested_keys(self):
        with pytest.raises(ScenarioError, match="filter"):
            parse_scenario_text('{"protocol": "pp_epr", "filter": {"enabled": true, "width": 1}}')
        with pytest.raises(ScenarioError, match="attack"):
            parse_scenario_text('{"protocol": "pp_epr", "attack": {"kind": "ipe", "power": 2}}')

    def test_missing_protocol(self):
        with pytest.raises(ScenarioError, match="protocol"):
            parse_scenario_text("{}")

    def test_unknown_protocol_and_attack(self):
        with pytest.raises(ScenarioError, match="protocol"):
            parse_scenario_text('{"protocol": "bb84"}')
        with pytest.raises(ScenarioError, match="attack.kind"):
            parse_scenario_text('{"protocol": "pp_epr", "attack": {"kind": "pns"}}')

    def test_wrong_types(self):
        with pytest.raises(ScenarioError, match="rounds"):
            parse_scenario_text('{"protocol": "pp_epr", "rounds": "many"}')
        with pytest.raises(ScenarioError, match="log_rounds"):
            parse_scenario_text('{"protocol": "pp_epr", "log_rounds": 1}')
        with pytest.raises(ScenarioError, match="detector_window_nm"):
            parse_scenario_text('{"protocol": "pp_epr", "detector_window_nm": [600]}')

    def test_non_finite_numbers(self):
        with pytest.raises(ScenarioError, match="non-finite"):
            parse_scenario_text('{"protocol": "pp_epr", "control_prob": NaN}')

    def test_constraints_enforced_at_parse_time(self):
        with pytest.raises(ConfigError, match="control_prob"):
            parse_scenario_text('{"protocol": "pp_epr", "control_prob": 1.5}')
        with pytest.raises(ConfigError, match="control_prob"):
            parse_scenario_text('{"protocol": "kkkp", "control_prob": 0.5}')
        with pytest.raises(ValueError, match="passband"):
            parse_scenario_text(
                '{"protocol": "pp_epr", "filter": {"enabled": true, "passband_nm": [900, 600]}}'
            )
        with pytest.raises(ValueError, match="n must be"):
            parse_scenario_text('{"protocol": "kkkp", "attack": {"kind": "kkkp_probe", "n": 0}}')


class TestRoundTrip:
    @pytest.mark.parametrize("text", [MINIMAL, FULL])
    def test_parse_serialize_parse_is_lossless(self, text):
        once = parse_scenario_text(text)
        again = parse_scenario_text(scenario_to_text(once))
        assert again == once

    def test_serialization_is_stable(self):
        sc = parse_scenario_text(FULL)
        assert scenario_to_text(sc) == scenario_to_text(parse_scenario_text(scenario_to_text(sc)))


class TestOverrides:
    def test_seed_and_rounds(self):
        sc = with_overrides(parse_scenario_text(MINIMAL), seed=9, rounds=123)
        assert sc.seed == 9 and sc.rounds == 123

    def test_override_must_still_validate(self):
        with pytest.raises(ConfigError, match="rounds"):
            with_overrides(parse_scenario_text(MINIMAL), rounds=0)

    def test_none_means_keep(self):
        sc = parse_scenario_text(MINIMAL)
        assert with_overrides(sc) == sc


PP_EPR = ProtocolKind.PP_EPR


class TestSelfChecking:
    """``ProtocolConfig``, ``StrategySpec`` and ``Scenario`` check themselves when built."""

    @pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.value)
    def test_every_protocol_builds_and_runs_with_its_defaults(self, kind):
        cfg = ProtocolConfig(kind=kind)
        assert Scenario(protocol=kind).control_prob == cfg.control_prob
        stats, _ = run_session(replace(cfg, rounds=50), StrategySpec(StrategyKind.NO_EVE))
        assert stats.rounds == 50

    @pytest.mark.parametrize("valid, field, value", [
        pytest.param(valid, field, value, id=f"{type(valid).__name__}-{field}")
        for valid, field, value in [
            (ProtocolConfig(PP_EPR), "rounds", 0),
            (ProtocolConfig(PP_EPR), "signal_wavelength_nm", math.nan),
            (ProtocolConfig(PP_EPR), "seed", 1 << 64),
            (ProtocolConfig(PP_EPR), "control_prob", 1.0),
            (StrategySpec(StrategyKind.IPE), "lambda_e_nm", 0.0),
            (StrategySpec(StrategyKind.KKKP_PROBE), "n", 0),
            (StrategySpec(StrategyKind.INTERCEPT_RESEND), "basis", "diagonal"),
            (Scenario(PP_EPR), "rounds", 0),
            (Scenario(PP_EPR), "signal_wavelength_nm", -1.0),
            (Scenario(PP_EPR), "seed", -1),
            (Scenario(ProtocolKind.KKKP), "control_prob", 0.5),
            (Scenario(PP_EPR), "detector_window_nm", (900.0, 600.0)),
            (Scenario(PP_EPR, filter_enabled=True), "filter_passband_nm", (800.0, math.inf)),
            (Scenario(PP_EPR), "attack", StrategySpec(StrategyKind.KKKP_PROBE)),
            (Scenario(PP_EPR, attack=StrategySpec(StrategyKind.IPE)), "protocol", ProtocolKind.PP_DENSE),
        ]
    ])
    def test_replacing_a_field_by_an_out_of_range_value_raises(self, valid, field, value):
        with pytest.raises(ConfigError):
            replace(valid, **{field: value})
