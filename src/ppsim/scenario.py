"""Scenario files: JSON descriptions of one protocol session under attack.

A scenario is a single JSON object; unknown keys anywhere are rejected.
Every key except ``protocol`` has a canonical default, and numeric
constraints are enforced when a scenario is built, so a scenario is
always runnable.  Re-serializing emits every recognized key with its
effective value, making parse -> serialize -> parse lossless.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any

from .adversaries import StrategyKind, StrategySpec, make_strategy
from .optics import (
    DETECTOR_WINDOW_NM,
    EVE_WAVELENGTH_NM,
    SIGNAL_WAVELENGTH_NM,
    ConfigError,
    Detector,
    OpticalFilter,
    default_passband,
)
from .protocols import ProtocolConfig, ProtocolKind


class ScenarioError(ValueError):
    """The scenario text is malformed (syntax, unknown key, wrong type)."""


@dataclass(frozen=True)
class Scenario:
    """One protocol session under one attack.

    It checks itself when built, as its :class:`ProtocolConfig` does, and
    rejects an attack that does not apply to the protocol.  ``control_prob``
    None is the protocol's own value, and reads as that value once built.
    """

    protocol: ProtocolKind
    rounds: int = ProtocolConfig.rounds
    control_prob: float | None = None
    signal_wavelength_nm: float = SIGNAL_WAVELENGTH_NM
    detector_window_nm: tuple[float, float] = DETECTOR_WINDOW_NM
    filter_enabled: bool = False
    filter_passband_nm: tuple[float, float] | None = None
    attack: StrategySpec = StrategySpec(StrategyKind.NO_EVE)
    seed: int = ProtocolConfig.seed
    log_rounds: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "control_prob", self.to_config().control_prob)
        if self.protocol.value not in make_strategy(self.attack).protocols:
            raise ConfigError(f"attack.kind {self.attack.kind.value!r} does not apply to "
                              f"protocol {self.protocol.value!r}")

    def effective_passband(self) -> tuple[float, float]:
        passband = self.filter_passband_nm
        return default_passband(self.signal_wavelength_nm) if passband is None else passband

    def to_config(self) -> ProtocolConfig:
        return ProtocolConfig(
            kind=self.protocol,
            control_prob=self.control_prob,
            signal_wavelength_nm=self.signal_wavelength_nm,
            filter=OpticalFilter(self.effective_passband()) if self.filter_enabled else None,
            detector=Detector(self.detector_window_nm),
            rounds=self.rounds,
            seed=self.seed,
            log_rounds=self.log_rounds,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "protocol": self.protocol.value,
            "rounds": self.rounds,
            "control_prob": self.control_prob,
            "signal_wavelength_nm": self.signal_wavelength_nm,
            "detector_window_nm": list(self.detector_window_nm),
            "filter": {
                "enabled": self.filter_enabled,
                "passband_nm": list(self.effective_passband()),
            },
            "attack": {
                "kind": self.attack.kind.value,
                "lambda_e_nm": self.attack.lambda_e_nm,
                "basis": self.attack.basis,
                "n": self.attack.n,
                "theta_known": self.attack.theta_known,
            },
            "seed": self.seed,
            "log_rounds": self.log_rounds,
        }


def scenario_to_text(sc: Scenario) -> str:
    return json.dumps(sc.to_dict(), indent=2) + "\n"


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _as_bool(obj: dict, key: str, default: bool) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ScenarioError(f"{key} must be a boolean, got {value!r}")
    return value


def _as_int(obj: dict, key: str, default: int) -> int:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    return value


def _to_float(key: str, value: int | float) -> float:
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond float range
        raise ScenarioError(f"{key} is beyond float range") from None


def _as_number(obj: dict, key: str, default: float | None) -> float | None:
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{key} must be a number, got {value!r}")
    return _to_float(key, value)


def _as_interval(obj: dict, key: str, default: tuple[float, float] | None) -> tuple[float, float] | None:
    if key not in obj:
        return default
    value = obj[key]
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ScenarioError(f"{key} must be a [lo, hi] number pair, got {value!r}")
    return (_to_float(key, value[0]), _to_float(key, value[1]))


def _parse_attack(obj: Any) -> StrategySpec:
    if not isinstance(obj, dict):
        raise ScenarioError(f"attack must be an object, got {obj!r}")
    _reject_unknown(obj, {"kind", "lambda_e_nm", "basis", "n", "theta_known"}, "attack")
    kind_name = obj.get("kind", StrategyKind.NO_EVE.value)
    try:
        kind = StrategyKind(kind_name)
    except ValueError:
        names = ", ".join(k.value for k in StrategyKind)
        raise ScenarioError(f"attack.kind must be one of {names}, got {kind_name!r}") from None
    basis = obj.get("basis", "z")
    if isinstance(basis, bool) or not isinstance(basis, (str, int, float)):
        raise ScenarioError(f"attack.basis must be 'z', 'x' or radians, got {basis!r}")
    return StrategySpec(
        kind=kind,
        lambda_e_nm=_as_number(obj, "lambda_e_nm", EVE_WAVELENGTH_NM),
        basis=basis if isinstance(basis, str) else _to_float("attack.basis", basis),
        n=_as_int(obj, "n", 1),
        theta_known=_as_bool(obj, "theta_known", False),
    )


_TOP_KEYS = {
    "protocol", "rounds", "control_prob", "signal_wavelength_nm",
    "detector_window_nm", "filter", "attack", "seed", "log_rounds",
}


def parse_scenario_text(text: str) -> Scenario:
    """Parse a scenario, which checks itself when built.

    Raises :class:`ScenarioError` for malformed text and propagates
    constraint violations from the config layer: the attack's first, then
    the scenario's.
    """
    def _no_constants(name: str) -> float:
        raise ScenarioError(f"non-finite number {name} not allowed")

    try:
        obj = json.loads(text, parse_constant=_no_constants)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ScenarioError(f"scenario must be a JSON object, got {type(obj).__name__}")
    _reject_unknown(obj, _TOP_KEYS, "scenario")

    if "protocol" not in obj:
        raise ScenarioError("scenario is missing the required key 'protocol'")
    try:
        protocol = ProtocolKind(obj["protocol"])
    except ValueError:
        names = ", ".join(k.value for k in ProtocolKind)
        raise ScenarioError(f"protocol must be one of {names}, got {obj['protocol']!r}") from None

    filt = obj.get("filter", {})
    if not isinstance(filt, dict):
        raise ScenarioError(f"filter must be an object, got {filt!r}")
    _reject_unknown(filt, {"enabled", "passband_nm"}, "filter")

    signal = _as_number(obj, "signal_wavelength_nm", SIGNAL_WAVELENGTH_NM)
    return Scenario(
        protocol=protocol,
        rounds=_as_int(obj, "rounds", Scenario.rounds),
        control_prob=_as_number(obj, "control_prob", None),
        signal_wavelength_nm=signal,
        detector_window_nm=_as_interval(obj, "detector_window_nm", DETECTOR_WINDOW_NM),
        filter_enabled=_as_bool(filt, "enabled", False),
        filter_passband_nm=_as_interval(filt, "passband_nm", default_passband(signal)),
        seed=_as_int(obj, "seed", Scenario.seed),
        log_rounds=_as_bool(obj, "log_rounds", False),
        attack=_parse_attack(obj.get("attack", {})),  # last: every type error comes first
    )


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())


def with_overrides(sc: Scenario, seed: int | None = None, rounds: int | None = None) -> Scenario:
    return replace(sc, **{name: value for name, value in (("seed", seed), ("rounds", rounds))
                          if value is not None})
