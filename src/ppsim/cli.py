"""Command-line front end: run one scenario, sweep a field, or emit the
protocol x attack comparison matrix.

Exit codes: 0 ok, 1 internal error, 2 scenario parse failure,
3 constraint violation, 4 unknown sweep field, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .adversaries import StrategyKind, StrategySpec
from .harness import RunStats, run_session
from .optics import EVE_WAVELENGTH_NM
from .protocols import ConfigError, ProtocolKind
from .scenario import (
    DEFAULT_ROUNDS,
    DEFAULT_SEED,
    Scenario,
    ScenarioError,
    default_control_prob,
    load_scenario,
    with_overrides,
)

SWEEP_FIELDS = ("passband_half_width_nm", "lambda_e_nm", "control_prob", "n")

SWEEP_HEADER = "value,qber,control_failure_rate,eve_accuracy,eve_mi_bits,anomaly_count,absorbed_total"

COMPARE_HEADER = (
    "protocol,attack,filter,rounds,message_rounds,control_rounds_evaluated,"
    "qber,control_failure_rate,anomaly_count,absorbed_total,"
    "eve_accuracy,eve_mi_bits,blind_rounds,seed"
)

# Wavelengths so small that no photon carries them; used to floor a
# passband whose swept half-width would push the lower edge below zero.
_MIN_WAVELENGTH_NM = 1e-9


class SweepFieldError(ValueError):
    """The requested sweep field is not sweepable."""


def _columns(stats: RunStats) -> dict[str, str]:
    """Every statistic's printed text, keyed by its CSV column, in the order of RunStats.

    A count prints as an integer, a rate with nine decimals, and an
    absent value as an empty string.
    """
    return {
        "eve_mi_bits" if name == "eve_mutual_info_bits" else name:
            "" if value is None else f"{value:.9f}" if isinstance(value, float) else str(value)
        for name, value in vars(stats).items()
    }


def _row(lead: list[str], header: str, stats: RunStats) -> str:
    """A CSV row: the ``lead`` fields, then the statistics ``header`` names after them."""
    columns = _columns(stats)
    return ",".join(lead + [columns[key] for key in header.split(",")[len(lead):]])


def format_run_report(stats: RunStats) -> str:
    """A ``field=value`` line per statistic present, named as in RunStats."""
    return "".join(f"{field.name}={text}\n"
                   for field, text in zip(fields(RunStats), _columns(stats).values()) if text)


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_run(scenario_path: str, output: str | None,
            seed: int | None = None, rounds: int | None = None) -> int:
    sc = with_overrides(load_scenario(scenario_path), seed=seed, rounds=rounds)
    stats, _ = run_session(sc.to_config(), sc.attack)
    _write_output(output, format_run_report(stats))
    return 0


def _apply_sweep_value(sc: Scenario, field: str, token: str) -> Scenario:
    try:
        value = int(token) if field == "n" else float(token)
    except ValueError:
        raise ScenarioError(f"sweep value {token!r} is not a valid number for {field}") from None
    if field == "passband_half_width_nm":
        if value <= 0:
            raise ConfigError(f"passband_half_width_nm must be positive, got {value}")
        center = sc.signal_wavelength_nm
        lo = max(center - value, _MIN_WAVELENGTH_NM)
        return replace(sc, filter_enabled=True, filter_passband_nm=(lo, center + value))
    if field == "lambda_e_nm":
        if sc.attack.kind not in (StrategyKind.IPE, StrategyKind.IPE_DENSE, StrategyKind.KKKP_PROBE):
            raise ConfigError(f"attack kind {sc.attack.kind.value!r} has no probe wavelength to sweep")
        return replace(sc, attack=replace(sc.attack, lambda_e_nm=value))
    if field == "control_prob":
        return replace(sc, control_prob=value)
    # "n": cmd_sweep rejects any other field before it loads the scenario.
    if sc.attack.kind is not StrategyKind.KKKP_PROBE:
        raise ConfigError(f"attack kind {sc.attack.kind.value!r} has no probe count to sweep")
    return replace(sc, attack=replace(sc.attack, n=value))


def cmd_sweep(scenario_path: str, field: str, values: str, output: str | None,
              seed: int | None = None, rounds: int | None = None) -> int:
    if field not in SWEEP_FIELDS:
        raise SweepFieldError(f"unknown sweep field {field!r}; expected one of {', '.join(SWEEP_FIELDS)}")
    tokens = [t.strip() for t in values.split(",")]
    if not any(tokens):
        raise ScenarioError(f"--values gives no value to sweep {field} over")
    if not all(tokens):
        raise ScenarioError(f"--values {values!r} lists an empty value")
    base = with_overrides(load_scenario(scenario_path), seed=seed, rounds=rounds)
    lines = [SWEEP_HEADER]
    shared: dict = {}
    for token in tokens:
        sc = _apply_sweep_value(base, field, token)
        sc.validate()
        stats, _ = run_session(sc.to_config(), sc.attack, shared=shared)
        lines.append(_row([token], SWEEP_HEADER, stats))
    _write_output(output, "\n".join(lines) + "\n")
    return 0


def _compare_attacks(kind: ProtocolKind) -> list[tuple[str, StrategySpec]]:
    no_eve = ("no_eve", StrategySpec(StrategyKind.NO_EVE))
    intercept = ("intercept_resend_z", StrategySpec(StrategyKind.INTERCEPT_RESEND, basis="z"))
    if kind is ProtocolKind.PP_DENSE:
        return [no_eve, ("ipe_dense", StrategySpec(StrategyKind.IPE_DENSE, EVE_WAVELENGTH_NM)), intercept]
    if kind is ProtocolKind.KKKP:
        return [no_eve, ("kkkp_probe_n4", StrategySpec(StrategyKind.KKKP_PROBE, EVE_WAVELENGTH_NM, n=4))]
    return [no_eve, ("ipe", StrategySpec(StrategyKind.IPE, EVE_WAVELENGTH_NM)), intercept]


def cmd_compare(output: str | None, seed: int | None = None, rounds: int | None = None) -> int:
    lines = [COMPARE_HEADER]
    shared: dict = {}
    for kind in ProtocolKind:
        base = Scenario(
            protocol=kind,
            control_prob=default_control_prob(kind),
            rounds=rounds if rounds is not None else DEFAULT_ROUNDS,
            seed=seed if seed is not None else DEFAULT_SEED,
        )
        for attack_name, attack in _compare_attacks(kind):
            for filter_on in (False, True):
                sc = replace(base, attack=attack, filter_enabled=filter_on)
                sc.validate()
                stats, _ = run_session(sc.to_config(), sc.attack, shared=shared)
                lines.append(_row([kind.value, attack_name, "on" if filter_on else "off"],
                                  COMPARE_HEADER, stats))
    _write_output(output, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppsim",
        description="Monte Carlo security analysis of two-way quantum communication protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and report its statistics")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("-o", "--output", default=None, help="report file (default: stdout)")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--rounds", type=int, default=None, help="override the round count")

    sweep_p = sub.add_parser("sweep", help="run a scenario once per value of one field")
    sweep_p.add_argument("scenario", help="path to a scenario JSON file")
    sweep_p.add_argument("--field", required=True, help=f"one of {', '.join(SWEEP_FIELDS)}")
    sweep_p.add_argument("--values", required=True, help="comma-separated values, swept in order")
    sweep_p.add_argument("-o", "--output", default=None, help="CSV file (default: stdout)")
    sweep_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sweep_p.add_argument("--rounds", type=int, default=None, help="override the round count")

    cmp_p = sub.add_parser("compare", help="emit the canonical protocol x attack x filter matrix")
    cmp_p.add_argument("-o", "--output", default=None, help="CSV file (default: stdout)")
    cmp_p.add_argument("--seed", type=int, default=None, help="override the canonical seed")
    cmp_p.add_argument("--rounds", type=int, default=None, help="override the canonical round count")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.scenario, args.output, args.seed, args.rounds)
        if args.command == "sweep":
            return cmd_sweep(args.scenario, args.field, args.values, args.output,
                             args.seed, args.rounds)
        return cmd_compare(args.output, args.seed, args.rounds)
    except ScenarioError as e:
        print(f"ppsim: scenario error: {e}", file=sys.stderr)
        return 2
    except SweepFieldError as e:
        print(f"ppsim: sweep error: {e}", file=sys.stderr)
        return 4
    except ConfigError as e:
        print(f"ppsim: constraint violation: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"ppsim: i/o error: {e}", file=sys.stderr)
        return 5
    except Exception as e:
        print(f"ppsim: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
