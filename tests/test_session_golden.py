"""Pins a 300-round logged session of every accepted (protocol, attack) pair.

Each entry holds ``repr`` of the session's ``RunStats`` and the sha256 of
``repr`` of its round log, with the filter off and on.  ``kkkp`` under
``ipe`` and ``intercept_resend`` runs round by round, the ping-pong
pairs run in blocks after round 0, and the two in-band (800 nm) probes
put two visible photons into control rounds.

Regenerate with ``PYTHONPATH=src python tests/test_session_golden.py``
only for a declared change of results.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ppsim.adversaries import StrategyKind, StrategySpec, make_strategy
from ppsim.harness import run_session
from ppsim.optics import default_filter
from ppsim.protocols import ProtocolConfig, ProtocolKind

GOLDEN = Path(__file__).parent / "golden" / "sessions_seed5_rounds300.json"


def _cases() -> dict[str, tuple[ProtocolKind, StrategySpec]]:
    cases = {}
    for kind in ProtocolKind:
        for attack in StrategyKind:
            spec = StrategySpec(attack)
            if kind.value in type(make_strategy(spec)).protocols:
                cases[f"{kind.value}/{attack.value}"] = kind, spec
    for kind in (ProtocolKind.PP_EPR, ProtocolKind.PP_SINGLE):
        cases[f"{kind.value}/ipe@800nm"] = kind, StrategySpec(StrategyKind.IPE, lambda_e_nm=800.0)
    return cases


CASES = _cases()
KEYS = [f"{name}/{filt}" for name in CASES for filt in ("off", "on")]


def _entry(key: str) -> dict[str, str]:
    name, filt = key.rsplit("/", 1)
    kind, spec = CASES[name]
    cfg = ProtocolConfig(kind=kind, filter=default_filter() if filt == "on" else None,
                         rounds=300, seed=5, log_rounds=True)
    stats, log = run_session(cfg, spec)
    return {"stats": repr(stats), "log_sha256": hashlib.sha256(repr(log).encode()).hexdigest()}


def test_every_accepted_pair_is_pinned():
    assert len(CASES) == 13 + 2
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_session_matches_golden(key):
    assert _entry(key) == json.loads(GOLDEN.read_text(encoding="utf-8"))[key]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({key: _entry(key) for key in KEYS}, indent=1) + "\n", encoding="utf-8")
