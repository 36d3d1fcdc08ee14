"""Record one checkout's speed figures into a BENCH_<n>.json trajectory file.

Usage, from the root of a ppsim checkout:

    python3 tools/bench_record.py --root . --label change --out BENCH_6.json
    python3 tools/bench_record.py --root ../parent --label parent --commit <sha> --out BENCH_6.json

Each call measures the checkout at ``--root`` and stores its figures
under ``--label`` in ``--out``, keeping the labels already there, so one
file holds the parent and the change side by side.  The figures:

* microseconds per round of every ``ppsim compare`` cell, of
  ``kkkp_probe`` at n = 1, 4 and 16, and of two sessions that keep
  their round log (``log_rounds``): ``pp_dense`` under ``ipe_dense``
  and ``kkkp`` under ``kkkp_probe`` at n = 4 (10^4 rounds, seed 42,
  best of five, measured in a fresh interpreter that imports
  ``<root>/src``);
* the in-process wall time of ``ppsim compare`` at its defaults (median
  of five);
* the Tier-1 suite's wall time and test_6's ``--durations`` figure;
* the line count of ``<root>/src``;
* provenance: the commit, and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

ROUNDS = 10_000
SEED = 42
REPEATS = 5
TEST_6 = "test_6_blind_rotation_blindness"


def _best_us_per_round(run) -> float:
    best = min(_timed(run) for _ in range(REPEATS))
    return round(best * 1e6 / ROUNDS, 3)


def _timed(call) -> float:
    start = perf_counter()
    call()
    return perf_counter() - start


def measure() -> dict:
    """The speed figures of the ppsim on sys.path, measured in this process."""
    import numpy as np
    import ppsim.cli
    from ppsim import ProtocolConfig, ProtocolKind, StrategyKind, StrategySpec, run_session

    cells = {}
    for kind in ProtocolKind:
        for name, spec in ppsim.cli._compare_attacks(kind):
            for filter_on in (False, True):
                sc = ppsim.Scenario(protocol=kind, control_prob=0.0 if kind is ProtocolKind.KKKP else 0.5,
                                    rounds=ROUNDS, seed=SEED, attack=spec, filter_enabled=filter_on)
                cfg = sc.to_config()
                label = f"{kind.value}/{name}" + ("/filter" if filter_on else "")
                cells[label] = _best_us_per_round(lambda: run_session(cfg, spec))
    for n in (1, 4, 16):
        cfg = ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.0, rounds=ROUNDS, seed=SEED)
        spec = StrategySpec(StrategyKind.KKKP_PROBE, n=n)
        cells[f"kkkp/kkkp_probe_n{n}"] = _best_us_per_round(lambda: run_session(cfg, spec))
    for kind, spec, control_prob in (
            (ProtocolKind.PP_DENSE, StrategySpec(StrategyKind.IPE_DENSE), 0.5),
            (ProtocolKind.KKKP, StrategySpec(StrategyKind.KKKP_PROBE, n=4), 0.0)):
        cfg = ProtocolConfig(kind=kind, control_prob=control_prob, rounds=ROUNDS, seed=SEED,
                             log_rounds=True)
        label = f"logged/{kind.value}/{spec.kind.value}" + ("_n4" if kind is ProtocolKind.KKKP else "")
        cells[label] = _best_us_per_round(lambda: run_session(cfg, spec))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "matrix.csv")
        compare = [_timed(lambda: ppsim.cli.main(["compare", "-o", out])) for _ in range(REPEATS)]
    return {
        "us_per_round": cells,
        "compare_wall_s": round(median(compare), 4),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def tier1(root: Path) -> dict:
    """Wall time of the Tier-1 suite and test_6's duration, from pytest's own report."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0",
         "--continue-on-collection-errors"],
        cwd=root, env=env, capture_output=True, text=True)
    wall = perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1]
    test_6 = re.search(rf"([\d.]+)s call\s+\S*{TEST_6}", proc.stdout)
    return {
        "tier1_wall_s": round(wall, 2),
        "tier1_summary": summary,
        "test_6_call_s": float(test_6.group(1)) if test_6 else None,
    }


def src_lines(root: Path) -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((root / "src").rglob("*.py")))


def commit_of(root: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src", "tests"],
                           capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + (" + uncommitted changes" if dirty else "")


def record(root: Path, commit: str | None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, __file__, "--measure"], env=env,
                          capture_output=True, text=True, check=True)
    figures = json.loads(proc.stdout)
    figures.update(tier1(root))
    figures["src_lines"] = src_lines(root)
    figures["commit"] = commit or commit_of(root)
    figures["cpus"] = os.cpu_count()
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--root", default=".", help="the ppsim checkout to measure")
    parser.add_argument("--label", help="key of this checkout's figures, e.g. parent or change")
    parser.add_argument("--commit", default=None, help="commit to record when --root is no git work tree")
    parser.add_argument("--out", help="the BENCH_<n>.json file to update")
    args = parser.parse_args(argv)
    if args.measure:
        json.dump(measure(), sys.stdout)
        return 0
    if not args.label or not args.out:
        parser.error("--label and --out are required")
    out = Path(args.out)
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    data.setdefault("rounds", ROUNDS)
    data.setdefault("seed", SEED)
    data.setdefault("runs", {})[args.label] = record(Path(args.root).resolve(), args.commit)
    out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
