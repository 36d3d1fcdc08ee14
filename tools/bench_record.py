"""Record one checkout's speed figures into a BENCH_<n>.json trajectory file.

Usage, from the root of a ppsim checkout:

    python3 tools/bench_record.py --root . --label change --out BENCH_6.json
    python3 tools/bench_record.py --root ../parent --label parent --commit <sha> --out BENCH_6.json
    python3 tools/bench_record.py --root . --label change --ab ../parent --out BENCH_6.json

Each call measures the checkout at ``--root`` and stores its figures
under ``--label`` in ``--out``, keeping the labels already there, so one
file holds the parent and the change side by side.  The figures:

* microseconds per round of every ``ppsim compare`` cell, of
  ``kkkp_probe`` at n = 1, 4 and 16, and of two sessions that keep
  their round log (``log_rounds``): ``pp_dense`` under ``ipe_dense``
  and ``kkkp`` under ``kkkp_probe`` at n = 4 (10^4 rounds, seed 42,
  best of five);
* the Philox passes, the sessions computed and the rows printed of
  whole command-line runs, from one fresh run each, on one seed each
  (:data:`COMMANDS`): ``ppsim compare`` at its defaults (10^4 rounds)
  and at 10^5 rounds, and ``ppsim sweep`` over five values on a
  ``pp_epr``/``ipe`` scenario at 10^4 and 10^5 rounds and on a
  ``kkkp_probe`` n = 1 one at 10^4 rounds.  These counts are
  deterministic; the commands' wall times come from ``--ab`` alone.
  The 10^5-round runs are those whose sessions outgrow the budget of
  kept words.  A session is computed when it asks
  ``harness.block_form`` for its engine, which a session that repeats
  an earlier one of its command does not do;
* a warm in-process split of ``ppsim compare --seed 1 --rounds 2000``
  (:data:`SPLIT_ARGS`): the time in ``harness.block_form`` (building the
  ping-pong trees and the ``kkkp`` set-up), in ``harness._philox_words``,
  in ``protocols.BranchBlocks.run`` (finding each ping-pong round's
  leaf), in ``harness.session_stats`` (each session's statistics from
  its count table) and the rest.  Each of :data:`SPLIT_INTERPRETERS` fresh
  interpreters runs one untimed pass and then :data:`SPLIT_PASSES` timed
  ones, and keeps the best of each part; the figures are the medians over the interpreters.  A warm pass reads
  the words the untimed pass kept, so its Philox part is 0 where
  sessions share words;
* the same warm split of a logged ``pp_dense`` session under
  ``ipe_dense`` (:data:`DENSE_SPLIT_ROUNDS` rounds, seed 1), the
  configuration of the benchmark's ``dense_logged_workers``: the time in
  ``harness.block_form``, in ``protocols.BranchBlocks.run``, in the
  count step as above and the rest (the leaf counts and the log); its words stay kept from the untimed pass;
* the same warm split of ``kkkp`` sessions under ``kkkp_probe`` at
  n = 1, 4 and 16 (:data:`KKKP_SPLIT_ROUNDS` rounds, seed 1), each
  pass starting with no kept words: the time in
  ``harness._philox_words``, in ``protocols.KkkpBlocks.run`` and, within
  it, in ``quantum.cos_sin``, and the rest.  ``cos_sin`` is reported
  beside ``kkkp_blocks_run``, whose figure includes it, and the rest
  excludes it once;
* the tree of every ping-pong ``ppsim compare`` cell as its session
  builds it, before any row runs: the runs of ``protocols._round`` that
  build it, its leaves, the axes and the size of its key table and the
  words a round reads; and
  under ``tree_totals``, the runs and leaves summed over those cells
  (``cells``) and over the trees one ``ppsim compare`` of
  :data:`SPLIT_ARGS` builds (``compare``, where sessions that repeat an
  earlier one build none), beside that command's other runs of
  ``protocols._round`` (round 0 of each blocked session and every round of
  a round-by-round one);
* the Tier-1 suite's wall time and test_6's ``--durations`` figure;
* the line count of ``<root>/src``, in total and by module;
* provenance: the commit, the Python and numpy versions, and the CPU
  target numpy dispatches its float64 ``cos`` loop to (None where numpy
  does not say), the kernel behind the block engine's cosines and sines.

Sessions on the same seed share a block's Philox words, so no timed call
may follow another on its seed in the same interpreter: every sample,
of a cell and of a command, runs in a fresh interpreter that imports
``<root>/src``.  There, a cell's session is timed after one untimed
session of the same cell on seed 43, which loads and warms the code but
leaves no words the timed session can share; a command runs as the
interpreter's first call, as a command-line run does.  A command's
Philox passes are the calls of ``harness._philox_words``.

Fresh interpreters, one checkout after the other, cannot resolve
differences of 10-30 % on a VM whose speed swings by 1.6x over seconds.
``--ab OTHER_ROOT`` instead imports both checkouts' ``src/ppsim`` into
one interpreter, as the packages ``ppsim_this`` and ``ppsim_other``, and
alternates their calls (:data:`AB_CALLS`), :data:`AB_SAMPLES` samples of
each call per checkout, the first of each pair swapping from one pair to
the next.  They include every command of :data:`COMMANDS`, so every
command wall a BENCH file holds is alternated.  Every sample is warm, as
a perfbench pass is: a session reads the words its checkout kept from
the samples before, except in the 10^5-round commands, whose sessions
outgrow the budget of kept words, in ``kkkp_pass``, whose four sessions
are on four seeds and so compute their words in every sample, as in a
perfbench ``kkkp_probe`` pass, and in ``philox_pass``, which times the
Philox passes themselves.  The one cold call is ``compare_process``, a
whole ``ppsim compare`` process (:data:`PROCESS_ARGS`) timed from start
to exit, which pays the interpreter's start and every import,
``numpy.random`` among them where the checkout imports it.  It records
the median of each call per checkout, and how many pairs each checkout
won, under ``ab`` in ``--out``, keyed by ``--label``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from statistics import median
from time import perf_counter

ROUNDS = 10_000
SEED = 42
WARM_UP_SEED = 43
REPEATS = 5
TEST_6 = "test_6_blind_rotation_blindness"
GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
SWEEP_PP = ["sweep", str(GOLDEN / "readme_ipe_seed42.json"), "--field", "passband_half_width_nm",
            "--values", "0.005,0.05,0.5,5,50"]
SWEEP_KKKP = ["sweep", str(GOLDEN / "kkkp_probe_seed7.json"), "--rounds", "10000", "--field", "lambda_e_nm",
              "--values", "150000,170000,190000,210000,230000"]
# The split runs, passes per interpreter, and interpreters per checkout.
SPLIT_ARGS = ["compare", "--seed", "1", "--rounds", "2000"]
KKKP_SPLIT_ROUNDS = 2000
DENSE_SPLIT_ROUNDS = 5000
SPLIT_PASSES = 15
SPLIT_INTERPRETERS = 5
# Samples per call and checkout of ``--ab``, and its calls: the logged
# ``pp_dense``/``ipe_dense`` session pair of the benchmark's
# ``dense_logged_workers`` (at 2 workers, then 1), a ``compare`` pass of
# :data:`SPLIT_ARGS`, the tree builds of the ping-pong compare cells, a
# fresh ``ppsim compare`` process on :data:`PROCESS_ARGS`, each command of
# :data:`COMMANDS` under its name, the four ``kkkp_probe`` sessions
# of the benchmark's ``kkkp_probe`` workload (:data:`KKKP_PASS`), each on
# its own seed, so that every session computes its words, as the kept
# words are those of the latest seed, and one Philox pass at each of
# :data:`PHILOX_PASSES`.
AB_SAMPLES = 60
# (n, theta_known, seed) of each kkkp_probe session, at KKKP_SPLIT_ROUNDS rounds.
KKKP_PASS = ((1, False, 1), (4, False, 2), (16, False, 3), (1, True, 4))
# (rows, blocks) of each Philox pass: a block of 4, 8 and 20 words a round.
PHILOX_PASSES = ((2048, 1), (2000, 2), (2000, 5))
PROCESS_ARGS = ["compare", "--rounds", "2000"]
# The command-line runs, by name: the arguments after ``ppsim``.
COMMANDS = {
    "compare": ["compare"],
    "compare_rounds1e5": ["compare", "--rounds", "100000"],
    "sweep_pp_epr_ipe": SWEEP_PP,
    "sweep_pp_epr_ipe_rounds1e5": SWEEP_PP + ["--rounds", "100000"],
    "sweep_kkkp_probe_n1": SWEEP_KKKP,
}
AB_CALLS = ("dense_pair", "compare_pass", "tree_builds", "compare_process", *COMMANDS, "kkkp_pass", "philox_pass")


def _timed(call) -> float:
    start = perf_counter()
    call()
    return perf_counter() - start


def _sessions(ppsim=None) -> dict:
    """Every timed session of ``ppsim``, by default the one on sys.path, by label: (ProtocolConfig, StrategySpec)."""
    if ppsim is None:
        import ppsim
    importlib.import_module(ppsim.__name__ + ".cli")
    ProtocolConfig, ProtocolKind, StrategyKind, StrategySpec = (
        ppsim.ProtocolConfig, ppsim.ProtocolKind, ppsim.StrategyKind, ppsim.StrategySpec)
    sessions = {}
    for kind in ProtocolKind:
        for name, spec in ppsim.cli._compare_attacks(kind):
            for filter_on in (False, True):
                sc = ppsim.Scenario(protocol=kind, control_prob=0.0 if kind is ProtocolKind.KKKP else 0.5,
                                    rounds=ROUNDS, seed=SEED, attack=spec, filter_enabled=filter_on)
                label = f"{kind.value}/{name}" + ("/filter" if filter_on else "")
                sessions[label] = (sc.to_config(), spec)
    for n in (1, 4, 16):
        cfg = ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.0, rounds=ROUNDS, seed=SEED)
        sessions[f"kkkp/kkkp_probe_n{n}"] = (cfg, StrategySpec(StrategyKind.KKKP_PROBE, n=n))
    for kind, spec, control_prob in (
            (ProtocolKind.PP_DENSE, StrategySpec(StrategyKind.IPE_DENSE), 0.5),
            (ProtocolKind.KKKP, StrategySpec(StrategyKind.KKKP_PROBE, n=4), 0.0)):
        cfg = ProtocolConfig(kind=kind, control_prob=control_prob, rounds=ROUNDS, seed=SEED,
                             log_rounds=True)
        label = f"logged/{kind.value}/{spec.kind.value}" + ("_n4" if kind is ProtocolKind.KKKP else "")
        sessions[label] = (cfg, spec)
    return sessions


def _best_split(parts: dict, run_pass, nested: tuple[str, ...] = ()) -> dict:
    """Best of :data:`SPLIT_PASSES` warm calls of ``run_pass``, in seconds per part.

    ``parts`` maps a part's name to the (owner, attribute) of the
    function whose calls it times; the rest and the total come beside
    them.  A part named in ``nested`` runs only inside another part, so
    its time is in that part's figure too and is not subtracted from the
    rest.  The functions are restored afterwards.
    """
    spent = dict.fromkeys(parts, 0.0)
    saved = {part: getattr(owner, name) for part, (owner, name) in parts.items()}
    for part, (owner, name) in parts.items():
        def timed(*args, inner=saved[part], part=part, **kwargs):
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                spent[part] += perf_counter() - start

        setattr(owner, name, timed)
    best = {}
    try:
        for timed_pass in range(SPLIT_PASSES + 1):  # pass 0 warms up
            spent.update(dict.fromkeys(spent, 0.0))
            total = _timed(run_pass)
            outer = sum(value for part, value in spent.items() if part not in nested)
            split = dict(spent, rest=total - outer, total=total)
            if timed_pass:
                best = {part: min(value, best.get(part, value)) for part, value in split.items()}
    finally:
        for part, (owner, name) in parts.items():
            setattr(owner, name, saved[part])
    return best


def _split_here() -> dict:
    """The split of :data:`SPLIT_ARGS` passes, in seconds per part."""
    import ppsim.cli
    from ppsim import harness, protocols

    parts = {"block_form": (harness, "block_form"), "philox_words": (harness, "_philox_words"),
             "branch_blocks_run": (protocols.BranchBlocks, "run"), "session_stats": (harness, "session_stats")}
    with tempfile.TemporaryDirectory() as tmp:
        argv = SPLIT_ARGS + ["-o", os.path.join(tmp, "out.csv")]
        return _best_split(parts, lambda: ppsim.cli.main(argv))


def _kkkp_split_here() -> dict:
    """The split of :data:`KKKP_SPLIT_ROUNDS`-round ``kkkp_probe`` sessions, in seconds per part, by n.

    Every pass starts with no kept words, so that it runs its Philox passes.
    """
    from ppsim import ProtocolConfig, ProtocolKind, StrategyKind, StrategySpec, harness, protocols, quantum

    parts = {"philox_words": (harness, "_philox_words"), "kkkp_blocks_run": (protocols.KkkpBlocks, "run"),
             "cos_sin": (quantum, "cos_sin")}
    cfg = ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.0, rounds=KKKP_SPLIT_ROUNDS, seed=1)
    kept = getattr(harness, "_words", {})

    def run_pass(spec):
        kept.clear()
        harness.run_session(cfg, spec)

    return {f"n{n}": _best_split(parts, lambda: run_pass(StrategySpec(StrategyKind.KKKP_PROBE, n=n)),
                                 nested=("cos_sin",))
            for n in (1, 4, 16)}


def _dense_split_here() -> dict:
    """The split of logged :data:`DENSE_SPLIT_ROUNDS`-round ``pp_dense``/``ipe_dense`` sessions, in seconds per part."""
    from ppsim import ProtocolConfig, ProtocolKind, StrategyKind, StrategySpec, harness, protocols

    parts = {"block_form": (harness, "block_form"), "branch_blocks_run": (protocols.BranchBlocks, "run"),
             "session_stats": (harness, "session_stats")}
    cfg = ProtocolConfig(kind=ProtocolKind.PP_DENSE, rounds=DENSE_SPLIT_ROUNDS, seed=1, log_rounds=True)
    spec = StrategySpec(StrategyKind.IPE_DENSE)
    return _best_split(parts, lambda: harness.run_session(cfg, spec))


def _leaves(tree) -> int:
    return sum(rec is not None for rec in tree.table)


def _trees_here() -> dict:
    """Per ping-pong compare cell, the tree ``block_form`` builds: its round runs, leaves, axes, keys
    and words; and their totals, over the cells and over one ``ppsim compare``."""
    import ppsim.cli
    from ppsim import harness, protocols
    from ppsim.adversaries import make_strategy

    runs = []
    build, engine = protocols._round, harness.block_form

    def counted(*args):
        runs.append(isinstance(args[2], protocols._BranchDraws))
        return build(*args)

    protocols._round = counted
    trees = {}
    for label, (cfg, spec) in _sessions().items():
        runs.clear()
        tree = protocols.block_form(cfg, make_strategy(spec))
        if isinstance(tree, protocols.BranchBlocks) and not label.startswith("logged/"):
            trees[label] = {"round_runs": len(runs), "leaves": _leaves(tree), "axes": len(tree.cuts) + len(tree.fields),
                            "keys": len(tree.keys), "words": tree.words}
    built = []
    harness.block_form = lambda *args: built.append(engine(*args)) or built[-1]
    runs.clear()
    with tempfile.TemporaryDirectory() as tmp:
        ppsim.cli.main(SPLIT_ARGS + ["-o", os.path.join(tmp, "out.csv")])
    protocols._round, harness.block_form = build, engine
    built = [tree for tree in built if isinstance(tree, protocols.BranchBlocks)]
    totals = {"cells": {"round_runs": sum(tree["round_runs"] for tree in trees.values()),
                        "leaves": sum(tree["leaves"] for tree in trees.values())},
              "compare": {"trees": len(built), "round_runs": sum(runs), "leaves": sum(map(_leaves, built)),
                          "other_round_runs": runs.count(False)}}
    return {"trees": trees, "tree_totals": totals}


def _cos_dispatch() -> str | None:
    """The CPU target of numpy's float64 ``cos`` loop, or None where numpy does not report it."""
    try:
        from numpy._core._multiarray_umath import __cpu_targets_info__
        return __cpu_targets_info__["cos"]["dd"]["current"]
    except (ImportError, KeyError):
        return None


def measure_here(what: str):
    """One sample, from the ppsim on sys.path.

    ``what`` is ``info``, ``split``, a command's name or a session label.
    """
    import numpy as np
    import ppsim.cli
    from ppsim import harness

    if what == "info":
        return {"python": platform.python_version(), "numpy": np.__version__,
                "numpy_cos_dispatch": _cos_dispatch(), "labels": list(_sessions())}
    if what == "split":
        return _split_here()
    if what == "kkkp_split":
        return _kkkp_split_here()
    if what == "dense_split":
        return _dense_split_here()
    if what == "trees":
        return _trees_here()
    if what in COMMANDS:
        compute, passes = harness._philox_words, []
        engine, sessions = harness.block_form, []

        def counted(*args):
            passes.append(args)
            return compute(*args)

        def asked(*args):
            sessions.append(None)
            return engine(*args)

        harness._philox_words = counted
        harness.block_form = asked
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.csv")
            ppsim.cli.main(COMMANDS[what] + ["-o", out])
            with open(out, encoding="utf-8") as fh:
                rows = len(fh.read().splitlines()) - 1  # after the header
        return {"philox_passes": len(passes), "sessions_computed": len(sessions), "rows": rows}
    cfg, spec = _sessions()[what]
    ppsim.run_session(replace(cfg, seed=WARM_UP_SEED), spec)
    return _timed(lambda: ppsim.run_session(cfg, spec))


def _fresh(root: Path, what: str):
    """``measure_here(what)`` in a new interpreter that imports ``<root>/src``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, __file__, "--measure", what], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _median_ms(samples: list[dict]) -> dict:
    """Each part's median over the interpreters' splits, in milliseconds."""
    return {part: round(median(sample[part] for sample in samples) * 1e3, 3) for part in samples[0]}


def measure(root: Path) -> dict:
    """The speed figures of the checkout at ``root``, one fresh interpreter per sample."""
    info = _fresh(root, "info")
    cells = {label: round(min(_fresh(root, label) for _ in range(REPEATS)) * 1e6 / ROUNDS, 3)
             for label in info.pop("labels")}
    commands = {name: _fresh(root, name) for name in COMMANDS}
    splits = {what: [_fresh(root, what) for _ in range(SPLIT_INTERPRETERS)]
              for what in ("split", "kkkp_split", "dense_split")}
    kkkp_split = {n: _median_ms([sample[n] for sample in splits["kkkp_split"]]) for n in splits["kkkp_split"][0]}
    return {"us_per_round": cells, "commands": commands, "compare_split_ms": _median_ms(splits["split"]),
            "kkkp_split_ms": kkkp_split, "dense_split_ms": _median_ms(splits["dense_split"]),
            **_fresh(root, "trees"), **info}


def _load(root: Path, name: str):
    """The ppsim of ``<root>/src`` imported as the package ``name``; its modules import each other relatively."""
    package = root / "src" / "ppsim"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _ab_calls(ppsim, root: Path, out_dir: str) -> dict:
    """The calls of :data:`AB_CALLS`, run by ``ppsim``, a package :func:`_load` imported from ``root``."""
    cli, harness, protocols, adversaries = (importlib.import_module(f"{ppsim.__name__}.{module}")
                                            for module in ("cli", "harness", "protocols", "adversaries"))
    dense = ppsim.ProtocolConfig(kind=ppsim.ProtocolKind.PP_DENSE, rounds=DENSE_SPLIT_ROUNDS, seed=1,
                                 log_rounds=True)
    dense_spec = ppsim.StrategySpec(ppsim.StrategyKind.IPE_DENSE)
    argv = SPLIT_ARGS + ["-o", os.path.join(out_dir, ppsim.__name__ + ".csv")]
    trees = [(cfg, adversaries.make_strategy(spec)) for label, (cfg, spec) in _sessions(ppsim).items()
             if cfg.kind is not ppsim.ProtocolKind.KKKP and not label.startswith("logged/")]

    def dense_pair():
        for workers in (2, 1):
            harness.run_session(dense, dense_spec, workers=workers)

    def tree_builds():
        for cfg, adv in trees:
            protocols.block_form(cfg, adv)

    commands = {name: (lambda args=args + ["-o", os.path.join(out_dir, f"{ppsim.__name__}_{name}.csv")]:
                       cli.main(args))
                for name, args in COMMANDS.items()}
    kkkp = [(ppsim.ProtocolConfig(kind=ppsim.ProtocolKind.KKKP, control_prob=0.0, rounds=KKKP_SPLIT_ROUNDS,
                                  seed=seed), ppsim.StrategySpec(ppsim.StrategyKind.KKKP_PROBE, n=n, theta_known=known))
            for n, known, seed in KKKP_PASS]

    def kkkp_pass():
        for cfg, spec in kkkp:
            harness.run_session(cfg, spec)

    def philox_pass():
        for rows, blocks in PHILOX_PASSES:
            harness._philox_words(1, 0, rows, blocks)

    process = [sys.executable, "-m", "ppsim.cli", *PROCESS_ARGS, "-o",
               os.path.join(out_dir, ppsim.__name__ + "_process.csv")]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return {"dense_pair": dense_pair, "compare_pass": lambda: cli.main(argv), "tree_builds": tree_builds,
            "compare_process": lambda: subprocess.run(process, env=env, check=True), **commands,
            "kkkp_pass": kkkp_pass, "philox_pass": philox_pass}


def ab(root: Path, other: Path) -> dict:
    """In one interpreter, the median of each of :data:`AB_CALLS` in ms for the checkout
    at ``root`` and at ``other``, from alternated warm samples, and the pairs ``root`` won."""
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"this": _ab_calls(_load(root, "ppsim_this"), root, tmp),
                 "other": _ab_calls(_load(other, "ppsim_other"), other, tmp)}
        figures = {}
        for call in AB_CALLS:
            times: dict[str, list[float]] = {side: [] for side in sides}
            for calls in sides.values():  # one untimed call each loads and warms the code
                calls[call]()
            for sample in range(AB_SAMPLES):
                for side in ("this", "other") if sample % 2 else ("other", "this"):
                    times[side].append(_timed(sides[side][call]))
            figures[call] = {"median_ms": round(median(times["this"]) * 1e3, 4),
                             "other_median_ms": round(median(times["other"]) * 1e3, 4),
                             "wins": sum(a < b for a, b in zip(times["this"], times["other"]))}
    return {"commit": commit_of(root), "other_commit": commit_of(other), "samples": AB_SAMPLES, "calls": figures}


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


def src_lines_by_module(root: Path) -> dict[str, int]:
    """The line count of each module under ``<root>/src``, keyed by its dotted name."""
    src = root / "src"
    return {".".join(path.relative_to(src).with_suffix("").parts):
            len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted(src.rglob("*.py"))}


def commit_of(root: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src", "tests"],
                           capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + (" + uncommitted changes" if dirty else "")


def record(root: Path, commit: str | None) -> dict:
    figures = measure(root)
    figures.update(tier1(root))
    figures["src_lines_by_module"] = src_lines_by_module(root)
    figures["src_lines"] = sum(figures["src_lines_by_module"].values())
    figures["commit"] = commit or commit_of(root)
    figures["cpus"] = os.cpu_count()
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    parser.add_argument("--root", default=".", help="the ppsim checkout to measure")
    parser.add_argument("--label", help="key of this checkout's figures, e.g. parent or change")
    parser.add_argument("--commit", default=None, help="commit to record when --root is no git work tree")
    parser.add_argument("--out", help="the BENCH_<n>.json file to update")
    parser.add_argument("--ab", metavar="OTHER_ROOT",
                        help="time this checkout against the one at OTHER_ROOT in one interpreter, alternated")
    args = parser.parse_args(argv)
    if args.measure:
        json.dump(measure_here(args.measure), sys.stdout)
        return 0
    if not args.label or not args.out:
        parser.error("--label and --out are required")
    out = Path(args.out)
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    data.setdefault("rounds", ROUNDS)
    data.setdefault("seed", SEED)
    root = Path(args.root).resolve()
    if args.ab:
        data.setdefault("ab", {})[args.label] = ab(root, Path(args.ab).resolve())
    else:
        data.setdefault("runs", {})[args.label] = record(root, args.commit)
    out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
