"""The benchmark's workloads, their correctness gate and their digest.

A workload is a fixed list of sessions built from the workload seed.  One
*pass* runs every session once, in order, from one process: each session
starts when the previous one ends (a closed loop with one client).  Every
pass of a run gets the same inputs, so every pass must report the same
``stats_digest``; a pass that does not is non-deterministic and fails.

Sessions reach ppsim only through its public API (``ppsim.run_session``
and ``ppsim.cli.main``) and hand it only generated ``ProtocolConfig`` /
``StrategySpec`` values or command-line arguments.

The gate checks the paper's invariants, not byte equality, so a change of
the random-stream layout passes it and shows only as a changed digest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import ppsim
import ppsim.cli
from ppsim import ProtocolConfig, ProtocolKind, StrategyKind, StrategySpec
from timing import CALIBRATION_REFERENCE_S, Timer, calibration_kernel

WORKLOADS = ("kkkp_probe", "compare_grid", "dense_logged_workers")

# Rounds per session.  Sessions are kept short so that the calibration
# runs around each one see the machine at the speed the session saw.  kkkp
# sessions need >= 2000 rounds for the MI < 0.01 bit gate to hold by chance
# alone (2 N ln2 * MI is chi-square with one degree of freedom; at N = 2000
# the gate trips with probability ~1e-7).
KKKP_ROUNDS = 2_000
COMPARE_ROUNDS = 2_000
DENSE_ROUNDS = 5_000

COMPARE_ROWS = 22

# Binomial tolerances are this many standard deviations wide.
Z_TOLERANCE = 5.0
EXACT = 1e-9
KKKP_MI_LIMIT = 0.01

# RunStats fields the gate and the digest read.  Fields a later RunStats
# adds are ignored, so the digest moves only when these values move.
REPORT_FIELDS = (
    "rounds", "message_rounds", "control_rounds_evaluated", "qber",
    "control_failure_rate", "anomaly_count", "absorbed_total",
    "eve_accuracy", "eve_mutual_info_bits", "blind_rounds", "seed",
)


@dataclass(frozen=True)
class Cell:
    """One (protocol, attack, filter) configuration a session runs."""

    protocol: str
    attack: str
    filter_on: bool = False
    n: int = 1
    theta_known: bool = False


@dataclass(frozen=True)
class Report:
    """The gated statistics of one session, from a RunStats or a CSV row."""

    rounds: int
    message_rounds: int
    qber: float
    control_failure_rate: float
    anomaly_count: int
    absorbed_total: int
    eve_accuracy: float | None
    eve_mutual_info_bits: float | None


def report_of(stats: Any) -> Report:
    return Report(
        rounds=stats.rounds,
        message_rounds=stats.message_rounds,
        qber=stats.qber,
        control_failure_rate=stats.control_failure_rate,
        anomaly_count=stats.anomaly_count,
        absorbed_total=stats.absorbed_total,
        eve_accuracy=stats.eve_accuracy,
        eve_mutual_info_bits=stats.eve_mutual_info_bits,
    )


def _binomial_tolerance(p: float, trials: int) -> float:
    return Z_TOLERANCE * math.sqrt(p * (1.0 - p) / max(trials, 1))


def gate(cell: Cell, rep: Report) -> list[str]:
    """Invariants the paper predicts for ``cell``; returns the violations."""
    problems: list[str] = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{cell}: {what} ({rep})")

    width = 2 if cell.protocol == "pp_dense" else 1
    probing = cell.attack in ("ipe", "ipe_dense", "kkkp_probe")
    probes_per_round = (cell.n if cell.attack == "kkkp_probe" else 1) if probing else 0
    acc, mi = rep.eve_accuracy, rep.eve_mutual_info_bits

    if cell.attack == "no_eve":
        need(rep.qber == 0 and rep.control_failure_rate == 0 and rep.anomaly_count == 0,
             "honest run must have zero qber, control failures and anomalies")
    if cell.filter_on:
        need(rep.absorbed_total == probes_per_round * rep.rounds,
             f"filter must absorb exactly {probes_per_round} probe(s) per round")
        if probing:
            chance = 0.5 ** width
            need(acc is not None
                 and abs(acc - chance) <= _binomial_tolerance(chance, rep.message_rounds),
                 f"filtered probe must leave Eve at chance accuracy {chance}")
    else:
        need(rep.absorbed_total == 0, "nothing is absorbed without a filter")
        if cell.attack in ("ipe", "ipe_dense"):
            need(acc is not None and abs(acc - 1.0) <= EXACT
                 and mi is not None and abs(mi - width) <= EXACT,
                 f"invisible probe must read all {width} bit(s)")
            need(rep.qber == 0 and rep.control_failure_rate == 0 and rep.anomaly_count == 0,
                 "invisible probe must be undetectable")
    if cell.attack == "intercept_resend":
        # Z-basis intercept scrambles every Bell-decoded message, but only
        # the X-prepared half of the single-photon variant's messages.
        expected = 0.25 if cell.protocol == "pp_single" else 0.5
        need(abs(rep.qber - expected) <= _binomial_tolerance(expected, rep.message_rounds),
             f"intercept-resend qber must be near {expected}")
    if cell.attack == "kkkp_probe":
        if cell.theta_known:
            need(acc is not None and abs(acc - 1.0) <= EXACT,
                 "probe with the blinding angle must read the bit exactly")
        else:
            need(mi is not None and mi < KKKP_MI_LIMIT,
                 f"blind rotations must keep Eve below {KKKP_MI_LIMIT} bits")
    return problems


def stats_text(stats: Any) -> str:
    return json.dumps([getattr(stats, f) for f in REPORT_FIELDS])


def session_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class Checked:
    """What a session's check found: failures out of ``count`` gated sessions."""

    failed: int
    problems: list[str]
    digest_text: str


@dataclass
class Session:
    """A timed call into ppsim and the check of what it returned.

    ``run`` times each cell it runs with the Timer it is given and returns
    the raw result; ``check`` gates that result.  A session counts as
    ``count`` gated sessions (22 for one ``compare``).
    """

    name: str
    count: int
    run: Callable[[Timer], Any]
    check: Callable[[Any], Checked]


@dataclass
class Workload:
    name: str
    sessions: list[Session]
    session_rounds: int   # every cell of a workload runs this many rounds
    rounds_per_pass: int
    cell_a: str
    cell_b: str


def _single_check(cell: Cell) -> Callable[[Any], Checked]:
    def check(result: Any) -> Checked:
        stats, _ = result
        problems = gate(cell, report_of(stats))
        return Checked(int(bool(problems)), problems, stats_text(stats))
    return check


def _kkkp_probe(seed: int) -> Workload:
    """test_6's sessions: 1-qubit registers only, up to 17 photons a round."""
    variants = (("kkkp_probe_n1", 1, False), ("kkkp_probe_n4", 4, False),
                ("kkkp_probe_n16", 16, False), ("kkkp_probe_n1_theta_known", 1, True))
    sessions = []
    for i, (name, n, known) in enumerate(variants):
        cfg = ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.0, rounds=KKKP_ROUNDS,
                             seed=session_seed("kkkp_probe", seed, i))
        spec = StrategySpec(StrategyKind.KKKP_PROBE, n=n, theta_known=known)
        run = (lambda timer, name=name, cfg=cfg, spec=spec:
               timer.timed(name, lambda: ppsim.run_session(cfg, spec)))
        sessions.append(Session(name, 1, run, _single_check(Cell("kkkp", "kkkp_probe", False, n, known))))
    return Workload("kkkp_probe", sessions, KKKP_ROUNDS, KKKP_ROUNDS * len(variants),
                    "kkkp_probe_n16", "kkkp_probe_n1")


class _CellTimer:
    """Times each session ``ppsim compare`` runs, keyed by its cell name.

    Wraps ``ppsim.cli.run_session`` for the duration of one call only.
    """

    def __init__(self, timer: Timer):
        self.timer = timer

    def __enter__(self) -> "_CellTimer":
        self._original = ppsim.cli.run_session

        def timed_session(cfg: ProtocolConfig, spec: StrategySpec, *args: Any, **kwargs: Any) -> Any:
            name = compare_cell_name(cfg.kind.value, spec.kind.value, spec.n, cfg.filter is not None)
            return self.timer.timed(name, lambda: self._original(cfg, spec, *args, **kwargs))

        ppsim.cli.run_session = timed_session
        return self

    def __exit__(self, *exc: Any) -> None:
        ppsim.cli.run_session = self._original


def compare_cell_name(protocol: str, attack: str, n: int, filter_on: bool) -> str:
    name = f"{protocol}_{attack}"
    if attack == "kkkp_probe":
        name += f"_n{n}"
    return name + ("_filter" if filter_on else "")


# The compare matrix's attack column -> (StrategyKind value, probe count).
_COMPARE_ATTACKS = {
    "no_eve": ("no_eve", 1),
    "ipe": ("ipe", 1),
    "ipe_dense": ("ipe_dense", 1),
    "intercept_resend_z": ("intercept_resend", 1),
    "kkkp_probe_n4": ("kkkp_probe", 4),
}


def _opt_float(text: str) -> float | None:
    return float(text) if text else None


def check_compare_csv(text: str) -> Checked:
    """Gate every row of a ``ppsim compare`` matrix; a short matrix fails whole."""
    lines = text.splitlines()
    if not lines or lines[0] != ppsim.cli.COMPARE_HEADER or len(lines) != COMPARE_ROWS + 1:
        return Checked(COMPARE_ROWS, [f"compare output is not {COMPARE_ROWS} rows under COMPARE_HEADER"], text)
    failed = 0
    problems: list[str] = []
    for row in csv.DictReader(lines):
        try:
            kind, n = _COMPARE_ATTACKS[row["attack"]]
            cell = Cell(row["protocol"], kind, row["filter"] == "on", n)
            rep = Report(
                rounds=int(row["rounds"]), message_rounds=int(row["message_rounds"]),
                qber=float(row["qber"]), control_failure_rate=float(row["control_failure_rate"]),
                anomaly_count=int(row["anomaly_count"]), absorbed_total=int(row["absorbed_total"]),
                eve_accuracy=_opt_float(row["eve_accuracy"]),
                eve_mutual_info_bits=_opt_float(row["eve_mi_bits"]),
            )
        except (KeyError, ValueError) as e:
            failed += 1
            problems.append(f"unreadable compare row {row}: {e!r}")
            continue
        row_problems = gate(cell, rep)
        failed += bool(row_problems)
        problems += row_problems
    return Checked(failed, problems, text)


def _compare_grid(seed: int, out_dir: str) -> Workload:
    """The 22 sessions of ``ppsim compare``, run in-process through the CLI."""
    path = os.path.join(out_dir, "compare.csv")
    argv = ["compare", "--seed", str(session_seed("compare_grid", seed, 0)),
            "--rounds", str(COMPARE_ROUNDS), "-o", path]

    def run(timer: Timer) -> str:
        if os.path.exists(path):
            os.remove(path)
        with _CellTimer(timer):
            code = ppsim.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"ppsim compare exited with {code}")
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    return Workload("compare_grid", [Session("compare", COMPARE_ROWS, run, check_compare_csv)],
                    COMPARE_ROUNDS, COMPARE_ROUNDS * COMPARE_ROWS,
                    "pp_dense_ipe_dense", "pp_epr_ipe_filter")


def _dense_logged_workers(seed: int) -> Workload:
    """test_8's logged dense-coding session, scaled up, at 2 and at 1 worker."""
    cfg = ProtocolConfig(kind=ProtocolKind.PP_DENSE, rounds=DENSE_ROUNDS, log_rounds=True,
                         seed=session_seed("dense_logged_workers", seed, 0))
    spec = StrategySpec(StrategyKind.IPE_DENSE)
    cell = Cell("pp_dense", "ipe_dense")

    def run(timer: Timer) -> tuple[Any, Any]:
        two = timer.timed("workers2", lambda: ppsim.run_session(cfg, spec, workers=2))
        one = timer.timed("workers1", lambda: ppsim.run_session(cfg, spec, workers=1))
        return two, one

    def check(result: tuple[Any, Any]) -> Checked:
        failed, problems = 0, []
        for (stats, log), workers in zip(result, (2, 1)):
            found = gate(cell, report_of(stats))
            if len(log) != cfg.rounds:
                found.append(f"workers={workers}: log holds {len(log)} of {cfg.rounds} rounds")
            failed += bool(found)
            problems += found
        (stats2, log2), (stats1, log1) = result
        if stats_text(stats2) != stats_text(stats1) or log2 != log1:
            failed = 2
            problems.append("workers=2 and workers=1 disagree on stats or round log")
        log_digest = hashlib.sha256(repr(log1).encode()).hexdigest()
        return Checked(failed, problems, stats_text(stats1) + log_digest)

    return Workload("dense_logged_workers", [Session("pair", 2, run, check)],
                    DENSE_ROUNDS, 2 * DENSE_ROUNDS, "workers2", "workers1")


def build(name: str, seed: int, out_dir: str) -> Workload:
    if name == "kkkp_probe":
        return _kkkp_probe(seed)
    if name == "compare_grid":
        return _compare_grid(seed, out_dir)
    if name == "dense_logged_workers":
        return _dense_logged_workers(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


@dataclass
class PassResult:
    """One pass: raw and speed-normalised seconds, gate counts, digest.

    Wall times exclude the calibration runs between cells.
    """

    wall_s: float
    norm_wall_s: float
    cells: dict[str, float]
    norm_cells: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    digest: str


def run_pass(workload: Workload, calibrate: Callable[[], float] = calibration_kernel) -> PassResult:
    """Run every session once; time the calls, then gate and digest them.

    A session that raises counts as ``count`` failed sessions.
    """
    timer = Timer(calibrate)
    outcomes: list[tuple[Session, Any, Exception | None]] = []
    start = perf_counter()
    for session in workload.sessions:
        try:
            outcomes.append((session, session.run(timer), None))
        except Exception as e:  # a failing session is counted, the loop goes on
            outcomes.append((session, None, e))
    wall = perf_counter() - start - timer.calibration_s
    speed = sum(timer.kernel_s) / len(timer.kernel_s) if timer.kernel_s else CALIBRATION_REFERENCE_S

    attempted = failed = 0
    problems: list[str] = []
    digest = hashlib.sha256()
    for session, result, error in outcomes:
        attempted += session.count
        if error is not None:
            failed += session.count
            problems.append(f"{session.name}: raised {error!r}")
            digest.update(f"{session.name}:raised\n".encode())
            continue
        checked = session.check(result)
        failed += checked.failed
        problems += checked.problems
        digest.update(f"{session.name}:{checked.digest_text}\n".encode())
    return PassResult(
        wall_s=wall,
        norm_wall_s=wall * CALIBRATION_REFERENCE_S / speed,
        cells=dict(timer.seconds),
        norm_cells={name: timer.normalised(name) for name in timer.seconds},
        attempted=attempted, failed=failed, problems=problems, digest=digest.hexdigest(),
    )
