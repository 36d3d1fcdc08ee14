"""ppsim benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a ppsim checkout:

    python3 perfbench/run.py --workload kkkp_probe --seed 1 --seconds 30 --trace 0

``--workload all`` runs each workload in turn, each in a fresh process.
The benchmark imports ppsim from ``./src`` and nowhere else, and exits
with code 2 when it is missing.  It repeats passes over the workload's
sessions (see ``workloads.py``) from one process for ``--seconds``.

``--trace 0`` prints the end-to-end metrics: the medians over passes of
the pass wall time and of two named cells' time per round, the median
set-up time of fresh interpreters, and this process's peak RSS.
``--trace 1`` spends half the time on untraced passes and half on passes
under ``tracer.Tracer``, and prints the per-layer metrics, each per round
simulated.  Every line before the last names a metric with its unit; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A fuller record, with provenance and the stats digest,
goes to ``.perfbench/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
# Set-up time swings with the machine's speed (process start, imports), and
# the calibration kernel does not track it.  An interpreter that imports
# numpy and nothing of ppsim does: set-up samples are normalised by its
# start-up time, whose median on the reference machine is this.
STARTUP_REFERENCE_CODE = "import time, numpy; print(repr(time.monotonic()))"
STARTUP_REFERENCE_S = 0.135

# (name, unit, better) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("rounds_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("us_per_round.cell_a", "us", "lower"),
    ("us_per_round.cell_b", "us", "lower"),
)


def _calls(span: str) -> Callable:
    return lambda t: t.spans[span]["calls"] / t.rounds


def _self_us(span: str) -> Callable:
    return lambda t: t.spans[span]["self_s"] * 1e6 / t.rounds


def _count(key: str) -> Callable:
    return lambda t: t.counts[key] / t.rounds


def _guess_useful_ratio(t: "TracedRun") -> float:
    return t.counts["useful_guesses"] / t.counts["guesses"] if t.counts["guesses"] else 0.0


# (name, unit, better, value from a TracedRun) of every per-layer metric.
PER_LAYER: tuple[tuple[str, str, str, Callable], ...] = (
    ("quantum.apply_unitary.calls.1q", "calls/round", "lower", _calls("quantum.apply_unitary.1q")),
    ("quantum.apply_unitary.calls.2q", "calls/round", "lower", _calls("quantum.apply_unitary.2q")),
    ("quantum.apply_unitary.self_us.1q", "us/round", "lower", _self_us("quantum.apply_unitary.1q")),
    ("quantum.apply_unitary.self_us.2q", "us/round", "lower", _self_us("quantum.apply_unitary.2q")),
    ("quantum.measure.calls.1q", "calls/round", "lower", _calls("quantum.measure.1q")),
    ("quantum.measure.calls.2q", "calls/round", "lower", _calls("quantum.measure.2q")),
    ("quantum.measure.self_us.1q", "us/round", "lower", _self_us("quantum.measure.1q")),
    ("quantum.measure.self_us.2q", "us/round", "lower", _self_us("quantum.measure.2q")),
    ("quantum.measure_bell.calls", "calls/round", "lower", _calls("quantum.measure_bell")),
    ("quantum.measure_bell.self_us", "us/round", "lower", _self_us("quantum.measure_bell")),
    ("quantum.make_single.calls", "calls/round", "lower", _calls("quantum.make_single")),
    ("quantum.make_bell.calls", "calls/round", "lower", _calls("quantum.make_bell")),
    ("quantum.rot.calls", "calls/round", "lower", _calls("quantum.rot")),
    ("optics.photon_init.calls", "calls/round", "lower", _calls("optics.photon_init")),
    ("optics.photon_init.self_us", "us/round", "lower", _self_us("optics.photon_init")),
    ("optics.pulse_init.calls", "calls/round", "lower", _calls("optics.pulse_init")),
    ("optics.pulse_init.self_us", "us/round", "lower", _self_us("optics.pulse_init")),
    ("optics.apply_filter.self_us", "us/round", "lower", _self_us("optics.apply_filter")),
    ("optics.split_by_wavelength.self_us", "us/round", "lower", _self_us("optics.split_by_wavelength")),
    ("optics.is_visible.self_us", "us/round", "lower", _self_us("optics.is_visible")),
    ("optics.absorbed", "photons/round", "lower", _count("absorbed")),
    ("adversaries.on_b_to_a.self_us", "us/round", "lower", _self_us("adversaries.on_b_to_a")),
    ("adversaries.on_a_to_b.self_us", "us/round", "lower", _self_us("adversaries.on_a_to_b")),
    ("adversaries.on_a_to_b_leg3.self_us", "us/round", "lower", _self_us("adversaries.on_a_to_b_leg3")),
    ("adversaries.finalize.self_us", "us/round", "lower", _self_us("adversaries.finalize")),
    ("adversaries.probes_injected", "photons/round", "lower", _count("probes_injected")),
    ("adversaries.guess_useful_ratio", "ratio", "higher", _guess_useful_ratio),
    ("protocols.run_round.self_us", "us/round", "lower", _self_us("protocols.run_round")),
    ("harness.rng.draws", "draws/round", "lower", _calls("harness.rng")),
    ("harness.rng.self_us", "us/round", "lower", _self_us("harness.rng")),
    ("harness.aggregate.self_us", "us/round", "lower", _self_us("harness.run_session")),
    ("harness.worker_speedup", "ratio", "higher", lambda t: t.worker_speedup),
    ("harness.log_records", "records/round", "lower", _count("log_records")),
    ("scenario.parse_s", "s/round", "lower", lambda t: t.spans["scenario.parse"]["self_s"] / t.rounds),
    ("cli.self_s", "s/round", "lower", lambda t: t.spans["cli.main"]["self_s"] / t.rounds),
    ("trace.overhead_frac", "ratio", "lower", lambda t: t.overhead_frac),
)


class TracedRun:
    """What the per-layer metrics are computed from."""

    def __init__(self, summary: dict[str, Any], rounds: int,
                 worker_speedup: float, overhead_frac: float):
        self.spans = summary["spans"]
        self.counts = summary["counts"]
        self.rounds = rounds
        self.worker_speedup = worker_speedup
        self.overhead_frac = overhead_frac


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: Any, seconds: float, calibrate: Callable[[], float] | None = None) -> list:
    """Closed loop: start passes until the next one would overrun ``seconds``."""
    from timing import calibration_kernel
    from workloads import run_pass

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1].wall_s <= seconds:
        passes.append(run_pass(workload, calibrate or calibration_kernel))
    return passes


def _time_to_print(argv: list[str], root: str) -> float:
    """Start ``argv``; return the CLOCK_MONOTONIC time it prints minus its start."""
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - started


def measure_setup(workload: str, seed: int, root: str) -> tuple[list[float], list[float]]:
    """Set-up seconds of ``SETUP_PROBES`` fresh interpreters, one after another.

    Returns the normalised and the raw samples.  Each probe runs between
    two starts of a reference interpreter that only imports numpy; a
    sample is normalised by the mean of those two start-up times.
    """
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), OUT_DIR]
    reference = [sys.executable, "-c", STARTUP_REFERENCE_CODE]
    refs = [_time_to_print(reference, root)]
    normalised, raw = [], []
    for _ in range(SETUP_PROBES):
        raw.append(_time_to_print(probe, root))
        refs.append(_time_to_print(reference, root))
        normalised.append(raw[-1] * STARTUP_REFERENCE_S / ((refs[-2] + refs[-1]) / 2))
    return normalised, raw


def cell_us(workload: Any, passes: list, cell: str, raw: bool = False) -> float:
    """Median µs per round of ``cell``, speed-normalised unless ``raw``."""
    seconds = [(p.cells if raw else p.norm_cells)[cell] for p in passes if cell in p.cells]
    return _median(seconds) * 1e6 / workload.session_rounds


def end_to_end(workload: Any, passes: list, setup_samples: list[float]) -> dict[str, float]:
    wall = _median([p.norm_wall_s for p in passes])
    return {
        "setup_s": _median(setup_samples),
        "wall_s": wall,
        "rounds_per_s": workload.rounds_per_pass / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "us_per_round.cell_a": cell_us(workload, passes, workload.cell_a),
        "us_per_round.cell_b": cell_us(workload, passes, workload.cell_b),
    }


def per_layer(workload: Any, untraced: list, traced: list, summary: dict[str, Any]) -> dict[str, float]:
    one, two = cell_us(workload, untraced, "workers1"), cell_us(workload, untraced, "workers2")
    run = TracedRun(
        summary,
        rounds=workload.rounds_per_pass * len(traced),
        worker_speedup=one / two if one and two else 0.0,
        overhead_frac=(_median([p.norm_wall_s for p in traced])
                       / _median([p.norm_wall_s for p in untraced]) - 1.0),
    )
    return {name: value(run) for name, _, _, value in PER_LAYER}


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: str) -> dict[str, Any]:
    import numpy
    import ppsim

    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src", "ppsim")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "ppsim": ppsim.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "src_lines": src_lines,
    }


def import_ppsim(root: str) -> str | None:
    """Put ``<root>/src`` first on the path and import ppsim from it; None on success."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ppsim", "__init__.py")):
        return f"no ppsim sources under {src}; run from the root of a ppsim checkout"
    sys.path.insert(0, src)
    import ppsim

    if not os.path.abspath(ppsim.__file__).startswith(src + os.sep):
        return f"imported ppsim from {ppsim.__file__}, not from {src}"
    return None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one ppsim benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("kkkp_probe", "compare_grid", "dense_logged_workers", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, so each has its own peak RSS."""
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = code or proc.returncode
    return code


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    problem = import_ppsim(root)
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import timing
    import tracer
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, OUT_DIR)
    problems: list[str] = []
    record: dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "provenance": provenance(root)}
    if args.trace == 0:
        setup_samples, raw_setup_samples = measure_setup(args.workload, args.seed, root)
        passes = measure(workload, args.seconds)
        metrics = end_to_end(workload, passes, setup_samples)
        units = {name: unit for name, unit, _ in END_TO_END}
        record["setup_samples_s"] = setup_samples
        record["raw_setup_samples_s"] = raw_setup_samples
    else:
        passes = measure(workload, args.seconds / 2)
        before = tracer.ppsim_bindings()
        with tracer.Tracer() as tr:
            # A span of its own keeps calibration out of its caller's self time.
            traced = measure(workload, args.seconds / 2,
                             tr.span(timing.calibration_kernel, "perfbench.calibration"))
        left_patched = tracer.changed_bindings(before)
        if left_patched:
            problems.append(f"tracer left ppsim patched: {', '.join(left_patched)}")
        summary = tr.summary()
        metrics = per_layer(workload, passes, traced, summary)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        record["spans"] = summary
        record["traced_norm_pass_wall_s"] = [p.norm_wall_s for p in traced]
    timed = passes  # the untraced passes
    if args.trace == 1:
        passes = passes + traced

    digests = sorted({p.digest for p in passes})
    if len(digests) != 1:
        problems.append(f"passes disagree on stats_digest: {digests}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        problems += p.problems
    cells = sorted({c for p in timed for c in p.cells})
    record.update({
        "stats_digest": digests[0] if len(digests) == 1 else digests,
        "pass_wall_s": [p.wall_s for p in timed],
        "norm_pass_wall_s": [p.norm_wall_s for p in timed],
        "us_per_round": {c: cell_us(workload, timed, c) for c in cells},
        "raw_us_per_round": {c: cell_us(workload, timed, c, raw=True) for c in cells},
        "attempted": attempted, "failed": failed, "problems": problems[:50],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    prov = record["provenance"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    print(" ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"stats_digest={record['stats_digest']}")
    if args.trace == 0:
        for c in cells:
            print(f"us_per_round.{c} = {record['us_per_round'][c]:.3f} us"
                  f" (raw {record['raw_us_per_round'][c]:.3f} us)")
        print(f"cell_a = {workload.cell_a}, cell_b = {workload.cell_b}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} sessions)")
    for line in problems[:10]:
        print(f"problem: {line}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
