"""Print the CLOCK_MONOTONIC time at which a workload reaches its first round.

``perfbench/run.py`` starts this script in a fresh interpreter and takes
``setup_s`` as that time minus the time it started the process.  The span
covers interpreter start, ``import ppsim``, building the workload's inputs,
config and scenario validation and strategy construction.  The workload's
first session runs until ``ppsim.harness`` calls ``run_round``, which is
replaced here to stop it.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR
(from the root of a ppsim checkout)
"""

import os
import sys
import time


class _FirstRound(BaseException):
    """Raised at the first round; not an Exception, so nothing in ppsim catches it."""


def main(argv: list[str]) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, os.path.abspath("src"))
    import ppsim.harness
    import workloads
    from timing import Timer

    reached: list[float] = []

    def first_round(*args, **kwargs):
        reached.append(time.monotonic())
        raise _FirstRound

    ppsim.harness.run_round = first_round
    session = workloads.build(workload, seed, out_dir).sessions[0]
    try:
        session.run(Timer(calibrate=lambda: 0.0))
    except _FirstRound:
        pass
    if not reached:
        print("setup probe: the workload never reached ppsim.harness.run_round", file=sys.stderr)
        return 1
    print(repr(min(reached)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
