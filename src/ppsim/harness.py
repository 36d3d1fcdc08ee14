"""Session runner and aggregated statistics.

A session executes N protocol rounds in the calling thread, each on its
own random stream derived from the master seed in counter mode (Philox
keyed by the seed, counter = round index).  Identical (config,
strategy) inputs therefore yield bit-identical statistics and round
logs.  Aggregation is integer counting, with the float rates derived
once at the end.

There are two engines, chosen once per session by
``protocols.block_form``.  The scalar one runs :func:`run_round` once
per round.  The block engine runs round 0 through :func:`run_round` and
the rest as numpy arrays over blocks of up to :data:`BLOCK_ROUNDS`
rounds, which may mix control and message rounds; it reads the same
words of the same streams and makes the same decisions from them, so
the scalar engine is its exact oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import log2
from typing import Iterable, Mapping

import numpy as np

from .adversaries import AdversaryStrategy, StrategySpec, make_strategy
from .protocols import BlockRecord, Mode, ProtocolConfig, RoundRecord, block_form, run_round

# Rounds per block of the block engine: enough to spread numpy's per-call
# cost thin, few enough that a block's arrays stay within tens of kB.
BLOCK_ROUNDS = 512


def round_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-round stream: Philox keyed by seed, counter = index."""
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 192))


def _stream_factory(seed: int):
    """Equivalent of :func:`round_rng` without per-round allocation.

    Reuses one Philox generator and resets its state to (seed,
    counter = index << 192, nothing buffered) before each round; the
    emitted streams are bit-identical to fresh :func:`round_rng`
    generators.
    """
    bit_gen = np.random.Philox(key=seed)
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state
    # Plain ints rather than numpy arrays: the state setter reads them faster.
    counter = [0, 0, 0, 0]
    template = {
        "bit_generator": state["bit_generator"],
        "state": {"counter": counter, "key": state["state"]["key"].tolist()},
        "buffer": state["buffer"].tolist(),
        "buffer_pos": 4,   # discard buffered blocks
        "has_uint32": 0,   # discard the cached 32-bit half
        "uinteger": 0,
    }

    def at(index: int) -> np.random.Generator:
        counter[3] = index
        bit_gen.state = template
        return gen

    return at


def _block_words(stream_at, start: int, stop: int, k: int) -> np.ndarray:
    """The first ``k`` 64-bit words of the streams of rounds ``start`` to ``stop - 1``, a row each."""
    return np.array([stream_at(i).bit_generator.random_raw(k) for i in range(start, stop)])


@dataclass(frozen=True)
class RunStats:
    rounds: int
    message_rounds: int
    control_rounds_evaluated: int
    qber: float
    control_failure_rate: float
    anomaly_count: int
    absorbed_total: int
    eve_accuracy: float | None
    eve_mutual_info_bits: float | None
    blind_rounds: int
    seed: int


JointCounts = Mapping[tuple[int, int], float]


def mutual_information(counts: JointCounts) -> float:
    """Plug-in mutual information, in bits, of an (alice, eve) count table.

    I = sum p(a,e) * log2(p(a,e) / (p(a) p(e))) over nonzero cells, with
    the empirical joint p = counts / total.
    """
    total = float(sum(counts.values()))
    if not counts or total <= 0:
        raise ValueError("mutual information needs a nonempty count table")
    pa: Counter = Counter()
    pe: Counter = Counter()
    for (a, e), c in counts.items():
        pa[a] += c
        pe[e] += c
    info = 0.0
    for (a, e), c in sorted(counts.items()):
        if c <= 0:
            continue
        p = c / total
        info += p * log2(p * total * total / (pa[a] * pe[e]))
    return max(info, 0.0)


def channel_mutual_information(counts: JointCounts) -> float:
    """Mutual information of the empirical channel p(e|a) under a uniform input.

    Reweights every observed alice value to equal mass before applying
    the plug-in formula.  For a deterministic, collision-free guess this
    equals log2(#observed alice values) exactly, independent of how the
    message bits happened to split.
    """
    rows: dict[int, Counter] = {}
    for (a, e), c in counts.items():
        if c > 0:
            rows.setdefault(a, Counter())[e] += c
    if not rows:
        raise ValueError("mutual information needs a nonempty count table")
    weight = 1.0 / len(rows)
    reweighted = {
        (a, e): weight * c / sum(row.values())
        for a, row in rows.items()
        for e, c in row.items()
    }
    return mutual_information(reweighted)


def qber(records: Iterable[RoundRecord]) -> float:
    """Fraction of message rounds decoded incorrectly.

    Any differing bit, a decode failure or an erasure makes the round
    one error.
    """
    messages = errors = 0
    for rec in records:
        if rec.mode is Mode.MESSAGE:
            messages += 1
            if rec.bob_bits != rec.alice_bits:
                errors += 1
    if messages == 0:
        raise ValueError("QBER needs at least one message round")
    return errors / messages


class _Accumulator:
    """Streaming aggregation of round records."""

    __slots__ = (
        "rounds", "message_rounds", "message_errors", "control_evaluated",
        "control_failures", "anomalies", "absorbed", "blind",
        "guessed_messages", "correct_guesses", "joint",
    )

    def __init__(self) -> None:
        self.rounds = 0
        self.message_rounds = 0
        self.message_errors = 0
        self.control_evaluated = 0
        self.control_failures = 0
        self.anomalies = 0
        self.absorbed = 0
        self.blind = 0
        self.guessed_messages = 0
        self.correct_guesses = 0
        self.joint: Counter = Counter()

    def add(self, rec: RoundRecord) -> None:
        self.rounds += 1
        self.anomalies += rec.anomaly
        self.absorbed += rec.absorbed_count
        self.blind += rec.eve_blind
        if rec.mode is Mode.MESSAGE:
            self.message_rounds += 1
            if rec.bob_bits != rec.alice_bits:
                self.message_errors += 1
            if rec.eve_guess is not None:
                self.guessed_messages += 1
                self.correct_guesses += rec.eve_guess == rec.alice_bits
                self.joint[(rec.alice_bits, rec.eve_guess)] += 1
        elif rec.control_pass is not None:
            self.control_evaluated += 1
            self.control_failures += not rec.control_pass

    def add_block(self, block: BlockRecord) -> None:
        """:meth:`add` for every round of a block, in order."""
        control = block.control
        message = ~control
        self.rounds += len(control)
        self.message_rounds += int(np.count_nonzero(message))
        self.anomalies += int(np.count_nonzero(block.anomaly))
        self.absorbed += int(block.absorbed_count.sum())
        self.blind += int(np.count_nonzero(block.eve_blind))
        alice = block.alice_bits[message]
        self.message_errors += int(np.count_nonzero(block.bob_bits[message] != alice))
        passed = block.control_pass[control]
        self.control_evaluated += int(np.count_nonzero(passed >= 0))
        self.control_failures += int(np.count_nonzero(passed == 0))
        guess = block.eve_guess[message]
        guessed = guess >= 0
        alice, guess = alice[guessed], guess[guessed]
        self.guessed_messages += len(guess)
        self.correct_guesses += int(np.count_nonzero(guess == alice))
        # Counted pair by pair, so new pairs enter the table in the order
        # they do round by round: the float sums behind the mutual
        # information run in that order.
        self.joint.update(zip(alice.tolist(), guess.tolist()))

    def stats(self, seed: int) -> RunStats:
        guessed = self.guessed_messages
        return RunStats(
            rounds=self.rounds,
            message_rounds=self.message_rounds,
            control_rounds_evaluated=self.control_evaluated,
            qber=self.message_errors / self.message_rounds if self.message_rounds else 0.0,
            control_failure_rate=(
                self.control_failures / self.control_evaluated if self.control_evaluated else 0.0
            ),
            anomaly_count=self.anomalies,
            absorbed_total=self.absorbed,
            eve_accuracy=self.correct_guesses / guessed if guessed else None,
            eve_mutual_info_bits=channel_mutual_information(self.joint) if guessed else None,
            blind_rounds=self.blind,
            seed=seed,
        )


def run_session(cfg: ProtocolConfig, strategy: StrategySpec,
                workers: int = 1) -> tuple[RunStats, list[RoundRecord]]:
    """Run ``cfg.rounds`` rounds of the configured protocol under attack.

    Returns the aggregated statistics and the round log (empty unless
    ``cfg.log_rounds``).  A session with a block form (see
    ``protocols.block_form``) runs round 0 through :func:`run_round`
    and the rest in blocks of up to :data:`BLOCK_ROUNDS` rounds,
    reading the same words of the same streams, so its statistics and
    log are those of :func:`run_round` round by round.  Every other
    session runs round by round.  Every round runs in the calling
    thread, and ``workers`` has no effect: the result is the same for
    any value.
    """
    cfg.validate()
    strategy.validate()
    adv: AdversaryStrategy = make_strategy(strategy)
    stream_at = _stream_factory(cfg.seed)
    acc = _Accumulator()
    log: list[RoundRecord] = []
    blocks = block_form(cfg, adv)
    for i in range(cfg.rounds if blocks is None else 1):
        rec = run_round(cfg, adv, stream_at(i))
        acc.add(rec)
        if cfg.log_rounds:
            log.append(rec)
    if blocks is not None:
        for start in range(1, cfg.rounds, BLOCK_ROUNDS):
            stop = min(start + BLOCK_ROUNDS, cfg.rounds)
            block = blocks.run(_block_words(stream_at, start, stop, blocks.words))
            acc.add_block(block)
            if cfg.log_rounds:
                log.extend(block.records())
    return acc.stats(cfg.seed), log
