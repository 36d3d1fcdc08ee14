"""Session runner and aggregated statistics.

A session executes N protocol rounds in the calling thread, each on its
own random stream derived from the master seed in counter mode (Philox
keyed by the seed, counter = round index).  Identical (config,
strategy) inputs therefore yield bit-identical statistics and round
logs.

Every round draws from its row of a block's words, one vectorised
Philox pass over the block's counters (:func:`_block_words`), pinned bit
for bit to :func:`round_rng`: a :class:`WordStream` over the row draws
as numpy's Generator draws, and a round that draws past its row reads
on from its own longer row.  There are two engines, chosen once per
session by ``protocols.block_form``.  A round-by-round session runs
every row through :func:`run_round`.  A blocked session runs round 0
through :func:`run_round`, and the rest as numpy arrays over blocks of
up to :data:`BLOCK_ROUNDS` rounds, which may mix control and message
rounds; it reads the same words and makes the same decisions from them,
so :func:`run_round` is its exact oracle.  Sessions on the same seed, as
in ``ppsim compare`` and ``ppsim sweep``, share the words of the blocks
kept within a budget (:func:`_block_words`), and each of those commands
runs a session that repeats an earlier one of its own, such as a
filtered honest run, only once (``run_session``'s ``shared``).  A block
gives each round's leaf (for ping-pong, one lookup in a key table over
its words) in a small table of leaf records, and is logged as
references to the shared records.  A session is its count table: each
round outcome (``protocols.outcome``) and its number of rounds.  A row
run through :func:`run_round` adds one round to it; a blocked session's
leaf counts, summed over its blocks, are added once after the last.
:func:`session_stats`, a function of that integer table alone, is the
one place statistics are computed, the float rates last.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from math import frexp, fsum, ldexp, log2
from typing import Mapping

import numpy as np

from .adversaries import AdversaryStrategy, StrategySpec, make_strategy
from .protocols import (Mode, ProtocolConfig, RoundRecord, WordStream, block_form, message_bit_width, outcome,
                        run_round)

# Rounds per block of the block engine: enough to spread thin the fixed
# cost of the ~280 numpy calls of a block's Philox pass, few enough that a
# block's arrays stay within a few hundred kB (a kkkp_probe block at
# n = 16, 20 words a round, peaks under 2.5 MB); wider rounds, fewer rows.
BLOCK_ROUNDS = 2048

# Words in a round-by-round session's row; a round that draws more reads on (WordStream).
# Every accepted round-by-round pair, kkkp under ipe or intercept_resend, takes 5.
ROUND_WORDS = 8

# The words of kept blocks, keyed by (seed, start, stop), and their byte
# budget: the five blocks of a 10^4-round session at up to 12 words a
# round fit (ping-pong reads 4, kkkp 4 + n rounded up: n <= 8).  The lock
# guards them and the passes.
_WORDS_BUDGET = 1024 * 1024
_words_lock = threading.Lock()
_words: dict[tuple[int, int, int], np.ndarray] = {}

# Philox4x64-10 as numpy computes it (Salmon et al., SC'11): the round
# multipliers M0 and M1, the key's Weyl increments, and the 32-bit halves
# of each multiplier, from which a pass sums the high words of its products.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_LOW32, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)
_HALVES = {m: (np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)) for m in (_PHILOX_M0, _PHILOX_M1)}


def round_rng(seed: int, index: int) -> np.random.Generator:
    """Round ``index``'s stream as a Generator: Philox keyed by seed, counter = index.

    Sessions read its words (:func:`_block_words`) and build none."""
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 192))


def _block_words(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """The first ``k`` 64-bit words of the streams of rounds ``start`` to ``stop - 1``, a row each.

    The rows equal ``round_rng(seed, i).bit_generator.random_raw(k)`` bit
    for bit, and are read-only.  Blocks are kept for the latest seed only;
    a kept block with at least ``k`` words a round serves the call without
    a Philox pass.  A block just computed is kept, or replaces its
    narrower kept self, only while the kept words stay within
    :data:`_WORDS_BUDGET` bytes; nothing is evicted, so a session longer
    than the budget shares its first blocks with the next one on its
    seed.  Results do not depend on what is kept.
    """
    key = (seed, start, stop)
    with _words_lock:
        if _words and next(iter(_words))[0] != seed:
            _words.clear()
        kept = _words.get(key)
        if kept is not None and kept.shape[1] >= k:
            return kept[:, :k]
        words = _philox_words(seed, start, stop, -(-k // 4))
        words.setflags(write=False)
        held = sum(w.nbytes for w in _words.values()) - (0 if kept is None else kept.nbytes)
        if held + words.nbytes <= _WORDS_BUDGET:
            _words[key] = words
    return words[:, :k]


def _round_words(seed: int, index: int, k: int) -> list[int]:
    """The first ``k`` words or more of round ``index``'s stream, for a round that draws past its row."""
    return _philox_words(seed, index, index + 1, -(-k // 4))[0].tolist()


def _philox_words(seed: int, start: int, stop: int, blocks: int) -> np.ndarray:
    """Words 0 to ``4 * blocks - 1`` of the streams of rounds ``start`` to ``stop - 1``, a row each.

    Philox is counter-based, so a round's words are a pure function of
    (key, counter), and the whole block is computed as one numpy pass of
    Philox4x64-10 over the counters its rows need.  numpy's Philox adds 1
    to its counter before filling its four-word buffer, so words 4(j-1)
    to 4j-1 of round i come from counter (j, 0, 0, i), j = 1, 2, ...;
    the key is (seed, 0), as seeds stay below 2^64.

    A round maps (c0, c1, c2, c3) under key (k0, k1) to
    (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)).  On
    such a counter the first three rounds are folded, exactly, since
    their other inputs are constants: round 1 gives (seed, 0,
    hi(M0 j) ^ i, lo(M0 j)), a function of j but for the XOR of i; round
    2 multiplies the constant seed, so its c2 and c3 lanes take one value
    per j and one per pass; and round 3 multiplies that c2, so its c1
    lane takes one value per j.  Those values are Python ints, so rounds
    1 to 3 take two 64x64-bit products over the arrays, and rounds 4 to
    10 two each: 16 where the unfolded rounds take 20.  The counter
    words are four (rows, blocks) lanes, renamed from round to round
    rather than copied, and the last round writes its words into the
    output's columns.
    """
    rows, mask = stop - start, (1 << 64) - 1
    m0, m1 = np.uint64(_PHILOX_M0), np.uint64(_PHILOX_M1)
    keys = [((seed + r * _PHILOX_W0) & mask, (r * _PHILOX_W1) & mask) for r in range(10)]
    seed_hi, seed_lo = divmod(_PHILOX_M0 * seed, 1 << 64)  # round 2's product of c0 = seed
    per_j = []  # hi(M0 j), and round 3's c0 term and c1
    for j in range(1, blocks + 1):
        j_hi, j_lo = divmod(_PHILOX_M0 * j, 1 << 64)
        c2_hi, c2_lo = divmod(_PHILOX_M1 * (seed_hi ^ j_lo ^ keys[1][1]), 1 << 64)  # round 3's product of c2
        per_j.append((j_hi, c2_hi ^ keys[2][0], c2_lo))
    first, c0_key, c1 = np.array(per_j, np.uint64).T
    out = np.empty((rows, blocks, 4), np.uint64)
    x0, x1, x2, x3, hi, *scratch = np.empty((8, rows, blocks), np.uint64)
    # Round 2 multiplies c2 = hi(M0 j) ^ i into c0 = hi(M1 c2) ^ k0 and c1 = lo(M1 c2).
    index = np.arange(rows, dtype=np.uint64)
    index += np.uint64(start)
    np.bitwise_xor(index[:, None], first, out=x2)
    _mulhi(x2, _PHILOX_M1, x0, *scratch)
    x0 ^= np.uint64(keys[1][0])
    x2 *= m1
    # Round 3: c0 = c1 ^ hi(M1 c2) ^ k0 and c1 = lo(M1 c2), per j, and it multiplies c0
    # into c2 = hi(M0 c0) ^ lo(M0 seed) ^ k1 and c3 = lo(M0 c0).
    x2 ^= c0_key
    x1[...] = c1
    _mulhi(x0, _PHILOX_M0, x3, *scratch)
    x3 ^= np.uint64(seed_lo ^ keys[2][1])
    x0 *= m0
    c0, c1, c2, c3 = x2, x1, x3, x0
    for r in range(3, 10):  # rounds 4 to 10, each (c0, c1, c2, c3) -> new, the last into the output
        (k0, k1), new = keys[r], (c1, c2, c3, c0) if r < 9 else out.transpose(2, 0, 1)
        c1 ^= _mulhi(c2, _PHILOX_M1, hi, *scratch)
        np.bitwise_xor(c1, np.uint64(k0), out=new[0])
        np.multiply(c2, m1, out=new[1])
        c3 ^= _mulhi(c0, _PHILOX_M0, hi, *scratch)
        np.bitwise_xor(c3, np.uint64(k1), out=new[2])
        np.multiply(c0, m0, out=new[3])
        c0, c1, c2, c3 = new
    return out.reshape(rows, 4 * blocks)


def _mulhi(x: np.ndarray, m: int, out: np.ndarray, low: np.ndarray, mid: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The high words of the 128-bit products ``x * m``, into ``out``, summed from 32-bit halves.

    ``low``, ``mid`` and ``tmp`` are work arrays of ``x``'s shape.
    """
    m_lo, m_hi = _HALVES[m]
    np.bitwise_and(x, _LOW32, out=low)
    np.right_shift(x, _HALF, out=out)
    np.right_shift(np.multiply(low, m_lo, out=mid), _HALF, out=mid)
    mid += np.multiply(out, m_lo, out=tmp)  # high*m_lo + (low*m_lo >> 32)
    low *= m_hi
    low += np.bitwise_and(mid, _LOW32, out=tmp)
    out *= m_hi
    out += np.right_shift(mid, _HALF, out=mid)
    out += np.right_shift(low, _HALF, out=low)
    return out


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
    the empirical joint p = counts / total.  The total, the marginals and
    the sum of the terms are each a correctly rounded :func:`math.fsum`,
    so I depends on the table's cells alone, not on their order.  Scaling
    the cells by a power of two, so that the largest is in [0.5, 1), is
    exact and keeps every product of the formula within the float range.
    """
    _, exponent = frexp(max(counts.values(), default=0.0))
    counts = {cell: ldexp(c, -exponent) for cell, c in counts.items()}
    total = fsum(counts.values())
    if total <= 0:
        raise ValueError("mutual information needs a nonempty count table")
    by_a, by_e = defaultdict(list), defaultdict(list)
    for (a, e), c in counts.items():
        by_a[a].append(c)
        by_e[e].append(c)
    pa = {a: fsum(cs) for a, cs in by_a.items()}
    pe = {e: fsum(cs) for e, cs in by_e.items()}
    info = fsum(p * log2(p * total * total / (pa[a] * pe[e]))
                for (a, e), c in counts.items() if c > 0 for p in [c / total])
    return max(info, 0.0)


def channel_mutual_information(counts: JointCounts) -> float:
    """Mutual information of the empirical channel p(e|a) under a uniform input.

    Reweights every observed alice value to equal mass before applying
    the plug-in formula.  For a deterministic, collision-free guess this
    equals log2(#observed alice values) exactly, independent of how the
    message bits happened to split.
    """
    cells = {cell: c for cell, c in counts.items() if c > 0}
    rows = defaultdict(list)
    for (a, _), c in cells.items():
        rows[a].append(c)
    if not rows:
        raise ValueError("mutual information needs a nonempty count table")
    weight = 1.0 / len(rows)
    row_total = {a: fsum(cs) for a, cs in rows.items()}
    return mutual_information({(a, e): weight * c / row_total[a] for (a, e), c in cells.items()})


def session_stats(counts: Mapping[tuple, int], seed: int, scored: bool = True) -> RunStats:
    """A session's statistics from its count table: each round outcome
    (``protocols.outcome``) and the number of rounds that ended in it.

    Every statistic is a function of the table alone, so rounds may be
    counted in any order and by any engine.  Eve's scored guesses are the
    (alice, guess) table ``joint`` of the message rounds she guessed: her
    guessed rounds are its sum, her correct ones its diagonal, and her
    mutual information is read from it.  An unscored guess (``scored``
    False: one of another width than the protocol's messages) gives an
    ``eve_accuracy`` and ``eve_mutual_info_bits`` of None.
    """
    rounds = message_rounds = errors = control_evaluated = control_failures = anomalies = absorbed = blind = 0
    joint: Counter = Counter()
    for (mode, alice, bob, control_pass, guess, eve_blind, anomaly, absorbed_count), n in counts.items():
        rounds += n
        anomalies += anomaly * n
        absorbed += absorbed_count * n
        blind += eve_blind * n
        if mode is Mode.MESSAGE:
            message_rounds += n
            errors += (bob != alice) * n
            if guess is not None:
                joint[alice, guess] += n
        elif control_pass is not None:
            control_evaluated += n
            control_failures += (not control_pass) * n
    guessed = sum(joint.values()) if scored else 0
    correct = sum(n for (alice, guess), n in joint.items() if alice == guess)
    return RunStats(
        rounds=rounds,
        message_rounds=message_rounds,
        control_rounds_evaluated=control_evaluated,
        qber=errors / message_rounds if message_rounds else 0.0,
        control_failure_rate=control_failures / control_evaluated if control_evaluated else 0.0,
        anomaly_count=anomalies,
        absorbed_total=absorbed,
        eve_accuracy=correct / guessed if guessed else None,
        eve_mutual_info_bits=channel_mutual_information(joint) if guessed else None,
        blind_rounds=blind,
        seed=seed,
    )


def run_session(cfg: ProtocolConfig, strategy: StrategySpec, workers: int = 1, *,
                shared: dict | None = None) -> tuple[RunStats, list[RoundRecord]]:
    """Run ``cfg.rounds`` rounds of the configured protocol under attack.

    Returns the aggregated statistics and the round log (empty unless
    ``cfg.log_rounds``).  Every round reads its row of a block's words
    (:func:`_block_words`): :data:`ROUND_WORDS` words, or the words the
    session's block form reads (see ``protocols.block_form``).  A
    session without one runs every row through :func:`run_round`, on a
    :class:`WordStream`; a blocked one runs round 0 so, and the rest a
    block at a time, reading the same words (a ping-pong block looks
    each round's leaf up in a key table), so its statistics and log are
    those of :func:`run_round` round by round.  Every round is counted
    into one table keyed by its outcome, and :func:`session_stats` reads
    the statistics off it.  Every round runs in the calling thread, and
    ``workers`` has no effect: the result is the same for any value.  A
    guess of another width than the protocol's messages (a one-bit guess
    on ``pp_dense``, say) is not scored: its ``eve_accuracy`` and
    ``eve_mutual_info_bits`` are None.

    ``shared``, a dict one command passes to all its sessions, keeps
    their results.  A session that differs from an earlier one only in a
    filter, a detector or a ``lambda_e_nm`` giving the same verdicts on
    the signal's wavelength and the strategy's ``probe_wavelengths``
    returns that one's statistics and a copy of its log.
    """
    adv: AdversaryStrategy = make_strategy(strategy)
    if shared is not None:
        (lo, hi), signal = cfg.detector.window_nm, cfg.signal_wavelength_nm
        key = (cfg.kind, cfg.control_prob, signal, cfg.rounds, cfg.seed, cfg.log_rounds,
               strategy.kind, strategy.basis, strategy.n, strategy.theta_known,
               tuple((cfg.filter is None or cfg.filter.transmits(w), lo <= w <= hi)
                     for w in (signal, *adv.probe_wavelengths)))
        hit = shared.get(key)
        if hit is not None:
            return hit[0], list(hit[1])
    counts: Counter = Counter()
    tally = 0  # a blocked session's rounds per leaf, summed over its blocks
    log: list[RoundRecord] = []
    blocks = block_form(cfg, adv)
    k = ROUND_WORDS if blocks is None else blocks.words
    rows = min(BLOCK_ROUNDS, max(1, BLOCK_ROUNDS * 20 // k))
    for start in range(0, cfg.rounds, rows):
        words = _block_words(cfg.seed, start, min(start + rows, cfg.rounds), k)
        scalar = len(words) if blocks is None else start == 0  # the rows run through run_round
        for index, row in enumerate(words[:scalar].tolist(), start):
            rec = run_round(cfg, adv, WordStream(row, partial(_round_words, cfg.seed, index)))
            counts[outcome(rec)] += 1
            if cfg.log_rounds:
                log.append(rec)
        if blocks is not None:
            block = blocks.run(words[scalar:])
            tally += np.bincount(block.leaves, minlength=len(blocks.table))
            if cfg.log_rounds:
                log.extend(block.records())
    if blocks is not None:
        for rec, n in zip(blocks.table.tolist(), tally.tolist()):
            if n:
                counts[outcome(rec)] += n
    stats = session_stats(counts, cfg.seed, scored=adv.width == message_bit_width(cfg.kind))
    if shared is not None:
        shared[key] = stats, tuple(log)
    return stats, log
