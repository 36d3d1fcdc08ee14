"""Tests for the session runner, statistics and information estimates."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ppsim import adversaries, harness, protocols, quantum
from ppsim.adversaries import AdversaryStrategy, RoundContext, StrategyKind, StrategySpec, make_strategy
from ppsim.cli import _compare_attacks
from ppsim.harness import (
    BLOCK_ROUNDS,
    _block_words,
    _philox_words,
    _round_words,
    channel_mutual_information,
    mutual_information,
    round_rng,
    run_session,
    session_stats,
)
from ppsim.optics import Detector, OpticalFilter, default_filter
from ppsim.protocols import (
    Block,
    BranchBlocks,
    ConfigError,
    KkkpBlocks,
    Mode,
    ProtocolConfig,
    ProtocolKind,
    RoundRecord,
    block_form,
    outcome,
    run_round,
)

NO_EVE = StrategySpec(StrategyKind.NO_EVE)


def epr_cfg(**kw) -> ProtocolConfig:
    return ProtocolConfig(kind=ProtocolKind.PP_EPR, **kw)


def _entropy(counts: Counter) -> float:
    total = sum(counts.values())
    return -sum(c / total * math.log2(c / total) for c in counts.values() if c)


class TestMutualInformation:
    def test_identity_channel_is_one_bit(self):
        assert mutual_information({(0, 0): 500, (1, 1): 500}) == pytest.approx(1.0, abs=1e-12)

    def test_independent_bits_are_zero(self):
        table = {(0, 0): 250, (0, 1): 250, (1, 0): 250, (1, 1): 250}
        assert mutual_information(table) == pytest.approx(0.0, abs=1e-12)

    def test_half_informative_channel(self):
        # Frozen from a by-hand evaluation of the plug-in formula:
        # 1/4 log2 2 + 1/4 log2(2/3) + 1/2 log2(4/3).
        table = {(0, 0): 250, (0, 1): 250, (1, 1): 500}
        assert mutual_information(table) == pytest.approx(0.3112781244591328, abs=1e-12)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            mutual_information({})
        with pytest.raises(ValueError):
            mutual_information({(0, 0): 0})

    def test_tables_beyond_the_range_of_float_products(self):
        # Unscaled, p * total * total underflowed to 0 in the first and
        # overflowed to inf in the second: ZeroDivisionError, then NaN.
        assert mutual_information({(0, 0): 1e-200}) == 0.0
        assert mutual_information({(0, 0): 1e200, (1, 1): 1e200}) == 1.0

    @given(
        cells=st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(0, 10**6) | st.floats(1e-6, 1e6),
            min_size=1,
        ).filter(lambda cells: any(cells.values())),
        power=st.integers(-1000, 1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_scaling_by_a_power_of_two_gives_the_same_bits(self, cells, power):
        scaled = {cell: math.ldexp(c, power) for cell, c in cells.items()}
        assume(all(c == 0 or sys.float_info.min <= c <= sys.float_info.max for c in scaled.values()))
        for mi in (mutual_information, channel_mutual_information):
            assert mi(scaled) == mi(cells)

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(0, 50),
            min_size=1,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_bounded_by_marginal_entropies(self, table):
        if sum(table.values()) == 0:
            return
        info = mutual_information(table)
        pa: Counter = Counter()
        pe: Counter = Counter()
        for (a, e), c in table.items():
            pa[a] += c
            pe[e] += c
        assert info >= 0.0
        assert info <= min(_entropy(pa), _entropy(pe)) + 1e-9


class TestChannelMutualInformation:
    def test_exact_bit_for_unbalanced_deterministic_guesses(self):
        # Uniform-input reweighting makes a perfect 1-bit channel score
        # exactly 1.0 regardless of how the message bits split.
        assert channel_mutual_information({(0, 0): 400, (1, 1): 600}) == 1.0
        assert channel_mutual_information({(0, 0): 1, (1, 1): 9999}) == 1.0

    def test_exact_two_bits_for_dense_guesses(self):
        table = {(v, v): 100 + 13 * v for v in range(4)}
        assert channel_mutual_information(table) == 2.0

    def test_independent_guesses_stay_near_zero(self):
        table = {(0, 0): 260, (0, 1): 240, (1, 0): 255, (1, 1): 245}
        assert channel_mutual_information(table) < 0.01

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            channel_mutual_information({})


class TestOrderFree:
    """The MI is a function of the count table, not of the order its cells were counted in."""

    def test_reversed_cells_give_the_same_bits(self):
        # Summed in insertion order, the reversed table read 0.020720839623908215
        # where the table read 0.020720839623908027.
        table = {(0, 0): 7, (0, 1): 7, (1, 0): 2, (1, 1): 1}
        reversed_table = dict(reversed(table.items()))
        assert channel_mutual_information(reversed_table) == channel_mutual_information(table)

    @given(
        cells=st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(0, 10**6) | st.floats(1e-6, 1e6),
            min_size=1,
        ).filter(lambda cells: any(cells.values())),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_insertion_order_gives_the_same_bits(self, cells, data):
        order = data.draw(st.permutations(list(cells.items())))
        for mi in (mutual_information, channel_mutual_information):
            assert mi(dict(order)) == mi(cells)


class TestQber:
    """QBER as reported: through a count table and ``session_stats``."""

    def _msg(self, alice, bob):
        return RoundRecord(mode=Mode.MESSAGE, alice_bits=alice, bob_bits=bob)

    def _stats(self, records):
        return session_stats(Counter(map(outcome, records)), seed=0)

    def test_all_correct(self):
        assert self._stats([self._msg(b, b) for b in (0, 1, 0)]).qber == 0.0

    def test_partial_dense_mismatch_counts_as_one_error(self):
        # one of two bits wrong (0b10 vs 0b00) is one errored round
        records = [self._msg(0b10, 0b00), self._msg(0b11, 0b11)]
        assert self._stats(records).qber == 0.5

    def test_erasure_counts_as_error(self):
        assert self._stats([self._msg(1, None), self._msg(1, 1)]).qber == 0.5

    def test_control_rounds_ignored(self):
        records = [RoundRecord(mode=Mode.CONTROL, control_pass=False), self._msg(0, 0)]
        assert self._stats(records).qber == 0.0

    def test_no_message_rounds_reads_zero(self):
        # A rate with no evidence behind it reads 0 for now; it is to be
        # reported as absent instead.
        stats = self._stats([RoundRecord(mode=Mode.CONTROL, control_pass=True)])
        assert (stats.message_rounds, stats.qber) == (0, 0.0)


class TestRoundStreams:
    def test_same_seed_same_stream(self):
        a = round_rng(7, 123).random(8)
        b = round_rng(7, 123).random(8)
        np.testing.assert_array_equal(a, b)

    def test_rounds_get_distinct_streams(self):
        a = round_rng(7, 0).random(8)
        b = round_rng(7, 1).random(8)
        assert not np.array_equal(a, b)

    def test_seeds_get_distinct_streams(self):
        a = round_rng(7, 0).random(8)
        b = round_rng(8, 0).random(8)
        assert not np.array_equal(a, b)


class TestRunSession:
    def test_honest_epr_statistics(self):
        stats, log = run_session(epr_cfg(rounds=3000, seed=42), NO_EVE)
        assert stats.rounds == 3000
        assert stats.qber == 0.0
        assert stats.control_failure_rate == 0.0
        assert stats.anomaly_count == 0
        assert stats.absorbed_total == 0
        assert stats.seed == 42
        assert log == []  # retention disabled by default

    def test_deterministic_reruns(self):
        cfg = epr_cfg(rounds=1200, log_rounds=True)
        spec = StrategySpec(StrategyKind.IPE)
        first = run_session(cfg, spec)
        second = run_session(cfg, spec)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_parallel_equals_sequential(self):
        cfg = ProtocolConfig(kind=ProtocolKind.PP_DENSE, rounds=1700, log_rounds=True)
        spec = StrategySpec(StrategyKind.IPE_DENSE)
        seq_stats, seq_log = run_session(cfg, spec, workers=1)
        for workers in (2, 4, 7):
            par_stats, par_log = run_session(cfg, spec, workers=workers)
            assert par_stats == seq_stats
            assert par_log == seq_log

    def test_counts_sum_consistently(self):
        cfg = ProtocolConfig(kind=ProtocolKind.PP_SINGLE, rounds=2500, log_rounds=True)
        stats, log = run_session(cfg, NO_EVE)
        controls = sum(rec.mode is Mode.CONTROL for rec in log)
        discarded = sum(rec.mode is Mode.CONTROL and rec.control_pass is None for rec in log)
        assert stats.rounds == len(log) == 2500
        assert stats.message_rounds + controls == stats.rounds
        assert stats.control_rounds_evaluated == controls - discarded

    def test_mode_draw_matches_control_probability(self):
        c = 0.3
        cfg = epr_cfg(rounds=30_000, control_prob=c, log_rounds=True)
        stats, log = run_session(cfg, NO_EVE)
        controls = stats.rounds - stats.message_rounds
        assert abs(controls / stats.rounds - c) < 3 * math.sqrt(c * (1 - c) / stats.rounds)

    def test_filter_transparency_for_honest_traffic(self):
        bare, _ = run_session(epr_cfg(rounds=2000), NO_EVE)
        filtered_cfg = epr_cfg(rounds=2000, filter=default_filter())
        filtered, _ = run_session(filtered_cfg, NO_EVE)
        assert filtered == bare

    def test_invalid_config_rejected_before_running(self):
        with pytest.raises(ConfigError):
            run_session(ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.5), NO_EVE)
        with pytest.raises(ConfigError):
            run_session(epr_cfg(rounds=0), NO_EVE)

    def test_invalid_strategy_rejected_before_running(self):
        with pytest.raises(ValueError):
            run_session(epr_cfg(rounds=10), StrategySpec(StrategyKind.IPE, lambda_e_nm=-1))

    def test_filtered_ipe_accuracy_and_information(self):
        cfg = epr_cfg(rounds=4000, filter=default_filter())
        stats, _ = run_session(cfg, StrategySpec(StrategyKind.IPE))
        assert stats.absorbed_total == 4000
        assert abs(stats.eve_accuracy - 0.5) < 3 * math.sqrt(0.25 / stats.message_rounds)
        assert stats.eve_mutual_info_bits < 0.01


_RECORDS = st.builds(
    RoundRecord, mode=st.sampled_from(Mode), alice_bits=st.integers(0, 3),
    bob_bits=st.none() | st.integers(0, 3), control_pass=st.none() | st.booleans(),
    eve_guess=st.none() | st.integers(0, 3), eve_blind=st.booleans(), anomaly=st.booleans(),
    absorbed_count=st.integers(0, 17),
)


class _FixedLeaves:
    """A block form of one word a round whose rounds 1, 2, ... end at ``leaves`` in ``table``."""

    words = 1

    def __init__(self, table, leaves):
        self.table, self.leaves, self.done = np.array(table, object), np.array(leaves, np.intp), 0

    def run(self, words):
        self.done += len(words)
        return Block(self.leaves[self.done - len(words):self.done], self.table, None)


def _blocked_session(first, table, leaves, block_rounds):
    """The count table, statistics and log of ``run_session`` on a session
    whose round 0 ends in ``first`` and whose later rounds end at
    ``leaves``, run in blocks of ``block_rounds``."""
    counted = []

    def stats(counts, *args, **kw):
        counted.append(dict(counts))
        return session_stats(counts, *args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "BLOCK_ROUNDS", block_rounds)
        mp.setattr(harness, "block_form", lambda cfg, adv: _FixedLeaves(table, leaves))
        mp.setattr(harness, "_block_words", lambda seed, start, stop, k: np.zeros((stop - start, k), np.uint64))
        mp.setattr(harness, "run_round", lambda *args: first)
        mp.setattr(harness, "session_stats", stats)
        result = run_session(epr_cfg(rounds=1 + len(leaves), seed=3, log_rounds=True), NO_EVE)
    return (counted[0], *result)


def _angled(rec: RoundRecord, angles: tuple[float, float]) -> RoundRecord:
    return RoundRecord(*outcome(rec), angles)


class TestLeafCounts:
    """A session is its count table, keyed by outcome: however its rounds
    are split into blocks or ordered, ``session_stats`` reads what
    counting its log record by record gives."""

    @given(first=_RECORDS, table=st.lists(_RECORDS, min_size=1, max_size=12), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_split_and_permuted_blocks_count_as_record_by_record(self, first, table, data):
        # Equal records at two leaves, and records that differ only in their angles.
        copies = data.draw(st.lists(st.sampled_from(table), max_size=4))
        table = table + [_angled(rec, (0.25, i)) for i, rec in enumerate(copies)]
        leaves = data.draw(st.lists(st.integers(0, len(table) - 1), max_size=300))
        by_record = Counter(map(outcome, [first, *(table[leaf] for leaf in leaves)]))
        expected = session_stats(by_record, 3)
        # Blocks split where run_session splits them, rows in any order.
        shuffled = data.draw(st.permutations(leaves))
        counts, stats, log = _blocked_session(first, table, shuffled, data.draw(st.integers(1, 301)))
        assert counts == by_record
        assert stats == expected
        assert log == [first, *(table[leaf] for leaf in shuffled)]
        # Any split points: the chunks' summed leaf counts give the same table.
        cuts = sorted(data.draw(st.sets(st.integers(0, len(leaves)))))
        tally = sum(np.bincount(chunk, minlength=len(table)) for chunk in np.split(np.array(shuffled, np.intp), cuts))
        chunked = Counter({outcome(first): 1})
        for rec, n in zip(table, tally.tolist()):
            chunked[outcome(rec)] += n
        assert session_stats(chunked, 3) == expected

    def test_records_differing_only_in_angles_share_a_cell(self):
        rec = RoundRecord(Mode.MESSAGE, 1, 1, None, 0, kkkp_angles=(0.5, 1.5))
        table = [rec, _angled(rec, (2.0, 3.0)), _angled(rec, None)]
        counts, stats, _ = _blocked_session(_angled(rec, (4.0, 5.0)), table, [0, 1, 2, 1], 2)
        assert counts == {outcome(rec): 5}
        assert (stats.rounds, stats.message_rounds, stats.eve_accuracy) == (5, 5, 0.0)

    def test_equal_records_at_two_leaves_share_a_cell(self):
        def control():
            return RoundRecord(Mode.CONTROL, control_pass=False, anomaly=True)

        counts, stats, _ = _blocked_session(control(), [control(), control()], [1, 0, 1, 1], 3)
        assert counts == {outcome(control()): 5}
        assert (stats.control_rounds_evaluated, stats.control_failure_rate, stats.anomaly_count) == (5, 1.0, 5)


class TestSessionStats:
    @given(records=st.lists(_RECORDS, max_size=40))
    @example(records=[RoundRecord(Mode.MESSAGE, 1, 1, None, 1), RoundRecord(Mode.CONTROL, control_pass=True)])
    @settings(max_examples=150, deadline=None)
    def test_unscored_guesses_read_none_and_change_nothing_else(self, records):
        counts = Counter(map(outcome, records))
        scored = session_stats(counts, 9)
        assert session_stats(counts, 9, scored=False) == replace(
            scored, eve_accuracy=None, eve_mutual_info_bits=None)


@pytest.fixture
def philox_passes(monkeypatch):
    """Starts with no kept block words and lists the Philox passes run, by their arguments."""
    monkeypatch.setattr(harness, "_words", {})
    passes = []
    compute = harness._philox_words

    def counted(*args):
        passes.append(args)
        return compute(*args)

    monkeypatch.setattr(harness, "_philox_words", counted)
    return passes


def kkkp_cfg(**kw) -> ProtocolConfig:
    return ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.0, log_rounds=True, **kw)


def round_by_round(cfg: ProtocolConfig, spec: StrategySpec, adv: AdversaryStrategy | None = None):
    """The oracle: run_round on fresh round_rng streams, aggregated record by
    record; ``adv``, if given, stands in for the strategy ``spec`` makes."""
    adv = make_strategy(spec) if adv is None else adv
    log = [run_round(cfg, adv, round_rng(cfg.seed, i)) for i in range(cfg.rounds)]
    return session_stats(Counter(map(outcome, log)), cfg.seed), log


SEEDS = (42, 7, 123456789)
# The block boundary tests run under this block size, so that the scalar
# oracle runs few rounds; one case per engine runs at the shipped size.
SMALL_BLOCK = 64
BOUNDARY_ROUNDS = [1, 2, SMALL_BLOCK, SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 17]
PROBE_SPECS = [
    StrategySpec(StrategyKind.KKKP_PROBE, n=n, theta_known=known)
    for n in (1, 2, 4, 16) for known in (False, True)
]
# Off; the default passband around the 800 nm signal; a passband that
# excludes the signal, so every round is an erasure.
FILTERS = {"off": None, "default": default_filter(), "no_signal": OpticalFilter((700.0, 750.0))}


class TestBlockEngine:
    """kkkp sessions run in blocks; the scalar engine is the exact oracle."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("filt", FILTERS)
    @pytest.mark.parametrize("lambda_e_nm", [190_000.0, 850.0, 800.0])
    @pytest.mark.parametrize("spec", PROBE_SPECS, ids=lambda s: f"n{s.n}{'_known' if s.theta_known else ''}")
    def test_probe_matches_round_by_round(self, spec, lambda_e_nm, filt, seed):
        # 850 nm is visible but outside the default passband; 800 nm is
        # inside it, at the signal's own wavelength.
        spec = StrategySpec(spec.kind, lambda_e_nm, n=spec.n, theta_known=spec.theta_known)
        cfg = kkkp_cfg(rounds=120, seed=seed, filter=FILTERS[filt])
        assert run_session(cfg, spec) == round_by_round(cfg, spec)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("filt", FILTERS)
    def test_no_eve_matches_round_by_round(self, filt, seed):
        cfg = kkkp_cfg(rounds=120, seed=seed, filter=FILTERS[filt])
        assert run_session(cfg, NO_EVE) == round_by_round(cfg, NO_EVE)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rounds", BOUNDARY_ROUNDS)
    @pytest.mark.parametrize("spec", [
        NO_EVE,
        StrategySpec(StrategyKind.KKKP_PROBE, n=4),
        StrategySpec(StrategyKind.KKKP_PROBE, n=1, theta_known=True),
    ], ids=["no_eve", "n4", "n1_known"])
    def test_block_boundaries(self, spec, rounds, seed, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_ROUNDS", SMALL_BLOCK)
        cfg = kkkp_cfg(rounds=rounds, seed=seed)
        assert run_session(cfg, spec) == round_by_round(cfg, spec)

    def test_block_boundaries_at_shipped_size(self):
        spec = StrategySpec(StrategyKind.KKKP_PROBE, n=4)
        cfg = kkkp_cfg(rounds=3 * BLOCK_ROUNDS + 17, seed=7)
        assert run_session(cfg, spec) == round_by_round(cfg, spec)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rounds", BOUNDARY_ROUNDS)
    @pytest.mark.parametrize("spec", [
        StrategySpec(StrategyKind.IPE),
        StrategySpec(StrategyKind.INTERCEPT_RESEND, basis=0.3),
    ], ids=["ipe", "intercept_resend"])
    def test_round_by_round_block_boundaries(self, spec, rounds, seed, monkeypatch):
        # A session without a block form reads its rows a block at a time
        # too, and runs each row through run_round as that round.
        monkeypatch.setattr(harness, "BLOCK_ROUNDS", SMALL_BLOCK)
        cfg = kkkp_cfg(rounds=rounds, seed=seed)
        assert block_form(cfg, make_strategy(spec)) is None
        assert run_session(cfg, spec) == round_by_round(cfg, spec)

    @pytest.mark.parametrize("seed", [0, 42, 123456789, 2**64 - 1])
    @pytest.mark.parametrize("k", [1, 3, 4, 5, 8, 20, 21])
    @pytest.mark.parametrize("start, stop", [
        (0, 9), (5, 14), (BLOCK_ROUNDS - 3, BLOCK_ROUNDS + 4), (10**9, 10**9 + 5),
    ], ids=["from_0", "from_5", "across_block_rounds", "from_1e9"])
    @pytest.mark.parametrize("kept", [0, 24], ids=["cold", "kept_wider"])
    def test_blocks_read_the_head_of_each_round_stream(self, seed, k, start, stop, kept, philox_passes):
        if kept:
            _block_words(seed, start, stop, kept)
        words = _block_words(seed, start, stop, k)
        assert len(philox_passes) == 1
        assert words.shape == (stop - start, k)
        for row, index in zip(words, range(start, stop)):
            assert row.tolist() == round_rng(seed, index).bit_generator.random_raw(k).tolist()

    @given(seed=st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
           start=st.sampled_from([0, 2**32 - 1, 2**32, 2**40 + 3, 2**63]) | st.integers(0, 2**64 - 5),
           rows=st.integers(1, 4), blocks=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_a_pass_reads_the_head_of_each_round_stream(self, seed, start, rows, blocks):
        # The pass folds its first three rounds for counters (j, 0, 0, i);
        # round indices here reach past 2**32, into the counter's high half.
        words = _philox_words(seed, start, start + rows, blocks)
        assert words.shape == (rows, 4 * blocks)
        for row, index in zip(words, range(start, start + rows)):
            assert row.tolist() == round_rng(seed, index).bit_generator.random_raw(4 * blocks).tolist()

    def test_a_pass_of_1025_blocks_reads_the_head_of_each_round_stream(self):
        # The first pass of test_wide_rounds_get_fewer_rows_per_block: n = 4096, 4100 words a round.
        words = _philox_words(5, 0, 9, 1025)
        for row, index in zip(words, range(9)):
            assert row.tolist() == round_rng(5, index).bit_generator.random_raw(4100).tolist()

    def test_word_counts(self):
        def words(spec, filt=None):
            return KkkpBlocks(kkkp_cfg(filter=filt), make_strategy(spec)).words

        assert words(NO_EVE) == 4
        assert words(StrategySpec(StrategyKind.KKKP_PROBE, n=16)) == 4 + 16
        assert words(StrategySpec(StrategyKind.KKKP_PROBE, n=16), default_filter()) == 4  # probes absorbed
        assert words(StrategySpec(StrategyKind.KKKP_PROBE, n=3), FILTERS["no_signal"]) == 3
        assert words(StrategySpec(StrategyKind.KKKP_PROBE, n=3, lambda_e_nm=720.0),
                     FILTERS["no_signal"]) == 3 + 3

    def test_probe_overriding_a_hook_runs_round_by_round(self, monkeypatch):
        class CountingProbe(adversaries._BlindBaseProbe):
            finalized = 0

            def finalize(self, ctx):
                self.finalized += 1
                return super().finalize(ctx)

        spec = StrategySpec(StrategyKind.KKKP_PROBE, n=2)
        cfg = kkkp_cfg(rounds=BLOCK_ROUNDS + 3, seed=11)
        expected = run_session(cfg, spec)
        adv = CountingProbe(spec.n, spec.lambda_e_nm, spec.theta_known)
        monkeypatch.setattr(harness, "make_strategy", lambda _: adv)
        assert run_session(cfg, spec) == expected
        assert adv.finalized == cfg.rounds

    def test_rounds_drawing_past_their_row_match_round_by_round(self, monkeypatch):
        # 16 probes take about 20 words a round, past a round-by-round row's
        # 8; the small block size makes the rows cross block boundaries.
        class Probe(adversaries._BlindBaseProbe):
            def finalize(self, ctx):
                return super().finalize(ctx)

        read_on = []

        def counted(seed, index, k):
            read_on.append(index)
            return _round_words(seed, index, k)

        spec = StrategySpec(StrategyKind.KKKP_PROBE, n=16)
        cfg = kkkp_cfg(rounds=300, seed=9)
        adv = Probe(spec.n, spec.lambda_e_nm, spec.theta_known)
        assert block_form(cfg, adv) is None
        monkeypatch.setattr(harness, "BLOCK_ROUNDS", SMALL_BLOCK)
        monkeypatch.setattr(harness, "make_strategy", lambda _: adv)
        monkeypatch.setattr(harness, "_round_words", counted)
        assert run_session(cfg, spec) == round_by_round(cfg, spec, adv)
        assert set(read_on) == set(range(cfg.rounds))

    def test_recording_strategy_sees_every_round(self, monkeypatch):
        class Recorder(AdversaryStrategy):
            def __init__(self):
                self.calls = Counter()

            def on_b_to_a(self, pulse, ctx):
                self.calls["on_b_to_a"] += 1
                return pulse

            def on_a_to_b(self, pulse, ctx):
                self.calls["on_a_to_b"] += 1
                return pulse

            def finalize(self, ctx):
                self.calls["finalize"] += 1
                return None

        cfg = kkkp_cfg(rounds=BLOCK_ROUNDS + 3, seed=11)
        expected = run_session(cfg, NO_EVE)
        adv = Recorder()
        monkeypatch.setattr(harness, "make_strategy", lambda _: adv)
        assert run_session(cfg, NO_EVE) == expected
        assert adv.calls == {"on_b_to_a": cfg.rounds, "on_a_to_b": cfg.rounds, "finalize": cfg.rounds}

    def test_block_memory_is_bounded(self):
        # Holding every word of this session at once would take 16 MB.
        cfg = ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.0, rounds=100_000, seed=3)
        spec = StrategySpec(StrategyKind.KKKP_PROBE, n=16)
        tracemalloc.start()
        try:
            stats, _ = run_session(cfg, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.rounds == 100_000
        assert peak < 4 * 2**20, peak

    def test_wide_rounds_get_fewer_rows_per_block(self, philox_passes):
        # 4100 words a round: blocks of 2048 * 20 // 4100 = 9 rows.
        cfg = kkkp_cfg(rounds=20, seed=5)
        spec = StrategySpec(StrategyKind.KKKP_PROBE, n=4096)
        assert run_session(cfg, spec) == round_by_round(cfg, spec)
        assert [(start, stop) for _, start, stop, _ in philox_passes] == [(0, 9), (9, 18), (18, 20)]
        # One 200-row block would peak near 29 MiB.
        harness._words.clear()
        tracemalloc.start()
        try:
            run_session(replace(cfg, rounds=200, log_rounds=False), spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize("known", [False, True], ids=["blind", "known"])
    def test_each_angle_takes_one_cos_sin_per_block(self, known, monkeypatch):
        calls = []
        compute = quantum.cos_sin

        def counted(angles):
            calls.append(len(angles))
            return compute(angles)

        monkeypatch.setattr(quantum, "cos_sin", counted)
        blocks = KkkpBlocks(kkkp_cfg(), make_strategy(StrategySpec(StrategyKind.KKKP_PROBE, n=4, theta_known=known)))
        blocks.run(_block_words(1, 1, 101, blocks.words))
        assert calls == [100] * 3


class WordStream(harness.WordStream):
    """The harness's stream over a row of words, noting each comparison of its uniforms.

    Each uniform it hands out records, in ``compared``, every threshold
    it is compared with, as (word index, threshold).
    """

    def __init__(self, words, more=None):
        super().__init__([int(w) for w in words], more)
        self.compared = []

    def _uniform(self, word: int) -> float:
        return _RecordedUniform(self, word, super()._uniform(word))


class _RecordedUniform(float):
    """A uniform draw that notes the thresholds it is compared with."""

    def __new__(cls, stream: WordStream, word: int, value: float):
        u = super().__new__(cls, value)
        u.stream, u.word = stream, word
        return u

    def __lt__(self, threshold):
        self.stream.compared.append((self.word, threshold))
        return float(self) < threshold


class TestWordLayout:
    """The draw order the block engines read, pinned against numpy itself."""

    @pytest.mark.parametrize("row", [10, 4], ids=["row", "short_row"])
    @pytest.mark.parametrize("stream", [harness.WordStream, WordStream], ids=["harness", "recording"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_word_stream_draws_as_numpy_does(self, seed, stream, row):
        # A uniform takes a whole word; random_bits takes the top bits of a
        # fresh word's low half, or of the high half the previous call
        # kept; a uniform in between leaves that half alone.  A draw past
        # the row reads on from the round's longer row (_round_words): the
        # last script keeps the high half of word 3 across a short row's end.
        script = np.random.default_rng(seed).integers(0, 4, (300, 10)).tolist()
        script.append([0, 0, 0, 1, 0, 1, 0, 2, 0, 3])
        for index, calls in enumerate(script):
            words = round_rng(seed, index).bit_generator.random_raw(row).tolist()
            ours = RoundContext(rng=stream(words, partial(_round_words, seed, index)))
            numpy = RoundContext(rng=round_rng(seed, index))
            for width in calls:
                if width == 0:
                    mine, theirs = ours.rng.random(), numpy.rng.random()
                else:
                    mine, theirs = ours.random_bits(width), numpy.random_bits(width)
                # Plain floats and ints, as numpy's, so that records print alike.
                assert mine == theirs and isinstance(mine, type(theirs))
                if stream is harness.WordStream:
                    assert type(mine) is type(theirs)

    @pytest.mark.parametrize("kind, control, words", [
        # pp_epr under ipe: coin, then control: travel, home, blind guess;
        # message: Alice's bits, probe readout, Bob's Bell draw.
        (ProtocolKind.PP_EPR, True, ["u", "u", "u", "lo"]),
        (ProtocolKind.PP_EPR, False, ["u", "lo", "u", "u"]),
        # pp_single under ipe: preparation, coin, then Alice's basis (or bit)
        # from the buffered high half of word 0; control: her measurement,
        # then the blind guess from a fresh word; message: readout, Bob.
        (ProtocolKind.PP_SINGLE, True, ["lo", "u", "hi", "u", "lo"]),
        (ProtocolKind.PP_SINGLE, False, ["lo", "u", "hi", "u", "u"]),
    ])
    def test_ping_pong_layout(self, kind, control, words):
        cfg = ProtocolConfig(kind=kind)
        adv = make_strategy(StrategySpec(StrategyKind.IPE))
        calls = []

        class Layout(WordStream):
            def random(self):
                calls.append("u")
                return super().random()

            def next_uint32(self, state):
                calls.append("lo" if self.high is None else "hi")
                return super().next_uint32(state)

        for index in range(40):
            stream = Layout(round_rng(7, index).bit_generator.random_raw(6))
            calls.clear()
            if (run_round(cfg, adv, stream).mode is Mode.CONTROL) == control:
                assert calls == words
                return
        pytest.fail("no round of the wanted mode")


def _compare_cells():
    """The 22 (protocol, attack, filter) cells of ``ppsim compare``."""
    return [
        (kind, name, spec, filt)
        for kind in ProtocolKind for name, spec in _compare_attacks(kind)
        for filt in ("off", "default")
    ]


COMPARE_CELLS = _compare_cells()
CELL_IDS = [f"{k.value}-{name}-{filt}" for k, name, _, filt in COMPARE_CELLS]
PING_PONG = (ProtocolKind.PP_EPR, ProtocolKind.PP_SINGLE, ProtocolKind.PP_DENSE)


def _probe(kind: ProtocolKind, lambda_e_nm: float = 190_000.0) -> StrategySpec:
    probe = StrategyKind.IPE_DENSE if kind is ProtocolKind.PP_DENSE else StrategyKind.IPE
    return StrategySpec(probe, lambda_e_nm)


def assert_matches_round_by_round(cfg: ProtocolConfig, spec: StrategySpec) -> None:
    stats, log = run_session(cfg, spec)
    expected_stats, expected_log = round_by_round(cfg, spec)
    assert stats == expected_stats
    assert log == expected_log
    # The dense workload of the benchmark digests repr(log): records must
    # hold plain int, bool and None, never numpy scalars.
    assert repr(log) == repr(expected_log)


# Ping-pong sessions under any routing of the photons: the attack, the
# signal and probe wavelengths, the filter's passband and the detector's window.
ROUTINGS = dict(
    kind=st.sampled_from(PING_PONG),
    attack=st.sampled_from(["no_eve", "probe", "intercept"]),
    control_prob=st.floats(0.01, 0.99),
    signal_nm=st.sampled_from([800.0, 799.97, 650.0]),
    lambda_e_nm=st.sampled_from([190_000.0, 850.0, 800.0, 800.5, 650.0]),
    passband=st.sampled_from([None, (799.95, 800.05), (640.0, 900.0), (700.0, 750.0)]),
    window=st.sampled_from([(600.0, 900.0), (700.0, 1000.0)]),
    basis=st.floats(-3.2, 3.2),
    seed=st.integers(0, 2**64 - 1),
)


def _routing_session(kind, attack, control_prob, signal_nm, lambda_e_nm, passband, window, basis,
                     seed) -> tuple[ProtocolConfig, StrategySpec]:
    """The 80-round logged session a draw of :data:`ROUTINGS` stands for."""
    spec = {"no_eve": NO_EVE, "probe": _probe(kind, lambda_e_nm),
            "intercept": StrategySpec(StrategyKind.INTERCEPT_RESEND, basis=basis)}[attack]
    cfg = ProtocolConfig(kind=kind, control_prob=control_prob, signal_wavelength_nm=signal_nm,
                         filter=None if passband is None else OpticalFilter(passband),
                         detector=Detector(window), rounds=80, seed=seed, log_rounds=True)
    return cfg, spec


class TestPingPongBlocks:
    """Ping-pong sessions run in blocks; the scalar engine is the exact oracle."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind, name, spec, filt", COMPARE_CELLS, ids=CELL_IDS)
    def test_compare_cells_match_round_by_round(self, kind, name, spec, filt, seed):
        # One block of rounds 0-599, round 0 through run_round; test_block_boundaries
        # crosses blocks.
        cfg = ProtocolConfig(kind=kind, filter=FILTERS[filt], rounds=600, seed=seed, log_rounds=True)
        assert_matches_round_by_round(cfg, spec)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rounds", BOUNDARY_ROUNDS)
    @pytest.mark.parametrize("attack", ["probe", "intercept"])
    @pytest.mark.parametrize("kind", PING_PONG, ids=lambda k: k.value)
    def test_block_boundaries(self, kind, attack, rounds, seed, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_ROUNDS", SMALL_BLOCK)
        spec = _probe(kind) if attack == "probe" else StrategySpec(StrategyKind.INTERCEPT_RESEND)
        cfg = ProtocolConfig(kind=kind, rounds=rounds, seed=seed, log_rounds=True)
        assert_matches_round_by_round(cfg, spec)

    def test_block_boundaries_at_shipped_size(self):
        cfg = ProtocolConfig(kind=ProtocolKind.PP_DENSE, rounds=3 * BLOCK_ROUNDS + 17, seed=7,
                             log_rounds=True)
        assert_matches_round_by_round(cfg, _probe(ProtocolKind.PP_DENSE))

    def test_logged_rounds_share_their_leaf_records(self):
        # Every round of a block is logged as its leaf's own record: the
        # log holds one object per leaf reached, plus round 0's record; with
        # a record per round this session peaked at 11.6 MiB.
        cfg = ProtocolConfig(kind=ProtocolKind.PP_DENSE, rounds=100_000, seed=3, log_rounds=True)
        spec = _probe(ProtocolKind.PP_DENSE)
        tracemalloc.start()
        try:
            stats, log = run_session(cfg, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        leaves = sum(rec is not None for rec in block_form(cfg, make_strategy(spec)).table)
        assert len(log) == stats.rounds == 100_000
        assert len({id(rec) for rec in log}) <= leaves + 1
        assert peak < 3 * 2**20, peak

    @pytest.mark.parametrize("kind, spec", [(ProtocolKind.PP_DENSE, _probe(ProtocolKind.PP_DENSE)),
                                            (ProtocolKind.KKKP, StrategySpec(StrategyKind.KKKP_PROBE, n=4))],
                             ids=["pp_dense", "kkkp"])
    def test_logged_records_are_immutable(self, kind, spec):
        cfg = ProtocolConfig(kind=kind, rounds=50, seed=3, log_rounds=True)
        _, log = run_session(cfg, spec)
        for rec in (log[0], log[-1]):  # round 0's, and a block's
            for field in ("mode", "alice_bits", "bob_bits", "control_pass", "eve_guess",
                          "eve_blind", "anomaly", "absorbed_count", "kkkp_angles"):
                with pytest.raises(AttributeError):
                    setattr(rec, field, None)
        assert log == round_by_round(cfg, spec)[1]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("filt", FILTERS)
    @pytest.mark.parametrize("lambda_e_nm", [190_000.0, 850.0, 800.0])
    @pytest.mark.parametrize("kind", PING_PONG, ids=lambda k: k.value)
    def test_probe_wavelengths_and_filters(self, kind, lambda_e_nm, filt, seed):
        # 850 nm is visible but outside the default passband, so control
        # rounds see two photons; 800 nm is inside both.
        cfg = ProtocolConfig(kind=kind, filter=FILTERS[filt], rounds=150, seed=seed, log_rounds=True)
        assert_matches_round_by_round(cfg, _probe(kind, lambda_e_nm))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("filt", FILTERS)
    @pytest.mark.parametrize("basis", ["z", "x", 0.3])
    @pytest.mark.parametrize("kind", PING_PONG, ids=lambda k: k.value)
    def test_intercept_bases_and_filters(self, kind, basis, filt, seed):
        cfg = ProtocolConfig(kind=kind, filter=FILTERS[filt], rounds=150, seed=seed, log_rounds=True)
        assert_matches_round_by_round(cfg, StrategySpec(StrategyKind.INTERCEPT_RESEND, basis=basis))

    @pytest.mark.parametrize("kind", PING_PONG, ids=lambda k: k.value)
    def test_control_probability_and_detector(self, kind):
        # A rarer control round, and a detector that cannot see the signal.
        for control_prob, window in ((0.1, (600.0, 900.0)), (0.7, (850.0, 900.0))):
            cfg = ProtocolConfig(kind=kind, control_prob=control_prob, detector=Detector(window),
                                 rounds=200, seed=5, log_rounds=True)
            assert_matches_round_by_round(cfg, _probe(kind, 860.0))

    @given(**ROUTINGS)
    @settings(max_examples=40, deadline=None)
    def test_any_routing_matches_round_by_round(self, **routing):
        # The tree follows whatever the filter, detector and spectroscope
        # do to the photons; nothing about the routing is assumed.
        assert_matches_round_by_round(*_routing_session(**routing))

    def test_blocks_read_each_round_stream_in_its_own_layout(self):
        # A control and a message round read different words; both read
        # at most the words the block engine fetches.
        for kind in PING_PONG:
            cfg = ProtocolConfig(kind=kind)
            adv = make_strategy(_probe(kind))
            blocks = block_form(cfg, adv)
            for index in range(50):
                stream = WordStream(round_rng(3, index).bit_generator.random_raw(blocks.words))
                run_round(cfg, adv, stream)
                assert stream.taken <= blocks.words


def _boundary_rows(cfg: ProtocolConfig, adv: AdversaryStrategy,
                   words: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Pairs of rows: each row altered to put one draw at a threshold its
    scalar run compares that draw with, then just below it.

    u(w) is a multiple of 2**-53, so the draws m * 2**-53 and (m - 1) *
    2**-53, with m = ceil(t * 2**53), sit on either side of the threshold
    t; for t in [0.5, 1) they are t itself and the float just below it.
    Returns the rows and, per pair, the index of the altered word.
    """
    rows, altered_words = [], []
    for row in words:
        stream = WordStream(row)
        run_round(cfg, adv, stream)
        for word, threshold in stream.compared:
            m = math.ceil(threshold * 2**53)
            if 0 < m < 2**53:
                altered_words.append(word)
                for draw in (m, m - 1):
                    altered = row.copy()
                    altered[word] = np.uint64(draw << 11)
                    rows.append(altered)
    return np.array(rows, dtype=np.uint64), altered_words


class TestThresholds:
    """Block outcomes flip at the very draw where the scalar measure flips.

    The oracle tests compare outcomes of random draws, which a small error
    in a probability almost never changes; these put the draws on the
    probabilities themselves.
    """

    def _check(self, cfg: ProtocolConfig, spec: StrategySpec) -> dict[int, list[tuple]]:
        """Block records equal the scalar ones on every boundary row; returns,
        per altered word, the scalar records of each (at, below) pair."""
        adv = make_strategy(spec)
        blocks = block_form(cfg, adv)
        words = _block_words(cfg.seed, 0, 60, blocks.words)
        rows, altered_words = _boundary_rows(cfg, adv, words)
        expected = [run_round(cfg, adv, WordStream(row)) for row in rows]
        assert blocks.run(rows).records() == expected
        pairs: dict[int, list[tuple]] = {}
        for word, at, below in zip(altered_words, expected[0::2], expected[1::2]):
            pairs.setdefault(word, []).append((at, below))
        return pairs

    def _check_extremes(self, cfg: ProtocolConfig, spec: StrategySpec, certain: list[int],
                        monkeypatch) -> tuple[list[RoundRecord], list[np.ndarray]]:
        """Block records equal the scalar ones, and Bob reads Alice's bits, on rows
        whose words ``certain`` are set to 0 and to 2**64 - 1, their draws'
        extremes; returns the scalar records and the probabilities of outcome 1
        the block computes, an array per ``prob_one_real`` call."""
        adv = make_strategy(spec)
        blocks = block_form(cfg, adv)
        words = _block_words(cfg.seed, 0, 60, blocks.words)
        rows = np.concatenate([words, words])
        rows[:len(words), certain] = np.uint64(0)
        rows[len(words):, certain] = np.uint64(2**64 - 1)
        probabilities = []
        compute = quantum.prob_one_real

        def recorded(*args):
            probabilities.append(compute(*args))
            return probabilities[-1]

        monkeypatch.setattr(quantum, "prob_one_real", recorded)
        expected = [run_round(cfg, adv, WordStream(row)) for row in rows]
        assert blocks.run(rows).records() == expected
        assert [rec.bob_bits for rec in expected] == [rec.alice_bits for rec in expected]
        return expected, probabilities

    @pytest.mark.parametrize("filt", ["off", "default"])
    def test_kkkp_bob_decodes_every_draw_of_his_word(self, filt, monkeypatch):
        # Bob's probability of outcome 1 is exactly Alice's bit, so no draw
        # of word 3 has a threshold to flip at.
        records, (bob,) = self._check_extremes(kkkp_cfg(filter=FILTERS[filt], seed=19), NO_EVE, [3],
                                               monkeypatch)
        assert bob.tolist() == [float(rec.alice_bits) for rec in records]

    def test_kkkp_probe_guess_flips_at_the_scalar_threshold(self, monkeypatch):
        # Without theta, the probe readout's threshold is fractional; Bob's is not.
        spec = StrategySpec(StrategyKind.KKKP_PROBE, n=1)
        pairs = self._check(kkkp_cfg(seed=23), spec)
        assert list(pairs) == [4]  # probe readout
        assert {(at.eve_guess, below.eve_guess) for at, below in pairs[4]} == {(0, 1)}
        records, (bob, _) = self._check_extremes(kkkp_cfg(seed=23), spec, [3], monkeypatch)
        assert bob.tolist() == [float(rec.alice_bits) for rec in records]

    def test_kkkp_probe_knowing_theta_reads_every_draw_of_its_word(self, monkeypatch):
        spec = StrategySpec(StrategyKind.KKKP_PROBE, n=1, theta_known=True)
        records, (bob, probe) = self._check_extremes(kkkp_cfg(seed=23), spec, [3, 4], monkeypatch)
        bits = [rec.alice_bits for rec in records]
        assert bob.tolist() == probe.tolist() == list(map(float, bits))
        assert [rec.eve_guess for rec in records] == bits

    @pytest.mark.parametrize("kind, name, spec, filt",
                             [c for c in COMPARE_CELLS if c[0] is not ProtocolKind.KKKP],
                             ids=[i for c, i in zip(COMPARE_CELLS, CELL_IDS) if c[0] is not ProtocolKind.KKKP])
    def test_ping_pong_tables_flip_at_the_scalar_threshold(self, kind, name, spec, filt):
        pairs = self._check(ProtocolConfig(kind=kind, filter=FILTERS[filt], seed=29), spec)
        # Every round compares the mode coin (after an intercept's draw).
        assert pairs
        flipped = [at != below for word_pairs in pairs.values() for at, below in word_pairs]
        assert any(flipped)


def _leaf_intervals(threshold: float, bounds: tuple[int, int] | None = None) -> list[tuple[int, tuple[int, int]]]:
    """What a build makes of ``u < threshold`` on a fresh word, or on one
    whose w >> 11 a path has narrowed to [lo, hi) = ``bounds``: per way the
    decision goes, its outcome (1 for below) and the interval of w >> 11
    its leaves hold, the way the run takes first."""
    whole = (0, 2**53) if bounds is None else bounds
    pending = []
    draws = protocols._BranchDraws([], {} if bounds is None else {0: bounds}, {}, pending)
    ways = [(int(protocols._Draw(draws, 0, 0) < threshold), draws.bounds.get(0, whole))]
    return ways + [(path[-1], queued.get(0, whole)) for path, queued, _ in pending]


def _assert_intervals_decide_as_the_draw(threshold: float, words=(), bounds: tuple[int, int] | None = None):
    """The build's intervals split the draw's [lo, hi) between its ways, and on
    every word the draw can hold, the way whose interval holds w >> 11 is
    ``u(w) < threshold``: on ``words``, 0, 2**64 - 1, and the words
    k * 2**11 + (-1, 0, 1) for k next to or at each end of an interval."""
    lo, hi = (0, 2**53) if bounds is None else bounds
    ways = _leaf_intervals(threshold, bounds)
    intervals = sorted(interval for _, interval in ways)
    assert len({outcome for outcome, _ in ways}) == len(ways) <= 2
    # Nonempty intervals that tile [lo, hi): each starts where the one before ends.
    assert all(a < b for a, b in intervals)
    assert [a for a, _ in intervals] + [hi] == [lo] + [b for _, b in intervals]
    edges = [(k << 11) + d for interval in intervals for m in interval for k in (m - 1, m, m + 1)
             for d in (-1, 0, 1)]
    words = [w for w in [0, 2**64 - 1, *edges, *words] if 0 <= w < 2**64 and lo <= w >> 11 < hi]
    drawn = protocols._uniform(np.array(words, np.uint64)) < threshold
    found = [next(outcome for outcome, (a, b) in ways if a <= w >> 11 < b) for w in words]
    assert drawn.tolist() == list(map(bool, found))


# Thresholds at the edges: grid points j * 2**-53 and their float
# neighbours, subnormals, 1 - 2**-53, and values <= 0, > 1 or NaN, which
# the cut clamps to the ends of the grid.
EDGE_THRESHOLDS = [
    t for j in (0, 1, 2, 3, 2**26 + 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1, 2**53)
    for t in (math.nextafter(j * 2.0**-53, -1.0), j * 2.0**-53, math.nextafter(j * 2.0**-53, 2.0))
] + [5e-324, 2.0**-1022, math.nextafter(2.0**-1022, 0.0), 1 - 2.0**-53,
      -0.0, -5e-324, -1.0, -math.inf, math.nan, 1.5, 2.0, 1e300, math.inf]
GRID_NEIGHBOURS = st.builds(lambda j, way: math.nextafter(j * 2.0**-53, way),
                            st.integers(0, 2**53), st.sampled_from([-1.0, 1.0, 0.5]))


class TestIntegerCuts:
    """A leaf's interval of the raw word decides as the float draw it stands for."""

    @pytest.mark.parametrize("threshold", EDGE_THRESHOLDS, ids=float.hex)
    def test_edge_thresholds(self, threshold):
        _assert_intervals_decide_as_the_draw(threshold)

    @given(threshold=st.floats(-2.0, 2.0) | GRID_NEIGHBOURS, word=st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_any_threshold_and_word(self, threshold, word):
        _assert_intervals_decide_as_the_draw(threshold, [word])

    @given(threshold=st.floats(-2.0, 2.0) | GRID_NEIGHBOURS, ends=st.lists(st.integers(0, 2**53), min_size=2,
                                                                          max_size=2, unique=True),
           word=st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_a_narrowed_draw_clamps_its_cut(self, threshold, ends, word):
        # A path that compared the word before leaves its draw in [lo, hi).
        lo, hi = sorted(ends)
        _assert_intervals_decide_as_the_draw(threshold, [word, lo << 11, (hi << 11) - 1], (lo, hi))

    @given(p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0) | GRID_NEIGHBOURS.map(lambda t: min(max(t, 0.0), 1.0)),
           words=st.lists(st.integers(0, 2**64 - 1), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_a_probability_cuts_the_raw_words_as_the_draws(self, p, words):
        # The kkkp blocks compare Bob's and the probes' words with their
        # probabilities by quantum.draws_below; probed at the words
        # k * 2**11 + (-1, 0, 1) next to and at the cut ceil(p * 2**53).
        cut = math.ceil(p * 2**53)
        edges = [(k << 11) + d for k in (cut - 1, cut, cut + 1) for d in (-1, 0, 1)]
        words = np.array([w for w in [0, 2**64 - 1, *edges, *words] if 0 <= w < 2**64], np.uint64)
        drawn = protocols._uniform(words) < p
        assert quantum.draws_below(words, np.float64(p)).tolist() == drawn.tolist()
        # One probability per row against a row of words, as the probe readouts are.
        rows = np.stack([words, words[::-1]])
        assert np.array_equal(quantum.draws_below(rows, np.array([[p], [p]])), np.stack([drawn, drawn[::-1]]))

    @given(**ROUTINGS)
    @settings(max_examples=40, deadline=None)
    def test_rows_at_every_axis_end_and_field_value_match_round_by_round(self, **routing):
        # Rows whose words sit at each end p * 2**11 of a uniform word's
        # axis and just below it, or hold each value of a half-word field,
        # find a leaf, and the leaf of the round they stand for.
        cfg, spec = _routing_session(**routing)
        adv = make_strategy(spec)
        tree = block_form(cfg, adv)
        rows = _crafted_rows(tree, _block_words(cfg.seed, 0, 12, tree.words))
        block = tree.run(rows)
        assert block.leaves.min() >= 0
        assert block.records() == [run_round(cfg, adv, WordStream(row)) for row in rows]

    def test_a_nan_threshold_session_matches_round_by_round(self, monkeypatch):
        cfg = epr_cfg(rounds=200, seed=3, log_rounds=True)
        adv = _NanThreshold()
        monkeypatch.setattr(harness, "make_strategy", lambda _: adv)
        _, log = run_session(cfg, NO_EVE)
        assert log == [run_round(cfg, adv, round_rng(cfg.seed, i)) for i in range(cfg.rounds)]
        assert {rec.eve_guess for rec in log} == {0}


class _NanThreshold(AdversaryStrategy):
    """Guesses 1 when a uniform is below NaN, which none is."""

    protocols = frozenset({"pp_epr"})

    def finalize(self, ctx):
        return int(ctx.rng.random() < math.nan)


class TestStridedWords:
    """A block reads each row's own words, whatever the stride between rows."""

    @pytest.mark.parametrize("kind, spec, k", [(ProtocolKind.PP_EPR, NO_EVE, 3),
                                               (ProtocolKind.PP_SINGLE, StrategySpec(StrategyKind.IPE), 4)],
                             ids=["pp_epr-no_eve", "pp_single-ipe"])
    def test_strided_and_contiguous_words_match_round_by_round(self, kind, spec, k):
        cfg = ProtocolConfig(kind=kind, seed=13)
        adv = make_strategy(spec)
        assert block_form(cfg, adv).words == k
        strided = _block_words(cfg.seed, 1, 300, 8)[:, :k]
        assert not strided.flags.c_contiguous
        expected = [run_round(cfg, adv, round_rng(cfg.seed, i)) for i in range(1, 300)]
        strided_block, contiguous_block = (block_form(cfg, adv).run(words)
                                           for words in (strided, np.ascontiguousarray(strided)))
        assert strided_block.records() == expected
        assert contiguous_block.records() == expected
        assert np.array_equal(strided_block.leaves, contiguous_block.leaves)


PING_PONG_CELLS = [c for c in COMPARE_CELLS if c[0] is not ProtocolKind.KKKP]
PING_PONG_CELL_IDS = [i for c, i in zip(COMPARE_CELLS, CELL_IDS) if c[0] is not ProtocolKind.KKKP]


def _decision_paths(tree: BranchBlocks) -> int:
    """The leaves of ``tree`` but those of a blind guess's values other than 0,
    which copy the record of the run that drew it."""
    return sum(rec is not None and not (rec.eve_blind and rec.eve_guess) for rec in tree.table)


def assert_built_whole(cfg: ProtocolConfig, spec: StrategySpec, adv: AdversaryStrategy | None = None) -> None:
    """The session's rows build nothing: it runs the round once per decision
    path of its tree, and once more for round 0.  Its results are the scalar
    engine's.  ``adv``, if given, stands in for the strategy ``spec`` makes."""
    paths = _decision_paths(block_form(cfg, make_strategy(spec) if adv is None else adv))
    runs = []
    compute = protocols._round
    with pytest.MonkeyPatch.context() as patch:
        if adv is not None:
            patch.setattr(harness, "make_strategy", lambda _: adv)
        patch.setattr(protocols, "_round", lambda *args: runs.append(args) or compute(*args))
        stats, log = run_session(cfg, spec)
    assert len(runs) == paths + 1
    expected_stats, expected_log = round_by_round(cfg, spec, adv)
    assert stats == expected_stats
    assert log == expected_log
    assert repr(log) == repr(expected_log)


class _RareExtraDraw(AdversaryStrategy):
    """Guesses in one round in 2**40, from a uniform no other round draws.

    Its rare branch reads one word more than any other branch of a
    ``pp_epr`` tree.
    """

    protocols = frozenset({"pp_epr"})
    limit = 2.0**-40

    def finalize(self, ctx):
        if ctx.rng.random() < self.limit:
            return int(ctx.rng.random() < 0.5)
        return None


class _OwnCoin(AdversaryStrategy):
    """Flips a coin of its own in ``finalize`` and calls the round blind when it shows 0.

    The coin decides ``eve_blind`` as well as the guess, so its values are
    decision paths, not copies of one record.
    """

    protocols = frozenset({"pp_epr"})

    def finalize(self, ctx):
        c = ctx.random_bits(1)
        ctx.blind = not c
        return c


def _row_in_each_leaf(tree: BranchBlocks) -> list[tuple[int, np.ndarray]]:
    """Per leaf, a row of words inside its box: at the lower corner of one of
    its keys, lo << 11 on each uniform word's axis and the value on each
    half-word field, 0 in every other bit."""
    sizes = [axis[-1] for axis in tree.cuts + tree.fields]
    rows = []
    for leaf in range(len(tree.table)):
        codes = np.unravel_index(np.flatnonzero(tree.keys == leaf)[0], sizes)
        row = [0] * tree.words
        for (word, ends, _), code in zip(tree.cuts, codes):
            row[word] = int(ends[code - 1]) if code else 0
        for (word, shift, _, _), value in zip(tree.fields, codes[len(tree.cuts):]):
            row[word] |= int(value) << int(shift)
        rows.append((leaf, np.array(row, np.uint64)))
    return rows


def assert_each_leaf_is_its_rows_round(cfg: ProtocolConfig, spec: StrategySpec) -> None:
    """A row inside each leaf's box runs, round by round, to that leaf's record."""
    adv = make_strategy(spec)
    tree = block_form(cfg, adv)
    for leaf, row in _row_in_each_leaf(tree):
        assert run_round(cfg, adv, WordStream(row)) == tree.table[leaf], leaf


class TestRareBranches:
    """Every branch, however rare, is built with the tree, before any row runs."""

    @pytest.mark.parametrize("kind, name, spec, filt", PING_PONG_CELLS, ids=PING_PONG_CELL_IDS)
    def test_compare_cells_match_round_by_round(self, kind, name, spec, filt):
        assert_built_whole(ProtocolConfig(kind=kind, filter=FILTERS[filt], rounds=600, seed=42,
                                          log_rounds=True), spec)

    @given(**ROUTINGS)
    @settings(max_examples=40, deadline=None)
    def test_any_routing_matches_round_by_round(self, **routing):
        assert_built_whole(*_routing_session(**routing))

    @pytest.mark.parametrize("filt", ["off", "default"])
    def test_a_strategy_inspecting_its_own_coin_matches_round_by_round(self, filt):
        # A rule that read a blind guess off the finished record would copy
        # this strategy's blind guess 0 into a blind guess 1, a round it never ends at.
        cfg = epr_cfg(filter=FILTERS[filt], rounds=600, seed=42, log_rounds=True)
        assert_built_whole(cfg, NO_EVE, _OwnCoin())

    @pytest.mark.parametrize("kind, name, spec, filt", PING_PONG_CELLS, ids=PING_PONG_CELL_IDS)
    def test_each_compare_leaf_is_the_round_of_a_row_in_its_box(self, kind, name, spec, filt):
        assert_each_leaf_is_its_rows_round(ProtocolConfig(kind=kind, filter=FILTERS[filt]), spec)

    @given(**ROUTINGS)
    @settings(max_examples=40, deadline=None)
    def test_each_routed_leaf_is_the_round_of_a_row_in_its_box(self, **routing):
        assert_each_leaf_is_its_rows_round(*_routing_session(**routing))

    def test_dense_tree_runs_the_round_once_per_branch_built(self, monkeypatch):
        # One run per decision path: float rounding makes no branch of the
        # pp_dense/ipe_dense tree, and the blind guess's values 1-3 copy the
        # record of the run that reads 0, so 6 runs build its 12 leaves.  A
        # certain outcome takes its draw without comparing it, so the runs
        # compare draws 8 times in all, each a real branch or its replay.
        calls, compared = [], []
        compute, below = protocols._round, protocols._Draw.__lt__

        def counted(*args):
            calls.append(1)
            return compute(*args)

        def counted_below(draw, threshold):
            compared.append(threshold)
            return below(draw, threshold)

        monkeypatch.setattr(protocols, "_round", counted)
        monkeypatch.setattr(protocols._Draw, "__lt__", counted_below)
        tree = block_form(ProtocolConfig(kind=ProtocolKind.PP_DENSE), make_strategy(IPE_DENSE))
        assert len(calls) == 6
        assert len(compared) == 8
        assert len(tree.table) == 12

    def test_a_rare_branch_is_built_up_front(self, monkeypatch):
        # Rows whose strategy draw falls below its limit take a branch of
        # share 2**-40 that reads word 4 of 5; the tree holds it, and every
        # block is fetched once, at 5 words a round.
        monkeypatch.setattr(harness, "BLOCK_ROUNDS", SMALL_BLOCK)
        cfg = epr_cfg(rounds=3 * SMALL_BLOCK + 17, seed=5, log_rounds=True)
        adv = _RareExtraDraw()
        assert block_form(cfg, adv).words == 5
        words = _block_words(cfg.seed, 0, cfg.rounds, 5).copy()
        rare = np.arange(SMALL_BLOCK + 3, cfg.rounds, 11)  # from the second block on
        words[rare, 3] = np.uint64(17 << 11)  # the draw 17 * 2**-53 < 2**-40
        widths = []

        def crafted(seed, start, stop, k):
            widths.append(k)
            return words[start:stop, :k]

        monkeypatch.setattr(harness, "_block_words", crafted)
        monkeypatch.setattr(harness, "make_strategy", lambda _: adv)
        stats, log = run_session(cfg, NO_EVE)
        expected = [run_round(cfg, adv, WordStream(row)) for row in words]
        assert log == expected
        assert sum(rec.eve_guess is not None for rec in log) == len(rare)
        assert stats == session_stats(Counter(map(outcome, expected)), cfg.seed)
        assert widths == [5] * 4


def _keys_of(tree: BranchBlocks, rows: np.ndarray) -> list[int]:
    """Each row's key in ``tree.keys``, read one row at a time: per uniform
    word, the number of its axis ends p << 11 at or below the word, then
    per half-word field, its value."""
    keys = []
    for row in rows.tolist():
        key = 0
        for word, ends, size in tree.cuts:
            key = key * size + sum(row[word] >= int(p) for p in ends)
        for word, shift, mask, size in tree.fields:
            key = key * size + ((row[word] >> int(shift)) & int(mask))
        keys.append(key)
    return keys


def _representative_rows(tree: BranchBlocks) -> np.ndarray:
    """Rows at the edges of every code on every axis: per word, 0, 2**64 - 1
    and the words at and just below each of its axis ends, each with every
    value of each of its half-word fields written in; then every
    combination of the words."""
    per_word = []
    for word in range(tree.words):
        values = {0, 2**64 - 1}
        for _, ends, _ in (axis for axis in tree.cuts if axis[0] == word):
            values |= {int(p) for p in ends} | {int(p) - 1 for p in ends}
        for _, shift, mask, _ in (axis for axis in tree.fields if axis[0] == word):
            shift, mask = int(shift), int(mask)
            values = {v & ~(mask << shift) | f << shift for v in values for f in range(mask + 1)}
        per_word.append(sorted(values))
    return np.array(list(itertools.product(*per_word)), np.uint64)


def _crafted_rows(tree: BranchBlocks, rows: np.ndarray) -> np.ndarray:
    """``rows``, each altered in one word at a time: to each axis end p << 11
    of a uniform word and to the word just below it, and to each value of a
    half-word field."""
    crafted = []
    for word, ends, _ in tree.cuts:
        for value in [v for p in ends for v in (p, p - np.uint64(1))]:
            altered = rows.copy()
            altered[:, word] = value
            crafted.append(altered)
    for word, shift, mask, _ in tree.fields:
        for value in range(int(mask) + 1):
            altered = rows.copy()
            altered[:, word] = altered[:, word] & ~(mask << shift) | np.uint64(value) << shift
            crafted.append(altered)
    return np.concatenate(crafted)


def _ping_pong_cells(keep) -> list:
    """The ping-pong compare cells that ``keep(kind, name, filt)`` accepts, with their ids."""
    return [pytest.param(*cell, id=i) for cell, i in zip(PING_PONG_CELLS, PING_PONG_CELL_IDS)
            if keep(cell[0], cell[1], cell[3])]


class TestPaperClaimsOnTheTrees:
    """The paper's exact claims hold on every leaf of the ``compare`` trees.

    A leaf is a way a round can end, however rare, so a claim that holds
    on every leaf holds on every round, with no float rounding to spoil it.
    """

    @staticmethod
    def _tree(kind: ProtocolKind, spec: StrategySpec, filt: str) -> BranchBlocks:
        return block_form(ProtocolConfig(kind=kind, filter=FILTERS[filt]), make_strategy(spec))

    @pytest.mark.parametrize("kind, name, spec, filt", PING_PONG_CELLS, ids=PING_PONG_CELL_IDS)
    def test_every_leaf_owns_a_key_and_no_reached_key_is_empty(self, kind, name, spec, filt):
        # Rows at the edges of every code find a leaf at each key they reach,
        # the leaf of the round they stand for, and between them every leaf.
        # Every other key holds a leaf or -1.
        tree = self._tree(kind, spec, filt)
        rows = _representative_rows(tree)
        found = tree.keys[_keys_of(tree, rows)]
        assert found.min() >= 0
        assert set(found.tolist()) == set(range(len(tree.table)))
        assert -1 <= tree.keys.min() and tree.keys.max() < len(tree.table)
        cfg, adv = ProtocolConfig(kind=kind, filter=FILTERS[filt]), make_strategy(spec)
        sample = np.random.default_rng(len(rows)).choice(len(rows), min(len(rows), 300), replace=False)
        assert tree.run(rows[sample]).records() == [run_round(cfg, adv, WordStream(row)) for row in rows[sample]]

    @pytest.mark.parametrize("kind, name, spec, filt", _ping_pong_cells(
        lambda kind, name, filt: name == "no_eve" or name.startswith("ipe") and filt == "off"))
    def test_no_error_no_failed_check_and_every_guess_right(self, kind, name, spec, filt):
        # Honest Bob always decodes, and with the filter off an invisible
        # probe reads every message and fails no check.
        leaves = [rec for rec in self._tree(kind, spec, filt).table if rec is not None]
        assert {rec.mode for rec in leaves} == {Mode.CONTROL, Mode.MESSAGE}
        for rec in leaves:
            assert rec.control_pass is not False
            if rec.mode is Mode.MESSAGE:
                assert rec.bob_bits == rec.alice_bits
                assert rec.eve_guess == (None if name == "no_eve" else rec.alice_bits)

    @pytest.mark.parametrize("kind, name, spec, filt", _ping_pong_cells(
        lambda kind, name, filt: name == "intercept_resend_z" and kind is not ProtocolKind.PP_SINGLE))
    def test_z_intercept_fails_no_pair_check(self, kind, name, spec, filt):
        # Measuring the travel half in Z keeps the pair's Z anticorrelation,
        # which is all the control check of pp_epr and pp_dense tests.
        leaves = [rec for rec in self._tree(kind, spec, filt).table if rec is not None]
        checks = [rec.control_pass for rec in leaves if rec.mode is Mode.CONTROL]
        assert checks and False not in checks


def _engine(kind: ProtocolKind, spec: StrategySpec):
    cfg = ProtocolConfig(kind=kind)
    form = block_form(cfg, make_strategy(spec))
    return None if form is None else type(form)


IPE = StrategySpec(StrategyKind.IPE)
IPE_DENSE = StrategySpec(StrategyKind.IPE_DENSE)
INTERCEPT = StrategySpec(StrategyKind.INTERCEPT_RESEND, basis=0.3)
KKKP_PROBE = StrategySpec(StrategyKind.KKKP_PROBE, n=4)


class TestEngineChoice:
    @pytest.mark.parametrize("kind, name, spec, filt", COMPARE_CELLS, ids=CELL_IDS)
    def test_compare_cells_run_in_blocks(self, kind, name, spec, filt):
        expected = KkkpBlocks if kind is ProtocolKind.KKKP else BranchBlocks
        assert _engine(kind, spec) is expected

    @pytest.mark.parametrize("kind, spec", [
        (ProtocolKind.PP_DENSE, IPE),
        (ProtocolKind.PP_EPR, IPE_DENSE),
        (ProtocolKind.PP_SINGLE, IPE_DENSE),
        (ProtocolKind.PP_EPR, KKKP_PROBE),
        (ProtocolKind.PP_SINGLE, KKKP_PROBE),
        (ProtocolKind.PP_DENSE, KKKP_PROBE),
        (ProtocolKind.KKKP, IPE_DENSE),
    ], ids=lambda v: v.value if isinstance(v, ProtocolKind) else v.kind.value)
    def test_mismatched_pairs_run_round_by_round(self, kind, spec):
        assert _engine(kind, spec) is None

    @pytest.mark.parametrize("spec", [IPE, INTERCEPT], ids=lambda v: v.kind.value)
    def test_kkkp_pairs_without_a_kkkp_block_form_run_round_by_round(self, spec):
        # Accepted pairs: the strategy lists kkkp but has no kkkp_block_form.
        assert ProtocolKind.KKKP.value in type(make_strategy(spec)).protocols
        assert _engine(ProtocolKind.KKKP, spec) is None

    @pytest.mark.parametrize("kind", PING_PONG, ids=lambda k: k.value)
    def test_probe_overriding_a_hook_runs_round_by_round(self, kind, monkeypatch):
        spec = _probe(kind)
        base = type(make_strategy(spec))

        class CountingProbe(base):
            finalized = 0

            def finalize(self, ctx):
                self.finalized += 1
                return super().finalize(ctx)

        cfg = ProtocolConfig(kind=kind, rounds=BLOCK_ROUNDS + 3, seed=11, log_rounds=True)
        expected = run_session(cfg, spec)
        adv = CountingProbe(spec.lambda_e_nm)
        assert block_form(cfg, adv) is None
        monkeypatch.setattr(harness, "make_strategy", lambda _: adv)
        assert run_session(cfg, spec) == expected
        assert adv.finalized == cfg.rounds

    @pytest.mark.parametrize("kind", PING_PONG, ids=lambda k: k.value)
    def test_probe_listing_its_protocols_again_runs_in_blocks(self, kind, monkeypatch):
        spec = _probe(kind)
        base = type(make_strategy(spec))

        class ListingProbe(base):  # overrides a hook, and lists its protocols again
            protocols = base.protocols

            def finalize(self, ctx):
                return super().finalize(ctx)

        cfg = ProtocolConfig(kind=kind, rounds=BLOCK_ROUNDS + 3, seed=11, log_rounds=True)
        adv = ListingProbe(spec.lambda_e_nm)
        assert type(block_form(cfg, adv)) is BranchBlocks
        monkeypatch.setattr(harness, "make_strategy", lambda _: adv)
        assert run_session(cfg, spec) == round_by_round(cfg, spec)

    def test_kkkp_probe_listing_kkkp_without_a_block_form_runs_round_by_round(self):
        class ListingProbe(type(make_strategy(KKKP_PROBE))):
            protocols = frozenset({"kkkp"})

        assert block_form(kkkp_cfg(), ListingProbe(4, 190_000.0, False)) is None

    @pytest.mark.parametrize("kind, name, spec, filt", COMPARE_CELLS, ids=CELL_IDS)
    def test_round_zero_runs_through_run_round(self, kind, name, spec, filt, monkeypatch):
        # Block sessions still run their first round through
        # harness.run_round, where a profiler can stop at the first round.
        calls = []

        def counting(cfg, adv, rng):
            calls.append(1)
            return run_round(cfg, adv, rng)

        monkeypatch.setattr(harness, "run_round", counting)
        cfg = ProtocolConfig(kind=kind, filter=FILTERS[filt], rounds=7)
        run_session(cfg, spec)
        assert len(calls) == 1

    def test_round_by_round_sessions_call_run_round_every_round(self, monkeypatch):
        calls = []

        def counting(cfg, adv, rng):
            calls.append(1)
            return run_round(cfg, adv, rng)

        monkeypatch.setattr(harness, "run_round", counting)
        run_session(ProtocolConfig(kind=ProtocolKind.PP_DENSE, rounds=7), IPE)
        assert len(calls) == 7

    @pytest.mark.parametrize("code", [
        "ppsim.cli.main(['compare', '--rounds', '50', '-o', sys.argv[1]])",
        "ppsim.run_session(ppsim.ProtocolConfig(kind=ppsim.ProtocolKind.KKKP, control_prob=0.0, rounds=5),"
        " ppsim.StrategySpec(ppsim.StrategyKind.IPE))",
        "ppsim.run_session(ppsim.ProtocolConfig(kind=ppsim.ProtocolKind.KKKP, control_prob=0.0, rounds=5),"
        " ppsim.StrategySpec(ppsim.StrategyKind.INTERCEPT_RESEND))",
        "ppsim.run_session(ppsim.ProtocolConfig(kind=ppsim.ProtocolKind.PP_DENSE, rounds=5),"
        " ppsim.StrategySpec(ppsim.StrategyKind.IPE))",
    ], ids=["compare", "kkkp-ipe", "kkkp-intercept_resend", "pp_dense-ipe"])
    def test_no_session_imports_numpy_random(self, code, tmp_path):
        # Every round reads Philox words (WordStream); round_rng, which the
        # tests pin those words to, is the only user of numpy.random.
        script = f"import sys, ppsim, ppsim.cli\n{code}\nprint('numpy.random' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "matrix.csv")], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        assert proc.stdout.split() == ["False"]


class TestGuessWidth:
    @pytest.mark.parametrize("kind, spec", [
        (ProtocolKind.PP_DENSE, IPE),
        (ProtocolKind.PP_DENSE, KKKP_PROBE),
        (ProtocolKind.PP_EPR, IPE_DENSE),
        (ProtocolKind.PP_SINGLE, IPE_DENSE),
        (ProtocolKind.KKKP, IPE_DENSE),
    ], ids=lambda v: v.value if isinstance(v, ProtocolKind) else v.kind.value)
    def test_a_guess_of_another_width_is_not_scored(self, kind, spec):
        cfg = ProtocolConfig(kind=kind, rounds=500, seed=42)
        stats, _ = run_session(cfg, spec)
        guessed, _ = round_by_round(cfg, spec)
        assert guessed.eve_accuracy is not None and guessed.eve_mutual_info_bits is not None
        assert stats == replace(guessed, eve_accuracy=None, eve_mutual_info_bits=None)


class TestSharedWords:
    """Sessions on one seed share a block's words; their results do not depend on it."""

    @pytest.mark.parametrize("kind, name, spec, filt", COMPARE_CELLS, ids=CELL_IDS)
    def test_a_second_same_seed_session_runs_no_philox_pass(self, kind, name, spec, filt,
                                                            philox_passes, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_ROUNDS", SMALL_BLOCK)
        cfg = ProtocolConfig(kind=kind, filter=FILTERS[filt], rounds=3 * SMALL_BLOCK + 17, seed=42, log_rounds=True)
        first = run_session(cfg, spec)
        assert len(philox_passes) == 4
        assert run_session(cfg, spec) == first
        assert len(philox_passes) == 4
        run_session(replace(cfg, seed=43), spec)
        assert run_session(cfg, spec) == first
        assert len(philox_passes) == 12  # the session on another seed dropped the words

    def test_a_narrower_request_is_served_by_a_wider_block(self, philox_passes):
        wide = _block_words(7, 1, 65, 8)
        assert np.array_equal(_block_words(7, 1, 65, 3), wide[:, :3])
        assert len(philox_passes) == 1
        wider = _block_words(7, 1, 65, 9)
        assert philox_passes[1] == (7, 1, 65, 3)  # three Philox blocks of four words
        assert np.array_equal(wider[:, :8], wide)
        _block_words(7, 1, 65, 12)
        assert len(philox_passes) == 2

    @pytest.mark.parametrize("k", [5, 8])
    def test_words_are_read_only(self, k, philox_passes):
        # The second call is served from the block the first one computed.
        for words in (_block_words(7, 1, 65, 8), _block_words(7, 1, 65, k)):
            with pytest.raises(ValueError):
                words[0, 0] = 0
        assert len(philox_passes) == 1

    @pytest.mark.parametrize("spec, kept", [
        (NO_EVE, 5),
        (StrategySpec(StrategyKind.KKKP_PROBE, n=8), 5),
        (StrategySpec(StrategyKind.KKKP_PROBE, n=16), 3),
    ], ids=["4_words", "12_words", "20_words"])
    def test_kept_words_stay_within_the_budget(self, spec, kept, philox_passes):
        # The rounds run in five blocks; the budget keeps the first ones,
        # which the next session on the seed reads without a Philox pass.
        cfg = kkkp_cfg(rounds=5 * BLOCK_ROUNDS, seed=3)
        first = run_session(cfg, spec)
        assert len(philox_passes) == 5
        assert list(harness._words) == [(3, i * BLOCK_ROUNDS, (i + 1) * BLOCK_ROUNDS) for i in range(kept)]
        assert sum(w.nbytes for w in harness._words.values()) <= harness._WORDS_BUDGET
        assert run_session(cfg, spec) == first
        assert len(philox_passes) == 10 - kept

    def test_a_full_budget_keeps_the_blocks_it_holds(self, philox_passes, monkeypatch):
        monkeypatch.setattr(harness, "_WORDS_BUDGET", 3 * 64 * 4 * 8)  # three 64-round blocks of 4 words
        for start in (1, 65, 129, 193):
            _block_words(7, start, start + 64, 4)
        assert list(harness._words) == [(7, 1, 65), (7, 65, 129), (7, 129, 193)]
        wide = _block_words(7, 1, 65, 8)  # too wide to replace the kept block
        assert harness._words[(7, 1, 65)].shape == (64, 4)
        assert np.array_equal(_block_words(7, 1, 65, 4), wide[:, :4])
        assert len(philox_passes) == 5

    def test_threads_get_the_serial_results(self, philox_passes, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_ROUNDS", SMALL_BLOCK)
        dense = ProtocolConfig(kind=ProtocolKind.PP_DENSE, rounds=700, seed=1, log_rounds=True)
        sessions = [
            (dense, _probe(ProtocolKind.PP_DENSE)),
            (dense, StrategySpec(StrategyKind.INTERCEPT_RESEND)),
            (replace(dense, seed=2), _probe(ProtocolKind.PP_DENSE)),
            (kkkp_cfg(rounds=700, seed=1), StrategySpec(StrategyKind.KKKP_PROBE, n=4)),
            (kkkp_cfg(rounds=700, seed=3), NO_EVE),
        ] * 3
        serial = [run_session(cfg, spec) for cfg, spec in sessions]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run_session, cfg, spec) for cfg, spec in sessions]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


# The session memo's grid, fixed before its first run: every pair a
# scenario accepts, the per-round kkkp pairs among them, behind filters and
# detector windows around the 800 nm signal, with the probe far out
# (190000 nm), within 1 nm of the signal (800.5 nm) and at 1550 nm.  The
# passbands and windows give each wavelength both verdicts, so the keys
# both group sessions and part them; a probe near the signal groups with
# one far from it wherever their verdicts agree.
MEMO_SEEDS = (42, 2718281828)
MEMO_ROUNDS = 150
MEMO_PASSBANDS = (None, (799.95, 800.05), (640.0, 900.0), (700.0, 750.0), (700.0, 200_000.0))
MEMO_WINDOWS = ((600.0, 900.0), (600.0, 800.25), (700.0, 2000.0))
MEMO_PROBE_NM = (190_000.0, 800.5, 1550.0)
MEMO_PAIRS = [(kind, kind_of_attack) for kind in PING_PONG for kind_of_attack in (
    StrategyKind.NO_EVE, StrategyKind.INTERCEPT_RESEND,
    StrategyKind.IPE_DENSE if kind is ProtocolKind.PP_DENSE else StrategyKind.IPE,
)] + [(ProtocolKind.KKKP, kind_of_attack) for kind_of_attack in (
    StrategyKind.NO_EVE, StrategyKind.KKKP_PROBE, StrategyKind.IPE, StrategyKind.INTERCEPT_RESEND)]
PROBING = (StrategyKind.IPE, StrategyKind.IPE_DENSE, StrategyKind.KKKP_PROBE)


def _memo_sessions(kind: ProtocolKind, attack: StrategyKind):
    """The logged sessions of the memo's grid for one pair."""
    for seed, probe_nm, passband, window in itertools.product(
            MEMO_SEEDS, MEMO_PROBE_NM if attack in PROBING else MEMO_PROBE_NM[:1], MEMO_PASSBANDS, MEMO_WINDOWS):
        cfg = ProtocolConfig(kind=kind, control_prob=0.0 if kind is ProtocolKind.KKKP else 0.3,
                             filter=None if passband is None else OpticalFilter(passband),
                             detector=Detector(window), rounds=MEMO_ROUNDS, seed=seed, log_rounds=True)
        yield cfg, StrategySpec(attack, probe_nm, basis=0.4, n=2)


def _verdicts(cfg: ProtocolConfig, spec: StrategySpec) -> tuple:
    """The filter's and the detector's verdicts on each wavelength the session's photons carry."""
    lo, hi = cfg.detector.window_nm
    carried = (cfg.signal_wavelength_nm,) + ((spec.lambda_e_nm,) if spec.kind in PROBING else ())
    return tuple((cfg.filter is None or cfg.filter.transmits(nm), lo <= nm <= hi) for nm in carried)


class TestSessionMemo:
    """``run_session(..., shared=d)`` computes each distinct session once per dict."""

    @pytest.mark.parametrize("kind, attack", MEMO_PAIRS, ids=lambda v: v.value)
    def test_equal_keys_give_equal_sessions(self, kind, attack, sessions_computed):
        shared, groups, sessions = {}, {}, 0
        for cfg, spec in _memo_sessions(kind, attack):
            stats, log = run_session(cfg, spec)
            memo_stats, memo_log = run_session(cfg, spec, shared=shared)
            assert (repr(memo_stats), repr(memo_log)) == (repr(stats), repr(log))
            # lambda_e_nm reaches a session only through its verdicts; the spec's
            # other fields are the same in every session of the pair.
            groups.setdefault((cfg.seed, _verdicts(cfg, spec)), set()).add((repr(stats), repr(log)))
            sessions += 1
        assert all(len(results) == 1 for results in groups.values())
        assert len(shared) == len(groups) < sessions
        assert len(sessions_computed) == sessions + len(groups)

    def test_a_hit_returns_the_stored_stats_and_a_fresh_log(self, sessions_computed):
        cfg = ProtocolConfig(kind=ProtocolKind.PP_EPR, rounds=300, seed=5, log_rounds=True)
        shared = {}
        stats, log = run_session(cfg, IPE, shared=shared)
        log.clear()
        # A passband that admits the signal and the probe: the verdicts of no filter.
        wide = replace(cfg, filter=OpticalFilter((700.0, 200_000.0)))
        again, again_log = run_session(wide, IPE, shared=shared)
        assert again is stats and again_log == run_session(cfg, IPE)[1] != []
        assert isinstance(again_log, list) and len(sessions_computed) == 2

    def test_a_detector_edge_that_shows_the_probe_misses(self, sessions_computed):
        # A 950 nm probe is invisible to a window that ends just below it and
        # visible to one that ends at it: control rounds then see two photons.
        spec = StrategySpec(StrategyKind.IPE, 950.0)
        shared, results = {}, []
        for hi in (math.nextafter(950.0, 0.0), 950.0):
            cfg = ProtocolConfig(kind=ProtocolKind.PP_EPR, detector=Detector((600.0, hi)), rounds=300, seed=5)
            results.append(run_session(cfg, spec, shared=shared))
            assert results[-1] == run_session(cfg, spec)
        assert len(shared) == 2 and len(sessions_computed) == 4
        assert results[0][0].anomaly_count == 0 < results[1][0].anomaly_count

    def test_a_filter_edge_that_flips_the_signal_misses(self, sessions_computed):
        shared, results = {}, []
        for lo in (800.0, math.nextafter(800.0, math.inf)):
            cfg = ProtocolConfig(kind=ProtocolKind.PP_EPR, filter=OpticalFilter((lo, 800.05)), rounds=300, seed=5)
            results.append(run_session(cfg, NO_EVE, shared=shared))
            assert results[-1] == run_session(cfg, NO_EVE)
        assert len(shared) == 2 and len(sessions_computed) == 4
        assert results[0][0].absorbed_total == 0 < results[1][0].absorbed_total

    @pytest.mark.parametrize("change, spec", [
        ({"kind": ProtocolKind.PP_SINGLE}, NO_EVE),
        ({"control_prob": 0.25}, NO_EVE),
        ({"signal_wavelength_nm": 800.01}, NO_EVE),
        ({"rounds": 301}, NO_EVE),
        ({"seed": 6}, NO_EVE),
        ({"log_rounds": True}, NO_EVE),
        ({}, StrategySpec(StrategyKind.INTERCEPT_RESEND)),
    ], ids=["kind", "control_prob", "signal", "rounds", "seed", "log_rounds", "strategy"])
    def test_every_other_field_parts_sessions(self, change, spec):
        cfg = ProtocolConfig(kind=ProtocolKind.PP_EPR, rounds=300, seed=5)
        other = replace(cfg, **change)
        shared = {}
        run_session(cfg, NO_EVE, shared=shared)
        assert run_session(other, spec, shared=shared) == run_session(other, spec)
        assert len(shared) == 2

    def test_without_a_dict_every_call_computes(self, sessions_computed):
        cfg = ProtocolConfig(kind=ProtocolKind.PP_EPR, rounds=300, seed=5)
        assert run_session(cfg, NO_EVE) == run_session(cfg, NO_EVE)
        assert len(sessions_computed) == 2

    def test_a_bad_config_still_raises(self):
        cfg = ProtocolConfig(kind=ProtocolKind.PP_EPR, rounds=300, seed=5)
        shared = {}
        run_session(cfg, NO_EVE, shared=shared)
        with pytest.raises(ConfigError):
            run_session(replace(cfg, control_prob=1.5), NO_EVE, shared=shared)
        with pytest.raises(ConfigError):
            run_session(cfg, StrategySpec(StrategyKind.NO_EVE, basis="diagonal"), shared=shared)
