"""Tests for the session runner, statistics and information estimates."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsim import adversaries, harness
from ppsim.adversaries import AdversaryStrategy, StrategyKind, StrategySpec, make_strategy
from ppsim.harness import (
    BLOCK_ROUNDS,
    _Accumulator,
    _block_words,
    _stream_factory,
    channel_mutual_information,
    mutual_information,
    qber,
    round_rng,
    run_session,
)
from ppsim.optics import OpticalFilter, default_filter
from ppsim.protocols import (
    ConfigError,
    KkkpBlocks,
    Mode,
    ProtocolConfig,
    ProtocolKind,
    RoundRecord,
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


class TestQber:
    def _msg(self, alice, bob):
        return RoundRecord(mode=Mode.MESSAGE, alice_bits=alice, bob_bits=bob)

    def test_all_correct(self):
        assert qber([self._msg(b, b) for b in (0, 1, 0)]) == 0.0

    def test_partial_dense_mismatch_counts_as_one_error(self):
        # one of two bits wrong (0b10 vs 0b00) is one errored round
        records = [self._msg(0b10, 0b00), self._msg(0b11, 0b11)]
        assert qber(records) == 0.5

    def test_erasure_counts_as_error(self):
        assert qber([self._msg(1, None), self._msg(1, 1)]) == 0.5

    def test_control_rounds_ignored(self):
        records = [RoundRecord(mode=Mode.CONTROL, control_pass=True), self._msg(0, 0)]
        assert qber(records) == 0.0

    def test_no_message_rounds_rejected(self):
        with pytest.raises(ValueError):
            qber([RoundRecord(mode=Mode.CONTROL, control_pass=True)])


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

    def test_reused_stream_matches_fresh_streams(self):
        # Each round leaves the reused generator mid-block and, after an odd
        # number of 32-bit draws, holding a cached half; neither may leak
        # into the next round's stream.
        def draws(gen):
            return [gen.random(), int(gen.integers(0, 2)), *gen.random(3).tolist(),
                    int(gen.integers(0, 4)), gen.random(), int(gen.integers(0, 2))]

        stream_at = _stream_factory(7)
        for index in (0, 5, 1, 123, 2**40, 5):
            assert draws(stream_at(index)) == draws(round_rng(7, index))


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


def kkkp_cfg(**kw) -> ProtocolConfig:
    return ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.0, log_rounds=True, **kw)


def round_by_round(cfg: ProtocolConfig, spec: StrategySpec):
    """The oracle: run_round on fresh round_rng streams, aggregated record by record."""
    adv = make_strategy(spec)
    acc = _Accumulator()
    log = [run_round(cfg, adv, round_rng(cfg.seed, i)) for i in range(cfg.rounds)]
    for rec in log:
        acc.add(rec)
    return acc.stats(cfg.seed), log


SEEDS = (42, 7, 123456789)
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
        # inside it and inside the spectroscope band of the signal.
        spec = StrategySpec(spec.kind, lambda_e_nm, n=spec.n, theta_known=spec.theta_known)
        cfg = kkkp_cfg(rounds=120, seed=seed, filter=FILTERS[filt])
        assert run_session(cfg, spec) == round_by_round(cfg, spec)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("filt", FILTERS)
    def test_no_eve_matches_round_by_round(self, filt, seed):
        cfg = kkkp_cfg(rounds=120, seed=seed, filter=FILTERS[filt])
        assert run_session(cfg, NO_EVE) == round_by_round(cfg, NO_EVE)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rounds", [1, 2, BLOCK_ROUNDS, BLOCK_ROUNDS + 1, 3 * BLOCK_ROUNDS + 17])
    @pytest.mark.parametrize("spec", [
        NO_EVE,
        StrategySpec(StrategyKind.KKKP_PROBE, n=4),
        StrategySpec(StrategyKind.KKKP_PROBE, n=1, theta_known=True),
    ], ids=["no_eve", "n4", "n1_known"])
    def test_block_boundaries(self, spec, rounds, seed):
        cfg = kkkp_cfg(rounds=rounds, seed=seed)
        assert run_session(cfg, spec) == round_by_round(cfg, spec)

    def test_blocks_read_the_head_of_each_round_stream(self):
        for seed in SEEDS:
            for k in (3, 4, 20):
                words = _block_words(_stream_factory(seed), 5, 5 + 9, k)
                assert words.shape == (9, k)
                for row, index in zip(words, range(5, 14)):
                    assert row.tolist() == round_rng(seed, index).bit_generator.random_raw(k).tolist()

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
