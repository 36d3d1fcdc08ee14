"""Behavioural tests for the eavesdropping strategies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from ppsim import harness, quantum
from ppsim.adversaries import (
    BLIND_GUESS,
    AdversaryStrategy,
    RoundContext,
    StrategyKind,
    StrategySpec,
    make_strategy,
)
from ppsim.optics import ConfigError
from ppsim.harness import round_rng, run_session
from ppsim.optics import EVE_WAVELENGTH_NM, Detector, Leg, OpticalFilter, Photon, Pulse, default_filter
from ppsim.protocols import (
    Mode,
    ProtocolConfig,
    ProtocolKind,
    run_round,
)
from ppsim.quantum import BASIS_X, BASIS_Z, Prep

RNG = np.random.default_rng
ALWAYS_MESSAGE = 1e-12
ALWAYS_CONTROL = 1.0 - 1e-12


def epr_cfg(**kw) -> ProtocolConfig:
    return ProtocolConfig(kind=ProtocolKind.PP_EPR, **kw)


class TestRoundContext:
    @pytest.mark.parametrize("make_rng", [lambda: round_rng(42, 3), lambda: RNG(5)],
                             ids=["philox", "pcg64"])
    def test_random_bits_match_integers(self, make_rng):
        # Interleaved with 64-bit draws and run back to back, so that the
        # bit generator's cached 32-bit half is both used and skipped.
        ours, ref = make_rng(), make_rng()
        ctx = RoundContext(rng=ours)
        for i in range(6000):
            step = i % 9
            if step in (0, 1, 5):
                assert ctx.random_bits(1) == int(ref.integers(0, 2))
            elif step in (2, 6):
                assert ctx.random_bits(2) == int(ref.integers(0, 4))
            elif step == 7:
                assert ctx.random_bits(5) == int(ref.integers(0, 32))
            else:
                assert ours.random() == ref.random()

    @pytest.mark.parametrize("width", [0, 32, 33, -1])
    def test_random_bits_rejects_widths_outside_1_to_31(self, width):
        rng = round_rng(42, 3)
        state = repr(rng.bit_generator.state)
        with pytest.raises(ValueError, match="1 to 31"):
            RoundContext(rng=rng).random_bits(width)
        assert repr(rng.bit_generator.state) == state  # nothing drawn

    def test_a_session_asking_for_32_bits_raises(self, monkeypatch):
        class Wide(AdversaryStrategy):  # lists no protocols of its own, so it runs round by round
            def finalize(self, ctx):
                return ctx.random_bits(32)

        monkeypatch.setattr(harness, "make_strategy", lambda _: Wide())
        with pytest.raises(ValueError, match="1 to 31"):
            run_session(epr_cfg(rounds=20), StrategySpec(StrategyKind.NO_EVE))

    def test_blind_guess_flags_the_round(self):
        ctx = RoundContext(rng=RNG(0))
        assert ctx.blind_guess() is BLIND_GUESS
        assert ctx.blind

    def test_round_state_defaults(self):
        ctx = RoundContext(rng=RNG(0))
        assert (ctx.blind, ctx.kkkp_theta, ctx.readout) == (False, 0.0, None)
        assert len(ctx.probe_ids) == 0
        assert len(ctx.captured) == 0

    def test_photon_ids_are_fresh(self):
        ctx = RoundContext(rng=RNG(0))
        first = ctx.new_photon_id()
        block = ctx.new_photon_ids(3)
        assert list(block) == [first + 1, first + 2, first + 3]
        assert ctx.new_photon_id() == first + 4


class TestNoEve:
    def test_hooks_are_identity(self):
        adv = make_strategy(StrategySpec(StrategyKind.NO_EVE))
        ctx = RoundContext(rng=RNG(0))
        pulse = Pulse(Leg.B_TO_A, [Photon(0, 800.0, quantum.make_single(Prep.ZERO), 0)])
        assert adv.on_b_to_a(pulse, ctx) is pulse
        assert adv.on_a_to_b(pulse, ctx) is pulse

    def test_never_guesses(self):
        adv = make_strategy(StrategySpec(StrategyKind.NO_EVE))
        assert adv.finalize(RoundContext(rng=RNG(0))) is None

    def test_session_has_no_eve_statistics(self):
        stats, _ = run_session(epr_cfg(rounds=500), StrategySpec(StrategyKind.NO_EVE))
        assert stats.eve_accuracy is None
        assert stats.eve_mutual_info_bits is None
        assert stats.blind_rounds == 0


class TestInvisiblePhotonEavesdropping:
    def test_reads_phase_encoding_exactly(self):
        cfg = epr_cfg(control_prob=ALWAYS_MESSAGE)
        rng = RNG(20)
        adv = make_strategy(StrategySpec(StrategyKind.IPE))
        for _ in range(60):
            rec = run_round(cfg, adv, rng)
            assert rec.eve_guess == rec.alice_bits
            assert not rec.eve_blind

    def test_reads_single_photon_encoding_exactly(self):
        cfg = ProtocolConfig(kind=ProtocolKind.PP_SINGLE, control_prob=ALWAYS_MESSAGE)
        rng = RNG(21)
        adv = make_strategy(StrategySpec(StrategyKind.IPE))
        for _ in range(60):
            rec = run_round(cfg, adv, rng)
            assert rec.eve_guess == rec.alice_bits

    def test_control_round_leaves_eve_blind(self):
        cfg = epr_cfg(control_prob=ALWAYS_CONTROL)
        rec = run_round(cfg, make_strategy(StrategySpec(StrategyKind.IPE)), RNG(22))
        assert rec.mode is Mode.CONTROL
        assert rec.eve_blind
        assert rec.eve_guess in (0, 1)
        assert not rec.anomaly  # far-infrared probe is invisible

    @pytest.mark.parametrize("kind", [StrategyKind.IPE, StrategyKind.IPE_DENSE], ids=lambda k: k.value)
    def test_the_round_draws_a_blind_guess_last(self, kind):
        # finalize only flags the round; the round then draws the strategy's
        # width of bits, where a random_bits call in finalize would have.
        adv = make_strategy(StrategySpec(kind))
        ctx = RoundContext(rng=RNG(0))
        assert adv.finalize(ctx) is BLIND_GUESS and ctx.blind
        protocol = ProtocolKind.PP_DENSE if adv.width == 2 else ProtocolKind.PP_EPR
        cfg = ProtocolConfig(kind=protocol, control_prob=ALWAYS_CONTROL)
        for seed in range(20):
            rng = round_rng(seed, 0)
            rec = run_round(cfg, adv, rng)
            draws = round_rng(seed, 0)
            # Coin, then the control check's measurements of travel and home halves.
            for _ in range(3):
                draws.random()
            assert rec.eve_blind
            assert rec.eve_guess == RoundContext(rng=draws).random_bits(adv.width)
            assert repr(rng.bit_generator.state) == repr(draws.bit_generator.state)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_zero_disturbance(self, seed):
        stats, _ = run_session(epr_cfg(rounds=2000, seed=seed), StrategySpec(StrategyKind.IPE))
        assert stats.qber == 0.0
        assert stats.control_failure_rate == 0.0
        assert stats.anomaly_count == 0

    def test_full_leakage_over_session(self):
        stats, log = run_session(epr_cfg(rounds=2000, log_rounds=True), StrategySpec(StrategyKind.IPE))
        assert stats.eve_accuracy == 1.0
        assert stats.eve_mutual_info_bits == 1.0
        for rec in log:
            if rec.mode is Mode.MESSAGE:
                assert rec.eve_guess == rec.alice_bits

    def test_filter_blinds_the_attack(self):
        stats, _ = run_session(
            epr_cfg(rounds=4000, filter=default_filter()), StrategySpec(StrategyKind.IPE)
        )
        assert stats.blind_rounds == 4000
        assert stats.absorbed_total == 4000
        sigma = math.sqrt(0.25 / stats.message_rounds)
        assert abs(stats.eve_accuracy - 0.5) < 3 * sigma
        assert stats.eve_mutual_info_bits < 0.01
        assert stats.qber == 0.0


class TestDenseInvisiblePhotonEavesdropping:
    def test_reads_both_bits_exactly(self):
        cfg = ProtocolConfig(kind=ProtocolKind.PP_DENSE, control_prob=ALWAYS_MESSAGE)
        rng = RNG(23)
        adv = make_strategy(StrategySpec(StrategyKind.IPE_DENSE))
        seen = set()
        for _ in range(80):
            rec = run_round(cfg, adv, rng)
            assert rec.eve_guess == rec.alice_bits
            seen.add(rec.alice_bits)
        assert seen == {0, 1, 2, 3}

    def test_invisible_over_session(self):
        cfg = ProtocolConfig(kind=ProtocolKind.PP_DENSE, rounds=2000)
        stats, _ = run_session(cfg, StrategySpec(StrategyKind.IPE_DENSE))
        assert stats.anomaly_count == 0
        assert stats.qber == 0.0
        assert stats.control_failure_rate == 0.0
        assert stats.eve_accuracy == 1.0
        assert stats.eve_mutual_info_bits == 2.0


class TestInterceptResend:
    def test_z_collapse_passes_epr_control(self):
        cfg = epr_cfg(control_prob=ALWAYS_CONTROL)
        rng = RNG(24)
        adv = make_strategy(StrategySpec(StrategyKind.INTERCEPT_RESEND, basis="z"))
        for _ in range(200):
            rec = run_round(cfg, adv, rng)
            assert rec.control_pass

    def test_z_collapse_randomizes_epr_messages(self):
        # |01> and |10> split evenly between the two Psi outcomes.
        stats, _ = run_session(epr_cfg(rounds=4000), StrategySpec(StrategyKind.INTERCEPT_RESEND))
        sigma = math.sqrt(0.25 / stats.message_rounds)
        assert abs(stats.qber - 0.5) < 3 * sigma
        assert stats.control_failure_rate == 0.0
        assert stats.eve_accuracy is None  # baseline never guesses

    def test_z_collapse_fails_half_the_single_photon_checks(self):
        cfg = ProtocolConfig(kind=ProtocolKind.PP_SINGLE, rounds=6000)
        stats, _ = run_session(cfg, StrategySpec(StrategyKind.INTERCEPT_RESEND))
        # Only checks in the conjugate preparation basis fail; they fail
        # with probability 1/2, so overall failure rate is ~1/4.
        evaluated = stats.control_rounds_evaluated
        sigma = math.sqrt(0.25 * 0.75 / evaluated)
        assert abs(stats.control_failure_rate - 0.25) < 3 * sigma

    def test_z_collapse_fails_matching_x_checks_half_the_time(self):
        # State-level oracle for the conjugate-basis case: Eve Z-collapses
        # |+>, then the matching X check fails with probability 1/2.
        rng = RNG(25)
        trials = 4000
        fails = 0
        for _ in range(trials):
            reg = quantum.make_single(Prep.PLUS)
            quantum.measure(reg, 0, BASIS_Z, rng)
            outcome, _ = quantum.measure(reg, 0, BASIS_X, rng)
            fails += outcome != 0
        sigma = math.sqrt(0.25 / trials)
        assert abs(fails / trials - 0.5) < 3 * sigma


class TestBlindBaseProbe:
    def test_known_angle_reads_encoding_exactly(self):
        cfg = ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.0)
        rng = RNG(26)
        adv = make_strategy(StrategySpec(StrategyKind.KKKP_PROBE, n=1, theta_known=True))
        for _ in range(60):
            rec = run_round(cfg, adv, rng)
            assert rec.eve_guess == rec.alice_bits

    def test_unknown_angle_gives_coin_flip_accuracy(self):
        cfg = ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.0, rounds=6000)
        stats, _ = run_session(cfg, StrategySpec(StrategyKind.KKKP_PROBE, n=4))
        sigma = math.sqrt(0.25 / stats.message_rounds)
        assert abs(stats.eve_accuracy - 0.5) < 3 * sigma
        assert stats.eve_mutual_info_bits < 0.01
        assert stats.qber == 0.0

    def test_probe_count_must_be_positive(self):
        with pytest.raises(ValueError):
            StrategySpec(StrategyKind.KKKP_PROBE, n=0)

    def test_outcome_distribution_independent_of_encoding(self):
        # Two-sample chi-square over the per-round count of 0 readouts,
        # split by the encoded bit; no rejection at the 3-sigma level.
        class _ZReadoutProbe(AdversaryStrategy):
            def __init__(self, n):
                self.n = n
                self.zero_counts = []

            def on_b_to_a(self, pulse, ctx):
                probes = [
                    Photon(ctx.new_photon_id(), EVE_WAVELENGTH_NM, quantum.make_single(0.0), 0)
                    for _ in range(self.n)
                ]
                self.ids = {p.id for p in probes}
                return Pulse(pulse.leg, pulse.photons + probes)

            def on_a_to_b(self, pulse, ctx):
                keep = [p for p in pulse.photons if p.id not in self.ids]
                mine = [p for p in pulse.photons if p.id in self.ids]
                zeros = 0
                for p in mine:
                    outcome, _ = quantum.measure(p.register, p.qubit, BASIS_Z, ctx.rng)
                    zeros += 1 - outcome
                self.zero_counts.append(zeros)
                return Pulse(pulse.leg, keep)

        n = 4
        cfg = ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.0)
        rng = RNG(27)
        adv = _ZReadoutProbe(n)
        table = np.zeros((2, n + 1), dtype=int)
        for _ in range(30_000):
            rec = run_round(cfg, adv, rng)
            table[rec.alice_bits, adv.zero_counts[-1]] += 1
        _, p_value, _, _ = chi2_contingency(table)
        assert p_value > 0.0027

    def test_filtered_probes_leave_eve_blind(self):
        cfg = ProtocolConfig(
            kind=ProtocolKind.KKKP, control_prob=0.0, rounds=500, filter=default_filter()
        )
        stats, _ = run_session(cfg, StrategySpec(StrategyKind.KKKP_PROBE, n=3))
        assert stats.blind_rounds == 500
        assert stats.absorbed_total == 1500  # every probe absorbed, signal passes
        assert stats.qber == 0.0


class TestProbesMeetTheirEncoder:
    """Every probe is read on the pulse coming back out of the encoder,
    whatever protocol it runs against."""

    def test_ipe_reads_its_probe_against_blind_rotations(self):
        # The invisible photon rides through the blind-rotation encoder
        # and is read on leg 3, but ROT(s*pi/4 - theta) with theta unknown
        # hides the bit from it.
        cfg = ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.0, rounds=4000, seed=42)
        stats, _ = run_session(cfg, StrategySpec(StrategyKind.IPE))
        assert stats.blind_rounds == 0
        assert stats.eve_mutual_info_bits < 0.01
        sigma = math.sqrt(0.25 / stats.message_rounds)
        assert abs(stats.eve_accuracy - 0.5) < 3 * sigma
        assert stats.qber == 0.0

    @pytest.mark.parametrize("theta_known", [False, True])
    def test_kkkp_probe_on_ping_pong_is_blind_in_control_rounds_only(self, theta_known):
        cfg = epr_cfg(rounds=1000, log_rounds=True)
        spec = StrategySpec(StrategyKind.KKKP_PROBE, n=3, theta_known=theta_known)
        stats, log = run_session(cfg, spec)
        assert stats.blind_rounds == stats.rounds - stats.message_rounds > 0
        for rec in log:
            assert rec.eve_blind == (rec.mode is Mode.CONTROL)


class TestBlindBaseProbePinned:
    """kkkp_probe statistics at seed 42, pinned to the values of the numpy
    kernels they were first computed with.  A kernel that reorders or
    drops a draw, or changes the physics, moves them."""

    @pytest.mark.parametrize("n, theta_known, accuracy, mutual_info", [
        (1, False, 0.5049, 6.939647663150358e-05),
        (4, False, 0.5032, 2.966181669112949e-05),
        (16, False, 0.5032, 2.9149239483387563e-05),
        (1, True, 1.0, 1.0),
    ])
    def test_run_stats(self, n, theta_known, accuracy, mutual_info):
        cfg = ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.0, rounds=20_000, seed=42)
        spec = StrategySpec(StrategyKind.KKKP_PROBE, n=n, theta_known=theta_known)
        stats, _ = run_session(cfg, spec)
        assert stats.eve_accuracy == accuracy
        assert stats.eve_mutual_info_bits == pytest.approx(mutual_info, rel=1e-9)
        assert (stats.rounds, stats.message_rounds, stats.control_rounds_evaluated) == (20_000, 20_000, 0)
        assert (stats.qber, stats.anomaly_count, stats.absorbed_total, stats.blind_rounds) == (0.0, 0, 0, 0)


class TestStrategyDispatch:
    def test_make_strategy_covers_all_kinds(self):
        for kind in StrategyKind:
            assert isinstance(make_strategy(StrategySpec(kind)), AdversaryStrategy)

    def test_bad_wavelength_rejected(self):
        with pytest.raises(ValueError):
            StrategySpec(StrategyKind.IPE, lambda_e_nm=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", [StrategyKind.IPE, StrategyKind.IPE_DENSE, StrategyKind.KKKP_PROBE],
                             ids=lambda k: k.value)
    def test_non_finite_wavelength_rejected(self, kind, value):
        with pytest.raises(ConfigError, match="lambda_e_nm"):
            StrategySpec(kind, lambda_e_nm=value, n=2)

    def test_bad_basis_rejected(self):
        with pytest.raises(ValueError):
            StrategySpec(StrategyKind.INTERCEPT_RESEND, basis="diagonal")

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_basis_angle_rejected(self, angle):
        with pytest.raises(ConfigError, match="basis"):
            StrategySpec(StrategyKind.INTERCEPT_RESEND, basis=angle)

    def test_rotated_basis_accepted(self):
        StrategySpec(StrategyKind.INTERCEPT_RESEND, basis=0.7)


PROBE_KINDS = (StrategyKind.IPE, StrategyKind.IPE_DENSE, StrategyKind.KKKP_PROBE)


def same(xs, ys):
    """The same photon objects, in the same order."""
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


class TestProbeCapture:
    """Eve's spectroscope takes back exactly her own probes, by photon id."""

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(PROBE_KINDS),
           n=st.integers(1, 5), lambda_e_nm=st.floats(2.0, 1e6), data=st.data())
    def test_forwards_every_other_photon_and_captures_the_probes_present(self, kind, n, lambda_e_nm,
                                                                         data):
        # The signal may sit at the probe wavelength or within 1 nm of it,
        # and foreign photons at any wavelength, the probe's included.
        near = st.floats(lambda_e_nm - 1.0, lambda_e_nm + 1.0)
        anywhere = st.one_of(st.just(lambda_e_nm), near, st.floats(1.0, 1e6))
        adv = make_strategy(StrategySpec(kind, lambda_e_nm, n=n))
        ctx = RoundContext(rng=round_rng(7, 0))
        signal, *foreign = [Photon(ctx.new_photon_id(), nm, quantum.make_single(Prep.ZERO), 0)
                            for nm in data.draw(st.lists(anywhere, min_size=1, max_size=5))]
        probes = adv.on_b_to_a(Pulse(Leg.B_TO_A, [signal]), ctx).photons[1:]
        assert [p.id for p in probes] == list(ctx.probe_ids)
        assert {p.wavelength_nm for p in probes} == {lambda_e_nm}
        present = [p for p in probes if data.draw(st.booleans())]  # the others absorbed
        returning = data.draw(st.permutations([signal, *foreign, *present]))
        forwarded = adv.on_a_to_b(Pulse(Leg.A_TO_B, list(returning)), ctx)
        present_ids = {p.id for p in present}
        assert forwarded.leg is Leg.A_TO_B
        assert same(forwarded.photons, [p for p in returning if p.id not in ctx.probe_ids])
        assert same(ctx.captured, [p for p in returning if p.id in present_ids])

    @staticmethod
    def _inject(kind, lambda_e_nm, n, signal_nm=800.0):
        adv = make_strategy(StrategySpec(kind, lambda_e_nm, n=n))
        ctx = RoundContext(rng=round_rng(7, 0))
        signal = Photon(ctx.new_photon_id(), signal_nm, quantum.make_single(Prep.ZERO), 0)
        probes = adv.on_b_to_a(Pulse(Leg.B_TO_A, [signal]), ctx).photons[1:]
        return adv, ctx, signal, probes

    @pytest.mark.parametrize("kind", PROBE_KINDS)
    def test_probe_at_the_signal_wavelength_is_told_apart_by_id(self, kind):
        n = 1 if kind is not StrategyKind.KKKP_PROBE else 2
        adv, ctx, signal, probes = self._inject(kind, 800.0, n)
        forwarded = adv.on_a_to_b(Pulse(Leg.A_TO_B, [*probes, signal]), ctx)
        assert same(forwarded.photons, [signal])
        assert same(ctx.captured, probes)

    @pytest.mark.parametrize("kind", PROBE_KINDS)
    def test_order_preserved_within_parts(self, kind):
        n = 1 if kind is not StrategyKind.KKKP_PROBE else 3
        adv, ctx, signal, probes = self._inject(kind, 190_000.0, n)
        foreign = [Photon(ctx.new_photon_id(), nm, quantum.make_single(Prep.ZERO), 0)
                   for nm in (190_000.0, 801.0)]
        returning = [foreign[0], probes[-1], signal, *probes[:-1], foreign[1]]
        forwarded = adv.on_a_to_b(Pulse(Leg.A_TO_B, returning), ctx)
        assert same(forwarded.photons, [foreign[0], signal, foreign[1]])
        assert same(ctx.captured, [probes[-1], *probes[:-1]])

    @pytest.mark.parametrize("kind", PROBE_KINDS)
    def test_absorbed_probes_leave_nothing_captured(self, kind):
        adv, ctx, signal, _ = self._inject(kind, 190_000.0, 2 if kind is StrategyKind.KKKP_PROBE else 1)
        foreign = Photon(ctx.new_photon_id(), 190_000.0, quantum.make_single(Prep.ZERO), 0)
        forwarded = adv.on_a_to_b(Pulse(Leg.A_TO_B, [signal, foreign]), ctx)
        assert same(forwarded.photons, [signal, foreign])
        assert ctx.captured == []


class TestWavelengthContract:
    """Every photon a hook returns is at the signal's wavelength or at one of ``probe_wavelengths``."""

    @pytest.mark.parametrize("attack", list(StrategyKind), ids=lambda k: k.value)
    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(ProtocolKind),
           control_prob=st.floats(0.05, 0.95),
           signal_nm=st.sampled_from([800.0, 650.0, 1550.0]),
           lambda_e_nm=st.sampled_from([190_000.0, 800.5, 1550.0, 800.0, 650.0]),
           passband=st.sampled_from([None, (799.95, 800.05), (640.0, 900.0), (700.0, 200_000.0)]),
           window=st.sampled_from([(600.0, 900.0), (700.0, 2000.0)]),
           basis=st.floats(-3.2, 3.2), n=st.integers(1, 5), theta_known=st.booleans(),
           seed=st.integers(0, 2**64 - 1))
    def test_hooks_return_only_signal_and_probe_photons(self, attack, kind, control_prob, signal_nm,
                                                        lambda_e_nm, passband, window, basis, n,
                                                        theta_known, seed):
        adv = make_strategy(StrategySpec(attack, lambda_e_nm, basis, n, theta_known))
        carried = {signal_nm, *adv.probe_wavelengths}
        returned = []
        for hook in ("on_b_to_a", "on_a_to_b"):
            def checked(pulse, ctx, inner=getattr(adv, hook)):
                out = inner(pulse, ctx)
                returned.extend(p.wavelength_nm for p in out.photons)
                return out

            setattr(adv, hook, checked)
        cfg = ProtocolConfig(kind=kind, control_prob=0.0 if kind is ProtocolKind.KKKP else control_prob,
                             signal_wavelength_nm=signal_nm,
                             filter=None if passband is None else OpticalFilter(passband),
                             detector=Detector(window))
        for i in range(12):
            run_round(cfg, adv, round_rng(seed, i))
        assert returned and set(returned) <= carried

    @pytest.mark.parametrize("spec, probes", [
        (StrategySpec(StrategyKind.NO_EVE), ()),
        (StrategySpec(StrategyKind.INTERCEPT_RESEND, 850.0), ()),
        (StrategySpec(StrategyKind.IPE, 850.0), (850.0,)),
        (StrategySpec(StrategyKind.IPE_DENSE, 850.0), (850.0,)),
        (StrategySpec(StrategyKind.KKKP_PROBE, 850.0, n=3), (850.0,)),
    ], ids=lambda v: v.kind.value if isinstance(v, StrategySpec) else None)
    def test_probe_wavelengths(self, spec, probes):
        assert make_strategy(spec).probe_wavelengths == probes
