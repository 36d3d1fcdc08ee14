"""Round-level tests for the four protocol state machines."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsim import quantum
from ppsim.adversaries import AdversaryStrategy, make_ipe, make_ipe_dense, make_no_eve
from ppsim.optics import EVE_WAVELENGTH_NM, Leg, Photon, Pulse, default_filter
from ppsim.protocols import (
    ConfigError,
    Mode,
    ProtocolConfig,
    ProtocolKind,
    kkkp_round,
    message_bit_width,
    pp_dense_round,
    pp_epr_round,
    pp_single_round,
    run_round,
)
from ppsim.quantum import Prep

RNG = np.random.default_rng

# control_prob must stay inside (0, 1); these force one mode in practice.
ALWAYS_MESSAGE = 1e-12
ALWAYS_CONTROL = 1.0 - 1e-12


def config(kind: ProtocolKind, **kw) -> ProtocolConfig:
    if kind is ProtocolKind.KKKP:
        kw.setdefault("control_prob", 0.0)
    return ProtocolConfig(kind=kind, **kw)


class TestHonestRounds:
    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_no_errors_no_anomalies(self, kind):
        cfg = config(kind)
        adv = make_no_eve()
        rng = RNG(100)
        for _ in range(400):
            rec = run_round(cfg, adv, rng)
            assert not rec.anomaly
            assert rec.absorbed_count == 0
            assert rec.eve_guess is None
            if rec.mode is Mode.MESSAGE:
                assert rec.bob_bits == rec.alice_bits
            elif rec.control_pass is not None:
                assert rec.control_pass

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_filter_transparent_for_legitimate_traffic(self, kind):
        cfg = config(kind, filter=default_filter())
        adv = make_no_eve()
        rng = RNG(101)
        for _ in range(200):
            rec = run_round(cfg, adv, rng)
            assert rec.absorbed_count == 0
            if rec.mode is Mode.MESSAGE:
                assert rec.bob_bits == rec.alice_bits

    def test_single_discards_mismatched_basis_checks(self):
        cfg = config(ProtocolKind.PP_SINGLE, control_prob=ALWAYS_CONTROL)
        rng = RNG(102)
        evaluated = discarded = 0
        for _ in range(500):
            rec = pp_single_round(cfg, make_no_eve(), rng)
            assert rec.mode is Mode.CONTROL
            if rec.control_pass is None:
                discarded += 1
            else:
                assert rec.control_pass
                evaluated += 1
        # Basis match probability is 1/2.
        assert evaluated > 100 and discarded > 100


class TestMessageEncoding:
    def test_epr_decodes_both_bit_values(self):
        cfg = config(ProtocolKind.PP_EPR, control_prob=ALWAYS_MESSAGE)
        rng = RNG(103)
        seen = set()
        for _ in range(60):
            rec = pp_epr_round(cfg, make_no_eve(), rng)
            assert rec.mode is Mode.MESSAGE
            assert rec.bob_bits == rec.alice_bits
            seen.add(rec.alice_bits)
        assert seen == {0, 1}

    def test_dense_decodes_all_four_values(self):
        cfg = config(ProtocolKind.PP_DENSE, control_prob=ALWAYS_MESSAGE)
        rng = RNG(104)
        seen = set()
        for _ in range(120):
            rec = pp_dense_round(cfg, make_no_eve(), rng)
            assert rec.bob_bits == rec.alice_bits
            seen.add(rec.alice_bits)
        assert seen == {0, 1, 2, 3}

    def test_single_decodes_both_bit_values(self):
        cfg = config(ProtocolKind.PP_SINGLE, control_prob=ALWAYS_MESSAGE)
        rng = RNG(105)
        for _ in range(120):
            rec = pp_single_round(cfg, make_no_eve(), rng)
            assert rec.bob_bits == rec.alice_bits

    def test_kkkp_decodes_under_random_angles(self):
        cfg = config(ProtocolKind.KKKP)
        rng = RNG(106)
        for _ in range(200):
            rec = kkkp_round(cfg, make_no_eve(), rng)
            assert rec.mode is Mode.MESSAGE
            assert rec.bob_bits == rec.alice_bits
            theta, phi = rec.kkkp_angles
            assert 0 <= theta < 2 * math.pi and 0 <= phi < 2 * math.pi

    def test_kkkp_angles_are_the_first_two_uniform_draws(self):
        cfg = config(ProtocolKind.KKKP)
        for seed in range(20):
            ref = RNG(seed)
            expected = (ref.uniform(0.0, 2 * math.pi), ref.uniform(0.0, 2 * math.pi))
            assert kkkp_round(cfg, make_no_eve(), RNG(seed)).kkkp_angles == expected

    def test_bit_widths(self):
        assert message_bit_width(ProtocolKind.PP_DENSE) == 2
        for kind in (ProtocolKind.PP_EPR, ProtocolKind.PP_SINGLE, ProtocolKind.KKKP):
            assert message_bit_width(kind) == 1


@given(
    theta=st.floats(0, 2 * math.pi),
    phi=st.floats(0, 2 * math.pi),
    sign=st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=80, deadline=None)
def test_blind_rotation_identity(theta, phi, sign):
    # ROT(-phi) ROT(s*pi/4) ROT(-theta) ROT(phi) ROT(theta)|0> = ROT(s*pi/4)|0>
    reg = quantum.make_single(theta)
    quantum.apply_unitary(reg, 0, quantum.rot(phi))
    quantum.apply_unitary(reg, 0, quantum.rot(-theta))
    quantum.apply_unitary(reg, 0, quantum.rot(sign * math.pi / 4))
    quantum.apply_unitary(reg, 0, quantum.rot(-phi))
    expected = quantum.make_single(sign * math.pi / 4)
    np.testing.assert_allclose(reg.amplitudes, expected.amplitudes, atol=1e-10)


class _MarkerInjector(AdversaryStrategy):
    """Drops an invisible |+> marker into the pulse entering the encoder."""

    def __init__(self):
        self.marker = None

    def on_b_to_a(self, pulse, ctx):
        self.marker = Photon(ctx.new_photon_id(), EVE_WAVELENGTH_NM, quantum.make_single(Prep.PLUS), 0)
        return Pulse(pulse.leg, pulse.photons + [self.marker])


class TestEncoderTouchesEveryPhoton:
    """The encoding unitary lands on every photon in the apparatus."""

    def test_epr_marker_sees_phase_flip(self):
        cfg = config(ProtocolKind.PP_EPR, control_prob=ALWAYS_MESSAGE)
        rng = RNG(107)
        for _ in range(20):
            adv = _MarkerInjector()
            rec = pp_epr_round(cfg, adv, rng)
            expected = quantum.make_single(Prep.MINUS if rec.alice_bits else Prep.PLUS)
            assert quantum.states_equal(adv.marker.register, expected)

    def test_single_marker_sees_double_flip(self):
        cfg = config(ProtocolKind.PP_SINGLE, control_prob=ALWAYS_MESSAGE)
        rng = RNG(108)
        for _ in range(20):
            adv = _MarkerInjector()
            rec = pp_single_round(cfg, adv, rng)
            expected = quantum.make_single(Prep.PLUS)
            if rec.alice_bits:
                quantum.apply_unitary(expected, 0, quantum.IY)
            assert quantum.states_equal(adv.marker.register, expected)

    def test_dense_marker_sees_selected_unitary(self):
        cfg = config(ProtocolKind.PP_DENSE, control_prob=ALWAYS_MESSAGE)
        rng = RNG(109)
        encodings = (quantum.I2, quantum.X, quantum.Z, quantum.ZX)
        for _ in range(30):
            adv = _MarkerInjector()
            rec = pp_dense_round(cfg, adv, rng)
            expected = quantum.make_single(Prep.PLUS)
            quantum.apply_unitary(expected, 0, encodings[rec.alice_bits])
            assert quantum.states_equal(adv.marker.register, expected)

    def test_kkkp_marker_sees_net_encoding_rotation(self):
        # Markers injected after the receiver's blinding rotation pick up
        # ROT(s*pi/4 - theta) only.
        cfg = config(ProtocolKind.KKKP)
        rng = RNG(110)
        for _ in range(20):
            adv = _MarkerInjector()
            rec = kkkp_round(cfg, adv, rng)
            theta, _ = rec.kkkp_angles
            s = 1.0 if rec.alice_bits == 0 else -1.0
            expected = quantum.make_single(Prep.PLUS)
            quantum.apply_unitary(expected, 0, quantum.rot(s * math.pi / 4 - theta))
            assert quantum.states_equal(adv.marker.register, expected)


class _ReturnPulseThief(AdversaryStrategy):
    """Steals every photon on the way back to the decoder."""

    def on_a_to_b(self, pulse, ctx):
        return Pulse(pulse.leg, [])


class TestErasures:
    @pytest.mark.parametrize(
        "kind", [ProtocolKind.PP_EPR, ProtocolKind.PP_SINGLE, ProtocolKind.PP_DENSE, ProtocolKind.KKKP]
    )
    def test_missing_signal_decodes_as_error(self, kind):
        cfg = config(kind) if kind is ProtocolKind.KKKP else config(kind, control_prob=ALWAYS_MESSAGE)
        rec = run_round(cfg, _ReturnPulseThief(), RNG(111))
        assert rec.mode is Mode.MESSAGE
        assert rec.bob_bits is None
        assert rec.bob_bits != rec.alice_bits


class _IdReuser(AdversaryStrategy):
    """Hands back the pulse entering the encoder with a photon that reuses the signal's id."""

    def on_b_to_a(self, pulse, ctx):
        twin = Photon(pulse.photons[0].id, EVE_WAVELENGTH_NM, quantum.make_single(Prep.PLUS), 0)
        return Pulse(pulse.leg, pulse.photons + [twin])


class TestDuplicateIds:
    @pytest.mark.parametrize("filtered", [False, True])
    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_strategy_pulse_with_duplicate_ids_is_rejected(self, kind, filtered):
        cfg = config(kind, filter=default_filter() if filtered else None)
        with pytest.raises(ValueError, match="duplicate photon ids"):
            run_round(cfg, _IdReuser(), RNG(114))


class _HookRecorder(AdversaryStrategy):
    """Records every hook call with the leg it saw and the signal's state."""

    def __init__(self):
        self.calls = []

    def _record(self, name, pulse):
        signal = next(p for p in pulse.photons if p.id == 0)
        self.calls.append((name, pulse.leg, signal.register.amplitudes))
        return pulse

    def on_b_to_a(self, pulse, ctx):
        return self._record("on_b_to_a", pulse)

    def on_a_to_b(self, pulse, ctx):
        return self._record("on_a_to_b", pulse)

    def finalize(self, ctx):
        self.calls.append(("finalize", None, None))


class TestHookContract:
    """Two hooks with one meaning in every protocol: ``on_b_to_a`` sees the
    pulse going into the encoder, ``on_a_to_b`` the pulse coming back out."""

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_message_round(self, kind):
        cfg = config(kind) if kind is ProtocolKind.KKKP else config(kind, control_prob=ALWAYS_MESSAGE)
        adv = _HookRecorder()
        rec = run_round(cfg, adv, RNG(114))
        assert rec.mode is Mode.MESSAGE
        assert [(name, leg) for name, leg, _ in adv.calls] == [
            ("on_b_to_a", Leg.B_TO_A), ("on_a_to_b", Leg.A_TO_B), ("finalize", None),
        ]

    @pytest.mark.parametrize("kind", [ProtocolKind.PP_EPR, ProtocolKind.PP_SINGLE, ProtocolKind.PP_DENSE])
    def test_control_round(self, kind):
        adv = _HookRecorder()
        rec = run_round(config(kind, control_prob=ALWAYS_CONTROL), adv, RNG(115))
        assert rec.mode is Mode.CONTROL
        assert [(name, leg) for name, leg, _ in adv.calls] == [
            ("on_b_to_a", Leg.B_TO_A), ("finalize", None),
        ]

    def test_kkkp_hooks_flank_the_encoder(self):
        # Into the encoder: ROT(theta + phi)|0>, Bob's blinding applied.
        # Out of it: ROT(phi + s*pi/4)|0>, Alice's angle unwound.
        rng = RNG(116)
        for _ in range(10):
            adv = _HookRecorder()
            rec = kkkp_round(config(ProtocolKind.KKKP), adv, rng)
            theta, phi = rec.kkkp_angles
            s = 1.0 if rec.alice_bits == 0 else -1.0
            (_, _, into), (_, _, out), _ = adv.calls
            np.testing.assert_allclose(into, quantum.make_single(theta + phi).amplitudes, atol=1e-12)
            np.testing.assert_allclose(out, quantum.make_single(phi + s * math.pi / 4).amplitudes,
                                       atol=1e-12)


class TestVisibleProbeDetection:
    def test_in_band_probe_triggers_control_anomaly(self):
        cfg = config(ProtocolKind.PP_EPR, control_prob=ALWAYS_CONTROL)
        rng = RNG(112)
        rec = pp_epr_round(cfg, make_ipe(lambda_e_nm=800.0), rng)
        assert rec.mode is Mode.CONTROL
        assert rec.anomaly
        assert rec.control_pass  # the legitimate pair still anticorrelates

    def test_in_band_probe_does_not_break_message_rounds(self):
        # The spectroscope capture keys on the probe itself, so a probe
        # sharing the signal wavelength never steals the travel photon.
        cfg = config(ProtocolKind.PP_EPR, control_prob=ALWAYS_MESSAGE)
        rng = RNG(113)
        for _ in range(40):
            rec = pp_epr_round(cfg, make_ipe(lambda_e_nm=800.0), rng)
            assert rec.bob_bits == rec.alice_bits
            assert rec.eve_guess == rec.alice_bits


class TestRoundDispatch:
    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_dispatch_hashes_no_enum_member(self, kind):
        # Enum.__hash__ runs in Python; the kind is fixed for a session, so
        # picking the round function must not pay for it every round.
        hashed = []

        def profile(frame, event, arg):
            if (event == "call" and frame.f_code.co_name == "__hash__"
                    and frame.f_back.f_code is run_round.__code__):
                hashed.append(frame.f_code.co_filename)

        sys.setprofile(profile)
        try:
            run_round(config(kind), make_no_eve(), RNG(115))
        finally:
            sys.setprofile(None)
        assert hashed == []

    @pytest.mark.parametrize("kind, make_adv", [
        (ProtocolKind.PP_EPR, make_no_eve), (ProtocolKind.PP_EPR, make_ipe),
        (ProtocolKind.PP_SINGLE, make_no_eve), (ProtocolKind.PP_SINGLE, make_ipe),
        (ProtocolKind.PP_DENSE, make_no_eve), (ProtocolKind.PP_DENSE, make_ipe_dense),
    ], ids=lambda v: v.value if isinstance(v, ProtocolKind) else v.__name__[5:])
    @pytest.mark.parametrize("control_prob, mode", [
        (ALWAYS_MESSAGE, Mode.MESSAGE), (ALWAYS_CONTROL, Mode.CONTROL),
    ], ids=["message", "control"])
    def test_pp_rounds_hash_no_enum_member(self, kind, make_adv, control_prob, mode):
        # Bell states, named preparations and Bell outcomes are looked up by
        # member name, so a whole round runs no Enum.__hash__.
        cfg = config(kind, control_prob=control_prob)
        adv = make_adv()
        hashed = []

        def profile(frame, event, arg):
            if (event == "call" and frame.f_code.co_name == "__hash__"
                    and frame.f_code.co_filename.endswith("enum.py")):
                hashed.append(frame.f_back.f_code.co_name)

        sys.setprofile(profile)
        try:
            rec = run_round(cfg, adv, RNG(117))
        finally:
            sys.setprofile(None)
        assert rec.mode is mode
        assert hashed == []


class TestConfigValidation:
    def test_control_prob_range(self):
        with pytest.raises(ConfigError, match="control_prob"):
            ProtocolConfig(kind=ProtocolKind.PP_EPR, control_prob=1.5).validate()
        with pytest.raises(ConfigError, match="control_prob"):
            ProtocolConfig(kind=ProtocolKind.PP_EPR, control_prob=0.0).validate()

    def test_kkkp_has_no_control_mode(self):
        with pytest.raises(ConfigError, match="control_prob"):
            ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.5).validate()
        ProtocolConfig(kind=ProtocolKind.KKKP, control_prob=0.0).validate()

    def test_rounds_and_wavelength(self):
        with pytest.raises(ConfigError, match="rounds"):
            ProtocolConfig(kind=ProtocolKind.PP_EPR, rounds=0).validate()
        with pytest.raises(ConfigError, match="signal_wavelength_nm"):
            ProtocolConfig(kind=ProtocolKind.PP_EPR, signal_wavelength_nm=-1).validate()
