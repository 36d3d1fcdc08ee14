"""Round-by-round state machines for the four two-way protocols.

Each round function executes one full protocol round against an
adversary: the sender's preparation, the adversary's hook on the pulse
going into the encoder (``on_b_to_a``), the optional input filter at the
encoder's lab, the control/message mode branch, the adversary's hook on
the pulse coming back out of the encoder (``on_a_to_b``, message rounds
only), the decoder's measurement and the adversary's ``finalize``.  The
returned :class:`RoundRecord` is the complete per-round transcript.

Conventions shared by all rounds:

* The encoding unitary is applied to every photon that made it through
  the encoder's input filter, legitimate or not; the optics are
  wavelength-agnostic.
* A control-mode measurement that sees two or more photons inside the
  detector window flags an anomaly.  The decoder applies the same rule
  to the pulse arriving back at its lab.
* A missing signal photon at the decoder is an erasure: the decoded
  bits are recorded as ``None`` and count as an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import quantum
from .adversaries import DENSE_DECODE, AdversaryStrategy, RoundContext
from .optics import (
    Detector,
    Leg,
    OpticalFilter,
    Photon,
    Pulse,
    apply_filter,
    is_visible,
)
from .quantum import BASIS_X, BASIS_Z, I2, IY, X, Z, BellKind, Prep

TWO_PI = 2.0 * math.pi

# Blind-rotation protocol: encoding rotates the polarization by +-pi/4.
ENC_ANGLE = math.pi / 4


class ConfigError(ValueError):
    """A configuration value violates a protocol constraint."""


class ProtocolKind(Enum):
    PP_EPR = "pp_epr"
    PP_SINGLE = "pp_single"
    PP_DENSE = "pp_dense"
    KKKP = "kkkp"


class Mode(Enum):
    CONTROL = "control"
    MESSAGE = "message"


def message_bit_width(kind: ProtocolKind) -> int:
    return 2 if kind is ProtocolKind.PP_DENSE else 1


@dataclass(frozen=True)
class ProtocolConfig:
    kind: ProtocolKind
    control_prob: float = 0.5
    signal_wavelength_nm: float = 800.0
    filter: OpticalFilter | None = None
    detector: Detector = Detector()
    rounds: int = 10_000
    seed: int = 42
    log_rounds: bool = False

    def validate(self) -> None:
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.signal_wavelength_nm <= 0:
            raise ConfigError(f"signal_wavelength_nm must be positive, got {self.signal_wavelength_nm}")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.kind is ProtocolKind.KKKP:
            # The three-way protocol defines no control mode.
            if self.control_prob != 0:
                raise ConfigError(f"control_prob must be 0 for kkkp, got {self.control_prob}")
        elif not 0 < self.control_prob < 1:
            raise ConfigError(f"control_prob must be in (0, 1), got {self.control_prob}")


@dataclass(slots=True)
class RoundRecord:
    """Transcript of one round."""

    mode: Mode
    alice_bits: int | None = None   # encoded value; message rounds only
    bob_bits: int | None = None     # decoded value; None = erasure/decode failure
    control_pass: bool | None = None  # None when not evaluated (message or discarded)
    eve_guess: int | None = None
    eve_blind: bool = False
    anomaly: bool = False
    absorbed_count: int = 0
    kkkp_angles: tuple[float, float] | None = None


def _through_filter(cfg: ProtocolConfig, pulse: Pulse) -> tuple[Pulse, int]:
    if cfg.filter is None:
        return pulse, 0
    return apply_filter(cfg.filter, pulse)


def _visible(cfg: ProtocolConfig, pulse: Pulse) -> list[Photon]:
    return [p for p in pulse.photons if is_visible(cfg.detector, p)]


def _find(pulse: Pulse, photon_id: int) -> Photon | None:
    for p in pulse.photons:
        if p.id == photon_id:
            return p
    return None


# Two-bit value -> encoding unitary (high bit = phase flip, low bit = bit flip).
_DENSE_ENCODE = (I2, X, Z, quantum.ZX)


def _pp_pair_round(cfg: ProtocolConfig, adv: AdversaryStrategy,
                   rng: np.random.Generator, dense: bool) -> RoundRecord:
    ctx = RoundContext(rng=rng)

    pair = quantum.make_bell(BellKind.PSI_PLUS)  # qubit 0 home, qubit 1 travel
    travel = Photon(ctx.new_photon_id(), cfg.signal_wavelength_nm, pair, 1)
    pulse = adv.on_b_to_a(Pulse(Leg.B_TO_A, [travel]), ctx)
    pulse, absorbed = _through_filter(cfg, pulse)

    if rng.random() < cfg.control_prob:
        visible = _visible(cfg, pulse)
        anomaly = len(visible) >= 2
        if visible:
            announced, _ = quantum.measure(visible[0].register, visible[0].qubit, BASIS_Z, rng)
            for extra in visible[1:]:
                quantum.measure(extra.register, extra.qubit, BASIS_Z, rng)
            home, _ = quantum.measure(pair, 0, BASIS_Z, rng)
            control_pass = announced != home  # Psi+ anticorrelates in Z
        else:
            control_pass = False  # expected photon never arrived
        return RoundRecord(
            mode=Mode.CONTROL, control_pass=control_pass, anomaly=anomaly,
            absorbed_count=absorbed, eve_guess=adv.finalize(ctx), eve_blind=ctx.blind,
        )

    width = 2 if dense else 1
    bits = ctx.random_bits(width)
    encoding = _DENSE_ENCODE[bits] if dense else (Z if bits else I2)
    for p in pulse.photons:
        quantum.apply_unitary(p.register, p.qubit, encoding)

    back = adv.on_a_to_b(Pulse(Leg.A_TO_B, list(pulse.photons)), ctx)
    anomaly = len(_visible(cfg, back)) >= 2
    returned = _find(back, travel.id)
    if returned is None:
        bob_bits = None
    else:
        outcome, _ = quantum.measure_bell(pair, 0, returned.qubit, rng)
        if dense:
            bob_bits = DENSE_DECODE[outcome]
        else:
            # Phi outcomes are decoding failures, not bits.
            bob_bits = {BellKind.PSI_PLUS: 0, BellKind.PSI_MINUS: 1}.get(outcome)
    return RoundRecord(
        mode=Mode.MESSAGE, alice_bits=bits, bob_bits=bob_bits, anomaly=anomaly,
        absorbed_count=absorbed, eve_guess=adv.finalize(ctx), eve_blind=ctx.blind,
    )


def pp_epr_round(cfg: ProtocolConfig, adv: AdversaryStrategy,
                 rng: np.random.Generator) -> RoundRecord:
    """One round of the entangled-pair ping-pong protocol.

    Bob keeps the home half of a |Psi+> pair and sends the travel half;
    Alice either Z-measures it (control) or encodes j via Z^j and
    returns it; Bob Bell-measures home+travel and decodes Psi+ -> 0,
    Psi- -> 1.
    """
    return _pp_pair_round(cfg, adv, rng, dense=False)


def pp_dense_round(cfg: ProtocolConfig, adv: AdversaryStrategy,
                   rng: np.random.Generator) -> RoundRecord:
    """One round of the dense-coding variant: two bits per travel photon."""
    return _pp_pair_round(cfg, adv, rng, dense=True)


_SINGLE_PREPS = (Prep.ZERO, Prep.ONE, Prep.PLUS, Prep.MINUS)


def pp_single_round(cfg: ProtocolConfig, adv: AdversaryStrategy,
                    rng: np.random.Generator) -> RoundRecord:
    """One round of the single-photon ping-pong variant.

    Bob prepares a random state from {|0>, |1>, |+>, |->}; Alice encodes
    j=0 as identity and j=1 as the double flip IY, which inverts the
    value in both preparation bases.  In control mode Alice measures in
    a random basis and the check is evaluated only when her basis
    matches Bob's preparation basis; otherwise the check is discarded.
    """
    ctx = RoundContext(rng=rng)

    prep = _SINGLE_PREPS[ctx.random_bits(2)]
    prep_is_z = prep in (Prep.ZERO, Prep.ONE)
    prep_value = 0 if prep in (Prep.ZERO, Prep.PLUS) else 1
    prep_basis = BASIS_Z if prep_is_z else BASIS_X

    reg = quantum.make_single(prep)
    travel = Photon(ctx.new_photon_id(), cfg.signal_wavelength_nm, reg, 0)
    pulse = adv.on_b_to_a(Pulse(Leg.B_TO_A, [travel]), ctx)
    pulse, absorbed = _through_filter(cfg, pulse)

    if rng.random() < cfg.control_prob:
        alice_in_z = bool(ctx.random_bits(1))
        basis = BASIS_Z if alice_in_z else BASIS_X
        visible = _visible(cfg, pulse)
        anomaly = len(visible) >= 2
        announced: int | None = None
        if visible:
            announced, _ = quantum.measure(visible[0].register, visible[0].qubit, basis, rng)
            for extra in visible[1:]:
                quantum.measure(extra.register, extra.qubit, basis, rng)
        if alice_in_z != prep_is_z:
            control_pass = None  # mismatched bases: check discarded
        else:
            control_pass = announced == prep_value if announced is not None else False
        return RoundRecord(
            mode=Mode.CONTROL, control_pass=control_pass, anomaly=anomaly,
            absorbed_count=absorbed, eve_guess=adv.finalize(ctx), eve_blind=ctx.blind,
        )

    bits = ctx.random_bits(1)
    encoding = IY if bits else I2
    for p in pulse.photons:
        quantum.apply_unitary(p.register, p.qubit, encoding)

    back = adv.on_a_to_b(Pulse(Leg.A_TO_B, list(pulse.photons)), ctx)
    anomaly = len(_visible(cfg, back)) >= 2
    returned = _find(back, travel.id)
    if returned is None:
        bob_bits = None
    else:
        outcome, _ = quantum.measure(returned.register, returned.qubit, prep_basis, rng)
        bob_bits = int(outcome != prep_value)
    return RoundRecord(
        mode=Mode.MESSAGE, alice_bits=bits, bob_bits=bob_bits, anomaly=anomaly,
        absorbed_count=absorbed, eve_guess=adv.finalize(ctx), eve_blind=ctx.blind,
    )


def kkkp_round(cfg: ProtocolConfig, adv: AdversaryStrategy,
               rng: np.random.Generator) -> RoundRecord:
    """One round of the three-way blind-rotation protocol.

    Leg 1: Alice sends ROT(theta)|0> with theta drawn uniformly.  Bob
    blinds it with ROT(phi), phi uniform, and returns it (leg 2).
    Alice unwinds her own angle and encodes by rotating +-pi/4, applying
    both rotations to every photon in her apparatus, then sends the
    pulse back (leg 3).  Bob unwinds phi and discriminates ROT(+pi/4)|0>
    from ROT(-pi/4)|0>, i.e. measures in the X basis.

    As in every protocol, the adversary sees the pulse going into the
    encoder (leg 2) and the pulse coming back out of it (leg 3); leg 1
    passes untouched.  Every round is a message round; the protocol
    defines no control mode.
    """
    # TWO_PI * rng.random() is bit-identical to rng.uniform(0.0, TWO_PI)
    # (numpy computes low + (high - low) * random()) and costs a third.
    theta = TWO_PI * rng.random()
    ctx = RoundContext(rng=rng, kkkp_theta=theta)
    reg = quantum.make_single(theta)
    signal = Photon(ctx.new_photon_id(), cfg.signal_wavelength_nm, reg, 0)

    phi = TWO_PI * rng.random()
    quantum.rotate(reg, 0, phi)

    pulse = adv.on_b_to_a(Pulse(Leg.B_TO_A, [signal]), ctx)
    pulse, absorbed = _through_filter(cfg, pulse)

    bits = ctx.random_bits(1)
    s = 1.0 if bits == 0 else -1.0
    # ROT(-theta) followed by ROT(s*pi/4); rotations commute, so the
    # pair collapses to one rotation.
    encode = s * ENC_ANGLE - theta
    for p in pulse.photons:
        quantum.rotate(p.register, p.qubit, encode)

    back = adv.on_a_to_b(Pulse(Leg.A_TO_B, list(pulse.photons)), ctx)
    anomaly = len(_visible(cfg, back)) >= 2
    returned = _find(back, signal.id)
    if returned is None:
        bob_bits = None
    else:
        quantum.rotate(returned.register, returned.qubit, -phi)
        outcome, _ = quantum.measure(returned.register, returned.qubit, BASIS_X, rng)
        bob_bits = outcome  # + result <-> ROT(+pi/4)|0> <-> j = 0
    return RoundRecord(
        mode=Mode.MESSAGE, alice_bits=bits, bob_bits=bob_bits, anomaly=anomaly,
        absorbed_count=absorbed, eve_guess=adv.finalize(ctx), eve_blind=ctx.blind,
        kkkp_angles=(theta, phi),
    )


# Keyed by member name: a str hashes in C, while hashing the member itself
# runs Enum.__hash__ in Python, once per round.
_ROUND_FUNCS = {
    ProtocolKind.PP_EPR.name: pp_epr_round,
    ProtocolKind.PP_SINGLE.name: pp_single_round,
    ProtocolKind.PP_DENSE.name: pp_dense_round,
    ProtocolKind.KKKP.name: kkkp_round,
}


def run_round(cfg: ProtocolConfig, adv: AdversaryStrategy,
              rng: np.random.Generator) -> RoundRecord:
    """Execute one round of the configured protocol."""
    return _ROUND_FUNCS[cfg.kind._name_](cfg, adv, rng)
