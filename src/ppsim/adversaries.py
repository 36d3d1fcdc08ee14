"""Eavesdropping strategies as two pulse hooks plus a per-round guess.

Every protocol calls the hooks at the same two points, the ones the
invisible-photon attack and the blind-rotation defence both act on:
``on_b_to_a`` receives the pulse going into the encoder and
``on_a_to_b`` the pulse coming back out of it.  In the ping-pong rounds
these are the two channel legs; in the three-way ``kkkp`` round they
are legs 2 and 3, and leg 1 passes untouched.  Control rounds end at
the encoder, so they call ``on_b_to_a`` only.  ``finalize`` is called
exactly once per round, last, and returns the strategy's guess of the
encoded bits, ``None`` for strategies that never guess, or
:meth:`RoundContext.blind_guess` for a blind round.

A strategy may add or remove photons, but must never touch the register
of a photon it did not create.  Every photon of a pulse a hook returns
is at the signal's wavelength or at one of the strategy's
``probe_wavelengths``, so a session reads the filter and the detector
only through their verdicts on those wavelengths.  All per-round state
lives in the typed slots of the :class:`RoundContext`, so one strategy
instance serves every round of a session.

When a guessing strategy cannot recover its probe (control round, or
probe absorbed by the receiver's filter) it returns
``ctx.blind_guess()``: the round is flagged blind and draws the guess,
``width`` uniformly random bits, as its last draw.  That keeps the
accuracy statistic well-defined while recording that the attack was
neutralized.

A strategy's class lists in ``protocols`` the protocols its attack
applies to (a scenario pairing it with another is rejected), and gives
in ``width`` the number of bits its guess holds.  A session whose
strategy's own class lists the protocol runs a block of rounds at a
time, as numpy arrays over the rounds (see ``protocols.block_form``).
For a ping-pong protocol the block form is the hooks themselves, run
once per decision path of the round: listing the protocol promises that
they read the round's stream only through ``quantum``'s measurements and
:meth:`RoundContext.random_bits`, and route photons by wavelength alone.
For ``kkkp`` the own class must also define the array form
``kkkp_block_form``, as ``no_eve`` and ``kkkp_probe`` do; ``ipe`` and
``intercept_resend`` run ``kkkp`` round by round.  So does any
subclass that overrides a hook without listing ``protocols`` again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Container, Sequence

import numpy as np

from . import quantum
from .optics import (EVE_WAVELENGTH_NM, ConfigError, OpticalFilter, Photon, Pulse, check_wavelength,
                     split_by_wavelength)
from .quantum import BASIS_X, BASIS_Z, BellKind, Prep, QuantumRegister

if TYPE_CHECKING:
    from .protocols import WordStream

# Half-width of the spectroscope band Eve uses to pick out her probe.
# Any band separating the probe wavelength from the signal works; fixed
# for determinism.
PROBE_BAND_HALF_WIDTH_NM = 1.0

# Bell outcome -> two-bit value (high bit = phase flip, low bit = bit flip).
# Keyed by member name: a str hashes in C, while hashing the member itself
# runs Enum.__hash__ in Python, once per lookup.
DENSE_DECODE: dict[str, int] = {
    BellKind.PSI_PLUS._name_: 0b00,
    BellKind.PHI_PLUS._name_: 0b01,
    BellKind.PSI_MINUS._name_: 0b10,
    BellKind.PHI_MINUS._name_: 0b11,
}


# What ``finalize`` returns, through :meth:`RoundContext.blind_guess`, in a blind round.
BLIND_GUESS = object()


@dataclass(slots=True)
class RoundContext:
    """Per-round state shared between the protocol engine and a strategy.

    The engine sets ``rng``, the round's stream, and, in ``kkkp``, the
    sender's blinding angle ``kkkp_theta`` (0 in protocols without one).
    A strategy draws from ``rng`` only through ``rng.random()``,
    ``quantum``'s measurements and :meth:`random_bits`.  It keeps its
    round state in the remaining slots: ``probe_ids`` for the photons it
    injected, ``captured`` for the probes it split off the returning
    pulse, ``readout`` for a value it has already measured, and
    ``blind`` when its guess is a coin flip.
    """

    rng: WordStream
    blind: bool = False
    kkkp_theta: float = 0.0
    probe_ids: range = range(0)
    captured: Sequence[Photon] = ()
    readout: int | None = None
    _next_id: int = 0

    def new_photon_id(self) -> int:
        pid = self._next_id
        self._next_id += 1
        return pid

    def new_photon_ids(self, count: int) -> range:
        """``count`` fresh ids at once, as a range (O(1) membership tests)."""
        first = self._next_id
        self._next_id += count
        return range(first, first + count)

    def blind_guess(self) -> object:
        """Flag the round blind; ``finalize`` returns this, and the round then
        draws the guess, ``random_bits(width)``, right after ``finalize``."""
        self.blind = True
        return BLIND_GUESS

    def random_bits(self, width: int) -> int:
        """Uniform integer in ``[0, 2**width)`` from the round's stream, ``1 <= width <= 31``.

        Draw for draw the same as ``int(rng.integers(0, 2**width))``: for a
        power-of-two range numpy's bounded draw (Lemire's method on one
        ``next_uint32``) keeps that word's top ``width`` bits.  Calling
        ``next_uint32`` through the bit generator's ctypes interface skips
        the argument handling of ``integers``, which costs several times
        the draw itself.  Any other width raises ``ValueError``.
        """
        if not 1 <= width <= 31:
            raise ValueError(f"random_bits takes a width of 1 to 31 bits, got {width}")
        bits = self.rng.bit_generator.ctypes
        return bits.next_uint32(bits.state) >> (32 - width)


class KkkpBlockForm:
    """A strategy's part of a ``kkkp`` session, one block of rounds at a time.

    ``draws`` is the number of uniform draws the strategy makes per
    round, ``absorbed`` the number of its photons the encoder's filter
    absorbs per round, and ``blind`` whether every guess of the session
    is a coin flip.  Like the hooks, a block form forwards every photon
    it did not inject, so the receiver never sees two photons.  This one
    is the base strategy's: nothing injected, nothing drawn, no guess.
    """

    draws = 0
    absorbed = 0
    blind = False

    def guesses(self, theta: tuple[np.ndarray, np.ndarray], encode: tuple[np.ndarray, np.ndarray],
                draws: np.ndarray, coin: np.ndarray) -> np.ndarray | None:
        """The guess in each round of a block, or None for a strategy that never guesses.

        The arguments are arrays over the rounds.  ``theta`` is the
        ``quantum.cos_sin`` of the sender's blinding angle and ``encode``
        that of the net rotation ROT(s*pi/4 - theta) her encoder applies
        to every photon it receives.  Row i of ``draws`` holds the raw
        64-bit words of the uniform draws the strategy makes in round i,
        in order (``quantum.draws_below`` compares them with
        probabilities as ``rng.random()`` draws would be), and ``coin``
        the value of the round's next ``random_bits(1)`` after them: the
        guess the round draws when ``finalize`` returns
        :meth:`RoundContext.blind_guess`, or the strategy's own coin if it
        draws one instead (at most one of the two a round).
        """
        return None


class AdversaryStrategy:
    """Base strategy: identity hooks, no guess."""

    # The protocols (``ProtocolKind`` values) this strategy's attack
    # applies to.  Only the class that sets it runs in blocks, so a
    # subclass that does not set it again runs round by round.
    protocols = frozenset({"pp_epr", "pp_single", "pp_dense", "kkkp"})
    width = 1  # bits per guess; a guess of another width than the message's is not scored
    probe_wavelengths: tuple[float, ...] = ()  # the wavelengths of the photons it injects

    def on_b_to_a(self, pulse: Pulse, ctx: RoundContext) -> Pulse:
        """The pulse going into the encoder."""
        return pulse

    def on_a_to_b(self, pulse: Pulse, ctx: RoundContext) -> Pulse:
        """The pulse coming back out of the encoder (message rounds only)."""
        return pulse

    def finalize(self, ctx: RoundContext) -> object:
        """The guess: an int, None for no guess, or ``ctx.blind_guess()``."""
        return None

    def kkkp_block_form(self, filt: OpticalFilter | None) -> KkkpBlockForm:
        """This strategy's block form for a ``kkkp`` session behind the filter ``filt``.

        It must give the same guesses from the same draws as the three
        hooks.  It is used only when the strategy's own class lists
        ``kkkp`` in ``protocols`` and defines this method.
        """
        return KkkpBlockForm()


def make_no_eve() -> AdversaryStrategy:
    return AdversaryStrategy()


def _probe_band(lambda_e_nm: float) -> tuple[float, float]:
    return (lambda_e_nm - PROBE_BAND_HALF_WIDTH_NM, lambda_e_nm + PROBE_BAND_HALF_WIDTH_NM)


def _take_probes(pulse: Pulse, band_nm: tuple[float, float],
                 probe_ids: Container[int]) -> tuple[list[Photon], Pulse]:
    """Split off Eve's own probes via the spectroscope band.

    She captures the photons in the band that carry her probe ids and
    forwards every other photon of the pulse, in the band or not (as the
    signal is when the probe wavelength lies near it), untouched and in
    order.  So whether the band holds the signal changes no result.
    """
    in_band, _ = split_by_wavelength(pulse, band_nm)
    captured = [p for p in in_band.photons if p.id in probe_ids]
    captured_ids = {p.id for p in captured}
    return captured, Pulse(pulse.leg, [p for p in pulse.photons if p.id not in captured_ids])


class _InvisiblePhotonEavesdropper(AdversaryStrategy):
    """Adds a |+> probe on B->A, reads the encoding off it on A->B.

    The probe rides through the encoder alongside the travel photon, so
    a phase-flip encoding maps it to |-> and an X measurement after the
    spectroscope reveals the encoded bit without ever touching the
    legitimate photon.
    """

    protocols = frozenset({"pp_epr", "pp_single", "kkkp"})

    def __init__(self, lambda_e_nm: float):
        check_wavelength("probe lambda_e_nm", lambda_e_nm)
        self.lambda_e_nm = lambda_e_nm
        self.probe_wavelengths = (lambda_e_nm,)
        self.band_nm = _probe_band(lambda_e_nm)

    def _probe_qubit(self) -> tuple[QuantumRegister, int]:
        return quantum.make_single(Prep.PLUS), 0

    def _read(self, probe: Photon, rng: WordStream) -> int:
        outcome, _ = quantum.measure(probe.register, probe.qubit, BASIS_X, rng)
        return outcome

    def on_b_to_a(self, pulse: Pulse, ctx: RoundContext) -> Pulse:
        ctx.probe_ids = ctx.new_photon_ids(1)
        reg, qubit = self._probe_qubit()
        probe = Photon(ctx.probe_ids[0], self.lambda_e_nm, reg, qubit)
        return Pulse(pulse.leg, pulse.photons + [probe])

    def on_a_to_b(self, pulse: Pulse, ctx: RoundContext) -> Pulse:
        captured, forwarded = _take_probes(pulse, self.band_nm, ctx.probe_ids)
        if captured:
            ctx.readout = self._read(captured[0], ctx.rng)
        return forwarded

    def finalize(self, ctx: RoundContext) -> object:
        return ctx.blind_guess() if ctx.readout is None else ctx.readout


def make_ipe(lambda_e_nm: float = EVE_WAVELENGTH_NM) -> AdversaryStrategy:
    """Invisible-photon eavesdropper for the one-bit ping-pong variants."""
    return _InvisiblePhotonEavesdropper(lambda_e_nm)


class _DenseInvisiblePhotonEavesdropper(_InvisiblePhotonEavesdropper):
    """Entangled-pair probe for the dense-coding variant.

    Eve stores one half of a fresh |Psi+> pair and sends the other half
    through the encoder; a Bell measurement of the returned pair reads
    out both encoded bits.
    """

    width = 2
    protocols = frozenset({"pp_dense"})

    def _probe_qubit(self) -> tuple[QuantumRegister, int]:
        return quantum.make_bell(BellKind.PSI_PLUS), 1  # qubit 0 stays in Eve's lab

    def _read(self, probe: Photon, rng: WordStream) -> int:
        kind, _ = quantum.measure_bell(probe.register, 0, probe.qubit, rng)
        return DENSE_DECODE[kind._name_]


def make_ipe_dense(lambda_e_nm: float = EVE_WAVELENGTH_NM) -> AdversaryStrategy:
    """Invisible entangled-pair eavesdropper for the dense-coding variant."""
    return _DenseInvisiblePhotonEavesdropper(lambda_e_nm)


class _InterceptResend(AdversaryStrategy):
    """Textbook baseline: measure the outbound signal, forward the collapse.

    Measures every photon of the B->A pulse in a fixed basis and never
    guesses a message bit (the measurement happens before the encoding).
    """

    protocols = AdversaryStrategy.protocols

    def __init__(self, basis: np.ndarray):
        self.basis = basis

    def on_b_to_a(self, pulse: Pulse, ctx: RoundContext) -> Pulse:
        for p in pulse.photons:
            quantum.measure(p.register, p.qubit, self.basis, ctx.rng)
        return pulse


def make_intercept_resend(basis: np.ndarray = BASIS_Z) -> AdversaryStrategy:
    return _InterceptResend(basis)


class _BlindBaseProbe(AdversaryStrategy):
    """n-photon probe against the three-way blind-rotation protocol.

    Probes injected after the receiver's blinding rotation pick up only
    the sender's net encoding rotation ROT(s*pi/4 - theta).  Without
    theta the probe readout distribution is independent of s; with
    side knowledge of theta each probe discriminates the two encodings
    exactly.  The probes are split off the returning pulse in
    ``on_a_to_b`` and read in ``finalize``, after the receiver's
    measurement.
    """

    protocols = frozenset({"kkkp"})

    def __init__(self, n: int, lambda_e_nm: float, theta_known: bool):
        if n < 1:
            raise ValueError(f"probe photon count must be >= 1, got {n}")
        check_wavelength("probe lambda_e_nm", lambda_e_nm)
        self.n = n
        self.lambda_e_nm = lambda_e_nm
        self.probe_wavelengths = (lambda_e_nm,)
        self.band_nm = _probe_band(lambda_e_nm)
        self.theta_known = theta_known

    def on_b_to_a(self, pulse: Pulse, ctx: RoundContext) -> Pulse:
        ids = ctx.probe_ids = ctx.new_photon_ids(self.n)
        probes = [Photon(pid, self.lambda_e_nm, quantum.make_single(0.0), 0) for pid in ids]
        return Pulse(pulse.leg, pulse.photons + probes)

    def on_a_to_b(self, pulse: Pulse, ctx: RoundContext) -> Pulse:
        ctx.captured, forwarded = _take_probes(pulse, self.band_nm, ctx.probe_ids)
        return forwarded

    def finalize(self, ctx: RoundContext) -> object:
        captured = ctx.captured
        if not captured:
            return ctx.blind_guess()
        basis = BASIS_Z
        if self.theta_known:
            for p in captured:
                quantum.rotate(p.register, p.qubit, ctx.kkkp_theta)
            basis = BASIS_X
        zeros = [quantum.measure(p.register, p.qubit, basis, ctx.rng)[0] for p in captured].count(0)
        # Majority vote over the probe readouts; fair coin on a tie.
        half = len(captured) / 2.0
        if zeros > half:
            return 0
        if zeros < half:
            return 1
        return ctx.random_bits(1)

    def kkkp_block_form(self, filt: OpticalFilter | None) -> KkkpBlockForm:
        admitted = filt is None or filt.transmits(self.lambda_e_nm)
        return _BlindBaseProbeBlocks(self.n, self.theta_known, admitted)


class _BlindBaseProbeBlocks(KkkpBlockForm):
    """:class:`_BlindBaseProbe` a block at a time.

    Every probe the filter admits is captured by the spectroscope, and
    leaves the encoder as ROT(encode)|0>, so one probability per round
    serves all n readouts.
    """

    def __init__(self, n: int, theta_known: bool, admitted: bool):
        self.n = n
        self.theta_known = theta_known
        self.draws = n if admitted else 0
        self.absorbed = 0 if admitted else n
        self.blind = not admitted

    def guesses(self, theta: tuple[np.ndarray, np.ndarray], encode: tuple[np.ndarray, np.ndarray],
                draws: np.ndarray, coin: np.ndarray) -> np.ndarray:
        if self.blind:
            return coin
        a0, a1 = quantum.rotate_real(1.0, 0.0, encode)
        basis = BASIS_Z
        if self.theta_known:
            a0, a1 = quantum.rotate_real(a0, a1, theta)
            basis = BASIS_X
        p1 = quantum.prob_one_real(a0, a1, basis)
        zeros = self.n - np.count_nonzero(quantum.draws_below(draws, p1[:, None]), axis=1)
        # Majority vote over the probe readouts; fair coin on a tie.
        return np.where(2 * zeros > self.n, 0, np.where(2 * zeros < self.n, 1, coin))


def make_kkkp_probe(
    n: int, lambda_e_nm: float = EVE_WAVELENGTH_NM, theta_known: bool = False
) -> AdversaryStrategy:
    """Probe attack on the blind-rotation protocol.

    ``theta_known`` grants per-round oracle access to the sender's
    blinding angle (the protocol draws a fresh angle every round, so the
    knowledge is modelled as a flag rather than a constant).
    """
    return _BlindBaseProbe(n, lambda_e_nm, theta_known)


class StrategyKind(Enum):
    NO_EVE = "no_eve"
    IPE = "ipe"
    IPE_DENSE = "ipe_dense"
    INTERCEPT_RESEND = "intercept_resend"
    KKKP_PROBE = "kkkp_probe"


@dataclass(frozen=True)
class StrategySpec:
    """Declarative strategy description used by the session runner and CLI.

    ``basis`` is "z", "x", or a rotation angle in radians.
    """

    kind: StrategyKind
    lambda_e_nm: float = EVE_WAVELENGTH_NM
    basis: str | float = "z"
    n: int = 1
    theta_known: bool = False

    def validate(self) -> None:
        check_wavelength("attack lambda_e_nm", self.lambda_e_nm)
        if self.n < 1:
            raise ConfigError(f"attack n must be >= 1, got {self.n}")
        parse_basis(self.basis)


def parse_basis(basis: str | float) -> np.ndarray:
    if isinstance(basis, str):
        name = basis.lower()
        if name == "z":
            return BASIS_Z
        if name == "x":
            return BASIS_X
        raise ConfigError(f"unknown measurement basis {basis!r} (want 'z', 'x' or radians)")
    if not math.isfinite(basis):
        raise ConfigError(f"attack basis angle must be finite, got {basis}")
    return quantum.rotated_basis(float(basis))


def make_strategy(spec: StrategySpec) -> AdversaryStrategy:
    """Instantiate the strategy described by ``spec``."""
    spec.validate()
    if spec.kind is StrategyKind.NO_EVE:
        return make_no_eve()
    if spec.kind is StrategyKind.IPE:
        return make_ipe(spec.lambda_e_nm)
    if spec.kind is StrategyKind.IPE_DENSE:
        return make_ipe_dense(spec.lambda_e_nm)
    if spec.kind is StrategyKind.INTERCEPT_RESEND:
        return make_intercept_resend(parse_basis(spec.basis))
    return make_kkkp_probe(spec.n, spec.lambda_e_nm, spec.theta_known)
