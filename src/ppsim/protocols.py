"""One round of the four two-way protocols, written once.

All four protocols run the same round (:func:`_round`) against an
adversary: the signal is prepared (in ``kkkp`` also sent out and
blinded by the decoder); the pulse travels into the encoder, through
the adversary's ``on_b_to_a`` and the optional input filter at the
encoder's lab; protocols with a control mode then toss the mode coin.
A control round ends with the encoder's check of the visible photons.
A message round encodes the message bits, sends the pulse back out of
the encoder through ``on_a_to_b`` and ends with the decoder's
measurement.  Every round ends with the adversary's ``finalize``, and
the returned :class:`RoundRecord` is its complete transcript.

Conventions shared by all rounds:

* The encoding is applied to every photon that made it through the
  encoder's input filter, legitimate or not; the optics are
  wavelength-agnostic.
* A control-mode measurement that sees two or more photons inside the
  detector window flags an anomaly.  The decoder applies the same rule
  to the pulse arriving back at its lab.
* A missing signal photon at the decoder is an erasure: the decoded
  bits are recorded as ``None`` and count as an error.

Each protocol supplies only its own parts (a :class:`_Protocol`): the
preparation, the control check, the encoding, the decoding, its message
width and whether it has a control mode.  ``pp_epr`` and ``pp_dense``
send half of a Bell pair and differ only in their unitary and decode
tables; ``pp_single`` sends one of four BB84 states; ``kkkp``, the
three-way blind-rotation protocol, sends a blinded rotated photon and
has no control mode.

:func:`block_form` gives a session's rounds a block at a time, as
numpy arrays over the rounds, when its strategy has a block form for
the protocol: :class:`KkkpBlocks` for ``kkkp``, :class:`BranchBlocks`
for the ping-pong protocols.  Both give each round of a :class:`Block`
the leaf it ends at, in a small table of leaf records that the rounds
share: ``kkkp`` computes it from the round's amplitudes, a ping-pong
block looks it up in a table keyed by codes read off the round's words,
one per axis of the leaves' word boxes.  The records are bit for bit
those of :func:`run_round`, which stays the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import quantum
from .adversaries import BLIND_GUESS, DENSE_DECODE, AdversaryStrategy, RoundContext
from .optics import (ConfigError, Detector, Leg, OpticalFilter, Photon, Pulse, apply_filter,
                     check_wavelength, is_visible)
from .quantum import BASIS_X, BASIS_Z, I2, IY, X, Z, BellKind, Prep, QuantumRegister

TWO_PI = 2.0 * math.pi

# Blind-rotation protocol: encoding rotates the polarization by +-pi/4.
ENC_ANGLE = math.pi / 4


class ProtocolKind(Enum):
    PP_EPR = "pp_epr"
    PP_SINGLE = "pp_single"
    PP_DENSE = "pp_dense"
    KKKP = "kkkp"


class Mode(Enum):
    CONTROL = "control"
    MESSAGE = "message"


def message_bit_width(kind: ProtocolKind) -> int:
    return _PROTOCOLS[kind._name_].width


def has_control_mode(kind: ProtocolKind) -> bool:
    return _PROTOCOLS[kind._name_].has_control


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
        check_wavelength("signal_wavelength_nm", self.signal_wavelength_nm)
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if has_control_mode(self.kind):
            if not 0 < self.control_prob < 1:
                raise ConfigError(f"control_prob must be in (0, 1), got {self.control_prob}")
        elif self.control_prob != 0:  # the protocol defines no control mode
            raise ConfigError(f"control_prob must be 0 for {self.kind.value}, got {self.control_prob}")


_RECORD_FIELDS = ("mode", "alice_bits", "bob_bits", "control_pass", "eve_guess",
                  "eve_blind", "anomaly", "absorbed_count", "kkkp_angles")


class RoundRecord:
    """Transcript of one round; the rounds of a block that end at one leaf share one.

    Immutable: each field is a read-only view of a private slot, so
    assigning it raises ``AttributeError``, yet a record costs no more
    to build than a slotted dataclass.  ``==`` and ``repr`` are a
    dataclass's.
    """

    __slots__ = tuple("_" + name for name in _RECORD_FIELDS)

    def __init__(self, mode: Mode,
                 alice_bits: int | None = None,     # encoded value; message rounds only
                 bob_bits: int | None = None,       # decoded value; None = erasure/decode failure
                 control_pass: bool | None = None,  # None when not evaluated (message or discarded)
                 eve_guess: int | None = None, eve_blind: bool = False, anomaly: bool = False,
                 absorbed_count: int = 0, kkkp_angles: tuple[float, float] | None = None):
        self._mode = mode
        self._alice_bits = alice_bits
        self._bob_bits = bob_bits
        self._control_pass = control_pass
        self._eve_guess = eve_guess
        self._eve_blind = eve_blind
        self._anomaly = anomaly
        self._absorbed_count = absorbed_count
        self._kkkp_angles = kkkp_angles

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _record_values(self) == _record_values(other)

    def __repr__(self) -> str:
        fields = zip(_RECORD_FIELDS, _record_values(self))
        return f"RoundRecord({', '.join(f'{name}={value!r}' for name, value in fields)})"


_record_values = attrgetter(*RoundRecord.__slots__)
for _name in _RECORD_FIELDS:
    setattr(RoundRecord, _name, property(attrgetter("_" + _name)))

# A round's outcome, the key of a count table: all its fields but kkkp_angles, which no statistic reads.
outcome = attrgetter(*RoundRecord.__slots__[:8])


class Block(NamedTuple):
    """A block of rounds: round i ends at leaf ``leaves[i]``, whose record is ``table[leaves[i]]``.

    ``table`` is an object array.  In ``kkkp`` each round also has its
    own ``kkkp_angles`` = (theta, phi), which the leaf records leave out.
    """

    leaves: np.ndarray
    table: np.ndarray
    kkkp_angles: tuple[np.ndarray, np.ndarray] | None

    def records(self) -> list[RoundRecord]:
        """One record per round: its leaf's own record, or in ``kkkp`` a
        new record that adds the round's angles to it."""
        if self.kkkp_angles is None:
            return self.table[self.leaves].tolist()
        fields = [outcome(rec) for rec in self.table.tolist()]
        angles = zip(*(a.tolist() for a in self.kkkp_angles))
        return [RoundRecord(*fields[leaf], ang) for leaf, ang in zip(self.leaves.tolist(), angles)]


def _visible(cfg: ProtocolConfig, pulse: Pulse) -> list[Photon]:
    return [p for p in pulse.photons if is_visible(cfg.detector, p)]


def _announce(visible: list[Photon], basis: np.ndarray, rng: WordStream) -> int | None:
    """Measure every visible photon in ``basis``; the first one's outcome, or None if none is."""
    outcomes = [quantum.measure(p.register, p.qubit, basis, rng)[0] for p in visible]
    return outcomes[0] if outcomes else None


class _Protocol:
    """A protocol's own parts of :func:`_round`.

    ``prepare(cfg, ctx)`` returns the signal photon and what the later
    parts need of the preparation; ``check(ctx, visible, prep)`` is the
    control-mode verdict on the photons the encoder sees (protocols with
    ``has_control`` only); ``encoding(bits, prep)`` is the operation and
    its argument applied to every photon in the encoder;
    ``decode(returned, prep, rng)`` reads the message off the signal
    that came back; ``angles(prep)`` is the record's ``kkkp_angles``.
    A message holds ``width`` bits, the encoding of value j being
    ``unitaries[j]``.
    """

    has_control = True
    width = 1
    unitaries: tuple[np.ndarray, ...]

    def encoding(self, bits: int, prep: object) -> tuple:
        return quantum.apply_unitary, self.unitaries[bits]

    def angles(self, prep: object) -> tuple[float, float] | None:
        return None


class _PairProtocol(_Protocol):
    """Entangled-pair ping-pong (``pp_epr``, and ``pp_dense`` with two bits per photon).

    Bob keeps the home half of a |Psi+> pair and sends the travel half;
    Alice either Z-measures it (control) or encodes j via ``unitaries[j]``
    and returns it; Bob Bell-measures home+travel and decodes the
    outcome through ``decoded`` (an outcome missing there is a failure).
    """

    def __init__(self, unitaries: tuple[np.ndarray, ...], decoded: dict[str, int]):
        self.unitaries, self.decoded = unitaries, decoded
        self.width = (len(unitaries) - 1).bit_length()

    def prepare(self, cfg: ProtocolConfig, ctx: RoundContext) -> tuple[Photon, QuantumRegister]:
        pair = quantum.make_bell(BellKind.PSI_PLUS)  # qubit 0 home, qubit 1 travel
        return Photon(ctx.new_photon_id(), cfg.signal_wavelength_nm, pair, 1), pair

    def check(self, ctx: RoundContext, visible: list[Photon], pair: QuantumRegister) -> bool:
        announced = _announce(visible, BASIS_Z, ctx.rng)
        if announced is None:
            return False  # expected photon never arrived
        home, _ = quantum.measure(pair, 0, BASIS_Z, ctx.rng)
        return announced != home  # Psi+ anticorrelates in Z

    def decode(self, returned: Photon, pair: QuantumRegister, rng: WordStream) -> int | None:
        outcome, _ = quantum.measure_bell(pair, 0, returned.qubit, rng)
        return self.decoded.get(outcome._name_)


class _SingleProtocol(_Protocol):
    """Single-photon ping-pong.

    Bob prepares a random state from {|0>, |1>, |+>, |->}, kept as its
    index: bit 1 set for the X basis, bit 0 the value.  Alice encodes
    j=0 as identity and j=1 as the double flip IY, which inverts the
    value in both preparation bases.  In control mode Alice measures in
    a random basis and the check is evaluated only when her basis
    matches Bob's preparation basis; otherwise the check is discarded.
    """

    preps = (Prep.ZERO, Prep.ONE, Prep.PLUS, Prep.MINUS)
    unitaries = (I2, IY)

    def prepare(self, cfg: ProtocolConfig, ctx: RoundContext) -> tuple[Photon, int]:
        prep = ctx.random_bits(2)
        reg = quantum.make_single(self.preps[prep])
        return Photon(ctx.new_photon_id(), cfg.signal_wavelength_nm, reg, 0), prep

    def check(self, ctx: RoundContext, visible: list[Photon], prep: int) -> bool | None:
        alice_in_z = ctx.random_bits(1)
        announced = _announce(visible, BASIS_Z if alice_in_z else BASIS_X, ctx.rng)
        if alice_in_z != (prep < 2):
            return None  # mismatched bases: check discarded
        return announced == (prep & 1) if announced is not None else False

    def decode(self, returned: Photon, prep: int, rng: WordStream) -> int:
        basis = BASIS_X if prep & 2 else BASIS_Z
        outcome, _ = quantum.measure(returned.register, returned.qubit, basis, rng)
        return int(outcome != (prep & 1))


class _KkkpProtocol(_Protocol):
    """Three-way blind-rotation protocol; it defines no control mode.

    Leg 1: Alice sends ROT(theta)|0> with theta drawn uniformly.  Bob
    blinds it with ROT(phi), phi uniform, and returns it (leg 2, into
    the encoder).  Alice unwinds her own angle and encodes by rotating
    +-pi/4, then sends the pulse back (leg 3, out of the encoder).  Bob
    unwinds phi and discriminates ROT(+pi/4)|0> from ROT(-pi/4)|0>, i.e.
    measures in the X basis.  Leg 1 passes the adversary untouched.
    """

    has_control = False

    def prepare(self, cfg: ProtocolConfig, ctx: RoundContext) -> tuple[Photon, tuple[float, float]]:
        # TWO_PI * rng.random() is bit-identical to rng.uniform(0.0, TWO_PI)
        # (numpy computes low + (high - low) * random()) and costs a third.
        theta = ctx.kkkp_theta = TWO_PI * ctx.rng.random()
        reg = quantum.make_single(theta)
        signal = Photon(ctx.new_photon_id(), cfg.signal_wavelength_nm, reg, 0)
        phi = TWO_PI * ctx.rng.random()
        quantum.rotate(reg, 0, phi)
        return signal, (theta, phi)

    def encoding(self, bits: int, angles: tuple[float, float]) -> tuple:
        # ROT(-theta) followed by ROT(+-pi/4); rotations commute, so the
        # pair collapses to one rotation.
        return quantum.rotate, (-ENC_ANGLE if bits else ENC_ANGLE) - angles[0]

    def decode(self, returned: Photon, angles: tuple[float, float], rng: WordStream) -> int:
        quantum.rotate(returned.register, returned.qubit, -angles[1])
        outcome, _ = quantum.measure(returned.register, returned.qubit, BASIS_X, rng)
        return outcome  # + result <-> ROT(+pi/4)|0> <-> j = 0

    def angles(self, angles: tuple[float, float]) -> tuple[float, float]:
        return angles


# Bell outcome name -> bit; Phi outcomes are decoding failures, not bits.
_EPR_DECODE = {BellKind.PSI_PLUS._name_: 0, BellKind.PSI_MINUS._name_: 1}

# Keyed by member name: a str hashes in C, while hashing the member itself
# runs Enum.__hash__ in Python, once per round.
_PROTOCOLS: dict[str, _Protocol] = {
    ProtocolKind.PP_EPR.name: _PairProtocol((I2, Z), _EPR_DECODE),
    ProtocolKind.PP_SINGLE.name: _SingleProtocol(),
    # Two-bit value -> unitary (high bit = phase flip, low bit = bit flip).
    ProtocolKind.PP_DENSE.name: _PairProtocol((I2, X, Z, quantum.ZX), DENSE_DECODE),
    ProtocolKind.KKKP.name: _KkkpProtocol(),
}


def _round(cfg: ProtocolConfig, adv: AdversaryStrategy, rng: WordStream,
           proto: _Protocol, coin=RoundContext.random_bits) -> RoundRecord:
    """One round of ``proto``; the block forms read its draws in this order.  A
    blind guess (``ctx.blind_guess()``) is drawn last, by ``coin(ctx, adv.width)``."""
    ctx = RoundContext(rng=rng)
    signal, prep = proto.prepare(cfg, ctx)
    pulse = adv.on_b_to_a(Pulse(Leg.B_TO_A, [signal]), ctx)
    pulse, absorbed = (pulse, 0) if cfg.filter is None else apply_filter(cfg.filter, pulse)
    if proto.has_control and rng.random() < cfg.control_prob:
        mode, bits, bob_bits = Mode.CONTROL, None, None
        visible = _visible(cfg, pulse)
        control_pass = proto.check(ctx, visible, prep)
    else:
        mode, control_pass = Mode.MESSAGE, None
        bits = ctx.random_bits(proto.width)
        apply, encoding = proto.encoding(bits, prep)
        for p in pulse.photons:
            apply(p.register, p.qubit, encoding)
        back = adv.on_a_to_b(Pulse(Leg.A_TO_B, list(pulse.photons)), ctx)
        visible = _visible(cfg, back)
        returned = next((p for p in back.photons if p.id == signal.id), None)
        bob_bits = None if returned is None else proto.decode(returned, prep, rng)
    guess = adv.finalize(ctx)
    if guess is BLIND_GUESS:
        guess = coin(ctx, adv.width)
    return RoundRecord(mode, bits, bob_bits, control_pass, eve_guess=guess, eve_blind=ctx.blind,
                       anomaly=len(visible) >= 2, absorbed_count=absorbed, kkkp_angles=proto.angles(prep))


# rng.random() returns the multiples of 2**-53 in [0, 1): u = (w >> 11) / _GRID
# for a word w, so u < t just when w < ceil(t * _GRID) << 11, where an interval
# of a BranchBlocks leaf ends (t * _GRID is exact).
_GRID = 9007199254740992.0


def _uniform(words: np.ndarray) -> np.ndarray:
    """What ``rng.random()`` makes of each 64-bit word: its top 53 bits times 2**-53."""
    return (words >> 11).astype(np.float64) * (1.0 / _GRID)


class WordStream:
    """A round's stream over given 64-bit words, drawn as numpy's Generator draws them.

    ``random()`` takes a whole word: its top 53 bits times 2**-53.  A
    32-bit draw (``bit_generator.ctypes.next_uint32``, which
    ``RoundContext.random_bits`` calls) takes a fresh word's low half and
    keeps its high half for the next one; a uniform drawn in between
    leaves that half alone.  ``taken`` counts the words taken.  A draw
    past the end of ``words`` replaces them with ``more(k)``, the round's
    first k words or more, so any number of draws stays exact.
    """

    def __init__(self, words: Sequence[int], more: Callable[[int], Sequence[int]] | None = None):
        self.words, self.more, self.taken, self.state = words, more, 0, None
        self.high: int | None = None  # the word whose high half is kept

    bit_generator = ctypes = property(lambda self: self)  # not stored: no cycle keeps a stream alive

    def random(self):
        self.taken += 1
        return self._uniform(self.taken - 1)

    def next_uint32(self, state: None):
        if self.high is None:
            self.high = self.taken
            self.taken += 1
            return self._half(self.high, 0)
        word, self.high = self.high, None
        return self._half(word, 32)

    def _uniform(self, word: int) -> float:
        return (self._word(word) >> 11) / _GRID

    def _half(self, word: int, shift: int) -> int:
        return (self._word(word) >> shift) & 0xFFFFFFFF

    def _word(self, word: int) -> int:
        if word >= len(self.words):
            self.words = self.more(2 * word + 1)
        return self.words[word]


class KkkpBlocks:
    """The rounds of a ``kkkp`` session a block at a time, as arrays over the rounds.

    Under a strategy with a block form, a round is a fixed function of
    the first ``words`` 64-bit words of its stream.  With u(w) the
    uniform ``rng.random()`` makes of a word:

    * theta = 2*pi*u(w0) and phi = 2*pi*u(w1);
    * Alice's bit is bit 31 of w2, the low half ``random_bits(1)``
      returns; bit 63, the half numpy keeps for the next such call, is
      the strategy's coin;
    * Bob's X-basis draw is u(w3), if the filter admits the signal;
    * the strategy's draws follow.

    The angles are computed from u(w); a draw is compared with a
    probability p on its raw word, as w >> 11 < ceil(p * 2**53)
    (``quantum.draws_below``), which decides as u(w) < p does.

    Photon routing depends only on wavelengths, so the filter's verdict
    is worked out once per session.  Every amplitude and probability is
    computed with the float operations of :func:`run_round`, in the same
    order, and snapped to 0 or 1 by its rule (``quantum.prob_one_real``),
    so a block gives bit for bit the records that :func:`run_round`
    gives round by round: a round's leaf is its (alice, bob, guess), and
    its angles come beside the leaf table.
    Each angle's cosine and sine are computed once by numpy, equal to :func:`run_round`'s
    ``math`` ones as ``test_cos_sin_is_libm_bit_for_bit`` pins; ROT(-phi) reuses phi's.
    """

    def __init__(self, cfg: ProtocolConfig, adv: AdversaryStrategy):
        filt = cfg.filter
        self.signal_admitted = filt is None or filt.transmits(cfg.signal_wavelength_nm)
        self.eve = adv.kkkp_block_form(filt)
        self.first_draw = 3 + self.signal_admitted  # the strategy's first word
        self.words = self.first_draw + self.eve.draws
        absorbed = (not self.signal_admitted) + self.eve.absorbed
        # A leaf per (alice, bob, guess), bob and guess None, 0 or 1:
        # leaf 9 * alice + 3 * (bob + 1) + guess + 1, None counted as -1.
        self.table = np.array([
            RoundRecord(Mode.MESSAGE, alice, bob, None, guess, self.eve.blind, False, absorbed)
            for alice in (0, 1) for bob in (None, 0, 1) for guess in (None, 0, 1)], object)

    def run(self, words: np.ndarray) -> Block:
        """The rounds whose streams begin with the rows of ``words``."""
        theta, phi = TWO_PI * _uniform(words[:, :2].T)
        bits = ((words[:, 2] >> 31) & 1).astype(np.int64)
        encode = np.where(bits == 1, -ENC_ANGLE, ENC_ANGLE) - theta
        theta_cs, (c_phi, s_phi), encode_cs = map(quantum.cos_sin, (theta, phi, encode))
        leaves = 9 * bits + 4
        if self.signal_admitted:
            a0, a1 = quantum.rotate_real(1.0, 0.0, theta_cs)  # ROT(theta)|0>
            a0, a1 = quantum.rotate_real(a0, a1, (c_phi, s_phi))
            a0, a1 = quantum.rotate_real(a0, a1, encode_cs)
            a0, a1 = quantum.rotate_real(a0, a1, (c_phi, -s_phi))  # ROT(-phi)
            p1 = quantum.prob_one_real(a0, a1, BASIS_X)
            leaves += 3 * quantum.draws_below(words[:, 3], p1)
        else:
            leaves -= 3  # an erasure
        coin = (words[:, 2] >> 63).astype(np.int64)
        guesses = self.eve.guesses(theta_cs, encode_cs, words[:, self.first_draw:], coin)
        leaves += -1 if guesses is None else guesses
        return Block(leaves, self.table, (theta, phi))


class BranchBlocks:
    """The rounds of a ping-pong session a block at a time: each row's leaf is one table lookup.

    Under a strategy whose own class lists the protocol in
    ``protocols``, a round reads its stream only by comparing a uniform
    draw with a threshold (the mode coin, and the Born rule in
    ``quantum.measure`` and ``quantum.measure_bell``) or by taking the top
    bits of a 32-bit half word (``RoundContext.random_bits``), and every
    photon's route follows from wavelengths fixed for the session.  Every
    reachable run of the round then ends at a leaf, the record it
    returns, whose box of words holds w >> 11 in an interval [lo, hi) for
    each uniform word w it compares and one value for each half-word
    field it reads.  Two leaves part at their first diverging decision,
    so their boxes are disjoint, and each row lies in its round's leaf's.

    The leaves are found before any row runs, by running the round
    (:func:`_round`) itself on stand-in streams (:class:`_BranchDraws`)
    that take each decision one way and queue the others: one run per
    decision path.  A blind guess, the round's last draw, feeds only
    ``eve_guess``, so each of its values but 0 is a leaf that copies the
    record of the run.  A draw compared with the very probability p the
    scalar kernels compute is below it just when w >> 11 < ceil(p * 2**53),
    so the ends of an interval are exact integer cuts, and no float
    operation is written a second time.  The kernels read a probability within 2**-50 of 0 or 1
    as exactly 0 or 1, so float rounding makes no leaf.

    Each uniform word that a leaf narrows is an axis, cut by the ends of
    the leaves' intervals on it: a row's code there is the number of ends
    p with w >= p << 11.  Each half-word field is an axis whose code is
    the field's value.  ``keys``, a table over the product of the axes,
    holds each leaf at every key in its box, and -1 at keys no row has.
    A block reads each axis's code off its column of words, folds the
    codes into one key and looks the leaf up, with no float draw, so it
    gives bit for bit the records the round gives round by round: a
    round's leaf, whose record in ``table`` is the one its run returned.
    """

    def __init__(self, cfg: ProtocolConfig, adv: AdversaryStrategy):
        proto = _PROTOCOLS[cfg.kind._name_]
        boxes, records, self.words = [], [], 0  # per leaf: its (bounds, fields), and its record
        pending: list[_Branch] = [([], {}, {})]
        while pending:
            run = _BranchDraws(*pending.pop(), pending)
            record = _round(cfg, adv, run, proto, _BranchDraws.blind_coin)
            self.words = max(self.words, run.taken)
            boxes.append((run.bounds, run.fields))
            records.append(record)
            if run.coin:  # the field read last; its values in the order reruns would find them
                field = next(reversed(run.fields))
                values = _record_values(record)
                for guess in range(field[2], 0, -1):
                    boxes.append((run.bounds, {**run.fields, field: guess}))
                    records.append(RoundRecord(*values[:4], guess, *values[5:]))
        self.table = np.array(records, object)
        # A uniform word that a leaf narrows is an axis: the sorted ends of
        # the leaves' intervals on it, 0 and 2**53 among them.
        found: dict[int, set[int]] = {}
        for bounds, _ in boxes:
            for word, interval in bounds.items():
                found.setdefault(word, {0, 1 << 53}).update(interval)
        ends = {word: sorted(points) for word, points in found.items()}
        fields = list(dict.fromkeys(field for _, box_fields in boxes for field in box_fields))
        # What :meth:`run` reads per axis: (word, its inner ends p << 11, size)
        # per uniform word, and (word, shift, mask, size) per half-word field.
        self.cuts = [(word, [np.uint64(p << 11) for p in points[1:-1]], len(points) - 1)
                     for word, points in ends.items()]
        self.fields = [(word, np.uint64(shift), np.uint64(mask), mask + 1) for word, shift, mask in fields]
        keys = np.full([axis[-1] for axis in self.cuts + self.fields], -1, np.intp)
        ranks = [(word, {end: rank for rank, end in enumerate(points)}) for word, points in ends.items()]
        for leaf, (bounds, box_fields) in enumerate(boxes):
            box = []
            for word, rank in ranks:
                lo, hi = bounds.get(word, (0, 1 << 53))
                box.append(slice(rank[lo], rank[hi]))
            keys[(*box, *[box_fields.get(field, slice(None)) for field in fields])] = leaf
        self.keys = keys.ravel()

    def run(self, words: np.ndarray) -> Block:
        """The rounds whose streams begin with the rows of ``words``: each row's
        codes on the axes, folded into one key, give its leaf."""
        key = 0
        for word, points, size in self.cuts:
            key = sum((words[:, word] >= p for p in points), key * size)
        for word, shift, mask, size in self.fields:  # uint64 + intp would give floats
            key = key * size + ((words[:, word] >> shift) & mask).view(np.intp)
        return Block(self.keys[key], self.table, None)


# A run of the round still to make: the outcomes it replays, and its box after them.
_Branch = tuple[list[int], dict[int, tuple[int, int]], dict[tuple[int, int, int], int]]


class _BranchDraws(WordStream):
    """Stands in for a round's stream while :class:`BranchBlocks` finds its leaves.

    It takes words as :class:`WordStream` does, but hands out
    :class:`_Draw` objects.  A run replays the outcomes of ``path``,
    one per decision, from the box the last of them leaves: ``bounds``
    maps each narrowed uniform word w to the [lo, hi) holding w >> 11, and
    ``fields`` each half-word field (word, shift, mask) read to its value.
    Past the path it takes each decision's first reachable outcome,
    narrowing its box, and queues each other one on ``pending`` with a
    box of its own, so the box a run ends with is its leaf's: one run per
    decision path.  A blind guess (:meth:`blind_coin`) is no decision: it
    sets ``coin`` and reads 0.
    """

    def __init__(self, path: list[int], bounds: dict[int, tuple[int, int]],
                 fields: dict[tuple[int, int, int], int], pending: list[_Branch]):
        super().__init__(())
        self.replay, self.decided, self.pending = iter(path), list(path), pending
        self.bounds, self.fields = bounds, fields
        self.coin = False

    @staticmethod
    def blind_coin(ctx: RoundContext, width: int) -> int:
        """``ctx.random_bits(width)`` as a blind guess: its field reads 0 and queues no other value."""
        ctx.rng.coin = True
        return ctx.random_bits(width)

    def _uniform(self, word: int) -> _Draw:
        return _Draw(self, word, 0)

    def _half(self, word: int, shift: int) -> _Draw:
        return _Draw(self, word, shift)


@dataclass(slots=True)
class _Draw:
    """A draw of :class:`_BranchDraws`: ``u < threshold`` and ``half >> shift`` are decisions.

    ``u < threshold`` is decided as w >> 11 < cut, the integer cut
    ceil(threshold * 2**53) clamped into the word's bounds: a draw is
    below it on [lo, cut) and not below on [cut, hi).  A blind guess's
    ``half >> shift`` is no decision: it reads 0.
    """

    draws: _BranchDraws
    word: int
    half: int  # where the half word starts in its word: 0 for the low half, 32 for the high

    def __lt__(self, threshold: float) -> bool:
        draws = self.draws
        outcome = next(draws.replay, None)
        if outcome is None:
            lo, hi = draws.bounds.get(self.word, (0, 1 << 53))
            # Every draw is below a threshold >= 1, and none below one <= 0 or NaN.
            threshold = min(threshold, 1.0) if threshold > 0.0 else 0.0
            cut = min(max(math.ceil(threshold * _GRID), lo), hi)
            outcome = int(cut == hi)  # not below, unless every draw is
            if lo < cut < hi:
                draws.pending.append((draws.decided + [1], {**draws.bounds, self.word: (lo, cut)},
                                      draws.fields.copy()))
                draws.bounds[self.word] = (cut, hi)
            draws.decided.append(outcome)
        return bool(outcome)

    def __rshift__(self, shift: int) -> int:
        draws = self.draws
        field = (self.word, self.half + shift, (1 << (32 - shift)) - 1)
        if draws.coin:
            draws.fields[field] = 0
            return 0
        outcome = next(draws.replay, None)
        if outcome is None:
            for value in range(1, field[2] + 1):
                draws.pending.append((draws.decided + [value], draws.bounds.copy(), {**draws.fields, field: value}))
            draws.fields[field] = outcome = 0
            draws.decided.append(outcome)
        return outcome


def block_form(cfg: ProtocolConfig, adv: AdversaryStrategy) -> KkkpBlocks | BranchBlocks | None:
    """The block form of a session, or None if it runs round by round.

    A session runs in blocks when the strategy's own class lists its
    protocol in ``protocols``: a ping-pong session as
    :class:`BranchBlocks`, a ``kkkp`` session as :class:`KkkpBlocks` if
    that class also defines ``kkkp_block_form``.
    """
    own = vars(type(adv))
    if cfg.kind.value not in own.get("protocols", ()):
        return None
    if cfg.kind is not ProtocolKind.KKKP:
        return BranchBlocks(cfg, adv)
    return KkkpBlocks(cfg, adv) if "kkkp_block_form" in own else None


def run_round(cfg: ProtocolConfig, adv: AdversaryStrategy,
              rng: WordStream) -> RoundRecord:
    """Execute one round of the configured protocol."""
    return _round(cfg, adv, rng, _PROTOCOLS[cfg.kind._name_])
