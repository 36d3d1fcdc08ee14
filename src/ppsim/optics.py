"""Wavelength-tagged photons, pulses, spectral detectors and filters.

Wavelength is a classical tag: photons at different wavelengths are
perfectly distinguishable and a wavelength is never in superposition.
All intervals are closed and in nanometres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .quantum import QuantumRegister

# Canonical wavelengths: near-infrared signal inside the silicon
# detector window, far-infrared spy photon far outside it, and a
# narrowband filter centred on the signal.
SIGNAL_WAVELENGTH_NM = 800.0
DETECTOR_WINDOW_NM = (600.0, 900.0)
EVE_WAVELENGTH_NM = 190_000.0
FILTER_HALF_WIDTH_NM = 0.05


class ConfigError(ValueError):
    """A configuration value violates a constraint of the optics, attack or protocol."""


def check_wavelength(name: str, value: float) -> None:
    """Reject a wavelength that is not a positive, finite number, NaN included."""
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value}")


def _check_interval(name: str, interval: tuple[float, float]) -> None:
    lo, hi = interval
    if not 0 < lo < hi < math.inf:
        raise ConfigError(f"{name} must satisfy 0 < lo < hi < inf, got [{lo}, {hi}]")


@dataclass(frozen=True)
class Detector:
    """Single-photon detector sensitive only inside its spectral window."""

    window_nm: tuple[float, float] = DETECTOR_WINDOW_NM

    def __post_init__(self) -> None:
        _check_interval("detector window", self.window_nm)


@dataclass(frozen=True)
class OpticalFilter:
    """Input filter transmitting only its passband; everything else is absorbed."""

    passband_nm: tuple[float, float]

    def __post_init__(self) -> None:
        _check_interval("filter passband", self.passband_nm)

    def transmits(self, wavelength_nm: float) -> bool:
        lo, hi = self.passband_nm
        return lo <= wavelength_nm <= hi


def default_filter(center_nm: float = SIGNAL_WAVELENGTH_NM) -> OpticalFilter:
    return OpticalFilter((center_nm - FILTER_HALF_WIDTH_NM, center_nm + FILTER_HALF_WIDTH_NM))


class Leg(Enum):
    B_TO_A = "b_to_a"
    A_TO_B = "a_to_b"


# Photon and Pulse check their arguments in a hand-written __init__
# rather than in __post_init__: both are built many times per round, and
# the extra call is a measurable share of a round.


@dataclass(slots=True, init=False)
class Photon:
    """Carrier tagged with a wavelength, holding one qubit of a register."""

    id: int
    wavelength_nm: float
    register: QuantumRegister
    qubit: int

    def __init__(self, id: int, wavelength_nm: float, register: QuantumRegister, qubit: int):
        if wavelength_nm <= 0:
            raise ValueError(f"wavelength must be positive, got {wavelength_nm}")
        if not 0 <= qubit < register.n:
            raise ValueError(f"qubit {qubit} out of range for {register.n}-qubit register")
        self.id = id
        self.wavelength_nm = wavelength_nm
        self.register = register
        self.qubit = qubit


@dataclass(slots=True, init=False)
class Pulse:
    """Ordered photon collection travelling on one channel leg."""

    leg: Leg
    photons: list[Photon]

    def __init__(self, leg: Leg, photons: list[Photon] | None = None):
        if photons is None:
            photons = []
        elif len(photons) > 1 and len({p.id for p in photons}) != len(photons):
            raise ValueError(f"duplicate photon ids in pulse: {[p.id for p in photons]}")
        self.leg = leg
        self.photons = photons


def _subpulse(leg: Leg, photons: list[Photon]) -> Pulse:
    """Pulse of photons taken from one already-checked pulse: ids stay distinct."""
    pulse = object.__new__(Pulse)
    pulse.leg = leg
    pulse.photons = photons
    return pulse


def is_visible(detector: Detector, photon: Photon) -> bool:
    """True iff the photon's wavelength lies inside the detector window."""
    lo, hi = detector.window_nm
    return lo <= photon.wavelength_nm <= hi


def apply_filter(filt: OpticalFilter, pulse: Pulse) -> tuple[Pulse, int]:
    """Transmit in-passband photons (order preserved), absorb the rest.

    Absorbed photons are destroyed: their qubits drop out of play and
    their registers are never consulted again.  Returns the transmitted
    pulse and the absorbed count.
    """
    lo, hi = filt.passband_nm
    passed = [p for p in pulse.photons if lo <= p.wavelength_nm <= hi]
    return _subpulse(pulse.leg, passed), len(pulse.photons) - len(passed)


def split_by_wavelength(pulse: Pulse, band_nm: tuple[float, float]) -> tuple[Pulse, Pulse]:
    """Spectroscope: partition a pulse into in-band and out-of-band parts.

    Order is preserved in each part and no photon is created or lost.
    """
    lo, hi = band_nm
    in_band: list[Photon] = []
    out_band: list[Photon] = []
    for p in pulse.photons:
        (in_band if lo <= p.wavelength_nm <= hi else out_band).append(p)
    return _subpulse(pulse.leg, in_band), _subpulse(pulse.leg, out_band)
