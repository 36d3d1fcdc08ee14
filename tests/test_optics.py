"""Unit tests for photons, pulses, detectors and filters."""

import numpy as np
import pytest

from ppsim import optics
from ppsim.optics import Detector, Leg, OpticalFilter, Photon, Pulse
from ppsim.quantum import Prep, make_single


def photon(pid: int, wavelength: float) -> Photon:
    return Photon(pid, wavelength, make_single(Prep.ZERO), 0)


def pulse(*wavelengths: float) -> Pulse:
    return Pulse(Leg.B_TO_A, [photon(i, w) for i, w in enumerate(wavelengths)])


class TestVisibility:
    def test_in_window(self):
        assert optics.is_visible(Detector((600, 900)), photon(0, 800))

    def test_far_infrared_probe_invisible(self):
        assert not optics.is_visible(Detector((600, 900)), photon(0, 190_000))

    def test_window_boundaries_inclusive(self):
        d = Detector((600, 900))
        assert optics.is_visible(d, photon(0, 600))
        assert optics.is_visible(d, photon(1, 900))

    def test_pure_function_of_window_and_wavelength(self):
        d = Detector((600, 900))
        p = photon(0, 750)
        assert optics.is_visible(d, p) == optics.is_visible(d, photon(99, 750))
        assert all(optics.is_visible(d, p) for _ in range(3))


class TestFilter:
    def test_narrowband_absorbs_probe(self):
        passed, absorbed = optics.apply_filter(OpticalFilter((799.95, 800.05)), pulse(800, 190_000))
        assert [p.wavelength_nm for p in passed.photons] == [800]
        assert absorbed == 1

    def test_empty_pulse(self):
        passed, absorbed = optics.apply_filter(OpticalFilter((799.95, 800.05)), pulse())
        assert passed.photons == [] and absorbed == 0

    def test_all_in_band_is_identity(self):
        before = pulse(799.96, 800.0, 800.04)
        passed, absorbed = optics.apply_filter(OpticalFilter((799.95, 800.05)), before)
        assert passed.photons == before.photons and absorbed == 0

    def test_idempotent(self):
        f = OpticalFilter((799.95, 800.05))
        first, _ = optics.apply_filter(f, pulse(800, 190_000, 500))
        second, absorbed = optics.apply_filter(f, first)
        assert absorbed == 0 and second.photons == first.photons

    def test_default_filter_centered_on_signal(self):
        f = optics.default_filter()
        assert f.passband_nm == (799.95, 800.05)


class TestInvariants:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Detector((900, 600))
        with pytest.raises(ValueError):
            OpticalFilter((0, 800))

    def test_wavelength_must_be_positive(self):
        with pytest.raises(ValueError):
            photon(0, -5)

    def test_qubit_must_resolve(self):
        with pytest.raises(ValueError):
            Photon(0, 800, make_single(Prep.ZERO), 1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Pulse(Leg.B_TO_A, [photon(1, 800), photon(1, 900)])
