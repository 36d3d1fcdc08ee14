"""Unit tests for the state-vector core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsim import quantum as q

RNG = np.random.default_rng  # convenience for seeded generators

SQ2 = 1.0 / math.sqrt(2.0)


def random_state(rng: np.random.Generator, n: int) -> q.QuantumRegister:
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return q.QuantumRegister(amps / np.linalg.norm(amps), n)


class TestBellConstruction:
    def test_psi_plus_amplitudes(self):
        reg = q.make_bell(q.BellKind.PSI_PLUS)
        np.testing.assert_allclose(reg.amplitudes, [0, SQ2, SQ2, 0], atol=1e-12)

    def test_phi_plus_amplitudes(self):
        reg = q.make_bell(q.BellKind.PHI_PLUS)
        np.testing.assert_allclose(reg.amplitudes, [SQ2, 0, 0, SQ2], atol=1e-12)

    def test_bell_states_mutually_orthogonal(self):
        kinds = list(q.BellKind)
        for i, a in enumerate(kinds):
            for b in kinds[i + 1:]:
                overlap = np.vdot(q.BELL_AMPLITUDES[a], q.BELL_AMPLITUDES[b])
                assert abs(overlap) < 1e-12

    def test_fresh_register_per_call(self):
        a, b = q.make_bell(q.BellKind.PSI_PLUS), q.make_bell(q.BellKind.PSI_PLUS)
        a.amplitudes[0] = 1.0
        assert b.amplitudes[0] == 0.0


class TestSinglePreparation:
    def test_plus(self):
        np.testing.assert_allclose(q.make_single(q.Prep.PLUS).amplitudes, [SQ2, SQ2], atol=1e-12)

    def test_angle_quarter_pi_equals_plus(self):
        np.testing.assert_allclose(q.make_single(math.pi / 4).amplitudes, [SQ2, SQ2], atol=1e-12)

    def test_angle_zero_is_ground(self):
        np.testing.assert_allclose(q.make_single(0.0).amplitudes, [1, 0], atol=1e-12)

    def test_minus_orthogonal_to_plus(self):
        overlap = np.vdot(q.make_single(q.Prep.PLUS).amplitudes, q.make_single(q.Prep.MINUS).amplitudes)
        assert abs(overlap) < 1e-12


class TestUnitaries:
    def test_catalog_unitarity_within_1e12(self):
        catalog = [q.I2, q.X, q.Z, q.ZX, q.IY]
        catalog += [q.rot(t) for t in np.linspace(-7, 7, 29)]
        for u in catalog:
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_phase_flip_on_travel_qubit_gives_psi_minus(self):
        reg = q.make_bell(q.BellKind.PSI_PLUS)
        q.apply_unitary(reg, 1, q.Z)
        assert q.states_equal(reg, q.make_bell(q.BellKind.PSI_MINUS))

    def test_bit_flip_on_travel_qubit_gives_phi_plus(self):
        # Hand expansion: X on qubit 1 maps (0, a, b, 0) -> (a, 0, 0, b).
        reg = q.make_bell(q.BellKind.PSI_PLUS)
        expected = np.array([reg.amplitudes[1], 0, 0, reg.amplitudes[2]])
        q.apply_unitary(reg, 1, q.X)
        np.testing.assert_allclose(reg.amplitudes, expected, atol=1e-12)
        assert q.states_equal(reg, q.make_bell(q.BellKind.PHI_PLUS))

    @given(theta=st.floats(-10, 10), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rotation_then_inverse_is_identity(self, theta, seed):
        reg = random_state(RNG(seed), 1)
        original = reg.amplitudes.copy()
        q.apply_unitary(reg, 0, q.rot(theta))
        q.apply_unitary(reg, 0, q.rot(-theta))
        np.testing.assert_allclose(reg.amplitudes, original, atol=1e-10)

    def test_double_flip_inverts_both_bases(self):
        for prep, anti in [(q.Prep.ZERO, q.Prep.ONE), (q.Prep.PLUS, q.Prep.MINUS)]:
            reg = q.make_single(prep)
            q.apply_unitary(reg, 0, q.IY)
            assert q.states_equal(reg, q.make_single(anti))

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            q.apply_unitary(q.make_single(q.Prep.ZERO), 1, q.X)


class TestMeasurement:
    def test_x_basis_on_plus_is_deterministic_zero(self):
        rng = RNG(3)
        for _ in range(100):
            outcome, _ = q.measure(q.make_single(q.Prep.PLUS), 0, q.BASIS_X, rng)
            assert outcome == 0

    def test_z_outcomes_on_psi_plus_anticorrelated(self):
        rng = RNG(4)
        for _ in range(200):
            reg = q.make_bell(q.BellKind.PSI_PLUS)
            a, _ = q.measure(reg, 0, q.BASIS_Z, rng)
            b, _ = q.measure(reg, 1, q.BASIS_Z, rng)
            assert a != b

    def test_born_frequencies_z_on_plus(self):
        # p(0) = 1/2; binomial 3-sigma bound over 10^5 samples.
        rng = RNG(5)
        n = 100_000
        zeros = sum(
            1 - q.measure(q.make_single(q.Prep.PLUS), 0, q.BASIS_Z, rng)[0] for _ in range(n)
        )
        assert abs(zeros / n - 0.5) < 3 * math.sqrt(0.25 / n)

    def test_collapse_is_repeatable(self):
        rng = RNG(6)
        reg = q.make_single(q.Prep.PLUS)
        first, _ = q.measure(reg, 0, q.BASIS_Z, rng)
        for _ in range(5):
            again, _ = q.measure(reg, 0, q.BASIS_Z, rng)
            assert again == first

    def test_rotated_basis_eigenstate(self):
        rng = RNG(7)
        outcome, _ = q.measure(q.make_single(1.1), 0, q.rotated_basis(1.1), rng)
        assert outcome == 0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            q.measure(q.make_single(q.Prep.ZERO), 2, q.BASIS_Z, RNG(0))


class TestBellMeasurement:
    def test_deterministic_on_bell_states(self):
        rng = RNG(8)
        for kind in q.BellKind:
            outcome, _ = q.measure_bell(q.make_bell(kind), 0, 1, rng)
            assert outcome is kind

    def test_phase_flip_on_either_qubit_gives_psi_minus(self):
        rng = RNG(9)
        for qubit in (0, 1):
            reg = q.make_bell(q.BellKind.PSI_PLUS)
            q.apply_unitary(reg, qubit, q.Z)
            outcome, _ = q.measure_bell(reg, 0, 1, rng)
            assert outcome is q.BellKind.PSI_MINUS

    def test_product_state_splits_between_psi_outcomes(self):
        # |01> = (Psi+ + Psi-)/sqrt(2): each Psi outcome with p = 1/2.
        rng = RNG(10)
        n = 4000
        hits = {k: 0 for k in q.BellKind}
        for _ in range(n):
            reg = q.QuantumRegister(np.array([0, 1, 0, 0], dtype=complex), 2)
            outcome, _ = q.measure_bell(reg, 0, 1, rng)
            hits[outcome] += 1
        assert hits[q.BellKind.PHI_PLUS] == 0 and hits[q.BellKind.PHI_MINUS] == 0
        assert abs(hits[q.BellKind.PSI_PLUS] / n - 0.5) < 3 * math.sqrt(0.25 / n)

    def test_dense_coding_map(self):
        rng = RNG(11)
        expected = [q.BellKind.PSI_PLUS, q.BellKind.PHI_PLUS, q.BellKind.PSI_MINUS, q.BellKind.PHI_MINUS]
        for value, unitary in enumerate([q.I2, q.X, q.Z, q.ZX]):
            for _ in range(20):
                reg = q.make_bell(q.BellKind.PSI_PLUS)
                q.apply_unitary(reg, 1, unitary)
                outcome, _ = q.measure_bell(reg, 0, 1, rng)
                assert outcome is expected[value]

    def test_collapses_onto_outcome(self):
        rng = RNG(12)
        reg = q.QuantumRegister(np.array([0, 1, 0, 0], dtype=complex), 2)
        outcome, _ = q.measure_bell(reg, 0, 1, rng)
        assert q.states_equal(reg, q.make_bell(outcome))

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            q.measure_bell(q.make_bell(q.BellKind.PSI_PLUS), 1, 1, RNG(0))

    def test_works_inside_larger_register(self):
        rng = RNG(13)
        reg = q.merge_registers(q.make_single(q.Prep.ZERO), q.make_bell(q.BellKind.PHI_MINUS))
        outcome, _ = q.measure_bell(reg, 1, 2, rng)
        assert outcome is q.BellKind.PHI_MINUS


class TestMergeRegisters:
    def test_zero_and_one(self):
        merged = q.merge_registers(q.make_single(q.Prep.ZERO), q.make_single(q.Prep.ONE))
        np.testing.assert_allclose(merged.amplitudes, [0, 1, 0, 0], atol=1e-12)

    def test_plus_and_plus(self):
        merged = q.merge_registers(q.make_single(q.Prep.PLUS), q.make_single(q.Prep.PLUS))
        np.testing.assert_allclose(merged.amplitudes, [0.5] * 4, atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), na=st.integers(1, 3), nb=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_norm_multiplicative(self, seed, na, nb):
        rng = RNG(seed)
        merged = q.merge_registers(random_state(rng, na), random_state(rng, nb))
        assert abs(merged.norm() - 1.0) < 1e-10

    def test_size_cap(self):
        rng = RNG(14)
        with pytest.raises(ValueError):
            q.merge_registers(random_state(rng, 5), random_state(rng, 4))


class TestNormalizationInvariant:
    def test_norm_preserved_over_random_sequences(self):
        # 10^3 random sequences of unitaries and measurements.
        rng = RNG(15)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            reg = random_state(rng, n)
            for _ in range(int(rng.integers(1, 8))):
                qubit = int(rng.integers(0, n))
                op = int(rng.integers(0, 6))
                if op < 4:
                    u = [q.X, q.Z, q.IY, q.rot(float(rng.uniform(0, 7)))][op]
                    q.apply_unitary(reg, qubit, u)
                elif op == 4:
                    basis = [q.BASIS_Z, q.BASIS_X, q.rotated_basis(float(rng.uniform(0, 7)))][
                        int(rng.integers(0, 3))
                    ]
                    q.measure(reg, qubit, basis, rng)
                elif n >= 2:
                    other = (qubit + 1) % n
                    q.measure_bell(reg, qubit, other, rng)
            assert abs(reg.norm() - 1.0) < 1e-10


class TestRegisterValidation:
    def test_length_must_match_qubit_count(self):
        with pytest.raises(ValueError):
            q.QuantumRegister(np.array([1, 0, 0], dtype=complex), 2)

    def test_qubit_count_cap(self):
        with pytest.raises(ValueError):
            q.QuantumRegister(np.zeros(1 << 9, dtype=complex), 9)

    def test_one_qubit_length_checked(self):
        with pytest.raises(ValueError):
            q.QuantumRegister(np.array([1, 0, 0, 0], dtype=complex), 1)
        reg = q.make_single(q.Prep.ZERO)
        with pytest.raises(ValueError):
            reg.amplitudes = np.array([1, 0, 0], dtype=complex)

    def test_one_qubit_amplitudes_are_a_read_only_copy(self):
        # In-place writes would be lost, so they fail; assignment replaces the state.
        reg = q.make_single(q.Prep.ZERO)
        with pytest.raises(ValueError):
            reg.amplitudes[0] = 0.0
        reg.amplitudes = np.array([0, 1], dtype=complex)
        assert q.states_equal(reg, q.make_single(q.Prep.ONE))


def _ground(n: int) -> np.ndarray:
    return np.eye(1, 1 << n, dtype=complex)[0]


def _embedded(reg: q.QuantumRegister) -> q.QuantumRegister:
    """``reg`` as the leading qubits of a 3-qubit product with |0..0>.

    Three qubits is the smallest register on the generic path, so the
    scalar kernels of ``reg`` are compared with the generic ones.
    """
    pad = 3 - reg.n
    return q.merge_registers(reg, q.QuantumRegister(_ground(pad), pad))


def _assert_embeds(small: q.QuantumRegister, big: q.QuantumRegister) -> None:
    expected = np.kron(small.amplitudes, _ground(big.n - small.n))
    np.testing.assert_allclose(big.amplitudes, expected, atol=1e-12)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random 2x2 unitary with complex entries (QR of a Gaussian matrix)."""
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return u


class _FixedDraw:
    """Stand-in generator whose ``random()`` always returns ``r``."""

    def __init__(self, r: float):
        self.r = r

    def random(self) -> float:
        return self.r


class TestOneQubitFastPath:
    """The scalar 1-qubit kernels agree with the generic tensor path."""

    BASES = [q.BASIS_Z, q.BASIS_X, q.rotated_basis(0.7), q.rotated_basis(-2.3)]

    def test_apply_unitary_matches_tensor_path(self):
        rng = RNG(40)
        for _ in range(100):
            reg = random_state(rng, 1)
            big = _embedded(reg)
            u = [q.X, q.Z, q.IY, q.ZX, q.rot(float(rng.uniform(-7, 7)))][int(rng.integers(0, 5))]
            q.apply_unitary(reg, 0, u)
            q.apply_unitary(big, 0, u)
            _assert_embeds(reg, big)

    def test_rotate_matches_rotation_matrix(self):
        rng = RNG(41)
        for theta in rng.uniform(-7, 7, 50):
            reg = random_state(rng, 1)
            big = _embedded(reg)
            q.rotate(reg, 0, float(theta))
            q.apply_unitary(big, 0, q.rot(float(theta)))
            _assert_embeds(reg, big)
            q.rotate(big, 0, -float(theta))
            q.rotate(reg, 0, -float(theta))
            _assert_embeds(reg, big)

    @pytest.mark.parametrize("basis_index", range(len(BASES)))
    def test_measure_matches_tensor_path(self, basis_index):
        basis = self.BASES[basis_index]
        states = RNG(42)
        fast_rng, slow_rng = RNG(43), RNG(43)
        outcomes = set()
        for _ in range(200):
            reg = random_state(states, 1)
            big = _embedded(reg)
            fast, _ = q.measure(reg, 0, basis, fast_rng)
            slow, _ = q.measure(big, 0, basis, slow_rng)
            assert fast == slow
            _assert_embeds(reg, big)
            outcomes.add(fast)
        assert outcomes == {0, 1}
        assert fast_rng.random() == slow_rng.random()  # same number of draws

    def test_rotate_index_out_of_range(self):
        with pytest.raises(IndexError):
            q.rotate(q.make_single(q.Prep.ZERO), 1, 0.3)


class TestTwoQubitFastPath:
    """The scalar 2-qubit kernels agree with the generic path of a 3-qubit register."""

    BASES = [q.BASIS_Z, q.BASIS_X, q.rotated_basis(0.7), q.rotated_basis(-2.3),
             random_unitary(RNG(50))]

    @pytest.mark.parametrize("qubit", [0, 1])
    def test_apply_unitary_matches_generic_path(self, qubit):
        rng = RNG(51)
        for _ in range(100):
            reg = random_state(rng, 2)
            big = _embedded(reg)
            gates = [q.X, q.Z, q.IY, q.ZX, q.rot(float(rng.uniform(-7, 7))), random_unitary(rng)]
            u = gates[int(rng.integers(0, len(gates)))]
            q.apply_unitary(reg, qubit, u)
            q.apply_unitary(big, qubit, u)
            _assert_embeds(reg, big)

    @pytest.mark.parametrize("qubit", [0, 1])
    @pytest.mark.parametrize("basis_index", range(len(BASES)))
    def test_measure_matches_generic_path(self, basis_index, qubit):
        basis = self.BASES[basis_index]
        states = RNG(52)
        fast_rng, slow_rng = RNG(53), RNG(53)
        outcomes = set()
        for _ in range(200):
            reg = random_state(states, 2)
            big = _embedded(reg)
            fast, _ = q.measure(reg, qubit, basis, fast_rng)
            slow, _ = q.measure(big, qubit, basis, slow_rng)
            assert fast == slow
            _assert_embeds(reg, big)
            outcomes.add(fast)
        assert outcomes == {0, 1}
        assert fast_rng.random() == slow_rng.random()  # same number of draws

    @pytest.mark.parametrize("qa, qb", [(0, 1), (1, 0)])
    def test_measure_bell_matches_generic_path(self, qa, qb):
        states = RNG(54)
        fast_rng, slow_rng = RNG(55), RNG(55)
        outcomes = set()
        for _ in range(200):
            reg = random_state(states, 2)
            big = _embedded(reg)
            fast, _ = q.measure_bell(reg, qa, qb, fast_rng)
            slow, _ = q.measure_bell(big, qa, qb, slow_rng)
            assert fast == slow
            _assert_embeds(reg, big)
            outcomes.add(fast)
        assert outcomes == set(q.BellKind)
        assert fast_rng.random() == slow_rng.random()

    def test_measure_bell_shortfall_picks_the_largest_outcome(self):
        # Probabilities summing to 0.81 leave a draw of 0.9 past the
        # cumulative sum; both paths then fall back to the most likely kind.
        amps = 0.9 * (0.6 * q.BELL_AMPLITUDES[q.BellKind.PHI_MINUS]
                      + 0.8 * q.BELL_AMPLITUDES[q.BellKind.PSI_MINUS])
        reg = q.QuantumRegister(amps.copy(), 2)
        big = _embedded(reg)
        assert q.measure_bell(reg, 0, 1, _FixedDraw(0.9))[0] is q.BellKind.PSI_MINUS
        assert q.measure_bell(big, 0, 1, _FixedDraw(0.9))[0] is q.BellKind.PSI_MINUS
        _assert_embeds(reg, big)
        assert q.states_equal(reg, q.make_bell(q.BellKind.PSI_MINUS))

    def test_index_out_of_range(self):
        reg = q.make_bell(q.BellKind.PSI_PLUS)
        with pytest.raises(IndexError):
            q.apply_unitary(reg, 2, q.X)
        with pytest.raises(IndexError):
            q.measure(reg, -1, q.BASIS_X, RNG(0))
        with pytest.raises(IndexError):
            q.measure_bell(reg, 0, 2, RNG(0))


class TestMeasureEach:
    def test_matches_measuring_in_turn(self):
        # One batched draw must reproduce the per-qubit draws, outcomes and
        # collapses, including for qubits inside larger registers.
        states = RNG(44)
        for basis in (q.BASIS_Z, q.BASIS_X, q.rotated_basis(1.3)):
            batch = [(random_state(states, 1), 0) for _ in range(6)]
            batch.append((random_state(states, 2), 1))
            batch.append((random_state(states, 1), 0))
            turn = [(q.QuantumRegister(reg.amplitudes.copy(), reg.n), i) for reg, i in batch]
            batch_rng, turn_rng = RNG(45), RNG(45)
            outcomes = q.measure_each(batch, basis, batch_rng)
            assert outcomes == [q.measure(reg, i, basis, turn_rng)[0] for reg, i in turn]
            for (a, _), (b, _) in zip(batch, turn):
                np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)
            assert batch_rng.integers(0, 2**62) == turn_rng.integers(0, 2**62)

    def test_empty_batch_draws_nothing(self):
        a, b = RNG(46), RNG(46)
        assert q.measure_each([], q.BASIS_Z, a) == []
        assert a.random() == b.random()

    def test_index_checked_before_any_draw(self):
        rng, ref = RNG(47), RNG(47)
        reg = q.make_single(q.Prep.PLUS)
        with pytest.raises(IndexError):
            q.measure_each([(reg, 0), (q.make_single(q.Prep.ZERO), 1)], q.BASIS_Z, rng)
        assert q.states_equal(reg, q.make_single(q.Prep.PLUS))
        assert rng.random() == ref.random()


class _Draw:
    """Stands in for a generator whose next uniform draw is ``r``."""

    def __init__(self, r: float):
        self.r = r

    def random(self) -> float:
        return self.r


class TestRealBlockKernels:
    """The array kernels of the block engine reproduce the scalar kernels bit for bit."""

    def test_rotate_real_matches_rotate(self):
        rng = RNG(48)
        thetas = rng.uniform(-7, 7, (3, 64))
        regs = [q.make_single(float(t)) for t in rng.uniform(-7, 7, 64)]
        a0 = np.array([reg.amplitudes[0].real for reg in regs])
        a1 = np.array([reg.amplitudes[1].real for reg in regs])
        for angles in thetas:
            a0, a1 = q.rotate_real(a0, a1, angles)
            for reg, theta in zip(regs, angles.tolist()):
                q.rotate(reg, 0, theta)
            amps = np.array([reg.amplitudes for reg in regs])
            assert a0.tolist() == amps[:, 0].real.tolist()
            assert a1.tolist() == amps[:, 1].real.tolist()
            assert not amps.imag.any()

    @pytest.mark.parametrize("basis", [q.BASIS_Z, q.BASIS_X, q.rotated_basis(0.7)], ids=["z", "x", "rot"])
    def test_prob_one_real_is_the_scalar_threshold(self, basis):
        # measure() returns 1 exactly for draws below its outcome-1
        # probability, so p1 and the float just below it bracket that
        # probability with no room in between.
        angles = RNG(49).uniform(-7, 7, 64)
        p1 = q.prob_one_real(*q.rotate_real(1.0, 0.0, angles), basis)
        for theta, p in zip(angles.tolist(), p1.tolist()):
            assert q.measure(q.make_single(theta), 0, basis, _Draw(p))[0] == 0
            below = float(np.nextafter(p, 0.0))
            assert q.measure(q.make_single(theta), 0, basis, _Draw(below))[0] == 1
