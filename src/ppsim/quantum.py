"""Pure-state simulation of 1..8 polarization qubits.

A register holds the joint state of ``n`` qubits as a complex amplitude
vector of length ``2**n``.  Basis index convention: qubit 0 is the most
significant bit, so for two qubits the amplitudes are ordered
|00>, |01>, |10>, |11>.

The protocols build only 1- and 2-qubit registers, and numpy's
per-call overhead dwarfs the arithmetic at those sizes, so both run on
scalar paths.  A 1-qubit register keeps its two amplitudes as plain
Python complex numbers.  A 2-qubit register keeps a numpy vector, but
its gates, single-qubit measurements and Bell measurement read the four
amplitudes into Python complex numbers, do the arithmetic there and
write the result back into the vector.  The generic path, a contraction
over the reshaped vector, serves registers of three or more qubits and
is the oracle the scalar paths are tested against.  Every path samples
with one ``rng.random()`` per measurement, so a register embedded in a
larger one yields the same outcomes from the same stream.

Single-qubit unitaries and measurement bases are plain 2x2 complex
arrays.  A measurement basis matrix has the outcome-0 eigenvector in
column 0 and the outcome-1 eigenvector in column 1; the Z basis is the
identity and the rotated basis ROT(theta) doubles as its own basis
matrix.  All randomness enters through an explicitly passed
``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

MAX_QUBITS = 8

_SQRT2_INV = 1.0 / math.sqrt(2.0)

# Single-qubit gates.  ZX is "apply X, then Z"; IY = i*Y is the real
# matrix that flips a qubit in both the Z and the X basis.
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
ZX = Z @ X
IY = np.array([[0, 1], [-1, 0]], dtype=complex)


def rot(theta: float) -> np.ndarray:
    """Polarization rotation [[cos t, -sin t], [sin t, cos t]] on {|0>, |1>}."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


# Measurement bases (columns = outcome eigenvectors).
BASIS_Z = np.eye(2, dtype=complex)
BASIS_X = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV


def rotated_basis(theta: float) -> np.ndarray:
    """Projective basis {ROT(theta)|0>, ROT(theta)|1>}."""
    return rot(theta)


class BellKind(Enum):
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"


_BELL_ORDER = (BellKind.PSI_PLUS, BellKind.PSI_MINUS, BellKind.PHI_PLUS, BellKind.PHI_MINUS)

BELL_AMPLITUDES: dict[BellKind, np.ndarray] = {
    BellKind.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * _SQRT2_INV,
    BellKind.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * _SQRT2_INV,
    BellKind.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * _SQRT2_INV,
    BellKind.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * _SQRT2_INV,
}

# Rows = Bell amplitudes in _BELL_ORDER; used to project onto the Bell basis.
_BELL_MATRIX = np.stack([BELL_AMPLITUDES[k] for k in _BELL_ORDER])

# The per-round lookups below are keyed by member name: a str hashes in C,
# while hashing the member itself runs Enum.__hash__ in Python.
_BELL_BY_NAME = {kind._name_: amps for kind, amps in BELL_AMPLITUDES.items()}


class Prep(Enum):
    """Named single-qubit preparations."""

    ZERO = "zero"
    ONE = "one"
    PLUS = "plus"
    MINUS = "minus"


_PREP_AMPLITUDES: dict[str, tuple[complex, complex]] = {  # keyed by member name
    Prep.ZERO._name_: (1 + 0j, 0j),
    Prep.ONE._name_: (0j, 1 + 0j),
    Prep.PLUS._name_: (_SQRT2_INV + 0j, _SQRT2_INV + 0j),
    Prep.MINUS._name_: (_SQRT2_INV + 0j, -_SQRT2_INV + 0j),
}


class QuantumRegister:
    """Joint pure state of ``n`` qubits; amplitudes has length ``2**n``.

    For ``n >= 2`` the amplitudes are a numpy vector, shared with the
    caller's array and mutable in place; 2-qubit registers run the
    scalar kernels on it, larger ones the generic path.  For ``n == 1``
    they are held as two Python complex numbers (``_a0``, ``_a1``);
    ``amplitudes`` then returns a fresh read-only length-2 vector, and
    assigning to it replaces the state.
    """

    __slots__ = ("n", "_vec", "_a0", "_a1")

    def __init__(self, amplitudes: np.ndarray, n: int):
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
        self.n = n
        self.amplitudes = amplitudes

    @property
    def amplitudes(self) -> np.ndarray:
        if self.n == 1:
            vec = np.array([self._a0, self._a1], dtype=complex)
            vec.flags.writeable = False
            return vec
        return self._vec

    @amplitudes.setter
    def amplitudes(self, value: np.ndarray) -> None:
        vec = np.asarray(value, dtype=complex)
        if vec.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes for {self.n} qubits, got {vec.shape}")
        if self.n == 1:
            self._a0, self._a1 = vec.tolist()
        else:
            self._vec = vec

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QuantumRegister(n={self.n}, amplitudes={self.amplitudes!r})"


def states_equal(a: QuantumRegister, b: QuantumRegister, tol: float = 1e-10) -> bool:
    """Equality modulo global phase: |<a|b>| == 1 within tol."""
    if a.n != b.n:
        return False
    return abs(abs(np.vdot(a.amplitudes, b.amplitudes)) - 1.0) <= tol


def make_bell(kind: BellKind) -> QuantumRegister:
    """Fresh 2-qubit register in the requested Bell state."""
    reg = object.__new__(QuantumRegister)  # amplitudes made here need no validation
    reg.n = 2
    reg._vec = _BELL_BY_NAME[kind._name_].copy()
    return reg


def make_single(spec: Prep | float) -> QuantumRegister:
    """Fresh 1-qubit register.

    ``spec`` is either a named preparation or a polarization angle in
    radians, yielding ROT(angle)|0> = (cos, sin).
    """
    reg = object.__new__(QuantumRegister)  # amplitudes made here need no validation
    reg.n = 1
    if isinstance(spec, Prep):
        reg._a0, reg._a1 = _PREP_AMPLITUDES[spec._name_]
    else:
        theta = float(spec)
        reg._a0, reg._a1 = complex(math.cos(theta)), complex(math.sin(theta))
    return reg


def _check_index(reg: QuantumRegister, qubit: int) -> None:
    if not 0 <= qubit < reg.n:
        raise IndexError(f"qubit {qubit} out of range for {reg.n}-qubit register")


def apply_unitary(reg: QuantumRegister, qubit: int, u: np.ndarray) -> QuantumRegister:
    """Apply a 2x2 unitary to one qubit.  Mutates and returns ``reg``."""
    n = reg.n
    if n == 1 and qubit == 0:  # scalar paths; _check_index rejects other indices
        (u00, u01), (u10, u11) = u.tolist()
        a0, a1 = reg._a0, reg._a1
        reg._a0 = u00 * a0 + u01 * a1
        reg._a1 = u10 * a0 + u11 * a1
        return reg
    if n == 2 and (qubit == 0 or qubit == 1):
        (u00, u01), (u10, u11) = u.tolist()
        a, b, c, d = reg._vec.tolist()
        if qubit == 0:  # pairs (|0x>, |1x>): (a, c) and (b, d)
            reg._vec[:] = (u00 * a + u01 * c, u00 * b + u01 * d,
                           u10 * a + u11 * c, u10 * b + u11 * d)
        else:  # pairs (|x0>, |x1>): (a, b) and (c, d)
            reg._vec[:] = (u00 * a + u01 * b, u10 * a + u11 * b,
                           u00 * c + u01 * d, u10 * c + u11 * d)
        return reg
    _check_index(reg, qubit)
    # Axis 1 of the (left, 2, right) view is the qubit; u acts on it.
    reg._vec = (u @ reg._vec.reshape(1 << qubit, 2, -1)).reshape(-1)
    return reg


def rotate(reg: QuantumRegister, qubit: int, theta: float) -> QuantumRegister:
    """Apply ROT(theta) to one qubit.  Mutates and returns ``reg``.

    Same as ``apply_unitary(reg, qubit, rot(theta))``, without building
    the matrix on the 1-qubit path.
    """
    if reg.n == 1 and qubit == 0:  # scalar path; _check_index rejects other indices
        c, s = math.cos(theta), math.sin(theta)
        a0, a1 = reg._a0, reg._a1
        reg._a0 = c * a0 - s * a1
        reg._a1 = s * a0 + c * a1
        return reg
    return apply_unitary(reg, qubit, rot(theta))


def rotate_real(a0, a1, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ROT(theta) on many 1-qubit states with real amplitudes, as arrays over the states.

    ``a0``/``a1`` are the amplitudes (arrays or scalars), ``theta`` one
    angle per state.  Bit for bit the amplitudes :func:`rotate` gives:
    the imaginary parts of such states stay (signed) zeros, which add
    nothing to a real part, the cosines and sines come from the same
    ``math`` functions, and numpy rounds each product and sum as Python
    does.
    """
    angles = theta.tolist()
    c = np.fromiter(map(math.cos, angles), float, len(angles))
    s = np.fromiter(map(math.sin, angles), float, len(angles))
    return c * a0 - s * a1, s * a0 + c * a1


def prob_one_real(a0: np.ndarray, a1: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Born probability of outcome 1 for 1-qubit states with real amplitude arrays.

    ``basis`` must be real (Z, X or a rotated basis).  Bit for bit the
    probability the scalar :func:`measure` compares its draw with.
    """
    (_, b01), (_, b11) = basis.real.tolist()
    amp = b01 * a0 + b11 * a1  # outcome-1 amplitude, basis^dagger @ (a0, a1)
    return amp * amp


def measure(
    reg: QuantumRegister, qubit: int, basis: np.ndarray, rng: np.random.Generator
) -> tuple[int, QuantumRegister]:
    """Projective measurement of one qubit in the given basis.

    Samples the outcome by the Born rule, collapses the register in
    place (the qubit stays, collapsed onto the outcome eigenvector) and
    returns ``(outcome, reg)``.
    """
    if reg.n == 1 and qubit == 0:  # scalar path; _check_index rejects other indices
        return _collapse_qubit(reg, basis, rng.random()), reg
    _check_index(reg, qubit)
    return _collapse_vector(reg, qubit, basis, rng.random()), reg


def measure_each(
    qubits: Sequence[tuple[QuantumRegister, int]], basis: np.ndarray, rng: np.random.Generator
) -> list[int]:
    """Measure each ``(register, qubit)`` in turn in one basis; returns the outcomes.

    Same draws, outcomes and collapses as calling :func:`measure` on each
    pair in order: numpy fills ``rng.random(k)`` with the values that k
    calls of ``rng.random()`` return, so the pairs share one batched
    draw.  Every index is checked before anything is drawn.
    """
    for reg, qubit in qubits:
        if reg.n != 1 or qubit != 0:
            _check_index(reg, qubit)
    # A single draw is cheaper as a scalar; rng.random(0) draws nothing.
    draws = [rng.random()] if len(qubits) == 1 else rng.random(len(qubits)).tolist()
    outcomes = []
    for (reg, qubit), r in zip(qubits, draws):
        if reg.n == 1:
            outcomes.append(_collapse_qubit(reg, basis, r))
        else:
            outcomes.append(_collapse_vector(reg, qubit, basis, r))
    return outcomes


def _collapse_qubit(reg: QuantumRegister, basis: np.ndarray, r: float) -> int:
    """Born-rule outcome of a 1-qubit register for the uniform draw ``r``; collapses it."""
    a0, a1 = reg._a0, reg._a1
    in_z = basis is BASIS_Z
    if not in_z:  # amplitudes in the measurement basis: basis^dagger @ (a0, a1)
        (b00, b01), (b10, b11) = basis.tolist()
        a0, a1 = (b00.conjugate() * a0 + b10.conjugate() * a1,
                  b01.conjugate() * a0 + b11.conjugate() * a1)
    p1 = a1.real * a1.real + a1.imag * a1.imag
    if r < p1:
        kept = a1 / math.sqrt(p1)
        reg._a0, reg._a1 = (0j, kept) if in_z else (b01 * kept, b11 * kept)
        return 1
    kept = a0 / math.sqrt(1.0 - p1)
    reg._a0, reg._a1 = (kept, 0j) if in_z else (b00 * kept, b10 * kept)
    return 0


def _collapse_vector(reg: QuantumRegister, qubit: int, basis: np.ndarray, r: float) -> int:
    """:func:`_collapse_qubit` for one qubit of a register of two or more qubits."""
    in_z = basis is BASIS_Z
    if reg.n == 2:
        return _collapse_pair(reg, qubit, basis, in_z, r)
    psi = reg._vec.reshape(1 << qubit, 2, -1)  # axis 1 is the measured qubit
    if not in_z:  # amplitudes in the measurement basis
        psi = basis.conj().T @ psi
    p1 = float(np.sum(np.abs(psi[:, 1]) ** 2))
    outcome = 1 if r < p1 else 0
    psi[:, 1 - outcome] = 0.0
    psi /= math.sqrt(p1 if outcome else 1.0 - p1)
    if not in_z:
        reg._vec = (basis @ psi).reshape(-1)
    return outcome


def _collapse_pair(reg: QuantumRegister, qubit: int, basis: np.ndarray, in_z: bool, r: float) -> int:
    """Scalar :func:`_collapse_vector` for a 2-qubit register."""
    vec = reg._vec
    a, b, c, d = vec.tolist()
    # (x0, x1): the measured qubit's amplitudes with the other qubit at 0;
    # (y0, y1): the same with the other qubit at 1.
    x0, x1, y0, y1 = (a, c, b, d) if qubit == 0 else (a, b, c, d)
    if not in_z:  # amplitudes in the measurement basis: basis^dagger @ pair
        (b00, b01), (b10, b11) = basis.tolist()
        b00c, b01c, b10c, b11c = b00.conjugate(), b01.conjugate(), b10.conjugate(), b11.conjugate()
        x0, x1 = b00c * x0 + b10c * x1, b01c * x0 + b11c * x1
        y0, y1 = b00c * y0 + b10c * y1, b01c * y0 + b11c * y1
    p1 = x1.real * x1.real + x1.imag * x1.imag + y1.real * y1.real + y1.imag * y1.imag
    if r < p1:
        outcome, norm = 1, math.sqrt(p1)
        kx, ky = x1 / norm, y1 / norm
        x0, x1, y0, y1 = (0j, kx, 0j, ky) if in_z else (b01 * kx, b11 * kx, b01 * ky, b11 * ky)
    else:
        outcome, norm = 0, math.sqrt(1.0 - p1)
        kx, ky = x0 / norm, y0 / norm
        x0, x1, y0, y1 = (kx, 0j, ky, 0j) if in_z else (b00 * kx, b10 * kx, b00 * ky, b10 * ky)
    vec[:] = (x0, y0, x1, y1) if qubit == 0 else (x0, x1, y0, y1)
    return outcome


def measure_bell(
    reg: QuantumRegister, qa: int, qb: int, rng: np.random.Generator
) -> tuple[BellKind, QuantumRegister]:
    """Projective measurement of qubits (qa, qb) in the Bell basis.

    Both qubits must live in ``reg``; entangled partners held in another
    register must be brought in with :func:`merge_registers` first.
    Collapses in place and returns ``(outcome kind, reg)``.
    """
    _check_index(reg, qa)
    _check_index(reg, qb)
    if qa == qb:
        raise ValueError("Bell measurement needs two distinct qubits")
    n = reg.n
    if n == 2:
        return _measure_bell_pair(reg, rng.random())
    psi = reg._vec.reshape([2] * n)
    psi = np.moveaxis(psi, (qa, qb), (0, 1)).reshape(4, -1)
    coeff = _BELL_MATRIX.conj() @ psi  # row k = <bell_k| psi, over the remaining qubits
    probs = np.sum(np.abs(coeff) ** 2, axis=1).tolist()
    k = _pick(probs, rng.random())
    post = np.outer(_BELL_MATRIX[k], coeff[k] / math.sqrt(probs[k]))
    post = np.moveaxis(post.reshape([2, 2] + [2] * (n - 2)), (0, 1), (qa, qb))
    reg._vec = np.ascontiguousarray(post).reshape(-1)
    return _BELL_ORDER[k], reg


def _pick(probs: list[float], r: float) -> int:
    """First index whose cumulative probability exceeds the uniform draw ``r``."""
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if r < acc:
            return i
    return probs.index(max(probs))  # the sum fell short of 1 by rounding


def _measure_bell_pair(reg: QuantumRegister, r: float) -> tuple[BellKind, QuantumRegister]:
    """Scalar :func:`measure_bell` of both qubits of a 2-qubit register.

    Either qubit order gives the same outcome probabilities and the same
    collapsed state, the normalised projection onto the outcome.
    """
    vec = reg._vec
    a, b, c, d = vec.tolist()
    coeff = ((b + c) * _SQRT2_INV, (b - c) * _SQRT2_INV,   # Psi+, Psi-
             (a + d) * _SQRT2_INV, (a - d) * _SQRT2_INV)   # Phi+, Phi-
    probs = [z.real * z.real + z.imag * z.imag for z in coeff]
    k = _pick(probs, r)
    h = coeff[k] * (_SQRT2_INV / math.sqrt(probs[k]))
    if k == 0:
        vec[:] = (0j, h, h, 0j)
    elif k == 1:
        vec[:] = (0j, h, -h, 0j)
    elif k == 2:
        vec[:] = (h, 0j, 0j, h)
    else:
        vec[:] = (h, 0j, 0j, -h)
    return _BELL_ORDER[k], reg


def merge_registers(r1: QuantumRegister, r2: QuantumRegister) -> QuantumRegister:
    """Tensor product register; r2's qubit indices shift up by ``r1.n``."""
    n = r1.n + r2.n
    if n > MAX_QUBITS:
        raise ValueError(f"merged register would hold {n} qubits (cap {MAX_QUBITS})")
    return QuantumRegister(np.kron(r1.amplitudes, r2.amplitudes), n)
