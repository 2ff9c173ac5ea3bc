"""Qubit value types and the exact maps between matrix and Bloch pictures.

A qubit density matrix is parameterized as rho = (1/2)(I + r . sigma) with a
real 3-vector r of length <= 1; a hermitian Hamiltonian as
H = (1/2)(h0 I + h . sigma) with real h. All operators here are fixed at 2x2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadTraceError,
    BlochOutOfBallError,
    NotHermitianError,
    NotUnitError,
)
from .tolerances import (
    BALL_TOL,
    HERMITIAN_TOL,
    ROUNDTRIP_TOL,
    TRACE_TOL,
    UNIT_TOL,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

# Stack indexed by Bloch component: SIGMA[0] = sigma_x, etc.
SIGMA = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

LN2 = float(np.log(2.0))


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.flags.writeable = False
    return out


def frobenius_normalized(a: np.ndarray) -> np.ndarray:
    """a divided by its Frobenius norm; the zero matrix is returned as is.

    An exact power-of-two prescale to a largest entry in [0.5, 1) keeps the
    norm from overflowing for entries near 1e300 (or underflowing near
    1e-300). For every other input the quotient is bit-identical to
    a / np.linalg.norm(a).
    """
    a = np.asarray(a, dtype=float)
    peak = float(np.max(np.abs(a)))
    if peak == 0.0:
        return a
    a = np.ldexp(a, -math.frexp(peak)[1])
    return a / np.linalg.norm(a)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its conjugate transpose."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    defect = hermiticity_defect(m)
    if defect > tol:
        raise NotHermitianError(f"{what} is not hermitian (defect {defect:.3e})")
    return m


def pauli_coefficients(m: np.ndarray) -> tuple[complex, np.ndarray]:
    """Expand a 2x2 matrix as c0*I + c . sigma.

    The coefficients c0 = tr(m)/2 and c_a = tr(m sigma_a)/2 are complex for a
    general matrix and real for a hermitian one.
    """
    m = np.asarray(m, dtype=complex)
    c0 = 0.5 * (m[0, 0] + m[1, 1])
    c = np.array(
        [
            0.5 * (m[0, 1] + m[1, 0]),
            0.5j * (m[0, 1] - m[1, 0]),
            0.5 * (m[0, 0] - m[1, 1]),
        ]
    )
    return c0, c


def matrix_from_pauli(c0: complex, c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pauli_coefficients`."""
    cx, cy, cz = c
    return np.array(
        [[c0 + cz, cx - 1j * cy], [cx + 1j * cy, c0 - cz]], dtype=complex
    )


@dataclass(frozen=True)
class DensityState:
    """A qubit state carried in both pictures, kept consistent by construction.

    ``matrix`` is hermitian with unit trace and ``bloch`` is the real 3-vector
    with matrix = (1/2)(I + bloch . sigma), |bloch| <= 1.
    """

    matrix: np.ndarray
    bloch: np.ndarray

    def __post_init__(self):
        m = require_hermitian(self.matrix, what="density matrix")
        tr = m[0, 0].real + m[1, 1].real
        if abs(tr - 1.0) > TRACE_TOL:
            raise BadTraceError(f"density matrix trace {tr!r} != 1")
        r = np.asarray(self.bloch, dtype=float)
        if r.shape != (3,):
            raise BlochOutOfBallError("bloch vector must have 3 components")
        if np.linalg.norm(r) > 1.0 + BALL_TOL:
            raise BlochOutOfBallError(
                f"bloch vector has length {np.linalg.norm(r)!r} > 1"
            )
        rebuilt = matrix_from_pauli(0.5, 0.5 * r)
        if np.max(np.abs(rebuilt - m)) > ROUNDTRIP_TOL:
            raise BlochOutOfBallError("matrix and bloch fields are inconsistent")
        object.__setattr__(self, "matrix", _readonly(m))
        object.__setattr__(self, "bloch", _readonly(r))


def density_from_bloch(r) -> DensityState:
    """Build the state (1/2)(I + r . sigma) from a Bloch vector inside the ball."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,) or not np.all(np.isfinite(r)):
        raise BlochOutOfBallError("bloch vector must be a finite real 3-vector")
    if np.linalg.norm(r) > 1.0 + BALL_TOL:
        raise BlochOutOfBallError(f"bloch vector has length {np.linalg.norm(r)!r} > 1")
    return DensityState(matrix=matrix_from_pauli(0.5, 0.5 * r), bloch=r)


def bloch_from_density(m) -> np.ndarray:
    """Extract the Bloch vector r_a = tr(m sigma_a) of a density matrix."""
    m = require_hermitian(m, what="density matrix")
    tr = m[0, 0].real + m[1, 1].real
    if abs(tr - 1.0) > TRACE_TOL:
        raise BadTraceError(f"density matrix trace {tr!r} != 1")
    _, c = pauli_coefficients(m)
    return 2.0 * c.real


def density_from_matrix(m) -> DensityState:
    return DensityState(matrix=np.asarray(m, dtype=complex), bloch=bloch_from_density(m))


def bloch_entropies(states) -> np.ndarray:
    """Von Neumann entropy in nats of each Bloch vector in the rows of states.

    The qubit eigenvalues are (1 +- |r|)/2; |r| is clamped to [0, 1] so that
    tiny integration overshoots do not produce NaNs.
    """
    norms = np.minimum(np.linalg.norm(states, axis=1), 1.0)
    lam = 0.5 * np.stack([1.0 + norms, 1.0 - norms])
    terms = np.where(lam > 0.0, lam * np.log(np.where(lam > 0.0, lam, 1.0)), 0.0)
    return -np.sum(terms, axis=0)


def entropy_from_bloch(r) -> float:
    """Von Neumann entropy in nats of one Bloch vector (see bloch_entropies)."""
    return float(bloch_entropies(np.reshape(r, (1, 3)))[0])


def von_neumann_entropy(state: DensityState) -> float:
    """Von Neumann entropy -tr(rho ln rho) in nats, in [0, ln 2]."""
    return entropy_from_bloch(state.bloch)


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian qubit Hamiltonian (1/2)(h0 I + h . sigma).

    h carries angular-frequency units. h0 multiplies the identity and drops
    out of every commutator, so it never affects the dynamics.
    """

    h: np.ndarray
    h0: float = 0.0

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.shape != (3,) or not np.all(np.isfinite(h)):
            raise ValueError("h must be a finite real 3-vector")
        if not np.isfinite(self.h0):
            raise ValueError("h0 must be finite")
        object.__setattr__(self, "h", _readonly(h))

    @property
    def matrix(self) -> np.ndarray:
        return matrix_from_pauli(0.5 * self.h0, 0.5 * self.h)


def as_field_vector(h) -> np.ndarray:
    """Accept a Hamiltonian or a bare 3-vector and return the field vector h."""
    if isinstance(h, Hamiltonian):
        return np.asarray(h.h, dtype=float)
    h = np.asarray(h, dtype=float)
    if h.shape != (3,) or not np.all(np.isfinite(h)):
        raise ValueError("field must be a finite real 3-vector")
    return h


def unit_vector(n, tol: float = UNIT_TOL) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise NotUnitError("axis must have 3 components")
    norm = float(np.linalg.norm(n))
    if not np.isfinite(norm) or abs(norm - 1.0) > tol:
        raise NotUnitError(f"axis has length {norm!r}, expected 1")
    return n


@dataclass(frozen=True)
class Projector2:
    """Rank-1 projector (1/2)(I + n . sigma), or its complement I - P."""

    axis: np.ndarray
    complement: bool = False

    def __post_init__(self):
        object.__setattr__(self, "axis", _readonly(unit_vector(self.axis)))

    @property
    def matrix(self) -> np.ndarray:
        sign = -1.0 if self.complement else 1.0
        return matrix_from_pauli(0.5, 0.5 * sign * self.axis)

    @property
    def orthogonal(self) -> "Projector2":
        return Projector2(axis=self.axis, complement=not self.complement)


def projector_from_axis(n, complement: bool = False) -> Projector2:
    """Projector onto the +1 eigenstate of n . sigma for a unit axis n."""
    return Projector2(axis=n, complement=complement)
