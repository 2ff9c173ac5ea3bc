"""Qubit value types and the exact maps between matrix and Bloch pictures.

A qubit density matrix is parameterized as rho = (1/2)(I + r . sigma) with a
real 3-vector r of length <= 1; a hermitian Hamiltonian as
H = (1/2)(h0 I + h . sigma) with real h. All operators here are fixed at 2x2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadTraceError,
    BadValueError,
    BlochOutOfBallError,
    NotHermitianError,
    NotUnitError,
)
from .tolerances import (
    BALL_TOL,
    HERMITIAN_TOL,
    HYPOT_SLACK,
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
    values = a.ravel().tolist()
    # Python's max skips a NaN that does not come first. numpy's peak is NaN
    # or inf there, and frexp gives both the exponent 0, as it gives NaN.
    peak = max(map(abs, values)) if all(map(math.isfinite, values)) else math.nan
    if peak == 0.0:
        return a
    a = np.ldexp(a, -math.frexp(peak)[1])
    return a / math.sqrt(np.vdot(a, a))


def require_hermitian(m: np.ndarray, what: str = "matrix", size: int = 2) -> np.ndarray:
    """Validate a finite hermitian size x size matrix and return it as complex."""
    m = np.asarray(m, dtype=complex)
    # Every |z| here is a hypot. Python's may differ from numpy's in the last
    # bit, and raises OverflowError where numpy's gives inf, so Python's only
    # passes a matrix clearly inside both bounds (every |entry| below 2^1023,
    # finite wherever it is taken) and numpy's judges the rest.
    try:
        rows = m.tolist() if m.shape == (size, size) else [[math.nan]]
        clear = all(abs(z) < 2.0**1023 for row in rows for z in row) and max(
            abs(rows[i][j] - rows[j][i].conjugate()) for i in range(size) for j in range(i, size)
        ) <= HERMITIAN_TOL * (1.0 - HYPOT_SLACK)
    except OverflowError:
        clear = False
    if clear:
        return m
    # The largest |entry| is NaN or inf exactly when some entry is.
    if m.shape != (size, size) or not float(abs(m).max()) < math.inf:
        raise NotHermitianError(f"{what} must be a finite {size}x{size} matrix")
    defect = float(abs(m - m.conj().T).max())
    if defect > HERMITIAN_TOL:
        raise NotHermitianError(f"{what} is not hermitian (defect {defect:.3e})")
    return m


def pauli_coefficients(m: np.ndarray) -> tuple[complex, np.ndarray]:
    """Expand a 2x2 matrix as c0*I + c . sigma.

    The coefficients c0 = tr(m)/2 and c_a = tr(m sigma_a)/2 are complex for a
    general matrix and real for a hermitian one. A stack of shape (..., 2, 2)
    gives c0 of shape (...) and c of shape (..., 3), each matrix with the
    bits it has alone.
    """
    m = np.asarray(m, dtype=complex)
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    c = np.empty(m.shape[:-2] + (3,), dtype=complex)
    c[..., 0], c[..., 1], c[..., 2] = 0.5 * (m01 + m10), 0.5j * (m01 - m10), 0.5 * (m00 - m11)
    return 0.5 * (m00 + m11), c


def matrix_from_pauli(c0: complex, c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pauli_coefficients`."""
    # On Python scalars: each part is the one numpy's complex arithmetic
    # forms, with 1j * cy = (0 cy - 1 * 0) + (0 * 0 + 1 cy) i.
    cx, cy, cz = np.asarray(c).tolist()
    return np.array([[c0 + cz, cx - 1j * cy], [cx + 1j * cy, c0 - cz]], dtype=complex)


@dataclass(frozen=True, eq=False)
class DensityState:
    """A qubit state, stored as its Bloch vector: a finite real 3-vector
    with |bloch| <= 1. ``matrix`` = (1/2)(I + bloch . sigma) is derived
    from it on first use; both are read-only.
    """

    bloch: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.bloch, dtype=float)
        if not _finite_vector(r):
            raise BlochOutOfBallError("bloch vector must be a finite real 3-vector")
        if (norm := math.sqrt(r.dot(r))) > 1.0 + BALL_TOL:
            raise BlochOutOfBallError(f"bloch vector has length {norm!r} > 1")
        object.__setattr__(self, "bloch", _readonly(r))

    @cached_property
    def matrix(self) -> np.ndarray:
        return _readonly(matrix_from_pauli(0.5, 0.5 * self.bloch))


def density_from_bloch(r) -> DensityState:
    """Build the state (1/2)(I + r . sigma) from a Bloch vector inside the ball."""
    return DensityState(bloch=r)


def bloch_from_density(m) -> np.ndarray:
    """Extract the Bloch vector r_a = Re tr(m sigma_a) of a hermitian,
    unit-trace density matrix, each within HERMITIAN_TOL and TRACE_TOL."""
    m = require_hermitian(m, what="density matrix")
    tr = m[0, 0].real + m[1, 1].real
    if abs(tr - 1.0) > TRACE_TOL:
        raise BadTraceError(f"density matrix trace {tr!r} != 1")
    _, c = pauli_coefficients(m)
    return 2.0 * c.real


def density_from_matrix(m) -> DensityState:
    """The state with m's Bloch vector (see :func:`bloch_from_density`)."""
    return DensityState(bloch=bloch_from_density(m))


def bloch_entropies(states) -> np.ndarray:
    """Von Neumann entropy in nats of each Bloch vector in the rows of states.

    The qubit eigenvalues are (1 +- |r|)/2; |r| is clamped to [0, 1] so that
    tiny integration overshoots do not produce NaNs. |r| is summed as
    x^2 + y^2 + z^2 in that order, the same bits as np.linalg.norm(axis=1).
    """
    states = np.asarray(states, dtype=float)
    x, y, z = states[:, 0], states[:, 1], states[:, 2]
    norms = np.minimum(np.sqrt(x * x + y * y + z * z), 1.0)
    return -(_xlogx(0.5 * (1.0 + norms)) + _xlogx(0.5 * (1.0 - norms)))


def _xlogx(lam: np.ndarray) -> np.ndarray:
    """lam ln lam, taken as 0 where lam <= 0; a NaN stays NaN."""
    positive = ~(lam <= 0.0)
    return np.where(positive, lam * np.log(np.where(positive, lam, 1.0)), 0.0)


def entropy_from_bloch(r) -> float:
    """Von Neumann entropy in nats of one Bloch vector (see bloch_entropies)."""
    return float(bloch_entropies(np.reshape(r, (1, 3)))[0])


def von_neumann_entropy(state: DensityState) -> float:
    """Von Neumann entropy -tr(rho ln rho) in nats, in [0, ln 2]."""
    return entropy_from_bloch(state.bloch)


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian qubit Hamiltonian (1/2)(h0 I + h . sigma).

    h carries angular-frequency units. h0 multiplies the identity and drops
    out of every commutator, so it never affects the dynamics.
    """

    h: np.ndarray
    h0: float = 0.0

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if not _finite_vector(h):
            raise BadValueError("h must be a finite real 3-vector")
        if not np.isfinite(self.h0):
            raise BadValueError("h0 must be finite")
        object.__setattr__(self, "h", _readonly(h))

    @property
    def matrix(self) -> np.ndarray:
        return matrix_from_pauli(0.5 * self.h0, 0.5 * self.h)


def as_field_vector(h) -> np.ndarray:
    """Accept a Hamiltonian or a bare 3-vector and return the field vector h."""
    if isinstance(h, Hamiltonian):
        return np.asarray(h.h, dtype=float)
    h = np.asarray(h, dtype=float)
    if not _finite_vector(h):
        raise BadValueError("field must be a finite real 3-vector")
    return h


def _finite_vector(a: np.ndarray) -> bool:
    """a is a real 3-vector of finite entries."""
    return a.shape == (3,) and all(map(math.isfinite, a.tolist()))


def unit_vector(n) -> np.ndarray:
    """The accepted axis n / |n|.

    An axis is a real 3-vector whose length is 1 within UNIT_TOL; any other
    input raises NotUnitError. Every accepted axis is returned normalised, so
    each reader of a stored axis (FormB, plane_projector and everything
    downstream of them) sees one exact unit vector and one dissipator.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise NotUnitError("axis must have 3 components")
    norm = math.sqrt(n.dot(n))  # the bits of np.linalg.norm(n)
    if not math.isfinite(norm) or abs(norm - 1.0) > UNIT_TOL:
        raise NotUnitError(f"axis has length {norm!r}, expected 1")
    return n / norm
