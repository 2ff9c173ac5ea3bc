"""Time evolution of the Bloch vector and the density matrix.

The Bloch vector obeys the linear equation dr/dt = h x r - L r with a
constant real 3x3 generator G = Omega(h) - L, where Omega is the
cross-product matrix of h. The density-matrix picture integrates
drho/dt = -i[H, rho] - D[rho] through its 4x4 Liouvillian, built with the
dissipator applied natively in its given form; both pictures must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityState, as_field_vector, bloch_entropies, matrix_from_pauli, _readonly
from .errors import BadStepError, NegativeTimeError
from .forms import apply_dissipator, require_symmetric
from .tolerances import (
    MAX_STEPS,
    NEWTON_SLOPE_FLOOR,
    REPEATED_ROOT_P_MIN,
    REPEATED_ROOT_TOL,
    STEP_FIT_TOL,
    SYMMETRY_TOL,
)


def cross_matrix(h) -> np.ndarray:
    """The antisymmetric matrix Omega with Omega x = h cross x."""
    h = np.asarray(h, dtype=float)
    return np.array(
        [
            [0.0, -h[2], h[1]],
            [h[2], 0.0, -h[0]],
            [-h[1], h[0], 0.0],
        ]
    )


@dataclass(frozen=True)
class Generator:
    """Constant Bloch-space generator G = Omega(h) - L."""

    h: np.ndarray
    dissipation: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", _readonly(np.asarray(self.h, dtype=float)))
        object.__setattr__(self, "dissipation", _readonly(self.dissipation))
        object.__setattr__(self, "matrix", _readonly(self.matrix))


def build_generator(h, ell) -> Generator:
    """Assemble G = Omega(h) - L from a field (or Hamiltonian) and a
    symmetric dissipation matrix."""
    hv = as_field_vector(h)
    ell = require_symmetric(ell, tol=SYMMETRY_TOL, what="dissipation matrix")
    return Generator(h=hv, dissipation=ell, matrix=cross_matrix(hv) - ell)


def matrix_exponential(a) -> np.ndarray:
    """exp(a) for a small dense matrix by scaling and squaring.

    The scaled matrix is pushed below norm 1/2 and exponentiated with a
    Taylor polynomial of degree 12, giving ~1e-14 accuracy at this size.
    """
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    n = a.shape[0]
    eye = np.eye(n, dtype=a.dtype)
    norm = float(np.linalg.norm(a, np.inf))
    if not np.isfinite(norm):
        raise ValueError("matrix entries must be finite")
    squarings = 0
    while norm / (2.0**squarings) >= 0.5:
        squarings += 1
    b = a / (2.0**squarings)
    term = eye.copy()
    out = eye.copy()
    for k in range(1, 13):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def evolve_expm(gen: Generator, r0, t: float) -> np.ndarray:
    """Exact propagation r(t) = exp(t G) r0 of the linear Bloch equation."""
    if t < 0.0:
        raise NegativeTimeError(f"time must be nonnegative, got {t!r}")
    r0 = np.asarray(r0, dtype=float)
    return matrix_exponential(t * gen.matrix) @ r0


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered Bloch samples with per-sample entropy.

    The matrix-picture integrator additionally records the worst trace and
    hermiticity deviation seen along the run.
    """

    times: np.ndarray
    states: np.ndarray
    entropies: np.ndarray
    dt: float
    method: str
    max_trace_dev: float | None = None
    max_herm_dev: float | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        entropies = np.asarray(self.entropies, dtype=float)
        if not (len(times) == len(states) == len(entropies)):
            raise ValueError("sample arrays must have equal length")
        if len(times) > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "times", _readonly(times))
        object.__setattr__(self, "states", _readonly(states))
        object.__setattr__(self, "entropies", _readonly(entropies))

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def max_radius(self) -> float:
        return float(np.max(np.linalg.norm(self.states, axis=1)))


def _step_count(t_max: float, dt: float) -> int:
    """The number of dt steps nearest t_max, capped at MAX_STEPS."""
    if not np.isfinite(t_max) or t_max <= 0.0:
        raise BadStepError(f"t_max must be finite and positive, got {t_max!r}")
    if not np.isfinite(dt) or dt <= 0.0:
        raise BadStepError(f"dt must be positive, got {dt!r}")
    if dt > t_max * (1.0 + STEP_FIT_TOL):
        raise BadStepError(f"dt {dt!r} exceeds t_max {t_max!r}")
    if not t_max / dt <= MAX_STEPS:
        raise BadStepError(
            f"t_max / dt = {t_max / dt:.3g} steps exceeds the cap of {MAX_STEPS}"
        )
    return max(1, int(round(t_max / dt)))


def rk4_step(a) -> np.ndarray:
    """One classical RK4 step of dx/dt = (A/dt) x as a matrix, for a = A dt.

    For a constant linear generator the RK4 update is exactly one
    multiplication by the degree-4 Taylor polynomial of exp(a).
    """
    eye = np.eye(len(a))
    return eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)


def propagate(step, v0, steps: int) -> np.ndarray:
    """The rows v0, step v0, step^2 v0, ..., step^steps v0."""
    v0 = np.asarray(v0)
    out = np.empty((steps + 1, len(v0)), dtype=np.result_type(step, v0))
    out[0] = v0
    for k in range(steps):
        out[k + 1] = step @ out[k]
    return out


def evolve_rk4(gen: Generator, r0, t_max: float, dt: float) -> Trajectory:
    """Classical fixed-step 4th-order integration of the Bloch equation.

    Each step is one multiplication by :func:`rk4_step` of dt G. t_max is
    taken as the nearest integer multiple of dt.
    """
    steps = _step_count(t_max, dt)
    states = propagate(rk4_step(dt * gen.matrix), r0, steps)
    return Trajectory(
        times=dt * np.arange(steps + 1),
        states=states,
        entropies=bloch_entropies(states),
        dt=dt,
        method="rk4",
    )


def liouvillian(h, form) -> np.ndarray:
    """The generator rho -> -i[H, rho] - D[rho] as a 4x4 complex matrix.

    It acts on the row-major vec(rho) = (rho_00, rho_01, rho_10, rho_11).
    Column k is the image of the k-th matrix unit, with the dissipator
    applied natively in the supplied form (see :func:`apply_dissipator`).
    h is a Hamiltonian or a field vector; its identity part drops out.
    """
    hmat = matrix_from_pauli(0.0, 0.5 * as_field_vector(h))
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    images = -1j * (hmat @ units - units @ hmat) - apply_dissipator(form, units)
    return images.reshape(4, 4).T


def evolve_density(h, form, rho0: DensityState, t_max: float, dt: float) -> Trajectory:
    """Integrate the full 2x2 master equation drho/dt = -i[H, rho] - D[rho].

    The dissipator enters natively in the supplied form (operators,
    rate/axis terms, or dissipation matrix) through :func:`liouvillian`.
    As in :func:`evolve_rk4`, each step is one multiplication by
    :func:`rk4_step` of dt times the Liouvillian. Samples store the
    Bloch projection of rho; trace and hermiticity drift are the worst over
    all samples.
    """
    steps = _step_count(t_max, dt)
    step = rk4_step(dt * liouvillian(h, form))
    vecs = propagate(step, rho0.matrix.reshape(4), steps)
    d00, d01, d10, d11 = vecs.T
    states = np.stack(
        [(d01 + d10).real, (1j * (d01 - d10)).real, (d00 - d11).real], axis=1
    )
    return Trajectory(
        times=dt * np.arange(steps + 1),
        states=states,
        entropies=bloch_entropies(states),
        dt=dt,
        method="rk4-density",
        max_trace_dev=float(np.max(np.abs((d00 + d11).real - 1.0))),
        max_herm_dev=float(np.max(np.abs([d01 - np.conj(d10), d00.imag, d11.imag]))),
    )


# Kept over np.linalg.eigvals, which misses test_rotated_exceptional_point by ~1e-8.
def _cubic_roots(trace: float, minors: float, det: float) -> np.ndarray:
    """Roots of x^3 - trace x^2 + minors x - det, one real + a real or
    conjugate pair."""
    shift = trace / 3.0
    p = minors - trace * trace / 3.0
    q = -2.0 * trace**3 / 27.0 + minors * trace / 3.0 - det
    disc = -4.0 * p**3 - 27.0 * q**2
    band = REPEATED_ROOT_TOL * max(1.0, abs(4.0 * p**3) + 27.0 * q * q)
    if abs(disc) <= band and abs(p) > REPEATED_ROOT_P_MIN:
        # Repeated root: the square-root branches would amplify rounding to
        # sqrt(eps) here, while the rational resolution is exact.
        single = 3.0 * q / p
        double = -1.5 * q / p
        return np.array([single + shift, double + shift, double + shift], dtype=complex)
    if disc >= 0.0 and p < 0.0:
        # Three real roots: trigonometric form of the depressed cubic.
        amp = 2.0 * np.sqrt(-p / 3.0)
        cos3 = np.clip(-4.0 * q / amp**3, -1.0, 1.0)
        phi = np.arccos(cos3) / 3.0
        ys = amp * np.cos(phi - 2.0 * np.pi * np.arange(3) / 3.0)
        return (ys + shift).astype(complex)
    if disc >= 0.0:
        # Nonnegative discriminant with p >= 0 forces p = q = 0: triple root.
        return np.full(3, shift, dtype=complex)
    # One real root via Cardano, picking the larger-magnitude cube root to
    # avoid cancellation, then the conjugate pair from the quadratic factor.
    s = np.sqrt(max(q * q / 4.0 + p**3 / 27.0, 0.0))
    u3 = -q / 2.0 - s if q >= 0.0 else -q / 2.0 + s
    u = np.cbrt(u3)
    y1 = u + (-p / (3.0 * u)) if u != 0.0 else 0.0
    rem = max(3.0 * y1 * y1 + 4.0 * p, 0.0)
    imag = 0.5 * np.sqrt(rem)
    real = -0.5 * y1 + shift
    return np.array([y1 + shift, real + 1j * imag, real - 1j * imag])


def generator_spectrum(gen: Generator) -> np.ndarray:
    """The three eigenvalues of the real generator matrix.

    Solved in closed form from the characteristic cubic (trigonometric
    branch for three real roots, stabilized Cardano otherwise) and refined
    by one Newton step each. Their sum reproduces the trace.
    """
    a = np.asarray(gen.matrix, dtype=float)
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return np.zeros(3, dtype=complex)
    b = a / scale
    trace = b[0, 0] + b[1, 1] + b[2, 2]
    minors = (
        b[0, 0] * b[1, 1]
        - b[0, 1] * b[1, 0]
        + b[0, 0] * b[2, 2]
        - b[0, 2] * b[2, 0]
        + b[1, 1] * b[2, 2]
        - b[1, 2] * b[2, 1]
    )
    det = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )
    roots = _cubic_roots(trace, minors, det)
    polished = []
    for x in roots:
        f = x**3 - trace * x**2 + minors * x - det
        fp = 3.0 * x**2 - 2.0 * trace * x + minors
        if abs(fp) > NEWTON_SLOPE_FLOOR:
            x = x - f / fp
        polished.append(x)
    return scale * np.array(polished)


def entropy_monotonicity_report(traj: Trajectory) -> float:
    """Largest single-step entropy decrease along a trajectory.

    Nonpositive when entropy never decreases; for completely positive
    evolution under hermitian Lindblad operators any positive value should
    stay within discretization error.
    """
    if len(traj.entropies) < 2:
        return 0.0
    return float(np.max(traj.entropies[:-1] - traj.entropies[1:]))
