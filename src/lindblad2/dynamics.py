"""Time evolution of the Bloch vector and the density matrix.

The Bloch vector obeys the linear equation dr/dt = h x r - L r with a
constant real 3x3 generator G = Omega(h) - L, where Omega is the
cross-product matrix of h. The density-matrix picture integrates
drho/dt = -i[H, rho] - D[rho] through its 4x4 Liouvillian, built with the
dissipator applied natively in its given form; both pictures must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityState, as_field_vector, bloch_entropies, matrix_from_pauli, _readonly
from .errors import BadStepError, NegativeTimeError, StepSizeError
from .forms import apply_dissipator, require_symmetric
from .tolerances import (
    MAX_STEPS,
    NEWTON_SLOPE_FLOOR,
    REPEATED_ROOT_P_MIN,
    REPEATED_ROOT_TOL,
    STEP_FIT_TOL,
    STEP_GROWTH_TOL,
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

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(self.matrix))


def build_generator(h, ell) -> Generator:
    """Assemble G = Omega(h) - L from a field (or Hamiltonian) and a
    symmetric dissipation matrix."""
    ell = require_symmetric(ell, what="dissipation matrix")
    return Generator(matrix=cross_matrix(as_field_vector(h)) - ell)


# The degree-12 Taylor polynomial of exp(b) in Paterson-Stockmeyer form:
# row i holds 1/k! for k = 4i .. 4i+3, so that with b4 = b^4
# exp(b) ~ C0 + b4 (C1 + b4 (C2 + b4 / 12!)), C_i = sum_j TAYLOR_CHUNKS[i, j] b^j.
TAYLOR_CHUNKS = np.array([[1.0 / math.factorial(4 * i + j) for j in range(4)] for i in range(3)])
TAYLOR_LAST = 1.0 / math.factorial(12)


def matrix_exponential(a) -> np.ndarray:
    """exp(a) for a small dense matrix by scaling and squaring.

    The scaled matrix b is pushed below norm 1/2 and exponentiated with a
    Taylor polynomial of degree 12, giving ~1e-14 accuracy at this size.
    The polynomial is evaluated by Paterson-Stockmeyer: the powers b^2, b^3
    and b^4, one product of TAYLOR_CHUNKS with the stacked I, b, b^2, b^3,
    and three Horner steps in b^4, so six matrix products in all.
    """
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=1).max())
    if not np.isfinite(norm):
        raise ValueError("matrix entries must be finite")
    # The fewest squarings s with norm / 2^s < 1/2; the scaling is exact.
    squarings = math.frexp(norm)[1] + 1 if norm >= 0.5 else 0
    powers = np.empty((4, n, n), dtype=a.dtype)
    powers[0] = np.eye(n)
    b = powers[1] = a * math.ldexp(1.0, -squarings)
    b2 = powers[2] = b.dot(b)
    powers[3] = b2.dot(b)
    b4 = b2.dot(b2)
    c0, c1, c2 = TAYLOR_CHUNKS.dot(powers.reshape(4, n * n)).reshape(3, n, n)
    out = c0 + b4.dot(c1 + b4.dot(c2 + b4 * TAYLOR_LAST))
    for _ in range(squarings):
        out = out.dot(out)
    return out


def _propagator(generator, t: float) -> np.ndarray:
    """exp(t G) for a generator matrix G and a time t >= 0.

    Raises NegativeTimeError for t < 0 or NaN and BadStepError when t G or
    exp(t G) is not finite, which happens when |G| t is so large that the
    product or the squarings overflow; no RuntimeWarning is printed either way.
    """
    if not t >= 0.0:
        raise NegativeTimeError(f"time must be nonnegative, got {t!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # caught as a non-finite entry
        try:
            prop = matrix_exponential(t * generator)
        except ValueError:  # the norm of t G is not finite, as in _fixed_step_run
            raise BadStepError(f"t {t!r} times the generator overflows") from None
    if not np.isfinite(prop).all():
        raise BadStepError(f"exp(t G) is not finite at t = {t!r}; |G| t is too large")
    return prop


def evolve_expm(gen: Generator, r0, t: float) -> np.ndarray:
    """Exact propagation r(t) = exp(t G) r0 of the linear Bloch equation.

    Raises BadStepError when t G or exp(t G) is not finite (see
    :func:`_propagator`).
    """
    return _propagator(gen.matrix, t) @ np.asarray(r0, dtype=float)


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered Bloch samples with per-sample entropy.

    The matrix-picture integrator additionally records the worst trace and
    hermiticity deviation seen along the run.
    """

    times: np.ndarray
    states: np.ndarray
    entropies: np.ndarray
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


def _step_count(t_max: float, dt: float) -> int:
    """The whole number n >= 1 of dt steps that make up t_max, at most
    MAX_STEPS; t_max / dt must lie within STEP_FIT_TOL * n of n."""
    if not np.isfinite(t_max) or t_max <= 0.0:
        raise BadStepError(f"t_max must be finite and positive, got {t_max!r}")
    if not np.isfinite(dt) or dt <= 0.0:
        raise BadStepError(f"dt must be positive, got {dt!r}")
    ratio = t_max / dt
    if not ratio <= MAX_STEPS:
        raise BadStepError(f"t_max / dt = {ratio:.3g} steps exceeds the cap of {MAX_STEPS}")
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > STEP_FIT_TOL * steps:
        raise BadStepError(f"t_max {t_max!r} is not a whole number of dt {dt!r} steps")
    return steps


def rk4_step(a) -> np.ndarray:
    """One classical RK4 step of dx/dt = (A/dt) x as a matrix, for a = A dt.

    For a constant linear generator the RK4 update is exactly one
    multiplication by the degree-4 Taylor polynomial of exp(a).
    """
    eye = np.eye(len(a))
    return eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)


# Rows that propagate fills with one matrix product.
PROPAGATE_BLOCK = 64


def propagate(step, v0, steps: int) -> np.ndarray:
    """The rows v0, step v0, step^2 v0, ..., step^steps v0.

    The powers step^1 ... step^B, B = min(PROPAGATE_BLOCK, steps), are built
    once by doubling: with step^1 ... step^k in the table, one batched
    product with step^k appends step^(k+1) ... step^(2k), so B = 64 takes
    six products. Each block of up to B rows is then one product of the
    stacked powers with the last row already filled. Row k stays within
    1e-14 + k eps / 8 of step^k v0 computed in 40-digit arithmetic
    (test_propagate_matches_exact_powers).
    """
    v0 = np.asarray(v0)
    n = len(v0)
    out = np.empty((steps + 1, n), dtype=np.result_type(step, v0))
    out[0] = v0
    count = min(PROPAGATE_BLOCK, steps)
    powers = np.empty((count, n, n), dtype=out.dtype)  # powers[j] = step^(j+1)
    powers[:1] = step
    k = 1
    while k < count:
        m = min(k, count - k)
        np.matmul(powers[:m], powers[k - 1], out=powers[k : k + m])
        k += m
    table = powers.reshape(count * n, n)  # row block j is step^(j+1)
    # ndarray.dot: the same products as @, at about half the call overhead
    # on matrices this small.
    for k in range(0, steps, PROPAGATE_BLOCK):
        m = min(PROPAGATE_BLOCK, steps - k)
        out[k + 1 : k + 1 + m] = table[: m * n].dot(out[k]).reshape(m, n)
    return out


def _fixed_step_run(generator, v0, t_max: float, dt: float, method: str) -> tuple:
    """(times, rows) of v0 stepped by rk4_step(dt G) or exp(dt G) up to t_max.

    BadStepError refuses, before anything is propagated, a t_max that is not
    a whole number of at most MAX_STEPS dt steps; its StepSizeError subclass
    refuses an overflowing dt G and a step that is not finite or grows
    states: the exact flow of a CP generator never grows, so a spectral
    radius above 1 + STEP_GROWTH_TOL could only produce garbage.
    """
    if method not in ("rk4", "expm"):
        raise ValueError(f"method must be 'rk4' or 'expm', got {method!r}")
    steps = _step_count(t_max, dt)
    with np.errstate(over="ignore", invalid="ignore"):  # caught as overflow or inf growth
        a = dt * generator
        # The norm matrix_exponential scales by; Python floats overflow silently.
        if not math.isfinite(max(map(sum, np.abs(a).tolist()))):
            raise StepSizeError(f"dt {dt!r} times the generator overflows")
        step = rk4_step(a) if method == "rk4" else matrix_exponential(a)
    try:
        growth = max(map(abs, np.linalg.eigvals(step).tolist()))
    except np.linalg.LinAlgError:  # eigvals refuses a step with a non-finite entry
        growth = math.inf
    if not growth <= 1.0 + STEP_GROWTH_TOL:
        raise StepSizeError(
            f"dt {dt!r} fails the step stability check (one {method} step "
            f"grows states by {growth:.3g})",
            rk4_unstable=method == "rk4",
        )
    return dt * np.arange(steps + 1), propagate(step, v0, steps)


def evolve_bloch(gen: Generator, r0, t_max: float, dt: float, method: str) -> Trajectory:
    """Fixed-step integration of the Bloch equation, by rk4_step(dt G) for
    method "rk4" or exp(dt G) for "expm" (see :func:`_fixed_step_run`)."""
    times, states = _fixed_step_run(gen.matrix, r0, t_max, dt, method)
    return Trajectory(times=times, states=states, entropies=bloch_entropies(states))


def evolve_rk4(gen: Generator, r0, t_max: float, dt: float) -> Trajectory:
    """Classical fixed-step 4th-order integration of the Bloch equation."""
    return evolve_bloch(gen, r0, t_max, dt, "rk4")


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
    vec(rho) takes the guarded RK4 run of :func:`evolve_rk4`
    (:func:`_fixed_step_run`) with the Liouvillian as G. Samples store the
    Bloch projection of rho; trace and hermiticity drift are the worst over
    all samples.
    """
    times, vecs = _fixed_step_run(liouvillian(h, form), rho0.matrix.reshape(4), t_max, dt, "rk4")
    d00, d01, d10, d11 = vecs.T
    states = np.stack(
        [(d01 + d10).real, (1j * (d01 - d10)).real, (d00 - d11).real], axis=1
    )
    return Trajectory(
        times=times,
        states=states,
        entropies=bloch_entropies(states),
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
