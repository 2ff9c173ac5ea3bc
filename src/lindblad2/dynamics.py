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
from .tolerances import MAX_STEPS, REPEATED_ROOT_TOL, STEP_FIT_TOL, STEP_GROWTH_TOL


def cross_matrix(h) -> np.ndarray:
    """The antisymmetric matrix Omega with Omega x = h cross x."""
    x, y, z = np.asarray(h, dtype=float).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@dataclass(frozen=True)
class Generator:
    """Constant Bloch-space generator G = Omega(h) - L: the field h and the
    dissipation matrix ell kept apart for the spectrum, and G as matrix."""

    h: np.ndarray
    ell: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        for name in ("h", "ell", "matrix"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


def build_generator(h, ell) -> Generator:
    """Assemble G = Omega(h) - L from a field (or Hamiltonian) and a
    symmetric dissipation matrix."""
    ell = require_symmetric(ell, what="dissipation matrix")
    h = as_field_vector(h)
    return Generator(h=h, ell=ell, matrix=cross_matrix(h) - ell)


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


def _dot(p, q) -> float:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _pair_discriminant(lam: float, h: list, ell: list) -> tuple:
    """(disc, size): the eigenvalues of G besides its real one lam are their
    mean -/+ sqrt(disc), those of G on the plane orthogonal to lam's unit
    eigenvector v (the longest cross product of two rows of lam I - G, any v
    if G = lam I). With L on that plane [[p, r], [r, q]], disc = s - (h.v)^2,
    s = ((p - q)/2)^2 + r^2 half the squared norm of P (L - m I) P, P = I - v v^T
    and m the mean: s meets (h.v)^2 only at an exceptional point; size = s + (h.v)^2.
    """
    (a, b, c), (_, d, e), (_, _, f) = ell
    x, y, z = h
    rows = [[lam + a, b + z, c - y], [b - z, lam + d, e + x], [c + y, e - x, lam + f]]  # lam I - G
    v = max(([p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]]
             for p, q in zip(rows, rows[1:] + rows[:1])), key=lambda w: _dot(w, w))
    v = [t / norm for t in v] if (norm := math.sqrt(_dot(v, v))) else [1.0, 0.0, 0.0]
    lv = [_dot(row, v) for row in ell]
    mean = 0.5 * (a + d + f - _dot(v, lv))
    w = [p - mean * q for p, q in zip(lv, v)]  # (L - m I) v
    g = _dot(v, w)
    spread = 0.5 * sum((ell[i][j] - mean * (i == j) - v[i] * w[j] - w[i] * v[j] + g * v[i] * v[j]) ** 2
                       for i in range(3) for j in range(3))
    return spread - _dot(h, v) ** 2, spread + _dot(h, v) ** 2


def generator_spectrum(gen: Generator) -> np.ndarray:
    """The three eigenvalues of G = Omega(h) - L, from h and L kept apart.

    They are the roots of p(x) = det(xI + L) + x|h|^2 + h^T L h, for h and L
    prescaled by one power of two. Every real part lies in the spectrum of
    -L, so Newton bracketed in (-rho, rho), rho twice L's largest absolute
    row sum, finds a real root lam; if all three are real, again from the
    one farthest from their mean -tr L / 3. The other two, of sum -tr L - lam,
    split by :func:`_pair_discriminant`; |disc| within REPEATED_ROOT_TOL of
    its size is a double root.
    """
    hl, ll = gen.h.tolist(), gen.ell.tolist()
    shift = -math.frexp(max(map(abs, hl + ll[0] + ll[1] + ll[2])))[1]
    h = [math.ldexp(x, shift) for x in hl]  # h and L now peak in [1/2, 1), so |h|^2 < 3
    ell = [[math.ldexp(x, shift) for x in row] for row in ll]
    (a, b, c), (_, d, e), (_, _, f) = ell
    trace, hh, hlh = a + d + f, _dot(h, h), _dot(h, [_dot(r, h) for r in ell])
    rho = 2.0 * max(abs(a) + abs(b) + abs(c), abs(b) + abs(d) + abs(e), abs(c) + abs(e) + abs(f))

    def real_root(x: float) -> float:
        # p(x) = det B + h^T B h for B = xI + L; each pass moves an end inward.
        lo, hi = -rho, rho
        while True:
            ba, bd, bf = x + a, x + d, x + f
            ma, md, mf = bd * bf - e * e, ba * bf - c * c, ba * bd - b * b
            value = ba * ma - b * (b * bf - c * e) + c * (b * e - c * bd) + x * hh + hlh
            if value == 0.0:
                return x
            lo, hi = (x, hi) if value < 0.0 else (lo, x)
            slope = ma + md + mf + hh
            step = x - value / slope if slope else lo
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            if abs(step - x) <= math.ulp(rho):
                return step
            x = step

    lam = real_root(0.0)
    mu = -0.5 * (trace + lam)  # p(x) / (x - lam) = (x - mu)^2 + w2
    w2 = a * d - b * b + a * f - c * c + d * f - e * e + hh + lam * (trace + lam) - mu * mu
    if w2 <= 0.0:
        half = math.sqrt(-w2)
        lam = real_root(max((lam, mu - half, mu + half), key=lambda x: abs(x + trace / 3.0)))
        mu = -0.5 * (trace + lam)
    disc, size = _pair_discriminant(lam, h, ell)
    half = math.sqrt(abs(disc)) if abs(disc) > REPEATED_ROOT_TOL * size else 0.0
    pair = (mu - half, mu + half) if disc >= 0.0 else (complex(mu, half), complex(mu, -half))
    return math.ldexp(1.0, -shift) * np.array([lam, *pair], dtype=complex)


def entropy_monotonicity_report(traj: Trajectory) -> float:
    """Largest single-step entropy decrease along a trajectory.

    Nonpositive when entropy never decreases; for completely positive
    evolution under hermitian Lindblad operators any positive value should
    stay within discretization error.
    """
    if len(traj.entropies) < 2:
        return 0.0
    return float(np.max(traj.entropies[:-1] - traj.entropies[1:]))
