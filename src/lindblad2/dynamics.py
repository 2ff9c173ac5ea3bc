"""Time evolution of the Bloch vector and the density matrix.

The Bloch vector obeys the linear equation dr/dt = h x r - L r with a
constant real 3x3 generator G = Omega(h) - L, where Omega is the
cross-product matrix of h. The density-matrix picture integrates
drho/dt = -i[H, rho] - D[rho] through its 4x4 Liouvillian, built with the
dissipator applied natively in its given form; both pictures must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import DensityState, as_field_vector, bloch_entropies, matrix_from_pauli, pauli_coefficients, _readonly
from .errors import BadStepError, NegativeTimeError, StepSizeError
from .forms import _symmetric_rows, apply_dissipator
from .tolerances import (
    MAX_STEPS,
    REPEATED_ROOT_TOL,
    SERIES_SPREAD,
    STEP_FIT_TOL,
    STEP_GROWTH_TOL,
    TERM_LIMIT,
)


def cross_matrix(h) -> np.ndarray:
    """The antisymmetric matrix Omega with Omega x = h cross x."""
    x, y, z = np.asarray(h, dtype=float).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@dataclass(frozen=True, eq=False)
class Generator:
    """Constant Bloch-space generator G = Omega(h) - L, stored as the field
    h and the dissipation matrix ell kept apart. G itself (``matrix``), the
    spectrum and the propagator are each computed once, on first use; the
    arrays are read-only, so they cannot go stale."""

    h: np.ndarray
    ell: np.ndarray

    def __post_init__(self):
        for name in ("h", "ell"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @cached_property
    def matrix(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # an infinite G fails the rk4 step's growth check
            return _readonly(cross_matrix(self.h) - self.ell)

    @cached_property
    def _roots(self) -> tuple:
        return _real_roots(self.h.tolist(), self.ell.tolist())

    @cached_property
    def _closed_form(self) -> "_ClosedForm":
        return _ClosedForm(self)


def build_generator(h, ell) -> Generator:
    """The generator G = Omega(h) - L of a field (or Hamiltonian) and a
    symmetric dissipation matrix."""
    ell = _symmetric_rows(ell, "dissipation matrix")
    return Generator(h=as_field_vector(h), ell=ell)


def _unscaled(x: float, shift: int) -> float:
    """x * 2**-shift, infinite where that overflows."""
    try:
        return math.ldexp(x, -shift)
    except OverflowError:
        return math.copysign(math.inf, x)


class _ClosedForm:
    """exp(t G) = C I + S E + K N for every t, from G's spectrum.

    With h and L prescaled by 2**shift as in :func:`generator_spectrum`, G's
    eigenvalues are lam and mu -/+ sqrt(disc) from :func:`_real_roots`, the
    pair the roots of p(x) / (x - lam), so the three have G's characteristic
    polynomial even where lam is known only to eps^(1/3), at a triple root.
    E = G - mu I and N = E^2 - disc I are taken at that scale and fixed, so
    each time costs three scalars and one product with ``basis``, the
    stacked flat I, E, N.
    Interpolating e^{xt} at the eigenvalues, with delta = lam - mu, gives
    C = e^{mu t} c, S = e^{mu t} s and K = (e^{lam t} - C - delta S) /
    (delta^2 - disc), where c = cosh(sqrt(disc) t) and s = sinh(sqrt(disc) t)
    / sqrt(disc) are entire in disc (cos and sin for disc < 0, s = t at 0).
    K is e^{mu t} times the second divided difference of e^{xt} at delta and
    -/+ sqrt(disc). lam is the root farthest from the mean when all three are
    real, so delta^2 - disc is at least a quarter of the squared spread of
    the roots; the quotient loses digits only when the spread times t is
    small, and for spread t <= SERIES_SPREAD K is summed as the power
    series of that divided difference instead. Every exponent, rate times
    t, is taken by :meth:`_times` at the unscaled rate, so neither an
    undamped field nor a long time overflows a product the answer does not
    need, and a rate beyond the double range still gives a finite exponent
    at a small enough t.
    """

    def __init__(self, gen: Generator):
        shift, h, ell, lam, mu, disc = gen._roots
        (x, y, z), ((a, b, c), (_, d, e), (_, _, f)) = h, ell
        self.shift, self.lam, self.mu, self.disc, self.delta = shift, lam, mu, disc, lam - mu
        self.denominator = self.delta * self.delta - disc
        self.root = math.sqrt(abs(disc))
        self.spread = max(abs(self.delta), self.root)
        rows = [[-a - mu, -z - b, y - c], [z - b, -d - mu, -x - e], [-y - c, x - e, -f - mu]]  # E
        cols = list(zip(*rows))
        flat = [v for row in rows for v in row]
        square = [_dot(row, col) - disc * (i == j) for i, row in enumerate(rows) for j, col in enumerate(cols)]  # N
        self.basis = np.array([[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], flat, square])
        self.sizes = [1.0, max(map(abs, flat)), max(map(abs, square))]  # largest |entry| of I, E, N
        self.curved = self.sizes[2] > 0.0  # N = 0: K does not matter, even where it overflows

    def _times(self, rate: float, t: float) -> float:
        """The unscaled rate times t, for a rate at the prescaled scale. An
        unscaled rate beyond the double range times a small t can still be
        a finite exponent; it is then taken as (rate t) 2**-shift."""
        try:
            return math.ldexp(rate, -self.shift) * t
        except OverflowError:
            return _unscaled(rate * t, self.shift)

    def coefficients(self, t: float) -> tuple:
        """(C, S, K) at a time t >= 0, NaN where exp(t G) is not finite."""
        if t == math.inf:
            return math.nan, math.nan, math.nan
        if t == 0.0:
            return 1.0, 0.0, 0.0  # exp(0 G) = I, even where G's rates overflow
        try:
            decay = math.exp(self._times(self.mu, t))
            turn = self._times(self.root, t)
            if self.disc > 0.0:
                top = math.exp(self._times(self.mu + self.root, t))  # e^{mu t} cosh, sinh without overflow
                c = 0.5 * top * (1.0 + math.exp(-2.0 * turn))
                s = -0.5 * top * math.expm1(-2.0 * turn) / self.root
            elif self.disc < 0.0 and decay:
                c, s = decay * math.cos(turn), decay * math.sin(turn) / self.root
            elif self.disc < 0.0:
                c = s = 0.0  # the phase of a decayed mode is not needed
            else:
                c, s = decay, math.ldexp(decay * t, -self.shift)
            return c, s, self._curvature(t, decay, c, s) if self.curved else 0.0
        except (OverflowError, ValueError):
            return math.nan, math.nan, math.nan

    def _curvature(self, t: float, decay: float, c: float, s: float) -> float:
        x = self._times(self.spread, t)
        if not x <= SERIES_SPREAD:
            return (math.exp(self._times(self.lam, t)) - c - self.delta * s) / self.denominator
        # sum_j Q_j / (j + 2)! with Q_j = h_j(u, w, -w), u = delta t, w^2 = disc t^2:
        # Q_j = u Q_{j-1} + v Q_{j-2} - u v Q_{j-3}, |Q_j| <= (j + 1) x^j.
        u, w = self._times(self.delta, t), self._times(self.root, t)
        v = math.copysign(w * w, self.disc)
        q3, q2, q1 = 0.0, 0.0, 1.0
        total = weight = factor = 0.5
        j = 0
        while total + weight != total:  # until the bound on the next term is below half an ulp
            j += 1
            q3, q2, q1 = q2, q1, u * q1 + v * q2 - u * v * q3
            factor /= j + 2
            total += q1 * factor
            weight *= x / (j + 1)
        scaled = math.ldexp(t, -self.shift)
        return decay * scaled * scaled * total


def _propagators(gen: Generator, times) -> np.ndarray:
    """exp(t G) for each time t >= 0, stacked as an (n, 3, 3) array.

    Raises NegativeTimeError for t < 0 or NaN and BadStepError when exp(t G)
    is not finite: a growing mode at a large t, t = inf, or the phase of an
    undamped mode beyond the double range. Every time shares G's one
    :class:`_ClosedForm` and one product; no RuntimeWarning is printed.
    """
    form = gen._closed_form
    rows = []
    for t in times:
        t = float(t)
        if not t >= 0.0:
            raise NegativeTimeError(f"time must be nonnegative, got {t!r}")
        row = form.coefficients(t)
        if not all(abs(x) * size < TERM_LIMIT for x, size in zip(row, form.sizes)):
            raise BadStepError(f"exp(t G) is not finite at t = {t!r}")
        rows.append(row)
    return np.dot(rows, form.basis).reshape(-1, 3, 3)


def evolve_expm(gen: Generator, r0, t: float) -> np.ndarray:
    """Exact propagation r(t) = exp(t G) r0 of the linear Bloch equation.

    Raises BadStepError when exp(t G) is not finite (see :func:`_propagators`).
    """
    return _propagators(gen, (t,))[0] @ np.asarray(r0, dtype=float)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered Bloch samples, the rows of an (n, 3) ``states``; the
    per-sample ``entropies`` are derived from them, eagerly and read-only.

    The matrix-picture integrator additionally records the worst trace and
    hermiticity deviation seen along the run.
    """

    times: np.ndarray
    states: np.ndarray
    max_trace_dev: float | None = None
    max_herm_dev: float | None = None
    entropies: np.ndarray = field(init=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[1] != 3:
            raise ValueError("states must be an (n, 3) array of Bloch vectors")
        if len(times) != len(states):
            raise ValueError("sample arrays must have equal length")
        if len(times) > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("sample times must be strictly increasing")
        # From the given rows, before the copies: its temporaries then never
        # sit beside both copies of the run.
        object.__setattr__(self, "entropies", _readonly(bloch_entropies(states)))
        object.__setattr__(self, "times", _readonly(times))
        object.__setattr__(self, "states", _readonly(states))

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _step_count(t_max: float, dt: float) -> int:
    """The whole number n >= 1 of dt steps that make up t_max, at most
    MAX_STEPS; t_max / dt must lie within STEP_FIT_TOL * n of n."""
    if not np.isfinite(t_max) or t_max <= 0.0:
        raise BadStepError(f"t_max must be finite and positive, got {t_max!r}")
    if not np.isfinite(dt) or dt <= 0.0:
        raise BadStepError(f"dt must be finite and positive, got {dt!r}")
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


# Rows that propagate fills from one row, the segment's first; a run split
# at multiples of it keeps every bit.
PROPAGATE_SEGMENT = 2**16


def propagate(step, v0, steps: int) -> np.ndarray:
    """The rows v0, step v0, step^2 v0, ..., step^steps v0.

    The rows are filled by doubling, one segment of PROPAGATE_SEGMENT rows at
    a time from its first row s: with rows s ... s+k-1 filled, one product
    of them with step^k fills rows s+k ... s+2k-1, and step^2k = step^k
    step^k. The last level, with step^PROPAGATE_SEGMENT, fills the next
    segment's first row from row s. A run of n steps within one segment
    thus takes about 2 log2 n products; the powers are built once for all
    segments. Every row depends only on its segment's first row, and a
    decaying row reaches 0, because a large power of a decaying step does.
    Row k stays within 1e-14 + k eps / 8 of step^k v0 computed in 40-digit
    arithmetic (test_propagate_matches_exact_powers).
    """
    v0 = np.asarray(v0)
    out = np.empty((steps + 1, len(v0)), dtype=np.result_type(step, v0))
    out[0] = v0
    powers = [np.asarray(step).T]  # powers[j] = (step^(2^j))^T, applied to rows
    for first in range(0, steps, PROPAGATE_SEGMENT):
        filled, end, level = first + 1, min(first + PROPAGATE_SEGMENT, steps) + 1, 0
        while filled < end:
            if level == len(powers):
                powers.append(powers[-1] @ powers[-1])
            m = min(filled - first, end - filled)
            np.matmul(out[first : first + m], powers[level], out=out[filled : filled + m])
            filled, level = filled + m, level + 1
    return out


def _fixed_step_run(generator, v0, t_max: float, dt: float, method: str) -> tuple:
    """(times, rows) of v0 stepped by exp(dt G) or rk4_step(dt G) up to t_max.

    generator is a Generator, or for method "rk4" any square generator matrix.
    BadStepError refuses, before anything is propagated, a t_max that is not
    a whole number of at most MAX_STEPS dt steps, and an exp(dt G) that is
    not finite (see :func:`_propagators`). Its StepSizeError subclass refuses
    an RK4 step that is not finite or grows states: the exact flow of a CP
    generator never grows, so a spectral radius above 1 + STEP_GROWTH_TOL
    could only produce garbage.
    """
    if method not in ("rk4", "expm"):
        raise ValueError(f"method must be 'rk4' or 'expm', got {method!r}")
    steps = _step_count(t_max, dt)
    if method == "expm":
        step = _propagators(generator, (dt,))[0]
    else:
        matrix = generator.matrix if isinstance(generator, Generator) else generator
        with np.errstate(over="ignore", invalid="ignore"):  # caught as inf growth
            step = rk4_step(dt * matrix)
            try:
                growth = max(map(abs, np.linalg.eigvals(step).tolist()))
            except np.linalg.LinAlgError:  # a step that is not finite
                growth = math.inf
        if not growth <= 1.0 + STEP_GROWTH_TOL:
            raise StepSizeError(
                f"dt {dt!r} fails the step stability check (one rk4 step grows states by {growth:.3g})"
            )
    return dt * np.arange(steps + 1), propagate(step, v0, steps)


def evolve_bloch(gen: Generator, r0, t_max: float, dt: float, method: str) -> Trajectory:
    """Fixed-step integration of the Bloch equation, by rk4_step(dt G) for
    method "rk4" or exp(dt G) for "expm" (see :func:`_fixed_step_run`)."""
    times, states = _fixed_step_run(gen, r0, t_max, dt, method)
    return Trajectory(times=times, states=states)


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
    return Trajectory(
        times=times,
        states=2.0 * pauli_coefficients(vecs.reshape(-1, 2, 2))[1].real,
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


def _real_roots(h: list, ell: list) -> tuple:
    """(shift, h, ell, lam, mu, disc) for G = Omega(h) - L: h and L prescaled
    by 2**shift as lists, G's real eigenvalue lam (the one farthest from the
    mean when all three are real), and the other two as mu -/+ sqrt(disc),
    the roots of p(x) / (x - lam), at that scale (see :func:`generator_spectrum`)."""
    shift = -math.frexp(max(map(abs, h + ell[0] + ell[1] + ell[2])))[1]
    h = [math.ldexp(x, shift) for x in h]  # h and L now peak in [1/2, 1), so |h|^2 < 3
    ell = [[math.ldexp(x, shift) for x in row] for row in ell]
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

    def pair(lam: float) -> tuple:
        mu = -0.5 * (trace + lam)  # p(x) / (x - lam) = (x - mu)^2 - disc
        return mu, mu * mu - (a * d - b * b + a * f - c * c + d * f - e * e + hh + lam * (trace + lam))

    lam = real_root(0.0)
    mu, disc = pair(lam)
    if disc >= 0.0:
        half = math.sqrt(disc)
        lam = real_root(max((lam, mu - half, mu + half), key=lambda x: abs(x + trace / 3.0)))
        mu, disc = pair(lam)
    return shift, h, ell, lam, mu, disc


def generator_spectrum(gen: Generator) -> np.ndarray:
    """The three eigenvalues of G = Omega(h) - L, from h and L kept apart.

    They are the roots of p(x) = det(xI + L) + x|h|^2 + h^T L h, for h and L
    prescaled by one power of two. Every real part lies in the spectrum of
    -L, so Newton bracketed in (-rho, rho), rho twice L's largest absolute
    row sum, finds a real root lam; if all three are real, again from the
    one farthest from their mean -tr L / 3. The other two, of sum -tr L - lam,
    split by :func:`_pair_discriminant`; |disc| within REPEATED_ROOT_TOL of
    its size is a double root. The Generator keeps lam and mu.
    """
    shift, h, ell, lam, mu, _ = gen._roots
    disc, size = _pair_discriminant(lam, h, ell)
    half = math.sqrt(abs(disc)) if abs(disc) > REPEATED_ROOT_TOL * size else 0.0
    lam, mu, half = (_unscaled(v, shift) for v in (lam, mu, half))  # one at a time: 2**-shift may overflow
    pair = (mu - half, mu + half) if disc >= 0.0 else (complex(mu, half), complex(mu, -half))
    return np.array([lam, *pair], dtype=complex)


def entropy_monotonicity_report(traj: Trajectory) -> float:
    """Largest single-step entropy decrease along a trajectory.

    Nonpositive when entropy never decreases; for completely positive
    evolution under hermitian Lindblad operators any positive value should
    stay within discretization error.
    """
    if len(traj.entropies) < 2:
        return 0.0
    return float(np.max(traj.entropies[:-1] - traj.entropies[1:]))
