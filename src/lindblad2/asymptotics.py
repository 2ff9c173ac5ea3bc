"""Classification and verification of the long-time limit of the state.

With at least two independent dissipation axes every Bloch mode decays and
the state relaxes to the maximally mixed one. With a single axis n the
outcome depends on whether the field is parallel to n: if it is, the
component of the state along n survives (the off-diagonal block in the
projector eigenbasis dies off); if not, the limit is again maximally mixed.
Without dissipation (D = 0) the state precesses about h undamped, and its
time average, the component along h, stands in for the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityState, as_field_vector, density_from_bloch, frobenius_normalized, _readonly
from .dynamics import build_generator, evolve_expm, generator_spectrum
from .errors import NegativeHorizonError
from .forms import FormB, dissipation_matrix, reduce_terms
from .tolerances import (
    CONVERGED_TOL,
    DECAY_BOUND_SLACK,
    GAP_TOL,
    HORIZON_DECAY_TIMES,
    HORIZON_MIN,
    PARALLEL_TOL,
)

MAXIMALLY_MIXED = "maximally-mixed"
DECOHERED = "decohered"
UNDAMPED = "undamped"


@dataclass(frozen=True, eq=False)
class AsymptoticVerdict:
    """Where the state ends up as t -> infinity.

    kind is ``maximally-mixed``, ``decohered`` or ``undamped``.
    ``decohered`` only occurs for a single dissipation axis commuting with
    the Hamiltonian, and then ``axis`` holds that direction. ``undamped`` is
    the zero dissipator; ``axis`` is then the unit field direction, or None
    when h = 0. ``commuting``, the field parallel to the one axis or no
    dissipation at all, follows from kind: it holds for these two kinds.
    """

    kind: str
    index: int
    axis: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == DECOHERED and (self.axis is None or self.index != 1):
            raise ValueError("decohered limit requires a single commuting axis")
        if self.kind == UNDAMPED and self.index != 0:
            raise ValueError("undamped limit requires the zero dissipator")
        if self.kind not in (MAXIMALLY_MIXED, DECOHERED, UNDAMPED):
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if self.axis is not None:
            object.__setattr__(self, "axis", _readonly(np.asarray(self.axis, dtype=float)))

    @property
    def commuting(self) -> bool:
        return self.kind != MAXIMALLY_MIXED


def classify(h, fb: FormB) -> AsymptoticVerdict:
    """Decide the asymptotic limit from the field and the dissipator.

    The dissipator is first reduced to its minimal term count. Two or more
    terms always relax to the maximally mixed state. One term preserves the
    population along its axis exactly when h is parallel to the axis (h = 0
    counts as parallel); otherwise it also relaxes to maximally mixed. No
    terms leave the precession about h undamped.
    """
    # Normalized after an exact power-of-two prescale, so |h| cannot overflow.
    hhat = frobenius_normalized(as_field_vector(h))
    fb_min, index = reduce_terms(fb)
    if index >= 2:
        return AsymptoticVerdict(kind=MAXIMALLY_MIXED, index=index)
    if index == 0:
        axis = hhat if hhat.any() else None
        return AsymptoticVerdict(kind=UNDAMPED, index=0, axis=axis)
    axis = fb_min.terms[0][1]
    (x, y, z), (u, v, w) = hhat.tolist(), axis.tolist()
    # np.cross(hhat, axis) and its np.linalg.norm, entry by entry.
    cross = np.array([y * w - z * v, z * u - x * w, x * v - y * u])
    if not hhat.any() or math.sqrt(cross.dot(cross)) <= PARALLEL_TOL:
        return AsymptoticVerdict(kind=DECOHERED, index=1, axis=axis)
    return AsymptoticVerdict(kind=MAXIMALLY_MIXED, index=1)


def asymptotic_state(verdict: AsymptoticVerdict, rho0: DensityState) -> DensityState:
    """The limiting state for a given initial state.

    Maximally mixed ignores the initial state. The decohered limit keeps the
    projection of the Bloch vector onto the surviving axis, which equals
    P rho(0) P + P_perp rho(0) P_perp in the matrix picture. The undamped
    limit is the time average of the precession, the same projection onto
    the field axis, or the initial state itself when h = 0.
    """
    if verdict.kind == MAXIMALLY_MIXED:
        return density_from_bloch(np.zeros(3))
    if verdict.axis is None:
        return rho0
    r0 = rho0.bloch
    return density_from_bloch(float(r0 @ verdict.axis) * verdict.axis)


def _model_flow(h, fb: FormB, rho0: DensityState) -> tuple:
    """(verdict, limit Bloch vector, Generator) of a CP model, the Generator
    built from the reduction that ``check`` prints, so that the flow has the
    rank its verdict counts."""
    verdict = classify(h, fb)
    gen = build_generator(h, dissipation_matrix(reduce_terms(fb)[0]))
    return verdict, asymptotic_state(verdict, rho0).bloch, gen


@dataclass(frozen=True, eq=False)
class AsymptoteReport:
    distance: float
    gap: float
    horizon: float
    limit: np.ndarray
    within_bound: bool
    converged: bool


def spectral_gap(gen) -> float:
    """Decay rate of the slowest non-stationary mode: minus the largest real
    part below -GAP_TOL max|L| among the generator eigenvalues. Every real
    part lies in the spectrum of -L, so the floor does not grow with |h|."""
    eigs = generator_spectrum(gen)
    floor = GAP_TOL * max(map(abs, gen.ell.ravel().tolist()))
    decaying = [e.real for e in eigs if e.real < -floor]
    return -max(decaying) if decaying else 0.0


def verify_asymptote(h, fb: FormB, rho0: DensityState, horizon: float | None = None) -> AsymptoteReport:
    """Integrate to a long horizon and compare against the predicted limit.

    Reports the residual distance, the spectral gap g, and whether the
    residual respects the bound 2 exp(-g T). The default horizon
    max(HORIZON_DECAY_TIMES / g, HORIZON_MIN) pushes the bound far below
    double precision. Raises
    BadStepError when exp(T G) is not finite, as evolve_expm does.
    """
    _, limit, gen = _model_flow(h, fb, rho0)
    gap = spectral_gap(gen)
    if horizon is None:
        horizon = max(HORIZON_DECAY_TIMES / gap, HORIZON_MIN) if gap > 0.0 else HORIZON_MIN
    if not horizon > 0.0:
        raise NegativeHorizonError(f"horizon must be positive, got {horizon!r}")
    r_final = evolve_expm(gen, rho0.bloch, horizon)
    distance = float(np.linalg.norm(r_final - limit))
    bound = 2.0 * float(np.exp(-gap * horizon)) + DECAY_BOUND_SLACK
    return AsymptoteReport(
        distance=distance,
        gap=gap,
        horizon=float(horizon),
        limit=_readonly(limit),
        within_bound=distance <= bound,
        converged=distance <= CONVERGED_TOL,
    )
