"""Classification and verification of the long-time limit of the state.

With at least two independent dissipation axes every Bloch mode decays and
the state relaxes to the maximally mixed one. With a single axis n the
outcome depends on whether the field is parallel to n: if it is, the
component of the state along n survives (the off-diagonal block in the
projector eigenbasis dies off); if not, the limit is again maximally mixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityState, as_field_vector, density_from_bloch, _readonly
from .dynamics import build_generator, evolve_expm, generator_spectrum
from .errors import NegativeHorizonError
from .forms import FormB, dissipation_matrix, reduce_terms
from .tolerances import CONVERGED_TOL, DECAY_BOUND_SLACK, GAP_TOL, PARALLEL_TOL

MAXIMALLY_MIXED = "maximally-mixed"
DECOHERED = "decohered"


@dataclass(frozen=True)
class AsymptoticVerdict:
    """Where the state ends up as t -> infinity.

    kind is ``maximally-mixed`` or ``decohered``; the latter only occurs for
    a single dissipation axis commuting with the Hamiltonian, and then
    ``axis`` holds that direction.
    """

    kind: str
    index: int
    commuting: bool
    axis: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == DECOHERED:
            if self.axis is None or self.index != 1 or not self.commuting:
                raise ValueError("decohered limit requires a single commuting axis")
            object.__setattr__(self, "axis", _readonly(np.asarray(self.axis, dtype=float)))
        elif self.kind != MAXIMALLY_MIXED:
            raise ValueError(f"unknown verdict kind {self.kind!r}")


def classify(h, fb: FormB) -> AsymptoticVerdict:
    """Decide the asymptotic limit from the field and the dissipator.

    The dissipator is first reduced to its minimal term count. Two or more
    terms always relax to the maximally mixed state. One term preserves the
    population along its axis exactly when h is parallel to the axis (h = 0
    counts as parallel); otherwise it also relaxes to maximally mixed.
    """
    hv = as_field_vector(h)
    fb_min, index = reduce_terms(fb)
    if index >= 2:
        return AsymptoticVerdict(kind=MAXIMALLY_MIXED, index=index, commuting=False)
    axis = fb_min.terms[0][1]
    hnorm = float(np.linalg.norm(hv))
    commuting = hnorm == 0.0 or float(
        np.linalg.norm(np.cross(hv, axis))
    ) <= PARALLEL_TOL * hnorm
    if commuting:
        return AsymptoticVerdict(kind=DECOHERED, index=1, commuting=True, axis=axis)
    return AsymptoticVerdict(kind=MAXIMALLY_MIXED, index=1, commuting=False)


def asymptotic_state(verdict: AsymptoticVerdict, rho0: DensityState) -> DensityState:
    """The limiting state for a given initial state.

    Maximally mixed ignores the initial state. The decohered limit keeps the
    projection of the Bloch vector onto the surviving axis, which equals
    P rho(0) P + P_perp rho(0) P_perp in the matrix picture.
    """
    if verdict.kind == MAXIMALLY_MIXED:
        return density_from_bloch(np.zeros(3))
    r0 = rho0.bloch
    return density_from_bloch(float(r0 @ verdict.axis) * verdict.axis)


@dataclass(frozen=True)
class FixedPointSet:
    """Stationary states: either the single point r = 0 or the segment
    {s * axis : s in [-1, 1]}."""

    kind: str
    axis: np.ndarray | None = None

    def bloch(self, s: float = 0.0) -> np.ndarray:
        if self.kind == "point":
            return np.zeros(3)
        if abs(s) > 1.0:
            raise ValueError("segment parameter must lie in [-1, 1]")
        return s * self.axis


def fixed_points(h, fb: FormB) -> FixedPointSet:
    """Describe all stationary Bloch vectors of the evolution."""
    verdict = classify(h, fb)
    if verdict.kind == DECOHERED:
        return FixedPointSet(kind="segment", axis=verdict.axis)
    return FixedPointSet(kind="point")


@dataclass(frozen=True)
class AsymptoteReport:
    distance: float
    gap: float
    horizon: float
    limit: np.ndarray
    within_bound: bool
    converged: bool


def spectral_gap(gen) -> float:
    """Decay rate of the slowest non-stationary mode: minus the largest
    strictly negative real part among the generator eigenvalues."""
    eigs = generator_spectrum(gen)
    # The largest entry, unlike the Frobenius norm, cannot overflow.
    scale = max(1.0, float(np.max(np.abs(gen.matrix))))
    decaying = [e.real for e in eigs if e.real < -GAP_TOL * scale]
    if not decaying:
        return 0.0
    return -max(decaying)


def verify_asymptote(h, fb: FormB, rho0: DensityState, horizon: float | None = None, tol: float = CONVERGED_TOL) -> AsymptoteReport:
    """Integrate to a long horizon and compare against the predicted limit.

    Reports the residual distance, the spectral gap g, and whether the
    residual respects the bound 2 exp(-g T). The default horizon
    max(40/g, 10) pushes the bound far below double precision.
    """
    verdict = classify(h, fb)
    limit = asymptotic_state(verdict, rho0).bloch
    gen = build_generator(h, dissipation_matrix(fb))
    gap = spectral_gap(gen)
    if horizon is None:
        horizon = max(40.0 / gap, 10.0) if gap > 0.0 else 10.0
    if horizon <= 0.0:
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
        converged=distance <= tol,
    )
