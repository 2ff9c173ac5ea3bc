"""Complete-positivity checks for candidate dissipation matrices.

Three independent routes must agree:

  * the six-constant inequalities on R, S, T built from Form E,
  * the principal-minor conditions on the companion matrix M,
  * the minimum eigenvalue of M (spectral oracle).

The first two are evaluated after normalizing by the Frobenius norm, so a
verdict is invariant under positive rescaling. Disagreement beyond a small
margin band signals an implementation bug, not a property of the input, and
raises VerdictMismatchError. A fourth, fully dynamical witness reshuffles
the exact 4x4 propagator into the Choi matrix of the evolved map and reports
its smallest eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_field_vector, frobenius_normalized
from .dynamics import liouvillian, matrix_exponential
from .errors import (
    EmptyDissipatorError,
    NegativeTimeError,
    NotCPError,
    VerdictMismatchError,
)
from .forms import (
    FormE,
    form_b_from_dissipation,
    form_e_pack,
    form_e_unpack,
    gram_condition_margins,
    gram_from_dissipation,
    require_symmetric,
)
from .tolerances import MISMATCH_BAND, PSD_TOL


@dataclass(frozen=True)
class Verdict:
    """Outcome of a CP check.

    ``reason`` names the first violated condition when not CP; ``margin`` is
    the smallest normalized slack over all conditions (negative means some
    condition fails).
    """

    cp: bool
    reason: str | None = None
    margin: float = 0.0


def _verdict_from_margins(margins, tol: float) -> Verdict:
    worst = min(m for _, m in margins)
    for label, margin in margins:
        if margin < -tol:
            return Verdict(cp=False, reason=label, margin=worst)
    return Verdict(cp=True, margin=worst)


def form_e_margins(fe: FormE) -> list:
    """Signed slack of each six-constant inequality, scale normalized.

    With 2R = alpha + gamma - a, 2S = a + gamma - alpha, 2T = a + alpha -
    gamma, complete positivity requires R, S, T >= 0, the pairwise products
    to dominate the squared off-diagonals, and the cubic combination
    R S T >= 2 b c beta + R beta^2 + S c^2 + T b^2.
    """
    half = 0.5 * frobenius_normalized(form_e_unpack(fe))
    a, b, c = half[0, 0], half[0, 1], half[0, 2]
    alpha, beta, gamma = half[1, 1], half[1, 2], half[2, 2]
    big_r = 0.5 * (alpha + gamma - a)
    big_s = 0.5 * (a + gamma - alpha)
    big_t = 0.5 * (a + alpha - gamma)
    return [
        ("(a) R >= 0", float(big_r)),
        ("(a) S >= 0", float(big_s)),
        ("(a) T >= 0", float(big_t)),
        ("(b) R*S >= b^2", float(big_r * big_s - b * b)),
        ("(b) R*T >= c^2", float(big_r * big_t - c * c)),
        ("(b) S*T >= beta^2", float(big_s * big_t - beta * beta)),
        (
            "(c) R*S*T >= 2*b*c*beta + R*beta^2 + S*c^2 + T*b^2",
            float(
                big_r * big_s * big_t
                - 2.0 * b * c * beta
                - big_r * beta * beta
                - big_s * c * c
                - big_t * b * b
            ),
        ),
    ]


def check_form_e(fe: FormE, tol: float = PSD_TOL) -> Verdict:
    """CP verdict from the six-constant inequalities."""
    return _verdict_from_margins(form_e_margins(fe), tol)


def check_gram_psd(m, tol: float = PSD_TOL, band: float = MISMATCH_BAND) -> Verdict:
    """CP verdict from the principal minors of M, cross-checked spectrally.

    The minor conditions are exactly positive semidefiniteness of the
    symmetric 3x3 matrix, so they must agree with the minimum eigenvalue;
    a disagreement with both margins outside ``band`` raises
    VerdictMismatchError.
    """
    m = require_symmetric(m, what="gram matrix")
    margins = gram_condition_margins(m)
    verdict = _verdict_from_margins(margins, tol)
    min_eig = float(np.linalg.eigvalsh(frobenius_normalized(m))[0])
    oracle_cp = min_eig >= -tol
    if verdict.cp != oracle_cp and abs(verdict.margin) > band and abs(min_eig) > band:
        raise VerdictMismatchError(
            f"minor conditions say cp={verdict.cp} (margin {verdict.margin:.3e}) "
            f"but min eigenvalue is {min_eig:.3e}"
        )
    return verdict


def is_completely_positive(ell, tol: float = PSD_TOL, band: float = MISMATCH_BAND):
    """Check a dissipation matrix via both equivalent routes.

    Returns (Verdict, certificate) where the certificate is the minimal
    rate/axis FormB whenever the matrix is CP and nonzero (None for the zero
    dissipator). The two routes must agree outside the margin band.
    """
    ell = require_symmetric(ell, what="dissipation matrix")
    via_e = check_form_e(form_e_pack(ell), tol)
    via_m = check_gram_psd(gram_from_dissipation(ell), tol, band)
    if via_e.cp != via_m.cp:
        if abs(via_e.margin) > band and abs(via_m.margin) > band:
            raise VerdictMismatchError(
                f"six-constant route says cp={via_e.cp} (margin {via_e.margin:.3e}) "
                f"but minor route says cp={via_m.cp} (margin {via_m.margin:.3e})"
            )
    verdict = via_m
    if not verdict.cp:
        return verdict, None
    try:
        certificate, _ = form_b_from_dissipation(ell, tol=max(tol, band))
    except EmptyDissipatorError:
        certificate = None
    except NotCPError:
        certificate = None
    return verdict, certificate


def choi_check(h, ell, times) -> np.ndarray:
    """Minimum Choi eigenvalue of the evolved map at each requested time.

    The exact propagator exp(t Liouvillian) sends vec(E_ij) to vec(map(E_ij));
    reshuffling its indices gives the Choi matrix sum_ij E_ij (x) map(E_ij).
    It stays positive semidefinite at all times exactly for CP generators; a
    clearly negative eigenvalue witnesses the CP failure. At t = 0 the
    spectrum is {2, 0, 0, 0} (twice the maximally entangled projector).
    """
    hv = as_field_vector(h)
    ell = require_symmetric(ell, what="dissipation matrix")
    generator = liouvillian(hv, ell)
    minima = []
    for t in times:
        t = float(t)
        if t < 0.0:
            raise NegativeTimeError(f"times must be nonnegative, got {t!r}")
        prop = matrix_exponential(t * generator)
        choi = prop.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)
        choi = 0.5 * (choi + choi.conj().T)
        minima.append(float(np.linalg.eigvalsh(choi)[0]))
    return np.array(minima)
