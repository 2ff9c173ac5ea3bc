"""Complete-positivity checks for candidate dissipation matrices.

Three independent routes must agree:

  * the six-constant inequalities on R, S, T built from Form E,
  * the principal-minor conditions on the companion matrix M,
  * the minimum eigenvalue of M (spectral oracle).

The first two are evaluated after normalizing by the Frobenius norm, so a
verdict is invariant under positive rescaling. Disagreement beyond a small
margin band signals an implementation bug, not a property of the input, and
raises VerdictMismatchError. Where the minors pass, the smallest eigenvalue
decides (see check_gram_psd). A fourth, fully dynamical witness builds the
Choi matrix of the evolved map from the exact 3x3 Bloch propagator and
reports its smallest eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SIGMA, frobenius_normalized
from .dynamics import _propagators, build_generator
from .errors import VerdictMismatchError
from .forms import _factor, _gram_margins, _scaled_gram, _symmetric_rows
from .forms import (
    FormE,
    first_violation,
    form_b_from_gram,
    form_e_unpack,
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


def _verdict_from_margins(margins) -> Verdict:
    worst = min(m for _, m in margins)
    violation = first_violation(margins)
    if violation is None:
        return Verdict(cp=True, margin=worst)
    return Verdict(cp=False, reason=violation[0], margin=worst)


def form_e_margins(fe: FormE) -> list:
    """Signed slack of each six-constant inequality, scale normalized.

    With 2R = alpha + gamma - a, 2S = a + gamma - alpha, 2T = a + alpha -
    gamma, complete positivity requires R, S, T >= 0, the pairwise products
    to dominate the squared off-diagonals, and the cubic combination
    R S T >= 2 b c beta + R beta^2 + S c^2 + T b^2.
    """
    return _form_e_margins(frobenius_normalized(form_e_unpack(fe)))


def _form_e_margins(unit) -> list:
    """The margins from L normalized by its Frobenius norm."""
    (a, b, c), (_, alpha, beta), (_, _, gamma) = ([0.5 * x for x in row] for row in unit.tolist())
    big_r = 0.5 * (alpha + gamma - a)
    big_s = 0.5 * (a + gamma - alpha)
    big_t = 0.5 * (a + alpha - gamma)
    return [
        ("(a) R >= 0", big_r),
        ("(a) S >= 0", big_s),
        ("(a) T >= 0", big_t),
        ("(b) R*S >= b^2", big_r * big_s - b * b),
        ("(b) R*T >= c^2", big_r * big_t - c * c),
        ("(b) S*T >= beta^2", big_s * big_t - beta * beta),
        (
            "(c) R*S*T >= 2*b*c*beta + R*beta^2 + S*c^2 + T*b^2",
            big_r * big_s * big_t
            - 2.0 * b * c * beta
            - big_r * beta * beta
            - big_s * c * c
            - big_t * b * b,
        ),
    ]


def check_form_e(fe: FormE) -> Verdict:
    """CP verdict from the six-constant inequalities."""
    return _verdict_from_margins(form_e_margins(fe))


def check_gram_psd(m) -> Verdict:
    """CP verdict from the principal minors of M and its smallest eigenvalue.

    The minor conditions are exactly positive semidefiniteness of the
    symmetric 3x3 matrix, but their margins are products of up to three
    eigenvalues: an M with eigenvalues (1, d, -e) has minor margins of order
    -d e, so an e of up to sqrt(PSD_TOL) could pass them. So when the minors
    pass, the verdict is NotCP exactly when the smallest eigenvalue of the
    normalized M is below -PSD_TOL, with "lambda_min(M) >= 0" as the reason
    and that eigenvalue as the margin. Minors that fail while that
    eigenvalue passes, both outside MISMATCH_BAND, raise
    VerdictMismatchError.
    """
    return _judge_gram(frobenius_normalized(_symmetric_rows(m, "gram matrix")))


def _judge_gram(m_unit) -> Verdict:
    """check_gram_psd of a validated M already normalized."""
    verdict = _verdict_from_margins(_gram_margins(m_unit))
    min_eig = float(np.linalg.eigvalsh(m_unit)[0])
    if min_eig >= -PSD_TOL:
        if not verdict.cp and min(abs(verdict.margin), abs(min_eig)) > MISMATCH_BAND:
            raise VerdictMismatchError(
                f"internal bug: minor conditions say cp=False (margin {verdict.margin:.3e}) "
                f"but min eigenvalue is {min_eig:.3e}"
            )
    elif verdict.cp:
        return Verdict(cp=False, reason="lambda_min(M) >= 0", margin=min_eig)
    return verdict


def is_completely_positive(ell):
    """Check a dissipation matrix via both equivalent routes.

    Returns (Verdict, certificate) where the certificate is the minimal
    rate/axis FormB whenever the matrix is CP (no terms for L = 0) and None
    when it is not. The two routes must agree outside the margin band. The
    verdict is check_gram_psd's: the minors of M, and where they pass, its
    smallest eigenvalue. Both routes and the certificate work on one L and
    M prescaled by a power of four (see forms._scaled_gram), so M cannot
    overflow.
    """
    scaled, m, shift = _scaled_gram(_symmetric_rows(ell, "dissipation matrix"))
    via_e = _verdict_from_margins(_form_e_margins(frobenius_normalized(scaled)))
    via_m = _judge_gram(frobenius_normalized(m))
    if via_e.cp != via_m.cp and min(abs(via_e.margin), abs(via_m.margin)) > MISMATCH_BAND:
        raise VerdictMismatchError(
            f"internal bug: six-constant route says cp={via_e.cp} (margin {via_e.margin:.3e}) "
            f"but minor route says cp={via_m.cp} (margin {via_m.margin:.3e})"
        )
    if not via_m.cp:
        return via_m, None
    return via_m, form_b_from_gram(np.ldexp(_factor(m), shift))


# The evolved map is unital: Phi(c0 I + c . sigma) = c0 I + (T c) . sigma for
# the Bloch propagator T = exp(t G). Its Choi matrix sum_ij E_ij (x) Phi(E_ij)
# is therefore (I (x) I + sum_ab T_ab conj(sigma_b) (x) sigma_a) / 2; row
# 3a + b of CHOI_TERMS holds conj(sigma_b) (x) sigma_a / 2, flattened.
CHOI_TERMS = 0.5 * np.einsum("bij,akl->abikjl", SIGMA.conj(), SIGMA).reshape(9, 16)


def choi_check(h, ell, times) -> np.ndarray:
    """Minimum Choi eigenvalue of the evolved map at each requested time.

    The Choi matrix sum_ij E_ij (x) map(E_ij) is a fixed linear function of
    the Bloch propagator T = exp(t G), G = Omega(h) - L (see CHOI_TERMS).
    It stays positive semidefinite at all times exactly for CP generators; a
    clearly negative eigenvalue witnesses the CP failure. At t = 0 the
    spectrum is {2, 0, 0, 0} (twice the maximally entangled projector).
    Raises BadStepError when a propagator is not finite, as evolve_expm does.
    """
    props = _propagators(build_generator(h, ell), times)
    choi = props.reshape(-1, 9).dot(CHOI_TERMS).reshape(-1, 4, 4) + 0.5 * np.eye(4)
    return np.linalg.eigvalsh(choi)[:, 0]
