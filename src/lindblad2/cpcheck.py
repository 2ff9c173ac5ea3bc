"""Complete-positivity checks for candidate dissipation matrices.

Two equivalent routes, the six-constant inequalities on R, S, T built from
Form E and the principal minors of the companion matrix M, are each judged
with the smallest eigenvalue of M by the one rule forms.judge. All three are
taken on Frobenius-normalized matrices, so a verdict is invariant under
positive rescaling. A route that fails while that eigenvalue holds, both
outside a small band, is an implementation bug and raises
VerdictMismatchError. A fully dynamical witness builds the Choi matrix of
the evolved map from the exact 3x3 Bloch propagator and reports its
smallest eigenvalue.
"""

import numpy as np

from .core import SIGMA, frobenius_normalized
from .errors import BadValueError
from .forms import _MINORS_ROUTE, _factor, _gram_evidence, _minimal_form_b, _scaled_gram, _symmetric_rows
from .forms import FormE, Verdict, judge

_FORM_E_ROUTE = "six-constant route"


def _packed(fe: FormE) -> np.ndarray:
    """L / 2, which cannot overflow where L may; every normalized margin and
    eigenvalue is the same for both."""
    half = np.array([[fe.a, fe.b, fe.c], [fe.b, fe.alpha, fe.beta], [fe.c, fe.beta, fe.gamma]], float)
    if not np.isfinite(half).all():
        raise BadValueError("Form E constants must be finite")
    return half


def form_e_margins(fe: FormE) -> list:
    """Signed slack of each six-constant inequality, scale normalized.

    With 2R = alpha + gamma - a, 2S = a + gamma - alpha, 2T = a + alpha -
    gamma, complete positivity requires R, S, T >= 0, the pairwise products
    to dominate the squared off-diagonals, and the cubic combination
    R S T >= 2 b c beta + R beta^2 + S c^2 + T b^2.
    """
    return _form_e_margins(frobenius_normalized(_packed(fe)))


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
    """CP verdict from the six-constant inequalities and the smallest
    eigenvalue of M (see forms.judge), both taken on L / 2."""
    half = _packed(fe)
    _, m, _ = _scaled_gram(half.tolist())
    _, min_eig = _gram_evidence(frobenius_normalized(m))
    return judge(_form_e_margins(frobenius_normalized(half)), min_eig, _FORM_E_ROUTE)


def check_gram_psd(m) -> Verdict:
    """CP verdict from the principal minors of M and its smallest eigenvalue
    (see forms.judge)."""
    margins, min_eig = _gram_evidence(frobenius_normalized(_symmetric_rows(m, "gram matrix")))
    return judge(margins, min_eig, _MINORS_ROUTE)


def is_completely_positive(ell):
    """Check a dissipation matrix via both equivalent routes.

    Returns (Verdict, certificate): the certificate, when the matrix is CP,
    is the minimal rate/axis FormB and its own reduction (no terms for
    L = 0); it is None when not. Both routes are judged with one smallest
    eigenvalue of M, and the verdict is the minor route's, as check_gram_psd
    gives it. The routes and the certificate work on one L and M prescaled
    by a power of four (see forms._scaled_gram), so M cannot overflow.
    """
    scaled, m, shift = _scaled_gram(_symmetric_rows(ell, "dissipation matrix"))
    margins, min_eig = _gram_evidence(frobenius_normalized(m))
    judge(_form_e_margins(frobenius_normalized(scaled)), min_eig, _FORM_E_ROUTE)  # raises on a mismatch
    verdict = judge(margins, min_eig, _MINORS_ROUTE)
    if not verdict.cp:
        return verdict, None
    return verdict, _minimal_form_b(_factor(m), shift)


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
    from .dynamics import _propagators, build_generator

    props = _propagators(build_generator(h, ell), times)
    choi = props.reshape(-1, 9).dot(CHOI_TERMS).reshape(-1, 4, 4) + 0.5 * np.eye(4)
    return np.linalg.eigvalsh(choi)[:, 0]
