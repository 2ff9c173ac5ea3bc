"""Equivalent representations of the qubit dissipative term and conversions.

The dissipator of a completely positive qubit semigroup with hermitian
Lindblad operators can be written in five equivalent ways:

  A  - a list of hermitian operators A_j, acting as
       D[rho] = (1/2) sum_j (A_j^2 rho + rho A_j^2 - 2 A_j rho A_j),
  B  - rates and projector axes, D[rho] = (1/2) sum_j lambda_j
       (P_j rho P_j_perp + P_j_perp rho P_j) with P_j = (1/2)(I + n_j . sigma),
  C  - the real symmetric dissipation matrix L acting on Bloch vectors,
       L = (1/2) sum_j lambda_j (I3 - n_j n_j^T),
  D  - a Gram factorization L = (1/2)(Lambda delta - q_a . q_b) built from
       three vectors q_a in R^r,
  E  - six real constants packing L = 2 [[a, b, c], [b, alpha, beta],
       [c, beta, gamma]].

Every conversion here is constructive, and each drops rate-zero terms since
they have no effect on the dissipator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    IDENTITY2,
    SIGMA,
    frobenius_normalized,
    matrix_from_pauli,
    pauli_coefficients,
    require_hermitian,
    unit_vector,
)
from .core import _readonly
from .errors import (
    EmptyDissipatorError,
    NotCPError,
    NotHermitianError,
    NotPSDError,
    NotSymmetricError,
)
from .tolerances import (
    DEGENERATE_TOL,
    HERMITIAN_TOL,
    PSD_TOL,
    RATE_FLOOR,
    ROUNDTRIP_TOL,
    SYMMETRY_TOL,
)


def require_symmetric(a, tol: float = SYMMETRY_TOL, what: str = "matrix") -> np.ndarray:
    """Validate a real symmetric 3x3 matrix and return its symmetrized copy."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3) or not np.all(np.isfinite(a)):
        raise NotSymmetricError(f"{what} must be a finite real 3x3 matrix")
    defect = float(np.max(np.abs(a - a.T)))
    if defect > tol:
        raise NotSymmetricError(f"{what} is not symmetric (defect {defect:.3e})")
    return 0.5 * (a + a.T)


def plane_projector(n) -> np.ndarray:
    """Projector I3 - n n^T onto the plane orthogonal to the unit vector n."""
    n = unit_vector(n)
    return np.eye(3) - np.outer(n, n)


@dataclass(frozen=True)
class FormA:
    """Dissipator given by hermitian Lindblad operators."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(
            _readonly(require_hermitian(op, what="Lindblad operator"))
            for op in self.operators
        )
        if not ops:
            raise EmptyDissipatorError("need at least one Lindblad operator")
        for op in ops:
            if op.shape != (2, 2):
                raise NotHermitianError("Lindblad operators must be 2x2")
        object.__setattr__(self, "operators", ops)


@dataclass(frozen=True)
class FormB:
    """Dissipator given by positive rates and unit projector axes."""

    terms: tuple

    def __post_init__(self):
        terms = []
        for rate, axis in self.terms:
            rate = float(rate)
            if not np.isfinite(rate) or rate <= 0.0:
                raise ValueError(f"rate must be positive, got {rate!r}")
            terms.append((rate, _readonly(unit_vector(axis))))
        if not terms:
            raise EmptyDissipatorError("need at least one (rate, axis) term")
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def rates(self) -> np.ndarray:
        return np.array([rate for rate, _ in self.terms])

    @property
    def axes(self) -> np.ndarray:
        return np.array([axis for _, axis in self.terms])


@dataclass(frozen=True)
class GramFactor:
    """Three vectors q_a in R^r with their total squared length.

    Row a of ``vectors`` is q_a; ``total_rate`` is Lambda = sum_a |q_a|^2,
    which equals the summed rates of the corresponding Form B.
    """

    vectors: np.ndarray
    total_rate: float

    def __post_init__(self):
        q = np.asarray(self.vectors, dtype=float)
        if q.ndim != 2 or q.shape[0] != 3 or not np.all(np.isfinite(q)):
            raise ValueError("vectors must be a finite real (3, r) array")
        total = float(np.sum(q * q))
        if abs(total - self.total_rate) > ROUNDTRIP_TOL * max(1.0, abs(total)):
            raise ValueError(
                f"total_rate {self.total_rate!r} != sum of squared lengths {total!r}"
            )
        object.__setattr__(self, "vectors", _readonly(q))

    @classmethod
    def from_vectors(cls, q) -> "GramFactor":
        q = np.asarray(q, dtype=float)
        return cls(vectors=q, total_rate=float(np.sum(q * q)))


@dataclass(frozen=True)
class FormE:
    """Six real constants packing the dissipation matrix as
    L = 2 [[a, b, c], [b, alpha, beta], [c, beta, gamma]]."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class TraceSplit:
    """An operator split as A = B + s*I with tr(B) = 0."""

    traceless: np.ndarray
    scalar: complex


# ---------------------------------------------------------------------------
# Conversions between the operator forms A and B
# ---------------------------------------------------------------------------


def form_a_to_form_b(fa: FormA) -> FormB:
    """Rewrite hermitian operators as rate/axis pairs.

    Each hermitian A lifts uniquely to A = (1/2)(a I + sqrt(lambda) n . sigma);
    the identity part commutes with everything and drops out, so the
    dissipator only sees (lambda, n). Operators with lambda below the rate
    floor contribute nothing and are discarded.
    """
    terms = []
    for op in fa.operators:
        _, coeff = pauli_coefficients(op)
        v = 2.0 * coeff.real
        lam = float(v @ v)
        if lam > RATE_FLOOR:
            terms.append((lam, v / np.sqrt(lam)))
    if not terms:
        raise EmptyDissipatorError("all operators are proportional to the identity")
    return FormB(terms=terms)


def form_a_from_form_b(fb: FormB) -> FormA:
    """Traceless hermitian operators (1/2) sqrt(lambda_j) n_j . sigma."""
    ops = []
    for rate, axis in fb.terms:
        ops.append(matrix_from_pauli(0.0, 0.5 * np.sqrt(rate) * axis))
    return FormA(operators=tuple(ops))


def dissipation_matrix(fb: FormB) -> np.ndarray:
    """Form C: L = (1/2) sum_j lambda_j (I3 - n_j n_j^T), symmetric PSD."""
    out = np.zeros((3, 3))
    for rate, axis in fb.terms:
        out += 0.5 * rate * (np.eye(3) - np.outer(axis, axis))
    return out


def _operator_list(form):
    if isinstance(form, FormA):
        return form.operators
    return [np.asarray(op, dtype=complex) for op in form]


def apply_dissipator(form, m) -> np.ndarray:
    """Apply the dissipative term to a 2x2 operator, natively in each form.

    ``form`` may be a FormA, a FormB, a bare sequence of hermitian 2x2
    operators, or a symmetric 3x3 dissipation matrix. ``m`` may also be a
    stack of 2x2 operators, shape (..., 2, 2), each mapped independently.

    Operators A_j give D[m] = (1/2)(S m + m S) - sum_j A_j m A_j with
    S = sum_j A_j^2; rate/axis terms give (1/2) sum_j lambda_j
    (P_j m P_j_perp + P_j_perp m P_j); the matrix form acts as L on the
    Pauli coefficients and as zero on the identity coefficient.
    """
    m = np.asarray(m, dtype=complex)
    if isinstance(form, FormB):
        out = np.zeros_like(m)
        for rate, axis in form.terms:
            p = matrix_from_pauli(0.5, 0.5 * axis)
            pperp = IDENTITY2 - p
            out += 0.5 * rate * (p @ m @ pperp + pperp @ m @ p)
        return out
    if isinstance(form, np.ndarray) and form.shape == (3, 3):
        ell = require_symmetric(form, what="dissipation matrix")
        # c_a = tr(m sigma_a) / 2, then D[m] = sum_a (L c)_a sigma_a.
        c = 0.5 * np.einsum("aji,...ij->...a", SIGMA, m)
        return np.einsum("...a,aij->...ij", c @ ell, SIGMA)
    ops = _operator_list(form)
    s = sum((op @ op for op in ops), np.zeros((2, 2), dtype=complex))
    out = 0.5 * (s @ m + m @ s)
    for op in ops:
        out -= op @ m @ op
    return out


# ---------------------------------------------------------------------------
# The Gram side: L <-> M <-> q-vectors <-> Form B
# ---------------------------------------------------------------------------


def gram_from_dissipation(ell) -> np.ndarray:
    """The symmetric companion M with L = (1/2)(tr(M) I3 - M).

    Entrywise: M_ab = -2 L_ab off the diagonal and
    M_aa = -L_aa + L_bb + L_cc for distinct a, b, c. L is completely
    positive exactly when M is a Gram matrix.
    """
    ell = require_symmetric(ell, what="dissipation matrix")
    return np.trace(ell) * np.eye(3) - 2.0 * ell


def dissipation_from_gram(m) -> np.ndarray:
    """Exact inverse of :func:`gram_from_dissipation`."""
    m = require_symmetric(m, what="gram matrix")
    return 0.5 * (np.trace(m) * np.eye(3) - m)


_GRAM_CONDITIONS = (
    ("(i) M11 >= 0", lambda m: m[0, 0]),
    ("(i) M22 >= 0", lambda m: m[1, 1]),
    ("(i) M33 >= 0", lambda m: m[2, 2]),
    ("(ii) M11*M22 >= M12^2", lambda m: m[0, 0] * m[1, 1] - m[0, 1] ** 2),
    ("(ii) M11*M33 >= M13^2", lambda m: m[0, 0] * m[2, 2] - m[0, 2] ** 2),
    ("(ii) M22*M33 >= M23^2", lambda m: m[1, 1] * m[2, 2] - m[1, 2] ** 2),
    ("(iii) det(M) >= 0", lambda m: np.linalg.det(m)),
)


def gram_condition_margins(m) -> list:
    """Signed slack of each Gram-matrix condition, most negative = violated.

    The conditions are all principal minors of the symmetric 3x3 matrix:
    diagonal entries, the three 2x2 minors, and the determinant. They hold
    together exactly when M is positive semidefinite. Margins are evaluated
    on M normalized by its Frobenius norm, so the verdict is scale free.
    """
    m = frobenius_normalized(require_symmetric(m, what="gram matrix"))
    return [(label, float(value(m))) for label, value in _GRAM_CONDITIONS]


def _first_gram_violation(m, tol: float):
    for label, margin in gram_condition_margins(m):
        if margin < -tol:
            return label, margin
    return None


def _sqrt_clamped(x: float) -> float:
    return float(np.sqrt(x)) if x > 0.0 else 0.0


def gram_decompose(m, tol: float = PSD_TOL):
    """Factor a PSD symmetric 3x3 matrix as M_ab = q_a . q_b.

    Returns a (3, 3) array whose rows are the vectors q_a. The construction
    pivots the largest diagonal entry into the leading position, fills the
    first two vectors by forward substitution when the leading 2x2 block is
    nonsingular, and falls back to a rank-deficient branch (q_2 parallel to
    q_1 with sign eta) when M11*M22 = M12^2. A zero matrix factors into
    three zero vectors.

    Raises NotCPError when a principal-minor condition fails beyond ``tol``.
    """
    m = require_symmetric(m, what="gram matrix")
    violation = _first_gram_violation(m, tol)
    if violation is not None:
        label, margin = violation
        raise NotCPError(f"condition {label} violated (margin {margin:.3e})")

    q = np.zeros((3, 3))
    diag = np.diag(m)
    pivot = int(np.argmax(diag))
    perm = np.arange(3)
    perm[0], perm[pivot] = perm[pivot], perm[0]
    mp = m[np.ix_(perm, perm)]

    if mp[0, 0] <= 0.0:
        # Largest diagonal entry nonpositive: within tolerance this is the
        # zero dissipator.
        return q
    # Work on M / 4^k with its largest entry in [1/4, 1), so the products
    # below cannot overflow; q then scales back by 2^k. Both scalings are
    # exact, and so is the threshold's max(M22, 1) in these units.
    k = (math.frexp(float(np.max(np.abs(mp))))[1] + 1) // 2
    mp = np.ldexp(mp, -2 * k)
    m11 = mp[0, 0]
    r11 = float(np.sqrt(m11))
    minor = m11 * mp[1, 1] - mp[0, 1] ** 2
    qt = np.zeros((3, 3))
    if minor > DEGENERATE_TOL * m11 * max(mp[1, 1], math.ldexp(1.0, -2 * k)):
        qt[0, 0] = r11
        qt[1, 0] = mp[0, 1] / r11
        qt[1, 1] = _sqrt_clamped(mp[1, 1] - qt[1, 0] ** 2)
        qt[2, 0] = mp[0, 2] / r11
        qt[2, 1] = (mp[1, 2] - mp[0, 1] * mp[0, 2] / m11) / qt[1, 1]
        qt[2, 2] = _sqrt_clamped(mp[2, 2] - qt[2, 0] ** 2 - qt[2, 1] ** 2)
    else:
        eta = 1.0 if mp[0, 1] >= 0.0 else -1.0
        qt[0, 0] = r11
        qt[1, 0] = eta * _sqrt_clamped(mp[1, 1])
        qt[2, 0] = mp[0, 2] / r11
        qt[2, 1] = _sqrt_clamped(mp[2, 2] - qt[2, 0] ** 2)
    q[perm, :] = np.ldexp(qt, k)
    return q


def gram_from_form_b(fb: FormB) -> GramFactor:
    """Form D from Form B: (q_a)_j = sqrt(lambda_j) (n_j)_a."""
    scaled = np.sqrt(fb.rates)[:, None] * fb.axes
    return GramFactor.from_vectors(scaled.T)


def form_b_from_gram(gram: GramFactor) -> FormB:
    """Form B from Form D: lambda_j = sum_a (q_a)_j^2, n_j the unit column.

    Columns with rate at or below the floor are dropped; if every column
    vanishes the dissipator is empty.
    """
    q = np.asarray(gram.vectors, dtype=float)
    terms = []
    for j in range(q.shape[1]):
        lam = float(q[:, j] @ q[:, j])
        if lam > RATE_FLOOR:
            terms.append((lam, q[:, j] / np.sqrt(lam)))
    if not terms:
        raise EmptyDissipatorError("all Gram columns vanish")
    return FormB(terms=terms)


def reduce_terms(fb: FormB):
    """Rewrite a dissipator with the minimal number of terms.

    Any number of terms collapses to at most three with linearly independent
    axes and positive rates, leaving the dissipation matrix unchanged. The
    route goes through the 3x3 Gram matrix of the Form D vectors, whose
    factorization re-expresses the same matrix with at most three columns.

    Returns the minimal FormB together with its term count, which equals the
    rank of the Gram matrix.
    """
    q = gram_from_form_b(fb).vectors
    m = q @ q.T
    q_min = gram_decompose(m)
    fb_min = form_b_from_gram(GramFactor.from_vectors(q_min))
    return fb_min, len(fb_min.terms)


def form_b_from_dissipation(ell, tol: float = PSD_TOL):
    """Recover minimal rate/axis terms from a CP dissipation matrix.

    Returns (FormB, term count). Raises NotCPError when L is not completely
    positive and EmptyDissipatorError when L = 0.
    """
    m = gram_from_dissipation(ell)
    q = gram_decompose(m, tol=tol)
    fb = form_b_from_gram(GramFactor.from_vectors(q))
    return fb, len(fb.terms)


# ---------------------------------------------------------------------------
# Form E packing
# ---------------------------------------------------------------------------


def form_e_pack(ell) -> FormE:
    ell = require_symmetric(ell, what="dissipation matrix")
    half = 0.5 * ell
    return FormE(
        a=float(half[0, 0]),
        b=float(half[0, 1]),
        c=float(half[0, 2]),
        alpha=float(half[1, 1]),
        beta=float(half[1, 2]),
        gamma=float(half[2, 2]),
    )


def form_e_unpack(fe: FormE) -> np.ndarray:
    return 2.0 * np.array(
        [
            [fe.a, fe.b, fe.c],
            [fe.b, fe.alpha, fe.beta],
            [fe.c, fe.beta, fe.gamma],
        ]
    )


# ---------------------------------------------------------------------------
# Trace split and the effective-Hamiltonian shift
# ---------------------------------------------------------------------------


def trace_split(a) -> TraceSplit:
    """Split A = B + s*I with tr(B) = 0 and s = tr(A)/2."""
    a = np.asarray(a, dtype=complex)
    s = 0.5 * (a[0, 0] + a[1, 1])
    b = a - s * IDENTITY2
    return TraceSplit(traceless=_readonly(b), scalar=complex(s))


def delta_hamiltonian(splits) -> np.ndarray:
    """Hamiltonian shift (i/2) sum_j (s_j B_j^dag - s_j^* B_j).

    Moving the identity parts of the Lindblad operators into the coherent
    term produces this hermitian correction; it vanishes whenever every
    operator is hermitian (real s_j, hermitian B_j).
    """
    out = np.zeros((2, 2), dtype=complex)
    for split in splits:
        b = np.asarray(split.traceless, dtype=complex)
        s = complex(split.scalar)
        out += 0.5j * (s * b.conj().T - np.conj(s) * b)
    return out


# ---------------------------------------------------------------------------
# GKS coefficient matrix
# ---------------------------------------------------------------------------

# Orthonormal traceless hermitian basis F_k with tr(F_j^dag F_k) = delta_jk.
_GKS_BASIS = SIGMA / np.sqrt(2.0)


def gks_matrix(fa) -> np.ndarray:
    """Coefficient matrix c = C C^dag with C_kj = tr(F_k^dag B_j).

    The B_j are the traceless parts of the operators, expanded in the basis
    F_k = sigma_k / sqrt(2). The result is hermitian positive semidefinite,
    and real symmetric for hermitian operators.
    """
    ops = _operator_list(fa)
    coeff = np.empty((3, len(ops)), dtype=complex)
    for j, op in enumerate(ops):
        b = trace_split(op).traceless
        for k in range(3):
            coeff[k, j] = np.trace(_GKS_BASIS[k] @ b)
    return coeff @ coeff.conj().T


def gks_minimal(c, tol: float = PSD_TOL) -> list:
    """Smallest operator set reproducing a GKS coefficient matrix.

    Diagonalizing c = U chat U^dag yields one operator
    B_j = sqrt(chat_jj) sum_k U_kj F_k per positive eigenvalue, so at most
    three. With hermitian Lindblad operators c is real symmetric and the
    reconstructed operators are hermitian. Returns them largest rate first;
    c = 0 yields an empty list.
    """
    c = np.asarray(c, dtype=complex)
    if c.shape != (3, 3):
        raise NotHermitianError("coefficient matrix must be 3x3")
    require_hermitian(c, what="coefficient matrix")
    if float(np.max(np.abs(c.imag))) > HERMITIAN_TOL:
        raise NotHermitianError(
            "coefficient matrix has a complex part; only real symmetric "
            "matrices (hermitian Lindblad operators) are supported"
        )
    sym = 0.5 * (c.real + c.real.T)
    scale = float(np.linalg.norm(sym))
    if scale == 0.0:
        return []
    evals, evecs = np.linalg.eigh(sym)
    if evals[0] < -tol * scale:
        raise NotPSDError(f"coefficient matrix has eigenvalue {evals[0]!r} < 0")
    ops = []
    for j in range(2, -1, -1):
        if evals[j] > RATE_FLOOR:
            weight = np.sqrt(evals[j])
            op = weight * np.tensordot(evecs[:, j], _GKS_BASIS, axes=(0, 0))
            ops.append(op)
    return ops
