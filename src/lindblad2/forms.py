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
from functools import cached_property

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
    BadValueError,
    LindbladError,
    NotCPError,
    NotHermitianError,
    NotSymmetricError,
    VerdictMismatchError,
)
from .tolerances import HERMITIAN_TOL, MISMATCH_BAND, PSD_TOL, RANK_TOL, SYMMETRY_TOL


def require_symmetric(a, what: str = "matrix") -> np.ndarray:
    """Validate a real symmetric 3x3 matrix and return its symmetrized copy.

    The asymmetry max|a - a^T| may be at most SYMMETRY_TOL times the largest
    |entry|, whatever the scale of the entries, and no step overflows for
    entries up to the largest double.
    """
    return np.array(_symmetric_rows(a, what))


def _symmetric_rows(a, what: str) -> list:
    """require_symmetric's result as three rows of Python floats: each entry
    is read once and the arithmetic is numpy's, one entry at a time."""
    a = np.asarray(a, dtype=float)
    flat = a.ravel().tolist() if a.shape == (3, 3) else [math.nan]
    # Entry by entry: Python's max skips a NaN that does not come first.
    if not all(map(math.isfinite, flat)):
        raise NotSymmetricError(f"{what} must be a finite real 3x3 matrix")
    peak = max(map(abs, flat))
    # Halved first, so neither a - a^T nor a + a^T overflows.
    x11, x12, x13, x21, x22, x23, x31, x32, x33 = [0.5 * x for x in flat]
    defect = 2.0 * max(abs(x12 - x21), abs(x13 - x31), abs(x23 - x32))
    if defect > SYMMETRY_TOL * peak:
        raise NotSymmetricError(f"{what} is not symmetric (defect {defect:.3e})")
    return [
        [x11 + x11, x12 + x21, x13 + x31],
        [x21 + x12, x22 + x22, x23 + x32],
        [x31 + x13, x32 + x23, x33 + x33],
    ]


def plane_projector(n) -> np.ndarray:
    """Projector I3 - n n^T onto the plane orthogonal to the axis n, taken
    as n / |n| (see unit_vector)."""
    n = unit_vector(n)
    return np.eye(3) - np.outer(n, n)


@dataclass(frozen=True, eq=False)
class FormA:
    """Dissipator given by hermitian Lindblad operators; none is D = 0."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(
            _readonly(require_hermitian(op, what="Lindblad operator"))
            for op in self.operators
        )
        object.__setattr__(self, "operators", ops)


@dataclass(frozen=True, eq=False)
class FormB:
    """Dissipator given by positive rates and unit projector axes; no
    terms is the zero dissipator D = 0. An axis of length 1 within UNIT_TOL
    is accepted and stored as n / |n| (see unit_vector), so every reader of
    the terms sees the same dissipator. Its minimal reduction (see
    reduce_terms) is computed once, on first use; the terms are read-only,
    so it cannot go stale."""

    terms: tuple

    def __post_init__(self):
        terms = []
        for rate, axis in self.terms:
            rate = float(rate)
            if not 0.0 < rate < math.inf:
                raise BadValueError(f"rate must be positive, got {rate!r}")
            terms.append((rate, _readonly(unit_vector(axis))))
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def rates(self) -> np.ndarray:
        return np.array([rate for rate, _ in self.terms])

    @property
    def axes(self) -> np.ndarray:
        return np.reshape([axis for _, axis in self.terms], (-1, 3))

    @cached_property
    def _minimal(self) -> tuple:
        # Row j is column j of gram_from_form_b, sqrt(lambda_j) n_j.
        rows = [[math.sqrt(rate) * x for x in axis.tolist()] for rate, axis in self.terms]
        # Scaled by 2^-s to max|q| in [1/2, 1), an exact step, so q q^T cannot
        # overflow; the factor of the scaled Gram matrix is 2^-s times q's.
        # q q^T is PSD by construction, so it is factored without a CP judge.
        shift = math.frexp(max((abs(x) for row in rows for x in row), default=0.0))[1]
        q = np.array([[math.ldexp(x, -shift) for x in row] for row in rows]).reshape(-1, 3).T
        return _minimal_form_b(_factor(_symmetric_rows(q @ q.T, "gram matrix")), shift)._minimal


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


# ---------------------------------------------------------------------------
# Conversions between the operator forms A and B
# ---------------------------------------------------------------------------


def form_a_to_form_b(fa: FormA) -> FormB:
    """Rewrite hermitian operators as rate/axis pairs.

    Each hermitian A lifts uniquely to A = (1/2)(a I + sqrt(lambda) n . sigma);
    the identity part commutes with everything and drops out, so the
    dissipator only sees (lambda, n). The vectors sqrt(lambda) n are Form D
    columns, so :func:`form_b_from_gram` makes the terms: operators with
    lambda = 0 are proportional to the identity and discarded, so operators
    that are all proportional to I give the zero dissipator, and a rate
    above the largest double raises LindbladError.
    """
    return form_b_from_gram(_gram_from_form_a(fa))


def form_a_from_form_b(fb: FormB) -> FormA:
    """Traceless hermitian operators (1/2) sqrt(lambda_j) n_j . sigma."""
    ops = []
    for rate, axis in fb.terms:
        ops.append(matrix_from_pauli(0.0, 0.5 * np.sqrt(rate) * axis))
    return FormA(operators=tuple(ops))


def dissipation_matrix(fb: FormB) -> np.ndarray:
    """Form C: L = (1/2) sum_j lambda_j (I3 - n_j n_j^T), symmetric PSD."""
    out = [0.0] * 9
    for rate, axis in fb.terms:
        w = 0.5 * rate
        x, y, z = axis.tolist()
        term = (1.0 - x * x, 0.0 - x * y, 0.0 - x * z,
                0.0 - y * x, 1.0 - y * y, 0.0 - y * z,
                0.0 - z * x, 0.0 - z * y, 1.0 - z * z)  # I3 - n n^T
        out = [total + w * entry for total, entry in zip(out, term)]
    return np.array(out).reshape(3, 3)


def apply_dissipator(form, m) -> np.ndarray:
    """Apply the dissipative term to a 2x2 operator, natively in each form.

    ``form`` may be a FormA, a FormB or a symmetric 3x3 dissipation
    matrix. ``m`` may also be a
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
        # D[m] = sum_a (L c)_a sigma_a for the Pauli coefficients c of m.
        c = pauli_coefficients(m)[1]
        return np.einsum("...a,aij->...ij", c @ ell, SIGMA)
    s = sum((op @ op for op in form.operators), np.zeros((2, 2), dtype=complex))
    out = 0.5 * (s @ m + m @ s)
    for op in form.operators:
        out -= op @ m @ op
    return out


# ---------------------------------------------------------------------------
# The Gram side: L <-> M <-> q-vectors <-> Form B
# ---------------------------------------------------------------------------


def gram_from_dissipation(ell) -> np.ndarray:
    """The symmetric companion M with L = (1/2)(tr(M) I3 - M).

    Entrywise: M_ab = -2 L_ab off the diagonal and
    M_aa = -L_aa + L_bb + L_cc for distinct a, b, c. L is completely
    positive exactly when M is a Gram matrix. An entry of M above the
    largest double raises LindbladError.
    """
    _, m, shift = _scaled_gram(_symmetric_rows(ell, "dissipation matrix"))
    with np.errstate(over="ignore"):  # caught as a non-finite entry
        m = np.ldexp(m, 2 * shift)
    if not np.isfinite(m).all():
        raise LindbladError("an entry of M is above the largest double, 1.8e308")
    return m


def _scaled_gram(ell: list) -> tuple:
    """(L', M of L', s) for the rows of a validated L, with L' = L 4^-s and
    max|L'| in [1/4, 1): exact, so M cannot overflow and 2^s times its
    factor is L's. L' and M are rows of Python floats, M entry by entry
    tr(L') I3 - 2 L' as numpy forms it."""
    shift = (math.frexp(max(map(abs, ell[0] + ell[1] + ell[2])))[1] + 1) // 2
    ell = [[math.ldexp(x, -2 * shift) for x in row] for row in ell]
    (a, b, c), (d, e, f), (g, h, k) = ell
    trace = 0.0 + a + e + k  # numpy's order; the sum of three -0.0 is 0.0
    off = trace * 0.0  # off the diagonal of tr(L') I3, a zero signed like tr(L')
    m = [
        [trace - 2.0 * a, off - 2.0 * b, off - 2.0 * c],
        [off - 2.0 * d, trace - 2.0 * e, off - 2.0 * f],
        [off - 2.0 * g, off - 2.0 * h, trace - 2.0 * k],
    ]
    return ell, m, shift


def dissipation_from_gram(m) -> np.ndarray:
    """Exact inverse of :func:`gram_from_dissipation`. An entry of
    tr(M) I3 - M above the largest double raises LindbladError."""
    m = require_symmetric(m, what="gram matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # caught as a non-finite entry
        ell = 0.5 * (np.trace(m) * np.eye(3) - m)
    if not np.isfinite(ell).all():
        raise LindbladError("an entry of tr(M) I3 - M is above the largest double, 1.8e308")
    return ell


def gram_condition_margins(m) -> list:
    """Signed slack of each Gram-matrix condition, most negative = violated.

    The conditions are all principal minors of the symmetric 3x3 matrix:
    diagonal entries, the three 2x2 minors, and the determinant. They hold
    together exactly when M is positive semidefinite. Margins are evaluated
    on M normalized by its Frobenius norm, so the verdict is scale free.
    """
    return _gram_margins(frobenius_normalized(_symmetric_rows(m, "gram matrix")))


def _gram_margins(m_unit) -> list:
    """gram_condition_margins of a validated M already normalized."""
    (m11, m12, m13), (_, m22, m23), (_, _, m33) = m_unit.tolist()
    # np.linalg.det flags a division by zero on an exactly singular pivot
    # (subnormal entries reach one) and still returns the right 0.
    with np.errstate(divide="ignore"):
        det = float(np.linalg.det(m_unit))
    return [
        ("(i) M11 >= 0", m11),
        ("(i) M22 >= 0", m22),
        ("(i) M33 >= 0", m33),
        ("(ii) M11*M22 >= M12^2", m11 * m22 - m12**2),
        ("(ii) M11*M33 >= M13^2", m11 * m33 - m13**2),
        ("(ii) M22*M33 >= M23^2", m22 * m33 - m23**2),
        ("(iii) det(M) >= 0", det),
    ]


def _gram_evidence(m_unit) -> tuple:
    """What judge weighs for a validated, normalized M: (margins, lambda_min)."""
    return _gram_margins(m_unit), float(np.linalg.eigvalsh(m_unit)[0])


_MINORS_ROUTE = "minor conditions route"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a CP check: ``reason`` names the first violated condition
    when not CP; ``margin`` is lambda_min(M) of the Frobenius-normalized M,
    CP or not, on every route, so it reads against -PSD_TOL."""

    cp: bool
    reason: str | None = None
    margin: float = 0.0


def judge(margins, min_eig: float, route: str) -> Verdict:
    """The one CP rule, for a route's (label, margin) pairs and the smallest
    eigenvalue of M, all taken on Frobenius-normalized matrices.

    A condition fails when its margin is below -PSD_TOL; the verdict names
    the first that fails. Where every condition holds, a min_eig below
    -PSD_TOL still makes it NotCP, with the reason lambda_min(M) >= 0 (see
    tolerances.PSD_TOL). Every verdict's margin is min_eig. A condition
    that fails while min_eig holds, both outside MISMATCH_BAND, is a bug in
    the route: VerdictMismatchError names it.
    """
    failed = next((label for label, margin in margins if margin < -PSD_TOL), None)
    if failed is None and min_eig < -PSD_TOL:
        failed = "lambda_min(M) >= 0"
    elif failed is not None and min_eig >= -PSD_TOL:
        worst = min(margin for _, margin in margins)
        if min(abs(worst), abs(min_eig)) > MISMATCH_BAND:
            raise VerdictMismatchError(
                f"internal bug: {route} says cp=False (margin {worst:.3e}) "
                f"but min eigenvalue is {min_eig:.3e}"
            )
    return Verdict(cp=failed is None, reason=failed, margin=min_eig)


def gram_decompose(m):
    """Factor a PSD symmetric 3x3 matrix as M_ab = q_a . q_b.

    Returns a (3, 3) array whose rows are the vectors q_a; column k is the
    k-th Lindblad term. Each step of the triangular construction pivots on
    the largest remaining diagonal entry d at row p, takes the column
    rest[:, p] / sqrt(d) with sqrt(d) at row p, subtracts its outer product
    from the rest and clears row and column p. The loop stops once
    d <= RANK_TOL times the largest diagonal entry of M, so the number of
    nonzero columns is the rank of M whatever the units. No step can
    overflow for a PSD M, and a zero matrix factors into three zero
    vectors.

    Raises NotCPError, with the violated condition and the verdict's margin
    lambda_min, when judge finds M not PSD.
    """
    m = _symmetric_rows(m, "gram matrix")
    verdict = judge(*_gram_evidence(frobenius_normalized(m)), _MINORS_ROUTE)
    if not verdict.cp:
        raise NotCPError(f"condition {verdict.reason} violated (margin {verdict.margin:.3e})")
    return _factor(m)


def _factor(m: list) -> np.ndarray:
    """The pivoted triangular factor of the rows of a validated PSD M (see
    gram_decompose)."""
    columns = []
    rest = [row[:] for row in m]
    diagonal = [m[0][0], m[1][1], m[2][2]]
    floor = RANK_TOL * max(diagonal)
    for _ in range(3):
        p = diagonal.index(max(diagonal))  # numpy's argmax: the first largest
        if not diagonal[p] > floor:
            break
        root = math.sqrt(diagonal[p])
        column = [row[p] / root for row in rest]
        column[p] = root
        columns.append(column)
        # rest - column column^T, then row and column p cleared
        for row, ci in zip(rest, column):
            row[0] -= ci * column[0]
            row[1] -= ci * column[1]
            row[2] -= ci * column[2]
            row[p] = 0.0
        rest[p] = [0.0, 0.0, 0.0]
        diagonal = [rest[0][0], rest[1][1], rest[2][2]]
    columns += [[0.0, 0.0, 0.0]] * (3 - len(columns))
    return np.array(list(zip(*columns)))


def _gram_from_form_a(fa: FormA) -> np.ndarray:
    """Form D from Form A: column j is q_j = sqrt(lambda_j) n_j, twice the
    real Pauli coefficients of A_j = (1/2)(a_j I + q_j . sigma)."""
    # An entry past the double range overflows to inf, which
    # form_b_from_gram's rate check refuses; the real parts keep no NaN for
    # a hermitian operator.
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * pauli_coefficients(np.reshape(fa.operators, (-1, 2, 2)))[1].real.T


def gram_from_form_b(fb: FormB) -> np.ndarray:
    """Form D from Form B: the (3, r) array q with rows q_a and entries
    (q_a)_j = sqrt(lambda_j) (n_j)_a. Lambda = sum_a |q_a|^2 is the summed
    rate."""
    return (np.sqrt(fb.rates)[:, None] * fb.axes).T


def form_b_from_gram(q) -> FormB:
    """Form B from Form D: lambda_j = sum_a (q_a)_j^2, n_j the unit column.

    Zero columns are dropped, so all-zero columns give the zero dissipator.
    A rate above the largest double raises LindbladError.
    """
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore"):  # an infinite rate is refused below
        rates = [float(col @ col) for col in q.T]
    if math.inf in rates:
        raise LindbladError("a rate is above the largest double, 1.8e308")
    terms = [(lam, col / math.sqrt(lam)) for lam, col in zip(rates, q.T) if lam > 0.0]
    return FormB(terms=terms)


def _minimal_form_b(factor, shift: int) -> FormB:
    """The FormB of 2^shift times a pivoted factor of M, stored as its own
    reduction: its columns are independent, so its rank is decided already."""
    fb = form_b_from_gram(np.ldexp(factor, shift))
    object.__setattr__(fb, "_minimal", (fb, len(fb.terms)))
    return fb


def reduce_terms(fb: FormB):
    """Rewrite a dissipator with the minimal number of terms.

    Any number of terms collapses to at most three with linearly independent
    axes and positive rates, leaving the dissipation matrix unchanged. The
    route goes through the 3x3 Gram matrix of the Form D vectors, whose
    factorization re-expresses the same matrix with at most three columns.

    Returns the minimal FormB together with its term count, which equals the
    rank of the Gram matrix. A FormB computes this pair once; every later
    call returns the same tuple. A FormB made from a pivoted factor (a
    reduction, a CP certificate, form_b_from_dissipation's) is its own.
    """
    return fb._minimal


def form_b_from_dissipation(ell):
    """Recover minimal rate/axis terms from a CP dissipation matrix.

    Returns (FormB, term count); L = 0 gives no terms. Raises NotCPError
    when L is not completely positive. M is built from L scaled by a power
    of four, so it cannot overflow, and the rates are scaled back.
    """
    _, m, shift = _scaled_gram(_symmetric_rows(ell, "dissipation matrix"))
    return _minimal_form_b(gram_decompose(m), shift)._minimal


# ---------------------------------------------------------------------------
# Form E packing
# ---------------------------------------------------------------------------


def form_e_pack(ell) -> FormE:
    (a, b, c), (_, alpha, beta), (_, _, gamma) = (
        [0.5 * x for x in row] for row in _symmetric_rows(ell, "dissipation matrix")
    )
    return FormE(a=a, b=b, c=c, alpha=alpha, beta=beta, gamma=gamma)


def form_e_unpack(fe: FormE) -> np.ndarray:
    """L = 2 [[a, b, c], [b, alpha, beta], [c, beta, gamma]]. A constant that
    is not finite, or above half the largest double, raises BadValueError."""
    with np.errstate(over="ignore"):  # caught as a non-finite entry
        ell = 2.0 * np.array([[fe.a, fe.b, fe.c], [fe.b, fe.alpha, fe.beta], [fe.c, fe.beta, fe.gamma]])
    if not np.isfinite(ell).all():
        raise BadValueError("Form E constants must be finite and at most half the largest double")
    return ell


# ---------------------------------------------------------------------------
# Trace split and the effective-Hamiltonian shift
# ---------------------------------------------------------------------------


def trace_split(a) -> tuple:
    """Split A = B + s*I with tr(B) = 0; returns (B, s) with s = tr(A)/2."""
    a = np.asarray(a, dtype=complex)
    s = pauli_coefficients(a)[0]
    return a - s * IDENTITY2, complex(s)


def delta_hamiltonian(splits) -> np.ndarray:
    """Hamiltonian shift (i/2) sum_j (s_j B_j^dag - s_j^* B_j).

    ``splits`` are (B_j, s_j) pairs from :func:`trace_split`. Moving the
    identity parts of the Lindblad operators into the coherent term produces
    this hermitian correction; it vanishes whenever every operator is
    hermitian (real s_j, hermitian B_j).
    """
    out = np.zeros((2, 2), dtype=complex)
    for b, s in splits:
        out += 0.5j * (s * b.conj().T - np.conj(s) * b)
    return out


# ---------------------------------------------------------------------------
# GKS coefficient matrix
# ---------------------------------------------------------------------------


def gks_matrix(fa: FormA) -> np.ndarray:
    """Coefficient matrix c = C C^dag with C_kj = tr(F_k^dag B_j).

    The B_j are the traceless parts of the operators, expanded in the basis
    F_k = sigma_k / sqrt(2), so C's columns are the Form D vectors
    q_j / sqrt(2) and c = M / 2 = (1/2) q q^T: real symmetric positive
    semidefinite, and 0 for no operators.
    """
    q = _gram_from_form_a(fa)
    return (0.5 * q) @ q.T


def gks_minimal(c) -> FormA:
    """Smallest operator set reproducing a GKS coefficient matrix.

    For hermitian Lindblad operators c is real symmetric and equals M / 2,
    so gram_decompose judges and factors it as it does M: c = q q^T, and
    column j of q gives the hermitian operator B_j = sum_k q_kj F_k, one
    per pivot above the RANK_TOL floor, so at most three. Returns them as a
    FormA in pivot order, so gks_minimal(gks_matrix(fa)) is again a FormA;
    c = 0 yields the zero dissipator FormA(operators=()). Raises NotCPError
    as gram_decompose does when c is not PSD.
    """
    c = require_hermitian(c, what="coefficient matrix", size=3)
    if float(abs(c.imag).max()) > HERMITIAN_TOL:
        raise NotHermitianError(
            "coefficient matrix has a complex part; only real symmetric "
            "matrices (hermitian Lindblad operators) are supported"
        )
    # F_k = sigma_k / sqrt(2), so B_j has the Pauli coefficients q[:, j] / sqrt(2).
    q = gram_decompose(c.real) / math.sqrt(2.0)
    return FormA(operators=tuple(matrix_from_pauli(0.0, col) for col in q.T if col.any()))
