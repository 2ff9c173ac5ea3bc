import numpy as np
import pytest

from conftest import (
    EX,
    EY,
    EZ,
    PAULI_BASIS,
    dissipator_action_table,
    forms_of,
    general_dissipator,
    random_axis,
    random_form_a,
    random_form_b,
)

from lindblad2 import (
    FormA,
    FormB,
    FormE,
    apply_dissipator,
    delta_hamiltonian,
    dissipation_from_gram,
    dissipation_matrix,
    form_a_from_form_b,
    form_a_to_form_b,
    form_b_from_dissipation,
    form_b_from_gram,
    form_e_pack,
    form_e_unpack,
    gks_matrix,
    gks_minimal,
    gram_decompose,
    gram_from_dissipation,
    gram_from_form_b,
    is_completely_positive,
    plane_projector,
    reduce_terms,
    trace_split,
)
from lindblad2.core import (
    IDENTITY2,
    SIGMA,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    frobenius_normalized,
    matrix_from_pauli,
    pauli_coefficients,
)
from lindblad2.errors import (
    LindbladError,
    NotCPError,
    NotHermitianError,
    NotSymmetricError,
    NotUnitError,
)
from lindblad2.forms import gram_condition_margins, require_symmetric


# ---------------------------------------------------------------------------
# Forms A <-> B
# ---------------------------------------------------------------------------


def test_form_a_to_form_b_pauli_z():
    fb = form_a_to_form_b(FormA(operators=(0.5 * SIGMA_Z,)))
    assert len(fb.terms) == 1
    rate, axis = fb.terms[0]
    assert rate == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(axis, EZ)


def test_form_a_to_form_b_identity_is_empty():
    assert form_a_to_form_b(FormA(operators=(IDENTITY2,))).terms == ()


def test_form_a_to_form_b_mixed_operator():
    op = 0.5 * (3.0 * IDENTITY2 + 2.0 * SIGMA_X)
    fb = form_a_to_form_b(FormA(operators=(op,)))
    rate, axis = fb.terms[0]
    assert rate == pytest.approx(4.0, abs=1e-14)
    assert np.allclose(axis, EX)


def test_form_a_rejects_non_hermitian():
    for op in (SIGMA_X + 1j * SIGMA_Y, np.zeros((2, 3)), np.full((2, 2), np.nan)):
        with pytest.raises(NotHermitianError):
            FormA(operators=(op,))


def test_dissipation_matrix_examples():
    assert np.allclose(
        dissipation_matrix(FormB(terms=[(1.0, EZ)])), np.diag([0.5, 0.5, 0.0])
    )
    assert np.allclose(
        dissipation_matrix(FormB(terms=[(2.0, EX), (2.0, EY)])),
        np.diag([1.0, 1.0, 2.0]),
    )
    lam = 0.7
    fb = FormB(terms=[(lam, EX), (lam, EY), (lam, EZ)])
    assert np.allclose(dissipation_matrix(fb), lam * np.eye(3))


def test_apply_dissipator_identity_gives_zero():
    fa, fb, ell = forms_of(random_form_a(np.random.default_rng(0), 3))
    for form in (fa, fb, ell):
        assert np.max(np.abs(apply_dissipator(form, IDENTITY2))) < 1e-14


def test_apply_dissipator_axis_aligned_operator_is_fixed():
    fb = FormB(terms=[(1.0, EZ)])
    assert np.max(np.abs(apply_dissipator(fb, SIGMA_Z))) < 1e-14


def test_apply_dissipator_transverse_decay():
    # Direct 2x2 algebra: P = diag(1,0), P sigma_x Pperp + Pperp sigma_x P
    # equals sigma_x, so D[sigma_x] = sigma_x / 2.
    fb = FormB(terms=[(1.0, EZ)])
    assert np.allclose(apply_dissipator(fb, SIGMA_X), 0.5 * SIGMA_X)


def test_form_equivalence_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        fa, fb, ell = forms_of(random_form_a(rng, int(rng.integers(1, 5))))
        ref = dissipator_action_table(fa)
        for form in (fb, ell):
            assert np.max(np.abs(dissipator_action_table(form) - ref)) < 1e-10


# ---------------------------------------------------------------------------
# L <-> M
# ---------------------------------------------------------------------------


def test_gram_from_dissipation_examples():
    assert np.allclose(
        gram_from_dissipation(np.diag([0.5, 0.5, 0.0])), np.diag([0.0, 0.0, 1.0])
    )
    lam = 0.9
    assert np.allclose(gram_from_dissipation(lam * np.eye(3)), lam * np.eye(3))
    assert np.allclose(gram_from_dissipation(np.zeros((3, 3))), np.zeros((3, 3)))


def test_gram_from_dissipation_refuses_overflowing_entry():
    # M_11 = L_22 + L_33 = 2e308; warnings are errors here.
    with pytest.raises(LindbladError, match="largest double") as info:
        gram_from_dissipation(np.diag([0.0, 1e308, 1e308]))
    assert "\n" not in str(info.value)


def test_dissipation_from_gram_examples():
    assert np.allclose(
        dissipation_from_gram(np.diag([0.0, 0.0, 1.0])), np.diag([0.5, 0.5, 0.0])
    )
    assert np.allclose(dissipation_from_gram(np.eye(3)), np.eye(3))
    assert np.allclose(dissipation_from_gram(np.zeros((3, 3))), np.zeros((3, 3)))


def test_dissipation_from_gram_refuses_overflowing_entry():
    # tr(M) = 3e308 overflows; warnings are errors here.
    with pytest.raises(LindbladError, match="largest double") as info:
        dissipation_from_gram(np.diag([1e308] * 3))
    assert "\n" not in str(info.value)
    # A finite result keeps the bits of the plain formula, up to 1e308.
    rng = np.random.default_rng(9)
    for scale in (1e-300, 1.0, 1e300, 1e308):
        m = rng.uniform(-1.0, 1.0, size=(3, 3)) * scale / 3.0
        m = m + m.T
        expected = 0.5 * (np.trace(m) * np.eye(3) - m)
        assert dissipation_from_gram(m).tobytes() == expected.tobytes()


def test_gram_dissipation_round_trip_random():
    rng = np.random.default_rng(8)
    for _ in range(300):
        ell = rng.uniform(-1.0, 1.0, size=(3, 3))
        ell = 0.5 * (ell + ell.T)
        back = dissipation_from_gram(gram_from_dissipation(ell))
        assert np.max(np.abs(back - ell)) < 1e-14


def test_require_symmetric_rejects_asymmetry():
    with pytest.raises(NotSymmetricError):
        gram_from_dissipation(np.array([[0.0, 1.0, 0.0], [0, 0, 0], [0, 0, 0]]))


def test_require_symmetric_is_scale_free():
    # Rounding leaves Q diag(e) Q^T asymmetric by ~1e-16 of its largest
    # entry at every scale; an asymmetry of 1e-3 of it is refused at every
    # scale. At 5e307 the largest entry is near the top of the double range,
    # where a + a^T overflows.
    rng = np.random.default_rng(163)
    for scale in (1e-300, 1.0, 1e300, 5e307):
        for _ in range(200):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            gram = q @ np.diag([1.0, 2.0, 3.0]) @ q.T * scale
            out = require_symmetric(gram)
            assert np.array_equal(out, out.T)
            assert np.max(np.abs(out - gram)) <= 1e-15 * np.max(np.abs(gram))
        skewed = np.diag([1.0, 2.0, 3.0]) * scale
        skewed[0, 1] = 1e-3 * scale
        with pytest.raises(NotSymmetricError):
            require_symmetric(skewed)


# ---------------------------------------------------------------------------
# Gram factorization
# ---------------------------------------------------------------------------


def test_gram_decompose_identity():
    q = gram_decompose(np.eye(3))
    assert np.allclose(q @ q.T, np.eye(3))


def test_gram_decompose_rank_one():
    m = np.diag([0.0, 0.0, 1.0])
    q = gram_decompose(m)
    assert np.max(np.abs(q @ q.T - m)) < 1e-14


def test_gram_decompose_degenerate_pivot():
    m = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
    assert np.linalg.det(m) == pytest.approx(0.0, abs=1e-15)
    q = gram_decompose(m)
    assert np.max(np.abs(q @ q.T - m)) < 1e-12


def test_gram_decompose_zero():
    assert np.allclose(gram_decompose(np.zeros((3, 3))), np.zeros((3, 3)))


def test_gram_decompose_rejects_indefinite():
    with pytest.raises(NotCPError):
        gram_decompose(np.diag([1.0, 1.0, -0.1]))


def test_gram_decompose_random_psd():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        g = rng.normal(size=(3, 3))
        m = g.T @ g
        q = gram_decompose(m)
        assert np.max(np.abs(q @ q.T - m)) < 1e-10


def test_gram_decompose_engineered_degenerate_both_signs():
    # Exact rank-deficient leading blocks built from dyadic rationals, so
    # M11*M22 == M12^2 holds exactly in floating point.
    for eta in (1.0, -1.0):
        p, q_len, t, s = 2.0, 1.25, 0.75, 0.5
        m = np.array(
            [
                [p * p, eta * p * q_len, p * t],
                [eta * p * q_len, q_len * q_len, eta * q_len * t],
                [p * t, eta * q_len * t, t * t + s * s],
            ]
        )
        assert m[0, 0] * m[1, 1] == m[0, 1] ** 2
        q = gram_decompose(m)
        assert np.max(np.abs(q @ q.T - m)) < 1e-12


def test_gram_decompose_zero_pivot_row():
    # First diagonal entry zero: the pivot must move before factorizing.
    m = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 2.0]])
    q = gram_decompose(m)
    assert np.max(np.abs(q @ q.T - m)) < 1e-14


def test_gram_decompose_exact_under_power_of_four_scaling():
    # M 4^j factors into q 2^j bit for bit from 1e-150 up to 1e300: no
    # product may overflow, and the rank threshold is relative.
    rng = np.random.default_rng(29)
    for rank in (1, 2, 3):
        for _ in range(50):
            g = rng.normal(size=(3, rank))
            m = g @ g.T
            q = gram_decompose(m)
            for j in (-250, -1, 1, 250, 495):
                with np.errstate(all="raise"):
                    scaled = gram_decompose(np.ldexp(m, 2 * j))
                assert np.array_equal(scaled, np.ldexp(q, j))


# A rank-2 dissipator whose plane normal has a small component, so the
# leading 2x2 block of M is ill-conditioned: its rounding residue must not
# count as a third term.
RANK2_FAULT_TERMS = (
    (0.464, (-0.07797568794861909, -0.14274906774332727, 0.9866825709149577)),
    (1.278, (0.4751340493386223, 0.8691202662572676, -0.13739577118667015)),
)


def test_reduce_terms_rank_two_ill_conditioned_block():
    fb = FormB(terms=RANK2_FAULT_TERMS)
    fb_min, index = reduce_terms(fb)
    assert index == 2
    assert np.max(np.abs(dissipation_matrix(fb_min) - dissipation_matrix(fb))) < 1e-12
    _, certificate = is_completely_positive(dissipation_matrix(fb))
    assert len(certificate.terms) == 2


def test_tiny_rates_keep_their_terms():
    # Rates far below 1 are no reason to drop a term: the rank is relative.
    fb = FormB(terms=[(1e-13, EX), (1e-13, EY)])
    assert reduce_terms(fb)[1] == 2
    assert len(is_completely_positive(dissipation_matrix(fb))[1].terms) == 2
    assert len(gks_minimal(np.diag([1e-13, 0.0, 0.0])).operators) == 1
    fb = form_a_to_form_b(FormA(operators=(1e-7 * SIGMA_Z,)))
    assert len(fb.terms) == 1
    assert fb.terms[0][0] == pytest.approx(4e-14, rel=1e-15)
    assert np.array_equal(fb.terms[0][1], EZ)


def test_frobenius_normalized_bits_and_range():
    rng = np.random.default_rng(31)
    for _ in range(200):
        a = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-5, 5)
        assert np.array_equal(frobenius_normalized(a), a / np.linalg.norm(a))
        for scale in (1e-300, 1e160, 1e300):
            with np.errstate(all="raise"):
                unit = frobenius_normalized(a * scale)
            assert abs(np.sum(unit * unit) - 1.0) < 1e-15
    assert np.array_equal(frobenius_normalized(np.zeros((3, 3))), np.zeros((3, 3)))


def test_gram_soundness_any_vectors_pass_conditions():
    rng = np.random.default_rng(23)
    for _ in range(500):
        q = rng.normal(size=(3, rng.integers(1, 6)))
        m = q @ q.T
        assert all(margin >= -1e-12 for _, margin in gram_condition_margins(m))


# ---------------------------------------------------------------------------
# Form D (Gram factor) <-> Form B
# ---------------------------------------------------------------------------


def test_gram_from_form_b_examples():
    q = gram_from_form_b(FormB(terms=[(1.0, EZ)]))
    assert np.allclose(q, [[0.0], [0.0], [1.0]])
    assert np.sum(q * q) == pytest.approx(1.0)

    q = gram_from_form_b(FormB(terms=[(4.0, EX)]))
    assert np.allclose(q, [[2.0], [0.0], [0.0]])
    assert np.sum(q * q) == pytest.approx(4.0)

    q = gram_from_form_b(FormB(terms=[(1.0, EX), (1.0, EY), (1.0, EZ)]))
    assert np.sum(q * q) == pytest.approx(3.0)
    assert np.allclose(q, np.eye(3))

    assert gram_from_form_b(FormB(terms=())).shape == (3, 0)


def test_form_b_from_gram_examples():
    fb = form_b_from_gram(np.eye(3))
    assert len(fb.terms) == 3
    for (rate, axis), unit in zip(fb.terms, (EX, EY, EZ)):
        assert rate == pytest.approx(1.0)
        assert np.allclose(axis, unit)

    fb = form_b_from_gram([[0.0], [0.0], [2.0]])
    rate, axis = fb.terms[0]
    assert rate == pytest.approx(4.0)
    assert np.allclose(axis, EZ)

    assert form_b_from_gram(np.zeros((3, 2))).terms == ()


def test_form_b_gram_round_trip_matrix():
    rng = np.random.default_rng(29)
    for _ in range(200):
        fb = random_form_b(rng, int(rng.integers(1, 7)))
        q = gram_from_form_b(fb)
        rebuilt = 0.5 * (np.sum(q * q) * np.eye(3) - q @ q.T)
        assert np.max(np.abs(rebuilt - dissipation_matrix(fb))) < 1e-12


# ---------------------------------------------------------------------------
# Term reduction
# ---------------------------------------------------------------------------


def test_reduce_terms_collapses_repeats():
    fb = FormB(terms=[(1.0, EZ)] * 4)
    fb_min, index = reduce_terms(fb)
    assert index == 1
    rate, axis = fb_min.terms[0]
    assert rate == pytest.approx(4.0)
    assert np.allclose(np.abs(axis), EZ)
    assert np.max(np.abs(dissipation_matrix(fb_min) - dissipation_matrix(fb))) < 1e-12


def test_reduce_terms_huge_rates():
    # q q^T would overflow at rate 1e308; the prescaled Gram matrix does
    # not, and the collapsed rate 2e308 is refused in one line.
    with pytest.raises(LindbladError, match="above the largest double") as info:
        reduce_terms(FormB(terms=[(1e308, EX)] * 2))
    assert "\n" not in str(info.value)
    fb_min, index = reduce_terms(FormB(terms=[(1e307, EX)] * 2 + [(1e307, EY)]))
    assert index == 2
    assert sorted(rate for rate, _ in fb_min.terms) == pytest.approx([1e307, 2e307])


def test_reduce_terms_returns_the_same_object_on_repeat_calls():
    fb = FormB(terms=[(1.0, EX), (2.0, EX), (0.5, EY)])
    first = reduce_terms(fb)
    assert reduce_terms(fb) is first
    assert first[1] == 2
    # An equal-valued FormB is another object with its own reduction.
    assert reduce_terms(FormB(terms=fb.terms)) is not first


def test_reduce_terms_keeps_independent_pair():
    fb = FormB(terms=[(1.0, EX), (1.0, EY)])
    fb_min, index = reduce_terms(fb)
    assert index == 2
    assert np.max(np.abs(dissipation_matrix(fb_min) - dissipation_matrix(fb))) < 1e-12


def test_reduce_terms_random_many_terms():
    rng = np.random.default_rng(31)
    for _ in range(300):
        fb = random_form_b(rng, 10)
        fb_min, index = reduce_terms(fb)
        assert index <= 3
        assert len(fb_min.terms) == index
        before = dissipation_matrix(fb)
        after = dissipation_matrix(fb_min)
        assert np.linalg.norm(before - after) < 1e-12
        # Independent spectral oracle for the rank of the Gram matrix.
        q = gram_from_form_b(fb)
        sv = np.linalg.svd(q @ q.T, compute_uv=False)
        assert index == int(np.sum(sv > 1e-10 * sv[0]))


def test_form_b_from_dissipation_examples():
    fb, index = form_b_from_dissipation(np.diag([0.5, 0.5, 0.0]))
    assert index == 1
    rate, axis = fb.terms[0]
    assert rate == pytest.approx(1.0)
    assert np.allclose(np.abs(axis), EZ)

    lam = 0.8
    fb, index = form_b_from_dissipation(lam * np.eye(3))
    assert index == 3
    assert np.max(np.abs(dissipation_matrix(fb) - lam * np.eye(3))) < 1e-12

    fb, index = form_b_from_dissipation(np.zeros((3, 3)))
    assert (fb.terms, index) == ((), 0)

    with pytest.raises(NotCPError):
        form_b_from_dissipation(np.diag([0.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# Form E packing
# ---------------------------------------------------------------------------


def test_form_e_pack_examples():
    fe = form_e_pack(np.diag([2.0, 2.0, 4.0]))
    assert (fe.a, fe.alpha, fe.gamma) == (1.0, 1.0, 2.0)
    assert (fe.b, fe.c, fe.beta) == (0.0, 0.0, 0.0)
    assert np.allclose(
        form_e_unpack(FormE(a=0.5, b=0.0, c=0.0, alpha=0.5, beta=0.0, gamma=0.5)),
        np.eye(3),
    )


def test_form_e_unpack_refuses_overflowing_entry():
    # 2 a = 2e308 overflows; warnings are errors here.
    for fe in (FormE(1e308, 0.0, 0.0, 1e308, 0.0, 1e308), FormE(0.0, -1e308, 0.0, 0.0, 0.0, 0.0)):
        with pytest.raises(LindbladError, match="largest double") as info:
            form_e_unpack(fe)
        assert "\n" not in str(info.value)
    # A finite result keeps the bits of the plain formula, up to 8e307.
    rng = np.random.default_rng(11)
    for scale in (1e-300, 1.0, 1e300, 8e307):
        fe = FormE(*rng.uniform(-1.0, 1.0, size=6) * scale)
        plain = 2.0 * np.array([[fe.a, fe.b, fe.c], [fe.b, fe.alpha, fe.beta], [fe.c, fe.beta, fe.gamma]])
        assert form_e_unpack(fe).tobytes() == plain.tobytes()


def test_form_e_round_trip_random():
    rng = np.random.default_rng(37)
    for _ in range(100):
        ell = rng.uniform(-2.0, 2.0, size=(3, 3))
        ell = 0.5 * (ell + ell.T)
        assert np.array_equal(form_e_unpack(form_e_pack(ell)), ell)


# ---------------------------------------------------------------------------
# Trace split and Hamiltonian shift
# ---------------------------------------------------------------------------


def test_trace_split_examples():
    traceless, scalar = trace_split(SIGMA_Z)
    assert np.allclose(traceless, SIGMA_Z)
    assert scalar == 0.0
    assert np.max(np.abs(delta_hamiltonian([(traceless, scalar)]))) < 1e-15

    traceless, scalar = trace_split(IDENTITY2 + SIGMA_X)
    assert np.allclose(traceless, SIGMA_X)
    assert scalar == pytest.approx(1.0)
    assert np.max(np.abs(delta_hamiltonian([(traceless, scalar)]))) < 1e-15


def test_delta_hamiltonian_traceless_non_hermitian_vanishes():
    # A = sigma_x + i sigma_y is traceless, so s = 0 and the shift is zero by
    # direct evaluation of (i/2)(s B^dag - s* B).
    split = trace_split(SIGMA_X + 1j * SIGMA_Y)
    assert split[1] == 0.0
    assert np.max(np.abs(delta_hamiltonian([split]))) < 1e-15


def test_delta_hamiltonian_complex_trace():
    # Hand-evaluated: A = (1+2i) I + sigma_x + i sigma_y gives
    # dH = -2 sigma_x + sigma_y.
    a = (1.0 + 2.0j) * IDENTITY2 + SIGMA_X + 1j * SIGMA_Y
    dh = delta_hamiltonian([trace_split(a)])
    assert np.max(np.abs(dh - dh.conj().T)) < 1e-14
    assert np.allclose(dh, -2.0 * SIGMA_X + SIGMA_Y)


def test_trace_split_shift_identity_random():
    # For any operators: D[rho] = -i[dH, rho] + D'[rho] with D' built from
    # the traceless parts, checked against the general reference dissipator.
    rng = np.random.default_rng(41)
    for _ in range(100):
        ops = [
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)
        ]
        splits = [trace_split(op) for op in ops]
        dh = delta_hamiltonian(splits)
        rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = general_dissipator(ops, rho)
        rhs = -1j * (dh @ rho - rho @ dh) + general_dissipator(
            [traceless for traceless, _ in splits], rho
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# GKS coefficient matrix
# ---------------------------------------------------------------------------


def test_gks_matrix_pauli_z():
    c = gks_matrix(FormA(operators=(0.5 * SIGMA_Z,)))
    expected = np.zeros((3, 3))
    expected[2, 2] = 0.5
    assert np.max(np.abs(c - expected)) < 1e-14


def test_gks_matrix_identity_is_zero():
    assert np.max(np.abs(gks_matrix(FormA(operators=(IDENTITY2,))))) < 1e-15


def test_gks_matrix_real_symmetric_for_hermitian_ops():
    rng = np.random.default_rng(43)
    for _ in range(100):
        c = gks_matrix(random_form_a(rng, 3))
        assert np.max(np.abs(c.imag)) < 1e-14
        assert np.max(np.abs(c - c.T.conj())) < 1e-14


def _gks_matrix_per_operator(fa):
    """gks_matrix as M / 2 = (1/2) q q^T, with the Form D vector q_j taken
    from one operator at a time."""
    q = np.zeros((3, len(fa.operators)))
    for j, op in enumerate(fa.operators):
        q[:, j] = 2.0 * pauli_coefficients(op)[1].real
    return (0.5 * q) @ q.T


def _gks_matrix_by_traces(fa):
    """c = C C^dag, with C_kj = tr(F_k B_j) from one 2x2 product and trace
    per (k, j) pair, B_j the traceless part of A_j and F_k = sigma_k / sqrt(2)."""
    basis = SIGMA / np.sqrt(2.0)
    coeff = np.empty((3, len(fa.operators)), dtype=complex)
    for j, op in enumerate(fa.operators):
        b, _ = trace_split(op)
        for k in range(3):
            coeff[k, j] = np.trace(basis[k] @ b)
    return coeff @ coeff.conj().T


@pytest.mark.parametrize("scale", [1e-150, 1e-20, 1.0, 1e20, 1e150])
def test_gks_matrix_matches_per_operator_loop_bit_for_bit(scale):
    rng = np.random.default_rng(47)
    for terms in range(7):
        for _ in range(20):
            fa = random_form_a(rng, terms)
            fa = FormA(operators=tuple(scale * op for op in fa.operators))
            c = gks_matrix(fa)
            assert c.shape == (3, 3) and c.dtype == float
            assert c.tobytes() == _gks_matrix_per_operator(fa).tobytes()
            # The same matrix, rounded through sqrt(2) and complex products.
            assert np.max(np.abs(c - _gks_matrix_by_traces(fa))) <= 1e-15 * np.max(np.abs(c))


def test_gks_matrix_is_half_the_gram_matrix_form_a_to_form_b_factors(monkeypatch):
    from lindblad2 import forms

    seen = []
    monkeypatch.setattr(forms, "form_b_from_gram", lambda q: seen.append(q) or FormB(terms=()))
    rng = np.random.default_rng(61)
    for terms in range(5):
        fa = random_form_a(rng, terms)
        form_a_to_form_b(fa)
        q = seen.pop()
        assert q.shape == (3, terms)
        assert gks_matrix(fa).tobytes() == ((0.5 * q) @ q.T).tobytes()


def test_gks_minimal_single_mode():
    c = np.diag([0.5, 0.0, 0.0]).astype(complex)
    fa = gks_minimal(c)
    assert len(fa.operators) == 1
    ref = FormA(operators=(np.sqrt(0.5) * SIGMA_X / np.sqrt(2.0),))
    got = dissipator_action_table(fa)
    assert np.max(np.abs(got - dissipator_action_table(ref))) < 1e-12


def test_gks_minimal_zero_matrix():
    assert gks_minimal(np.zeros((3, 3))).operators == ()


def test_gks_minimal_rejects_indefinite():
    from lindblad2.errors import NotPSDError

    with pytest.raises(NotPSDError):
        gks_minimal(np.diag([-1.0, 0.0, 0.0]))
    # c = M / 2 is judged as gram_decompose judges M, with the same error.
    m = np.array([[1.0, 0.5, 0.0], [0.5, 0.1, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotCPError) as by_gram:
        gram_decompose(m)
    with pytest.raises(NotCPError) as by_gks:
        gks_minimal(m / 2)
    assert str(by_gks.value) == str(by_gram.value)
    # An infinite entry is refused, not read as the zero dissipator.
    with pytest.raises(NotHermitianError, match="finite 3x3"):
        gks_minimal(np.diag([np.inf, 0.0, 0.0]))


def test_gks_minimal_refuses_a_non_hermitian_operator():
    # c = v v^H for the Pauli coefficients v = (1, -i, 0) / sqrt(2) of
    # sigma_- = (sigma_x - i sigma_y) / 2 in the F_k basis: hermitian, with
    # a complex part that no set of hermitian operators reproduces.
    v = np.array([1.0, -1j, 0.0]) / np.sqrt(2.0)
    c = np.outer(v, v.conj())
    with pytest.raises(NotHermitianError, match="complex part"):
        gks_minimal(c)


def test_gks_minimal_at_the_top_of_the_double_range():
    # The operators are factor columns, about 1e154, so nothing overflows.
    c = np.diag([1e308, 1e308, 1e308])
    fa = gks_minimal(c)
    assert len(fa.operators) == 3
    assert np.max(np.abs(gks_matrix(fa) - c)) <= 1e-15 * 1e308


def test_gks_minimal_rank_two():
    rng = np.random.default_rng(47)
    g = rng.normal(size=(3, 2))
    c = g @ g.T
    fa = gks_minimal(c)
    assert len(fa.operators) == 2
    assert np.max(np.abs(gks_matrix(fa) - c)) < 1e-12


def test_gks_round_trip_action():
    rng = np.random.default_rng(53)
    for _ in range(100):
        fa = random_form_a(rng, int(rng.integers(1, 5)))
        minimal = gks_minimal(gks_matrix(fa))
        assert len(minimal.operators) <= 3
        # No operators (fa all proportional to I) is the zero dissipator.
        got = dissipator_action_table(minimal)
        assert np.max(np.abs(got - dissipator_action_table(fa))) < 1e-10
        for op in minimal.operators:
            assert np.max(np.abs(op - op.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# Assorted invariants
# ---------------------------------------------------------------------------


def test_plane_projector_matches_dissipation_matrix():
    rng = np.random.default_rng(59)
    for _ in range(50):
        axis = random_axis(rng)
        rate = rng.uniform(0.1, 2.0)
        fb = FormB(terms=[(rate, axis)])
        assert np.allclose(
            dissipation_matrix(fb), 0.5 * rate * plane_projector(axis)
        )


@pytest.mark.parametrize("stretch", [1.0 + 9e-10, 1.0 - 9e-10])
def test_near_unit_axis_is_stored_as_a_unit_vector(stretch):
    # An axis accepted within UNIT_TOL is n / |n| for every reader: the
    # projector P = (1/2)(I + n . sigma) of Form B is then a projector, so
    # its action is Form A's, and the Form C matrix it gives is CP.
    eps = np.finfo(float).eps
    n = stretch * np.array([0.0, 0.6, 0.8])
    fb = FormB(terms=[(1.0, n)])
    assert abs(np.linalg.norm(fb.terms[0][1]) - 1.0) <= 2 * eps
    p = plane_projector(n)
    assert np.max(np.abs(p @ p - p)) <= 4 * eps
    m = matrix_from_pauli(0.5, [0.05, 0.1, 0.15])
    assert np.max(np.abs(apply_dissipator(fb, m) - apply_dissipator(form_a_from_form_b(fb), m))) <= 1e-15
    assert is_completely_positive(dissipation_matrix(fb))[0].cp
    with pytest.raises(NotUnitError):
        FormB(terms=[(1.0, (1.0 + 2e-9) * np.array([0.0, 0.6, 0.8]))])


def test_form_b_rejects_bad_terms():
    # A LindbladError that is also the ValueError it always was.
    for rate in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(LindbladError, match="rate must be positive") as info:
            FormB(terms=[(rate, EZ)])
        assert isinstance(info.value, ValueError)


def test_empty_forms_are_the_zero_dissipator():
    fa, fb = FormA(operators=()), FormB(terms=())
    assert fb.rates.shape == (0,) and fb.axes.shape == (0, 3)
    assert form_a_to_form_b(fa).terms == () and form_a_from_form_b(fb).operators == ()
    zero = np.zeros((3, 3))
    assert np.array_equal(dissipation_matrix(fb), zero)
    assert np.array_equal(gks_matrix(fa), zero)
    fb_min, index = reduce_terms(fb)
    assert (fb_min.terms, index) == ((), 0)
    for form in (fa, fb, zero):
        assert np.array_equal(apply_dissipator(form, SIGMA_X), np.zeros((2, 2)))


def test_form_a_from_form_b_round_trip():
    rng = np.random.default_rng(61)
    for _ in range(100):
        fb = random_form_b(rng, int(rng.integers(1, 5)))
        fa = form_a_from_form_b(fb)
        fb2 = form_a_to_form_b(fa)
        assert np.max(np.abs(dissipation_matrix(fb2) - dissipation_matrix(fb))) < 1e-12
