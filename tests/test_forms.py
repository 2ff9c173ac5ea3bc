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
    GramFactor,
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
    plane_projector,
    reduce_terms,
    trace_split,
)
from lindblad2.core import IDENTITY2, SIGMA_X, SIGMA_Y, SIGMA_Z, frobenius_normalized
from lindblad2.errors import (
    EmptyDissipatorError,
    NotCPError,
    NotHermitianError,
    NotSymmetricError,
)
from lindblad2.forms import gram_condition_margins


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
    with pytest.raises(EmptyDissipatorError):
        form_a_to_form_b(FormA(operators=(IDENTITY2,)))


def test_form_a_to_form_b_mixed_operator():
    op = 0.5 * (3.0 * IDENTITY2 + 2.0 * SIGMA_X)
    fb = form_a_to_form_b(FormA(operators=(op,)))
    rate, axis = fb.terms[0]
    assert rate == pytest.approx(4.0, abs=1e-14)
    assert np.allclose(axis, EX)


def test_form_a_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        FormA(operators=(SIGMA_X + 1j * SIGMA_Y,))


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
        fa = random_form_a(rng, int(rng.integers(1, 5)))
        try:
            fa, fb, ell = forms_of(fa)
        except EmptyDissipatorError:
            continue
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


def test_dissipation_from_gram_examples():
    assert np.allclose(
        dissipation_from_gram(np.diag([0.0, 0.0, 1.0])), np.diag([0.5, 0.5, 0.0])
    )
    assert np.allclose(dissipation_from_gram(np.eye(3)), np.eye(3))
    assert np.allclose(dissipation_from_gram(np.zeros((3, 3))), np.zeros((3, 3)))


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
    # M 4^j factors into q 2^j bit for bit up to 1e300: no product may
    # overflow. (Scaling down is not covariant by design: the branch
    # threshold floors M22 at 1.)
    rng = np.random.default_rng(29)
    for rank in (1, 2, 3):
        for _ in range(50):
            g = rng.normal(size=(3, rank))
            m = g @ g.T
            q = gram_decompose(m)
            for j in (1, 250, 495):
                with np.errstate(all="raise"):
                    scaled = gram_decompose(np.ldexp(m, 2 * j))
                assert np.array_equal(scaled, np.ldexp(q, j))


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
    gf = gram_from_form_b(FormB(terms=[(1.0, EZ)]))
    assert np.allclose(gf.vectors, [[0.0], [0.0], [1.0]])
    assert gf.total_rate == pytest.approx(1.0)

    gf = gram_from_form_b(FormB(terms=[(4.0, EX)]))
    assert np.allclose(gf.vectors, [[2.0], [0.0], [0.0]])
    assert gf.total_rate == pytest.approx(4.0)

    gf = gram_from_form_b(FormB(terms=[(1.0, EX), (1.0, EY), (1.0, EZ)]))
    assert gf.total_rate == pytest.approx(3.0)
    assert np.allclose(gf.vectors, np.eye(3))


def test_form_b_from_gram_examples():
    fb = form_b_from_gram(GramFactor.from_vectors(np.eye(3)))
    assert len(fb.terms) == 3
    for (rate, axis), unit in zip(fb.terms, (EX, EY, EZ)):
        assert rate == pytest.approx(1.0)
        assert np.allclose(axis, unit)

    fb = form_b_from_gram(GramFactor.from_vectors([[0.0], [0.0], [2.0]]))
    rate, axis = fb.terms[0]
    assert rate == pytest.approx(4.0)
    assert np.allclose(axis, EZ)

    with pytest.raises(EmptyDissipatorError):
        form_b_from_gram(GramFactor.from_vectors(np.zeros((3, 2))))


def test_form_b_gram_round_trip_matrix():
    rng = np.random.default_rng(29)
    for _ in range(200):
        fb = random_form_b(rng, int(rng.integers(1, 7)))
        gf = gram_from_form_b(fb)
        q = gf.vectors
        rebuilt = 0.5 * (gf.total_rate * np.eye(3) - q @ q.T)
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
        q = gram_from_form_b(fb).vectors
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

    with pytest.raises(EmptyDissipatorError):
        form_b_from_dissipation(np.zeros((3, 3)))

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
    split = trace_split(SIGMA_Z)
    assert np.allclose(split.traceless, SIGMA_Z)
    assert split.scalar == 0.0
    assert np.max(np.abs(delta_hamiltonian([split]))) < 1e-15

    split = trace_split(IDENTITY2 + SIGMA_X)
    assert np.allclose(split.traceless, SIGMA_X)
    assert split.scalar == pytest.approx(1.0)
    assert np.max(np.abs(delta_hamiltonian([split]))) < 1e-15


def test_delta_hamiltonian_traceless_non_hermitian_vanishes():
    # A = sigma_x + i sigma_y is traceless, so s = 0 and the shift is zero by
    # direct evaluation of (i/2)(s B^dag - s* B).
    split = trace_split(SIGMA_X + 1j * SIGMA_Y)
    assert split.scalar == 0.0
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
            [s.traceless for s in splits], rho
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


def test_gks_minimal_single_mode():
    c = np.diag([0.5, 0.0, 0.0]).astype(complex)
    ops = gks_minimal(c)
    assert len(ops) == 1
    ref = FormA(operators=(np.sqrt(0.5) * SIGMA_X / np.sqrt(2.0),))
    assert np.max(np.abs(dissipator_action_table(ops) - dissipator_action_table(ref))) < 1e-12


def test_gks_minimal_zero_matrix():
    assert gks_minimal(np.zeros((3, 3))) == []


def test_gks_minimal_rejects_indefinite():
    from lindblad2.errors import NotPSDError

    with pytest.raises(NotPSDError):
        gks_minimal(np.diag([-1.0, 0.0, 0.0]))


def test_gks_minimal_rank_two():
    rng = np.random.default_rng(47)
    g = rng.normal(size=(3, 2))
    c = g @ g.T
    ops = gks_minimal(c)
    assert len(ops) == 2
    assert np.max(np.abs(gks_matrix(ops) - c)) < 1e-12


def test_gks_round_trip_action():
    rng = np.random.default_rng(53)
    for _ in range(100):
        fa = random_form_a(rng, int(rng.integers(1, 5)))
        ops = gks_minimal(gks_matrix(fa))
        assert len(ops) <= 3
        if not ops:
            # Only identity-proportional operators: the dissipator vanishes.
            assert np.max(np.abs(dissipator_action_table(fa))) < 1e-12
            continue
        assert (
            np.max(np.abs(dissipator_action_table(ops) - dissipator_action_table(fa)))
            < 1e-10
        )
        for op in ops:
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


def test_form_b_rejects_bad_terms():
    with pytest.raises(ValueError):
        FormB(terms=[(-1.0, EZ)])
    with pytest.raises(EmptyDissipatorError):
        FormB(terms=[])


def test_form_a_from_form_b_round_trip():
    rng = np.random.default_rng(61)
    for _ in range(100):
        fb = random_form_b(rng, int(rng.integers(1, 5)))
        fa = form_a_from_form_b(fb)
        fb2 = form_a_to_form_b(fa)
        assert np.max(np.abs(dissipation_matrix(fb2) - dissipation_matrix(fb))) < 1e-12
