import numpy as np
import pytest
import scipy.linalg

from conftest import EX, EY, EZ, forms_of, random_cp_matrix, random_form_a, random_form_b

from lindblad2 import (
    FormB,
    Hamiltonian,
    apply_dissipator,
    build_generator,
    density_from_bloch,
    dissipation_matrix,
    entropy_monotonicity_report,
    evolve_density,
    evolve_expm,
    evolve_rk4,
    generator_spectrum,
    liouvillian,
    matrix_exponential,
)
from lindblad2.asymptotics import spectral_gap
from lindblad2.dynamics import Trajectory, cross_matrix, propagate, rk4_step
from lindblad2.errors import BadStepError, NegativeTimeError

DEPHASING = np.diag([0.5, 0.5, 0.0])
ZERO_L = np.zeros((3, 3))


def test_build_generator_examples():
    gen = build_generator([0.0, 0.0, 0.0], DEPHASING)
    assert np.allclose(gen.matrix, -DEPHASING)

    omega = 1.3
    gen = build_generator([0.0, 0.0, omega], ZERO_L)
    assert np.allclose(
        gen.matrix, [[0.0, -omega, 0.0], [omega, 0.0, 0.0], [0.0, 0.0, 0.0]]
    )

    gen = build_generator([0.0, 0.0, 1.0], DEPHASING)
    assert np.allclose(gen.matrix, cross_matrix([0, 0, 1.0]) - DEPHASING)
    # Antisymmetric and symmetric parts split into the two ingredients.
    assert np.allclose(0.5 * (gen.matrix + gen.matrix.T), -DEPHASING)


def test_matrix_exponential_against_scipy():
    rng = np.random.default_rng(97)
    for _ in range(200):
        a = rng.uniform(-3.0, 3.0, size=(3, 3))
        ref = scipy.linalg.expm(a)
        scale = max(1.0, float(np.max(np.abs(ref))))
        # Both methods carry their own squaring roundoff; observed worst
        # relative deviation over this seed is ~7e-13.
        assert np.max(np.abs(matrix_exponential(a) - ref)) < 5e-12 * scale


def test_evolve_expm_identity_generator():
    gen = build_generator([0.0, 0.0, 0.0], ZERO_L)
    r0 = np.array([0.3, -0.2, 0.5])
    assert np.allclose(evolve_expm(gen, r0, 5.0), r0)


def test_evolve_expm_transverse_decay():
    gen = build_generator([0.0, 0.0, 0.0], DEPHASING)
    for t in (0.1, 0.5, 1.0, 3.0):
        r = evolve_expm(gen, [1.0, 0.0, 0.0], t)
        assert np.allclose(r, [np.exp(-0.5 * t), 0.0, 0.0], atol=1e-12)


def test_evolve_expm_quarter_turn_with_rk4_oracle():
    gen = build_generator([0.0, 0.0, 1.0], ZERO_L)
    t = np.pi / 2.0
    r = evolve_expm(gen, [1.0, 0.0, 0.0], t)
    assert np.allclose(r, [0.0, 1.0, 0.0], atol=1e-13)
    dt = t / 1000.0
    traj = evolve_rk4(gen, [1.0, 0.0, 0.0], t, dt)
    assert np.allclose(traj.final_state, r, atol=1e-9)


def test_evolve_expm_rejects_negative_time():
    gen = build_generator([0.0, 0.0, 0.0], ZERO_L)
    with pytest.raises(NegativeTimeError):
        evolve_expm(gen, [0.0, 0.0, 0.0], -0.1)


def test_evolve_rk4_constant_for_zero_generator():
    gen = build_generator([0.0, 0.0, 0.0], ZERO_L)
    traj = evolve_rk4(gen, [0.2, 0.1, -0.4], 1.0, 0.1)
    assert np.allclose(traj.states, traj.states[0])
    assert len(traj.times) == 11


def test_evolve_rk4_matches_closed_form_decay():
    gen = build_generator([0.0, 0.0, 0.0], DEPHASING)
    traj = evolve_rk4(gen, [1.0, 0.0, 0.0], 1.0, 1e-3)
    assert abs(traj.final_state[0] - np.exp(-0.5)) < 1e-10


def test_evolve_rk4_precession_preserves_norm():
    gen = build_generator([0.0, 0.0, 1.0], ZERO_L)
    traj = evolve_rk4(gen, [0.8, 0.0, 0.0], 100.0, 1e-3)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - 0.8)) < 1e-10


def test_evolve_rk4_final_state_near_expm():
    rng = np.random.default_rng(101)
    for _ in range(20):
        ell = random_cp_matrix(rng, int(rng.integers(1, 4)))
        gen = build_generator(rng.normal(size=3), ell)
        r0 = rng.uniform(-0.5, 0.5, size=3)
        t_max, dt = 2.0, 1e-2
        traj = evolve_rk4(gen, r0, t_max, dt)
        exact = evolve_expm(gen, r0, t_max)
        bound = 10.0 * dt**4 * np.linalg.norm(gen.matrix) ** 5 * t_max
        assert np.linalg.norm(traj.final_state - exact) < max(bound, 1e-14)


def test_evolve_rk4_order_factor():
    gen = build_generator([0.3, 0.7, 0.5], random_cp_matrix(np.random.default_rng(5), 2))
    r0 = np.array([0.6, 0.0, 0.5])
    t_max = 1.0
    errors = []
    for dt in (0.05, 0.025):
        traj = evolve_rk4(gen, r0, t_max, dt)
        errors.append(np.linalg.norm(traj.final_state - evolve_expm(gen, r0, t_max)))
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0


def test_evolve_rk4_rejects_bad_steps():
    gen = build_generator([0.0, 0.0, 0.0], ZERO_L)
    with pytest.raises(BadStepError):
        evolve_rk4(gen, [0, 0, 0], 1.0, 0.0)
    with pytest.raises(BadStepError):
        evolve_rk4(gen, [0, 0, 0], 1.0, -0.1)
    with pytest.raises(BadStepError):
        evolve_rk4(gen, [0, 0, 0], 1.0, 2.0)
    for t_max in (np.nan, np.inf, -1.0, 0.0):
        with pytest.raises(BadStepError):
            evolve_rk4(gen, [0, 0, 0], t_max, 0.1)


def test_trajectory_rejects_unordered_times():
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 0.0]),
            states=np.zeros((2, 3)),
            entropies=np.zeros(2),
            dt=0.1,
            method="rk4",
        )


def test_evolve_density_constant_when_commuting():
    h = Hamiltonian(h=np.array([0.0, 0.0, 1.0]))
    rho0 = density_from_bloch([0.0, 0.0, 0.5])
    traj = evolve_density(h, ZERO_L, rho0, 1.0, 1e-2)
    assert np.max(np.abs(traj.states - traj.states[0])) < 1e-12


def test_evolve_density_identity_coefficient_is_inert():
    # h0 multiplies the identity and cancels in the commutator.
    fb = FormB(terms=[(0.8, EX)])
    rho0 = density_from_bloch([0.2, 0.4, 0.1])
    plain = evolve_density(Hamiltonian(h=np.array([0.0, 1.0, 0.5])), fb, rho0, 1.0, 1e-2)
    shifted = evolve_density(
        Hamiltonian(h=np.array([0.0, 1.0, 0.5]), h0=5.0), fb, rho0, 1.0, 1e-2
    )
    assert np.max(np.abs(plain.states - shifted.states)) < 1e-13


def test_evolve_density_off_diagonal_decay():
    h = Hamiltonian(h=np.zeros(3))
    fb = FormB(terms=[(1.0, EZ)])
    rho0 = density_from_bloch([1.0, 0.0, 0.0])
    traj = evolve_density(h, fb, rho0, 1.0, 1e-3)
    # rho_01 = rx/2 decays at rate 1/2.
    assert abs(traj.final_state[0] - np.exp(-0.5)) < 1e-10
    assert traj.max_trace_dev < 1e-12
    assert traj.max_herm_dev < 1e-12


def _encodings(fa):
    """One dissipator as FormA, FormB, a matrix and a bare operator list."""
    return [*forms_of(fa), list(fa.operators)]


def test_liouvillian_matches_native_dissipator():
    rng = np.random.default_rng(113)
    for _ in range(20):
        h = Hamiltonian(h=rng.normal(size=3), h0=rng.normal())
        for form in _encodings(random_form_a(rng, int(rng.integers(1, 4)))):
            gen = liouvillian(h, form)
            for _ in range(3):
                m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                ref = -1j * (h.matrix @ m - m @ h.matrix) - apply_dissipator(form, m)
                assert np.max(np.abs((gen @ m.reshape(4)).reshape(2, 2) - ref)) < 1e-14


def test_liouvillian_same_for_all_encodings():
    rng = np.random.default_rng(127)
    for _ in range(50):
        h = rng.normal(size=3)
        fa, *others = _encodings(random_form_a(rng, int(rng.integers(1, 5))))
        ref = liouvillian(h, fa)
        for form in others:
            assert np.max(np.abs(liouvillian(h, form) - ref)) < 1e-14


def test_picture_equivalence_random():
    rng = np.random.default_rng(103)
    for _ in range(5):
        fb = random_form_b(rng, int(rng.integers(1, 4)))
        h = Hamiltonian(h=rng.normal(size=3))
        r0 = rng.uniform(-0.5, 0.5, size=3)
        rho0 = density_from_bloch(r0)
        ell = dissipation_matrix(fb)
        bloch_traj = evolve_rk4(build_generator(h, ell), r0, 10.0, 1e-3)
        matrix_traj = evolve_density(h, fb, rho0, 10.0, 1e-3)
        assert np.max(np.abs(bloch_traj.states - matrix_traj.states)) < 1e-8
        assert matrix_traj.max_trace_dev < 1e-10
        assert matrix_traj.max_herm_dev < 1e-10


def test_positivity_along_cp_evolution():
    rng = np.random.default_rng(107)
    for _ in range(20):
        fb = random_form_b(rng, int(rng.integers(1, 4)))
        gen = build_generator(rng.normal(size=3), dissipation_matrix(fb))
        r0 = rng.normal(size=3)
        r0 /= max(1.0, np.linalg.norm(r0))
        traj = evolve_rk4(gen, r0, 5.0, 1e-2)
        assert traj.max_radius() <= 1.0 + 1e-9


def test_generator_spectrum_diagonal():
    gen = build_generator([0.0, 0.0, 0.0], DEPHASING)
    eigs = np.sort_complex(generator_spectrum(gen))
    assert np.allclose(eigs, [-0.5, -0.5, 0.0], atol=1e-12)


def test_generator_spectrum_rotation():
    gen = build_generator([0.0, 0.0, 1.0], ZERO_L)
    eigs = sorted(generator_spectrum(gen), key=lambda z: z.imag)
    assert np.allclose(eigs, [-1.0j, 0.0, 1.0j], atol=1e-12)


def test_generator_spectrum_shifted_isotropic():
    lam = 0.6
    gen = build_generator([0.0, 0.0, 1.0], lam * np.eye(3))
    eigs = sorted(generator_spectrum(gen), key=lambda z: z.imag)
    assert np.allclose(eigs, [-lam - 1.0j, -lam, -lam + 1.0j], atol=1e-12)


def test_generator_spectrum_against_lapack():
    rng = np.random.default_rng(109)
    for _ in range(500):
        gen = build_generator(rng.normal(size=3), random_cp_matrix(rng, 3) * rng.uniform(0.1, 5))
        mine = np.sort_complex(generator_spectrum(gen))
        ref = np.sort_complex(np.linalg.eigvals(gen.matrix))
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(mine - ref)) < 1e-10 * scale
        assert abs(np.sum(mine) - np.trace(gen.matrix)) < 1e-10 * scale


def test_entropy_constant_under_pure_precession():
    gen = build_generator([0.0, 0.0, 2.0], ZERO_L)
    traj = evolve_rk4(gen, [0.7, 0.0, 0.2], 10.0, 1e-3)
    assert entropy_monotonicity_report(traj) <= 1e-12


def test_entropy_increases_to_maximum_for_depolarizer():
    gen = build_generator([0.0, 0.0, 0.0], np.eye(3))
    traj = evolve_rk4(gen, [1.0, 0.0, 0.0], 20.0, 1e-3)
    # Saturation at ln 2 can jitter by an ulp; anything above that would be a
    # genuine decrease.
    assert entropy_monotonicity_report(traj) <= 1e-12
    assert abs(traj.entropies[-1] - np.log(2.0)) < 1e-9
    early = traj.entropies[:2000]
    assert np.all(np.diff(early) > 0.0)


def test_entropy_constant_on_fixed_point():
    gen = build_generator([0.0, 0.0, 1.0], DEPHASING)
    traj = evolve_rk4(gen, [0.0, 0.0, 0.4], 5.0, 1e-3)
    assert entropy_monotonicity_report(traj) == 0.0
    assert np.allclose(traj.states, traj.states[0])


def test_propagate_reproduces_integrators():
    # Both RK4 integrators are propagate(rk4_step(dt * generator)), bit for
    # bit the sequential matrix-vector loop with the nested Taylor polynomial.
    rng = np.random.default_rng(137)
    dt, steps = 0.01, 200
    for _ in range(5):
        fb = random_form_b(rng, int(rng.integers(1, 4)))
        h = Hamiltonian(h=rng.normal(size=3))
        rho0 = density_from_bloch(rng.uniform(-0.5, 0.5, size=3))
        gen = build_generator(h, dissipation_matrix(fb))
        lv = liouvillian(h, fb)
        for a, v0 in ((dt * gen.matrix, rho0.bloch), (dt * lv, rho0.matrix.reshape(4))):
            eye = np.eye(len(a))
            phi = eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
            ref = [v0]
            for _ in range(steps):
                ref.append(phi @ ref[-1])
            assert np.array_equal(rk4_step(a), phi)
            assert np.array_equal(propagate(phi, v0, steps), np.array(ref))
            # The classical four-stage form agrees to rounding.
            v = v0
            k1 = a @ v
            k2 = a @ (v + k1 / 2)
            k3 = a @ (v + k2 / 2)
            k4 = a @ (v + k3)
            assert np.max(np.abs(phi @ v - (v + (k1 + 2 * k2 + 2 * k3 + k4) / 6))) < 1e-15
        bloch = propagate(rk4_step(dt * gen.matrix), rho0.bloch, steps)
        assert np.array_equal(evolve_rk4(gen, rho0.bloch, dt * steps, dt).states, bloch)
        vecs = propagate(rk4_step(dt * lv), rho0.matrix.reshape(4), steps)
        d00, d01, d10, d11 = vecs.T
        states = np.stack([(d01 + d10).real, (1j * (d01 - d10)).real, (d00 - d11).real], axis=1)
        assert np.array_equal(evolve_density(h, fb, rho0, dt * steps, dt).states, states)


def test_step_count_cap():
    gen = build_generator([0.0, 0.0, 1.0], DEPHASING)
    # 1e15 steps: the cap rejects the run before any trajectory is allocated.
    with pytest.raises(BadStepError, match="cap"):
        evolve_rk4(gen, [1.0, 0.0, 0.0], 1e6, 1e-9)
    with pytest.raises(BadStepError, match="cap"):
        evolve_density([0.0, 0.0, 1.0], DEPHASING, density_from_bloch(EX), 1e6, 1e-9)


def test_rotated_exceptional_point():
    # One axis n at rate lam with h perpendicular to n and |h| = lam / 4:
    # the generator has spectrum {-lam/2, -lam/4, -lam/4} with a Jordan
    # block, in a generic orientation. np.linalg.eigvals misses the double
    # root by up to ~1e-8 here; the closed-form cubic must hold 1e-10.
    rng = np.random.default_rng(139)
    for _ in range(500):
        lam = rng.uniform(0.1, 5.0)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        p = rng.normal(size=3)
        p -= (p @ n) * n
        h = 0.25 * lam * p / np.linalg.norm(p)
        gen = build_generator(h, dissipation_matrix(FormB(terms=[(lam, n)])))
        eigs = np.sort_complex(generator_spectrum(gen))
        assert np.max(np.abs(eigs - [-lam / 2, -lam / 4, -lam / 4])) < 1e-10 * lam
        assert abs(spectral_gap(gen) - lam / 4) < 1e-10 * lam
